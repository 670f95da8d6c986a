"""GF(2) linear algebra on bit-packed integer rows.

Rows are plain Python ints; bit i is coordinate i.  These helpers back the
stabilizer machinery (rank checks, constraint solving, canonical forms).
They are exact and allocation-light.  :func:`solve_unique_batch` is the one
batched routine: it solves many small systems at once on uint64 rows in
numpy, for the class-pair analysis of blind discovery.
"""
from __future__ import annotations

import numpy as np


def _eliminate(v: int, pivots: dict[int, int]) -> int:
    """Clear every pivot column from v (pivots kept fully reduced)."""
    for pb in pivots:
        if (v >> pb) & 1:
            v ^= pivots[pb]
    return v


def _insert(v: int, pivots: dict[int, int]):
    """Insert a fully-reduced nonzero row, preserving full reduction."""
    b = v.bit_length() - 1
    for pb in list(pivots):
        if (pivots[pb] >> b) & 1:
            pivots[pb] ^= v
    pivots[b] = v


def rref(rows) -> list[int]:
    """Fully reduced row echelon form, rows sorted by pivot descending.

    Zero rows are dropped, so the result is a canonical representative of
    the row space (two row sets span the same space iff rref is equal).
    """
    pivots: dict[int, int] = {}
    for v in rows:
        v = _eliminate(v, pivots)
        if v:
            _insert(v, pivots)
    return [pivots[b] for b in sorted(pivots, reverse=True)]


def rank(rows) -> int:
    return len(rref(rows))


def solve_affine(rows, rhs, width: int):
    """Solve <row_i, v> = rhs_i over GF(2) for v of ``width`` bits.

    Returns ``(particular, nullspace_basis)`` or ``None`` when the system is
    inconsistent.  ``particular`` has all free coordinates set to zero, and
    the basis vectors each set exactly one free coordinate, so the result is
    deterministic for a given row order.
    """
    # augmented rows: coefficient bits shifted left, rhs in bit 0
    aug = [(r << 1) | (b & 1) for r, b in zip(rows, rhs)]
    pivots: dict[int, int] = {}
    for v in aug:
        v = _eliminate(v, pivots)
        if v == 1:
            return None  # 0 = 1
        if v:
            _insert(v, pivots)
    pivot_cols = {b - 1 for b in pivots}  # coefficient coordinates with pivots
    free_cols = [c for c in range(width) if c not in pivot_cols]
    particular = 0
    for b, row in pivots.items():
        if row & 1:
            particular |= 1 << (b - 1)
    basis = []
    for c in free_cols:
        vec = 1 << c
        for b, row in pivots.items():
            if (row >> (c + 1)) & 1:
                vec |= 1 << (b - 1)
        basis.append(vec)
    return particular, basis


_ONE = np.uint64(1)


def solve_unique_batch(rows, width: int) -> np.ndarray:
    """Unique solution of each of P stacked square affine systems, or -1.

    ``rows`` is a (P, width) array holding one system per row, in the
    augmented form of :func:`solve_affine`: bit 0 is the rhs and bits
    1..width are the coefficients.  Gauss-Jordan elimination runs over the
    ``width`` columns for all P systems at once.  Entry p of the result is
    the solution v of system p when its rank is ``width`` (a square system
    of full rank is always consistent), and -1 otherwise.
    """
    aug = np.array(rows, dtype=np.uint64)
    p, m = aug.shape
    if m != width:
        raise ValueError(f"need {width} rows per system, got {m}")
    ok = np.ones(p, dtype=bool)
    sel = np.arange(p)
    for k in range(width):
        col = np.uint64(width - k)  # coefficient bit width-1-k, pivot of row k
        has = ((aug[:, k:] >> col) & _ONE).astype(bool)
        ok &= has.any(axis=1)
        src = k + has.argmax(axis=1)
        pivot = aug[sel, src]
        aug[sel, src] = aug[:, k]
        aug[:, k] = pivot
        hit = ((aug >> col) & _ONE).astype(bool)
        hit[:, k] = False
        aug ^= np.where(hit, pivot[:, None], np.uint64(0))
    weights = np.left_shift(1, np.arange(width - 1, -1, -1), dtype=np.int64)
    key = (aug & _ONE).astype(np.int64) @ weights
    return np.where(ok, key, -1)
