"""GF(2) linear algebra on bit-packed integer rows.

Rows are plain Python ints; bit i is coordinate i.  These helpers back the
stabilizer machinery (rank checks, constraint solving, canonical forms).
They are exact and allocation-light.  The batched routines work on many
small systems at once, on uint64 rows in numpy: :func:`rref_batch` gives
the constraint classes of blind discovery (through the pivot tables of
:func:`_gj_insert`), and :func:`solve_affine_batch` reads each class's
solution frame (a particular key and a nullspace basis) off its reduced
rows.  The scalar :func:`solve_affine` is the tests' reference for the
batched frames.  The n x n system of each class pair in such a frame is
solved bit-sliced, 8 pairs per byte, inside the pair pass of
:mod:`twirltomo.seqpt`.
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


def _gj_insert(pivots: np.ndarray, v: np.ndarray):
    """Insert augmented rows v (one per system) into fully reduced pivot
    tables, in place: ``pivots[i, b]`` is system i's pivot row whose top
    bit is b, or 0.  As :func:`_eliminate` then :func:`_insert`;
    every v must be independent of its system's pivots."""
    shifts = np.arange(pivots.shape[1], dtype=np.uint64)
    # fully reduced pivots clear their own column without touching another
    v = v ^ np.bitwise_xor.reduce(pivots * ((v[:, None] >> shifts) & _ONE), axis=1)
    top = ((v[:, None] >> shifts) != 0).sum(axis=1) - 1
    pivots ^= v[:, None] * ((pivots >> top[:, None].astype(np.uint64)) & _ONE)
    pivots[np.arange(len(v)), top] = v


def rref_batch(rows, width: int) -> np.ndarray:
    """:func:`rref` of each of P stacked systems at once.  ``rows`` is a
    (P, r) array of r independent rows per system, each below 2^width; the
    result holds each system's fully reduced rows, sorted by pivot
    descending, as rref gives them."""
    rows = np.asarray(rows, dtype=np.uint64)
    pivots = np.zeros((len(rows), width), dtype=np.uint64)
    for k in range(rows.shape[1]):
        _gj_insert(pivots, rows[:, k])
    pivots = pivots[:, ::-1]
    return pivots[pivots != 0].reshape(rows.shape)


def solve_affine_batch(rows, width: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve_affine` of each of P stacked consistent systems, read
    straight off rows that :func:`rref_batch` has fully reduced.  ``rows``
    is a (P, r) array of r independent augmented rows per system (bit 0 the
    rhs, bits 1..width the coefficients, width <= 63), none of them 1.
    Returns the (P,) particular keys and the (P, width - r) nullspace keys,
    one per free coordinate in ascending order, as solve_affine gives them."""
    rows = np.asarray(rows, dtype=np.uint64)
    p, r = rows.shape
    # a fully reduced row's top bit is its pivot: the pivot's coefficient
    # coordinate is the row's bit length less 2, counted once its bits are smeared down
    smeared = rows.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        smeared |= smeared >> np.uint64(shift)
    top = np.bitwise_count(smeared).astype(np.uint64) - np.uint64(2)
    free = np.ones((p, width), dtype=bool)
    free[np.arange(p)[:, None], top] = False
    cols = np.nonzero(free)[1].reshape(p, width - r).astype(np.uint64)
    particular = np.bitwise_or.reduce((rows & _ONE) << top, axis=1)
    basis = _ONE << cols
    for k in range(r):  # pivot coordinate of row k = its bit at each free coordinate
        basis |= ((rows[:, k, None] >> (cols + _ONE)) & _ONE) << top[:, k, None]
    return particular, basis
