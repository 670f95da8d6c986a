"""Clifford elements as tableaux, the MUB family, and Clifford sampling over GF(2).

Everything here works on the symplectic encoding from :mod:`twirltomo.pauli`.
A Clifford element is stored by its conjugation action: the images of the
single-qubit X and Z operators, each a signed Pauli; :meth:`Tableaux.unitaries`
reads the dense unitaries of a stack off them.  A Pauli placed between a
channel and the untwirl of an element only relabels outcomes, by its
syndrome against the element's Z-images (:func:`outcome_shift`).

Sign conventions are pinned here once and tests assert them:
H maps X -> Z and Z -> X with +1 (so Y -> -Y); the phase gate S maps
X -> Y with +1 (so Y -> -X, Z -> Z); CNOT follows the usual propagation
rules with the Y_c Y_t sign handled by the standard tableau update.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .channels import gate_unitary
from .gf2 import _gj_insert
from .pauli import Pauli, multiply

_ONE = np.uint64(1)
_I_POWERS = np.array([1, 1j, -1, -1j])

Gate = tuple[str, tuple[int, ...]]


# ---------------------------------------------------------------------------
# gate-level conjugation rules


def _conj_gate(p: Pauli, gate: Gate) -> Pauli:
    """Image g P g^dag for a single elementary gate."""
    name, qs = gate
    n = p.n
    x, z, ph = p.x, p.z, p.phase_pow
    if name == "H":
        (q,) = qs
        b = 1 << (n - 1 - q)
        xb, zb = x & b, z & b
        ph += 2 * (1 if (xb and zb) else 0)
        x = (x & ~b) | (b if zb else 0)
        z = (z & ~b) | (b if xb else 0)
    elif name == "S":
        (q,) = qs
        b = 1 << (n - 1 - q)
        if x & b:
            ph += 2 * (1 if (z & b) else 0)
            z ^= b
    elif name == "CNOT":
        c, t = qs
        bc = 1 << (n - 1 - c)
        bt = 1 << (n - 1 - t)
        xc, zc = bool(x & bc), bool(z & bc)
        xt, zt = bool(x & bt), bool(z & bt)
        if xc and zt and (xt == zc):
            ph += 2
        if xc:
            x ^= bt
        if zt:
            z ^= bc
    elif name in ("X", "Y", "Z"):
        (q,) = qs
        b = 1 << (n - 1 - q)
        flips = {"X": bool(z & b), "Z": bool(x & b),
                 "Y": bool(x & b) != bool(z & b)}[name]
        ph += 2 * flips
    else:
        raise ValueError(f"unknown gate {name!r}")
    return Pauli(n, x, z, ph)


def circuit_unitary(gates: list[Gate], n: int) -> np.ndarray:
    """Dense unitary of a gate list (first gate applied first)."""
    u = np.eye(1 << n, dtype=complex)
    for name, qs in gates:
        u = gate_unitary(name, qs, n) @ u
    return u


# ---------------------------------------------------------------------------


class Clifford:
    """A Clifford unitary modulo global phase, stored as its tableau: the conjugation
    images, from which :meth:`unitary` builds the dense matrix."""

    __slots__ = ("n", "x_images", "z_images")

    def __init__(self, n: int, x_images: tuple[Pauli, ...], z_images: tuple[Pauli, ...]):
        if len(x_images) != n or len(z_images) != n:
            raise DimensionMismatchError("need n X-images and n Z-images")
        for p in (*x_images, *z_images):
            if p.n != n:
                raise DimensionMismatchError("image qubit count mismatch")
            if not p.is_hermitian:
                raise ValueError("Clifford images of Hermitian Paulis must be Hermitian")
        self.n = n
        self.x_images = tuple(x_images)
        self.z_images = tuple(z_images)

    @staticmethod
    def identity(n: int) -> "Clifford":
        return Clifford(n,
                        tuple(Pauli.single(n, j, "X") for j in range(n)),
                        tuple(Pauli.single(n, j, "Z") for j in range(n)))

    @staticmethod
    def from_circuit(gates: list[Gate], n: int) -> "Clifford":
        xs = [Pauli.single(n, j, "X") for j in range(n)]
        zs = [Pauli.single(n, j, "Z") for j in range(n)]
        for g in gates:
            xs = [_conj_gate(p, g) for p in xs]
            zs = [_conj_gate(p, g) for p in zs]
        return Clifford(n, tuple(xs), tuple(zs))

    def conjugate(self, p: Pauli) -> Pauli:
        """C P C^dag with exact sign, from the stored images."""
        if p.n != self.n:
            raise DimensionMismatchError("qubit count mismatch")
        n = self.n
        acc = Pauli.identity(n)
        for j in range(n):
            if (p.x >> (n - 1 - j)) & 1:
                acc = multiply(acc, self.x_images[j])
        for j in range(n):
            if (p.z >> (n - 1 - j)) & 1:
                acc = multiply(acc, self.z_images[j])
        c = (p.x & p.z).bit_count()
        return Pauli(n, acc.x, acc.z, acc.phase_pow + c + p.phase_pow)

    def unitary(self) -> np.ndarray:
        """Dense unitary up to a global phase, by :meth:`Tableaux.unitaries`."""
        return Tableaux.of([self]).unitaries()[0]

    def __eq__(self, other):
        return (isinstance(other, Clifford) and self.n == other.n
                and self.x_images == other.x_images and self.z_images == other.z_images)

    def __hash__(self):
        return hash((self.n, self.x_images, self.z_images))


# ---------------------------------------------------------------------------
# MUB construction via a symmetric matrix spread over GF(2^n)

# minimal-weight irreducible polynomials over GF(2), bit i = coefficient of x^i
_IRREDUCIBLE = {
    1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101,
    6: 0b1000011, 7: 0b10001001, 8: 0b100011011, 9: 0b1000010001,
    10: 0b10000001001, 11: 0b100000000101, 12: 0b1000001010011,
    13: 0b10000000011011, 14: 0b100010001000011, 15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def _field_mul(a: int, b: int, n: int) -> int:
    poly = _IRREDUCIBLE[n]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= poly
    return r


def _field_trace(a: int, n: int) -> int:
    t = 0
    y = a
    for _ in range(n):
        t ^= y
        y = _field_mul(y, y, n)
    return t & 1  # the trace of GF(2^n) over GF(2) is 0 or 1


@lru_cache(maxsize=None)
def _spread_matrices(n: int) -> tuple[tuple[int, ...], ...]:
    """2^n symmetric GF(2) matrices with pairwise invertible differences.

    Row i of matrix A_t is returned as a packed int.  Entries are
    (A_t)[i][j] = Tr(t * alpha^(i+j)) -- a Hankel pattern, symmetric by
    construction, and A_t - A_s = A_(t^s) is invertible for t != s because
    it represents multiplication by the nonzero field element t^s composed
    with an invertible Gram map.
    """
    if n not in _IRREDUCIBLE:
        raise DimensionMismatchError(f"MUB construction tabulated up to n={max(_IRREDUCIBLE)}")
    out = []
    for t in range(1 << n):
        c = []
        power = 1  # alpha^k
        for _k in range(2 * n - 1):
            c.append(_field_trace(_field_mul(t, power, n), n))
            power = _field_mul(power, 2, n)  # alpha = the element "x"
        rows = []
        for i in range(n):
            r = 0
            for j in range(n):
                r |= c[i + j] << j
            rows.append(r)
        out.append(tuple(rows))
    return tuple(out)


def _swap_halves(key: int, n: int) -> int:
    mask = (1 << n) - 1
    return (key >> n) | ((key & mask) << n)


def outcome_shift(z_keys, p: Pauli) -> np.ndarray:
    """Syndrome of ``p`` against the (..., n) Z-image keys of a stack of
    elements: bit k (qubit 1 on top) says whether p anticommutes with Z-image
    k.  p between the channel and the untwirl relabels outcome v as v ^ it."""
    n = p.n
    z_keys = np.asarray(z_keys, dtype=np.uint64)
    if z_keys.shape[-1] != n:
        raise DimensionMismatchError(
            f"the Pauli acts on {n} qubits, the Z-images on {z_keys.shape[-1]}")
    flips = _swap_halves(z_keys, n) & np.uint64(p.key)
    return (np.bitwise_count(flips) & 1).astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))


def _key_to_pauli(key: int, n: int, phase: int = 0) -> Pauli:
    mask = (1 << n) - 1
    return Pauli(n, key & mask, key >> n, phase)


@lru_cache(maxsize=None)
def build_mub_family(n: int) -> Tableaux:
    """The D+1 stabilizer MUBs as one read-only stack; basis 0 is the
    computational basis (the identity).  Basis t + 1 has Z-images
    X_j Z^(column j of A_t) for the spread matrix A_t and X-images Z_j, all
    signs +1: its state m, the element applied to X^m |0..0>, carries
    Z-image signs (-1)^(bits of m).

    The D+1 Z-image sets partition the 4**n - 1 nonidentity Paulis into
    disjoint maximal commuting classes; mutual unbiasedness follows and is
    checked densely in the tests for small n.
    """
    d = 1 << n
    qubit = _ONE << np.arange(n - 1, -1, -1, dtype=np.uint64)  # qubit j + 1's bit
    rows = np.array(_spread_matrices(n), dtype=np.uint64)[:, :, None]  # (D, i, 1)
    # bit n - 1 - i of column j is bit j of row i
    cols = np.bitwise_or.reduce(((rows >> np.arange(n, dtype=np.uint64)) & _ONE)
                                * qubit[:, None], axis=1)
    family = Tableaux(n, np.vstack((qubit, np.broadcast_to(qubit << n, (d, n)))),
                      np.vstack((qubit << n, qubit | (cols << n))),
                      np.zeros((d + 1, 2 * n), dtype=np.int64))
    for array in (family.x, family.z, family.signs):
        array.setflags(write=False)  # cached and shared by every caller
    return family


# ---------------------------------------------------------------------------
# uniform Clifford sampling


@dataclass(frozen=True)
class Tableaux:
    """A stack of M Clifford elements as arrays, row i for element i.

    ``x[i, j]`` and ``z[i, j]`` are the symplectic keys (x | z << n) of the
    images of X and Z on qubit j + 1, and ``signs[i, 2j]`` and
    ``signs[i, 2j + 1]`` their sign bits: an image carries the sign
    (-1)^bit, as a :class:`Pauli` with phase 2 * bit.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    signs: np.ndarray

    @staticmethod
    def of(cliffords) -> "Tableaux":
        """The stack of the given :class:`Clifford` elements, in order."""
        cliffords = list(cliffords)
        n = cliffords[0].n
        return Tableaux(
            n,
            np.array([[p.key for p in c.x_images] for c in cliffords], dtype=np.uint64),
            np.array([[p.key for p in c.z_images] for c in cliffords], dtype=np.uint64),
            np.array([[p.phase_pow >> 1 for pair in zip(c.x_images, c.z_images)
                       for p in pair] for c in cliffords], dtype=np.int64))

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, rows) -> "Tableaux":
        """The stack of the selected rows; an int selects a one-row stack."""
        rows = [rows] if isinstance(rows, (int, np.integer)) else rows
        return Tableaux(self.n, self.x[rows], self.z[rows], self.signs[rows])

    def unitaries(self) -> np.ndarray:
        """(M, D, D) dense unitaries of the stack, each up to a global phase.

        Column 0 of C is C|0..0>, the normalized largest column of
        prod_k (I + g_k) / 2 over the signed Z-images g_k; column m is
        C X^m |0..0>, so each X-image h doubles the columns as [u, h u],
        qubit n first.  An image (-1)^s i^|x & z| X^x Z^z is a signed row
        permutation: row r of the product is row r ^ x times
        i^|x & z| (-1)^(s + |(r ^ x) & z|), so all is exact up to the norm.
        """
        n, m, d = self.n, len(self), 1 << self.n
        rows, elements = np.arange(d), np.arange(m)

        def times(keys, signs, u):  # g u for each element's image g (key, sign bit)
            x = (keys & np.uint64(d - 1)).astype(np.int64)[:, None]
            z = (keys >> np.uint64(n)).astype(np.int64)[:, None]
            src = rows ^ x
            power = np.bitwise_count(x & z) + 2 * (signs[:, None] + np.bitwise_count(src & z))
            return _I_POWERS[power % 4][..., None] * u[elements[:, None], src]

        proj = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d))
        for j in range(n):
            half = times(self.z[:, j], self.signs[:, 2 * j + 1], proj)
            proj = np.multiply(np.add(half, proj, out=half), 0.5, out=half)
        norms = np.linalg.norm(proj, axis=1)
        u = (proj[elements, :, np.argmax(norms, axis=1)] / norms.max(axis=1)[:, None])[..., None]
        for j in range(n - 1, -1, -1):
            u = np.concatenate((u, times(self.x[:, j], self.signs[:, 2 * j], u)), axis=2)
        return u

    def clifford(self, i: int) -> Clifford:
        """Element i as a :class:`Clifford`."""
        n = self.n
        s = self.signs[i].tolist()
        return Clifford(
            n,
            tuple(_key_to_pauli(k, n, 2 * s[2 * j]) for j, k in enumerate(self.x[i].tolist())),
            tuple(_key_to_pauli(k, n, 2 * s[2 * j + 1])
                  for j, k in enumerate(self.z[i].tolist())))


def clifford_bounds(n: int) -> tuple[int, ...]:
    """The draws of one uniform Clifford element, as ``integers(0, k)``
    bounds: for each pair k = 0..n-1 a nonzero combination of the 2n - 2k
    complement vectors (drawn minus one, in [0, 4^(n-k) - 1)) and a
    combination of the 2n - 2k - 1 solution vectors, then 2n sign bits.
    These are the rows :func:`grow_cliffords` takes."""
    pairs = [(4 ** (n - k) - 1, 2 ** (2 * (n - k) - 1)) for k in range(n)]
    return (*(b for pair in pairs for b in pair), *(2,) * (2 * n))


def draw_clifford_row(n: int, rng: np.random.Generator) -> list[int]:
    """One row of :func:`clifford_bounds` draws from ``rng``, in order: one
    call per pair coefficient, then one call for the 2n sign bits."""
    coefficients = [int(rng.integers(0, k)) for k in clifford_bounds(n)[:2 * n]]
    return coefficients + rng.integers(0, 2, size=2 * n).tolist()


def _combination(pivots: np.ndarray, coeff: np.ndarray, nfree: int,
                 rhs: int) -> np.ndarray:
    """For each system, what ``gf2.solve_affine`` gives as the particular
    solution (when ``rhs``, else 0) XORed with the nullspace basis vectors
    that the bits of ``coeff`` pick.  Basis vector i sets the i-th free
    coordinate in ascending order, and every pivot coordinate b - 1 whose
    pivot row has that column's bit, so the XOR sets pivot coordinate b - 1
    to the parity of its row over the picked columns (and the rhs bit)."""
    free = np.nonzero(pivots[:, 1:] == 0)[1].reshape(len(pivots), nfree)
    picked = (coeff[:, None] >> np.arange(nfree)) & 1
    sel = np.bitwise_or.reduce(picked.astype(np.uint64) << (free + 1).astype(np.uint64),
                               axis=1) | np.uint64(rhs)
    parity = (np.bitwise_count(pivots[:, 1:] & sel[:, None]) & 1).astype(np.uint64)
    width = pivots.shape[1] - 1
    return (sel >> _ONE) | np.bitwise_or.reduce(
        parity << np.arange(width, dtype=np.uint64), axis=1)


def grow_cliffords(n: int, rows) -> Tableaux:
    """The Clifford elements that the (M, 4n) draw rows of
    :func:`clifford_bounds` select, all M at once.

    A symplectic basis is grown pair by pair: x_k is a nonzero combination
    of the complement basis of the pairs chosen so far, and z_k a solution
    of <x_k, z> = 1 within that complement, the particular solution plus a
    combination of the nullspace basis.  Each system is kept in fully
    reduced row echelon form on uint64 rows, so the complement basis and the
    solutions come out as :func:`gf2.solve_affine` gives them.  Every
    ordered symplectic basis arises from exactly one row, so uniform draws
    give an exactly uniform symplectic action; 2n sign bits complete it.
    """
    if 2 * n + 1 > 64:
        raise DimensionMismatchError("uint64 Clifford growth needs n <= 31")
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4 * n)
    m = len(rows)
    # symplectic form <a, b> = parity(swap_halves(a) & b): row a of a system
    pivots = np.zeros((m, 2 * n + 1), dtype=np.uint64)  # the pairs so far, rhs 0
    x = np.empty((m, n), dtype=np.uint64)
    z = np.empty((m, n), dtype=np.uint64)
    for k in range(n):
        nfree = 2 * (n - k)
        x[:, k] = _combination(pivots, rows[:, 2 * k] + 1, nfree, 0)
        # <x_k, z> = 1: the other rows have rhs 0, so a pivot row's rhs bit
        # marks whether it took in the new row, and clearing the rhs bits
        # leaves the system with x_k at rhs 0
        _gj_insert(pivots, (_swap_halves(x[:, k], n) << _ONE) | _ONE)
        z[:, k] = _combination(pivots, rows[:, 2 * k + 1], nfree - 1, 1)
        pivots &= ~_ONE
        _gj_insert(pivots, _swap_halves(z[:, k], n) << _ONE)
    return Tableaux(n, x, z, rows[:, 2 * n:])


def sample_clifford_uniform(n: int, rng: np.random.Generator) -> Clifford:
    """Uniformly random Clifford element modulo global phase: one row of
    draws from ``rng`` grown by :func:`grow_cliffords`.  A call costs about
    0.1-0.4 ms at n = 1 to 3, mostly numpy's per-call overhead: to draw many
    elements, grow :func:`clifford_bounds` rows in one call instead."""
    return grow_cliffords(n, draw_clifford_row(n, rng)).clifford(0)


def clifford_group_tableaux(n: int) -> Tableaux:
    """The whole Clifford group mod phase as one stack: every draw row of
    :func:`clifford_bounds` in lexicographic order, sign bits innermost.

    Practical for n <= 2 (24 and 11520 elements).
    """
    if n > 2:
        raise DimensionMismatchError("full Clifford enumeration capped at n = 2")
    rows = np.array(list(itertools.product(*map(range, clifford_bounds(n)))),
                    dtype=np.int64)
    rows[:, 2 * n:] = rows[:, 2 * n:][:, ::-1]  # sign bit 0 varies fastest
    return grow_cliffords(n, rows)


def enumerate_clifford_group(n: int):
    """The elements of :func:`clifford_group_tableaux`, in order."""
    tableaux = clifford_group_tableaux(n)
    for i in range(len(tableaux)):
        yield tableaux.clifford(i)
