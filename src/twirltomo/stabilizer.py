"""Clifford elements as tableaux, the MUB family, and Clifford sampling over GF(2).

Everything here works on the symplectic encoding from :mod:`twirltomo.pauli`.
A Clifford element is stored by its conjugation action: the images of the
single-qubit X and Z operators, each a signed Pauli; :meth:`Tableaux.unitaries`
reads the dense unitaries of a stack off them.  A Pauli placed between a
channel and the untwirl of an element only relabels outcomes, by its
syndrome against the element's Z-images (:func:`outcome_shift`).

Sign conventions are pinned once, in the one-gate table :data:`GATES` (so H
maps Y -> -Y and S maps Y -> -X); a gate list compiles by composing its
one-gate stacks (:meth:`Tableaux.then`), and tests check both densely.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .channels import gate_unitary
from .gf2 import _gj_insert, solve_affine_batch
from .pauli import Pauli

_ONE = np.uint64(1)
_I_POWERS = np.array([1, 1j, -1, -1j])

Gate = tuple[str, tuple[int, ...]]


#: the elementary gates by name: the images of X_1, Z_1 (and X_2, Z_2 for a
#: two-qubit gate) as Pauli strings over the gate's qubits, in its qubit
#: order, "-" marking sign bit 1.  These pin the sign conventions.
GATES = {
    "H": ("Z", "X"), "S": ("Y", "Z"),
    "X": ("X", "-Z"), "Y": ("-X", "-Z"), "Z": ("-X", "Z"),
    "CNOT": ("XX", "ZI", "IX", "ZZ"),
}


def gate_tableau(gate: Gate, n: int) -> Tableaux:
    """The one-row stack of an elementary gate on distinct 0-based qubits:
    the identity, but for the images on the gate's qubits from :data:`GATES`."""
    name, qs = gate
    if (name not in GATES or len(qs) != len(GATES[name]) // 2 or len(set(qs)) != len(qs)
            or not all(0 <= q < n for q in qs)):
        raise ValueError(f"no gate {name!r} on qubits {qs} of {n}")
    one = Tableaux.identity(n)
    for k, image in enumerate(GATES[name]):
        factors = dict(zip(qs, image.lstrip("-")))  # the image's factor on each gate qubit
        j = qs[k >> 1]
        (one.z if k & 1 else one.x)[0, j] = Pauli.from_string(
            "".join(factors.get(q, "I") for q in range(n))).key
        one.signs[0, 2 * j + (k & 1)] = image.startswith("-")
    return one


def circuit_unitary(gates: list[Gate], n: int) -> np.ndarray:
    """Dense unitary of a gate list (first gate applied first)."""
    u = np.eye(1 << n, dtype=complex)
    for name, qs in gates:
        u = gate_unitary(name, qs, n) @ u
    return u


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


def syndromes(images: np.ndarray, keys: np.ndarray, n: int) -> np.ndarray:
    """(..., L) syndromes of the (..., L) n-qubit Pauli keys against the
    (..., r) image keys (leading axes broadcast): bit r - 1 - k of entry l
    says whether key l anticommutes with image k (so, for the n Z-images of
    a stack, bit k belongs to qubit n - k)."""
    flips = _swap_halves(images, n)[..., :, None] & keys[..., None, :]
    return np.einsum("...kl,k->...l", (np.bitwise_count(flips) & 1).astype(np.int64),
                     1 << np.arange(images.shape[-1] - 1, -1, -1))


def outcome_shift(z_keys, p: Pauli) -> np.ndarray:
    """Syndrome of ``p`` against the (..., n) Z-image keys of a stack of
    elements (:func:`syndromes`).  p between the channel and the untwirl
    relabels outcome v as v ^ it."""
    z_keys = np.asarray(z_keys, dtype=np.uint64)
    if z_keys.shape[-1] != p.n:
        raise DimensionMismatchError(
            f"the Pauli acts on {p.n} qubits, the Z-images on {z_keys.shape[-1]}")
    return syndromes(z_keys, np.array([p.key], dtype=np.uint64), p.n)[..., 0]


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
    def identity(n: int) -> "Tableaux":
        """The one-row stack of the identity on n qubits."""
        qubit = _ONE << np.arange(n - 1, -1, -1, dtype=np.uint64)  # qubit j + 1's bit
        return Tableaux(n, qubit[None], qubit[None] << np.uint64(n),
                        np.zeros((1, 2 * n), dtype=np.int64))

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

    def conjugate(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(images, e): C X^x Z^z C^dag = i^e X^x' Z^z' for every element C
        of the stack and key x | z << n of the (M, L) array ``keys`` (or an
        (L,) array that every element shares), images the (M, L) keys
        x' | z' << n.  It is the product of the X-images that x selects, then
        of the Z-images that z selects, by the XZ product rule
        (i^e1 X^x1 Z^z1)(i^e2 X^x2 Z^z2) = i^(e1+e2) (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2),
        with each image (-1)^s P read as i^(2s + |x & z|) X^x Z^z (Y = i X Z)."""
        n, mask, top = self.n, np.uint64((1 << self.n) - 1), np.uint64(self.n)
        keys = np.asarray(keys, dtype=np.uint64)
        images = np.hstack((self.x, self.z))  # the generators, in product order
        g_x, g_z = images & mask, images >> top
        g_e = (2 * np.hstack((self.signs[:, 0::2], self.signs[:, 1::2])).astype(np.uint64)
               + np.bitwise_count(g_x & g_z))  # phases mod 4, in wrapping uint64
        bits = np.arange(2 * n - 1, -1, -1, dtype=np.uint64)  # each one's key bit
        bits = np.concatenate((bits[n:], bits[:n]))
        product = np.zeros(np.broadcast_shapes((len(self), 1), keys.shape), dtype=np.uint64)
        e = np.zeros(product.shape, dtype=np.uint64)
        for k in range(2 * n):
            picked = keys >> bits[k] & _ONE
            flips = np.bitwise_count((product >> top) & g_x[:, k, None])
            e += picked * (g_e[:, k, None] + 2 * flips)
            product ^= picked * images[:, k, None]
        return product, (e & np.uint64(3)).astype(np.int64)

    def then(self, later: "Tableaux") -> "Tableaux":
        """The stack of each element followed by the one-row stack ``later``:
        each image (-1)^s P, with P = i^|x & z| X^x Z^z, moves by
        :meth:`conjugate` to i^(|x & z| + e - |x' & z'|) (-1)^s P'."""
        keys = np.stack((self.x, self.z), axis=2).reshape(len(self), -1)  # in signs' order
        images, e = later.conjugate(keys)
        top = np.uint64(self.n)
        turn = (np.bitwise_count(keys & keys >> top) + e
                - np.bitwise_count(images & images >> top)) & 3  # 0 or 2
        return Tableaux(self.n, images[:, 0::2], images[:, 1::2], self.signs ^ turn >> 1)

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

    def pick(coeff, r):  # the particular solution XOR the basis vectors coeff's bits pick
        particular, basis = solve_affine_batch(pivots[pivots != 0].reshape(m, r), 2 * n)
        picked = (coeff[:, None] >> np.arange(basis.shape[1])) & 1
        return particular ^ np.bitwise_xor.reduce(basis * picked.astype(np.uint64), axis=1)

    x = np.empty((m, n), dtype=np.uint64)
    z = np.empty((m, n), dtype=np.uint64)
    for k in range(n):
        x[:, k] = pick(rows[:, 2 * k] + 1, 2 * k)
        # <x_k, z> = 1: the other rows have rhs 0, so a pivot row's rhs bit
        # marks whether it took in the new row, and clearing the rhs bits
        # leaves the system with x_k at rhs 0
        _gj_insert(pivots, (_swap_halves(x[:, k], n) << _ONE) | _ONE)
        z[:, k] = pick(rows[:, 2 * k + 1], 2 * k + 1)
        pivots &= ~_ONE
        _gj_insert(pivots, _swap_halves(z[:, k], n) << _ONE)
    return Tableaux(n, x, z, rows[:, 2 * n:])


def sample_clifford_uniform(n: int, rng: np.random.Generator) -> Clifford:
    """Uniformly random Clifford element modulo global phase: one row of
    draws from ``rng`` grown by :func:`grow_cliffords`.  A call costs about
    0.1-0.4 ms at n = 1 to 3, mostly numpy's per-call overhead: to draw many
    elements, grow :func:`clifford_bounds` rows in one call instead."""
    return grow_cliffords(n, draw_clifford_row(n, rng)).clifford(0)

