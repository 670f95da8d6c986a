"""n-qubit Pauli operators in the GF(2) symplectic encoding.

An n-qubit Pauli operator is a tensor product of single-qubit factors from
{I, sigma_x, sigma_y, sigma_z} together with a global phase in {1, i, -1, -i}.
The tensor part is encoded as two n-bit integers ``x`` and ``z``; bit
``n-1-j`` of each carries the sigma_x / sigma_z component of qubit ``j+1``.
Qubit 1 therefore occupies the most significant bit, which lines up with

* the leftmost character of the string form ("ZIXI" puts sigma_z on qubit 1),
* the most significant base-4 digit of the integer label ``l``
  (digits I, X, Y, Z -> 0, 1, 2, 3), and
* the row index of the dense matrix built by :meth:`Pauli.to_matrix`
  (computational basis ordered |q1 q2 ... qn>).

The phase is stored as ``phase_pow``, the exponent k in

    operator = i**k * (positive tensor of I/X/Y/Z factors)

so Hermitian operators have ``phase_pow`` in {0, 2}.  All tomography logic
in this package compares operators modulo phase; the phase is tracked so
that products, and the signed images of a Clifford tableau, stay exact.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError

_CHARS = "IXYZ"
# per-character (x, z) bits
_CHAR_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
#: label digit of the one-qubit factor with bits (x, z), at index x + 2 z
XZ_DIGIT = (0, 1, 3, 2)
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}

#: the single-qubit matrices I, X, Y, Z stacked in label-digit order
PAULI_1Q = np.stack([
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
])


def tensor(factors) -> np.ndarray:
    """Tensor product of per-qubit matrices, qubit 1 first, such as (2, 2)
    operators or (2, 1) state vectors; with (T, 2, 2) stacks among the
    factors, the (T, D, D) stack of products.

    Broadcasting forms the same products in the same order as a left fold
    of ``np.kron`` (so the same bits) without its per-call overhead."""
    u = np.ones((1, 1), dtype=complex)
    for g in factors:
        u = u[..., :, None, :, None] * np.asarray(g)[..., None, :, None, :]
        *t, a, r, b, c = u.shape
        u = u.reshape(*t, a * r, b * c)
    return u


def _parity(v: int) -> int:
    return v.bit_count() & 1


@dataclass(frozen=True)
class Pauli:
    """A generalized Pauli operator with tracked global phase.

    Immutable; all operations return new instances and are safe for
    unrestricted concurrent use.
    """

    n: int
    x: int
    z: int
    phase_pow: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n) - 1
        if not (0 <= self.x <= mask and 0 <= self.z <= mask):
            raise ValueError("x/z bits out of range for qubit count")
        object.__setattr__(self, "phase_pow", self.phase_pow % 4)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Pauli":
        return Pauli(n, 0, 0)

    @staticmethod
    def from_string(s: str) -> "Pauli":
        """Parse "ZIXI" style strings; optional phase prefix -, i, -i."""
        phase = 0
        body = s
        for pre, k in (("-i", 3), ("i", 1), ("-", 2)):
            if s.startswith(pre):
                phase, body = k, s[len(pre):]
                break
        if not body or any(c not in _CHARS for c in body):
            raise ValueError(f"not a Pauli string: {s!r}")
        x = z = 0
        for c in body:
            xb, zb = _CHAR_XZ[c]
            x = (x << 1) | xb
            z = (z << 1) | zb
        return Pauli(len(body), x, z, phase)

    @staticmethod
    def from_label(n: int, l: int) -> "Pauli":
        """Inverse of :attr:`label` (phase +1)."""
        if not (0 <= l < 4 ** n):
            raise ValueError("label out of range")
        return Pauli.from_string("".join(_CHARS[l >> 2 * j & 3] for j in range(n - 1, -1, -1)))

    # -- structure ---------------------------------------------------------

    @property
    def label(self) -> int:
        """Integer label: base-4 digits (I,X,Y,Z)->(0..3), qubit 1 most significant."""
        l = 0
        for digit in self._digits():
            l = (l << 2) | digit
        return l

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return (self.x | self.z).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        """Boolean vector over qubits (qubit 1 first) marking non-identity factors."""
        s = self.x | self.z
        return tuple((s >> (self.n - 1 - j)) & 1 for j in range(self.n))

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_pow

    @property
    def is_hermitian(self) -> bool:
        return self.phase_pow % 2 == 0

    @property
    def key(self) -> int:
        """Symplectic vector packed as x | z << n (phase dropped)."""
        return self.x | (self.z << self.n)

    def strip_phase(self) -> "Pauli":
        return Pauli(self.n, self.x, self.z) if self.phase_pow else self

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Pauli") -> "Pauli":
        return multiply(self, other)

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (includes phase); for small n only."""
        return self.phase * tensor(PAULI_1Q[self._digits()])

    def _digits(self) -> list[int]:
        """Label digit of each qubit's factor, qubit 1 first."""
        return [XZ_DIGIT[(self.x >> s & 1) + 2 * (self.z >> s & 1)]
                for s in range(self.n - 1, -1, -1)]

    def _chars(self) -> str:
        return "".join(_CHARS[d] for d in self._digits())

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.phase_pow] + self._chars()

    def __repr__(self) -> str:
        return f"Pauli({str(self)!r})"


@lru_cache(maxsize=None)
def key_labels(n: int) -> np.ndarray:
    """labels[x | z << n]: the integer label of the Hermitian Pauli of
    X^x Z^z, whose digit on qubit n - s is 2 z_s + (x_s ^ z_s) (read-only)."""
    keys = np.arange(4 ** n)
    x, z = keys & ((1 << n) - 1), keys >> n
    labels = sum(((2 * (z >> s & 1)) | ((x ^ z) >> s & 1)) << 2 * s for s in range(n))
    labels.setflags(write=False)
    return labels


def multiply(a: Pauli, b: Pauli) -> Pauli:
    """Exact product a*b including the accumulated phase.

    Internally each operator is rewritten as i**e * X^x Z^z (per qubit,
    Y = i*XZ); commuting Z^z1 past X^x2 contributes (-1)^{|z1 & x2|}.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"{a.n} vs {b.n} qubits")
    ca = (a.x & a.z).bit_count()
    cb = (b.x & b.z).bit_count()
    x3 = a.x ^ b.x
    z3 = a.z ^ b.z
    c3 = (x3 & z3).bit_count()
    e = a.phase_pow + b.phase_pow + ca + cb + 2 * ((a.z & b.x).bit_count()) - c3
    return Pauli(a.n, x3, z3, e % 4)


def commutes(a: Pauli, b: Pauli) -> bool:
    """True iff ab = ba (GF(2) symplectic inner product vanishes)."""
    if a.n != b.n:
        raise DimensionMismatchError(f"{a.n} vs {b.n} qubits")
    return (_parity(a.x & b.z) ^ _parity(a.z & b.x)) == 0


# -- enumeration ------------------------------------------------------------


def enumerate_supports(n: int, max_weight: int | None = None) -> Iterator[tuple[int, ...]]:
    """Support vectors (qubit 1 first), weight-major then lexicographic by
    position."""
    top = n if max_weight is None else min(max_weight, n)
    for w in range(top + 1):
        for pos in itertools.combinations(range(n), w):
            yield tuple(1 if j in pos else 0 for j in range(n))
