"""Stabilizer frames, Clifford elements, and MUB machinery over GF(2).

Everything here works on the symplectic encoding from :mod:`twirltomo.pauli`.
A Clifford element is stored by its conjugation action: the images of the
single-qubit X and Z operators, each a signed Pauli.  The realizing circuit
over {H, S, CNOT, X, Y, Z} is synthesized on demand by a sweep that cleans
one qubit at a time (O(n^2) gates) and is cached.

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

from . import gf2
from .errors import DimensionMismatchError
from .channels import gate_unitary
from .pauli import Pauli, multiply, symplectic_product

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
    """A Clifford unitary modulo global phase, stored by conjugation images."""

    __slots__ = ("n", "x_images", "z_images", "_circuit")

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
        self._circuit: list[Gate] | None = None

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
        c = Clifford(n, tuple(xs), tuple(zs))
        c._circuit = list(gates)
        return c

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

    @property
    def circuit(self) -> list[Gate]:
        if self._circuit is None:
            self._circuit = _synthesize(self)
        return list(self._circuit)

    def unitary(self) -> np.ndarray:
        return circuit_unitary(self.circuit, self.n)

    def __eq__(self, other):
        return (isinstance(other, Clifford) and self.n == other.n
                and self.x_images == other.x_images and self.z_images == other.z_images)

    def __hash__(self):
        return hash((self.n, self.x_images, self.z_images))


# ---------------------------------------------------------------------------
# circuit synthesis


def _synthesize(cliff: Clifford) -> list[Gate]:
    """Reduce the tableau to the identity with elementary gates.

    Gates are applied on the left (conjugating the images); the recorded
    sequence g_1..g_K satisfies g_K∘...∘g_1∘C = I up to signs, which a final
    Pauli layer absorbs.  The returned circuit therefore realizes C exactly
    (modulo global phase) and has O(n^2) gates.
    """
    n = cliff.n
    xs = list(cliff.x_images)
    zs = list(cliff.z_images)
    applied: list[Gate] = []

    def do(gate: Gate):
        nonlocal xs, zs
        applied.append(gate)
        xs = [_conj_gate(p, gate) for p in xs]
        zs = [_conj_gate(p, gate) for p in zs]

    def bit(p: Pauli, which: str, q: int) -> int:
        v = p.x if which == "x" else p.z
        return (v >> (n - 1 - q)) & 1

    for j in range(n):
        # phase 1: bring the Z_j image to +-Z_j
        b = zs[j]
        for k in range(j, n):
            if bit(b, "x", k) and bit(b, "z", k):
                do(("S", (k,)))
                b = zs[j]
        for k in range(j, n):
            if bit(b, "x", k):
                do(("H", (k,)))
                b = zs[j]
        if not bit(b, "z", j):
            k = next(k for k in range(j, n) if bit(b, "z", k))
            do(("CNOT", (j, k)))
            b = zs[j]
        for k in range(n):
            if k != j and bit(b, "z", k):
                do(("CNOT", (k, j)))
                b = zs[j]
        # phase 2: bring the X_j image to +-X_j without touching Z_j
        a = xs[j]
        if bit(a, "z", j):
            do(("S", (j,)))
            a = xs[j]
        for k in range(n):
            if k == j:
                continue
            if bit(a, "x", k) and bit(a, "z", k):
                do(("S", (k,)))
                a = xs[j]
            if bit(a, "z", k) and not bit(a, "x", k):
                do(("H", (k,)))
                a = xs[j]
        for k in range(n):
            if k != j and bit(a, "x", k):
                do(("CNOT", (j, k)))
                a = xs[j]
    # The images are now +-X_j / +-Z_j: the residue is conjugation by a
    # Pauli Q whose z bit at j flips X_j and x bit flips Z_j.  As unitaries
    # (mod phase) g_K...g_1 C = Q, so C = g_1^dag ... g_K^dag Q and the
    # time-ordered circuit applies Q first, then the inverses in reverse.
    qx = qz = 0
    for j in range(n):
        if xs[j].phase_pow == 2:  # X_j image came out as -X_j
            qz |= 1 << (n - 1 - j)
        if zs[j].phase_pow == 2:
            qx |= 1 << (n - 1 - j)
    circ: list[Gate] = []
    for j in range(n):
        xb = (qx >> (n - 1 - j)) & 1
        zb = (qz >> (n - 1 - j)) & 1
        if xb and zb:
            circ.append(("Y", (j,)))
        elif xb:
            circ.append(("X", (j,)))
        elif zb:
            circ.append(("Z", (j,)))
    for name, qs in reversed(applied):
        if name == "S":
            circ.extend((("Z", qs), ("S", qs)))  # S^dag = S Z, Z applied first
        else:
            circ.append((name, qs))
    return circ


# ---------------------------------------------------------------------------
# stabilizer frames


@dataclass(frozen=True)
class StabilizerFrame:
    """n commuting independent Pauli generators plus a sign string.

    ``signs[j]`` in {+1, -1} is the eigenvalue attached to generator j; the
    all-plus Z frame represents |0...0>.  Generators are stored phase-free.
    """

    generators: tuple[Pauli, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = self.generators[0].n
        if len(self.generators) != n or len(self.signs) != n:
            raise ValueError("need exactly n generators and signs")
        for g in self.generators:
            if g.n != n or g.phase_pow != 0:
                raise ValueError("generators must be phase-free Paulis on n qubits")
        for s in self.signs:
            if s not in (-1, 1):
                raise ValueError("signs must be +1 or -1")
        for a, b in itertools.combinations(self.generators, 2):
            if symplectic_product(a, b):
                raise ValueError("generators must commute pairwise")
        if gf2.rank([g.key for g in self.generators]) != n:
            raise ValueError("generators must be independent")

    @property
    def n(self) -> int:
        return self.generators[0].n


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


@dataclass(frozen=True)
class MubBasis:
    """One member of the D+1 mutually unbiased bases.

    ``frame`` has all +1 signs and stabilizes state m = 0 of the basis;
    ``clifford`` maps computational state |m> to basis state m, and its
    Z-images reproduce the frame generators with +1 signs, so |m> carries
    generator signs (-1)^(bits of m).
    """

    index: int
    frame: StabilizerFrame
    clifford: Clifford


def _complete_symplectic(z_keys: list[int], n: int) -> list[int]:
    """Deterministic X-image completion of a commuting independent Z set."""
    x_keys: list[int] = []
    for j in range(n):
        rows = [ _swap_halves(k, n) for k in z_keys ] + [ _swap_halves(k, n) for k in x_keys ]
        rhs = [1 if i == j else 0 for i in range(n)] + [0] * len(x_keys)
        sol = gf2.solve_affine(rows, rhs, 2 * n)
        assert sol is not None
        x_keys.append(sol[0])
    return x_keys


def _swap_halves(key: int, n: int) -> int:
    mask = (1 << n) - 1
    return (key >> n) | ((key & mask) << n)


def _key_to_pauli(key: int, n: int, phase: int = 0) -> Pauli:
    mask = (1 << n) - 1
    return Pauli(n, key & mask, key >> n, phase)


def clifford_from_z_frame(generators: tuple[Pauli, ...]) -> Clifford:
    """A Clifford whose Z-images equal the given generators with +1 signs."""
    n = generators[0].n
    z_keys = [g.key for g in generators]
    x_keys = _complete_symplectic(z_keys, n)
    # any symplectic action plus any sign assignment is realizable, so all
    # +1 signs is a valid (and convenient) choice: V|m> then carries
    # generator eigenvalues (-1)^{bits of m}.
    return Clifford(n,
                    tuple(_key_to_pauli(k, n) for k in x_keys),
                    tuple(g.strip_phase() for g in generators))


@lru_cache(maxsize=None)
def build_mub_family(n: int) -> tuple[MubBasis, ...]:
    """The D+1 stabilizer MUBs; basis 0 is the computational basis.

    The D+1 frames partition the 4**n - 1 nonidentity Paulis into disjoint
    maximal commuting classes; mutual unbiasedness follows and is checked
    densely in the tests for small n.
    """
    bases = []
    zgens = tuple(Pauli.single(n, j, "Z") for j in range(n))
    bases.append(MubBasis(0, StabilizerFrame(zgens, (1,) * n), Clifford.identity(n)))
    for idx, rows in enumerate(_spread_matrices(n)):
        gens = []
        for j in range(n):
            xbits = 1 << (n - 1 - j)
            zcol = 0
            for i in range(n):
                if (rows[i] >> j) & 1:
                    zcol |= 1 << (n - 1 - i)
            gens.append(Pauli(n, xbits, zcol))
        gens = tuple(gens)
        cliff = clifford_from_z_frame(gens)
        bases.append(MubBasis(idx + 1, StabilizerFrame(gens, (1,) * n), cliff))
    return tuple(bases)


# ---------------------------------------------------------------------------
# uniform Clifford sampling


def sample_clifford_uniform(n: int, rng: np.random.Generator) -> Clifford:
    """Uniformly random Clifford element modulo global phase.

    A symplectic basis is grown pair by pair: x_k is uniform over the
    nonzero vectors of the symplectic complement of the pairs chosen so
    far, and z_k is uniform over the solutions of <x_k, z> = 1 within that
    complement.  Every ordered symplectic basis arises from exactly one
    choice sequence, so the symplectic action is exactly uniform; 2n
    uniform sign bits complete the element.
    """
    pairs: list[tuple[int, int]] = []
    width = 2 * n
    for _k in range(n):
        rows = []
        for xv, zv in pairs:
            rows.append(_swap_halves(xv, n))
            rows.append(_swap_halves(zv, n))
        sol = gf2.solve_affine(rows, [0] * len(rows), width)
        assert sol is not None
        _, basis = sol
        coeff = int(rng.integers(1, 1 << len(basis)))
        xk = gf2.combine(basis, coeff)
        rows2 = rows + [_swap_halves(xk, n)]
        rhs2 = [0] * len(rows) + [1]
        sol2 = gf2.solve_affine(rows2, rhs2, width)
        assert sol2 is not None
        part, basis2 = sol2
        coeff2 = int(rng.integers(0, 1 << len(basis2))) if basis2 else 0
        zk = part ^ gf2.combine(basis2, coeff2)
        pairs.append((xk, zk))
    signs = rng.integers(0, 2, size=2 * n)
    xs = tuple(_key_to_pauli(xv, n, 2 * int(signs[2 * j])) for j, (xv, _) in enumerate(pairs))
    zs = tuple(_key_to_pauli(zv, n, 2 * int(signs[2 * j + 1])) for j, (_, zv) in enumerate(pairs))
    return Clifford(n, xs, zs)


def enumerate_clifford_group(n: int):
    """Deterministic enumeration of the whole Clifford group mod phase.

    Practical for n <= 2 (24 and 11520 elements).
    """
    if n > 2:
        raise DimensionMismatchError("full Clifford enumeration capped at n = 2")
    width = 2 * n

    def extend(pairs):
        if len(pairs) == n:
            yield list(pairs)
            return
        rows = []
        for xv, zv in pairs:
            rows.append(_swap_halves(xv, n))
            rows.append(_swap_halves(zv, n))
        sol = gf2.solve_affine(rows, [0] * len(rows), width)
        _, basis = sol
        for coeff in range(1, 1 << len(basis)):
            xk = gf2.combine(basis, coeff)
            sol2 = gf2.solve_affine(rows + [_swap_halves(xk, n)],
                                    [0] * len(rows) + [1], width)
            part, basis2 = sol2
            for coeff2 in range(1 << len(basis2)):
                zk = part ^ gf2.combine(basis2, coeff2)
                yield from extend(pairs + [(xk, zk)])

    for pairs in extend([]):
        for signbits in range(1 << (2 * n)):
            xs = tuple(_key_to_pauli(xv, n, 2 * ((signbits >> (2 * j)) & 1))
                       for j, (xv, _) in enumerate(pairs))
            zs = tuple(_key_to_pauli(zv, n, 2 * ((signbits >> (2 * j + 1)) & 1))
                       for j, (_, zv) in enumerate(pairs))
            yield Clifford(n, xs, zs)
