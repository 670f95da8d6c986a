"""Quantum maps in the Pauli basis: chi matrices, Kraus forms, bounds.

A linear map L(rho) = sum_{l,l'} chi[l,l'] P_l rho P_l' is stored through
its chi matrix over the generalized Pauli basis (orthogonality convention
Tr[P_l P_l'] = D * delta).  The basis index is the integer Pauli label
(base-4 digits I,X,Y,Z with qubit 1 most significant), so chi for an
n-qubit map is a 4**n x 4**n complex array.

Conversions between Kraus operators and chi go through the Pauli
coefficient transform, a qubit-by-qubit contraction that avoids ever
materializing all 4**n basis matrices.  Dense operations are capped at
``DENSE_MAX_N`` qubits.
"""
from __future__ import annotations

import itertools
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, DimensionMismatchError
from .pauli import PAULI_1Q, Pauli, enumerate_supports, tensor

DENSE_MAX_N = 6

PSD_RTOL = 1e-9          # eigenvalue >= -PSD_RTOL * max(1, max eig) counts as nonnegative
BOUND_TOL = 1e-9
TP_ATOL = 1e-9


def _check_dense_cap(n: int):
    if n > DENSE_MAX_N:
        raise CapacityError(f"dense operations capped at n={DENSE_MAX_N}, got {n}")


def pauli_coefficients(mat: np.ndarray) -> np.ndarray:
    """Coefficients c[l] = Tr[P_l mat] / D, indexed by Pauli label."""
    d = mat.shape[0]
    n = d.bit_length() - 1
    if mat.shape != (d, d) or (1 << n) != d:
        raise DimensionMismatchError(f"not a 2^n square matrix: {mat.shape}")
    t = np.asarray(mat, dtype=complex).reshape((2,) * (2 * n))
    bt = PAULI_1Q.transpose(0, 2, 1)  # bt[p, r, c] = P_p[c, r]
    for j in range(n):
        # axes: (p_1..p_j, r_{j+1}..r_n, c_{j+1}..c_n); contract r at j, c at n
        t = np.tensordot(bt, t, axes=([1, 2], [j, n]))
        t = np.moveaxis(t, 0, j)
    return t.reshape(4 ** n) / d


def matrix_from_pauli_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_coefficients` (without the 1/D factor removed:
    returns sum_l c[l] P_l)."""
    m = coeffs.shape[0]
    n = (m.bit_length() - 1) // 2
    if 4 ** n != m:
        raise DimensionMismatchError(f"coefficient vector length {m} is not 4^n")
    t = np.asarray(coeffs, dtype=complex).reshape((4,) * n)
    for j in range(n - 1, -1, -1):
        t = np.tensordot(t, PAULI_1Q, axes=([j], [0]))
    # axes now (r_n, c_n, r_{n-1}, c_{n-1}, ..., r_1, c_1)
    perm = [2 * (n - j) for j in range(1, n + 1)] + [2 * (n - j) + 1 for j in range(1, n + 1)]
    t = np.transpose(t, perm)
    d = 1 << n
    return t.reshape(d, d)


class ChiMatrix:
    """Immutable chi matrix of an n-qubit map in the Pauli basis."""

    def __init__(self, n: int, mat: np.ndarray):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (4 ** n, 4 ** n):
            raise DimensionMismatchError(
                f"chi for n={n} must be {4**n}x{4**n}, got {mat.shape}")
        self.n = n
        self.mat = mat
        self.mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def diagonal(self) -> np.ndarray:
        return self.mat.diagonal()

    def is_hermitian(self) -> bool:
        return bool(np.allclose(self.mat, self.mat.conj().T, atol=1e-10))

    def labels(self) -> list[str]:
        """The Pauli of each label l, as ``str(Pauli.from_label(n, l))``."""
        return ["".join(p) for p in itertools.product("IXYZ", repeat=self.n)]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "labels": self.labels(),
            "entries": [[[v.real, v.imag] for v in row] for row in self.mat],
        }


def chi_from_kraus(kraus: list[np.ndarray]) -> ChiMatrix:
    """Chi matrix of rho -> sum_k A_k rho A_k^dag.

    Expands each operator as A_k = sum_l a[k,l] P_l with
    a[k,l] = Tr[P_l A_k] / D, so chi[l,l'] = sum_k a[k,l] conj(a[k,l']).
    """
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    d = kraus[0].shape[0]
    n = d.bit_length() - 1
    _check_dense_cap(n)
    for op in kraus:
        if op.shape != (d, d):
            raise DimensionMismatchError("Kraus operators must share one square shape")
    a = np.stack([pauli_coefficients(op) for op in kraus])
    return ChiMatrix(n, a.T @ a.conj())


def _chi_operator_pairs(chi: ChiMatrix) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Operator pairs (A_k, B_k) with L(rho) = sum_k A_k rho B_k^dag.

    A Hermitian chi gives (s_k A_k, A_k) from its eigendecomposition,
    dropping eigenvalues below 1e-14 in magnitude.  Any other chi groups one
    side of the double sum: (P_l, C_l^dag) with C_l = sum_l' chi[l,l'] P_l',
    one pair per nonzero row of chi.
    """
    if chi.is_hermitian():
        dec = diagonalize_chi(chi)
        return tuple((s * op, op) for s, op in zip(dec.eigenvalues, dec.operators)
                     if abs(s) > 1e-14)
    pairs = []
    for l in range(4 ** chi.n):
        col = chi.mat[l, :]
        if not np.any(np.abs(col) > 1e-15):
            continue
        cl = matrix_from_pauli_coefficients(col)
        pairs.append((Pauli.from_label(chi.n, l).to_matrix(), cl.conj().T))
    return tuple(pairs)


@dataclass(frozen=True)
class ChiEigenDecomposition:
    """chi = B^dag S B with S real diagonal, plus the operator form.

    ``operators[k]`` is the dense matrix sum_l conj(B[k,l]) P_l; they satisfy
    Tr[A_j^dag A_k] = D * delta_{jk} and the map equals
    rho -> sum_k S[k] A_k rho A_k^dag.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    operators: tuple[np.ndarray, ...]


def diagonalize_chi(chi: ChiMatrix) -> ChiEigenDecomposition:
    """Eigendecomposition of a Hermitian chi, eigenvalues sorted descending."""
    if not chi.is_hermitian():
        raise ValueError("chi matrix is not Hermitian")
    vals, vecs = np.linalg.eigh(chi.mat)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    ops = tuple(matrix_from_pauli_coefficients(vecs[:, k]) for k in range(vecs.shape[1]))
    return ChiEigenDecomposition(eigenvalues=vals, basis=vecs.conj().T, operators=ops)


def check_cp_bound(chi: ChiMatrix) -> list[tuple[int, int, float, float]]:
    """Pairs (l, l') with |chi[l,l']|^2 > chi[l,l] chi[l',l'] + ``BOUND_TOL``.

    Empty for any completely positive map; a violation certifies the map is
    not CP (a negative product of diagonals triggers it immediately).
    """
    diag = chi.diagonal().real
    return _pair_violations(chi, np.outer(diag, diag))


def check_positive_bound(chi: ChiMatrix):
    """Necessary conditions for positive (not necessarily CP) maps.

    Returns ``(pair_violations, diag_violations)`` where pairs violate
    |chi[l,l']|^2 <= chi_ll chi_l'l' + (chi_ll + chi_l'l')/D + 1/D^2 and
    diagonal entries must lie in [-1/D, 1], each within ``BOUND_TOL``.
    """
    d = chi.dim
    diag = chi.diagonal().real
    rhs = np.outer(diag, diag) + np.add.outer(diag, diag) / d + 1.0 / d ** 2
    diag_violations = [(int(l), float(v)) for l, v in enumerate(diag)
                       if v < -1.0 / d - BOUND_TOL or v > 1.0 + BOUND_TOL]
    return _pair_violations(chi, rhs), diag_violations


def _pair_violations(chi: ChiMatrix, rhs: np.ndarray):
    """Pairs l < l' with |chi[l,l']|^2 > rhs[l,l'] + BOUND_TOL, as (l, l', lhs, rhs)."""
    lhs = np.abs(chi.mat) ** 2
    bad = np.argwhere(lhs > rhs + BOUND_TOL)
    return [(int(l), int(lp), float(lhs[l, lp]), float(rhs[l, lp]))
            for l, lp in bad if l < lp]


@dataclass(frozen=True)
class CoarseGrainedDiagonal:
    """Diagonal chi coefficients grouped by support and by Pauli weight.

    ``by_support`` maps a boolean support vector (qubit 1 first) to the sum
    of chi[l,l] over the 3**w labels with that support; ``by_weight[w]``
    sums those over the C(n, w) supports.  For trace-preserving maps the
    weight vector sums to 1.
    """

    by_support: dict[tuple[int, ...], float]
    by_weight: np.ndarray
    cutoff: int


def coarse_grain(chi: ChiMatrix) -> CoarseGrainedDiagonal:
    n = chi.n
    diag = chi.diagonal().real
    by_support: dict[tuple[int, ...], float] = {s: 0.0 for s in enumerate_supports(n)}
    for l, v in enumerate(diag):
        p = Pauli.from_label(n, l)
        by_support[p.support] += float(v)
    by_weight = np.zeros(n + 1)
    for s, v in by_support.items():
        by_weight[sum(s)] += v
    return CoarseGrainedDiagonal(by_support=by_support, by_weight=by_weight, cutoff=n)


@dataclass(frozen=True)
class Classification:
    """Map classification flags; ``positive`` is tri-state (None = unknown)."""

    hermitian_preserving: bool
    trace_preserving: bool
    completely_positive: bool
    positive: bool | None

    def to_json_dict(self) -> dict:
        return {
            "hermitian_preserving": self.hermitian_preserving,
            "trace_preserving": self.trace_preserving,
            "completely_positive": self.completely_positive,
            "positive": self.positive,
        }


class ChannelModel:
    """A quantum map held as a Kraus set and/or a chi matrix.

    The Kraus set may be given as a function that makes it; it is then made
    the first time :attr:`kraus`, :attr:`chi` or :meth:`operator_pairs` is
    read (``channel_spec.build_channel`` does so for a spec with a Pauli
    form, whose laws and classification never read it).  Instances are
    immutable after construction; the Kraus set, derived chi matrix and
    classification are memoized behind a lock, so concurrent queries are
    safe.
    """

    def __init__(self, n: int,
                 kraus: list[np.ndarray] | Callable[[], list[np.ndarray]] | None = None,
                 chi: ChiMatrix | None = None):
        if kraus is None and chi is None:
            raise ValueError("need a Kraus set or a chi matrix")
        self.n = n
        self.dim = 1 << n
        if chi is not None and chi.n != n:
            raise DimensionMismatchError("chi qubit count mismatch")
        self._kraus = kraus if kraus is None or callable(kraus) else self._checked(kraus)
        self._chi = chi
        self._pairs: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None
        self._classification: Classification | None = None
        self._lock = threading.RLock()
        # E(P) = f(U P U^dag) U P U^dag, set only by channel_spec.build_channel
        # on a spec of Clifford gates and Pauli noise (its PauliForm)
        self._pauli_form = None

    def _checked(self, kraus: list[np.ndarray]) -> tuple[np.ndarray, ...]:
        kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
        if not kraus:
            raise ValueError("need at least one Kraus operator")
        for k in kraus:
            if k.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"Kraus operator shape {k.shape} != {(self.dim, self.dim)}")
        return kraus

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_kraus(kraus) -> "ChannelModel":
        kraus = list(kraus)
        d = kraus[0].shape[0] if kraus else 1  # an empty set fails in the constructor
        return ChannelModel(d.bit_length() - 1, kraus=kraus)

    @staticmethod
    def from_unitary(u: np.ndarray) -> "ChannelModel":
        return ChannelModel.from_kraus([u])

    @staticmethod
    def identity(n: int) -> "ChannelModel":
        return ChannelModel(n, kraus=[np.eye(1 << n, dtype=complex)])

    # -- core --------------------------------------------------------------

    @property
    def kraus(self) -> tuple[np.ndarray, ...] | None:
        with self._lock:
            if callable(self._kraus):
                self._kraus = self._checked(self._kraus())
            return self._kraus

    @property
    def chi(self) -> ChiMatrix:
        with self._lock:
            if self._chi is None:
                self._chi = chi_from_kraus(list(self.kraus))
            return self._chi

    def operator_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The map as pairs (A_k, B_k), L(rho) = sum_k A_k rho B_k^dag:
        (K, K) for a Kraus set, else :func:`_chi_operator_pairs` of chi.
        Built once; :meth:`apply`, :func:`classify` and the dense outcome
        tables all use this one form."""
        with self._lock:
            if self._pairs is None:
                self._pairs = (tuple((k, k) for k in self.kraus) if self.kraus is not None
                               else _chi_operator_pairs(self._chi))
            return self._pairs

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatchError(f"state must be {self.dim}x{self.dim}, got {rho.shape}")
        out = np.zeros_like(rho)
        for a, b in self.operator_pairs():
            out += a @ rho @ b.conj().T
        return out

    @property
    def classification(self) -> Classification:
        with self._lock:
            if self._classification is None:
                self._classification = classify(self)
            return self._classification


def _operator_sum(channel: ChannelModel) -> np.ndarray:
    """sum_k B_k^dag A_k over the operator pairs of the map: Tr L(rho) =
    Tr[sum_k B_k^dag A_k rho], so the map is trace preserving when it is I."""
    return sum(b.conj().T @ a for a, b in channel.operator_pairs())


def classify(channel: ChannelModel) -> Classification:
    """Classification flags of a map.

    Trace preservation is Tr chi = 1 and the operator condition
    acc = sum_k B_k^dag A_k = I over :meth:`ChannelModel.operator_pairs`.
    A map given by Kraus operators is Hermitian-preserving and CP without a
    check, and its Tr chi is read as Tr(acc) / D (Parseval over the Pauli
    basis: sum_l |Tr[P_l K]|^2 = D Tr[K^dag K]), so its chi matrix is never
    built.  A map with a Pauli form (a Clifford followed by Pauli noise,
    :class:`twirltomo.channel_spec.PauliForm`) is flagged as a Kraus map is,
    but trace preserving when |f(I) - 1| <= ``TP_ATOL``, as Tr E(rho) =
    f(I) Tr rho, so its Kraus set is not read either.  For a chi-given map,
    complete positivity is chi positive-semidefiniteness within tolerance.
    The ``positive`` flag is computed only for n <= 3 by a dense search over
    200 random product-state inputs (seed 12061) plus the necessary
    diagonal/pair bounds; it is a documented heuristic (a True can in
    principle be a false positive, a False is always certified by a witness)
    and None means not attempted.
    """
    d = channel.dim
    form = channel._pauli_form
    if form is not None or channel.kraus is not None:
        if form is not None:
            tp = bool(abs(form.fidelities[0] - 1.0) <= TP_ATOL)
        else:
            acc = _operator_sum(channel)
            tp = (abs(complex(np.trace(acc)) / d - 1.0) <= TP_ATOL
                  and bool(np.allclose(acc, np.eye(d), atol=1e-8)))
        return Classification(hermitian_preserving=True, trace_preserving=tp,
                              completely_positive=True,
                              positive=True if channel.n <= 3 else None)
    chi = channel.chi
    hermitian = chi.is_hermitian()
    tp = (abs(complex(chi.diagonal().sum()) - 1.0) <= TP_ATOL
          and bool(np.allclose(_operator_sum(channel), np.eye(d), atol=1e-8)))
    cp = False
    if hermitian:
        vals = np.linalg.eigvalsh(chi.mat)
        cp = bool(vals.min() >= -PSD_RTOL * max(1.0, float(vals.max())))
    positive: bool | None = None
    if channel.n <= 3:
        if cp:
            positive = True
        elif hermitian:
            _, diag_bad = check_positive_bound(chi)
            if diag_bad:
                positive = False
            else:
                positive = _positivity_search(channel)
    return Classification(hermitian_preserving=hermitian, trace_preserving=tp,
                          completely_positive=cp, positive=positive)


def check_trace_preserving(channel: ChannelModel):
    """Raise :class:`ConfigError` unless ``channel`` is trace preserving.

    The sampled twirl protocols read a map's outcome laws as probability
    distributions; the laws of a map that is not trace preserving do not sum
    to one, and no protocol estimate is right for it."""
    if not channel.classification.trace_preserving:
        raise ConfigError("the map is not trace preserving; the sampled protocols "
                          "need a trace-preserving map, whose outcome laws sum to one")


def _positivity_search(channel: ChannelModel) -> bool:
    rng = np.random.default_rng(12061)
    n = channel.n
    for _ in range(200):
        vs = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(n))
        state = tensor((v / np.linalg.norm(v))[:, None] for v in vs)[:, 0]  # a product state
        rho = np.outer(state, state.conj())
        out = channel.apply(rho)
        if np.linalg.eigvalsh((out + out.conj().T) / 2).min() < -1e-9:
            return False
    return True


# -- standard building blocks ------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_GATES_1Q = {"H": _H, "S": _S,
             "X": PAULI_1Q[1], "Y": PAULI_1Q[2], "Z": PAULI_1Q[3]}


def gate_unitary(name: str, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Dense unitary for a named gate on 0-based qubits of an n-qubit register."""
    d = 1 << n
    if name in _GATES_1Q:
        (q,) = qubits
        return embed_kraus([_GATES_1Q[name]], q, n)[0]
    if name == "CNOT":
        c, t = qubits
        if c == t:
            raise ValueError("CNOT control and target must differ")
        u = np.zeros((d, d), dtype=complex)
        for b in range(d):
            b2 = b ^ (1 << (n - 1 - t)) if (b >> (n - 1 - c)) & 1 else b
            u[b2, b] = 1.0
        return u
    raise ValueError(f"unknown gate {name!r}")


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    """Single-qubit rho -> (1-p) rho + p I/2."""
    return [np.sqrt(1 - 3 * p / 4) * PAULI_1Q[0],
            np.sqrt(p / 4) * PAULI_1Q[1],
            np.sqrt(p / 4) * PAULI_1Q[2],
            np.sqrt(p / 4) * PAULI_1Q[3]]


def bit_flip_kraus(p: float) -> list[np.ndarray]:
    return [np.sqrt(1 - p) * PAULI_1Q[0], np.sqrt(p) * PAULI_1Q[1]]


def phase_flip_kraus(p: float) -> list[np.ndarray]:
    return [np.sqrt(1 - p) * PAULI_1Q[0], np.sqrt(p) * PAULI_1Q[3]]


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    return [np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
            np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)]


def embed_kraus(ops_1q: list[np.ndarray], qubit: int, n: int) -> list[np.ndarray]:
    """Lift single-qubit Kraus operators to act on 0-based ``qubit`` of n."""
    ops = np.asarray(ops_1q, dtype=complex)
    return list(tensor(ops if j == qubit else np.eye(2, dtype=complex) for j in range(n)))


def compose(layers: list[ChannelModel]) -> ChannelModel:
    """Sequential composition (first layer applied first), at the Kraus level."""
    if not layers:
        raise ValueError("nothing to compose")
    n = layers[0].n
    ops = [np.eye(1 << n, dtype=complex)]
    for layer in layers:
        if layer.n != n:
            raise DimensionMismatchError("all layers must share the qubit count")
        if layer.kraus is None:
            raise ValueError("composition requires Kraus-form layers")
        ops = [b @ a for b in layer.kraus for a in ops]
        if len(ops) > (1 << n) ** 2:
            ops = _compress_kraus(ops, n)
    return ChannelModel(n, kraus=ops)


def _compress_kraus(ops: list[np.ndarray], n: int) -> list[np.ndarray]:
    """Reduce a CP Kraus set to at most D^2 operators via the chi spectrum."""
    chi = chi_from_kraus(ops)
    dec = diagonalize_chi(chi)
    out = []
    for s, op in zip(dec.eigenvalues, dec.operators):
        if s > 1e-12:
            out.append(np.sqrt(s) * op)
    return out

