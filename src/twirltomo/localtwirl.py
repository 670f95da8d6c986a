"""One-qubit twirl tomography: weight and support coarse-grained diagonals.

Each realization dresses the channel with an independent single-qubit twirl
on every qubit: a uniformly random Pauli followed by one of the three
quarter-turn rotations exp(-i pi/4 sigma_p), twelve gates per qubit in
total.  The twirled channel acts like a stochastic Pauli channel whose
outcome statistics depend only on the coarse-grained diagonal chi
coefficients, so recording the measured bit string of every realization is
all the data the protocol needs.  A run draws them by
:meth:`~twirltomo.dense.TwirlSpec.sample`, as selective and blind Clifford
estimation do.

Outcome probabilities relate to the coefficients triangularly:

* by Hamming weight:  Prob(h) = sum_{w >= h} (2^h / 3^w) C(w, h) p_w
* by support:         Prob(v) = sum_{t contains v} (2^|v| / 3^|t|) chi_col[t]

and both inverses have closed forms: R^-1[h, w] = C(w, h) (3/2)^h (-1/2)^(w-h)
and T^-1[s, t] = (3/2)^|s| (-1/2)^(|t|-|s|) for s in t, T being the Kronecker
power of [[1, 1/3], [0, 2/3]].  Cut at a weight, the unknowns form a down-set
of a triangular system, whose inverse is the full one restricted to them.
Measured probabilities carry multinomial noise with standard deviation
<= 1/sqrt(M); the inverse maps amplify it by a factor growing like (3/2)^w,
which the estimates report rather than hide.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .channels import ChannelModel
from .dense import DenseBackend, TwirlSpec, draw_outcomes, enumerate_twirl_exact
from .errors import CapacityError, ConfigError
from .pauli import enumerate_supports
# substream is not called here; it stays importable as
# twirltomo.localtwirl.substream, a name outside tooling already uses.
from .rng import check_int, check_seed, substream  # noqa: F401

MAX_SUPPORT_CELLS = 4096


@dataclass(frozen=True)
class LocalTwirlConfig:
    shots: int
    cutoff: int | None = None      # max Pauli weight solved for; None = auto
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shots", check_int("shots", self.shots))  # stored as ints
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.shots < 1:
            raise ConfigError("shots must be positive")
        if self.cutoff is not None:
            object.__setattr__(self, "cutoff", check_int("cutoff", self.cutoff))
            if self.cutoff < 0:
                raise ConfigError("cutoff must be nonnegative")

    def to_json_dict(self) -> dict:
        return {"shots": self.shots, "cutoff": self.cutoff, "seed": self.seed}


class HammingStatistics:
    """Exact outcome counts of a batch of realizations.

    ``outcome_counts`` is sparse (only observed bit strings); the weight
    histogram is kept alongside.  Keys must be length-n tuples of 0s and 1s
    and counts nonnegative integers with a positive total (``ValueError``)."""

    def __init__(self, n: int, outcome_counts: dict[tuple[int, ...], int]):
        self.n = n
        self.outcome_counts = dict(outcome_counts)
        self.weight_counts = np.zeros(n + 1, dtype=np.int64)
        for bits, c in self.outcome_counts.items():
            c = check_int("a count", c)  # ConfigError, a ValueError
            if not (isinstance(bits, tuple) and len(bits) == n and set(bits) <= {0, 1}) or c < 0:
                raise ValueError(f"{bits!r}: {c} is no count of a bit string of length {n}")
            self.weight_counts[sum(bits)] += c
        self.total = int(self.weight_counts.sum())
        if self.total == 0:
            raise ValueError("no outcomes to count")

    @staticmethod
    def _from_codes(n: int, codes: np.ndarray) -> "HammingStatistics":
        """Counts of ``codes``, n-bit strings packed into int64 with qubit 1
        the top bit (unchecked: the callers' codes lie in [0, 2^n)).  One
        ``np.bincount`` counts them where 2^n <= M, and sorting elsewhere, so
        memory follows M, not 2^n."""
        if 1 << n <= len(codes):
            counts = np.bincount(codes, minlength=1 << n)
            codes = np.flatnonzero(counts)
            counts = counts[codes]
        else:
            codes, counts = np.unique(codes, return_counts=True)
        rows = ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1).tolist()
        return HammingStatistics(n, dict(zip(map(tuple, rows), counts.tolist())))

    @staticmethod
    def from_outcomes(n: int, outcomes) -> "HammingStatistics":
        """Counts of the bit strings in ``outcomes``: length-n sequences of
        0s and 1s, or an (M, n) array of them, for n < 64 (a string is
        packed into one int64 and counted by :meth:`_from_codes`)."""
        if n >= 64:
            raise ValueError(f"bit strings of n = {n} >= 64 bits do not fit an int64")
        bits = np.asarray(outcomes, dtype=np.int64).reshape(-1, n)
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("outcomes must be bit strings")
        return HammingStatistics._from_codes(n, bits @ (1 << np.arange(n - 1, -1, -1)))

    def weight_probs(self) -> np.ndarray:
        return self.weight_counts / self.total

    def support_prob(self, bits: tuple[int, ...]) -> float:
        return self.outcome_counts.get(bits, 0) / self.total


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class ExperimentRecord:
    """One one-qubit-twirl realization, as :func:`sample_c1t_realization`
    draws it, the one-at-a-time reference for the batched samplers:
    ``descriptor`` is the drawn element's per-qubit (pauli index, rotation
    index) tuple; ``outcome`` is the measured bit string, qubit 1 first."""

    descriptor: tuple
    outcome: tuple[int, ...]


def sample_c1t_realization(channel: ChannelModel, rng: np.random.Generator,
                           backend: DenseBackend | None = None) -> ExperimentRecord:
    """One realization: draw the per-qubit (Pauli, rotation) pair, run
    |0..0> -> twirl -> channel -> untwirl -> measure."""
    twirl = TwirlSpec("local_clifford", channel.n)
    digits = twirl.elements(np.array([[rng.integers(0, k) for k in twirl.layout]]))
    laws, rows = twirl.laws(backend or DenseBackend(), channel, digits)
    v = int(draw_outcomes(laws, rows, np.array([rng.random()]))[0])
    bits = tuple((v >> (channel.n - 1 - j)) & 1 for j in range(channel.n))
    return ExperimentRecord(tuple(map(tuple, digits[0].tolist())), bits)


# ---------------------------------------------------------------------------
# the linear systems


def r_matrix(n: int) -> np.ndarray:
    """(n+1)x(n+1) map from weight coefficients to outcome-weight probs:
    R[h, w] = (2^h / 3^w) C(w, h), zero for h > w.  Columns sum to one."""
    if n < 1:
        raise ValueError("need at least one qubit")
    r = np.zeros((n + 1, n + 1))
    for w in range(n + 1):
        for h in range(w + 1):
            r[h, w] = 2.0 ** h / 3.0 ** w * comb(w, h)
    return r


def amplification_factors(cutoff: int) -> np.ndarray:
    """Error gain of the triangular inversion per weight: (3/2)^w."""
    return np.array([(3.0 / 2.0) ** w for w in range(cutoff + 1)])


@dataclass
class WeightEstimate:
    """p_w estimates with full covariance and solver diagnostics."""

    values: np.ndarray
    cov: np.ndarray
    stderr: np.ndarray
    amplification: np.ndarray
    cutoff: int
    excess_mass: float            # observed outcome mass at weights > cutoff
    residuals: np.ndarray         # q_h - (R p)_h over all weights

    def to_json_dict(self) -> dict:
        return {"values": self.values.tolist(), "cov": self.cov.tolist(),
                "stderr": self.stderr.tolist(),
                "amplification": self.amplification.tolist(),
                "cutoff": self.cutoff, "excess_mass": self.excess_mass,
                "residuals": self.residuals.tolist()}


def _check_cutoff(cutoff, n: int) -> int:
    """``cutoff`` as an int in 0..n; raise :class:`ConfigError` otherwise."""
    cutoff = check_int("cutoff", cutoff)
    if not 0 <= cutoff <= n:
        raise ConfigError(f"cutoff {cutoff} lies outside 0..{n} for {n} qubits")
    return cutoff


def _weight_inverse(cutoff: int) -> np.ndarray:
    """R^-1 on weights 0..cutoff, the inverse of R's block (R is triangular)."""
    return np.array([[comb(w, h) * 1.5 ** h * (-0.5) ** (w - h) if h <= w else 0.0
                      for w in range(cutoff + 1)] for h in range(cutoff + 1)])


def solve_weight_probs_exact(prob_by_weight: np.ndarray, cutoff: int) -> np.ndarray:
    """p_0 .. p_cutoff from exact outcome-weight probabilities: the truncated
    weight system inverted by the closed form :func:`solve_pw` uses."""
    cutoff = _check_cutoff(cutoff, len(prob_by_weight) - 1)
    return _weight_inverse(cutoff) @ np.asarray(prob_by_weight)[: cutoff + 1]


def solve_pw(stats: HammingStatistics, cutoff: int) -> WeightEstimate:
    """Estimate p_w for w <= cutoff from sampled statistics.

    The multinomial covariance of the weight histogram is propagated
    through the truncated inverse; negative estimates are retained with
    their error bars (suppressing them would hide miscalibration).
    """
    cutoff = _check_cutoff(cutoff, stats.n)
    q = stats.weight_probs()
    rinv = _weight_inverse(cutoff)
    values = rinv @ q[: cutoff + 1]
    cov_q = (np.diag(q) - np.outer(q, q)) / stats.total
    cov = rinv @ cov_q[: cutoff + 1, : cutoff + 1] @ rinv.T
    resid = q - r_matrix(stats.n)[:, : cutoff + 1] @ values
    return WeightEstimate(values=values, cov=cov,
                          stderr=np.sqrt(np.clip(np.diag(cov), 0.0, None)),
                          amplification=amplification_factors(cutoff),
                          cutoff=cutoff,
                          excess_mass=float(q[cutoff + 1:].sum()),
                          residuals=resid)


def _supports_upto(n: int, cutoff: int) -> list[tuple[int, ...]]:
    """Weight-major, lexicographic within a weight.  They are enumerated as
    tuples, so past ``MAX_SUPPORT_CELLS`` the count raises CapacityError first."""
    cells = sum(comb(n, m) for m in range(cutoff + 1))
    if cells > MAX_SUPPORT_CELLS:
        raise CapacityError(f"support system has {cells} cells (cap {MAX_SUPPORT_CELLS})")
    return list(enumerate_supports(n, cutoff))


def _invert_supports(supports: list[tuple[int, ...]],
                     q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_t a_st q_t and sum_t a_st^2 q_t over ``supports``, all supports up
    to a weight, for a = T^-1: the Kronecker power of [[1, -1/2], [0, 3/2]],
    and a^2 that of [[1, 1/4], [0, 9/4]].  One pass per qubit j applies the
    factor to each cell t holding j and to t - j, which is a cell too."""
    index = {s: i for i, s in enumerate(supports)}
    x, y = q.tolist(), q.tolist()
    for j in range(len(supports[0])):
        for t, i in index.items():
            if t[j]:
                k = index[t[:j] + (0,) + t[j + 1:]]
                x[k], x[i] = x[k] - 0.5 * x[i], 1.5 * x[i]
                y[k], y[i] = y[k] + 0.25 * y[i], 2.25 * y[i]
    return np.array(x), np.array(y)


@dataclass
class SupportEstimate:
    """chi_col estimates keyed by support vector, with diagnostics."""

    values: dict[tuple[int, ...], float]
    stderr: dict[tuple[int, ...], float]
    amplification: np.ndarray
    cutoff: int
    excess_mass: float
    inconsistent: bool

    def to_json_dict(self) -> dict:
        key = lambda s: "".join(map(str, s))
        return {"values": {key(s): v for s, v in self.values.items()},
                "stderr": {key(s): v for s, v in self.stderr.items()},
                "amplification": self.amplification.tolist(),
                "cutoff": self.cutoff, "excess_mass": self.excess_mass,
                "inconsistent": self.inconsistent}


def solve_chi_col_exact(n: int, prob_of_support, cutoff: int) -> dict[tuple[int, ...], float]:
    """chi_col up to ``cutoff`` by the closed form :func:`solve_chi_col`
    uses, from ``prob_of_support``, the exact probability of a support
    vector (= outcome bit string)."""
    supports = _supports_upto(n, _check_cutoff(cutoff, n))
    values, _ = _invert_supports(supports, np.array([float(prob_of_support(s)) for s in supports]))
    return dict(zip(supports, values.tolist()))


def solve_chi_col(stats: HammingStatistics, cutoff: int) -> SupportEstimate:
    """Estimate the support-resolved coefficients from sampled statistics,
    in time and memory following the supports up to ``cutoff``, not 2^n.
    x_s = sum_t a_st q_t has multinomial variance (sum_t a_st^2 q_t - x_s^2) / M."""
    cutoff = _check_cutoff(cutoff, stats.n)
    supports = _supports_upto(stats.n, cutoff)
    q = np.array([stats.support_prob(s) for s in supports])
    values_vec, squares = _invert_supports(supports, q)
    stderr_vec = np.sqrt(np.clip((squares - values_vec ** 2) / stats.total, 0.0, None))
    # inconsistency: solved values negative far beyond their error bars
    inconsistent = bool((values_vec < -4.0 * stderr_vec - 1e-12).any())
    return SupportEstimate(values=dict(zip(supports, values_vec.tolist())),
                           stderr=dict(zip(supports, stderr_vec.tolist())),
                           amplification=amplification_factors(cutoff),
                           cutoff=cutoff, excess_mass=float(1.0 - q.sum()),
                           inconsistent=inconsistent)


def choose_cutoff(stats: HammingStatistics) -> int:
    """Smallest w with empirical outcome mass above w below 2/M."""
    for w in range(stats.n + 1):
        if stats.weight_counts[w + 1:].sum() < 2:
            return w
    return stats.n


# ---------------------------------------------------------------------------
# protocol runner


@dataclass
class LocalTwirlEstimate:
    n: int
    config: LocalTwirlConfig
    weight: WeightEstimate
    support: SupportEstimate
    statistics: HammingStatistics = field(repr=False)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "config": self.config.to_json_dict(),
                "weight": self.weight.to_json_dict(),
                "support": self.support.to_json_dict()}


def run_local_twirl(channel: ChannelModel, config: LocalTwirlConfig,
                    backend: DenseBackend | None = None) -> LocalTwirlEstimate:
    n = channel.n
    _, outcomes = TwirlSpec("local_clifford", n).sample(backend or DenseBackend(), channel,
                                                        config.seed, config.shots)
    stats = HammingStatistics._from_codes(n, outcomes)
    cutoff = config.cutoff if config.cutoff is not None else choose_cutoff(stats)
    return LocalTwirlEstimate(n=n, config=config, weight=solve_pw(stats, cutoff),
                              support=solve_chi_col(stats, cutoff), statistics=stats)


# ---------------------------------------------------------------------------
# exact twirled fidelity


def c1t_fidelity(channel: ChannelModel, backend: DenseBackend | None = None) -> float:
    """Exact fidelity of the one-qubit-twirled channel: the survival entry
    of :func:`~twirltomo.dense.enumerate_twirl_exact` over the whole twirl,
    read off the backend's 3^n rotation tables.  The twirled map treats all
    computational inputs alike, so the input |0..0> gives it.  Equals
    sum_s chi_col[s] / 3^|s|.
    """
    return float(enumerate_twirl_exact(
        channel, TwirlSpec("local_clifford", channel.n), backend=backend)[0])
