"""Selective and blind estimation of diagonal chi coefficients.

Both protocols run M twirl realizations of one :class:`~twirltomo.dense.TwirlSpec`
family, MUB or Clifford.  The selective estimator inserts a chosen Pauli
between the channel and the undo step, which shifts each element's law by
the Pauli's syndrome: the survival rate s then satisfies
chi[l,l] = ((D+1) s - 1) / D, so each coefficient is measured on its own
with a binomial error bar.

The blind protocol records which element was drawn and which bit string
came out.  Any two realizations whose frames pin down a unique compatible
intermediary Pauli "vote" for it; every Pauli with at least two votes is
scored by counting the realizations whose candidate set contains it.
Realizations are merged by constraint class first: one batched rref
reduces each realization's (frame, outcome) to its class (blind Clifford
hands in every realization, blind MUB one group per seen (basis, outcome)),
and equal classes merge in first-seen order.  So all M(M-1)/2 pairs are
analyzed exactly at a cost quadratic in the number of classes, in
row-major blocks of ``_PAIR_BLOCK`` class pairs, each solved by one
:func:`twirltomo.gf2.solve_unique_batch` call.

Blind MUB is the one sampler off the shared outcome draw: it keeps its
per-realization ``substreams`` loop, in blocks of ``_MUB_BLOCK`` cdf entries
drawn against the MUB laws, fetched and cumsummed once per run, and adds up
each block's codes j*D + v.  A run has at most D(D+1) classes and memory
that does not grow with M.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import gf2
from .channels import ChannelModel, check_trace_preserving
from .dense import DenseBackend, TwirlSpec, draw_outcomes
from .errors import ConfigError, DimensionMismatchError
from .pauli import Pauli
from .records import ExperimentRecord
from .rng import (_draw_outcome, check_int, check_real, check_seed, draw_batch, substream,
                  substreams)
from .stabilizer import _key_to_pauli, _swap_halves, build_mub_family, outcome_shift

#: realizations whose estimate clears the reporting threshold by fewer than
#: this many standard errors are flagged borderline instead of being called
#: decisively above threshold (a familywise-conservative margin: with a few
#: dozen candidate labels in play, 4 sigma keeps the false-call rate per run
#: well under a percent).
DEFAULT_SIGNIFICANCE_Z = 4.0

#: cdf entries gathered per blind-MUB outcome-draw block (64 KiB; 1,024
#: realizations at n = 3).  Blocks of 2^16 entries, as the one-qubit twirl
#: uses, ran no faster and raised the mub-blind benchmark's peak RSS by
#: 4.3% (45.98 and 46.03 MiB, against 44.70 and 44.77 MiB at 2^13 on the
#: same seeds).
_MUB_BLOCK = 1 << 13

#: class pairs solved per block of the pair analysis, which bounds its
#: Python peak.  2^11 lifted the blind MUB memory test past its 0.5 MiB
#: bound; 2^13 ran no faster.
_PAIR_BLOCK = 1 << 10


@dataclass(frozen=True)
class SeqptConfig:
    """Realization count and sampling-precision targets.

    When ``epsilon`` is given, M must satisfy M >= 1/epsilon^2 (central
    limit); when ``delta`` is also given, M >= ln(2/delta)/(2 epsilon^2)
    (Chernoff).  Violations raise :class:`ConfigError` at construction, as
    do ``epsilon``, ``delta`` and ``significance_z`` values that are not
    finite numbers (bools, strings, NaN, infinities).
    """

    shots: int
    epsilon: float | None = None
    delta: float | None = None
    variant: str = "mub"
    seed: int = 0
    pair_class_cap: int | None = None
    significance_z: float = DEFAULT_SIGNIFICANCE_Z

    def __post_init__(self):
        object.__setattr__(self, "shots", check_int("shots", self.shots))  # stored as ints
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.shots < 1:
            raise ConfigError("shots must be positive")
        if self.variant not in ("mub", "clifford"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.pair_class_cap is not None:
            cap = check_int("pair_class_cap", self.pair_class_cap)
            if cap < 1:
                raise ConfigError("pair_class_cap must be positive")
            object.__setattr__(self, "pair_class_cap", cap)
        if not check_real("significance_z", self.significance_z) >= 0:
            raise ConfigError("significance_z must be a nonnegative number")
        if self.delta is not None and self.epsilon is None:
            raise ConfigError("delta requires epsilon")
        if self.epsilon is not None:
            if not (0 < check_real("epsilon", self.epsilon) < 1):
                raise ConfigError("epsilon must be in (0, 1)")
            if self.shots < 1.0 / self.epsilon ** 2:
                raise ConfigError(
                    f"shots={self.shots} < 1/epsilon^2 = {1.0 / self.epsilon**2:.1f}")
        if self.delta is not None:
            if not (0 < check_real("delta", self.delta) < 1):
                raise ConfigError("delta must be in (0, 1)")
            need = math.log(2.0 / self.delta) / (2.0 * self.epsilon ** 2)
            if self.shots < need:
                raise ConfigError(
                    f"shots={self.shots} < ln(2/delta)/(2 epsilon^2) = {need:.1f}")

    def to_json_dict(self) -> dict:
        return {"shots": self.shots, "epsilon": self.epsilon, "delta": self.delta,
                "variant": self.variant, "seed": self.seed,
                "pair_class_cap": self.pair_class_cap,
                "significance_z": self.significance_z}


@dataclass(frozen=True)
class SelectiveEstimate:
    chi_hat: float
    stderr: float
    survival_rate: float
    shots: int


def _survival_stderr(rate: float, shots: int, dim: int) -> float:
    return (dim + 1) / dim * math.sqrt(max(rate * (1.0 - rate), 0.0) / shots)


def estimate_chi_selective(channel: ChannelModel, label, config: SeqptConfig,
                           backend: DenseBackend | None = None) -> SelectiveEstimate:
    """Monte Carlo estimate of one diagonal chi coefficient.

    Each realization prepares a random MUB state (or a random Clifford image
    of |0..0>), applies the channel, the intermediary Pauli for ``label``,
    undoes the preparation, and tests survival.
    """
    backend = backend or DenseBackend()
    backend.check_capacity(channel.n)
    check_trace_preserving(channel)
    p = _as_pauli(label, channel.n)
    d = channel.dim
    m_total = config.shots
    twirl = TwirlSpec("mub" if config.variant == "mub" else "clifford_full", channel.n)
    ints, u = draw_batch(config.seed, 1, m_total, twirl.layout, 1)
    elements = twirl.elements(ints)
    laws, rows = twirl.laws(backend, channel, elements)
    # P relabels outcome v as v ^ shift, so outcome 0 survives with laws[row, shift]
    stay = laws[rows, outcome_shift(twirl.z_keys(elements), p)]
    rate = int((u[:, 0] < stay).sum()) / m_total
    chi_hat = ((d + 1) * rate - 1.0) / d
    return SelectiveEstimate(chi_hat=chi_hat,
                             stderr=_survival_stderr(rate, m_total, d),
                             survival_rate=rate, shots=m_total)


def average_fidelity(channel: ChannelModel, config: SeqptConfig,
                     backend: DenseBackend | None = None) -> tuple[float, float]:
    """Survival rate of the plain twirled channel = the average fidelity.

    Identical circuit to the selective estimator with the identity label;
    returns (fidelity, stderr)."""
    est = estimate_chi_selective(channel, Pauli.identity(channel.n), config, backend)
    d = channel.dim
    return est.survival_rate, est.stderr * d / (d + 1)


def _as_pauli(label, n: int) -> Pauli:
    if isinstance(label, str):
        label = Pauli.from_string(label)
    elif not isinstance(label, (Pauli, bool)) and hasattr(label, "__index__"):
        label = Pauli.from_label(n, operator.index(label))
    if not isinstance(label, Pauli):
        raise ConfigError(f"label {label!r} is not a Pauli, a Pauli string or an integer")
    if label.n != n:
        raise DimensionMismatchError(
            f"label {label} acts on {label.n} qubits, the channel on {n}")
    return label.strip_phase()


# ---------------------------------------------------------------------------
# blind discovery


@dataclass(frozen=True)
class LabelEstimate:
    chi_hat: float
    stderr: float
    compatible_count: int      # realizations whose candidate set contains the label
    pair_count: int            # realization pairs that voted for the label
    borderline: bool

    def to_json_dict(self) -> dict:
        return {"chi_hat": self.chi_hat, "stderr": self.stderr,
                "compatible_count": self.compatible_count,
                "pair_count": self.pair_count, "borderline": self.borderline}


@dataclass
class SeqptResult:
    n: int
    config: SeqptConfig
    estimates: dict[str, LabelEstimate]
    threshold: float
    residual_mass: float
    usable_pair_fraction: float
    total_pairs: int
    analyzed_exactly: bool = True
    records: list[ExperimentRecord] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "config": self.config.to_json_dict(),
            "threshold": self.threshold,
            "residual_mass": self.residual_mass,
            "usable_pair_fraction": self.usable_pair_fraction,
            "total_pairs": self.total_pairs,
            "analyzed_exactly": self.analyzed_exactly,
            "estimates": {k: v.to_json_dict() for k, v in sorted(self.estimates.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, allow_nan=False)


def _sample_mub_codes(channel: ChannelModel, seed: int, count: int,
                      backend: DenseBackend, keep_records: bool):
    """Realizations 0 .. count-1 of a blind MUB run, reduced as they stream
    through blocks of ``_MUB_BLOCK`` cdf entries.  Realization i draws basis
    j, state m and the outcome uniform from ``substream(seed, 1 + i)``, and
    its outcome v from law row j*D + m (:meth:`TwirlSpec.laws`: the same
    rows whichever elements are drawn, so fetched and cumsummed once).
    Returns the count of each code j*D + v, the first realization with each
    code (``count`` where none has it), and the records of all realizations
    when ``keep_records`` is set."""
    d = channel.dim
    laws, _ = TwirlSpec("mub", channel.n).laws(backend, channel, np.empty((0, 2), dtype=np.int64))
    cdfs = np.cumsum(laws, axis=1)
    counts = np.zeros(d * (d + 1), dtype=np.int64)
    first = np.full(d * (d + 1), count, dtype=np.int64)
    records = []
    step = max(1, _MUB_BLOCK // d)
    j, m = np.empty((2, step), dtype=np.int64)
    u = np.empty(step)
    streams = substreams(seed, 1, count)
    for lo in range(0, count, step):
        size = min(step, count - lo)
        for i, rng in enumerate(islice(streams, size)):
            j[i] = rng.integers(0, d + 1)
            m[i] = rng.integers(0, d)
            u[i] = rng.random()
        jb, mb = j[:size], m[:size]
        v = _draw_outcome(cdfs[jb * d + mb], u[:size])
        codes = jb * d + v
        counts += np.bincount(codes, minlength=len(counts))
        np.minimum.at(first, codes, np.arange(lo, lo + size))
        if keep_records:
            records += [ExperimentRecord("mub", (jj, mm), _bits(vv, channel.n))
                        for jj, mm, vv in zip(jb.tolist(), mb.tolist(), v.tolist())]
    return counts, first, records


def _constraint_classes(n: int, frames, outcomes) -> np.ndarray:
    """(G, n) canonical constraint systems of G (frame, outcome) groups,
    all at once: a compatible Pauli P satisfies <P, Z-image j> = bit j of
    the outcome (qubit 1 on top), a row with the functional on Pauli keys in
    bits 1.. and the rhs in bit 0, and :func:`gf2.rref_batch` reduces each
    group's n independent rows to the rows that name its class."""
    rhs = (np.asarray(outcomes)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rows = (_swap_halves(np.asarray(frames, dtype=np.uint64), n) << np.uint64(1)) \
        | rhs.astype(np.uint64)
    return gf2.rref_batch(rows, 2 * n + 1)


def _pair_votes(n: int, class_rows, counts, picks) -> tuple[dict[int, int], int]:
    """Votes of the class pairs i < j, all or those at the sorted flat
    row-major indices ``picks``, in blocks of ``_PAIR_BLOCK``: the counts[i] *
    counts[j] realization pairs that pin down each key, keys in the order of
    their first pair, and the cross-class realization pairs analyzed."""
    n_classes = len(class_rows)
    idx = np.arange(n_classes)
    starts = idx * (2 * n_classes - idx - 1) // 2  # flat index of pair (i, i+1)
    stop = n_classes * (n_classes - 1) // 2 if picks is None else len(picks)
    # dense tallies over the 4^n keys, 4,096 entries at the dense cap n = 6;
    # blind discovery past that cap would need a sparse tally
    weight = np.zeros(1 << 2 * n, dtype=np.int64)
    first = np.full(1 << 2 * n, stop, dtype=np.int64)
    analyzed_cross = 0
    for lo in range(0, stop, _PAIR_BLOCK):
        flat = np.arange(lo, min(lo + _PAIR_BLOCK, stop))
        flat = flat if picks is None else picks[flat]
        i = np.searchsorted(starts, flat, side="right") - 1
        j = flat - starts[i] + i + 1
        keys = gf2.solve_unique_batch(
            np.concatenate((class_rows[i], class_rows[j]), axis=1), 2 * n)
        npairs = counts[i] * counts[j]
        analyzed_cross += int(npairs.sum())
        usable = keys >= 0
        np.add.at(weight, keys[usable], npairs[usable])
        np.minimum.at(first, keys[usable], lo + np.flatnonzero(usable))
    order = np.argsort(first)[:np.count_nonzero(weight)]  # unseen keys sort last
    return dict(zip(order.tolist(), weight[order].tolist())), analyzed_cross


def run_blind_discovery(channel: ChannelModel, config: SeqptConfig,
                        backend: DenseBackend | None = None,
                        keep_records: bool = False) -> SeqptResult:
    """Discover the large diagonal chi coefficients without choosing labels.

    All M(M-1)/2 realization pairs are analyzed through their constraint
    classes (exactly; grouping is lossless).  A label enters the report when
    at least two pairs voted for it and its estimate clears the threshold
    2/M; estimates that clear it by fewer than ``significance_z`` standard
    errors carry ``borderline=True`` rather than being dropped, leaving the
    inclusion decision to the caller.  Estimates are never clipped to [0,1].
    """
    if config.shots < 2:
        raise ConfigError("blind discovery needs at least two realizations")
    backend = backend or DenseBackend()
    backend.check_capacity(channel.n)
    check_trace_preserving(channel)
    n = channel.n
    d = channel.dim
    m_total = config.shots

    if config.variant == "mub":
        # one group per seen code j*D + v, visited in order of first realization
        sizes, first, records = _sample_mub_codes(channel, config.seed, m_total,
                                                  backend, keep_records)
        seen = np.flatnonzero(sizes)
        codes = seen[np.argsort(first[seen])]
        frames, outcomes, sizes = build_mub_family(n).z[codes // d], codes % d, sizes[codes]
    else:  # one group per realization; _discover merges equal classes
        twirl = TwirlSpec("clifford_full", n)
        ints, u = draw_batch(config.seed, 1, m_total, twirl.layout, 1)
        tableaux = twirl.elements(ints)
        outcomes = draw_outcomes(*twirl.laws(backend, channel, tableaux), u[:, 0])
        records = ([ExperimentRecord("clifford", (tableaux.clifford(i),), _bits(v, n))
                    for i, v in enumerate(outcomes.tolist())] if keep_records else [])
        frames, sizes = tableaux.z, np.ones(m_total, dtype=np.int64)
    return _discover(n, config, frames, outcomes, sizes, records)


def _discover(n: int, config: SeqptConfig, frames, outcomes, sizes,
              records: list[ExperimentRecord]) -> SeqptResult:
    """Pair analysis and estimates of a blind run, from groups of its
    realizations that share a (Z-frame, outcome), in first-seen order: the
    (K, n) Z-image keys, outcome and realization count of each group (blind
    Clifford hands in one group per realization).  The groups' constraint
    classes come from one batched rref; groups with the same class merge,
    and the classes keep the order of their first group."""
    rows = _constraint_classes(n, frames, outcomes)
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    counts = np.zeros(len(first), dtype=np.int64)
    np.add.at(counts, inverse.ravel(), sizes)
    class_rows, counts = rows[first[order]], counts[order]
    d = 1 << n
    m_total = config.shots
    pair_budget = len(class_rows) * (len(class_rows) - 1) // 2
    picks = None
    if config.pair_class_cap is not None and pair_budget > config.pair_class_cap:
        picks = np.sort(substream(config.seed, 0).choice(
            pair_budget, size=config.pair_class_cap, replace=False))
    analyzed_exactly = picks is None

    # residual_mass sums the votes in the order of each key's first pair
    votes, analyzed_cross = _pair_votes(n, class_rows, counts, picks)
    usable_pairs = sum(votes.values())

    threshold = 2.0 / m_total
    z = config.significance_z
    functionals = class_rows >> np.uint64(1)
    rhs = class_rows & np.uint64(1)
    estimates: dict[str, LabelEstimate] = {}
    for key, pair_count in votes.items():
        if pair_count < 2:
            continue
        parity = np.bitwise_count(functionals & np.uint64(key)) & 1
        compatible = int(counts[(parity == rhs).all(axis=1)].sum())
        rate = compatible / m_total
        chi_hat = ((d + 1) * rate - 1.0) / d
        if chi_hat < threshold:
            continue
        stderr = _survival_stderr(rate, m_total, d)
        label = str(_key_to_pauli(key, n))
        estimates[label] = LabelEstimate(
            chi_hat=chi_hat, stderr=stderr, compatible_count=compatible,
            pair_count=pair_count, borderline=chi_hat < threshold + z * stderr)

    total_pairs = m_total * (m_total - 1) // 2
    # same-class pairs are never usable, so the exact fraction is over all
    # pairs; under a class-pair cap, scale the analyzed cross-class rate by
    # the exactly-known cross-class mass.
    total_cross = (m_total * m_total - sum(c * c for c in counts.tolist())) // 2
    if analyzed_exactly or analyzed_cross == 0:
        fraction = usable_pairs / total_pairs if total_pairs else 0.0
    else:
        fraction = (usable_pairs / analyzed_cross) * (total_cross / total_pairs)
    return SeqptResult(
        n=n, config=config, estimates=estimates, threshold=threshold,
        residual_mass=1.0 - sum(e.chi_hat for e in estimates.values()),
        usable_pair_fraction=fraction,
        total_pairs=total_pairs, analyzed_exactly=analyzed_exactly,
        records=records)


def _bits(v: int, n: int) -> tuple[int, ...]:
    return tuple((v >> (n - 1 - j)) & 1 for j in range(n))


# ---------------------------------------------------------------------------
# pair-success probabilities


def _float_dim(n: int) -> float:
    """D = 2^n as a float, for n whose D^2 is finite."""
    if not 1 <= n <= 511:
        raise ConfigError(f"n must be in 1..511, got {n}")
    return float(1 << n)


def success_probability(variant: str, n: int) -> float:
    """Closed-form probability that a pair of realizations is usable.

    For the MUB variant this is D/(D+1), the chance of drawing two distinct
    bases.  For the Clifford variant the conventional closed form is the
    product below; note that uniform Clifford sampling actually realizes
    :func:`frames_independent_probability`, which differs (see README).
    """
    d = _float_dim(n)
    if variant == "mub":
        return d / (d + 1.0)
    if variant == "clifford":
        p = 1.0
        for j in range(n):
            w = 2.0 ** j
            p *= (d * d / w - w - d / w) / (d * d / w - w)
        return p
    raise ConfigError(f"unknown variant {variant!r}")


def frames_independent_probability(n: int) -> float:
    """Exact probability that two uniformly drawn Clifford frames share no
    nonidentity stabilizer element.

    Counting complements of a maximal isotropic subspace gives
    prod_j (D^2/2^j - D) / (D^2/2^j - 2^j); this is the usable-pair rate a
    simulation of the Clifford variant converges to.
    """
    d = _float_dim(n)
    p = 1.0
    for j in range(n):
        w = 2.0 ** j
        p *= (d * d / w - d) / (d * d / w - w)
    return p


@dataclass(frozen=True)
class VariantReport:
    usable_pair_fraction: float
    closed_form: float
    exact_rate: float
    estimates: dict[str, LabelEstimate]


@dataclass(frozen=True)
class VariantComparison:
    n: int
    shots: int
    mub: VariantReport
    clifford: VariantReport

    def to_json_dict(self) -> dict:
        def rep(r: VariantReport) -> dict:
            return {"usable_pair_fraction": r.usable_pair_fraction,
                    "closed_form": r.closed_form, "exact_rate": r.exact_rate,
                    "estimates": {k: v.to_json_dict() for k, v in sorted(r.estimates.items())}}
        return {"n": self.n, "shots": self.shots,
                "mub": rep(self.mub), "clifford": rep(self.clifford)}


def compare_variants(channel: ChannelModel, config: SeqptConfig,
                     backend: DenseBackend | None = None,
                     check_sigmas: float = 3.0) -> VariantComparison:
    """Run both variants with equal shots and compare usable-pair fractions.

    Asserts each empirical fraction lies within ``check_sigmas`` binomial
    standard deviations of the rate realized by uniform sampling (D/(D+1)
    for MUB bases, the independent-frames probability for Cliffords); the
    conventional closed forms are reported alongside.
    """
    backend = backend or DenseBackend()
    reports = {}
    for variant, exact in (("mub", success_probability("mub", channel.n)),
                           ("clifford", frames_independent_probability(channel.n))):
        cfg = SeqptConfig(shots=config.shots, variant=variant, seed=config.seed,
                          pair_class_cap=config.pair_class_cap,
                          significance_z=config.significance_z)
        res = run_blind_discovery(channel, cfg, backend)
        emp = res.usable_pair_fraction
        # usability of a pair has a conditional expectation independent of
        # either endpoint (bases and frames are drawn uniformly), so the
        # all-pairs fraction is a degenerate U-statistic and the plain
        # binomial sigma over C(M,2) pairs is the right scale.
        sigma = math.sqrt(exact * (1.0 - exact) / res.total_pairs)
        if abs(emp - exact) > check_sigmas * sigma:
            raise AssertionError(
                f"{variant} usable-pair fraction {emp:.4f} is off the expected "
                f"{exact:.4f} (sigma {sigma:.2e})")
        reports[variant] = VariantReport(
            usable_pair_fraction=emp,
            closed_form=success_probability(variant, channel.n),
            exact_rate=exact, estimates=res.estimates)
    return VariantComparison(n=channel.n, shots=config.shots,
                             mub=reports["mub"], clifford=reports["clifford"])
