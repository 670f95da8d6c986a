"""Selective and blind estimation of diagonal chi coefficients.

Both protocols run M twirl realizations of one :class:`~twirltomo.dense.TwirlSpec`
family, MUB or Clifford.  The selective estimator inserts a chosen Pauli
between the channel and the undo step, which relabels each outcome by the
Pauli's syndrome: a realization survives where it drew that shift, and the
survival rate s satisfies chi[l,l] = ((D+1) s - 1) / D, so each coefficient
is measured on its own with a binomial error bar.  It is the blind
experiment read at one label, whose ``compatible_count`` it equals.

The blind protocol reads each realization's Z-frame (the Z-images of the
drawn element) and the bit string that came out.  Any two realizations
whose frames pin down a unique compatible intermediary Pauli "vote" for
it; every Pauli with at least two votes is scored by counting the
realizations whose candidate set contains it.  Realizations are merged by
constraint class first: one batched rref reduces each realization's
(frame, outcome) to its class (blind Clifford hands in every realization,
blind MUB one group per seen (basis, outcome)), and equal classes merge in
first-seen order.  So all M(M-1)/2 pairs are analyzed, every one of them,
at a cost quadratic in the number of classes; a run keeps its class counts
and estimates, not its realizations.  Each class is reduced once to its
solution frame, a particular key and n nullspace keys
(:func:`twirltomo.gf2.solve_affine_batch`); a pair i < j is then the n x n
system of class j's rows in class i's frame.  The pairs run in bands of
whole rows of the pair triangle: float32 Gram products of 0/1 bits give
every entry of a band's systems, packed 8 pairs per byte and solved there
by a swap-free Gauss-Jordan elimination.

Blind MUB is the one sampler off :meth:`~twirltomo.dense.TwirlSpec.sample`
until it moves onto it: it keeps its per-realization ``substreams`` loop,
in blocks of ``_MUB_BLOCK // D`` realizations drawn against the MUB laws,
fetched and cumsummed once per run, and adds up each block's codes
j*D + v.  A run has at most D(D+1) classes and memory that does not grow
with M.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import numpy as np

from . import gf2
from .channels import ChannelModel, check_trace_preserving
from .dense import DenseBackend, TwirlSpec
from .errors import CapacityError, ConfigError, DimensionMismatchError
from .pauli import Pauli
# substream is not called here; it stays importable as
# twirltomo.seqpt.substream, a name outside tooling already uses.
from .rng import (_cdf_table, _draw_outcome, check_int, check_real, check_seed,  # noqa: F401
                  substream, substreams)
from .stabilizer import _key_to_pauli, _swap_halves, build_mub_family, outcome_shift

#: realizations whose estimate clears the reporting threshold by fewer than
#: this many standard errors are flagged borderline instead of being called
#: decisively above threshold (a familywise-conservative margin: with a few
#: dozen candidate labels in play, 4 sigma keeps the false-call rate per run
#: well under a percent).
SIGNIFICANCE_Z = 4.0

#: the most realizations a blind MUB run takes.  Its per-realization loop
#: (about 6 us each) would run some 7 h at 2^32, while the batched samplers
#: are refused by the allocator at once when asked for far more.
MUB_BLIND_MAX_SHOTS = 1 << 32

#: cdf entries per blind-MUB outcome-draw block: it draws _MUB_BLOCK // D
#: realizations (1,024 at n = 3).  Blocks of 2^16 entries ran no faster and
#: raised the mub-blind benchmark's peak RSS by 4.3% (45.98 and 46.03 MiB,
#: against 44.70 and 44.77 MiB at 2^13 on the same seeds).
_MUB_BLOCK = 1 << 13

#: Gram entries per band of the pair analysis, rows (n + 1) x nC for a band
#: of whole triangle rows over C classes (one row at least), which bounds
#: its Python peak.  On the class sets of clifford-blind runs (M = 10^3) a
#: band is 9 rows at n = 3 (416 classes), 2 at n = 4 (930) and 1 at n = 5;
#: the pass took 7, 66 and 150 ms there, against 20, 121 and 190 ms for
#: the swap-free kernel on blocks of 1,024 pairs, and the blind Clifford
#: memory test peaks at 0.58 and 0.93 MiB (bounds 0.65 and 1.1 MiB).
_PAIR_BLOCK = 3 << 14

#: (key, class) entries per block of the compatibility count of the voted
#: keys.  Over the 416 classes and 64 keys of a clifford-blind run (n = 3)
#: 2^13, 2^14 and 2^15 took 0.30, 0.25 and 0.23 ms and peaked at 196, 269
#: and 360 KiB, against 1.35 ms for one pass per key.
_KEY_BLOCK = 1 << 14
_ONE = np.uint64(1)


@dataclass(frozen=True)
class SeqptConfig:
    """Realization count, twirl variant, seed and sampling-precision targets.
    The borderline margin is the constant ``SIGNIFICANCE_Z``, and blind
    discovery always analyzes every realization pair.

    When ``epsilon`` is given, M must satisfy M >= 1/epsilon^2 (central
    limit); when ``delta`` is also given, M >= ln(2/delta)/(2 epsilon^2),
    Hoeffding's bound for the survival rate to land within epsilon of its
    mean with probability >= 1 - delta.  chi_hat = ((D+1) rate - 1)/D has
    (D+1)/D times that error; bounding chi_hat itself takes ((D+1)/D)^2
    times the shots (2.25x at n = 1).  Violations raise :class:`ConfigError`
    at construction, as do ``epsilon`` and ``delta`` values that are not
    finite numbers (bools, strings, NaN, infinities).
    """

    shots: int
    epsilon: float | None = None
    delta: float | None = None
    variant: str = "mub"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shots", check_int("shots", self.shots))  # stored as ints
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.shots < 1:
            raise ConfigError("shots must be positive")
        if self.variant not in ("mub", "clifford"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.delta is not None and self.epsilon is None:
            raise ConfigError("delta requires epsilon")
        if self.epsilon is not None:
            if not (0 < check_real("epsilon", self.epsilon) < 1):
                raise ConfigError("epsilon must be in (0, 1)")
            # exact rationals: the float square of a tiny epsilon underflows to 0
            square = Fraction(float(self.epsilon)) ** 2
            if self.shots < 1 / square:
                raise ConfigError(f"shots={self.shots} < 1/epsilon^2 = {_approx(1 / square)}")
        if self.delta is not None:
            if not (0 < check_real("delta", self.delta) < 1):
                raise ConfigError("delta must be in (0, 1)")
            need = Fraction(math.log(2.0) - math.log(self.delta)) / (2 * square)
            if self.shots < need:
                raise ConfigError(
                    f"shots={self.shots} < ln(2/delta)/(2 epsilon^2) = {_approx(need)}")

    def to_json_dict(self) -> dict:
        return {"shots": self.shots, "epsilon": self.epsilon, "delta": self.delta,
                "variant": self.variant, "seed": self.seed}


def _approx(value: Fraction) -> str:
    """``value`` to six significant digits, also past the float range."""
    return f"{Decimal(value.numerator) / value.denominator:.6g}"


@dataclass(frozen=True)
class SelectiveEstimate:
    chi_hat: float
    stderr: float
    survival_rate: float
    shots: int


def _chi_estimate(survived: int, shots: int, dim: int) -> tuple[float, float, float]:
    """(survival rate, chi_hat, stderr) of ``survived`` of ``shots`` realizations."""
    rate = survived / shots
    return (rate, ((dim + 1) * rate - 1.0) / dim,
            (dim + 1) / dim * math.sqrt(max(rate * (1.0 - rate), 0.0) / shots))


def estimate_chi_selective(channel: ChannelModel, label, config: SeqptConfig,
                           backend: DenseBackend | None = None) -> SelectiveEstimate:
    """Monte Carlo estimate of one diagonal chi coefficient.

    Each realization prepares a random MUB state (or a random Clifford image
    of |0..0>), applies the channel, the intermediary Pauli for ``label``,
    undoes the preparation, and tests survival (:meth:`TwirlSpec.sample`).
    A map past the cap, a map that is not trace preserving and a label that
    is not a Pauli on the channel's qubits are refused, in that order,
    before any draw.
    """
    twirl = TwirlSpec("mub" if config.variant == "mub" else "clifford_full", channel.n)
    backend = backend or DenseBackend()
    backend.check_capacity(channel.n)
    check_trace_preserving(channel)
    pauli = _as_pauli(label, channel.n)
    elements, outcomes = twirl.sample(backend, channel, config.seed, config.shots)
    # P relabels outcome v as v ^ shift, so a realization survives where it drew the shift
    shift = outcome_shift(twirl.z_keys(elements), pauli)
    rate, chi_hat, stderr = _chi_estimate(int((outcomes == shift).sum()), config.shots,
                                          channel.dim)
    return SelectiveEstimate(chi_hat=chi_hat, stderr=stderr, survival_rate=rate,
                             shots=config.shots)


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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "config": self.config.to_json_dict(),
            "threshold": self.threshold,
            "residual_mass": self.residual_mass,
            "usable_pair_fraction": self.usable_pair_fraction,
            "total_pairs": self.total_pairs,
            "estimates": {k: v.to_json_dict() for k, v in sorted(self.estimates.items())},
        }


def _sample_mub_codes(channel: ChannelModel, seed: int, count: int, backend: DenseBackend):
    """Realizations 0 .. count-1 of a blind MUB run, reduced as they stream
    through blocks of ``_MUB_BLOCK // D`` realizations.  Realization i draws
    basis j, state m and the outcome uniform from ``substream(seed, 1 + i)``,
    and its outcome v from law row j*D + m (:meth:`TwirlSpec.laws`: the same
    rows whichever elements are drawn, so fetched and cumsummed once).
    Returns the count of each code j*D + v and the first realization with
    each code (``count`` where none has it)."""
    backend.check_capacity(channel.n)
    check_trace_preserving(channel)
    d = channel.dim
    laws, _ = TwirlSpec("mub", channel.n).laws(backend, channel, np.empty((0, 2), dtype=np.int64))
    cdfs = _cdf_table(laws)
    counts = np.zeros(d * (d + 1), dtype=np.int64)
    first = np.full(d * (d + 1), count, dtype=np.int64)
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
        v = _draw_outcome(cdfs, jb * d + mb, u[:size])
        codes = jb * d + v
        counts += np.bincount(codes, minlength=len(counts))
        np.minimum.at(first, codes, np.arange(lo, lo + size))
    return counts, first


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


def _pair_votes(n: int, class_rows, counts) -> dict[int, int]:
    """Votes of the class pairs i < j, in bands of whole rows of the pair
    triangle: the counts[i] * counts[j] realization pairs that pin down each
    key, keys in the order of their first pair.

    Class i admits the keys p_i ^ span(N_i^0 .. N_i^(n-1)) of
    :func:`gf2.solve_affine_batch`.  Class j's rows f_j^a, r_j^a restricted
    to that frame read M y = r_j ^ F_j p_i with M[a, b] = <f_j^a, N_i^b>, an
    n x n system; the pair is usable exactly when M is invertible, and then
    votes for p_i ^ sum_b y_b N_i^b.  Each frame is kept in augmented form,
    N_i^b << 1 then (p_i << 1) | 1, so that entry (a, c) of the system is
    the parity of class j's augmented row a against frame entry c.

    A band of rows i0..i1 gets its entries against every class j from one
    float32 product of 0/1 bits per class row a, the band's ((n + 1)
    (i1 - i0), 2n + 1) frame bits against the (2n + 1, C) bits of row a
    (exact, as each sum is at most 2n + 1), and packs them along j into
    (n, n + 1, i1 - i0, C/8) bytes, 8 pairs per byte; the j <= i entries
    are solved too and masked out.  The systems are then solved by
    Gauss-Jordan elimination with no pivot search and no row swap: row k,
    where it lacks the pivot bit of column k, takes in the first lower row
    that has it, every other row clears the column, and a pair is usable
    when every row found its pivot.  The keys are XORs of frame entries,
    and the unusable pairs vote into a spare bin, so every array of a band
    has the same shape in every band (arrays sized by the usable pairs grew
    the process's RSS from job to job)."""
    n_classes = len(class_rows)
    if n_classes < 2:
        return {}
    particular, basis = gf2.solve_affine_batch(class_rows, 2 * n)
    rows = min(n_classes - 1, max(1, _PAIR_BLOCK // ((n + 1) * n * n_classes)))
    padded = -(-(n_classes - 1) // rows) * rows  # whole bands over the rows i < C - 1
    # frame entries N_i^0 .. N_i^(n-1), p_i of the rows i, and their counts;
    # the padding rows hold no pair
    frames = np.zeros((padded, n + 1), dtype=np.int64)
    frames[:n_classes - 1] = np.concatenate((basis, particular[:, None]), axis=1)[:-1]
    row_counts = np.zeros(padded, dtype=np.int64)
    row_counts[:n_classes - 1] = counts[:-1]
    col_bits = np.empty((n, 2 * n + 1, n_classes), dtype=np.float32)
    for t in range(2 * n + 1):  # bit t of class row a of every class j
        col_bits[:, t] = (class_rows.T >> np.uint64(t)) & _ONE
    cols = np.arange(n_classes)
    idx = np.arange(padded)
    offset = idx * (2 * n_classes - idx - 1) // 2 - idx - 1  # flat index of pair (i, j) less j
    stop = n_classes * (n_classes - 1) // 2
    spare = 1 << 2 * n
    # dense tallies over the 4^n keys and the spare bin, 4,097 entries at
    # the dense cap n = 6; blind discovery past that cap would need a sparse tally
    weight = np.zeros(spare + 1, dtype=np.int64)
    first = np.full(spare + 1, stop, dtype=np.int64)
    shifts = np.arange(2 * n)
    row_bits = np.zeros((n + 1, rows, 2 * n + 1), dtype=np.float32)
    row_bits[n, :, 0] = 1  # frame entry n is (p_i << 1) | 1
    gram = np.empty(((n + 1) * rows, n_classes), dtype=np.float32)
    bits = np.empty((n, (n + 1) * rows, n_classes), dtype=np.uint8)
    keys = np.empty((rows, n_classes), dtype=np.int64)
    term = np.empty_like(keys)
    for i0 in range(0, padded, rows):
        band = slice(i0, i0 + rows)
        row_bits[:, :, 1:] = (frames[band].T[:, :, None] >> shifts) & 1
        for a in range(n):  # entries (a, c) of the band's systems, [c, i, j]
            np.matmul(row_bits.reshape(gram.shape[0], 2 * n + 1), col_bits[a], out=gram)
            np.copyto(bits[a], gram, casting="unsafe")
        bits &= 1
        system = np.packbits(bits.reshape(n, n + 1, rows, n_classes), axis=-1)
        ok = np.packbits(cols > idx[band, None], axis=-1)
        for k in range(n):
            pivot = system[k, k]
            for r in range(k + 1, n):  # the first lower row with the bit wins
                take = system[r, k] & ~pivot
                system[k, k:] ^= take & system[r, k:]
            ok &= pivot
            bit = system[:, k].copy()
            bit[k] = 0
            system[:, k + 1:] ^= bit[:, None] & system[k, k + 1:]
        y = np.unpackbits(system[:, n], axis=-1, count=n_classes)
        np.multiply(y[0], frames[band, 0, None], out=keys)
        for b in range(1, n):  # add in nullspace key b where bit b of y is set
            keys ^= np.multiply(y[b], frames[band, b, None], out=term)
        keys ^= frames[band, n, None]
        np.copyto(keys, spare, where=np.unpackbits(~ok, axis=-1, count=n_classes).view(bool))
        keys_1d = keys.ravel()  # ufunc.at is fast on 1-d indices only
        np.add.at(weight, keys_1d, np.multiply(row_counts[band, None], counts, out=term).ravel())
        np.minimum.at(first, keys_1d, np.add(offset[band, None], cols, out=term).ravel())
    weight, first = weight[:spare], first[:spare]
    order = np.argsort(first)[:np.count_nonzero(weight)]  # unseen keys sort last
    return dict(zip(order.tolist(), weight[order].tolist()))


def run_blind_discovery(channel: ChannelModel, config: SeqptConfig,
                        backend: DenseBackend | None = None) -> SeqptResult:
    """Discover the large diagonal chi coefficients without choosing labels.

    All M(M-1)/2 realization pairs are analyzed through their constraint
    classes (exactly; grouping is lossless).  A label enters the report when
    at least two pairs voted for it and its estimate clears the threshold
    2/M; estimates that clear it by fewer than ``SIGNIFICANCE_Z`` standard
    errors carry ``borderline=True`` rather than being dropped, leaving the
    inclusion decision to the caller.  Estimates are never clipped to [0,1].
    A blind MUB run of more than ``MUB_BLIND_MAX_SHOTS`` (2^32) realizations
    raises :class:`CapacityError` before its laws are built.
    """
    if config.shots < 2:
        raise ConfigError("blind discovery needs at least two realizations")
    if config.variant == "mub" and config.shots > MUB_BLIND_MAX_SHOTS:
        raise CapacityError(f"blind MUB runs are capped at 2**32 = {MUB_BLIND_MAX_SHOTS} "
                            f"realizations, got {config.shots}")
    backend = backend or DenseBackend()
    n = channel.n
    d = channel.dim
    m_total = config.shots

    if config.variant == "mub":
        # one group per seen code j*D + v, visited in order of first realization
        sizes, first = _sample_mub_codes(channel, config.seed, m_total, backend)
        seen = np.flatnonzero(sizes)
        codes = seen[np.argsort(first[seen])]
        frames, outcomes, sizes = build_mub_family(n).z[codes // d], codes % d, sizes[codes]
    else:  # one group per realization; _discover merges equal classes
        tableaux, outcomes = TwirlSpec("clifford_full", n).sample(
            backend, channel, config.seed, m_total)
        frames, sizes = tableaux.z, np.ones(m_total, dtype=np.int64)
    return _discover(n, config, frames, outcomes, sizes)


def _discover(n: int, config: SeqptConfig, frames, outcomes, sizes) -> SeqptResult:
    """Pair analysis and estimates of a blind run, from groups of its
    realizations that share a (Z-frame, outcome), in first-seen order: the
    (K, n) Z-image keys, outcome and realization count of each group (blind
    Clifford hands in one group per realization).  The groups' constraint
    classes come from one batched rref; groups with the same class merge,
    and the classes keep the order of their first group."""
    rows = _constraint_classes(n, frames, outcomes)
    # equal rows sort together, and lexsort is stable, so each run of equal
    # rows starts at its first group
    perm = np.lexsort(rows.T)
    ranked = rows[perm]
    starts = np.flatnonzero(np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1))))
    first, counts = perm[starts], np.add.reduceat(sizes[perm], starts)
    order = np.argsort(first)
    class_rows, counts = rows[first[order]], counts[order]
    d = 1 << n
    m_total = config.shots
    # residual_mass sums the votes in the order of each key's first pair
    votes = _pair_votes(n, class_rows, counts)

    threshold = 2.0 / m_total
    voted = [key for key, pair_count in votes.items() if pair_count >= 2]
    estimates: dict[str, LabelEstimate] = {}
    for key, compatible in zip(voted, _compatible_counts(class_rows, counts, voted)):
        _, chi_hat, stderr = _chi_estimate(compatible, m_total, d)
        if chi_hat >= threshold:
            estimates[str(_key_to_pauli(key, n))] = LabelEstimate(
                chi_hat=chi_hat, stderr=stderr, compatible_count=compatible,
                pair_count=votes[key], borderline=chi_hat < threshold + SIGNIFICANCE_Z * stderr)

    total_pairs = m_total * (m_total - 1) // 2
    return SeqptResult(
        n=n, config=config, estimates=estimates, threshold=threshold,
        residual_mass=1.0 - sum(e.chi_hat for e in estimates.values()),
        usable_pair_fraction=sum(votes.values()) / total_pairs, total_pairs=total_pairs)


def _compatible_counts(class_rows, counts, keys) -> list[int]:
    """The realizations compatible with each key: the summed counts of the
    classes all of whose augmented rows (f << 1) | r hold, <f, key> = r.
    One pass per row over blocks of keys, with about ``_KEY_BLOCK`` (key,
    class) entries each; the float dot is exact, as its sums are at most M."""
    functionals, rhs = class_rows >> _ONE, class_rows & _ONE
    keys, weights = np.array(keys, dtype=np.uint64), counts.astype(float)
    compatible = np.empty(len(keys))
    step = max(1, _KEY_BLOCK // len(class_rows))
    for lo in range(0, len(keys), step):
        block = keys[lo:lo + step, None]
        ok = np.ones((len(block), len(class_rows)), dtype=bool)
        for a in range(class_rows.shape[1]):
            ok &= (np.bitwise_count(functionals[:, a] & block) & 1) == rhs[:, a]
        compatible[lo:lo + step] = ok @ weights
    return compatible.astype(np.int64).tolist()


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
                     backend: DenseBackend | None = None) -> VariantComparison:
    """Run both variants with equal shots and compare usable-pair fractions.

    Asserts each empirical fraction lies within 3 binomial standard
    deviations of the rate realized by uniform sampling (D/(D+1) for MUB
    bases, the independent-frames probability for Cliffords); the
    conventional closed forms are reported alongside.
    """
    backend = backend or DenseBackend()
    reports = {}
    for variant, exact in (("mub", success_probability("mub", channel.n)),
                           ("clifford", frames_independent_probability(channel.n))):
        cfg = SeqptConfig(shots=config.shots, variant=variant, seed=config.seed)
        res = run_blind_discovery(channel, cfg, backend)
        emp = res.usable_pair_fraction
        # usability of a pair has a conditional expectation independent of
        # either endpoint (bases and frames are drawn uniformly), so the
        # all-pairs fraction is a degenerate U-statistic and the plain
        # binomial sigma over C(M,2) pairs is the right scale.
        sigma = math.sqrt(exact * (1.0 - exact) / res.total_pairs)
        if abs(emp - exact) > 3 * sigma:
            raise AssertionError(
                f"{variant} usable-pair fraction {emp:.4f} is off the expected "
                f"{exact:.4f} (sigma {sigma:.2e})")
        reports[variant] = VariantReport(
            usable_pair_fraction=emp,
            closed_form=success_probability(variant, channel.n),
            exact_rate=exact, estimates=res.estimates)
    return VariantComparison(n=channel.n, shots=config.shots,
                             mub=reports["mub"], clifford=reports["clifford"])
