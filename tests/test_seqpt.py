import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cnot_channel, draw_outcome_reference, mixed_z1_channel
from twirltomo.channel_spec import build_channel, parse_channel_document
from twirltomo.channels import (ChannelModel, depolarizing_kraus, gate_unitary,
                                random_cp_channel)
from twirltomo.dense import DenseBackend
from twirltomo.errors import ConfigError, DimensionMismatchError
from twirltomo.pauli import Pauli
from twirltomo import dense, gf2, seqpt
from twirltomo.records import ExperimentRecord
from twirltomo.rng import _draw_outcome, substream
from twirltomo.seqpt import (SeqptConfig, _bits, _discover, average_fidelity,
                             compare_variants,
                             estimate_chi_selective, frames_independent_probability,
                             run_blind_discovery, success_probability)
from twirltomo.stabilizer import Tableaux, build_mub_family, sample_clifford_uniform

def test_config_sampling_bounds():
    with pytest.raises(ConfigError):
        SeqptConfig(shots=10, epsilon=0.01)          # M < 1/eps^2
    with pytest.raises(ConfigError):
        SeqptConfig(shots=20000, epsilon=0.01, delta=1e-4)  # Chernoff
    with pytest.raises(ConfigError):
        SeqptConfig(shots=100, delta=0.1)            # delta without epsilon
    with pytest.raises(ConfigError):
        SeqptConfig(shots=0)
    with pytest.raises(ConfigError):
        SeqptConfig(shots=100, variant="haar")
    SeqptConfig(shots=10000, epsilon=0.01)
    SeqptConfig(shots=30000, epsilon=0.01, delta=0.01)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
def test_config_rejects_seed_outside_stream_range(seed):
    """Seeds are 64-bit; one outside [0, 2^64) would silently run the stream
    of seed mod 2^64."""
    with pytest.raises(ConfigError, match="seed"):
        SeqptConfig(shots=10, seed=seed)
    assert SeqptConfig(shots=10, seed=2 ** 64 - 1).seed == 2 ** 64 - 1


@pytest.mark.parametrize("kwargs", [{"pair_class_cap": 0}, {"pair_class_cap": -1},
                                    {"significance_z": -1.0},
                                    {"significance_z": float("nan")}])
def test_config_rejects_bad_cap_and_significance(kwargs):
    """A cap of 0 would give no estimates and -1 a numpy error; a negative
    or NaN margin would make every estimate decisive."""
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        SeqptConfig(shots=10, **kwargs)
    SeqptConfig(shots=10, pair_class_cap=1, significance_z=0.0)


_NOT_FINITE_NUMBERS = [True, False, "5", None, [0.5], float("nan"), float("inf"),
                       float("-inf")]


@pytest.mark.parametrize("value", _NOT_FINITE_NUMBERS)
def test_config_rejects_significance_z_that_is_not_a_finite_number(value):
    """A bool would go into the config's JSON as true, a string cannot be
    compared with 0, and an infinite margin would flag every estimate."""
    with pytest.raises(ConfigError, match="significance_z"):
        SeqptConfig(shots=10, significance_z=value)


@pytest.mark.parametrize("value", [v for v in _NOT_FINITE_NUMBERS if v is not None])
def test_config_rejects_epsilon_that_is_not_a_finite_number(value):
    with pytest.raises(ConfigError, match="epsilon"):
        SeqptConfig(shots=10 ** 6, epsilon=value)
    assert SeqptConfig(shots=10 ** 6, epsilon=np.float64(0.01)).epsilon == 0.01


@pytest.mark.parametrize("value", [v for v in _NOT_FINITE_NUMBERS if v is not None])
def test_config_rejects_delta_that_is_not_a_finite_number(value):
    with pytest.raises(ConfigError, match="delta"):
        SeqptConfig(shots=10 ** 6, epsilon=0.01, delta=value)
    assert SeqptConfig(shots=10 ** 6, epsilon=0.01, delta=np.float64(0.05)).delta == 0.05


@pytest.mark.parametrize("n", [1, 2, 3])
def test_selective_mub_matches_per_realization_draws(n):
    """The batched MUB draws give the survival count of the per-realization
    loop: basis j, state m, then one uniform from substream(seed, 1 + i)."""
    channel = random_cp_channel(n, np.random.default_rng(60 + n))  # survival varies with m
    backend = DenseBackend()
    label = "X" + "I" * (n - 1)
    cfg = SeqptConfig(shots=3000, seed=41)
    d = 1 << n
    tables = [backend.mub_transition_probs(channel, j, Pauli.from_string(label))
              for j in range(d + 1)]
    survived = 0
    for i in range(cfg.shots):
        g = substream(cfg.seed, 1 + i)
        j, m = int(g.integers(0, d + 1)), int(g.integers(0, d))
        survived += g.random() < tables[j][m, 0]
    est = estimate_chi_selective(channel, label, cfg, backend)
    assert est.survival_rate == survived / cfg.shots


@pytest.mark.parametrize("n", [1, 2, 3])
def test_selective_clifford_matches_per_realization_draws(monkeypatch, n):
    """The batched Clifford draws give the survival count of the
    per-realization loop: one uniform Clifford, then one uniform, from
    substream(seed, 1 + i), tested against its own law; also with the laws
    computed one element per pass."""
    channel = random_cp_channel(n, np.random.default_rng(70 + n))
    backend = DenseBackend()
    label = Pauli.from_string("Y" + "I" * (n - 1))
    cfg = SeqptConfig(shots=600, variant="clifford", seed=43)
    survived = 0
    for i in range(cfg.shots):
        g = substream(cfg.seed, 1 + i)
        one = Tableaux.of([sample_clifford_uniform(n, g)])
        probs = dense._shift_outcomes(backend.clifford_outcome_probs(channel, one), one.z, label)
        survived += g.random() < probs[0, 0]
    est = estimate_chi_selective(channel, label, cfg, backend)
    assert est.survival_rate == survived / cfg.shots
    monkeypatch.setattr(dense, "_TABLE_BLOCK", 1)
    assert estimate_chi_selective(channel, label, cfg, backend) == est


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blind_clifford_records_match_per_realization_draws(monkeypatch, n):
    """keep_records holds, for realization i, the Clifford and outcome that
    sample_clifford_uniform and one uniform draw from substream(seed, 1 + i);
    laws computed one element per pass give the same records and results."""
    channel = random_cp_channel(n, np.random.default_rng(80 + n))
    backend = DenseBackend()
    cfg = SeqptConfig(shots=300, variant="clifford", seed=47)
    want = []
    for i in range(cfg.shots):
        g = substream(cfg.seed, 1 + i)
        c = sample_clifford_uniform(n, g)
        law = backend.clifford_outcome_probs(channel, Tableaux.of([c]))[0]
        v = draw_outcome_reference(np.cumsum(law), g.random())
        want.append(ExperimentRecord("clifford", (c,), _bits(v, n)))
    res = run_blind_discovery(channel, cfg, backend, keep_records=True)
    assert res.records == want
    monkeypatch.setattr(dense, "_TABLE_BLOCK", 1)
    one_by_one = run_blind_discovery(channel, cfg, backend, keep_records=True)
    assert one_by_one.records == want
    assert one_by_one.to_json() == res.to_json()


@pytest.mark.parametrize("variant", ["mub", "clifford"])
def test_sampled_runs_never_build_chi(variant):
    """Blind and selective runs on a Kraus map read their laws off
    transition tables of the Kraus operators: the 16^n chi is never built."""
    for run in (run_blind_discovery, lambda ch, cfg: estimate_chi_selective(ch, "XYZ", cfg)):
        channel = random_cp_channel(3, np.random.default_rng(5))
        run(channel, SeqptConfig(shots=200, variant=variant, seed=3))
        assert channel._chi is None, run


def _blind_mub_one_by_one(channel, cfg, backend):
    """Blind MUB run one realization at a time: basis j, state m and the
    outcome uniform from substream(seed, 1 + i), the reference outcome draw
    (conftest's draw_outcome_reference), and one group per realization."""
    n, d = channel.n, channel.dim
    fam = build_mub_family(n)
    bases, outcomes, records = [], [], []
    for i in range(cfg.shots):
        g = substream(cfg.seed, 1 + i)
        j, m = int(g.integers(0, d + 1)), int(g.integers(0, d))
        cdf = np.cumsum(backend.mub_transition_probs(channel, j)[m])
        v = draw_outcome_reference(cdf, g.random())
        bases.append(j)
        outcomes.append(v)
        records.append(ExperimentRecord("mub", (j, m), _bits(v, n)))
    return _discover(n, cfg, fam.z[bases], np.array(outcomes),
                     np.ones(cfg.shots, dtype=np.int64), records)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 2 ** 63 + 5])
@pytest.mark.parametrize("cap", [None, 10])
@pytest.mark.parametrize("block", [None, 40])
def test_blind_mub_blocks_match_per_realization_run(monkeypatch, n, seed, cap, block):
    """Drawing blind MUB realizations in blocks, with one class per seen
    (basis, outcome), gives the results and records of the per-realization
    run.  1,300 shots is no multiple of the block (512 realizations at
    n = 4, 1,024 at n = 3), and a 40-entry block spans dozens of blocks."""
    if block is not None:
        monkeypatch.setattr(seqpt, "_MUB_BLOCK", block)
    channel = random_cp_channel(n, np.random.default_rng(90 + n))
    backend = DenseBackend()
    cfg = SeqptConfig(shots=1300, seed=seed, pair_class_cap=cap)
    want = _blind_mub_one_by_one(channel, cfg, backend)
    res = run_blind_discovery(channel, cfg, backend, keep_records=True)
    assert res.to_json() == want.to_json()
    assert res.records == want.records
    assert run_blind_discovery(channel, cfg, backend).records == []


def _class_pair_rows(n_classes: int, picks):
    """Yield (i, partners) per class row i, partners ascending, in row-major
    order: every pair i < j, or only the pairs whose flat row-major index is
    in the sorted array ``picks``."""
    if picks is None:
        for i in range(n_classes - 1):
            yield i, np.arange(i + 1, n_classes)
        return
    idx = np.arange(n_classes)
    starts = idx * (2 * n_classes - idx - 1) // 2  # flat index of pair (i, i+1)
    row = np.searchsorted(starts, picks, side="right") - 1
    partner = picks - starts[row] + row + 1
    bounds = np.flatnonzero(np.diff(row)) + 1
    for seg in np.split(np.arange(len(picks)), bounds):
        if len(seg):
            yield int(row[seg[0]]), partner[seg]


def _pair_votes_by_row(n, class_rows, counts, picks):
    """Reference for ``seqpt._pair_votes``: one solve per class row against
    its partners, and the votes added up one usable pair at a time in
    row-major order."""
    votes: dict[int, int] = {}
    analyzed_cross = 0
    for i, partners in _class_pair_rows(len(class_rows), picks):
        stacked = np.concatenate(
            (np.broadcast_to(class_rows[i], (len(partners), n)), class_rows[partners]),
            axis=1)
        keys = gf2.solve_unique_batch(stacked, 2 * n)
        npairs = counts[i] * counts[partners]
        analyzed_cross += int(npairs.sum())
        usable = keys >= 0
        for key, count in zip(keys[usable].tolist(), npairs[usable].tolist()):
            votes[key] = votes.get(key, 0) + count
    return votes, analyzed_cross


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", ["mub", "clifford"])
def test_blocked_pair_pass_matches_per_row_reference(monkeypatch, n, variant):
    """The blocked pair pass gives the results of the per-row reference,
    byte for byte, exact and under a class-pair cap of 1, of half the pair
    budget (sampled pairs that cut class rows) and of the whole budget (an
    exact run), with blocks of 1 and 7 pairs that split rows and with the
    default block."""
    channel = random_cp_channel(n, np.random.default_rng(60 + n))
    backend = DenseBackend()
    budgets = []

    def reference(n, class_rows, counts, picks):
        budgets.append(len(class_rows) * (len(class_rows) - 1) // 2)
        return _pair_votes_by_row(n, class_rows, counts, picks)

    def run(cap, patch):
        cfg = SeqptConfig(shots=80, variant=variant, seed=7, pair_class_cap=cap)
        with monkeypatch.context() as m:
            m.setattr(seqpt, *patch)
            return run_blind_discovery(channel, cfg, backend)

    exact = run(None, ("_pair_votes", reference))
    assert exact.estimates and exact.usable_pair_fraction > 0
    budget = budgets[0]
    for cap in (None, 1, budget // 2, budget):
        want = run(cap, ("_pair_votes", reference))
        assert want.analyzed_exactly == (cap in (None, budget)), cap
        for block in (1, 7, seqpt._PAIR_BLOCK):
            got = run(cap, ("_PAIR_BLOCK", block))
            assert got.to_json() == want.to_json(), (cap, block)


@pytest.mark.parametrize("cap", [None, 1])
def test_single_class_has_no_pairs(cap):
    """Two realizations in one group form one class and no class pair: no
    pair is usable and nothing is estimated."""
    res = _discover(2, SeqptConfig(shots=2, seed=0, pair_class_cap=cap),
                    build_mub_family(2).z[[1]], np.array([3]), np.array([2]), [])
    assert res.usable_pair_fraction == 0.0 and res.total_pairs == 1
    assert res.estimates == {} and res.residual_mass == 1.0 and res.analyzed_exactly


def test_blind_mub_memory_does_not_grow_with_shots():
    """The blind MUB run keeps per-block arrays and per-class counts only:
    its Python peak stays under 0.5 MiB at M = 2e4 and at M = 1e5 (n = 3)."""
    channel = random_cp_channel(3, np.random.default_rng(3))
    backend = DenseBackend()
    run_blind_discovery(channel, SeqptConfig(shots=2, seed=1), backend)  # tables cached
    for shots in (20000, 100000):
        tracemalloc.start()
        try:
            run_blind_discovery(channel, SeqptConfig(shots=shots, seed=1), backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2 ** 20, (shots, peak)


@pytest.mark.parametrize("n, budget_mib", [(3, 0.65), (5, 1.1)])
def test_blind_clifford_memory_budget(n, budget_mib):
    """One blind Clifford run at M = 10^3 on CNOT(1,2) then 5% depolarizing
    on qubit 1 (the clifford-blind benchmark's channel) allocates at most
    0.65 MiB at n = 3 and 1.1 MiB at n = 5 at its peak, where the dense law
    peaked at 0.75 and 1.09 MiB: the Pauli-support law runs in blocks of
    ``dense._TABLE_BLOCK`` entries and the constraint classes come from
    (groups, 2n + 1) arrays.  At n = 5 the peak is the outcome draw's
    gathered cdf block."""
    channel = build_channel(parse_channel_document(
        {"name": "noisy-cnot", "n": n,
         "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
                   {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}]}))
    backend = DenseBackend()
    run_blind_discovery(channel, SeqptConfig(shots=2, variant="clifford", seed=1), backend)
    tracemalloc.start()
    try:
        run_blind_discovery(channel, SeqptConfig(shots=1000, variant="clifford", seed=3),
                            backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget_mib * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("variant", ["mub", "clifford"])
@pytest.mark.parametrize("mode", ["select", "blind"])
def test_non_trace_preserving_map_rejected(variant, mode):
    """A map that is not trace preserving has outcome laws that do not sum
    to one; both modes and both variants refuse it instead of estimating."""
    leaky = ChannelModel.from_kraus([np.sqrt(0.5) * np.eye(2)])
    cfg = SeqptConfig(shots=100, variant=variant, seed=1)
    with pytest.raises(ConfigError, match="trace-preserving"):
        if mode == "select":
            estimate_chi_selective(leaky, "I", cfg)
        else:
            run_blind_discovery(leaky, cfg)


def test_selective_identity():
    ident = ChannelModel.identity(1)
    est = estimate_chi_selective(ident, "I", SeqptConfig(shots=500, seed=1))
    assert est.chi_hat == 1.0 and est.survival_rate == 1.0
    est_x = estimate_chi_selective(ident, "X", SeqptConfig(shots=10000, seed=2))
    assert abs(est_x.survival_rate - 1 / 3) <= 3 * np.sqrt(2 / 9 / 10000)
    assert abs(est_x.chi_hat) <= 3 * est_x.stderr + 1e-12


def test_selective_depolarizing():
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    est = estimate_chi_selective(dep, "I", SeqptConfig(shots=10000, seed=3))
    assert abs(est.chi_hat - 0.775) <= 3 * est.stderr
    assert est.stderr <= (2 + 1) / (2 * np.sqrt(10000))


def test_selective_clifford_variant():
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    est = estimate_chi_selective(dep, "I",
                                 SeqptConfig(shots=3000, seed=4, variant="clifford"))
    assert abs(est.chi_hat - 0.775) <= 3.5 * est.stderr


def test_average_fidelity():
    assert average_fidelity(ChannelModel.identity(1), SeqptConfig(shots=200, seed=5))[0] == 1.0
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    f, fs = average_fidelity(dep, SeqptConfig(shots=10000, seed=6))
    assert abs(f - 0.85) <= 3 * fs
    f_cn, fs_cn = average_fidelity(cnot_channel(), SeqptConfig(shots=10000, seed=7))
    assert abs(f_cn - 0.4) <= 3 * fs_cn  # chi_00 = 1/4 -> F = (4/4+1)/5


def test_blind_identity():
    res = run_blind_discovery(ChannelModel.identity(2), SeqptConfig(shots=100, seed=8))
    assert set(res.estimates) == {"II"}
    est = res.estimates["II"]
    assert est.compatible_count == 100 and abs(est.chi_hat - 1.0) < 1e-12
    assert not est.borderline
    assert abs(res.residual_mass) < 1e-12


def test_blind_mixed_z1():
    res = run_blind_discovery(mixed_z1_channel(0.3), SeqptConfig(shots=10000, seed=9))
    for label, want in (("II", 0.7), ("ZI", 0.3)):
        est = res.estimates[label]
        assert abs(est.chi_hat - want) <= 3 * est.stderr, (label, est)
        assert not est.borderline


def test_blind_cnot_labels():
    res = run_blind_discovery(cnot_channel(), SeqptConfig(shots=10000, seed=10))
    decisive = {k for k, v in res.estimates.items() if not v.borderline}
    assert decisive == {"II", "ZI", "IX", "ZX"}
    for k in decisive:
        est = res.estimates[k]
        assert abs(est.chi_hat - 0.25) <= 3 * est.stderr
    assert abs(res.usable_pair_fraction - 0.8) < 0.02


def test_blind_deterministic_replay():
    cfg = SeqptConfig(shots=2000, seed=11)
    a = run_blind_discovery(cnot_channel(), cfg).to_json()
    b = run_blind_discovery(cnot_channel(), cfg).to_json()
    assert a == b


def test_blind_clifford_variant():
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    res = run_blind_discovery(dep, SeqptConfig(shots=4000, seed=12, variant="clifford"))
    est = res.estimates["I"]
    assert abs(est.chi_hat - 0.775) <= 3 * est.stderr
    want = frames_independent_probability(1)
    assert abs(res.usable_pair_fraction - want) < 0.03


def test_blind_needs_two_shots():
    with pytest.raises(ConfigError):
        run_blind_discovery(ChannelModel.identity(1), SeqptConfig(shots=1, seed=0))


def test_blind_pair_class_cap_flagged():
    # n=1 has at most 6 constraint classes -> 15 class pairs; cap below that
    cfg = SeqptConfig(shots=400, seed=13, variant="clifford", pair_class_cap=5)
    res = run_blind_discovery(ChannelModel.from_kraus(depolarizing_kraus(0.3)), cfg)
    assert not res.analyzed_exactly


@pytest.mark.parametrize("n", [0, 512, 1030])
def test_pair_success_rejects_n_outside_float_range(n):
    """D^2 = 4^n overflows a float past n = 511 (NaN at 512, OverflowError
    at 1024 and up); those n raise ConfigError instead."""
    for prob in (lambda n: success_probability("mub", n),
                 lambda n: success_probability("clifford", n),
                 frames_independent_probability):
        with pytest.raises(ConfigError, match="1..511"):
            prob(n)
        assert 0 < prob(511) <= 1  # finite; D / (D + 1) rounds to 1


def test_success_probability_closed_forms():
    assert abs(success_probability("mub", 2) - 4 / 5) < 1e-15
    assert abs(success_probability("clifford", 1) - 1 / 3) < 1e-15
    assert abs(success_probability("clifford", 2) - 22 / 45) < 1e-15
    assert abs(frames_independent_probability(1) - 2 / 3) < 1e-15
    assert abs(frames_independent_probability(2) - 8 / 15) < 1e-15
    assert abs(frames_independent_probability(3) - 64 / 135) < 1e-15
    with pytest.raises(ConfigError):
        success_probability("haar", 1)


def test_mub_pair_fraction_exact_counting():
    # over the uniform (D+1)^2 grid of ordered basis pairs, the off-diagonal
    # fraction is exactly D/(D+1)
    for n in (1, 2, 3, 6):
        d = 1 << n
        assert abs((d + 1) * d / (d + 1) ** 2 - success_probability("mub", n)) < 1e-12


def test_estimator_consistency_over_seeds():
    """Reported labels stay within 3 stderr of the oracle in >=99% of runs."""
    cases = [
        (mixed_z1_channel(0.3), {"II": 0.7, "ZI": 0.3}),
        (ChannelModel.from_kraus(depolarizing_kraus(0.3)),
         {"I": 0.775, "X": 0.075, "Y": 0.075, "Z": 0.075}),
    ]
    for channel, oracle in cases:
        hits = {k: 0 for k in oracle}
        present = {k: 0 for k in oracle}
        for seed in range(100):
            res = run_blind_discovery(channel,
                                      SeqptConfig(shots=2000, seed=1000 + seed))
            for k, want in oracle.items():
                est = res.estimates.get(k)
                if est is None:
                    continue
                present[k] += 1
                hits[k] += abs(est.chi_hat - want) <= 3 * est.stderr
        for k in oracle:
            assert present[k] == 100, (k, present[k])
            assert hits[k] >= 99, (k, hits[k])


def test_threshold_semantics_over_seeds():
    """chi >= 2/M + 3/sqrt(M) is reported in >= 95% of seeded runs."""
    shots = 2500
    floor = 2 / shots + 3 / np.sqrt(shots)  # ~0.0608
    p = 0.08
    z1 = gate_unitary("Z", (0,), 2)
    ch = ChannelModel.from_kraus([np.sqrt(1 - p) * np.eye(4), np.sqrt(p) * z1])
    assert p >= floor
    reported = 0
    for seed in range(100):
        res = run_blind_discovery(ch, SeqptConfig(shots=shots, seed=2000 + seed))
        reported += "ZI" in res.estimates
    assert reported >= 95, reported


def test_compare_variants_n1():
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    cmp = compare_variants(dep, SeqptConfig(shots=1500, seed=14))
    assert abs(cmp.mub.usable_pair_fraction - 2 / 3) < 0.05
    assert abs(cmp.clifford.usable_pair_fraction - 2 / 3) < 0.05
    assert cmp.clifford.closed_form == success_probability("clifford", 1)
    assert cmp.clifford.exact_rate == frames_independent_probability(1)


def test_compare_variants_n2():
    cmp = compare_variants(mixed_z1_channel(0.3), SeqptConfig(shots=1200, seed=15))
    assert abs(cmp.mub.usable_pair_fraction - 0.8) < 0.05
    assert abs(cmp.clifford.usable_pair_fraction - 8 / 15) < 0.05
    d = cmp.to_json_dict()
    assert set(d) == {"n", "shots", "mub", "clifford"}


def test_selective_label_forms():
    ident = ChannelModel.identity(2)
    cfg = SeqptConfig(shots=100, seed=16)
    a = estimate_chi_selective(ident, "ZI", cfg)
    b = estimate_chi_selective(ident, 12, cfg)
    from twirltomo.pauli import Pauli
    c = estimate_chi_selective(ident, Pauli.from_string("ZI"), cfg)
    d = estimate_chi_selective(ident, np.int64(12), cfg)
    assert a == b == c == d


@pytest.mark.parametrize("label", [3.7, 3.0, np.float64(3.0), True, np.True_, None,
                                   b"ZI", [3]])
def test_selective_label_rejects_non_integers(label):
    """Only a Pauli, a Pauli string or an integer names a label: a float or
    a bool is refused, naming it, instead of running as int(label)."""
    with pytest.raises(ConfigError, match=re.escape(repr(label))):
        estimate_chi_selective(ChannelModel.identity(2), label, SeqptConfig(shots=10, seed=16))


@pytest.mark.parametrize("variant", ["mub", "clifford"])
@pytest.mark.parametrize("label", ["Z", "ZIX", "-iXYZ"])
def test_selective_label_length_checked(variant, label):
    from twirltomo.pauli import Pauli
    cfg = SeqptConfig(shots=10, variant=variant, seed=17)
    for form in (label, Pauli.from_string(label)):
        with pytest.raises(DimensionMismatchError, match="qubits, the channel on 2"):
            estimate_chi_selective(cnot_channel(), form, cfg)


# ---------------------------------------------------------------------------
# the shared outcome draw

_PROB = st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(1e-300, 1e3))
_PROBS = st.lists(_PROB, min_size=1, max_size=16)
_U = st.one_of(st.sampled_from([0.0, 1.0 - 2.0 ** -53, 1.0]), st.floats(0.0, 1.0))


def _draw_one(probs, u) -> int:
    """The stack form of _draw_outcome on one row and one draw."""
    return int(_draw_outcome(np.cumsum(probs)[None], np.array([u]))[0])


def _assert_valid_draw(probs, u):
    v = _draw_one(probs, u)
    assert 0 <= v < len(probs) and probs[v] > 0, (probs, u, v)
    assert v == draw_outcome_reference(np.cumsum(probs), u)


@settings(max_examples=300, deadline=None)
@given(_PROBS.filter(lambda p: sum(p) > 0), _U)
def test_draw_outcome_in_range_and_possible(probs, u):
    """Unnormalized and subnormal rows, zero entries anywhere, u = 0,
    u = 1 - 2^-53 and u = 1: the outcome is in range, never one of
    probability zero, and the reference draw's."""
    _assert_valid_draw(np.array(probs), u)


@settings(max_examples=200, deadline=None)
@given(_PROBS.filter(lambda p: sum(p) > 0), st.integers(1, 8), _U)
def test_draw_outcome_trailing_zeros(probs, zeros, u):
    _assert_valid_draw(np.array(probs + [0.0] * zeros), u)


@settings(max_examples=200, deadline=None)
@given(_PROBS.filter(lambda p: sum(p) > 0), st.integers(0, 4),
       st.lists(_U, min_size=1, max_size=20))
def test_draw_outcome_array_equals_scalar(probs, zeros, us):
    """Draws against a stack of one repeated cdf give, elementwise, the
    reference outcome of each draw."""
    cdf = np.cumsum(probs + [0.0] * zeros)
    got = _draw_outcome(np.tile(cdf, (len(us), 1)), np.array(us))
    assert got.tolist() == [draw_outcome_reference(cdf, u) for u in us]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(
    st.tuples(st.lists(_PROB, min_size=d, max_size=d), _U), min_size=1, max_size=6)))
def test_draw_outcome_stack_equals_scalar(rows):
    """A (count, D) stack of cdfs with one draw per row gives, row by row,
    the reference outcome of that row's draw, and raises ValueError exactly
    when some row has no positive mass."""
    cdfs = np.cumsum([probs for probs, _ in rows], axis=1)
    us = np.array([u for _, u in rows])
    if not (cdfs[:, -1] > 0).all():
        with pytest.raises(ValueError):
            _draw_outcome(cdfs, us)
        return
    got = _draw_outcome(cdfs, us)
    assert got.tolist() == [draw_outcome_reference(cdf, u) for cdf, u in zip(cdfs, us.tolist())]


def test_draw_outcome_edges():
    # a draw that reaches cdf[-1] lands on the last possible outcome
    assert _draw_one([0.25, 0.75, 0.0, 0.0], 1.0 - 2.0 ** -53) == 1
    assert _draw_one([0.25, 0.75, 0.0, 0.0], 1.0) == 1
    assert _draw_one([5e-324, 0.0], 0.75) == 0
    assert _draw_one([0.0, 0.5, 0.5], 0.0) == 1
    # unnormalized rows are sampled in proportion
    assert _draw_one([0.5, 1.5], 0.3) == 1
    with pytest.raises(ValueError):
        _draw_one(np.zeros(4), 0.5)
    with pytest.raises(ValueError):
        _draw_outcome(np.zeros((3, 4)), np.array([0.0, 0.5, 1.0]))
    edges = np.array([0.0, 1.0 - 2.0 ** -53, 1.0])
    assert _draw_outcome(np.tile(np.cumsum([0.25, 0.75, 0.0, 0.0]), (3, 1)),
                         edges).tolist() == [0, 1, 1]
    assert _draw_outcome(np.tile(np.cumsum([5e-324, 0.0]), (3, 1)), edges).tolist() == [0, 0, 0]
    stack = np.cumsum([[0.25, 0.75, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [5e-324, 0, 0, 0]], axis=1)
    assert _draw_outcome(stack, np.array([1.0, 0.0, 0.75])).tolist() == [1, 1, 0]
    with pytest.raises(ValueError):
        _draw_outcome(np.vstack([stack, np.zeros(4)]), np.full(4, 0.5))
