import ast
import itertools
import math
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import (battery, cnot_channel, dense_local_probs, local_tables,
                      mixed_z1_channel, random_cp_channel, result_json,
                      sparse_support_channel_n3)
from twirltomo import localtwirl
from twirltomo.channel_spec import build_channel, parse_channel_document
from twirltomo.channels import ChannelModel, coarse_grain, depolarizing_kraus
from twirltomo.dense import DenseBackend, TwirlSpec, enumerate_twirl_exact
from twirltomo.errors import CapacityError, ConfigError
from twirltomo.localtwirl import (HammingStatistics, LocalTwirlConfig, _supports_upto,
                                  amplification_factors, c1t_fidelity,
                                  choose_cutoff, r_matrix,
                                  run_local_twirl, sample_c1t_realization,
                                  solve_chi_col, solve_chi_col_exact, solve_pw,
                                  solve_weight_probs_exact)
from twirltomo.rng import master


def exact_outcome_lookup(channel):
    dist = enumerate_twirl_exact(channel, TwirlSpec("local_clifford", channel.n))
    n = channel.n

    def prob(bits):
        v = 0
        for b in bits:
            v = (v << 1) | b
        return dist[v]

    return dist, prob


def test_non_trace_preserving_map_rejected():
    """The outcome laws of sqrt(0.5) I sum to 1/2; the one-qubit twirl
    refuses the map instead of renormalizing them."""
    leaky = ChannelModel.from_kraus([np.sqrt(0.5) * np.eye(2)])
    with pytest.raises(ConfigError, match="trace-preserving"):
        run_local_twirl(leaky, LocalTwirlConfig(shots=100, seed=1))


def test_r_matrix_entries_and_exact_column_sums():
    r = r_matrix(2)
    assert r[0, 0] == 1.0
    assert abs(r[1, 2] - 4 / 9) < 1e-15
    assert r[2, 1] == 0.0
    for w in range(11):
        assert sum(Fraction(2 ** h * comb(w, h), 3 ** w) for h in range(w + 1)) == 1


def test_amplification_factors_nondecreasing():
    a = amplification_factors(6)
    assert np.all(np.diff(a) >= 0)
    np.testing.assert_allclose(a, [(1.5) ** w for w in range(7)])


def test_statistics_from_outcomes():
    st = HammingStatistics.from_outcomes(2, [(0, 0), (0, 1), (1, 1), (0, 1)])
    np.testing.assert_array_equal(st.weight_counts, [1, 2, 1])
    assert st.total == 4 and st.outcome_counts == {(0, 0): 1, (0, 1): 2, (1, 1): 1}
    all_zero = HammingStatistics.from_outcomes(2, np.zeros((5, 2), dtype=int))
    np.testing.assert_array_equal(all_zero.weight_counts, [5, 0, 0])
    with pytest.raises(ValueError):
        HammingStatistics.from_outcomes(2, [(0, 2)])


def test_statistics_from_outcomes_memory_follows_outcomes():
    """Counting sorts the packed codes: three outcomes at n = 22 stay under
    1 MiB, where a table over all 2^22 codes takes 32 MiB."""
    n = 22
    outcomes = np.zeros((3, n), dtype=np.int64)
    outcomes[1, 0] = outcomes[2, [0, n - 1]] = 1
    tracemalloc.start()
    try:
        st = HammingStatistics.from_outcomes(n, outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert st.outcome_counts == {tuple(row): 1 for row in outcomes.tolist()}
    np.testing.assert_array_equal(st.weight_counts[:3], [1, 1, 1])


@pytest.mark.parametrize("counts", [
    {}, {(0, 0): 0}, {(0, 2): 3}, {(0, 0, 1): 3}, {(1,): 3}, {"01": 3}, {(0, 0.5): 3},
    {(0, 1): -1, (1, 1): 5}, {(0, 0): 2.5, (1, 1): 1}],
    ids=["empty", "zero-total", "digit-2", "length-n+1", "length-n-1", "string",
         "float-digit", "negative", "fractional"])
def test_statistics_reject_what_they_cannot_count(counts):
    """Counts with a total of zero, a key that is not a length-n tuple of 0s
    and 1s, or a negative or fractional count raise ValueError at
    construction, before a solver turns them into NaN estimates, a
    ZeroDivisionError or laws that do not sum to one; so does counting no
    outcomes at all."""
    with pytest.raises(ValueError):
        HammingStatistics(2, counts)
    with pytest.raises(ValueError):
        HammingStatistics.from_outcomes(2, [])
    with pytest.raises(ValueError):
        HammingStatistics.from_outcomes(2, np.zeros((0, 2), dtype=int))


def test_statistics_from_outcomes_width_limit():
    """A bit string is packed into one int64: n = 63 counts, n = 64 would
    overflow and raises instead."""
    top = (1,) + (0,) * 62
    st = HammingStatistics.from_outcomes(63, [top, top])
    assert st.outcome_counts == {top: 2}
    with pytest.raises(ValueError, match="64"):
        HammingStatistics.from_outcomes(64, [(0,) * 64])


def test_solve_weight_exact_identity():
    assert np.allclose(solve_weight_probs_exact(np.array([1.0, 0, 0]), 2), [1, 0, 0])


def test_solve_weight_exact_depolarizing():
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    dist, _ = exact_outcome_lookup(dep)
    p = solve_weight_probs_exact(np.array([dist[0], dist[1]]), 1)
    np.testing.assert_allclose(p, [0.775, 0.225], atol=1e-12)


def test_solve_weight_exact_cnot():
    dist, _ = exact_outcome_lookup(cnot_channel())
    by_weight = np.array([dist[0], dist[1] + dist[2], dist[3]])
    p = solve_weight_probs_exact(by_weight, 2)
    np.testing.assert_allclose(p, [0.25, 0.5, 0.25], atol=1e-12)


def test_exact_inversion_matches_coarse_grain_battery():
    """Enumerated twirl statistics invert to the chi coarse graining whenever
    the channel's support weight fits under the cutoff."""
    for name, ch in battery(max_n=3):
        cg = coarse_grain(ch.chi)
        cutoff = max((sum(s) for s, v in cg.by_support.items() if abs(v) > 1e-12),
                     default=0)
        if ch.n > 3:
            continue
        dist, prob = exact_outcome_lookup(ch)
        vals = solve_chi_col_exact(ch.n, prob, cutoff)
        for s, v in vals.items():
            assert abs(v - cg.by_support[s]) < 1e-10, (name, s)
        by_weight = np.zeros(ch.n + 1)
        for v_idx, pr in enumerate(dist):
            by_weight[bin(v_idx).count("1")] += pr
        pw = solve_weight_probs_exact(by_weight, cutoff)
        np.testing.assert_allclose(pw, cg.by_weight[:cutoff + 1], atol=1e-10,
                                   err_msg=name)


def test_cutoff_soundness():
    """Truncated and untruncated solves agree when the tail is empty; a
    nonzero tail shows up in the residual diagnostics instead."""
    ch = mixed_z1_channel(0.3)  # support weight <= 1
    dist, prob = exact_outcome_lookup(ch)
    full = solve_chi_col_exact(2, prob, 2)
    trunc = solve_chi_col_exact(2, prob, 1)
    for s, v in trunc.items():
        assert abs(v - full[s]) < 1e-10
    # CNOT has weight-2 mass; truncating at 1 leaves visible residual
    dist_c, _ = exact_outcome_lookup(cnot_channel())
    by_weight = np.zeros(3)
    for v_idx, pr in enumerate(dist_c):
        by_weight[bin(v_idx).count("1")] += pr
    trunc_p = solve_weight_probs_exact(by_weight, 1)
    resid = by_weight - r_matrix(2)[:, :2] @ trunc_p
    assert np.abs(resid).max() > 1e-3


def test_sparse_support_channel_locality():
    """Support-resolved coefficients live only on subsets of {1, 3}."""
    ch = sparse_support_channel_n3()
    dist, prob = exact_outcome_lookup(ch)
    vals = solve_chi_col_exact(3, prob, 2)
    cg = coarse_grain(ch.chi)
    for s, v in vals.items():
        assert abs(v - cg.by_support[s]) < 1e-10
        if abs(v) > 1e-10:
            assert s[1] == 0, s  # nothing on qubit 2


def test_solve_pw_sampled():
    ch = mixed_z1_channel(0.3)
    est = run_local_twirl(ch, LocalTwirlConfig(shots=10000, seed=1, cutoff=2))
    assert abs(est.weight.values[1] - 0.3) <= 3 * est.weight.stderr[1]
    assert abs(est.weight.values[0] - 0.7) <= 3 * est.weight.stderr[0]
    assert np.all(np.diff(est.weight.amplification) >= 0)
    sup = est.support.values[(1, 0)]
    assert abs(sup - 0.3) <= 3 * est.support.stderr[(1, 0)]


def test_solve_chi_col_sampled_depolarizing():
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    est = run_local_twirl(dep, LocalTwirlConfig(shots=20000, seed=2, cutoff=1))
    assert abs(est.support.values[(1,)] - 0.225) <= 3 * est.support.stderr[(1,)]


def test_sample_realization_records():
    ch = mixed_z1_channel(0.3)
    rng = master(4)
    recs = [sample_c1t_realization(ch, rng) for _ in range(50)]
    assert all(len(r.descriptor) == 2 for r in recs)
    assert all(all(0 <= p < 4 and 0 <= s < 3 for p, s in r.descriptor) for r in recs)
    st = HammingStatistics.from_outcomes(2, [r.outcome for r in recs])
    assert st.total == 50
    ident = ChannelModel.identity(2)
    recs_i = [sample_c1t_realization(ident, rng) for _ in range(20)]
    assert all(r.outcome == (0, 0) for r in recs_i)
    assert run_local_twirl(ident, LocalTwirlConfig(shots=500, seed=3)).weight.values[0] == 1.0


def test_choose_cutoff_rule():
    st = HammingStatistics(3, {(0, 0, 0): 9990, (1, 0, 0): 9, (1, 1, 0): 1})
    # mass above w=1 is 1 < 2 -> cutoff 1
    assert choose_cutoff(st) == 1
    st2 = HammingStatistics(3, {(0, 0, 0): 9000, (1, 1, 0): 1000})
    assert choose_cutoff(st2) == 2


def test_deterministic_replay():
    ch = mixed_z1_channel(0.3)
    cfg = LocalTwirlConfig(shots=1500, seed=5, cutoff=2)
    assert result_json(run_local_twirl(ch, cfg)) == result_json(run_local_twirl(ch, cfg))


def test_fidelity_examples():
    assert abs(c1t_fidelity(ChannelModel.identity(1)) - 1.0) < 1e-12
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    assert abs(c1t_fidelity(dep) - 0.85) < 1e-12
    vals = solve_chi_col_exact(1, lambda b: enumerate_twirl_exact(
        dep, TwirlSpec("local_clifford", 1))[b[0]], 1)
    want = sum(v / 3.0 ** sum(s) for s, v in vals.items())
    assert abs(c1t_fidelity(dep) - want) < 1e-12


def test_config_validation():
    with pytest.raises(ConfigError):
        LocalTwirlConfig(shots=0)
    with pytest.raises(ConfigError):
        LocalTwirlConfig(shots=10, cutoff=-1)
    for seed in (-1, 2 ** 64, 2 ** 70):  # would alias seed mod 2^64
        with pytest.raises(ConfigError, match="seed"):
            LocalTwirlConfig(shots=10, seed=seed)
    assert LocalTwirlConfig(shots=10, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    with pytest.raises(ConfigError):
        solve_pw(HammingStatistics(2, {(0, 0): 5}), 3)


def test_weight_estimates_consistent_over_seeds():
    """Each p_w estimate stays within 3 propagated stderr of the oracle in
    at least 99 of 100 seeded runs at M = 1e4."""
    ch = mixed_z1_channel(0.3)
    oracle = [0.7, 0.3, 0.0]
    good = [0, 0, 0]
    for seed in range(100):
        est = run_local_twirl(ch, LocalTwirlConfig(shots=10000, seed=5000 + seed,
                                                   cutoff=2))
        for w in range(3):
            tol = max(3 * est.weight.stderr[w], 1e-12)
            good[w] += abs(est.weight.values[w] - oracle[w]) <= tol
    assert all(g >= 99 for g in good), good


def _binomial_upper(trials: int, p: float, tail: float) -> int:
    """The least count c with P(X > c) <= ``tail`` for X ~ Binomial(trials, p)."""
    pmf = [(1 - p) ** trials]
    for c in range(trials):
        pmf.append(pmf[-1] * (trials - c) / (c + 1) * p / (1 - p))
    return next(c for c in range(trials + 1) if sum(pmf[c + 1:]) <= tail)


def test_error_bars_are_calibrated():
    """|z| of every weight and support estimate against the exact coarse
    graining, on the benchmark channel (CNOT(1,2), then 5% depolarizing on
    qubit 1) at n = 3, M = 2,000 over 400 fixed seeds: the count above 3 is
    at most the 10^-6 upper tail point of Binomial(N, P(|Z| > 3)) for a
    standard normal Z.  Estimates of one run share their counts, so the
    pooled count spreads a little wider than a binomial one; the tail point
    leaves room for that.  These seeds give 12 of N = 2,800 above 3 against
    a bound of 24; bars 10% too small would give 28 (20% too small, 47).
    At this size the lower tail point is 0, so bars that are too wide pass."""
    doc = {"name": "noisy-cnot-n3", "n": 3, "build": [
        {"named_gate": "CNOT", "qubits": [1, 2]},
        {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}]}
    channel = build_channel(parse_channel_document(doc))
    cg = coarse_grain(channel.chi)
    errors = []  # (estimate - exact, stderr)
    for seed in range(7000, 7400):
        est = run_local_twirl(channel, LocalTwirlConfig(shots=2000, seed=seed))
        errors += [(v - cg.by_weight[w], s)
                   for w, (v, s) in enumerate(zip(est.weight.values, est.weight.stderr))]
        errors += [(v - cg.by_support[key], est.support.stderr[key])
                   for key, v in est.support.values.items()]
    error, stderr = np.array(errors).T
    # supports on qubit 3, which the map leaves alone, are never seen: 0 +- 0
    exact = stderr == 0
    assert np.abs(error[exact]).max() <= 1e-12
    z = error[~exact] / stderr[~exact]
    bound = _binomial_upper(len(z), math.erfc(3 / math.sqrt(2)), 1e-6)
    assert np.count_nonzero(np.abs(z) > 3) <= bound, (len(z), bound)


def test_negative_estimates_retained():
    """Sampling noise can push solved values negative; they must survive."""
    # weight-2 counts with no weight-1 counts force negative weight-1 solves
    stats = HammingStatistics(2, {(0, 0): 90, (1, 1): 10})
    est = solve_chi_col(stats, 2)
    assert abs(est.values[(1, 1)] - 0.225) < 1e-12
    assert est.values[(1, 0)] < 0 and est.values[(0, 1)] < 0
    pw = solve_pw(stats, 2)
    assert pw.values[1] < 0


def test_local_twirl_memory_budget():
    """One run at n = 4, M = 10^4 on CNOT(1,2) then 5% depolarizing on qubit 1
    (the local-twirl benchmark's channel and shapes, built without its
    classification) allocates at most 3.0 MiB at its peak: the Kraus map is
    classified without its 1 MiB chi, and the Philox rounds, the stacked
    tables and the gathered cdf rows stay in bounded buffers."""
    channel = build_channel(parse_channel_document(
        {"name": "noisy-cnot", "n": 4,
         "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
                   {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}]}))
    tracemalloc.start()
    try:
        run_local_twirl(channel, LocalTwirlConfig(shots=10 ** 4, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 2 ** 20, peak / 2 ** 20


# ---------------------------------------------------------------------------
# the sampler in distribution, and the reduce step against its references


# (n, shots): at least about 5 draws per (law row, outcome) cell on average
_DISTRIBUTION_RUNS = [(1, 2000), (2, 5000), (3, 20000), (4, 100000)]


@pytest.mark.parametrize("n, shots", _DISTRIBUTION_RUNS)
def test_local_batch_outcomes_follow_exact_laws(n, shots):
    """The production batch sampler draws each element's outcome from its
    exact law, by a Pearson test pooled over law rows at a fixed seed.

    Realizations are binned by law row (rotation part, X part), both read
    off the drawn digits here (X and Y flip a qubit), and by outcome.  A
    row's exact law is the one of its element with Pauli part X^x, from the
    element's own unitary, and the rows of the rotation tables that
    ``TwirlSpec.laws`` reads must equal it to 1e-12.  Given the row counts N_r, each row is multinomial,
    so the Pearson statistic X^2 = sum (O - N_r p)^2 / (N_r p) over the
    cells with p > 0 has the exact mean sum_r (k_r - 1) and variance
    sum_r [2 (k_r - 1) + (sum_i 1/p_i - k_r^2 - 2 k_r + 2) / N_r].  The test
    fails when X^2 lies more than 5 standard deviations above its mean, or
    when a cell of probability zero is drawn."""
    channel = random_cp_channel(n, master(700 + n), n_kraus=2)
    backend = DenseBackend()
    digits, outcomes = TwirlSpec("local_clifford", n).sample(backend, channel, 19, shots)
    d = channel.dim
    places = np.arange(n - 1, -1, -1)
    codes = digits[:, :, 1] @ 3 ** places
    x = np.isin(digits[:, :, 0], (1, 2)) @ (1 << places)
    counts = np.bincount((codes * d + x) * d + outcomes,
                         minlength=3 ** n * d * d).reshape(3 ** n * d, d)
    rotations = np.arange(3 ** n)[:, None] // 3 ** places % 3
    # the element of each row with Pauli part X^x: pauli digit 1 where x has a 1
    laws = np.array([dense_local_probs(channel, tuple(zip((xx >> places) & 1, r)))
                     for r in rotations.tolist() for xx in range(d)])
    drawn = counts.sum(axis=1)
    assert (drawn > 0).all()  # every law row is seen at these shot counts
    zero = laws <= 0.0
    assert not counts[zero].any(), "an outcome of probability zero was drawn"
    expected = drawn[:, None] * laws
    pearson = np.where(zero, 0.0, (counts - expected) ** 2 / np.where(zero, 1.0, expected)).sum()
    k = (~zero).sum(axis=1)
    inv_p = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, laws)).sum(axis=1)
    mean = (k - 1).sum()
    var = (2 * (k - 1) + (inv_p - k ** 2 - 2 * k + 2) / drawn).sum()
    assert (pearson - mean) / np.sqrt(var) <= 5.0, (pearson, mean, var)
    tables = local_tables(channel, rotations).reshape(3 ** n * d, d)
    assert np.abs(tables - laws).max() <= 1e-12


def _support_matrix(supports: list[tuple[int, ...]]) -> np.ndarray:
    """T[i, j] = 2^|s_i| / 3^|s_j| where support s_j contains s_i, else 0:
    the map from chi_col on ``supports`` to their outcome probabilities,
    built from one array containment test.  The reference the closed-form
    inverse is checked against."""
    s = np.array(supports, dtype=np.int8)
    covers = s @ (1 - s).T == 0  # no qubit of s_i lies outside s_j
    w = s.sum(axis=1)  # 2^w and 3^w convert to float exactly up to w = 33
    return np.where(covers, (2 ** w)[:, None] / 3 ** w, 0.0)


def _support_matrix_by_loop(n: int, cutoff: int) -> np.ndarray:
    """The support system built cell by cell: the reference for
    ``_support_matrix``."""
    supports = _supports_upto(n, cutoff)
    index = {s: i for i, s in enumerate(supports)}
    t_mat = np.zeros((len(supports), len(supports)))
    for s, i in index.items():
        w = sum(s)
        for t, j in index.items():
            if all(tb >= sb for sb, tb in zip(s, t)):
                t_mat[i, j] = 2.0 ** w / 3.0 ** sum(t)
    return t_mat


@pytest.mark.parametrize("n", range(1, 7))
def test_support_matrix_equals_cell_by_cell_reference(n):
    for cutoff in range(n + 1):
        got = _support_matrix(_supports_upto(n, cutoff))
        want = _support_matrix_by_loop(n, cutoff)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), cutoff


def _reference_support_solve(stats: HammingStatistics, cutoff: int):
    """Supports, values and stderr of the truncated support system solved
    with the dense reference matrix and its numerical inverse."""
    supports = _supports_upto(stats.n, cutoff)
    t_mat = _support_matrix(supports)
    q = np.array([stats.support_prob(s) for s in supports])
    tinv = np.linalg.inv(t_mat)
    cov = tinv @ ((np.diag(q) - np.outer(q, q)) / stats.total) @ tinv.T
    return supports, np.linalg.solve(t_mat, q), np.sqrt(np.clip(np.diag(cov), 0.0, None))


def _reference_weight_solve(stats: HammingStatistics, cutoff: int):
    """Values and covariance of the truncated weight system solved with
    ``r_matrix`` and its numerical inverse."""
    r = r_matrix(stats.n)[: cutoff + 1, : cutoff + 1]
    q = stats.weight_probs()
    rinv = np.linalg.inv(r)
    cov_q = (np.diag(q) - np.outer(q, q)) / stats.total
    return np.linalg.solve(r, q[: cutoff + 1]), rinv @ cov_q[: cutoff + 1, : cutoff + 1] @ rinv.T


def _assert_support_estimate_equals_reference(stats: HammingStatistics, cutoff: int):
    est = solve_chi_col(stats, cutoff)
    supports, values, stderr = _reference_support_solve(stats, cutoff)
    assert list(est.values) == list(est.stderr) == supports
    assert np.abs(np.array(list(est.values.values())) - values).max() <= 1e-15
    assert np.abs(np.array(list(est.stderr.values())) - stderr).max() <= 1e-15
    return est, values, stderr


def _assert_weight_estimate_equals_reference(stats: HammingStatistics, cutoff: int):
    est = solve_pw(stats, cutoff)
    values, cov = _reference_weight_solve(stats, cutoff)
    assert np.abs(est.values - values).max() <= 1e-15
    assert np.abs(est.cov - cov).max() <= 1e-15


@pytest.mark.parametrize("n, cutoff, counts", [
    (1, 1, {(0,): 7, (1,): 3}),
    (2, 2, {(0, 0): 90, (1, 1): 10}),
    (3, 2, {(0, 0, 0): 800, (1, 0, 0): 90, (0, 1, 1): 60, (1, 1, 1): 50}),
    (4, 3, {(0, 0, 0, 0): 9000, (1, 0, 0, 0): 500, (1, 1, 0, 0): 300,
            (0, 1, 0, 1): 150, (1, 1, 1, 0): 49, (1, 1, 1, 1): 1}),
])
def test_support_estimate_json_equals_reference(n, cutoff, counts):
    """solve_chi_col's closed form gives the SupportEstimate JSON of the
    reference solve: values and stderr within 1e-15, the other fields
    equal."""
    stats = HammingStatistics(n, counts)
    est, values, stderr = _assert_support_estimate_equals_reference(stats, cutoff)
    q = np.array([stats.support_prob(s) for s in _supports_upto(n, cutoff)])
    got = est.to_json_dict()
    assert got.pop("values").keys() == got.pop("stderr").keys()
    assert got == {"amplification": [1.5 ** w for w in range(cutoff + 1)], "cutoff": cutoff,
                   "excess_mass": float(1.0 - q.sum()),
                   "inconsistent": bool((values < -4.0 * stderr - 1e-12).any())}


def _random_statistics(n: int, seed: int, shots: int = 10 ** 4):
    """Counts of ``shots`` outcomes from a random law over the 2^n outcomes
    (flat Dirichlet), and the law itself."""
    rng = np.random.default_rng(seed)
    law = rng.dirichlet(np.ones(2 ** n))
    rows = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    counts = rng.multinomial(shots, law)
    return HammingStatistics(n, {tuple(r): int(c) for r, c in zip(rows.tolist(), counts)
                                 if c}), dict(zip(map(tuple, rows.tolist()), law))


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_forms_equal_the_reference_solves(n):
    """Both closed-form inverses equal np.linalg on the reference matrices
    within 1e-15 at every cutoff: support values and stderr, weight values
    and covariance on sampled statistics, and both exact solvers on the
    law the samples were drawn from."""
    stats, law = _random_statistics(n, 1000 + n)
    by_weight = np.bincount([sum(s) for s in law], weights=list(law.values()), minlength=n + 1)
    for cutoff in range(n + 1):
        _assert_support_estimate_equals_reference(stats, cutoff)
        _assert_weight_estimate_equals_reference(stats, cutoff)
        supports = _supports_upto(n, cutoff)
        want = np.linalg.solve(_support_matrix(supports), [law[s] for s in supports])
        got = solve_chi_col_exact(n, law.__getitem__, cutoff)
        assert list(got) == supports
        assert np.abs(np.array(list(got.values())) - want).max() <= 1e-15, cutoff
        want = np.linalg.solve(r_matrix(n)[: cutoff + 1, : cutoff + 1], by_weight[: cutoff + 1])
        assert np.abs(solve_weight_probs_exact(by_weight, cutoff) - want).max() <= 1e-15, cutoff


def test_support_stderr_is_exactly_zero_where_the_variance_is():
    """Every outcome of weight 1 has the same coefficient a_st for the
    empty support, so its estimate has variance exactly 0: the closed form
    gives 0.0, where the numerical inverse leaves about 2e-10."""
    stats = HammingStatistics(3, {(0, 0, 1): 97, (1, 0, 0): 3})
    for cutoff in (1, 2, 3):
        assert solve_chi_col(stats, cutoff).stderr[(0, 0, 0)] == 0.0


def _exact_support_values(stats: HammingStatistics, cutoff: int) -> dict:
    """x_s = sum_t (3/2)^|s| (-1/2)^(|t|-|s|) q_t in rationals: t runs over
    the observed outcomes of weight <= cutoff and s over the subsets of t."""
    x = {}
    for t, count in stats.outcome_counts.items():
        ones = [j for j, b in enumerate(t) if b]
        if len(ones) > cutoff:
            continue
        for k in range(len(ones) + 1):
            for sub in itertools.combinations(ones, k):
                s = tuple(int(j in sub) for j in range(stats.n))
                x[s] = x.get(s, 0) + (Fraction(3, 2) ** k * Fraction(-1, 2) ** (len(ones) - k)
                                      * Fraction(count, stats.total))
    return x


@pytest.mark.parametrize("cutoff", [1, 2])
def test_estimates_at_n40_equal_the_reference_solves(cutoff):
    """At n = 40 the support pass runs over the 41 or 821 supports up to the
    cutoff, not 2^40 outcomes.  The stderr and the weight estimate equal the
    reference solves within 1e-15, and the support values lie within 1e-15
    of the exact rationals.  They are not held to the numerical solve: at
    cutoff 2 it lies 2.4e-15 from the rationals, the closed form 5.6e-17."""
    n = 40
    rng = np.random.default_rng(4000 + cutoff)
    stats = HammingStatistics.from_outcomes(n, rng.random((10 ** 4, n)) < 0.02)
    est = solve_chi_col(stats, cutoff)
    supports, _, stderr = _reference_support_solve(stats, cutoff)
    assert list(est.values) == supports
    exact = _exact_support_values(stats, cutoff)
    assert max(abs(v - float(exact.get(s, 0))) for s, v in est.values.items()) <= 1e-15
    assert np.abs(np.array(list(est.stderr.values())) - stderr).max() <= 1e-15
    _assert_weight_estimate_equals_reference(stats, cutoff)


def test_support_cap_refuses_before_enumerating(monkeypatch):
    """n = 40 at cutoff 20 has 6.2e11 supports: solve_chi_col raises
    CapacityError with the count before it enumerates any of them."""
    def enumerate_supports(*args):
        raise AssertionError("supports enumerated past the cap")

    monkeypatch.setattr(localtwirl, "enumerate_supports", enumerate_supports)
    cells = sum(comb(40, m) for m in range(21))
    with pytest.raises(CapacityError, match=f"has {cells} cells"):
        solve_chi_col(HammingStatistics(40, {(0,) * 40: 5}), 20)


_SOLVERS = {
    "solve_pw": lambda n, cutoff: solve_pw(HammingStatistics(n, {(0,) * n: 5}), cutoff),
    "solve_chi_col": lambda n, cutoff: solve_chi_col(HammingStatistics(n, {(0,) * n: 5}),
                                                     cutoff),
    "solve_weight_probs_exact": lambda n, cutoff: solve_weight_probs_exact(
        np.eye(n + 1)[0], cutoff),
    "solve_chi_col_exact": lambda n, cutoff: solve_chi_col_exact(
        n, lambda s: float(not any(s)), cutoff),
}


@pytest.mark.parametrize("solver", _SOLVERS)
@pytest.mark.parametrize("cutoff", [-1, 1.5, True, 3], ids=["-1", "1.5", "True", "n+1"])
def test_solvers_reject_a_cutoff_outside_0_to_n(solver, cutoff):
    """Each of the four solvers takes an integer cutoff in 0..n and raises
    ConfigError otherwise; a numpy integer is taken."""
    with pytest.raises(ConfigError, match="cutoff"):
        _SOLVERS[solver](2, cutoff)
    _SOLVERS[solver](2, np.int64(2))


def test_localtwirl_calls_no_linalg():
    """Both systems are inverted in closed form: the module reaches no
    np.linalg function."""
    tree = ast.parse(Path(localtwirl.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "linalg"
                or isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.dump(node)]


@pytest.mark.parametrize("n", [1, 3, 5])
def test_run_counts_equal_from_outcomes(n):
    """The run path counts its outcome codes with the routine from_outcomes
    uses after packing: equal counts, in the same order, and equal weight
    histograms."""
    channel = random_cp_channel(n, master(720 + n), n_kraus=2)
    config = LocalTwirlConfig(shots=3000, seed=8)
    _, outcomes = TwirlSpec("local_clifford", n).sample(DenseBackend(), channel, config.seed,
                                                        config.shots)
    want = HammingStatistics.from_outcomes(
        n, (outcomes[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    got = run_local_twirl(channel, config).statistics
    assert list(got.outcome_counts.items()) == list(want.outcome_counts.items())
    assert np.array_equal(got.weight_counts, want.weight_counts)
    assert got.total == want.total == config.shots
