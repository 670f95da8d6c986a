"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Statistical criteria use fixed seed sets, so outcomes are
deterministic.
"""
import json
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from conftest import (cnot_channel, mixed_z1_channel, battery, random_cp_channel,
                      solve_unique_batch)
from twirltomo.channels import (ChannelModel, chi_from_kraus, check_cp_bound,
                                check_positive_bound, coarse_grain,
                                diagonalize_chi, gate_unitary)
from twirltomo.cli import main as cli_main
from twirltomo.dense import (DenseBackend, TwirlSpec, enumerate_twirl_exact,
                             haar_twirl_moment)
from twirltomo.errors import ConfigError
from twirltomo.localtwirl import (LocalTwirlConfig, run_local_twirl,
                                  solve_chi_col_exact, solve_weight_probs_exact)
from twirltomo.pauli import Pauli
from twirltomo.rng import draw_batch, master
from twirltomo.seqpt import (SeqptConfig, estimate_chi_selective,
                             run_blind_discovery, success_probability)
from twirltomo.stabilizer import clifford_bounds, draw_clifford_row, grow_cliffords

BACKEND = DenseBackend()
CNOT_BLOCK_LABELS = [0, 12, 1, 13]  # II, ZI, IX, ZX
CNOT_BLOCK = 0.25 * np.array([[1, 1, 1, -1], [1, 1, 1, -1],
                              [1, 1, 1, -1], [-1, -1, -1, 1]])


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_c01_cnot_chi_block():
    """Exact chi of CNOT reproduces the known 4x4 block, all else < 1e-12,
    in under a second."""
    t0 = time.time()
    chi = chi_from_kraus([gate_unitary("CNOT", (0, 1), 2)])
    block = chi.mat[np.ix_(CNOT_BLOCK_LABELS, CNOT_BLOCK_LABELS)]
    elapsed = time.time() - t0
    ok_block = np.abs(block - CNOT_BLOCK).max() < 1e-12
    mask = np.ones((16, 16), dtype=bool)
    mask[np.ix_(CNOT_BLOCK_LABELS, CNOT_BLOCK_LABELS)] = False
    ok_rest = np.abs(chi.mat[mask]).max() < 1e-12
    _report("criterion-01 cnot-chi-block", ok_block and ok_rest and elapsed < 1.0,
            f"block err {np.abs(block - CNOT_BLOCK).max():.1e}, {elapsed:.3f}s")


def test_c02_survival_identity_random_channels():
    """Exact MUB-twirl survival with every intermediary label equals
    (D chi_ll + 1)/(D+1) within 1e-10 for 20 random CP channels, n = 1, 2."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (1, 2):
        d = 1 << n
        for _ in range(10):
            ch = random_cp_channel(n, rng)
            chi = ch.chi.mat
            for l in range(4 ** n):
                dist = enumerate_twirl_exact(ch, TwirlSpec("mub", n),
                                             intermediary=Pauli.from_label(n, l),
                                             backend=BACKEND)
                want = (d * chi[l, l].real + 1.0) / (d + 1.0)
                worst = max(worst, abs(dist[0] - want))
    elapsed = time.time() - t0
    _report("criterion-02 survival-identity", worst < 1e-10 and elapsed < 60.0,
            f"worst dev {worst:.1e}, {elapsed:.1f}s")


def test_c03_twirl_average_equivalence():
    """MUB-state average equals the Clifford-group average: exactly at n=1
    (24 elements enumerated), within 3 sigma under sampling at n=2."""
    rng = np.random.default_rng(303)
    ch1 = random_cp_channel(1, rng)
    s_mub = enumerate_twirl_exact(ch1, TwirlSpec("mub", 1), backend=BACKEND)[0]
    s_cl = enumerate_twirl_exact(ch1, TwirlSpec("clifford_full", 1), backend=BACKEND)[0]
    ok1 = abs(s_mub - s_cl) < 1e-10
    ch2 = random_cp_channel(2, rng)
    exact = enumerate_twirl_exact(ch2, TwirlSpec("mub", 2), backend=BACKEND)[0]
    g = master(303)
    # the elements sample_clifford_uniform draws one after another from g
    tableaux = grow_cliffords(2, [draw_clifford_row(2, g) for _ in range(10000)])
    vals = BACKEND.clifford_outcome_probs(ch2, tableaux)[:, 0]
    sem = vals.std(ddof=1) / np.sqrt(len(vals))
    sig = abs(vals.mean() - exact) / sem
    _report("criterion-03 twirl-equivalence", ok1 and sig <= 3.0,
            f"n=1 dev {abs(s_mub - s_cl):.1e}; n=2 {sig:.2f} sigma")


def test_c04_haar_moment_closed_form():
    """Monte Carlo fourth-moment averages over 1e5 Haar unitaries match the
    closed form within 3 standard errors, 10 quadruples at D = 2 and 4."""
    rng = master(405)
    worst = 0.0
    for dim in (2, 4):
        for _ in range(10):
            ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                   for _ in range(4)]
            res = haar_twirl_moment(*ops, samples=100000, rng=rng)
            worst = max(worst, res.deviation_sigmas)
    _report("criterion-04 haar-moment", worst <= 3.0, f"worst {worst:.2f} sigma")


def _mub_index_pairs(n: int, pairs: int):
    """The basis-index pairs the c05a test samples."""
    d = 1 << n
    g = master(505 + n)
    return g.integers(0, d + 1, size=pairs), g.integers(0, d + 1, size=pairs)


def _clifford_pair_fraction(n: int, pairs: int) -> float:
    """Pair i is elements 2i and 2i + 1, drawn from substreams 1 + 2i and
    2 + 2i of seed 505 + n as sample_clifford_uniform draws them, and grown
    in one pass."""
    rows, _ = draw_batch(505 + n, 1, 2 * pairs, clifford_bounds(n), 0)
    frames = grow_cliffords(n, rows).z
    # a pair is usable exactly when the stacked frames pin down a unique key
    stacked = frames.reshape(pairs, 2 * n) << np.uint64(1)
    return float((solve_unique_batch(stacked, 2 * n) >= 0).mean())


PAIR_SAMPLES = 100000


def test_c05a_mub_pair_success_empirical():
    """Usable-pair fraction of the MUB variant matches D/(D+1) within 3 sigma
    binomial over 1e5 sampled pairs at n = 1, 2, 3."""
    worst = 0.0
    for n in (1, 2, 3):
        want = success_probability("mub", n)
        j1, j2 = _mub_index_pairs(n, PAIR_SAMPLES)
        emp = float((j1 != j2).mean())
        sigma = np.sqrt(want * (1 - want) / PAIR_SAMPLES)
        worst = max(worst, abs(emp - want) / sigma)
    _report("criterion-05a mub-pair-success", worst <= 3.0, f"worst {worst:.2f} sigma")


@pytest.mark.xfail(
    strict=True,
    reason="the tabulated closed-form product for the Clifford variant does "
           "not describe uniform Clifford sampling: simulation converges to "
           "prod_j (D^2/2^j - D)/(D^2/2^j - 2^j) (2/3, 8/15, 64/135 at "
           "n = 1, 2, 3) instead of 1/3, 22/45, ...; see README, 'Known discrepancies'")
def test_c05b_clifford_pair_success_empirical():
    """Usable-pair fraction of the Clifford variant vs the tabulated closed
    form within 3 sigma binomial over 1e5 sampled pairs at n = 1, 2, 3."""
    worst = 0.0
    for n in (1, 2, 3):
        want = success_probability("clifford", n)
        emp = _clifford_pair_fraction(n, PAIR_SAMPLES)
        sigma = np.sqrt(want * (1 - want) / PAIR_SAMPLES)
        worst = max(worst, abs(emp - want) / sigma)
    _report("criterion-05b clifford-pair-success", worst <= 3.0,
            f"worst {worst:.2f} sigma")


def test_c05c_closed_form_table():
    """The closed forms themselves: 1/3 at n=1, 22/45 at n=2, and the
    Clifford value below the MUB value for every n <= 10."""
    ok = (abs(success_probability("clifford", 1) - 1 / 3) < 1e-12
          and abs(success_probability("clifford", 2) - 22 / 45) < 1e-12
          and all(success_probability("clifford", n) < success_probability("mub", n)
                  for n in range(1, 11)))
    _report("criterion-05c closed-form-table", ok)


def test_c06_blind_discovery_cnot():
    """Blind discovery on CNOT at M = 1e4: the four block labels come out
    decisively with |chi - 0.25| <= 3 stderr and no zero label is decisive,
    in at least 95 of 100 seeds, in under five minutes."""
    t0 = time.time()
    cn = cnot_channel()
    want = {"II", "ZI", "IX", "ZX"}
    good = 0
    for seed in range(100):
        res = run_blind_discovery(cn, SeqptConfig(shots=10000, seed=seed), BACKEND)
        decisive = {k for k, v in res.estimates.items() if not v.borderline}
        ok = decisive == want and all(
            abs(res.estimates[k].chi_hat - 0.25) <= 3 * res.estimates[k].stderr
            for k in want)
        good += ok
    elapsed = time.time() - t0
    _report("criterion-06 blind-cnot", good >= 95 and elapsed < 300.0,
            f"{good}/100 seeds, {elapsed:.0f}s")


def test_c07_local_twirl_exact_inversion():
    """For every battery channel (n <= 3) whose support weight fits the
    cutoff, enumerated twirl statistics invert to the chi coarse graining
    within 1e-10, for both the support system and the weight system; and the
    weight-matrix columns sum to one exactly (rational identity)."""
    worst = 0.0
    for name, ch in battery(max_n=3):
        cg = coarse_grain(ch.chi)
        cutoff = max((sum(s) for s, v in cg.by_support.items() if abs(v) > 1e-12),
                     default=0)
        dist = enumerate_twirl_exact(ch, TwirlSpec("local_clifford", ch.n),
                                     backend=BACKEND)
        n = ch.n

        def prob(bits, dist=dist):
            v = 0
            for b in bits:
                v = (v << 1) | b
            return dist[v]

        vals = solve_chi_col_exact(n, prob, cutoff)
        for s, v in vals.items():
            worst = max(worst, abs(v - cg.by_support[s]))
        by_weight = np.zeros(n + 1)
        for v_idx, pr in enumerate(dist):
            by_weight[bin(v_idx).count("1")] += pr
        pw = solve_weight_probs_exact(by_weight, cutoff)
        worst = max(worst, np.abs(pw - cg.by_weight[:cutoff + 1]).max())
    cols_exact = all(
        sum(Fraction(2 ** h * comb(w, h), 3 ** w) for h in range(w + 1)) == 1
        for w in range(11))
    _report("criterion-07 weight-inversion-exact", worst < 1e-10 and cols_exact,
            f"worst dev {worst:.1e}")


def test_c08_local_twirl_sampled():
    """Sampled one-qubit twirl on the 0.7/0.3 single-Z channel at M = 1e4:
    the (1,0)-support estimate is within 3 propagated stderr of 0.3 in at
    least 99 of 100 seeds, and amplification factors never decrease."""
    ch = mixed_z1_channel(0.3)
    good = 0
    amp_ok = True
    for seed in range(100):
        est = run_local_twirl(ch, LocalTwirlConfig(shots=10000, seed=seed, cutoff=2),
                              BACKEND)
        v = est.support.values[(1, 0)]
        s = est.support.stderr[(1, 0)]
        good += abs(v - 0.3) <= 3 * s
        amp_ok &= bool(np.all(np.diff(est.support.amplification) >= -1e-15))
        amp_ok &= bool(np.all(np.diff(est.weight.amplification) >= -1e-15))
    _report("criterion-08 local-twirl-sampled", good >= 99 and amp_ok,
            f"{good}/100 seeds")


def test_c09_bounds_suite():
    """200 random CP channels produce zero pair-bound violations at 1e-9;
    the transpose map violates the CP bound, sits exactly on the -1/D
    positive-map edge, and carries the -1/2 chi eigenvalue."""
    rng = np.random.default_rng(909)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        violations += len(check_cp_bound(random_cp_channel(n, rng).chi))
    from conftest import transpose_map_channel
    tr = transpose_map_channel()
    cp_viol = check_cp_bound(tr.chi)
    pos_pair, pos_diag = check_positive_bound(tr.chi)
    eigs = diagonalize_chi(tr.chi).eigenvalues
    cls = tr.classification
    ok = (violations == 0
          and len(cp_viol) > 0
          and pos_pair == [] and pos_diag == []
          and tr.chi.mat[2, 2].real == -0.5
          and abs(eigs.min() + 0.5) <= 1e-12
          and not cls.completely_positive)
    _report("criterion-09 bounds-suite", ok,
            f"{violations} CP violations on random channels; "
            f"transpose min eig {eigs.min():+.12f}")


def test_c10_sampling_bounds():
    """Config validation enforces the precision conditions, and the survival
    rate of the identity channel fluctuates by no more than 1/sqrt(M)."""
    rejected = 0
    for kwargs in ({"shots": 10, "epsilon": 0.01},
                   {"shots": 20000, "epsilon": 0.01, "delta": 1e-4}):
        try:
            SeqptConfig(**kwargs)
        except ConfigError:
            rejected += 1
    ident = ChannelModel.identity(1)
    m = 10000
    rates_plain = [estimate_chi_selective(ident, "I",
                                          SeqptConfig(shots=m, seed=3000 + s),
                                          BACKEND).survival_rate
                   for s in range(100)]
    rates_x = [estimate_chi_selective(ident, "X",
                                      SeqptConfig(shots=m, seed=4000 + s),
                                      BACKEND).survival_rate
               for s in range(100)]
    dev_plain = float(np.abs(np.array(rates_plain) - 1.0).max())
    std_x = float(np.std(rates_x, ddof=1))
    ok = rejected == 2 and dev_plain <= 1 / np.sqrt(m) and std_x <= 1 / np.sqrt(m)
    _report("criterion-10 sampling-bounds", ok,
            f"plain dev {dev_plain:.1e}, intermediary-rate std {std_x:.4f} "
            f"<= {1/np.sqrt(m):.4f}")


def test_c11_determinism(tmp_path):
    """Any manifest run twice yields byte-identical result payloads."""
    spec = tmp_path / "cnot.json"
    spec.write_text(json.dumps({"name": "cnot", "n": 2,
                                "build": [{"named_gate": "CNOT", "qubits": [1, 2]}]}))
    payloads = {}
    for verb_args in (["exact-chi", "--spec", str(spec)],
                      ["seqpt", "blind", "--spec", str(spec), "--shots", "2000",
                       "--seed", "7"],
                      ["local-twirl", "--spec", str(spec), "--shots", "2000",
                       "--seed", "7"]):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{verb_args[0]}-{tag}"
            assert cli_main(verb_args + ["--out", str(out)]) == 0
            runs.append((out / "results.json").read_bytes())
        payloads[verb_args[0]] = runs[0] == runs[1]
    _report("criterion-11 determinism", all(payloads.values()), str(payloads))
