import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cnot_channel, draw_outcome_reference, mixed_z1_channel,
                      random_cp_channel, result_json, solve_unique_batch, spy_discover)
from twirltomo.channel_spec import build_channel, parse_channel_document
from twirltomo.channels import ChannelModel, depolarizing_kraus, gate_unitary
from twirltomo.dense import DenseBackend
from twirltomo.errors import CapacityError, ConfigError, DimensionMismatchError
from twirltomo.pauli import Pauli, commutes
from twirltomo import dense, seqpt
from twirltomo.rng import _cdf_table, _draw_outcome, draw_batch, substream
from twirltomo.seqpt import (SeqptConfig, _constraint_classes, _discover,
                             average_fidelity,
                             compare_variants,
                             estimate_chi_selective, frames_independent_probability,
                             run_blind_discovery, success_probability)
from twirltomo.stabilizer import (Tableaux, _key_to_pauli, build_mub_family, clifford_bounds,
                                  grow_cliffords, sample_clifford_uniform)

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


_NOT_FINITE_NUMBERS = [True, False, "5", [0.5], float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", _NOT_FINITE_NUMBERS)
def test_config_rejects_epsilon_that_is_not_a_finite_number(value):
    with pytest.raises(ConfigError, match="epsilon"):
        SeqptConfig(shots=10 ** 6, epsilon=value)
    assert SeqptConfig(shots=10 ** 6, epsilon=np.float64(0.01)).epsilon == 0.01


@pytest.mark.parametrize("value", _NOT_FINITE_NUMBERS)
def test_config_rejects_delta_that_is_not_a_finite_number(value):
    with pytest.raises(ConfigError, match="delta"):
        SeqptConfig(shots=10 ** 6, epsilon=0.01, delta=value)
    assert SeqptConfig(shots=10 ** 6, epsilon=0.01, delta=np.float64(0.05)).delta == 0.05


def _survives(p: Pauli, z_images, law, u) -> bool:
    """Whether a realization with intermediary ``p`` survives: the outcome v
    that ``u`` draws from the element's own ``law`` (conftest's
    draw_outcome_reference) is p's syndrome against the element's Z-images,
    bit n - 1 - k set where p anticommutes with Z-image k."""
    n = p.n
    shift = sum((not commutes(p, q)) << (n - 1 - k) for k, q in enumerate(z_images))
    return draw_outcome_reference(np.cumsum(law), u) == shift


@pytest.mark.parametrize("n", [1, 2, 3])
def test_selective_mub_matches_per_realization_draws(n):
    """The batched MUB draws give the survival count of the per-realization
    loop: basis j, state m, then one uniform from substream(seed, 1 + i),
    whose outcome is drawn and tested against the label's shift."""
    channel = random_cp_channel(n, np.random.default_rng(60 + n))  # survival varies with m
    backend = DenseBackend()
    label = "X" + "I" * (n - 1)
    p = Pauli.from_string(label)
    cfg = SeqptConfig(shots=3000, seed=41)
    d = 1 << n
    tables = [backend.mub_transition_probs(channel, j) for j in range(d + 1)]
    frames = [[_key_to_pauli(int(k), n) for k in z] for z in build_mub_family(n).z]
    survived = 0
    for i in range(cfg.shots):
        g = substream(cfg.seed, 1 + i)
        j, m = int(g.integers(0, d + 1)), int(g.integers(0, d))
        survived += _survives(p, frames[j], tables[j][m], g.random())
    est = estimate_chi_selective(channel, label, cfg, backend)
    assert est.survival_rate == survived / cfg.shots


@pytest.mark.parametrize("n", [1, 2, 3])
def test_selective_clifford_matches_per_realization_draws(monkeypatch, n):
    """The batched Clifford draws give the survival count of the
    per-realization loop: one uniform Clifford, then one uniform, from
    substream(seed, 1 + i), whose outcome is drawn from the Clifford's own
    law and tested against the label's shift; also with the laws computed
    one element per pass."""
    channel = random_cp_channel(n, np.random.default_rng(70 + n))
    backend = DenseBackend()
    label = Pauli.from_string("Y" + "I" * (n - 1))
    cfg = SeqptConfig(shots=600, variant="clifford", seed=43)
    survived = 0
    for i in range(cfg.shots):
        g = substream(cfg.seed, 1 + i)
        c = sample_clifford_uniform(n, g)
        law = backend.clifford_outcome_probs(channel, Tableaux.of([c]))[0]
        survived += _survives(label, c.z_images, law, g.random())
    est = estimate_chi_selective(channel, label, cfg, backend)
    assert est.survival_rate == survived / cfg.shots
    monkeypatch.setattr(dense, "_TABLE_BLOCK", 1)
    assert estimate_chi_selective(channel, label, cfg, backend) == est


@pytest.mark.parametrize("n", [1, 2, 3])
def test_blind_clifford_records_match_per_realization_draws(monkeypatch, n):
    """Blind Clifford hands ``_discover`` one group of size 1 per
    realization: for realization i, the Z-images of the Clifford and the
    outcome that sample_clifford_uniform and one uniform draw from
    substream(seed, 1 + i); laws computed one element per pass give the
    same groups and results."""
    channel = random_cp_channel(n, np.random.default_rng(80 + n))
    backend = DenseBackend()
    cfg = SeqptConfig(shots=300, variant="clifford", seed=47)
    frames, outcomes = [], []
    for i in range(cfg.shots):
        g = substream(cfg.seed, 1 + i)
        c = sample_clifford_uniform(n, g)
        law = backend.clifford_outcome_probs(channel, Tableaux.of([c]))[0]
        frames.append([p.key for p in c.z_images])
        outcomes.append(draw_outcome_reference(np.cumsum(law), g.random()))
    seen = spy_discover(monkeypatch)
    res = run_blind_discovery(channel, cfg, backend)
    monkeypatch.setattr(dense, "_TABLE_BLOCK", 1)
    one_by_one = run_blind_discovery(channel, cfg, backend)
    assert len(seen) == 2
    for got_frames, got_outcomes, sizes in seen:
        assert got_frames.tolist() == frames
        assert got_outcomes.tolist() == outcomes
        assert sizes.tolist() == [1] * cfg.shots
    assert result_json(one_by_one) == result_json(res)


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
    outcome uniform u from substream(seed, 1 + i), the reference outcome
    draw v (conftest's draw_outcome_reference), and one group per
    realization.  Returns every realization's (j, m, u, v) and the result."""
    n, d = channel.n, channel.dim
    draws = []
    for i in range(cfg.shots):
        g = substream(cfg.seed, 1 + i)
        j, m = int(g.integers(0, d + 1)), int(g.integers(0, d))
        cdf = np.cumsum(backend.mub_transition_probs(channel, j)[m])
        u = g.random()
        draws.append((j, m, u, draw_outcome_reference(cdf, u)))
    bases, _, _, outcomes = zip(*draws)
    return draws, _discover(n, cfg, build_mub_family(n).z[list(bases)], np.array(outcomes),
                            np.ones(cfg.shots, dtype=np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 2 ** 63 + 5])
@pytest.mark.parametrize("pair_block", [None, 10])
@pytest.mark.parametrize("block", [None, 40])
def test_blind_mub_blocks_match_per_realization_run(monkeypatch, n, seed, pair_block, block):
    """Drawing blind MUB realizations in blocks gives every realization the
    (j, m, u, v) of the per-realization run, hands ``_discover`` one group
    per seen code j*D + v in ascending code order with its count, and gives the
    results of the per-realization run, also with the pair pass in blocks
    of 10 pairs that cut class rows.  1,300 shots is no multiple of the
    block (512 realizations at n = 4, 1,024 at n = 3), and a 40-entry block
    spans dozens of blocks."""
    channel = random_cp_channel(n, np.random.default_rng(90 + n))
    backend = DenseBackend()
    cfg = SeqptConfig(shots=1300, seed=seed)
    draws, want = _blind_mub_one_by_one(channel, cfg, backend)
    if block is not None:
        monkeypatch.setattr(seqpt, "_MUB_BLOCK", block)
    if pair_block is not None:
        monkeypatch.setattr(seqpt, "_PAIR_BLOCK", pair_block)
    drawn, draw = [], seqpt._draw_outcome

    def spy_draw(cdfs, rows, u):
        v = draw(cdfs, rows, u)
        drawn.extend(zip(rows.tolist(), u.tolist(), v.tolist()))
        return v

    monkeypatch.setattr(seqpt, "_draw_outcome", spy_draw)
    seen = spy_discover(monkeypatch)
    res = run_blind_discovery(channel, cfg, backend)
    d = channel.dim
    assert drawn == [(j * d + m, u, v) for j, m, u, v in draws]
    codes: dict[int, int] = {}
    for j, _, _, v in draws:
        codes[j * d + v] = codes.get(j * d + v, 0) + 1
    codes = dict(sorted(codes.items()))
    (frames, outcomes, sizes), = seen
    assert frames.tolist() == build_mub_family(n).z[[c // d for c in codes]].tolist()
    assert outcomes.tolist() == [c % d for c in codes]
    assert sizes.tolist() == list(codes.values())
    assert result_json(res) == result_json(want)


def _benchmark_channel(n):
    """The benchmark channel: CNOT(1,2), then 5% depolarizing on qubit 1."""
    return build_channel(parse_channel_document(
        {"name": "noisy-cnot", "n": n,
         "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
                   {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}]}))


@pytest.mark.parametrize("variant, shots", [("mub", 2000), ("clifford", 300)])
def test_discover_does_not_depend_on_group_order(monkeypatch, variant, shots):
    """``_discover`` gives the groups of a blind run of the benchmark channel
    (n = 3) the byte-identical result in the order the run hands them in and
    in permuted orders: classes, votes and estimates are keyed by value, and
    ``residual_mass`` is an exactly rounded sum."""
    channel = _benchmark_channel(3)
    seen = spy_discover(monkeypatch)
    for seed in range(1, 5):
        cfg = SeqptConfig(shots=shots, variant=variant, seed=seed)
        want = result_json(run_blind_discovery(channel, cfg))
        frames, outcomes, sizes = seen.pop()
        for perm in (np.arange(len(sizes)), np.random.default_rng(seed).permutation(len(sizes)),
                     np.arange(len(sizes))[::-1]):
            assert result_json(_discover(3, cfg, frames[perm], outcomes[perm],
                                         sizes[perm])) == want, seed


def _pair_votes_by_row(n, class_rows, counts):
    """Reference for ``seqpt._pair_votes``: one solve per class row against
    its partners, and the votes added up one usable pair at a time in
    row-major order."""
    votes: dict[int, int] = {}
    for i in range(len(class_rows) - 1):
        partners = np.arange(i + 1, len(class_rows))
        stacked = np.concatenate(
            (np.broadcast_to(class_rows[i], (len(partners), n)), class_rows[partners]),
            axis=1)
        keys = solve_unique_batch(stacked, 2 * n)
        npairs = counts[i] * counts[partners]
        usable = keys >= 0
        for key, count in zip(keys[usable].tolist(), npairs[usable].tolist()):
            votes[key] = votes.get(key, 0) + count
    return votes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", ["mub", "clifford"])
def test_blocked_pair_pass_matches_per_row_reference(monkeypatch, n, variant):
    """The blocked pair pass gives the results of the per-row reference,
    byte for byte, with blocks of 1 and 7 pairs that split rows and with
    the default block."""
    channel = random_cp_channel(n, np.random.default_rng(60 + n))
    backend = DenseBackend()
    cfg = SeqptConfig(shots=80, variant=variant, seed=7)

    def run(patch):
        with monkeypatch.context() as m:
            m.setattr(seqpt, *patch)
            return run_blind_discovery(channel, cfg, backend)

    want = run(("_pair_votes", _pair_votes_by_row))
    assert want.estimates and want.usable_pair_fraction > 0
    for block in (1, 7, seqpt._PAIR_BLOCK):
        assert result_json(run(("_PAIR_BLOCK", block))) == result_json(want), block


def _pair_votes_2n(n, class_rows, counts):
    """Reference for ``seqpt._pair_votes``: the pass that concatenates both
    classes' rows and solves each class pair as one 2n x 2n system, in the
    same blocks of ``_PAIR_BLOCK`` pairs; keys in ascending order."""
    n_classes = len(class_rows)
    idx = np.arange(n_classes)
    starts = idx * (2 * n_classes - idx - 1) // 2  # flat index of pair (i, i+1)
    stop = n_classes * (n_classes - 1) // 2
    weight = np.zeros(1 << 2 * n, dtype=np.int64)
    for lo in range(0, stop, seqpt._PAIR_BLOCK):
        flat = np.arange(lo, min(lo + seqpt._PAIR_BLOCK, stop))
        i = np.searchsorted(starts, flat, side="right") - 1
        j = flat - starts[i] + i + 1
        keys = solve_unique_batch(
            np.concatenate((class_rows[i], class_rows[j]), axis=1), 2 * n)
        npairs = counts[i] * counts[j]
        usable = keys >= 0
        np.add.at(weight, keys[usable], npairs[usable])
    voted = np.flatnonzero(weight)
    return dict(zip(voted.tolist(), weight[voted].tolist()))


def _blind_class_set(n, variant, rng):
    """Distinct constraint classes, in first-seen order, of 240 groups
    drawn as a blind run of the variant makes them (MUB bases, or uniform
    Clifford frames of which 60 repeat), with random outcomes and counts."""
    d = 1 << n
    if variant == "mub":
        frames = build_mub_family(n).z[rng.integers(0, d + 1, size=240)]
    else:
        rows, _ = draw_batch(int(rng.integers(1 << 20)), 1, 180, clifford_bounds(n), 0)
        frames = grow_cliffords(n, rows).z[np.arange(240) % 180]
    rows = _constraint_classes(n, frames, rng.integers(0, d, size=len(frames)))
    _, first = np.unique(rows, axis=0, return_index=True)
    class_rows = rows[np.sort(first)]
    return class_rows, rng.integers(1, 5, size=len(class_rows))


@pytest.mark.parametrize("block", [61, 1024, seqpt._PAIR_BLOCK])
@pytest.mark.parametrize("variant", ["mub", "clifford"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_frame_pair_pass_equals_the_2n_pass(monkeypatch, n, variant, block):
    """Solving each class pair as an n x n system in the first class's
    solution frame gives the votes of the 2n x 2n pass: the same keys,
    counts and ascending key order, over every pair, for the one pair of
    two classes, and for a single class, in blocks that cut class rows;
    the classes in a permuted order give the same votes."""
    monkeypatch.setattr(seqpt, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(100 + 10 * n + (variant == "mub"))
    class_rows, counts = _blind_class_set(n, variant, rng)
    perm = rng.permutation(len(class_rows))
    results = []
    for rows, cnt in ((class_rows, counts), (class_rows[perm], counts[perm]),
                      (class_rows[:2], counts[:2]), (class_rows[:1], counts[:1])):
        want = _pair_votes_2n(n, rows, cnt)
        assert list(seqpt._pair_votes(n, rows, cnt).items()) == list(want.items())
        results.append(want)
    assert len(results[0]) > 1 and results[-1] == {}
    assert list(results[1]) == sorted(results[1]) and results[1] == results[0]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_pair_pass_on_benchmark_class_sets(monkeypatch, seed):
    """On the class sets of blind Clifford runs shaped as the clifford-blind
    benchmark (n = 3, M = 10^3), the pair pass gives the votes of the 2n x 2n
    pass, key for key and in the same order, in the default blocks."""
    seen, pair_votes = [], seqpt._pair_votes

    def spy(n, class_rows, counts):
        votes = pair_votes(n, class_rows, counts)
        seen.append((class_rows, counts, votes))
        return votes

    monkeypatch.setattr(seqpt, "_pair_votes", spy)
    channel = _benchmark_channel(3)
    run_blind_discovery(channel, SeqptConfig(shots=1000, variant="clifford", seed=seed))
    (class_rows, counts, votes), = seen
    assert len(class_rows) > 300
    assert list(votes.items()) == list(_pair_votes_2n(3, class_rows, counts).items())


def test_pair_pass_on_a_benchmark_class_set_at_n4(monkeypatch):
    """On the class set of a blind Clifford run of the benchmark channel at
    n = 4 (about 930 classes, bands of two triangle rows), the pair pass
    gives the votes of the 2n x 2n pass, key for key and in order."""
    seen = []

    def spy(n, class_rows, counts):
        seen.append((class_rows, counts))
        return {}

    monkeypatch.setattr(seqpt, "_pair_votes", spy)
    channel = _benchmark_channel(4)
    run_blind_discovery(channel, SeqptConfig(shots=1000, variant="clifford", seed=1))
    monkeypatch.undo()
    (class_rows, counts), = seen
    assert len(class_rows) > 900
    votes = seqpt._pair_votes(4, class_rows, counts)
    assert list(votes.items()) == list(_pair_votes_2n(4, class_rows, counts).items())


@pytest.mark.parametrize("variant", ["mub", "clifford"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_row_bands_give_the_default_votes(monkeypatch, n, variant):
    """Bands of one triangle row (``_PAIR_BLOCK`` = 1, below one row's Gram
    entries) give the votes of the default bands, which hold several rows
    (all of them at n = 1) and may leave a short last band."""
    class_rows, counts = _blind_class_set(n, variant, np.random.default_rng(200 + n))
    want = seqpt._pair_votes(n, class_rows, counts)
    monkeypatch.setattr(seqpt, "_PAIR_BLOCK", 1)
    assert list(seqpt._pair_votes(n, class_rows, counts).items()) == list(want.items())
    assert len(want) > 1


def _benchmark_class_set(n, seed):
    """The class rows and counts that a blind Clifford run of the
    clifford-blind benchmark's channel (CNOT(1,2), then 5% depolarizing on
    qubit 1) at M = 10^3 hands the pair pass."""
    seen = []

    def spy(n, class_rows, counts):
        seen.append((class_rows, counts))
        return {}

    channel = _benchmark_channel(n)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(seqpt, "_pair_votes", spy)
        run_blind_discovery(channel, SeqptConfig(shots=1000, variant="clifford", seed=seed))
    (class_rows, counts), = seen
    return class_rows, counts


@pytest.mark.parametrize("block", [1, 7, 61, seqpt._PAIR_BLOCK])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pair_bands_tile_the_triangle_within_the_cap(monkeypatch, n, block):
    """The bands the pair pass runs tile the triangle rows 0..C-2 once, in
    order, each against the window of classes i0 + 1..C - 1; a band of h
    rows over a window of w classes keeps its Gram entries and row arrays,
    (n + 1) n h (w + 4n + 2), within the cap of max(``_PAIR_BLOCK``, one
    row of the widest window), and the votes are those of the 2n x 2n pass."""
    class_rows, counts = _blind_class_set(n, "clifford", np.random.default_rng(400 + n))
    want = list(_pair_votes_2n(n, class_rows, counts).items())
    monkeypatch.setattr(seqpt, "_PAIR_BLOCK", block)
    seen, pair_bands = [], seqpt._pair_bands

    def spy(n, n_classes):
        cap, bands = pair_bands(n, n_classes)
        seen.append(bands)
        return cap, bands

    monkeypatch.setattr(seqpt, "_pair_bands", spy)
    assert list(seqpt._pair_votes(n, class_rows, counts).items()) == want
    (bands,), n_classes = seen, len(class_rows)
    assert [i0 for i0, _ in bands] == [0] + [i1 for _, i1 in bands[:-1]]
    assert bands[-1][1] == n_classes - 1
    per_row = (n + 1) * n
    cap = max(block, per_row * (n_classes + 4 * n + 1))
    for i0, i1 in bands:
        width = n_classes - 1 - i0
        assert 1 <= i1 - i0 <= width
        assert per_row * (i1 - i0) * (width + 4 * n + 2) <= cap, (i0, i1)
    if block == seqpt._PAIR_BLOCK and n >= 3:  # bands grow taller as the window narrows
        assert bands[-1][1] - bands[-1][0] > bands[0][1] - bands[0][0]


def test_pair_pass_on_a_benchmark_class_set_at_n5():
    """On the class set of a blind Clifford run of the benchmark channel at
    n = 5 (about 1,000 classes, where band heights vary most: one row at the
    widest window, 25 further on), the pair pass gives the votes
    of the 2n x 2n pass, key for key and in order."""
    class_rows, counts = _benchmark_class_set(5, 1)
    assert len(class_rows) > 990
    heights = {i1 - i0 for i0, i1 in seqpt._pair_bands(5, len(class_rows))[1]}
    assert min(heights) == 1 and max(heights) > 20
    votes = seqpt._pair_votes(5, class_rows, counts)
    assert list(votes.items()) == list(_pair_votes_2n(5, class_rows, counts).items())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_pass_on_small_random_class_sets(monkeypatch, n):
    """On random class sets of 2..40 classes (rows drawn with repeats from
    random frames and outcomes, so some pairs are of equal classes), bands
    of ``_PAIR_BLOCK`` = 1, 7 and 61 give the votes of the 2n x 2n pass,
    key for key and in order; their last bands are narrower than one
    packed byte."""
    rng = np.random.default_rng(500 + n)
    for n_classes in range(2, 41):
        rows, _ = draw_batch(int(rng.integers(1 << 20)), 1, n_classes, clifford_bounds(n), 0)
        class_rows = _constraint_classes(n, grow_cliffords(n, rows).z,
                                         rng.integers(0, 1 << n, size=n_classes))
        counts = rng.integers(1, 5, size=n_classes)
        want = list(_pair_votes_2n(n, class_rows, counts).items())
        for block in (1, 7, 61):
            monkeypatch.setattr(seqpt, "_PAIR_BLOCK", block)
            assert list(seqpt._pair_votes(n, class_rows, counts).items()) == want, \
                (n_classes, block)
        monkeypatch.undo()


def test_pair_votes_are_exact_python_ints():
    """Keys and votes are Python ints, and the votes are tallied exactly in
    int64: with counts near 2^26 each pair weighs about 2^52, so sums past
    2^53 would be rounded in float64.  The reference sums Python ints over
    the per-row solves."""
    n = 2
    rng = np.random.default_rng(5)
    class_rows, _ = _blind_class_set(n, "clifford", rng)
    class_rows = class_rows[:24]
    counts = (1 << 26) + rng.integers(0, 1 << 20, size=len(class_rows))
    want: dict[int, int] = {}
    for i in range(len(class_rows) - 1):
        partners = np.arange(i + 1, len(class_rows))
        keys = solve_unique_batch(np.concatenate(
            (np.broadcast_to(class_rows[i], (len(partners), n)), class_rows[partners]),
            axis=1), 2 * n)
        for key, j in zip(keys.tolist(), partners.tolist()):
            if key >= 0:
                want[key] = want.get(key, 0) + int(counts[i]) * int(counts[j])
    votes = seqpt._pair_votes(n, class_rows, counts)
    assert votes == want and max(votes.values()) > 1 << 53
    assert all(type(k) is int and type(v) is int for k, v in votes.items())


@pytest.mark.parametrize("block", [7, seqpt._KEY_BLOCK])
@pytest.mark.parametrize("variant", ["mub", "clifford"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_compatible_counts_equal_the_per_key_count(monkeypatch, n, variant, block):
    """The blocked count of the realizations compatible with each voted key
    equals the per-key pass that summed the counts of the classes whose
    rows all hold, over all keys and an empty key list, in blocks that cut
    the keys (7 entries: one key per block)."""
    monkeypatch.setattr(seqpt, "_KEY_BLOCK", block)
    rng = np.random.default_rng(300 + 10 * n + (variant == "mub"))
    class_rows, counts = _blind_class_set(n, variant, rng)
    keys = rng.permutation(1 << 2 * n)[:100].tolist()
    functionals, rhs = class_rows >> np.uint64(1), class_rows & np.uint64(1)
    want = []
    for key in keys:
        parity = np.bitwise_count(functionals & np.uint64(key)) & 1
        want.append(int(counts[(parity == rhs).all(axis=1)].sum()))
    assert seqpt._compatible_counts(class_rows, counts, keys) == want
    assert seqpt._compatible_counts(class_rows, counts, []) == []
    assert len(set(want)) > 1  # the keys do not all count alike


def test_single_class_has_no_pairs():
    """Two realizations in one group form one class and no class pair: no
    pair is usable and nothing is estimated."""
    res = _discover(2, SeqptConfig(shots=2, seed=0),
                    build_mub_family(2).z[[1]], np.array([3]), np.array([2]))
    assert res.usable_pair_fraction == 0.0 and res.total_pairs == 1
    assert res.estimates == {} and res.residual_mass == 1.0


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
    peaked at 0.75 and 1.09 MiB and the Pauli-support law at 0.62 and
    0.92 MiB.  The laws come from the channel's Pauli form, in blocks of
    about ``dense._FIDELITY_BLOCK`` entries that each find their own
    syndromes (0.58 and 0.89 MiB; syndromes of the whole stack peaked at
    0.65 and 1.16 MiB), and the constraint classes come from
    (groups, 2n + 1) arrays.  The swap-free pair kernel left the peaks at
    0.58 and 0.90 MiB; the Gram band pass, with one product per class row
    into one buffer, put them at 0.58 and 0.93 MiB (one product over all
    class rows put n = 3 at 0.70 MiB).  Bands against the window past their
    first row, sized with their row arrays, put them at 0.58 and 0.98 MiB."""
    channel = _benchmark_channel(n)
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


@pytest.mark.parametrize("epsilon", [1e-300, 5e-324, np.float64(1e-300)])
@pytest.mark.parametrize("delta", [None, 0.05, 5e-324])
def test_config_rejects_epsilon_whose_square_underflows(epsilon, delta):
    """1/epsilon^2 is past the float range where epsilon^2 underflows to 0:
    the bound is compared exactly and refuses every shot count a run takes,
    with ConfigError, not a ZeroDivisionError; just above the bound passes."""
    with pytest.raises(ConfigError, match=re.escape("1/epsilon^2 = ")):
        SeqptConfig(shots=10 ** 9, epsilon=epsilon, delta=delta)
    assert SeqptConfig(shots=10 ** 601, epsilon=1e-300).shots == 10 ** 601
    with pytest.raises(ConfigError, match=re.escape("ln(2/delta)/(2 epsilon^2) = ")):
        SeqptConfig(shots=10 ** 601, epsilon=1e-300, delta=1e-300)


def _spec_channel(n: int, noise: str):
    """H on qubit 1, CNOT(1, 2) from n = 2, then ``noise`` of strength 0.2
    on every qubit: a Pauli-form spec for depolarizing noise, a Kraus map
    for amplitude damping."""
    build = [{"named_gate": "H", "qubits": [1]}]
    if n > 1:
        build.append({"named_gate": "CNOT", "qubits": [1, 2]})
    build.append({"noise": noise, "strength": 0.2, "qubits": list(range(1, n + 1))})
    return build_channel(parse_channel_document({"name": noise, "n": n, "build": build}))


@pytest.mark.parametrize("variant", ["mub", "clifford"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("noise", ["depolarizing", "amplitude_damping"])
def test_selective_is_the_blind_run_read_at_one_label(variant, n, noise):
    """Selective estimation and blind discovery read one experiment: for
    every label a blind run reports, the selective run of the same config
    survives exactly compatible_count times, with the same chi_hat and
    stderr floats."""
    channel = _spec_channel(n, noise)
    assert (channel._pauli_form is None) == (noise == "amplitude_damping")
    cfg = SeqptConfig(shots=400, variant=variant, seed=5)
    backend = DenseBackend()
    blind = run_blind_discovery(channel, cfg, backend)
    assert blind.estimates
    for label, want in blind.estimates.items():
        got = estimate_chi_selective(channel, label, cfg, backend)
        # k / M differs for each integer k <= M, so this is a count equality
        assert got.survival_rate == want.compatible_count / cfg.shots, label
        assert (got.chi_hat, got.stderr) == (want.chi_hat, want.stderr), label


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
    a = result_json(run_blind_discovery(cnot_channel(), cfg))
    b = result_json(run_blind_discovery(cnot_channel(), cfg))
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


def _pair_z(report, shots):
    """(usable-pair fraction - exact rate) in binomial sigmas over C(M, 2) pairs."""
    rate, pairs = report.exact_rate, shots * (shots - 1) // 2
    return (report.usable_pair_fraction - rate) / math.sqrt(rate * (1 - rate) / pairs)


@pytest.mark.parametrize("seed", [27, 40])
def test_compare_variants_reports_chance_deviations(seed):
    """A usable-pair fraction more than 3 binomial sigma below its exact rate
    is a chance deviation, not a fault: at these seeds (n = 1, 10%
    depolarizing, M = 100) the Clifford and the MUB fraction lie that far
    out, and compare_variants still returns its report."""
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.1))
    cmp = compare_variants(dep, SeqptConfig(shots=100, seed=seed))
    z = [_pair_z(cmp.mub, 100), _pair_z(cmp.clifford, 100)]
    assert min(z) < -3, z


def test_compare_variants_fractions_are_calibrated():
    """The binomial sigma over the C(M, 2) pairs has the scale of the
    usable-pair fraction's spread: over seeds 0-399 at n = 1, 10%
    depolarizing, M = 100, each variant's z = (fraction - exact rate) / sigma
    has mean within +-0.25 and sample sd within [0.8, 1.2] (these seeds give
    0.00 and 0.97 for MUB, -0.05 and 1.10 for Clifford).  The fraction is a
    degenerate U-statistic, whose limit law is a weighted chi-square, so its
    tails are heavier than a normal law's: |z| > 3 on 5 and 11 of the 400."""
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.1))
    z = {"mub": [], "clifford": []}
    for seed in range(400):
        cmp = compare_variants(dep, SeqptConfig(shots=100, seed=seed))
        for variant, scores in z.items():
            scores.append(_pair_z(getattr(cmp, variant), 100))
    for variant, scores in z.items():
        assert abs(np.mean(scores)) <= 0.25, (variant, np.mean(scores))
        assert 0.8 <= np.std(scores, ddof=1) <= 1.2, (variant, np.std(scores, ddof=1))


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


@pytest.mark.parametrize("variant", ["mub", "clifford"])
def test_selective_label_checked_before_any_draw(monkeypatch, variant):
    """A label that names no Pauli on the channel's qubits is refused before
    ``TwirlSpec.sample`` draws a realization, and after the capacity and
    trace-preservation checks: a capped backend and a leaky map still
    report those first."""
    def refuse(*args, **kwargs):
        raise AssertionError("realizations drawn before the label was checked")

    class Capped(DenseBackend):
        @staticmethod
        def check_capacity(n):
            raise CapacityError("capped")

    monkeypatch.setattr(dense.TwirlSpec, "sample", refuse)
    cfg = SeqptConfig(shots=300000, variant=variant, seed=1)
    leaky = ChannelModel.from_kraus([np.sqrt(0.5) * np.eye(2)])
    with pytest.raises(DimensionMismatchError, match="acts on 3 qubits, the channel on 2"):
        estimate_chi_selective(cnot_channel(), "XXX", cfg)
    with pytest.raises(ConfigError, match="1.5"):
        estimate_chi_selective(cnot_channel(), 1.5, cfg)
    with pytest.raises(ConfigError, match="trace-preserving"):
        estimate_chi_selective(leaky, "XX", cfg)
    with pytest.raises(CapacityError, match="capped"):
        estimate_chi_selective(leaky, "XX", cfg, Capped())


# ---------------------------------------------------------------------------
# the shared outcome draw

_PROB = st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(1e-300, 1e3))
_PROBS = st.lists(_PROB, min_size=1, max_size=16)
_U = st.one_of(st.sampled_from([0.0, 1.0 - 2.0 ** -53, 1.0]), st.floats(0.0, 1.0))


def _draw_one(probs, u) -> int:
    """_draw_outcome on a one-row table and one draw."""
    return int(_draw_outcome(np.cumsum(probs)[None], np.array([0]), np.array([u]))[0])


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
    """Draws that all read one row give, elementwise, the reference outcome
    of each draw."""
    cdf = np.cumsum(probs + [0.0] * zeros)
    got = _draw_outcome(cdf[None], np.zeros(len(us), dtype=np.int64), np.array(us))
    assert got.tolist() == [draw_outcome_reference(cdf, u) for u in us]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(
    st.tuples(st.lists(_PROB, min_size=d, max_size=d), _U), min_size=1, max_size=6)))
def test_draw_outcome_stack_equals_scalar(rows):
    """An (R, D) table with one draw per row gives, row by row, the
    reference outcome of that row's draw, and raises ValueError exactly
    when some row has no positive mass."""
    cdfs = np.cumsum([probs for probs, _ in rows], axis=1)
    us = np.array([u for _, u in rows])
    every = np.arange(len(rows))
    if not (cdfs[:, -1] > 0).all():
        with pytest.raises(ValueError):
            _draw_outcome(cdfs, every, us)
        return
    got = _draw_outcome(cdfs, every, us)
    assert got.tolist() == [draw_outcome_reference(cdf, u) for cdf, u in zip(cdfs, us.tolist())]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(
    st.lists(_PROB, min_size=d, max_size=d), min_size=1, max_size=6)).flatmap(
        lambda table: st.tuples(st.just(table), st.lists(
            st.tuples(st.integers(0, len(table) - 1), _U), min_size=1, max_size=12))))
def test_draw_outcome_rows_equal_scalar(case):
    """Draws that name their rows, some rows read by several draws and some
    by none, give the reference outcome of each draw against its own row,
    and raise ValueError exactly when a row that is drawn has no positive
    mass: a row that no draw reads is never checked."""
    table, draws = case
    cdfs = np.cumsum(table, axis=1)
    rows = np.array([r for r, _ in draws])
    us = np.array([u for _, u in draws])
    if not (cdfs[rows, -1] > 0).all():
        with pytest.raises(ValueError):
            _draw_outcome(cdfs, rows, us)
        return
    got = _draw_outcome(cdfs, rows, us)
    assert got.tolist() == [draw_outcome_reference(cdfs[r], u)
                            for r, u in zip(rows.tolist(), us.tolist())]


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
        _draw_outcome(np.zeros((3, 4)), np.arange(3), np.array([0.0, 0.5, 1.0]))
    edges, three = np.array([0.0, 1.0 - 2.0 ** -53, 1.0]), np.zeros(3, dtype=np.int64)
    assert _draw_outcome(np.cumsum([0.25, 0.75, 0.0, 0.0])[None], three,
                         edges).tolist() == [0, 1, 1]
    assert _draw_outcome(np.cumsum([5e-324, 0.0])[None], three, edges).tolist() == [0, 0, 0]
    stack = np.cumsum([[0.25, 0.75, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [5e-324, 0, 0, 0]], axis=1)
    assert _draw_outcome(stack, np.arange(3), np.array([1.0, 0.0, 0.75])).tolist() == [1, 1, 0]
    with pytest.raises(ValueError):
        _draw_outcome(np.vstack([stack, np.zeros(4)]), np.arange(4), np.full(4, 0.5))
    # repeated rows, and a zero-mass row that no draw reads
    table = np.vstack([np.zeros(4), stack])
    assert _draw_outcome(table, np.array([3, 1, 3, 2, 1]),
                         np.array([0.5, 1.0, 1.0, 0.0, 0.2])).tolist() == [0, 1, 0, 1, 0]


def test_cdf_table_and_draw_outcomes_on_laws_off_one_by_ulps():
    """On 2,000 tables of 1..6 laws of 1..8 outcomes, each law's largest
    entry nudged by 1-4 ulps either way with ``np.nextafter`` (so its sum is
    1 +- a few ulps) and 0..3 trailing zero entries appended:
    ``rng._cdf_table`` is ``np.cumsum`` bit for bit, and
    ``dense.draw_outcomes`` gives each draw the reference outcome of its
    own law's cumsum, at u = 0, 1 - 2^-53 and 1 and at random u."""
    rng = np.random.default_rng(24)
    edges = np.array([0.0, 1.0 - 2.0 ** -53, 1.0])
    totals = []
    for _ in range(2000):
        count, width = rng.integers(1, 7), rng.integers(1, 9)
        laws = rng.random((count, width))
        laws /= laws.sum(axis=1, keepdims=True)
        for law in laws:
            top, toward = law.argmax(), rng.choice([0.0, 2.0])
            for _ in range(rng.integers(1, 5)):
                law[top] = np.nextafter(law[top], toward)
        laws = np.concatenate((laws, np.zeros((count, rng.integers(0, 4)))), axis=1)
        cdfs = np.cumsum(laws, axis=1)
        assert np.ascontiguousarray(_cdf_table(laws)).tobytes() == cdfs.tobytes()
        u = np.concatenate((edges, rng.random(3)))
        rows = rng.integers(0, count, size=len(u))
        assert dense.draw_outcomes(laws, rows, u).tolist() == [
            draw_outcome_reference(cdfs[r], x) for r, x in zip(rows.tolist(), u.tolist())]
        totals.extend(cdfs[:, -1].tolist())
    off = (np.array(totals) - 1.0) / 2.0 ** -52
    assert (off < 0).any() and (off > 0).any() and np.abs(off).max() <= 8
