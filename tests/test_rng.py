"""Philox substreams: one generator moved from counter to counter, and the
batched draws over the counter array, both give what a fresh generator per
substream draws."""
import tracemalloc

import numpy as np
import pytest

from conftest import battery, random_cp_channel, result_json
from twirltomo import dense, rng
from twirltomo.channel_spec import build_channel, parse_channel_document
from twirltomo.errors import ConfigError
from twirltomo.dense import DenseBackend, TwirlSpec
from twirltomo.localtwirl import (LocalTwirlConfig, _sample_local_batch,
                                  run_local_twirl, sample_c1t_realization)
from twirltomo.rng import draw_batch, substream, substream_words, substreams
from twirltomo.seqpt import SeqptConfig, estimate_chi_selective, run_blind_discovery
from twirltomo.stabilizer import sample_clifford_uniform


def _odd_bounded_then_uniform(g):
    """Three 32-bit bounded draws, then a 64-bit one: the spare 32-bit half
    of a word is left in the bit generator."""
    return [int(g.integers(0, 4)) for _ in range(3)] + [g.random()]


def _five_uniforms(g):
    """Five 64-bit draws: a Philox block holds four, so part of a second
    block is left buffered."""
    return [g.random() for _ in range(5)]


def _leaves_spare_half(state):
    return state["has_uint32"] == 1


def _leaves_block_part(state):
    return 0 < state["buffer_pos"] < 4


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 64 + 5])
@pytest.mark.parametrize("start", [0, 1, 2 ** 40])
@pytest.mark.parametrize("draw, leftover", [(_odd_bounded_then_uniform, _leaves_spare_half),
                                            (_five_uniforms, _leaves_block_part)])
def test_substreams_match_substream(seed, start, draw, leftover):
    count = 4
    got = []
    for g in substreams(seed, start, count):
        got.append(draw(g))
        assert leftover(g.bit_generator.state)  # the next move must clear it
    want = [draw(substream(seed, start + k)) for k in range(count)]
    assert got == want


def test_substreams_yield_one_generator():
    gens = list(substreams(9, 3, 3))
    assert len(gens) == 3 and gens[0] is gens[1] is gens[2]


def test_substreams_empty_and_bad_start():
    assert list(substreams(9, 5, 0)) == []
    with pytest.raises(ValueError):
        next(substreams(9, -1, 2))


# ---------------------------------------------------------------------------
# batched draws


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 63 + 5])
@pytest.mark.parametrize("start", [1, 2 ** 40])
@pytest.mark.parametrize("nwords", range(1, 10))
@pytest.mark.parametrize("count", [1, 6, 1000])
def test_substream_words_match_random_raw(seed, start, nwords, count):
    """nwords 2 to 7 covers every one-qubit-twirl layout up to n = 6 (n + 1
    words), including a uniform in the second Philox block; 1, 8 and 9 cover
    a lone word, two full blocks and a word in a third block.  Counts 1 and
    1000 run the in-place rounds on one counter and on many.  The words are
    word-major: column k is substream start + k."""
    want = [substream(seed, start + k).bit_generator.random_raw(nwords)
            for k in range(count)]
    got = substream_words(seed, start, count, nwords)
    assert len(got) == nwords and all(row.flags.c_contiguous for row in got)
    np.testing.assert_array_equal(np.transpose(got), want)


def _numpy_bounded(half: int, k: int) -> tuple[int, bool]:
    """numpy's integers(0, k) with ``half`` as the next 32-bit draw, and
    whether numpy rejected it (it then reads on from the block buffer)."""
    g = substream(0)
    state = g.bit_generator.state
    state.update(buffer=np.array([5, 6, 7, 8], dtype=np.uint64), buffer_pos=0,
                 has_uint32=1, uinteger=half)
    g.bit_generator.state = state
    value = int(g.integers(0, k))
    return value, g.bit_generator.state["buffer_pos"] != 0


def _run_lemire(halves, k):
    """rng._lemire on a fresh array of ``halves``: (values, rejected)."""
    values = np.array(halves, dtype=np.uint64)
    rejected = np.zeros(len(values), dtype=bool)
    rng._lemire(values, k, rejected)
    return values, rejected


@pytest.mark.parametrize("k", [3, 4, 5, 9, 17, 65, 2 ** 31 + 1, 2 ** 32 - 1])
def test_lemire_matches_numpy_on_crafted_halves(k):
    halves = [0, 1, 2, 3, 2 ** 31, 2 ** 32 - 1]
    if k % 2:  # halves h with (h k) mod 2^32 = r, around the rejection threshold
        threshold = ((1 << 32) - k) % k
        inverse = pow(k, -1, 1 << 32)
        halves += [r * inverse % (1 << 32) for r in range(min(threshold, 6) + 2)]
        halves += [(threshold - r) * inverse % (1 << 32) for r in range(3)]
    values, rejected = _run_lemire(halves, k)
    for h, v, r in zip(halves, values.tolist(), rejected.tolist()):
        want_v, want_r = _numpy_bounded(h, k)
        assert r == want_r, (h, k)
        if not r:
            assert v == want_v, (h, k)


@pytest.mark.parametrize("k", [3, 9])
def test_lemire_rejects_half_zero(k):
    assert _numpy_bounded(0, k)[1]
    assert _run_lemire([0], k)[1].all()


@pytest.mark.parametrize("bounds, nuniform", [
    *(((4, 3) * n, 1) for n in range(1, 7)),          # one-qubit twirl
    *(((2 ** n + 1, 2 ** n), 1) for n in range(1, 7)),  # selective MUB
    ((5,), 2), ((), 3), ((7, 7, 7), 0),
    # bounds that divide 2**32 (no rejection test) next to ones that do not
    ((2, 3, 4, 8), 1), ((2 ** 31, 2 ** 32 - 1, 3), 2), ((3, 2, 2 ** 32 - 1, 4, 8), 0),
    ((2 ** 32 - 1,) * 3, 1)])
def test_draw_batch_matches_generator(bounds, nuniform):
    count = 40
    ints, uniforms = draw_batch(11, 3, count, bounds, nuniform)
    assert ints.shape == (count, len(bounds)) and uniforms.shape == (count, nuniform)
    for k in range(count):
        g = substream(11, 3 + k)
        assert ints[k].tolist() == [int(g.integers(0, b)) for b in bounds]
        assert uniforms[k].tolist() == [g.random() for _ in range(nuniform)]


@pytest.mark.parametrize("index", [2 ** 63 - 1, 2 ** 63 + 1, 2 ** 63 + 12345, 2 ** 64 - 2,
                                   2 ** 64 - 1])
def test_substreams_past_2_63_match_draw_batch(index):
    """The counter word holds every index up to 2**64 - 1 exactly: a
    Generator at such an index draws the batch's row, and the words are
    that substream's own (numpy passes a list's large ints through float64,
    which ran index 2**64 - 1 as substream 0)."""
    bounds = (3, 4, 2 ** 32 - 1)
    ints, uniforms = draw_batch(5, index, 1, bounds, 2)
    for g in (substream(5, index), next(substreams(5, index, 1))):
        assert g.bit_generator.state["state"]["counter"][3] == index
        assert ints[0].tolist() == [int(g.integers(0, b)) for b in bounds]
        assert uniforms[0].tolist() == [g.random(), g.random()]
    want = substream(5, index).bit_generator.random_raw(3)
    np.testing.assert_array_equal(np.transpose(substream_words(5, index, 1, 3))[0], want)


@pytest.mark.parametrize("start, count", [(2 ** 64, 1), (2 ** 64 - 1, 2), (-1, 1), (-3, 2)])
def test_indices_outside_the_counter_raise(start, count):
    with pytest.raises(ValueError):
        draw_batch(5, start, count, (3,), 1)
    with pytest.raises(ValueError):
        substream_words(5, start, count, 1)
    with pytest.raises(ValueError):
        next(substreams(5, start, count))
    if count == 1:
        with pytest.raises(ValueError):
            substream(5, start)


def test_draw_batch_peak_memory():
    """The words come word-major from the Philox lanes with no stacked copy,
    and each 32-bit half is written straight into its output row: the peak
    is the words array with its round scratch, then the words with the
    output (1.37 MiB here; 1.56 MiB with a stacked row-major copy and
    2.09 MiB with a stacked copy of all halves)."""
    draw_batch(0, 1, 100, (4, 3) * 4, 1)  # warm up
    tracemalloc.start()
    try:
        draw_batch(0, 1, 10 ** 4, (4, 3) * 4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * 2 ** 20


def test_draw_outcomes_peak_memory():
    """10^4 draws against 1,296 x 16 laws (the one-qubit twirl's tables at
    n = 4) search the cumsummed table with one gather per pass, with no
    gathered (draws, D) stack of cdf rows: the peak stays near the table and
    a few arrays of one entry per draw (0.46 MiB here; 0.41 MiB for the
    column-at-a-time count it replaced), where gathering the rows in blocks
    of 2^16 entries peaked at 0.89 MiB."""
    g = np.random.default_rng(0)
    laws = g.random((1296, 16))
    laws /= laws.sum(axis=1, keepdims=True)
    rows, u = g.integers(0, len(laws), 10 ** 4), g.random(10 ** 4)
    dense.draw_outcomes(laws, rows[:10], u[:10])  # warm up
    tracemalloc.start()
    try:
        dense.draw_outcomes(laws, rows, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("name, channel", battery(3) + [
    ("random-cp-4", random_cp_channel(4, np.random.default_rng(41))),
    ("noisy-cnot-4", build_channel(parse_channel_document(
        {"name": "noisy-cnot", "n": 4,
         "build": [{"named_gate": "CNOT", "qubits": [1, 2]},
                   {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}]})))])
def test_local_batch_realization_equals_scalar(name, channel):
    """Realization i of a batch, as (digits, outcome), is the one
    sample_c1t_realization draws from substream(seed, 1 + i).  The last
    input is the local-twirl benchmark's spec, CNOT(1,2) then 5%
    depolarizing on qubit 1 at n = 4, whose laws come from its Pauli form
    (dense._fidelity_table)."""
    seed, count = 23, 300
    backend = DenseBackend()
    digits, outcomes = _sample_local_batch(channel, seed, count, backend)
    n = channel.n
    for i in range(count):
        rec = sample_c1t_realization(channel, substream(seed, 1 + i), backend)
        assert tuple(map(tuple, digits[i].tolist())) == rec.descriptor
        bits = tuple((int(outcomes[i]) >> (n - 1 - j)) & 1 for j in range(n))
        assert bits == rec.outcome


def test_local_batch_blocks_equal_one_pass():
    """Outcomes drawn block by block, three realizations per draw_outcomes
    call (as blind MUB draws its blocks), are the ones a single pass draws,
    and realization i is still what sample_c1t_realization draws from
    substream(seed, 1 + i)."""
    channel = random_cp_channel(3, np.random.default_rng(43), n_kraus=2)
    seed, count = 31, 2000
    backend = DenseBackend()
    digits, outcomes = _sample_local_batch(channel, seed, count, backend)
    twirl = TwirlSpec("local_clifford", channel.n)
    laws, rows = twirl.laws(backend, channel, digits)
    u = draw_batch(seed, 1, count, twirl.layout, 1)[1][:, 0]
    blocks = [dense.draw_outcomes(laws, rows[lo:lo + 3], u[lo:lo + 3])
              for lo in range(0, count, 3)]
    assert np.array_equal(np.concatenate(blocks), outcomes)
    n = channel.n
    for i in range(count):
        rec = sample_c1t_realization(channel, substream(seed, 1 + i), backend)
        assert tuple(map(tuple, digits[i].tolist())) == rec.descriptor
        bits = tuple((int(outcomes[i]) >> (n - 1 - j)) & 1 for j in range(n))
        assert bits == rec.outcome


def _reject_everything(monkeypatch):
    lemire = rng._lemire

    def rejecting(halves, k, rejected):
        lemire(halves, k, rejected)
        rejected[:] = True

    monkeypatch.setattr(rng, "_lemire", rejecting)


@pytest.mark.parametrize("n", [2, 5, 6])
def test_forced_redraws_leave_local_twirl_unchanged(monkeypatch, n):
    """Every realization redrawn alone from its own Generator gives
    byte-identical results: the redraw path is exact."""
    channel = random_cp_channel(n, np.random.default_rng(50 + n), n_kraus=2)
    backend = DenseBackend()
    config = LocalTwirlConfig(shots=400, seed=9)
    want = result_json(run_local_twirl(channel, config, backend))
    _reject_everything(monkeypatch)
    assert result_json(run_local_twirl(channel, config, backend)) == want


@pytest.mark.parametrize("n", [2, 5])
def test_forced_redraws_leave_selective_mub_unchanged(monkeypatch, n):
    channel = random_cp_channel(n, np.random.default_rng(50 + n), n_kraus=2)
    backend = DenseBackend()
    config = SeqptConfig(shots=400, seed=9)
    want = estimate_chi_selective(channel, "Z" * n, config, backend)
    _reject_everything(monkeypatch)
    assert estimate_chi_selective(channel, "Z" * n, config, backend) == want


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("n", range(1, 6))
def test_clifford_batch_element_equals_scalar(monkeypatch, n, seed, forced):
    """Element i of the Clifford batch, and its outcome uniform, are what
    sample_clifford_uniform and then random() draw from substream(seed,
    1 + i), also with every row redrawn alone from its own Generator."""
    if forced:
        _reject_everything(monkeypatch)
    count = 50
    twirl = TwirlSpec("clifford_full", n)
    rows, u = draw_batch(seed, 1, count, twirl.layout, 1)
    tableaux, u = twirl.elements(rows), u[:, 0]
    for i in range(count):
        g = substream(seed, 1 + i)
        assert tableaux.clifford(i) == sample_clifford_uniform(n, g)
        assert u[i] == g.random()


@pytest.mark.parametrize("config, field, value", [
    (SeqptConfig, "seed", True), (SeqptConfig, "seed", 1.5), (SeqptConfig, "seed", "1"),
    (SeqptConfig, "shots", 2.5), (SeqptConfig, "shots", True), (SeqptConfig, "shots", None),
    (SeqptConfig, "shots", np.float64(100.0)), (SeqptConfig, "seed", np.True_),
    (LocalTwirlConfig, "cutoff", True), (LocalTwirlConfig, "cutoff", 1.0),
    (LocalTwirlConfig, "seed", np.True_), (LocalTwirlConfig, "shots", np.float64(100.0))])
def test_integer_config_fields_fail_loudly(config, field, value):
    """A bool or a non-integer in an integer field raises ConfigError naming
    the field at construction, instead of running as another value (True
    as 1) or failing later inside the draws."""
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        config(**{"shots": 100, field: value})


def test_numpy_integer_config_fields_run_as_python_ints():
    """numpy integers are accepted and stored as Python ints, so runs and
    their JSON equal those of the plain-int configs."""
    channel = random_cp_channel(2, np.random.default_rng(44), n_kraus=2)
    seqpt = SeqptConfig(shots=np.int64(300), seed=np.uint64(5))
    local = LocalTwirlConfig(shots=np.int64(300), seed=np.int64(5), cutoff=np.int8(1))
    assert {type(seqpt.shots), type(seqpt.seed)} == {int}
    assert {type(local.shots), type(local.seed), type(local.cutoff)} == {int}
    want = run_blind_discovery(channel, SeqptConfig(shots=300, seed=5))
    assert result_json(run_blind_discovery(channel, seqpt)) == result_json(want)
    want = run_local_twirl(channel, LocalTwirlConfig(shots=300, seed=5, cutoff=1))
    assert result_json(run_local_twirl(channel, local)) == result_json(want)
