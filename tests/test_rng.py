"""Philox substreams: one generator moved from counter to counter draws what
a fresh generator per substream draws."""
import pytest

from twirltomo.rng import substream, substreams


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
