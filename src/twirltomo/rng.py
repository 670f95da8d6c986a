"""Counter-based random number streams.

Every randomized routine in the package takes either a 64-bit integer seed
or a preconstructed ``numpy.random.Generator``.  Seeds are expanded with
Philox, a counter-based generator: ``substream(seed, i)`` positions the
256-bit counter at a fixed offset proportional to ``i``, so realization
``i`` of an experiment is reproducible on its own without generating the
preceding ``i - 1`` realizations.  Substreams are spaced 2**192 draws
apart and can never overlap in practice.  A run over many realizations
walks them with :func:`substreams`, which moves one bit generator from
counter to counter instead of building a Generator per realization; the
draws are the same bit for bit.

:func:`_draw_outcome` is the one place that turns a uniform draw into a
measurement outcome; every sampled protocol goes through it.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for substream ``index`` of ``seed``."""
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    bitgen = np.random.Philox(key=seed & _MASK64, counter=[0, 0, 0, index])
    return np.random.Generator(bitgen)


def substreams(seed: int, start: int, count: int):
    """Yield the generators of substreams ``start`` .. ``start + count - 1``.

    The same Generator object is yielded each time.  Before each yield its
    Philox bit generator is moved to the counter of the next substream, and
    its output buffers (the 64-bit block and the spare 32-bit half) are
    emptied, so its draws equal those of ``substream(seed, i)``.  Finish
    drawing for one substream before advancing the iterator.
    """
    if start < 0:
        raise ValueError("substream index must be nonnegative")
    gen = substream(seed, start)
    bitgen = gen.bit_generator
    state = bitgen.state  # a fresh bit generator's: empty buffers
    counter = state["state"]["counter"]
    for i in range(start, start + count):
        counter[3] = i
        bitgen.state = state
        yield gen


def master(seed: int) -> np.random.Generator:
    """Generator used for run-level draws (substream 0 is reserved for it)."""
    return substream(seed, 0)


def _draw_outcome(cdf: np.ndarray, u: float) -> int:
    """Outcome index for a uniform draw ``u`` in [0, 1] against a cumulative
    distribution ``cdf`` (the cumsum of nonnegative probabilities).

    ``u`` is scaled by ``cdf[-1]``, so rows that do not sum to one (maps
    that are not trace preserving) are sampled in proportion.  A scaled draw
    that reaches ``cdf[-1]`` (u = 1, or a subnormal total that rounds
    ``u * cdf[-1]`` up) is clamped to the last outcome with nonzero
    probability, so the result is always in range and never an outcome of
    probability zero.  Raises ``ValueError`` when no outcome has positive
    probability.
    """
    total = cdf[-1]
    if not total > 0:
        raise ValueError("outcome distribution has no positive mass")
    v = int(cdf.searchsorted(u * total, side="right"))
    if v == len(cdf):
        v = int(cdf.searchsorted(total, side="left"))
    return v
