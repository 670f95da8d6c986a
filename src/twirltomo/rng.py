"""Counter-based random number streams.

Every randomized routine in the package takes either a 64-bit integer seed
or a preconstructed ``numpy.random.Generator``.  Seeds are expanded with
Philox4x64-10 (Salmon et al., SC'11), a counter-based generator:
``substream(seed, i)`` positions the 256-bit counter at a fixed offset
proportional to ``i``, so realization ``i`` of an experiment is
reproducible on its own without generating the preceding ``i - 1``
realizations.  Substreams are spaced 2**192 draws apart and can never
overlap in practice.  Seeds name streams only in [0, 2**64):
:func:`check_seed` is the check protocol configurations and the CLI apply.

There are two ways to draw many realizations, and both give the draws of
``substream(seed, i)`` bit for bit:

* :func:`substreams` moves one bit generator from counter to counter, for
  loops over realizations (blind MUB discovery).
* :func:`draw_batch` computes the Philox blocks of all substreams at once
  over the counter array (:func:`substream_words`) and maps raw words to
  ``integers(0, k)`` values with numpy's Lemire transform and to
  ``random()`` values as ``(w >> 11) * 2**-53``.  A realization with a
  Lemire-rejected 32-bit half (probability below k * 2**-32 for a draw in
  [0, k)) is redrawn alone from its own Generator, so the batch stays
  exact.  Every other sampler draws this way, one row of its twirl
  family's layout (:class:`twirltomo.dense.TwirlSpec`) per realization.

:func:`_draw_outcome` turns a stack of uniform draws into measurement
outcomes, one per cdf row, in :func:`twirltomo.dense.draw_outcomes` and in
blind MUB's blocks.  It scales each draw by its law's total, so a law
whose total is off one by round-off is sampled in proportion.  The sampled
protocols reject a map that is not trace preserving
(:func:`twirltomo.channels.check_trace_preserving`), whose laws do not sum
to one.  Selective estimation tests survival as ``u < p_0`` directly,
without this function.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Philox4x64 multipliers and Weyl key increments (Random123, numpy philox.h)
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def check_int(name: str, value) -> int:
    """``value`` as an int if it is an integer (a Python or numpy one, not a
    bool); raise :class:`ConfigError` naming the setting otherwise."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value.__index__()


def check_real(name: str, value):
    """``value`` if it is a finite real number (a Python or numpy one, not a
    bool); raise :class:`ConfigError` naming the setting otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def check_seed(seed: int) -> int:
    """Return ``seed`` as an int if it names a stream, an integer in
    [0, 2**64); raise :class:`ConfigError` otherwise.  (:func:`substream`
    keeps only the low 64 bits, so a seed outside the range would silently
    run the stream of another seed.)"""
    seed = check_int("seed", seed)
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    return seed


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


def _mulhi(m: int, a: np.ndarray, hi: np.ndarray, t: np.ndarray, u: np.ndarray,
           v: np.ndarray):
    """Write the high 64-bit word of the 128-bit product m * a into ``hi``,
    with ``t``, ``u`` and ``v`` as scratch (uint64 arrays shaped like ``a``).

    The carry chain on 32-bit halves: t = (m_lo a_lo) >> 32,
    u = m_hi a_lo + t, hi = m_hi a_hi + (u >> 32) + ((m_lo a_hi + (u & M)) >> 32),
    with M = 2**32 - 1; no sum in it passes 2**64."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(a, _MASK32, out=u)
    np.multiply(u, m_lo, out=t)
    t >>= _SHIFT32
    u *= m_hi
    u += t
    np.right_shift(a, _SHIFT32, out=hi)
    np.multiply(hi, m_lo, out=v)
    np.bitwise_and(u, _MASK32, out=t)
    v += t
    v >>= _SHIFT32
    u >>= _SHIFT32
    hi *= m_hi
    hi += u
    hi += v


def substream_words(seed: int, start: int, count: int, nwords: int) -> np.ndarray:
    """First ``nwords`` raw 64-bit outputs of substreams ``start`` ..
    ``start + count - 1``: row k equals
    ``substream(seed, start + k).bit_generator.random_raw(nwords)``.

    Philox4x64-10 evaluated over the counter array: numpy bumps the counter
    before each block, so block b = 1, 2, ... of substream i is the Philox
    of counter (b, 0, 0, i) under key (k, 0), k = seed mod 2**64.  Round r
    maps lanes (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ (k + r W0), lo(M1 c2),
    hi(M0 c0) ^ c3 ^ r W1, lo(M0 c0)).  Round 0 gives (k, 0, hi(M0 b) ^ i,
    lo(M0 b)); round 1 multiplies the scalar k, so its lane 2 is g_b =
    hi(M0 k) ^ lo(M0 b) ^ W1; round 2 multiplies g_b.  Those products are
    taken once per block with Python ints, so the arrays make 16 of the 20
    half-round products, in place in a few preallocated buffers.
    """
    if start < 0:
        raise ValueError("substream index must be nonnegative")
    nblocks = -(-nwords // 4)
    k = seed & _MASK64
    m0b = [_PHILOX_M0 * b for b in range(1, nblocks + 1)]
    m0k = _PHILOX_M0 * k
    m1g = [_PHILOX_M1 * ((m0k >> 64) ^ (p & _MASK64) ^ _PHILOX_W1) for p in m0b]
    c0, c1, c2, c3 = np.empty((4, count, nblocks), dtype=np.uint64)
    hi, t, u, v = np.empty((4, count, nblocks), dtype=np.uint64)
    m0, m1 = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1)
    # round 1 on the arrays: lanes 0 and 1 from lane 2 = hi(M0 b) ^ i
    np.bitwise_xor(np.arange(start, start + count, dtype=np.uint64)[:, None],
                   np.array([p >> 64 for p in m0b], dtype=np.uint64), out=c2)
    _mulhi(_PHILOX_M1, c2, c0, t, u, v)
    c0 ^= np.uint64((k + _PHILOX_W0) & _MASK64)
    c2 *= m1
    # round 2: lanes 0 and 1 from the per-block M1 g_b, lanes 2 and 3 from c0
    c2 ^= np.array([(p >> 64) ^ ((k + 2 * _PHILOX_W0) & _MASK64) for p in m1g], dtype=np.uint64)
    c1[:] = np.array([p & _MASK64 for p in m1g], dtype=np.uint64)
    _mulhi(_PHILOX_M0, c0, c3, t, u, v)
    c3 ^= np.uint64((m0k & _MASK64) ^ (2 * _PHILOX_W1 & _MASK64))
    c0 *= m0
    c0, c1, c2, c3 = c2, c1, c3, c0
    for r in range(3, _PHILOX_ROUNDS):
        k0, k1 = (k + r * _PHILOX_W0) & _MASK64, r * _PHILOX_W1 & _MASK64
        # (c0, c1, c2, c3) <- (hi(m1 c2) ^ c1 ^ k0, lo(m1 c2), hi(m0 c0) ^ c3 ^ k1, lo(m0 c0))
        _mulhi(_PHILOX_M0, c0, hi, t, u, v)
        c3 ^= hi
        c3 ^= np.uint64(k1)
        c0 *= m0
        _mulhi(_PHILOX_M1, c2, hi, t, u, v)
        c1 ^= hi
        c1 ^= np.uint64(k0)
        c2 *= m1
        c0, c1, c2, c3 = c1, c2, c3, c0  # the buffers are renamed, not copied
    del hi, t, u, v  # free the scratch before the output is laid out
    blocks = np.stack((c0, c1, c2, c3), axis=-1).reshape(count, 4 * nblocks)
    return blocks[:, :nwords]


def _lemire(halves: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``integers(0, k)`` (2 <= k < 2**32) on 32-bit draws ``halves``:
    the values (h * k) >> 32, and a mask of the draws Lemire's method
    rejects, those with (h * k) mod 2**32 < (2**32 - k) mod k; numpy would
    draw again there."""
    if not 2 <= k < 1 << 32:
        raise ValueError(f"bound {k} is outside [2, 2**32)")
    scaled = halves * np.uint64(k)
    rejected = (scaled & _MASK32) < np.uint64(((1 << 32) - k) % k)
    return (scaled >> np.uint64(32)).astype(np.int64), rejected


def draw_batch(seed: int, start: int, count: int, bounds: tuple[int, ...],
               nuniform: int) -> tuple[np.ndarray, np.ndarray]:
    """For each substream i in ``start`` .. ``start + count - 1``, what

        g = substream(seed, i)
        [g.integers(0, k) for k in bounds], [g.random() for _ in range(nuniform)]

    draws, as an int64 array (count, len(bounds)) and a float64 array
    (count, nuniform).

    Each bounded draw takes a 32-bit half of a raw word, low half first, and
    each uniform a whole word after them.  A row with a rejected half is
    redrawn from its own Generator, so every row is exact.
    """
    nhalf = len(bounds)
    nint_words = -(-nhalf // 2)
    words = substream_words(seed, start, count, nint_words + nuniform)
    ints = np.empty((count, nhalf), dtype=np.int64)
    rejected = np.zeros(count, dtype=bool)
    for j, k in enumerate(bounds):
        half = words[:, j >> 1] >> np.uint64(32 * (j & 1)) & _MASK32
        ints[:, j], rej = _lemire(half, k)
        rejected |= rej
    # numpy's random(): (w >> 11) * 2**-53, exact in float64
    uniforms = (words[:, nint_words:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    for row in np.flatnonzero(rejected).tolist():
        g = substream(seed, start + row)
        ints[row] = [g.integers(0, k) for k in bounds]
        uniforms[row] = [g.random() for _ in range(nuniform)]
    return ints, uniforms


def _draw_outcome(cdfs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index of each row of a (count, D) stack of cumulative
    distributions (cumsums of nonnegative probabilities) for its uniform
    draw u[i] in [0, 1].

    u[i] is scaled by the row's total cdfs[i, -1], so rows that do not sum
    to one (maps that are not trace preserving) are sampled in proportion.
    A scaled draw that reaches the total (u = 1, or a subnormal total that
    rounds u * total up) is clamped to the row's last outcome with nonzero
    probability, so the result is always in range and never an outcome of
    probability zero.  Raises ``ValueError`` when some row has no positive
    probability.
    """
    total = cdfs[:, -1:]
    if not (total > 0).all():
        raise ValueError("outcome distribution has no positive mass")
    # on a nondecreasing row, counting entries <= t is searchsorted(t, "right")
    v = (cdfs <= u[:, None] * total).sum(axis=-1)
    top = np.flatnonzero(v == cdfs.shape[-1])  # only these rows need the clamp
    v[top] = (cdfs[top] < total[top]).sum(axis=-1)
    return v
