"""Counter-based random number streams.

Every randomized routine in the package takes either a 64-bit integer seed
or a preconstructed ``numpy.random.Generator``.  Seeds are expanded with
Philox4x64-10 (Salmon et al., SC'11), a counter-based generator:
``substream(seed, i)`` positions the 256-bit counter at a fixed offset
proportional to ``i``, so realization ``i`` of an experiment is
reproducible on its own without generating the preceding ``i - 1``
realizations.  Substreams are spaced 2**192 draws apart and can never
overlap in practice.  Seeds name streams, and indices substreams, only in
[0, 2**64): :func:`check_seed` is the seed check of configs and the CLI.

There are two ways to draw many realizations, and both give the draws of
``substream(seed, i)`` bit for bit:

* :func:`substreams` moves one bit generator from counter to counter, for
  loops over realizations (blind MUB discovery).
* :func:`draw_batch` computes the Philox blocks of all substreams at once
  over the counter array, word-major (:func:`substream_words`), and writes
  numpy's Lemire ``integers(0, k)`` and ``random()`` = ``(w >> 11) * 2**-53``
  in place, one output row per word or 32-bit half.  A realization with a
  Lemire-rejected half (probability below k * 2**-32 for a draw in [0, k))
  is redrawn alone from its own Generator, so the batch stays exact.  Every
  other sampler draws this way, one row of its twirl family's layout
  (:class:`twirltomo.dense.TwirlSpec`) per realization.

:func:`_draw_outcome` turns uniform draws into measurement outcomes, each
against the cdf row of a table that it names, in
:func:`twirltomo.dense.draw_outcomes` and in blind MUB's blocks.  It scales
each draw by its law's total, so a law whose total is off one by round-off
is sampled in proportion.  The sampled protocols reject a map that is not
trace preserving (:func:`twirltomo.channels.check_trace_preserving`), whose
laws do not sum to one.  Selective estimation tests survival as
``u < p_0`` directly, without this function.
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


def _check_indices(start: int, count: int):
    """Raise ValueError unless substreams start .. start + count - 1 name counters."""
    if start < 0 or start + count > 1 << 64:
        raise ValueError(f"substream indices {start} .. {start + count - 1} leave [0, 2**64)")


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for substream ``index`` of ``seed``."""
    _check_indices(index, 1)
    # a uint64 array: numpy passes a list's large ints through float64
    counter = np.array([0, 0, 0, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed & _MASK64, counter=counter))


def substreams(seed: int, start: int, count: int):
    """Yield the generators of substreams ``start`` .. ``start + count - 1``.

    The same Generator object is yielded each time.  Before each yield its
    Philox bit generator is moved to the counter of the next substream, and
    its output buffers (the 64-bit block and the spare 32-bit half) are
    emptied, so its draws equal those of ``substream(seed, i)``.  Finish
    drawing for one substream before advancing the iterator.
    """
    _check_indices(start, count)
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


def substream_words(seed: int, start: int, count: int, nwords: int) -> list[np.ndarray]:
    """First ``nwords`` raw 64-bit outputs of substreams ``start`` ..
    ``start + count - 1``, word-major: a list of ``nwords`` contiguous rows,
    in which entry k of rows 0 .. nwords - 1 is
    ``substream(seed, start + k).bit_generator.random_raw(nwords)``.

    Philox4x64-10 evaluated over the counter array: numpy bumps the counter
    before each block, so block b = 1, 2, ... of substream i is the Philox
    of counter (b, 0, 0, i) under key (k, 0), k = seed mod 2**64.  Round r
    maps lanes (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ (k + r W0), lo(M1 c2),
    hi(M0 c0) ^ c3 ^ r W1, lo(M0 c0)).  Round 0 gives (k, 0, hi(M0 b) ^ i,
    lo(M0 b)); round 1 multiplies the scalar k, so its lane 2 is g_b =
    hi(M0 k) ^ lo(M0 b) ^ W1; round 2 multiplies g_b.  Those products are
    taken once per block with Python ints, so the arrays make 16 of the 20
    half-round products, in place in a few preallocated buffers.  Word
    4 b + j is row b of the (blocks, count) lane j the rounds leave it in.
    """
    _check_indices(start, count)
    nblocks = -(-nwords // 4)
    k = seed & _MASK64
    m0b = [_PHILOX_M0 * b for b in range(1, nblocks + 1)]
    m0k = _PHILOX_M0 * k
    m1g = [_PHILOX_M1 * ((m0k >> 64) ^ (p & _MASK64) ^ _PHILOX_W1) for p in m0b]
    # the renames below leave output lane j in lanes[j]
    c0, c2, c1, c3 = lanes = np.empty((4, nblocks, count), dtype=np.uint64)
    hi, t, u, v = np.empty((4, nblocks, count), dtype=np.uint64)
    m0, m1 = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1)
    # round 1 on the arrays: lanes 0 and 1 from lane 2 = hi(M0 b) ^ i
    np.bitwise_xor(np.array([p >> 64 for p in m0b], dtype=np.uint64)[:, None],
                   np.arange(start, start + count, dtype=np.uint64), out=c2)
    _mulhi(_PHILOX_M1, c2, c0, t, u, v)
    c0 ^= np.uint64((k + _PHILOX_W0) & _MASK64)
    c2 *= m1
    # round 2: lanes 0 and 1 from the per-block M1 g_b, lanes 2 and 3 from c0
    c2 ^= np.array([(p >> 64) ^ ((k + 2 * _PHILOX_W0) & _MASK64) for p in m1g],
                   dtype=np.uint64)[:, None]
    c1[:] = np.array([p & _MASK64 for p in m1g], dtype=np.uint64)[:, None]
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
    return [lanes[w % 4, w // 4] for w in range(nwords)]


def _lemire(halves: np.ndarray, k: int, rejected: np.ndarray):
    """numpy's ``integers(0, k)`` (2 <= k < 2**32) in place on the 32-bit
    draws h in the uint64 array ``halves``: each becomes (h * k) >> 32, and
    ``rejected`` is set where Lemire's method rejects (numpy draws again),
    (h * k) mod 2**32 < (2**32 - k) mod k, never when k divides 2**32."""
    if not 2 <= k < 1 << 32:
        raise ValueError(f"bound {k} is outside [2, 2**32)")
    halves *= np.uint64(k)
    if (1 << 32) % k:  # the threshold, (2**32 - k) mod k = 2**32 mod k
        rejected |= (halves & _MASK32) < np.uint64((1 << 32) % k)
    halves >>= _SHIFT32


def draw_batch(seed: int, start: int, count: int, bounds: tuple[int, ...],
               nuniform: int) -> tuple[np.ndarray, np.ndarray]:
    """For each substream i in ``start`` .. ``start + count - 1``, what

        g = substream(seed, i)
        [g.integers(0, k) for k in bounds], [g.random() for _ in range(nuniform)]

    draws, as an int64 array (count, len(bounds)) and a float64 array
    (count, nuniform), each the transpose of a C-ordered array.

    Each bounded draw takes a 32-bit half of a raw word, low half first, and
    each uniform a whole word after them.  Each goes from its word's row
    (:func:`substream_words`) straight into its own output row, where
    :func:`_lemire` or one multiply finishes it.  A row with a rejected half
    is redrawn from its own Generator, so every row is exact.
    """
    nint_words = -(-len(bounds) // 2)
    words = substream_words(seed, start, count, nint_words + nuniform)
    ints = np.empty((len(bounds), count), dtype=np.int64)
    halves = ints.view(np.uint64)  # values below 2**32 read the same in both
    rejected = np.zeros(count, dtype=bool)
    for j, k in enumerate(bounds):  # the low half of word j // 2, then its high half
        op, arg = (np.right_shift, _SHIFT32) if j % 2 else (np.bitwise_and, _MASK32)
        _lemire(op(words[j // 2], arg, out=halves[j]), k, rejected)
    # numpy's random(): (w >> 11) * 2**-53, exact in float64
    uniforms = np.empty((nuniform, count))
    for j, w in enumerate(words[nint_words:]):
        np.multiply(np.right_shift(w, np.uint64(11), out=w), 2.0 ** -53, out=uniforms[j])
    for row in np.flatnonzero(rejected).tolist():
        g = substream(seed, start + row)
        ints[:, row] = [g.integers(0, k) for k in bounds]
        uniforms[:, row] = [g.random() for _ in range(nuniform)]
    return ints.T, uniforms.T


def _cdf_table(laws: np.ndarray) -> np.ndarray:
    """The (R, D) cumsums of the rows of ``laws``, stored column-major: the
    table :func:`_draw_outcome` searches through its flat index.  One add
    per column over all rows, in the order (and so with the sums) of
    ``np.cumsum``."""
    cdfs, columns = np.empty(laws.shape[::-1]), laws.T
    cdfs[0] = columns[0]
    for j in range(1, len(cdfs)):
        np.add(cdfs[j - 1], columns[j], out=cdfs[j])
    return cdfs.T


def _draw_outcome(cdfs: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index of each draw i against the cumulative distribution
    cdfs[rows[i]] (a cumsum of nonnegative probabilities) of an (R, D)
    table, for its uniform draw u[i] in [0, 1].

    u[i] is scaled by the row's total cdfs[rows[i], -1], so rows that do not
    sum to one (maps that are not trace preserving) are sampled in
    proportion.  A scaled draw that reaches the total (u = 1, or a subnormal
    total that rounds u * total up) is clamped to the row's last outcome with
    nonzero probability, so the result is always in range and never an
    outcome of probability zero.  Raises ``ValueError`` when a row that is
    drawn has no positive probability.

    On a nondecreasing row the outcome, the count of entries <= u[i] * total
    (searchsorted "right"), is found by a binary search over the first D - 1
    entries: log2(D) passes, each one gather from the flat column-major
    table (a :func:`_cdf_table` is one already; any other table is copied
    into one), with no (count, D) stack of cdf rows.  A table whose width is
    not a power of two is padded with copies of its totals, which no
    unclamped draw reaches.
    """
    columns = np.ascontiguousarray(np.asarray(cdfs).T)  # entry (r, j) at j * R + r
    width, count = columns.shape
    wide = 1 << (width - 1).bit_length()  # the power of two at or above D
    if wide != width:
        columns = np.concatenate((columns, np.repeat(columns[-1:], wide - width, axis=0)))
    flat = columns.ravel()
    at = np.asarray(rows, dtype=np.int64) + (width - 1) * count  # each row's total
    # "clip" on indices in range: the gathered output is not buffered first
    total = np.take(flat, at, mode="clip")
    if not (total > 0).all():
        raise ValueError("outcome distribution has no positive mass")
    scaled = u * total
    top = np.flatnonzero(scaled >= total)  # only these draws need the clamp
    step = wide >> 1
    at -= (width - max(step, 1)) * count  # row + (step - 1) R, or the row itself when D = 1
    # from here the totals' array takes each pass's gather, then its step
    gathered, steps = total, total.view(np.int64)
    while step:  # at = row + (v + step - 1) R, the entry that decides step
        less = np.take(flat, at, out=gathered, mode="clip") <= scaled
        at += np.multiply(less, step * count, out=steps)
        at -= (step >> 1) * count
        step >>= 1
    at -= rows
    v = np.floor_divide(at, count, out=at)
    v[top] = (columns[:, rows[top]] < columns[-1, rows[top]]).sum(axis=0)
    return v
