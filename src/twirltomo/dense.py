"""Exact small-n dense simulation, the one twirl-family pipeline, and the
oracles the protocols test against.

:class:`TwirlSpec` is the one twirl family.  Every sampler and the exact
enumeration take its steps: a row of ``layout`` draws per element, the
elements they name, their laws (element i's is ``laws[rows[i]]``), then
one blocked outcome draw (:func:`draw_outcomes`) or the mean of the laws,
each shifted by an intermediary's syndrome against the elements' Z-images
(:func:`_shift_outcomes`).  One kernel, :func:`_transition_table`, makes
every dense law: whole tables for MUB bases and one-qubit-twirl rotation
parts, column 0 for a Clifford element.  A Clifford law is read off the
map's Pauli support instead where that is cheaper
(:meth:`DenseBackend.clifford_outcome_probs`).  Blind MUB discovery alone
keeps its own per-realization draw loop (see :mod:`twirltomo.seqpt`).
Enumerations iterate in a fixed order, so results are reproducible bit for
bit.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .channels import ChannelModel, pauli_coefficients
from .errors import CapacityError, ConfigError, DimensionMismatchError
from .pauli import PAULI_1Q, Pauli, tensor
from .rng import _draw_outcome, check_int
from .stabilizer import (_I_POWERS, Tableaux, _swap_halves, build_mub_family, clifford_bounds,
                         grow_cliffords, outcome_shift)

DENSE_SIM_MAX_N = 6
MUB_ENUM_MAX_N = 3
LOCAL_ENUM_MAX_N = 4
CLIFFORD_ENUM_MAX_N = 2
_TABLE_BLOCK = 1 << 13  # table entries per transition-table pass (~128 KiB per operand)
_DRAW_BLOCK = 1 << 16  # cdf entries gathered per outcome-draw pass (512 KiB)
_HAAR_CHUNK = 20000  # Haar unitaries drawn per pass of haar_twirl_moment


# ---------------------------------------------------------------------------
# Haar moments


def haar_random_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) stack of Haar-distributed unitaries via QR with
    the standard phase correction of the R diagonal."""
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.einsum("bii->bi", r)
    q *= (diag / np.abs(diag))[:, None, :]
    return q


def haar_moment_closed_form(a1, a2, b1, b2) -> complex:
    """Closed form of the Haar average of Tr[A1 U^dag B1 U A2 U^dag B2 U], D >= 2."""
    d = a1.shape[0]
    if d < 2:
        raise ConfigError(f"the Haar moment closed form needs D >= 2, got D = {d}")
    tr = np.trace
    term1 = tr(a1 @ a2) / (d * d - 1) * (tr(b1) * tr(b2) - tr(b1 @ b2) / d)
    term2 = tr(a1) * tr(a2) / (d * d - 1) * (tr(b1 @ b2) - tr(b1) * tr(b2) / d)
    return complex(term1 + term2)


@dataclass(frozen=True)
class HaarMomentResult:
    estimate: complex
    stderr: float
    closed_form: complex
    samples: int

    @property
    def deviation_sigmas(self) -> float:
        return abs(self.estimate - self.closed_form) / self.stderr


def haar_twirl_moment(a1, a2, b1, b2, samples: int,
                      rng: np.random.Generator) -> HaarMomentResult:
    """Monte Carlo estimate of the fourth-moment trace average vs closed form.

    The integrand Tr[A1 U^dag B1 U A2 U^dag B2 U] is averaged over
    ``samples`` Haar unitaries, drawn ``_HAAR_CHUNK`` at a time; the caller
    compares the estimate with the closed form (``deviation_sigmas`` gives
    the distance in standard errors).
    D < 2 or fewer than 2 samples raise before anything is drawn.
    """
    closed_form = haar_moment_closed_form(a1, a2, b1, b2)
    if samples < 2:
        raise ConfigError(f"a Haar moment estimate needs samples >= 2, got {samples}")
    d = a1.shape[0]
    vals = np.empty(samples, dtype=complex)
    done = 0
    while done < samples:
        m = min(_HAAR_CHUNK, samples - done)
        u = haar_random_unitaries(d, m, rng)
        uh = u.conj().transpose(0, 2, 1)
        c1 = uh @ b1 @ u
        c2 = uh @ b2 @ u
        vals[done:done + m] = np.einsum("ij,bjk,kl,bli->b", a1, c1, a2, c2, optimize=True)
        done += m
    est = vals.mean()
    var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
    stderr = float(np.sqrt(var / samples))
    return HaarMomentResult(estimate=complex(est), stderr=stderr,
                            closed_form=closed_form, samples=samples)


# ---------------------------------------------------------------------------
# exact twirl enumeration


@dataclass(frozen=True)
class TwirlSpec:
    """One twirl family and the steps that every sampler and the exact
    enumeration share: the ``layout`` of ``integers(0, k)`` draws of one
    element (as :func:`twirltomo.rng.draw_batch` makes them), the
    :meth:`elements` the draws name, their laws (:meth:`laws`, drawn from by
    :func:`draw_outcomes`) and their Z-image keys (:meth:`z_keys`), against
    which an intermediary Pauli shifts a law.  ``haar_state`` has no layout.
    """

    kind: str  # haar_state | mub | clifford_full | local_clifford
    n: int

    def __post_init__(self):
        if self.kind not in ("haar_state", "mub", "clifford_full", "local_clifford"):
            raise ConfigError(f"unknown twirl kind {self.kind!r}")
        object.__setattr__(self, "n", check_int("n", self.n))
        if self.n < 1:
            raise ConfigError(f"a twirl acts on n >= 1 qubits, got n = {self.n}")

    @property
    def layout(self) -> tuple[int, ...] | None:
        d = 1 << self.n
        return {"mub": (d + 1, d), "local_clifford": (4, 3) * self.n,
                "clifford_full": clifford_bounds(self.n)}.get(self.kind)

    @property
    def enumeration_size(self) -> int | None:
        return None if self.layout is None else math.prod(self.layout)

    def elements(self, ints: np.ndarray):
        """The elements that the (M, len(layout)) draw rows name: (basis,
        state) rows (MUB), (M, n, 2) (pauli, rotation) digits, qubit 1 first
        (one-qubit twirl), or a :class:`Tableaux` stack (Clifford)."""
        if self.kind == "clifford_full":
            return grow_cliffords(self.n, ints)
        return ints.reshape(len(ints), self.n, 2) if self.kind == "local_clifford" else ints

    def z_keys(self, elements) -> np.ndarray:
        """(M, n) Z-image keys x | z << n of the elements: a MUB basis's, or
        Y, X, Z on a qubit rotated about x, y, z (the Pauli part flips signs)."""
        n = self.n
        if self.kind == "mub":
            return build_mub_family(n).z[elements[:, 0]]
        if self.kind == "clifford_full":
            return elements.z
        return np.array([1 + (1 << n), 1, 1 << n])[elements[:, :, 1]] << np.arange(n - 1, -1, -1)

    def laws(self, backend: "DenseBackend", channel: ChannelModel,
             elements) -> tuple[np.ndarray, np.ndarray]:
        """(laws, rows): element i's law, with no intermediary, is laws[rows[i]].

        MUB (basis j, state m): row j*D + m of the D+1 tables.  One-qubit
        twirl: row slot*D + x of the tables of the distinct rotation parts,
        x the X part of the Pauli part (X and Y flip a qubit) and the slot
        numbering the parts in order.  Clifford: the element's own law
        (:meth:`DenseBackend.clifford_outcome_probs`).
        """
        if self.n != channel.n:
            raise DimensionMismatchError(f"twirl on {self.n} qubits, channel on {channel.n}")
        d = channel.dim
        if self.kind == "mub":
            return backend.mub_tables(channel).reshape(-1, d), elements @ np.array([d, 1])
        if self.kind == "clifford_full":
            return backend.clifford_outcome_probs(channel, elements), np.arange(len(elements))
        places = np.arange(self.n - 1, -1, -1)  # qubit 1 is the top digit
        codes = elements[:, :, 1] @ 3 ** places
        seen = np.bincount(codes, minlength=3 ** self.n) > 0
        rotations = np.flatnonzero(seen)[:, None] // 3 ** places % 3  # sorted, distinct
        x = ((elements[:, :, 0] == 1) | (elements[:, :, 0] == 2)) @ (1 << places)
        rows = (np.cumsum(seen) - 1)[codes] * d + x  # the slot of a code counts the parts below it
        return backend.local_tables(channel, rotations).reshape(-1, d), rows


def draw_outcomes(laws: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome of each element i of a batch: the :func:`_draw_outcome` of the
    uniform u[i] against the law laws[rows[i]].  The laws are cumsummed once
    and the cdf rows gathered in blocks of at most ``_DRAW_BLOCK`` entries,
    so the gathered stack stays small."""
    cdfs = np.cumsum(laws, axis=1)
    outcomes = np.empty(len(rows), dtype=np.int64)
    step = max(1, _DRAW_BLOCK // laws.shape[1])
    for lo in range(0, len(rows), step):
        block = slice(lo, lo + step)
        outcomes[block] = _draw_outcome(cdfs[rows[block]], u[block])
    return outcomes


# single-qubit symplectic rotations exp(-i pi/4 sigma_p), p = x, y, z
_SQRT = 1 / np.sqrt(2)
_ROTS = (
    _SQRT * np.array([[1, -1j], [-1j, 1]], dtype=complex),   # about x
    _SQRT * np.array([[1, -1], [1, 1]], dtype=complex),      # about y
    _SQRT * np.array([[1 - 1j, 0], [0, 1 + 1j]], dtype=complex),  # about z
)


# _TWIRL_GATES[p, s]: the one-qubit-twirl gate S_s P_p
_TWIRL_GATES = np.array([[r @ p for r in _ROTS] for p in PAULI_1Q])


def local_twirl_unitary(digits: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Tensor product of per-qubit S*P gates; digits[j] = (pauli, rotation)."""
    return tensor(_TWIRL_GATES[p, s] for p, s in digits)


def _transition_table(channel: ChannelModel, w: np.ndarray, columns) -> np.ndarray:
    """probs[t, c, v] for every basis w[t] of the (T, D, D) stack and each
    listed column m = columns[c] of it: prepare w[t] X^m |0..0>, apply the
    channel, read out in the basis w[t], and undo the X^m by relabeling
    outcome v as v ^ m, so v = 0 means the prepared state survived.  A MUB
    or one-qubit-twirl table lists every column; a Clifford law is
    column 0 alone.

    With the map as pairs (A_k, B_k), the weight of outcome j given column m
    is Re sum_k a_k[j, m] conj(b_k[j, m]) with a_k = w^dag (A_k w[:, m])
    (b_k likewise), so the listed columns cost two stacked products per
    operator (one for a Kraus operator, where b_k = a_k) and no channel
    application.
    """
    columns = np.asarray(columns)
    wh, w_m = np.swapaxes(w.conj(), -1, -2), w[:, :, columns]
    in_basis = np.zeros(w_m.shape)
    for a_op, b_op in channel.operator_pairs():
        a = wh @ (a_op @ w_m)
        b = a if b_op is a_op else wh @ (b_op @ w_m)
        in_basis += (a * b.conj()).real
    np.clip(in_basis, 0.0, None, out=in_basis)
    # probs[t, c, v] = in_basis[t, v ^ m, c]: the X^m undo relabels outcomes
    slots = np.arange(len(columns))[:, None]
    probs = in_basis[:, np.arange(channel.dim) ^ columns[:, None], slots]
    probs.setflags(write=False)  # a table is cached and shared by every caller
    return probs


def _pauli_support(channel: ChannelModel):
    """(keys, a, b): the map's operator pairs on their Pauli support,
    A_k = sum_l a[k, l] X^x Z^z over the keys[l] = x | z << n whose
    coefficient is exactly nonzero in some A_k or B_k (b is None for a
    Kraus set, where B_k = A_k); or None when the support law does not pay,
    (K + 4) |S| > 2 D^2 for K distinct operators
    (:meth:`DenseBackend.clifford_outcome_probs`).  The coefficient of key
    x | z << n is i^|x & z| times that of its Hermitian Pauli
    (:func:`pauli_coefficients`), as X^x Z^z = (-i)^|x & z| P.  A first pass
    finds the support, stopping once it is too large, so no (K, D^2) array
    is held."""
    n, d = channel.n, channel.dim
    x, z = np.arange(d * d) % d, np.arange(d * d) // d
    # the label of key x | z << n: base-4 digit 2 z_s + (x_s ^ z_s) on qubit n - s
    labels = sum((2 * (z >> s & 1) | (x ^ z) >> s & 1) << 2 * s for s in range(n))
    phases = _I_POWERS[np.bitwise_count(x & z) % 4]
    pairs = channel.operator_pairs()
    kraus = all(b_op is a_op for a_op, b_op in pairs)
    ops = [a_op for a_op, _ in pairs] + ([] if kraus else [b_op for _, b_op in pairs])
    nonzero = np.zeros(d * d, dtype=bool)
    for op in ops:
        nonzero |= pauli_coefficients(op)[labels] != 0
        if (len(ops) + 4) * np.count_nonzero(nonzero) > 2 * d * d:
            return None
    support = np.flatnonzero(nonzero)
    coef = np.array([pauli_coefficients(op)[labels[support]] * phases[support] for op in ops])
    return support.astype(np.uint64), coef[:len(pairs)], None if kraus else coef[len(pairs):]


def _support_laws(tableaux: Tableaux, keys: np.ndarray, a: np.ndarray,
                  b: np.ndarray | None) -> np.ndarray:
    """The laws of a :class:`Tableaux` stack from the map's Pauli support
    (:func:`_pauli_support`), with no dense unitary.

    For each support key, C^dag X^x Z^z C = i^-e X^o Z^t: bit j of o (of t),
    qubit 1 on top, says whether X^x Z^z anticommutes with the Z-image (the
    X-image) of qubit j + 1, and C X^o Z^t C^dag = i^e X^x Z^z is the
    product of the X-images that o selects, then the Z-images that t
    selects, by the XZ product rule
    (i^e1 X^x1 Z^z1)(i^e2 X^x2 Z^z2) = i^(e1+e2) (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2).
    As X^o Z^t |0..0> = |o>, the amplitude of outcome o under A_k is the sum
    of i^-e a[k, l] over the keys with that o, and

        probs[o] = Re sum_k amp_A_k[o] conj(amp_B_k[o]),

    clipped at 0: K |S| scatter-adds per element for K pairs and |S| keys,
    one operator at a time, so the transients hold M (D + n |S|) entries.
    """
    n, m, d = tableaux.n, len(tableaux), 1 << tableaux.n
    o_bits, t_bits = (np.bitwise_count(_swap_halves(images, n)[:, :, None] & keys) & 1
                      for images in (tableaux.z, tableaux.x))  # (M, n, |S|)
    e = np.zeros((m, len(keys)), dtype=np.int64)
    acc_z = np.zeros((m, len(keys)), dtype=np.uint64)  # Z part of the product so far
    images = [(tableaux.x[:, j], tableaux.signs[:, 2 * j], o_bits[:, j]) for j in range(n)]
    images += [(tableaux.z[:, j], tableaux.signs[:, 2 * j + 1], t_bits[:, j]) for j in range(n)]
    for key, sign, picked in images:
        g_x, g_z = key & np.uint64(d - 1), key >> np.uint64(n)
        g_e = 2 * sign + np.bitwise_count(g_x & g_z)  # Y = i X Z per qubit
        e += picked * (g_e[:, None] + 2 * np.bitwise_count(acc_z & g_x[:, None]))
        acc_z ^= picked * g_z[:, None]
    quarter, cols = -e % 4, np.arange(len(keys))
    slots = (np.arange(0, m * d, d)[:, None]
             + np.einsum("mjs,j->ms", o_bits, 1 << np.arange(n - 1, -1, -1))).ravel()

    def amplitude(coef):  # real and imaginary parts of the (M * D) amplitudes
        turned = _I_POWERS[:, None] * coef  # turned[q, l] = i^q coef[l]
        return (np.bincount(slots, turned.real[quarter, cols].ravel(), m * d),
                np.bincount(slots, turned.imag[quarter, cols].ravel(), m * d))

    laws = np.zeros(m * d)
    for k in range(len(a)):
        a_re, a_im = amplitude(a[k])
        b_re, b_im = (a_re, a_im) if b is None else amplitude(b[k])
        laws += a_re * b_re
        laws += a_im * b_im
    return np.clip(laws, 0.0, None, out=laws).reshape(m, d)


def _shift_outcomes(laws: np.ndarray, z_keys, intermediary: Pauli | None) -> np.ndarray:
    """The (M, D) laws with an intermediary P before the untwirl: row i
    relabeled by P's syndrome against z_keys[i] (:func:`outcome_shift`)."""
    if intermediary is None:
        return laws
    shift = outcome_shift(z_keys, intermediary)
    return np.take_along_axis(laws, np.arange(laws.shape[1]) ^ shift[:, None], axis=1)


class DenseBackend:
    """Dense simulator handed to the protocol runners: the law source that
    :meth:`TwirlSpec.laws` reads.  One transition table (:func:`_transition_table`)
    per MUB basis serves every intermediary Pauli; one per rotation part of a
    one-qubit-twirl element holds the laws of all 2^n X parts.  Each is built
    on first use and kept.  Channels key the cache weakly (by object, not by
    id, so recycled addresses cannot collide) and capacity is capped by
    ``max_n``.  A table is D x D floats, so a channel holds at most (D+1) D^2
    MUB and 3^n 4^n one-qubit-twirl floats (about 23 MiB at n = 6).
    Clifford laws are computed per call, from the map's Pauli support
    (:func:`_pauli_support`, kept per channel) where that is cheaper."""

    def __init__(self, max_n: int = DENSE_SIM_MAX_N):
        self.max_n = max_n
        self._tables: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def check_capacity(self, n: int):
        if n > self.max_n:
            raise CapacityError(f"dense backend capped at n={self.max_n}, got {n}")

    def _cached_tables(self, channel: ChannelModel, family: str, keys,
                       unitaries) -> np.ndarray:
        """(T, D, D) stack of the transition tables of ``family`` named by
        ``keys``, in order.  The missing ones are built together from the
        (T', D, D) basis stack ``unitaries(missing keys)``, in blocks of at
        most about ``_TABLE_BLOCK`` table entries, and kept."""
        self.check_capacity(channel.n)
        cached = self._tables.setdefault(channel, {}).setdefault(family, {})
        missing = [key for key in dict.fromkeys(keys) if key not in cached]
        step = max(1, _TABLE_BLOCK // channel.dim ** 2)
        for lo in range(0, len(missing), step):
            block = missing[lo:lo + step]
            cached.update(zip(block, _transition_table(channel, unitaries(block),
                                                       np.arange(channel.dim))))
        return np.stack([cached[key] for key in keys])

    # -- MUB twirl ----------------------------------------------------------

    def mub_tables(self, channel: ChannelModel) -> np.ndarray:
        """(D+1, D, D) transition tables of the MUB bases: probs[j, m, v] of
        basis j as in :meth:`mub_transition_probs`, without an intermediary."""
        family = build_mub_family(channel.n)
        return self._cached_tables(channel, "mub", range(channel.dim + 1),
                                   lambda block: family[block].unitaries())

    def mub_transition_probs(self, channel: ChannelModel, basis: int,
                             intermediary: Pauli | None = None) -> np.ndarray:
        """probs[m, v] of MUB basis ``basis`` in 0..D: prepare basis state m
        (via V_J X^m on |0..0>), apply the channel (and the optional extra
        Pauli), undo the preparation, measure outcome v.  Surviving (v = 0)
        means returning to state m.  The Pauli shifts outcomes by its
        syndrome against the basis's Z-images (:func:`outcome_shift`)."""
        if not 0 <= basis <= channel.dim:
            raise ValueError(f"MUB basis index must be in 0..{channel.dim}, got {basis}")
        return _shift_outcomes(self.mub_tables(channel)[basis],
                               build_mub_family(channel.n).z[[basis]], intermediary)

    # -- generic clifford twirl ----------------------------------------------

    def clifford_outcome_probs(self, channel: ChannelModel, tableaux: Tableaux) -> np.ndarray:
        """(M, D) outcome laws of prepare |0..0>, C, channel, C^dag for the
        M elements C of a :class:`Tableaux` stack.

        Two laws give the same numbers, to rounding, for Kraus, chi-only,
        non-CP and non-TP maps alike, and neither reads ``channel.chi``:
        the Pauli-support law (:func:`_support_laws`, K |S| scatter-adds per
        element for K operators on |S| Pauli terms, with no unitary), and
        column 0 of the transition table of the element's dense unitary
        (:func:`_transition_table`, a D x D unitary build plus 2K D^2
        multiply-adds).  The support law runs when (K + 4) |S| <= 2 D^2,
        K counting each distinct operator of the pairs.  That keeps it to
        maps where it was measured faster: over 1000 elements at n = 5 it
        broke even near |S| = 0.55, 0.3 and 0.12 D^2 for K = 1, 4 and 16,
        where the rule switches at 0.4, 0.25 and 0.1 D^2.  A Clifford gate
        with Pauli noise on a few qubits takes it (CNOT then depolarizing
        noise on one qubit has |S| = 8 at every n), and a full-support map
        (|S| = D^2) takes the dense law.  Either runs in blocks of about
        ``_TABLE_BLOCK`` entries of its largest per-element operand: the
        (D, D) unitary, or the D amplitudes and n |S| syndrome bits.  An
        intermediary Pauli permutes each law (:func:`_shift_outcomes`).
        """
        self.check_capacity(channel.n)
        if tableaux.n != channel.n:
            raise DimensionMismatchError(
                f"the Clifford acts on {tableaux.n} qubits, the channel on {channel.n}")
        d = channel.dim
        cached = self._tables.setdefault(channel, {})
        if "support" not in cached:  # None: the dense law is cheaper
            cached["support"] = _pauli_support(channel)
        support = cached["support"]
        step = max(1, _TABLE_BLOCK // (d * d if support is None
                                       else max(d, channel.n * len(support[0]))))
        probs = np.empty((len(tableaux), d))
        for lo in range(0, len(tableaux), step):
            block = tableaux[lo:lo + step]
            probs[lo:lo + step] = (_transition_table(channel, block.unitaries(), [0])[:, 0]
                                   if support is None else _support_laws(block, *support))
        return probs

    # -- one-qubit twirl ------------------------------------------------------

    def local_tables(self, channel: ChannelModel, rotations) -> np.ndarray:
        """(T, D, D) transition tables of the one-qubit-twirl rotation parts
        ``rotations`` ((T, n) rotation indices, qubit 1 first): row x of
        table t is the law of every element with rotation part rotations[t]
        and X part x.  Each is built from its rotation unitary, and only
        when asked for, so at most 3^n tables cover all 12^n elements."""
        keys = list(map(tuple, np.asarray(rotations).tolist()))
        return self._cached_tables(
            channel, "local", keys,
            lambda block: tensor(_TWIRL_GATES[0, np.array(block).T]))

    def local_outcome_probs(self, channel: ChannelModel,
                            digits: tuple[tuple[int, int], ...]) -> np.ndarray:
        """Outcome law of prepare |0..0>, the one-qubit-twirl element
        ``digits`` (digits[j] = (pauli, rotation) of qubit j + 1), the
        channel, the element undone.  The element is R P, R the rotation
        part, and R P|v> = R|v ^ x> up to phase, x the X part of P: the law
        is row x of the table of the basis R (:meth:`TwirlSpec.laws`)."""
        laws, rows = TwirlSpec("local_clifford", channel.n).laws(
            self, channel, np.array(digits).reshape(1, -1, 2))
        return laws[rows[0]]


def exact_chi_extraction(channel: ChannelModel, l: int, lp: int) -> complex:
    """chi[l, l'] recovered from the exact average over all D(D+1) MUB states
    of <psi| L(P_l |psi><psi| P_l') |psi>, inverting (D chi + delta)/(D+1).

    Exact for trace-preserving maps; agrees with the direct Kraus-to-chi
    conversion to 1e-10 in the tests.
    """
    n = channel.n
    if n > MUB_ENUM_MAX_N:
        raise CapacityError(f"MUB enumeration capped at n={MUB_ENUM_MAX_N}")
    d = channel.dim
    pl = Pauli.from_label(n, l).to_matrix()
    plp = Pauli.from_label(n, lp).to_matrix()
    total = 0.0 + 0.0j
    for w in build_mub_family(n).unitaries():
        for m in range(d):
            v = w[:, m]
            arg = np.outer(pl @ v, (plp @ v).conj())
            total += v.conj() @ channel.apply(arg) @ v
    avg = total / (d * (d + 1))
    delta = 1.0 if l == lp else 0.0
    return ((d + 1) * avg - delta) / d


def enumerate_twirl_exact(channel: ChannelModel, twirl: TwirlSpec,
                          intermediary: Pauli | None = None,
                          backend: DenseBackend | None = None) -> np.ndarray:
    """Exact outcome distribution of the twirled circuit, averaged over every
    element of a finite twirl family.

    The circuit is: prepare |0..0>, apply the twirl element, the channel,
    the optional intermediary Pauli, undo the twirl element, and measure.
    Outcomes are indexed with qubit 1 as the most significant bit.

    It is the mean of the laws of the elements of every row of
    ``np.indices(twirl.layout)`` (:meth:`TwirlSpec.laws`), each shifted by
    the intermediary's syndrome against the element's Z-images.
    """
    if twirl.layout is None:
        raise ValueError(f"twirl kind {twirl.kind!r} is not enumerable")
    cap = {"mub": MUB_ENUM_MAX_N, "local_clifford": LOCAL_ENUM_MAX_N,
           "clifford_full": CLIFFORD_ENUM_MAX_N}[twirl.kind]
    if twirl.n > cap:
        raise CapacityError(f"{twirl.kind} enumeration capped at n={cap}")
    elements = twirl.elements(np.indices(twirl.layout).reshape(len(twirl.layout), -1).T)
    laws, rows = twirl.laws(backend or DenseBackend(), channel, elements)
    return _shift_outcomes(laws[rows], twirl.z_keys(elements), intermediary).mean(axis=0)
