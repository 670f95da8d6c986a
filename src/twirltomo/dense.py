"""Exact small-n dense simulation, the one twirl-family pipeline, and the
oracles the protocols test against.

:class:`TwirlSpec` is the one twirl family.  Every sampler and the exact
enumeration take its steps: a row of ``layout`` draws per element, the
elements they name, their laws (element i's is ``laws[rows[i]]``), then
one outcome draw by binary search (:func:`draw_outcomes`) or the mean of
the laws, each shifted by an intermediary's syndrome against the elements'
Z-images (:func:`_shift_outcomes`).  :meth:`TwirlSpec.sample` is the one
sampling step, which only blind MUB discovery does not yet take (see
:mod:`twirltomo.seqpt`).  Enumerations iterate in a fixed order, so results
are reproducible bit for bit.

Three law kernels, :func:`_fidelity_table`, :func:`_support_laws` and
:func:`_transition_table`, each take a source, a :class:`Tableaux` stack and
the columns to tabulate, and block themselves; :meth:`DenseBackend.laws`
holds the one rule that picks among them.  :meth:`TwirlSpec.laws` names
each family's stack and columns and makes one backend call per batch, and
the backend keeps nothing between calls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (DENSE_MAX_N, ChannelModel, _check_dense_cap, check_trace_preserving,
                       pauli_coefficients)
from .errors import CapacityError, ConfigError, DimensionMismatchError
from .pauli import PAULI_1Q, Pauli, key_labels, tensor
from .rng import _cdf_table, _draw_outcome, check_int, draw_batch
from .stabilizer import (_I_POWERS, Tableaux, build_mub_family, clifford_bounds,
                         grow_cliffords, outcome_shift, syndromes)

MUB_ENUM_MAX_N = 3
LOCAL_ENUM_MAX_N = 4
CLIFFORD_ENUM_MAX_N = 2
_TABLE_BLOCK = 1 << 13  # table entries per transition-table pass (~128 KiB per operand)
_FIDELITY_BLOCK = 1 << 15  # entries per (elements, columns, D) array of a _fidelity_table pass
_FIDELITY_ROWS = 8  # (elements, D) arrays a _fidelity_table pass holds: its least column count
_HAAR_CHUNK = 20000  # Haar unitaries drawn per pass of haar_twirl_moment, at most
_HAAR_ENTRIES = _HAAR_CHUNK * 16  # matrix entries per pass: the full chunk up to D = 4
HAAR_MAX_DIM = 1 << DENSE_MAX_N  # the largest D a Haar moment estimate accepts
HAAR_MAX_SAMPLES = 10 ** 7  # the most samples it accepts: 160 MB of complex values


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


def _check_haar_caps(dim: int, samples: int):
    """Refuse a Haar moment estimate past D = ``HAAR_MAX_DIM`` (64), where
    one pass of even a few unitaries holds arrays of D^2 entries each, or
    past ``HAAR_MAX_SAMPLES`` samples, whose values it holds all at once."""
    if dim > HAAR_MAX_DIM:
        raise CapacityError(f"Haar moment estimates capped at D={HAAR_MAX_DIM}, got {dim}")
    if samples > HAAR_MAX_SAMPLES:
        raise CapacityError(f"Haar moment estimates capped at {HAAR_MAX_SAMPLES} samples, "
                            f"got {samples}")


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
    ``samples`` Haar unitaries, drawn ``min(_HAAR_CHUNK, _HAAR_ENTRIES //
    D^2)`` at a time (20,000 up to D = 4, 78 at D = 64); the caller
    compares the estimate with the closed form (``deviation_sigmas`` gives
    the distance in standard errors).
    D < 2, a sample count that is not an integer (:func:`check_int`) or
    fewer than 2 samples raise :class:`ConfigError`, and D > 64 or more
    than ``HAAR_MAX_SAMPLES`` (10^7) samples raise :class:`CapacityError`,
    before anything is drawn.
    """
    samples = check_int("samples", samples)
    _check_haar_caps(a1.shape[0], samples)
    closed_form = haar_moment_closed_form(a1, a2, b1, b2)
    if samples < 2:
        raise ConfigError(f"a Haar moment estimate needs samples >= 2, got {samples}")
    d = a1.shape[0]
    chunk = min(_HAAR_CHUNK, _HAAR_ENTRIES // (d * d))
    vals = np.empty(samples, dtype=complex)
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
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
    which an intermediary Pauli shifts a law.
    """

    kind: str  # mub | clifford_full | local_clifford
    n: int

    def __post_init__(self):
        if self.kind not in ("mub", "clifford_full", "local_clifford"):
            raise ConfigError(f"unknown twirl kind {self.kind!r}")
        object.__setattr__(self, "n", check_int("n", self.n))
        if self.n < 1:
            raise ConfigError(f"a twirl acts on n >= 1 qubits, got n = {self.n}")

    @property
    def layout(self) -> tuple[int, ...]:
        d = 1 << self.n
        return {"mub": (d + 1, d), "local_clifford": (4, 3) * self.n,
                "clifford_full": clifford_bounds(self.n)}[self.kind]

    def elements(self, ints: np.ndarray):
        """The elements that the (M, len(layout)) draw rows name: (basis,
        state) rows (MUB), (M, n, 2) (pauli, rotation) digits, qubit 1 first
        (one-qubit twirl: a view of the rows, so each digit column of the
        transposed rows that :func:`twirltomo.rng.draw_batch` returns is a
        contiguous row there), or a :class:`Tableaux` stack (Clifford)."""
        if self.kind == "clifford_full":
            return grow_cliffords(self.n, ints)
        return ints.reshape(len(ints), self.n, 2) if self.kind == "local_clifford" else ints

    def z_keys(self, elements) -> np.ndarray:
        """(M, n) Z-image keys x | z << n of the elements: a MUB basis's, or
        their rotation part's (the Pauli part flips signs alone)."""
        if self.kind == "mub":
            return build_mub_family(self.n).z[elements[:, 0]]
        if self.kind == "clifford_full":
            return elements.z
        return _rotation_tableaux(elements[:, :, 1]).z

    def laws(self, backend: "DenseBackend", channel: ChannelModel,
             elements) -> tuple[np.ndarray, np.ndarray]:
        """(laws, rows): element i's law, with no intermediary, is laws[rows[i]].

        MUB (basis j, state m): row j*D + m of the D+1 tables.  One-qubit
        twirl: row slot*D + x of the tables of the distinct rotation parts,
        x the X part of the Pauli part (X and Y flip a qubit) and the slot
        numbering the parts in order.  A MUB row or one-qubit digits outside
        ``layout`` raise ValueError.  Clifford: the element's own law
        (:meth:`DenseBackend.clifford_outcome_probs`).  Each kind makes one
        backend call per batch: the tables of every column of its stack (MUB
        family, or the :func:`_rotation_tableaux` of the parts), or column 0
        of the elements themselves.
        """
        if self.n != channel.n:
            raise DimensionMismatchError(f"twirl on {self.n} qubits, channel on {channel.n}")
        backend.check_capacity(channel.n)  # before any 3^n array is made
        d = channel.dim
        if self.kind == "mub":
            bad = np.flatnonzero(((elements < 0) | (elements >= self.layout)).any(axis=1))
            if bad.size:
                raise ValueError(f"MUB elements are (basis 0..{d}, state 0..{d - 1}) rows, "
                                 f"got row {bad[0]}: {elements[bad[0]].tolist()}")
            return (backend.laws(channel, build_mub_family(self.n), np.arange(d)).reshape(-1, d),
                    elements @ np.array([d, 1]))
        if self.kind == "clifford_full":
            return backend.clifford_outcome_probs(channel, elements), np.arange(len(elements))
        # three reductions, not a per-row any: this check runs on every batch
        if elements.size and (elements.min() < 0 or elements[..., 0].max() > 3
                              or elements[..., 1].max() > 2):
            bad = np.flatnonzero(((elements < 0) | (elements >= (4, 3))).any(axis=(1, 2)))[0]
            raise ValueError(f"one-qubit twirl elements are (pauli 0..3, rotation 0..2), "
                             f"got row {bad}: {elements[bad].tolist()}")
        # base-3 rotation codes and X parts by in-place Horner passes over the
        # digit rows, qubit 1 on top (each row contiguous where the elements
        # view the draw_batch rows); X and Y, the digits whose two bits
        # differ, flip a qubit
        paulis, rotations = elements[:, :, 0].T, elements[:, :, 1].T
        codes, xs = rotations[0].copy(), (paulis[0] ^ paulis[0] >> 1) & 1
        flips = np.empty_like(xs)
        for j in range(1, self.n):
            codes *= 3
            codes += rotations[j]
            np.right_shift(paulis[j], 1, out=flips)
            flips ^= paulis[j]
            flips &= 1
            xs <<= 1
            xs |= flips
        seen = np.bincount(codes, minlength=3 ** self.n) > 0
        rows = ((np.cumsum(seen) - 1) * d)[codes]  # the slot of a code counts the parts below it
        rows += xs
        places = 3 ** np.arange(self.n - 1, -1, -1)
        parts = np.flatnonzero(seen)[:, None] // places % 3  # sorted, distinct
        return (backend.laws(channel, _rotation_tableaux(parts), np.arange(d)).reshape(-1, d),
                rows)

    def sample(self, backend: "DenseBackend", channel: ChannelModel, seed: int,
               count: int) -> tuple[object, np.ndarray]:
        """(elements, outcomes) of realizations 1 .. count: the element of
        each ``layout`` row of :func:`twirltomo.rng.draw_batch` and its
        outcome, drawn from its law with one uniform.  A map past the cap
        or not trace preserving is refused before any draw."""
        backend.check_capacity(channel.n)
        check_trace_preserving(channel)
        ints, u = draw_batch(seed, 1, count, self.layout, 1)
        elements = self.elements(ints)
        return elements, draw_outcomes(*self.laws(backend, channel, elements), u[:, 0])


def draw_outcomes(laws: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome of each element i of a batch: the :func:`_draw_outcome` of the
    uniform u[i] against the law laws[rows[i]].  The laws are cumsummed once,
    into the table it searches."""
    return _draw_outcome(_cdf_table(laws), rows, u)


# single-qubit symplectic rotations exp(-i pi/4 sigma_p), p = x, y, z
_SQRT = 1 / np.sqrt(2)
_ROTS = (
    _SQRT * np.array([[1, -1j], [-1j, 1]], dtype=complex),   # about x
    _SQRT * np.array([[1, -1], [1, 1]], dtype=complex),      # about y
    _SQRT * np.array([[1 - 1j, 0], [0, 1 + 1j]], dtype=complex),  # about z
)

# the tableaux of _ROTS[s]: X-image and Z-image keys x | z << 1 and sign bits
# (about x: X, -Y; about y: -Z, X; about z: Y, Z)
_ROT_KEYS = np.array([[1, 3], [2, 1], [3, 2]], dtype=np.uint64)
_ROT_SIGNS = np.array([[0, 1], [1, 0], [0, 0]])


def _rotation_tableaux(rotations) -> Tableaux:
    """The :class:`Tableaux` stack of the one-qubit-twirl rotation parts
    tensor(_ROTS[s] for s in rotations[t]) of a (T, n) array, qubit 1 first."""
    rotations = np.asarray(rotations)
    n = rotations.shape[1]
    place = np.arange(n - 1, -1, -1, dtype=np.uint64)[:, None]  # qubit j + 1's bit
    keys = _ROT_KEYS[rotations]  # (T, n, 2)
    keys = (keys & np.uint64(1)) << place | (keys >> np.uint64(1)) << (place + np.uint64(n))
    return Tableaux(n, keys[:, :, 0], keys[:, :, 1],
                    _ROT_SIGNS[rotations].reshape(len(rotations), 2 * n))


def local_twirl_unitary(digits: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Tensor product of per-qubit S*P gates; digits[j] = (pauli, rotation)."""
    return tensor(_ROTS[s] @ PAULI_1Q[p] for p, s in digits)


def _transition_table(channel: ChannelModel, tableaux: Tableaux, columns) -> np.ndarray:
    """probs[t, c, v] for the unitary w of element t of the stack and each
    listed column m = columns[c]: prepare w X^m |0..0>, apply the channel,
    read out in the basis w, and undo the X^m by relabeling outcome v as
    v ^ m, so v = 0 means the prepared state survived.

    With the map as pairs (A_k, B_k), the weight of outcome j given column m
    is Re sum_k a_k[j, m] conj(b_k[j, m]) with a_k = w^dag (A_k w[:, m])
    (b_k likewise): two stacked products per operator (one for a Kraus
    operator, where b_k = a_k) and no channel application.  The unitaries
    (:meth:`Tableaux.unitaries`) are built ``_TABLE_BLOCK`` entries at a time.
    """
    columns, d = np.asarray(columns), channel.dim
    # probs[t, c, v] = in_basis[t, v ^ m, c]: the X^m undo relabels outcomes
    readouts, slots = np.arange(d) ^ columns[:, None], np.arange(len(columns))[:, None]
    probs = np.empty((len(tableaux), len(columns), d))
    step = max(1, _TABLE_BLOCK // d ** 2)
    for lo in range(0, len(tableaux), step):
        w = tableaux[lo:lo + step].unitaries()
        wh, w_m = np.swapaxes(w.conj(), -1, -2), w[:, :, columns]
        in_basis = np.zeros(w_m.shape)
        for a_op, b_op in channel.operator_pairs():
            a = wh @ (a_op @ w_m)
            b = a if b_op is a_op else wh @ (b_op @ w_m)
            in_basis += (a * b.conj()).real
        probs[lo:lo + step] = np.clip(in_basis, 0.0, None, out=in_basis)[:, readouts, slots]
    probs.setflags(write=False)  # one law serves every element whose row names it
    return probs


def _fidelity_table(form, tableaux: Tableaux, columns) -> np.ndarray:
    """probs[t, c, v] as :func:`_transition_table` gives them, for a map in
    its Pauli form E(P) = f(U P U^dag) U P U^dag
    (:class:`twirltomo.channel_spec.PauliForm`): D fidelity lookups per
    element, with no unitary and no dependence on the Kraus count.

    Column m of element C prepares C |m><m| C^dag = (1/D) sum_z (-1)^(m.z) g_z,
    g_z = C Z^z C^dag the signed products of its Z-images, and the map sends
    g_z to f(U g_z U^dag) U g_z U^dag.  Read out in the basis of C, that
    image counts only where U g_z U^dag = eps g_z' is in the group of the
    g's: it then commutes with every Z-image, and z' is its syndrome against
    the X-images, as C^dag g_z' C = Z^z'.  With h[z] = eps f(U g_z U^dag)
    there (0 elsewhere), outcome v, the readout v ^ m, has

        probs[m, v] = (1/D) sum_z (-1)^(m.z) h[z] (-1)^((v ^ m).z'),

    clipped at 0.  A table takes the readouts v ^ m of its columns as one
    product of sign matrices, the signs (-1)^(m.z) times the rows
    (-1)^(z'.j) scaled by h[z] / D, and relabels them straight into the
    table; a single column scatters h[z] (-1)^(m.(z ^ z')) to z' and takes
    one product with the D x D Walsh-Hadamard signs / D.

    The g_z, with their phases, double over the Z-images by the XZ product
    rule (:meth:`Tableaux.conjugate`), and the syndromes, linear in z, by
    XOR; U g_z U^dag and its phase are looked up in the form's tables of
    the images of every key (``keys``, ``e`` and ``f``).  The elements run
    in blocks whose (elements, columns, D) arrays hold about
    ``_FIDELITY_BLOCK`` entries (256 KiB); each block finds its own
    syndromes, and its arrays go before the next block's are made.
    """
    n, d, count, columns = tableaux.n, 1 << tableaux.n, len(tableaux), np.asarray(columns)
    u_keys, u_e, u_f = form.keys, form.e, form.f
    g_j = tableaux.z.astype(np.int64)  # keys of the g_j: signed ones index with no cast
    g_je = 2 * tableaux.signs[:, 1::2] + np.bitwise_count(g_j & (g_j >> n))
    signs = 1.0 - 2 * (np.bitwise_count(np.arange(d)[:, None] & np.arange(d)) & 1)
    shares = signs / d  # the 1/D of every law, exact: D is a power of two
    # readout j = v ^ m of column c sits at c * D + j
    relabel = (np.arange(0, columns.size * d, d)[:, None]
               + (np.arange(d) ^ columns[:, None])).ravel()
    probs = np.empty((count, len(columns), d))
    step = max(1, _FIDELITY_BLOCK // (d * max(len(columns), _FIDELITY_ROWS)))

    def tabulate(rows):  # one block: its arrays go before the next block's are made
        z_img = tableaux.z[rows]
        # syndromes of U g_j U^dag against the Z-images g_j (high bits) and X-images (z')
        s_j = syndromes(np.hstack((z_img, tableaux.x[rows])), u_keys[z_img], n)
        g, g_e, s = np.zeros((3, len(z_img), d), dtype=np.int64)  # g_z: key, phase
        for j in range(n - 1, -1, -1):  # Z-image j + 1 sets bit n - 1 - j of z
            old, new = slice(0, 1 << (n - 1 - j)), slice(1 << (n - 1 - j), 2 << (n - 1 - j))
            g_e[:, new] = g_e[:, old] + g_je[rows, j, None] + 2 * np.bitwise_count(
                (g[:, old] >> n) & g_j[rows, j, None] & (d - 1))
            np.bitwise_xor(g[:, old], g_j[rows, j, None], out=g[:, new])
            np.bitwise_xor(s[:, old], s_j[:, j, None], out=s[:, new])
        z_to = s & (d - 1)
        at = z_to + np.arange(0, g.size, d)[:, None]  # z' within the block, flat
        # U g_z U^dag = i^(g_e + u_e[g]) P_(u_keys[g]); eps = +-1 where it counts
        eps = _I_POWERS.real[(g_e + u_e[g] - g_e.ravel()[at]) % 4]
        h = np.where(s >> n == 0, eps * u_f[g], 0.0)
        if len(columns) == 1:
            weights = (h * signs[columns[0], np.arange(d) ^ z_to]).ravel()
            probs[rows] = np.bincount(at.ravel(), weights, h.size).reshape(-1, 1, d) @ shares
        else:  # the rows (-1)^(z'.j) / D scaled by h, then the column signs, relabeled in place
            weighted = shares[z_to]
            weighted *= h[:, :, None]
            readouts = signs[columns] @ weighted
            # "clip" on indices in range: the output is not copied first
            np.take(readouts.reshape(len(h), -1), relabel, axis=1,
                    out=probs[rows].reshape(len(h), -1), mode="clip")

    for lo in range(0, count, step):
        tabulate(slice(lo, lo + step))
    np.clip(probs, 0.0, None, out=probs)
    probs.setflags(write=False)  # one law serves every element whose row names it
    return probs


def _pauli_support(channel: ChannelModel):
    """(keys, a, b): the map's operator pairs on their Pauli support,
    A_k = sum_l a[k, l] X^x Z^z over the keys[l] = x | z << n whose
    coefficient is exactly nonzero in some A_k or B_k (b is None for a
    Kraus set, where B_k = A_k); or None when the support law does not pay,
    (K + 4) |S| > 2 D^2 for K distinct operators (:meth:`DenseBackend.laws`).
    The coefficient of key x | z << n is i^|x & z| times that of its
    Hermitian Pauli (:func:`pauli_coefficients`), as X^x Z^z = (-i)^|x & z| P.
    A first pass finds the support, stopping once it is too large, so no
    (K, D^2) array is held."""
    n, d = channel.n, channel.dim
    x, z = np.arange(d * d) % d, np.arange(d * d) // d
    labels = key_labels(n)
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


def _support_laws(support, tableaux: Tableaux, columns) -> np.ndarray:
    """probs[t, c, v] as :func:`_transition_table` gives them, off the map's
    Pauli support (keys, a, b) (:func:`_pauli_support`) with no unitary.

    For each support key, C^dag X^x Z^z C = i^-e X^o Z^t: bit j of o (of t),
    qubit 1 on top, says whether X^x Z^z anticommutes with the Z-image (the
    X-image) of qubit j + 1 (:func:`syndromes`), and C X^o Z^t C^dag =
    i^e X^x Z^z (:meth:`Tableaux.conjugate`).  As X^o Z^t |m> =
    (-1)^(t.m) |o ^ m>, the amplitude of readout v = o from column m under
    A_k is the sum of i^(2 t.m - e) a[k, l] over the keys with that o, and

        probs[m, v] = Re sum_k amp_A_k[v] conj(amp_B_k[v]),

    clipped at 0: K |S| scatter-adds per element and column for K pairs and
    |S| keys, one operator at a time, in blocks of elements whose transients
    (C (D + n |S|) entries each) hold about ``_TABLE_BLOCK``.
    """
    (keys, a, b), columns = support, np.asarray(columns)
    n, d, count = tableaux.n, 1 << tableaux.n, len(tableaux)
    probs, cols = np.empty((count, len(columns), d)), np.arange(len(keys))
    step = max(1, _TABLE_BLOCK // (len(columns) * max(d, n * len(keys))))
    for lo in range(0, count, step):
        block = tableaux[lo:lo + step]
        o, t = syndromes(block.z, keys, n), syndromes(block.x, keys, n)  # (M, |S|)
        _, e = block.conjugate((o | t << n).astype(np.uint64))
        quarter = (2 * np.bitwise_count(t[:, None] & columns[:, None]) - e[:, None]) % 4
        size = len(block) * len(columns) * d
        slots = (np.arange(0, size, d).reshape(len(block), -1, 1) + o[:, None]).ravel()

        def amplitude(coef):  # real and imaginary parts of the block's amplitudes
            turned = _I_POWERS[:, None] * coef  # turned[q, l] = i^q coef[l]
            return (np.bincount(slots, turned.real[quarter, cols].ravel(), size),
                    np.bincount(slots, turned.imag[quarter, cols].ravel(), size))

        laws = np.zeros(size)
        for k in range(len(a)):
            a_re, a_im = amplitude(a[k])
            b_re, b_im = (a_re, a_im) if b is None else amplitude(b[k])
            laws += a_re * b_re
            laws += a_im * b_im
        probs[lo:lo + step] = np.clip(laws, 0.0, None, out=laws).reshape(-1, len(columns), d)
    probs.setflags(write=False)
    return probs


def _shift_outcomes(laws: np.ndarray, z_keys, intermediary: Pauli | None) -> np.ndarray:
    """The (M, D) laws with an intermediary P before the untwirl: row i
    relabeled by P's syndrome against z_keys[i] (:func:`outcome_shift`)."""
    if intermediary is None:
        return laws
    shift = outcome_shift(z_keys, intermediary)
    return np.take_along_axis(laws, np.arange(laws.shape[1]) ^ shift[:, None], axis=1)


class DenseBackend:
    """Dense simulator handed to the protocol runners: the law source that
    :meth:`TwirlSpec.laws` reads, all through :meth:`laws`.  It holds no
    state: every call builds the laws it returns, and a run makes one
    :meth:`laws` call per batch, so nothing would be reused across calls.
    A MUB table serves every intermediary Pauli, and the table of a
    one-qubit-twirl rotation part the laws of all 2^n X parts: at most
    (D+1) D^2 MUB or 3^n 4^n one-qubit-twirl floats per call."""

    check_capacity = staticmethod(_check_dense_cap)  # the one cap, channels.DENSE_MAX_N

    def laws(self, channel: ChannelModel, tableaux: Tableaux, columns) -> np.ndarray:
        """probs[t, c, v] of the elements C of a :class:`Tableaux` stack:
        prepare C X^m |0..0> for m = columns[c], apply the channel, undo C
        and relabel outcome v as v ^ m, so v = 0 means the state survived.
        A MUB or one-qubit-twirl table lists every column, a Clifford law
        column 0 alone.  Three kernels give these laws, the same to rounding
        on any map, without reading ``channel.chi``; the one rule:

        1. A channel with a Pauli form (a spec of Clifford gates and Pauli
           noise, :class:`twirltomo.channel_spec.PauliForm`) takes the
           fidelity law (:func:`_fidelity_table`: some 30 D operations per
           element, whatever K), for any columns, and never composes its
           Kraus set.  Over 1000 Clifford elements at n = 3..6, on channels
           built fresh, it took 1.4-9.2 ms against the support law's
           3.5-11 ms on the benchmark channel (K = 4, |S| = 8), and
           1.4-9.5 ms against 2.2-510 ms with depolarizing noise on every
           qubit.
        2. Otherwise a single column comes from the map's Pauli support
           (:func:`_support_laws`: K |S| scatter-adds per element, no
           unitary) where (K + 4) |S| <= 2 D^2, for K distinct operators on
           |S| Pauli terms (:func:`_pauli_support`, found only for single
           columns).  Over 1000 elements at n = 5 it broke even with the
           dense kernel near |S| = 0.55, 0.3 and 0.12 D^2 for K = 1, 4 and
           16 (the rule switches at 0.4, 0.25 and 0.1 D^2).
        3. Otherwise the dense kernel (:func:`_transition_table`): each
           element's D x D unitary and 2K D^2 multiply-adds per column.
        """
        self.check_capacity(channel.n)
        if tableaux.n != channel.n:
            raise DimensionMismatchError(f"stack on {tableaux.n} qubits, channel on {channel.n}")
        if channel._pauli_form is not None:
            return _fidelity_table(channel._pauli_form, tableaux, columns)
        if len(columns) == 1:
            support = _pauli_support(channel)  # None: the support law does not pay
            if support is not None:
                return _support_laws(support, tableaux, columns)
        return _transition_table(channel, tableaux, columns)

    # -- MUB twirl ----------------------------------------------------------

    def mub_transition_probs(self, channel: ChannelModel, basis: int,
                             intermediary: Pauli | None = None) -> np.ndarray:
        """probs[m, v] of MUB basis ``basis``, an integer in 0..D: prepare
        basis state m (via V_J X^m on |0..0>), apply the channel (and the
        optional extra Pauli), undo the preparation, measure outcome v; v = 0
        is survival.  The Pauli shifts outcomes by its syndrome against the
        basis's Z-images (:func:`outcome_shift`).  Only this basis's table
        is built."""
        if not 0 <= check_int("basis", basis) <= channel.dim:
            raise ValueError(f"MUB basis index must be in 0..{channel.dim}, got {basis}")
        stack = build_mub_family(channel.n)[basis]
        return _shift_outcomes(self.laws(channel, stack, np.arange(channel.dim))[0],
                               stack.z, intermediary)

    # -- generic clifford twirl ----------------------------------------------

    def clifford_outcome_probs(self, channel: ChannelModel, tableaux: Tableaux) -> np.ndarray:
        """(M, D) outcome laws of prepare |0..0>, C, channel, C^dag for the
        elements C of a :class:`Tableaux` stack: column 0 of :meth:`laws`,
        whose rule picks their source.  An intermediary Pauli permutes each
        law (:func:`_shift_outcomes`)."""
        return self.laws(channel, tableaux, [0])[:, 0]

    # -- one-qubit twirl ------------------------------------------------------

    def local_outcome_probs(self, channel: ChannelModel,
                            digits: tuple[tuple[int, int], ...]) -> np.ndarray:
        """Outcome law of prepare |0..0>, the one-qubit-twirl element
        ``digits`` (digits[j] = (pauli 0..3, rotation 0..2) of qubit j + 1),
        the channel, the element undone.  The element is R P, R the rotation
        part, and R P|v> = R|v ^ x> up to phase, x the X part of P: the law
        is row x of the table of the basis R (:meth:`TwirlSpec.laws`)."""
        digits = np.array(digits).reshape(1, -1, 2)
        laws, rows = TwirlSpec("local_clifford", digits.shape[1]).laws(self, channel, digits)
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
    cap = {"mub": MUB_ENUM_MAX_N, "local_clifford": LOCAL_ENUM_MAX_N,
           "clifford_full": CLIFFORD_ENUM_MAX_N}[twirl.kind]
    if twirl.n > cap:
        raise CapacityError(f"{twirl.kind} enumeration capped at n={cap}")
    elements = twirl.elements(np.indices(twirl.layout).reshape(len(twirl.layout), -1).T)
    laws, rows = twirl.laws(backend or DenseBackend(), channel, elements)
    return _shift_outcomes(laws[rows], twirl.z_keys(elements), intermediary).mean(axis=0)
