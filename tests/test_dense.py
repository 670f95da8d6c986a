import functools
import itertools
import math

import numpy as np
import pytest

from conftest import (I_POWERS, battery, chi_channel, cnot_channel, dense_local_probs,
                      draw_outcome_reference, label_table, local_tables, mub_tables,
                      outcome_bits, random_cp_channel, transpose_map_channel)
from twirltomo import channel_spec, dense, localtwirl, seqpt
from twirltomo.channel_spec import build_channel, parse_channel_document
from twirltomo.channels import (ChannelModel, ChiMatrix, amplitude_damping_kraus,
                                depolarizing_kraus, embed_kraus, gate_unitary,
                                pauli_coefficients)
from twirltomo.dense import (DenseBackend, TwirlSpec, enumerate_twirl_exact,
                             exact_chi_extraction, haar_moment_closed_form,
                             haar_twirl_moment, local_twirl_unitary)
from twirltomo.errors import CapacityError, ConfigError, DimensionMismatchError
from twirltomo.localtwirl import _sample_local_batch
from twirltomo.pauli import PAULI_1Q, Pauli
from twirltomo.rng import _draw_outcome, draw_batch, master
from twirltomo.seqpt import SeqptConfig, estimate_chi_selective, run_blind_discovery
from twirltomo.stabilizer import (Tableaux, _key_to_pauli, build_mub_family, clifford_bounds,
                                  grow_cliffords, sample_clifford_uniform)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=float)
Z = np.diag([1.0, -1.0])


def _ket_density(amplitudes):
    v = np.asarray(amplitudes, dtype=complex)
    return np.outer(v, v.conj())


def _measure(rho, n, u):
    """Computational-basis outcome bits of ``rho`` for the uniforms ``u``,
    drawn the way every sampled protocol draws: the Born probabilities are
    cumsummed into a one-row table and every draw reads that row."""
    cdf = np.cumsum(np.clip(np.real(np.diag(rho)), 0.0, None))
    u = np.atleast_1d(u)
    return [outcome_bits(int(v), n)
            for v in _draw_outcome(cdf[None], np.zeros(len(u), dtype=np.int64), u)]


def test_evolve_examples():
    h = ChannelModel.from_unitary(gate_unitary("H", (0,), 1))
    np.testing.assert_allclose(h.apply(_ket_density([1, 0])),
                               _ket_density([1, 1]) / 2, atol=1e-12)
    dep1 = ChannelModel.from_kraus(depolarizing_kraus(1.0))
    np.testing.assert_allclose(dep1.apply(_ket_density([0, 1])), np.eye(2) / 2,
                               atol=1e-12)
    out = cnot_channel().apply(_ket_density([0, 0, 1, 0]))  # |10>
    np.testing.assert_allclose(np.real(np.diag(out)), [0, 0, 0, 1], atol=1e-12)


def test_measure_examples():
    rng = master(1)
    assert _measure(_ket_density([0, 0, 0, 1]), 2, rng.random()) == [(1, 1)]
    plus = _ket_density([1, 1]) / 2
    m = 10000
    ones = sum(b[0] for b in _measure(plus, 1, rng.random(m)))
    assert abs(ones / m - 0.5) <= 3 * 0.5 / np.sqrt(m)
    bell = _ket_density([1, 0, 0, 1]) / 2
    assert set(_measure(bell, 2, rng.random(200))) <= {(0, 0), (1, 1)}


def test_measure_deterministic_under_seed():
    """The same seed gives the same outcomes, for one Born draw and for a
    whole batch of one-qubit-twirl realizations."""
    plus = _ket_density([1, 1]) / 2
    assert _measure(plus, 1, master(7).random(50)) == _measure(plus, 1, master(7).random(50))
    ch = random_cp_channel(2, master(3))
    a = _sample_local_batch(ch, 7, 200, DenseBackend())
    b = _sample_local_batch(ch, 7, 200, DenseBackend())
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_haar_closed_form_examples():
    assert abs(haar_moment_closed_form(I2, I2, I2, I2) - 2.0) < 1e-12
    assert abs(haar_moment_closed_form(Z, Z, X, X) - (-2 / 3)) < 1e-12


def test_haar_moment_pauli_case():
    res = haar_twirl_moment(Z, Z, X, X, samples=100000, rng=master(2))
    assert res.deviation_sigmas <= 3.0
    assert abs(res.estimate - res.closed_form) <= 0.01 * abs(res.closed_form) + 0.005


def test_haar_moment_random_operators():
    rng = master(3)
    for dim in (2, 4):
        ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
               for _ in range(4)]
        res = haar_twirl_moment(*ops, samples=60000, rng=rng)
        assert res.deviation_sigmas <= 3.5


def test_haar_moment_runs_in_chunks(monkeypatch):
    """With the chunk forced below the sample count, the estimate is the
    mean of the integrand over every chunk's unitaries, the last chunk
    partial, drawn in order from the one generator."""
    monkeypatch.setattr(dense, "_HAAR_CHUNK", 7)
    rng = master(5)
    a1, a2, b1, b2 = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4))
    res = haar_twirl_moment(a1, a2, b1, b2, samples=20, rng=master(6))
    draws = master(6)
    vals = [np.trace(a1 @ u.conj().T @ b1 @ u @ a2 @ u.conj().T @ b2 @ u)
            for m in (7, 7, 6) for u in dense.haar_random_unitaries(3, m, draws)]
    assert res.samples == 20
    assert abs(res.estimate - np.mean(vals)) <= 1e-12
    assert abs(res.stderr - np.sqrt((np.var(np.real(vals), ddof=1)
                                     + np.var(np.imag(vals), ddof=1)) / 20)) <= 1e-12


@pytest.mark.parametrize("dim, samples, passes", [
    (2, 40003, [20000, 20000, 3]), (4, 40003, [20000, 20000, 3]),
    (8, 10003, [5000, 5000, 3]), (64, 160, [78, 78, 4])])
def test_haar_passes_are_bounded_by_entries(monkeypatch, dim, samples, passes):
    """A pass draws min(_HAAR_CHUNK, _HAAR_ENTRIES // D^2) unitaries: the
    full 20,000 up to D = 4, then fewer, so that each pass's arrays keep
    to 320,000 entries."""
    drawn, draw = [], dense.haar_random_unitaries

    def counted(d, count, rng):
        drawn.append(count)
        return draw(d, count, rng)

    monkeypatch.setattr(dense, "haar_random_unitaries", counted)
    ops = [np.eye(dim, dtype=complex)] * 4
    assert haar_twirl_moment(*ops, samples=samples, rng=master(7)).samples == samples
    assert drawn == passes


def test_haar_dimension_past_the_cap_raises_before_drawing():
    """D = 65, past 2^DENSE_MAX_N, raises CapacityError and leaves the
    generator untouched; so does a sample count past HAAR_MAX_SAMPLES,
    whose values would be held at once."""
    ops = [np.eye(65, dtype=complex)] * 4
    rng = master(4)
    with pytest.raises(CapacityError, match="D=64"):
        haar_twirl_moment(*ops, samples=100, rng=rng)
    for samples in (dense.HAAR_MAX_SAMPLES + 1, 10 ** 18):
        with pytest.raises(CapacityError, match="capped at 10000000 samples"):
            haar_twirl_moment(*[np.eye(2, dtype=complex)] * 4, samples=samples, rng=rng)
    assert rng.random() == master(4).random()


@pytest.mark.parametrize("dim, samples", [(1, 100), (0, 100), (2, 1), (2, 0), (2, 2.5),
                                          (2, np.float64(3.0)), (2, "3"), (2, True)])
def test_haar_edge_inputs_raise_before_drawing(dim, samples):
    """Operators smaller than 2 x 2 (the closed form divides by D^2 - 1),
    fewer than 2 samples (the standard error needs a sample variance) and a
    sample count that is not an integer raise ConfigError, not a numpy
    error, and the generator is left untouched."""
    ops = [np.eye(dim, dtype=complex)] * 4
    rng = master(4)
    with pytest.raises(ConfigError):
        haar_twirl_moment(*ops, samples=samples, rng=rng)
    assert rng.random() == master(4).random()
    if dim < 2:
        with pytest.raises(ConfigError):
            haar_moment_closed_form(*ops)


def test_exact_chi_extraction_examples():
    ident = ChannelModel.identity(1)
    assert abs(exact_chi_extraction(ident, 0, 0) - 1.0) < 1e-12
    assert abs(exact_chi_extraction(ident, 2, 2)) < 1e-12
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    assert abs(exact_chi_extraction(dep, 1, 1) - 0.075) < 1e-10


def test_exact_chi_extraction_matches_kraus_route():
    rng = master(4)
    for n in (1, 2):
        for _ in range(3):
            ch = random_cp_channel(n, rng)
            chi = ch.chi.mat
            for l in range(4 ** n):
                assert abs(exact_chi_extraction(ch, l, l) - chi[l, l]) < 1e-10
            # a few off-diagonal elements
            for l, lp in ((0, 1), (1, 2), (0, 4 ** n - 1)):
                assert abs(exact_chi_extraction(ch, l, lp) - chi[l, lp]) < 1e-10


def test_twirl_survival_identity_examples():
    ident = ChannelModel.identity(1)
    for l in range(4):
        dist = enumerate_twirl_exact(ident, TwirlSpec("mub", 1),
                                     intermediary=Pauli.from_label(1, l))
        want = 1.0 if l == 0 else 1.0 / 3.0
        assert abs(dist[0] - want) < 1e-12
    dep = ChannelModel.from_kraus(depolarizing_kraus(0.3))
    dist = enumerate_twirl_exact(dep, TwirlSpec("mub", 1))
    assert abs(dist[0] - 0.85) < 1e-12


def test_twirl_survival_matches_chi_for_every_label():
    """Exact MUB survival with intermediary P_l equals (D chi_ll + 1)/(D+1)."""
    rng = master(5)
    for n in (1, 2):
        d = 1 << n
        for _ in range(3):
            ch = random_cp_channel(n, rng)
            chi = ch.chi.mat
            for l in range(4 ** n):
                dist = enumerate_twirl_exact(ch, TwirlSpec("mub", n),
                                             intermediary=Pauli.from_label(n, l))
                want = (d * chi[l, l].real + 1.0) / (d + 1.0)
                assert abs(dist[0] - want) < 1e-10


def test_mub_equals_full_clifford_average_n1():
    """At n=1 the two finite twirls give identical exact outcome spectra."""
    rng = master(6)
    for _ in range(3):
        ch = random_cp_channel(1, rng)
        d_mub = enumerate_twirl_exact(ch, TwirlSpec("mub", 1))
        d_cl = enumerate_twirl_exact(ch, TwirlSpec("clifford_full", 1))
        np.testing.assert_allclose(d_mub, d_cl, atol=1e-10)


def test_mub_equals_full_clifford_survival_n2():
    """At n=2 survival probabilities agree exactly (full distributions do not:
    the D(D+1)-state family matches the group average only through second
    moments of the prepared state)."""
    ch = random_cp_channel(2, master(7))
    d_mub = enumerate_twirl_exact(ch, TwirlSpec("mub", 2))
    d_cl = enumerate_twirl_exact(ch, TwirlSpec("clifford_full", 2))
    assert abs(d_mub[0] - d_cl[0]) < 1e-10


def _enumerate_reference(channel, kind, intermediary=None, column=0):
    """The per-element enumeration: one unitary and one channel application
    per twirl element, its outcome law read by ``_reference_row``, averaged
    in family order.  A MUB element is a basis and one of its columns; a
    one-qubit-twirl element prepares column ``column`` of its unitary (the
    input state |column> before the twirl)."""
    n, d = channel.n, channel.dim
    pm = None if intermediary is None else intermediary.to_matrix()
    if kind == "mub":
        elements = ((w, m) for w in build_mub_family(n).unitaries() for m in range(d))
    else:
        elements = ((local_twirl_unitary(digits), column) for digits in itertools.product(
            itertools.product(range(4), range(3)), repeat=n))
    total, count = np.zeros(d), 0
    for w, m in elements:
        total += _reference_row(channel, w, m, pm)
        count += 1
    return total / count


def test_enumeration_equals_per_element_reference():
    """The MUB and one-qubit-twirl enumerations, read off the backend's
    tables, equal the per-element enumeration within 1e-12: every
    intermediary Pauli (and none) on the battery at n = 1, 2; none and two
    random Paulis on the battery at n = 3; and none and one random Pauli on
    the non-CP transpose map and on a random CP map at n = 4 (one-qubit
    twirl only, past the MUB enumeration cap)."""
    rng = master(100)
    channels = [*battery(), ("transpose", transpose_map_channel()),
                ("random-cp-4", random_cp_channel(4, master(101)))]
    for name, ch in channels:
        n = ch.n
        if n <= 2:
            paulis = [Pauli.from_label(n, l) for l in range(4 ** n)]
        else:
            paulis = [Pauli.from_label(n, int(l))
                      for l in rng.integers(1, 4 ** n, size=2 if n == 3 else 1)]
        backend = DenseBackend()
        for kind in ("mub", "local_clifford") if n <= dense.MUB_ENUM_MAX_N else ("local_clifford",):
            for inter in (None, *paulis):
                got = enumerate_twirl_exact(ch, TwirlSpec(kind, n), inter, backend)
                want = _enumerate_reference(ch, kind, inter)
                assert np.abs(got - want).max() <= 1e-12, (name, kind, str(inter))


def test_local_twirl_fidelity_input_independent():
    """The one-qubit-twirled fidelity of every computational input, by the
    per-element enumeration, equals c1t_fidelity (which reads input |0..0>
    off the rotation tables): the battery at n <= 2 and a random CP map at
    n = 3."""
    from twirltomo.localtwirl import c1t_fidelity
    for name, ch in [*battery(max_n=2), battery(max_n=3)[-1]]:
        f = c1t_fidelity(ch)
        assert 0.0 <= f <= 1.0 + 1e-12, name
        for v in range(ch.dim):
            fid = _enumerate_reference(ch, "local_clifford", column=v)[0]
            assert abs(fid - f) <= 1e-12, (name, v)


def test_enumeration_caps():
    big = ChannelModel.identity(4)
    with pytest.raises(CapacityError):
        enumerate_twirl_exact(big, TwirlSpec("mub", 4))
    with pytest.raises(CapacityError):
        enumerate_twirl_exact(big, TwirlSpec("clifford_full", 4))


def _one_clifford(n):
    return Tableaux.of([sample_clifford_uniform(n, master(9))])


@pytest.mark.parametrize("entry", [
    lambda ch, p, b: enumerate_twirl_exact(ch, TwirlSpec("mub", 2), p, b),
    lambda ch, p, b: enumerate_twirl_exact(ch, TwirlSpec("local_clifford", 2), p, b),
    lambda ch, p, b: enumerate_twirl_exact(ch, TwirlSpec("clifford_full", 2), p, b),
    lambda ch, p, b: b.mub_transition_probs(ch, 3, p),
    lambda ch, p, b: dense._shift_outcomes(
        b.clifford_outcome_probs(ch, _one_clifford(2)), _one_clifford(2).z, p),
    lambda ch, p, b: b.clifford_outcome_probs(ch, _one_clifford(p.n)),
    lambda ch, p, b: enumerate_twirl_exact(ch, TwirlSpec("mub", p.n), None, b),
    lambda ch, p, b: enumerate_twirl_exact(ch, TwirlSpec("local_clifford", p.n), None, b),
], ids=["enum-mub", "enum-local", "enum-clifford", "mub-table", "clifford-law",
        "clifford-qubits", "mub-twirl-qubits", "local-twirl-qubits"])
def test_intermediary_qubit_mismatch_names_both_counts(entry):
    """An intermediary Pauli on another number of qubits than the channel
    raises DimensionMismatchError naming both counts, from outcome_shift;
    so does a Clifford or a twirl family on another number of qubits (the
    Pauli's count)."""
    ch = random_cp_channel(2, master(8))
    for label, k in (("X", 1), ("XYZ", 3)):
        with pytest.raises(DimensionMismatchError, match=f"on {k} qubits, .* on 2"):
            entry(ch, Pauli.from_string(label), DenseBackend())


def test_twirl_spec_sizes():
    """Sizes of the enumerable kinds; an unknown kind (names are case
    sensitive) or fewer than one qubit raises ConfigError at construction."""
    assert math.prod(TwirlSpec("mub", 2).layout) == 20
    assert math.prod(TwirlSpec("local_clifford", 2).layout) == 144
    for kind, n in (("MUB", 2), ("clifford", 2), ("haar_state", 2), ("mub", 0), ("mub", -1),
                    ("local_clifford", -1)):
        with pytest.raises(ConfigError):
            TwirlSpec(kind, n)


@pytest.mark.parametrize("n", [True, np.True_, 2.5, "2", None])
def test_twirl_spec_qubit_count_must_be_an_integer(n):
    """A bool or a non-integer qubit count raises ConfigError naming n,
    instead of running as one qubit (True) or failing in a comparison; a
    numpy integer is kept as a Python int."""
    with pytest.raises(ConfigError, match="^n must be an integer"):
        TwirlSpec("mub", n)
    twirl = TwirlSpec("mub", np.int64(2))
    assert type(twirl.n) is int and twirl.layout == (5, 4)


def test_mub_transition_probs_rejects_a_basis_outside_the_family():
    """A basis index outside 0..D raises ValueError naming the range; D,
    the last basis, is table D of the family's tables.  The backend keeps
    nothing between calls."""
    ch = random_cp_channel(2, master(10))
    backend = DenseBackend()
    for basis in (-1, 5, 100):
        with pytest.raises(ValueError, match=r"0\.\.4, got"):
            backend.mub_transition_probs(ch, basis)
    assert np.array_equal(backend.mub_transition_probs(ch, 4), mub_tables(ch)[4])
    assert vars(backend) == {}


def test_law_methods_reject_bad_inputs():
    """On an amplitude-damping spec at n = 2 the law methods raise instead of
    returning another element's law or dying inside numpy: a rotation digit
    outside 0..2 (a 3 would overflow into the next base-3 place) or a Pauli
    digit outside 0..3 raises ValueError, in local_outcome_probs and the
    one-qubit TwirlSpec.laws alike (laws names the first bad row; a
    Pauli digit of 7 would act as I); a wrong qubit count raises
    DimensionMismatchError; a bool or non-integer MUB basis raises
    ValueError, and so does a MUB element row outside the layout, naming the
    row (a basis of -1 would read basis 4's law, one of 5 would fail later
    in the caller's index).
    An empty stack of rotation parts gives an empty stack of tables."""
    ch = _spec_channel(2, [{"named_gate": "CNOT", "qubits": [1, 2]},
                           {"noise": "amplitude_damping", "strength": 0.2, "qubits": [2]}])
    backend = DenseBackend()
    for digits in (((0, 3), (0, 0)), ((7, 0), (0, 0)), ((0, 0), (0, -1)), ((-1, 0), (0, 0))):
        with pytest.raises(ValueError, match=r"\(pauli 0\.\.3, rotation 0\.\.2\), got"):
            backend.local_outcome_probs(ch, digits)
    for wrong_n in (lambda: backend.local_outcome_probs(ch, ((0, 0),) * 3),
                    lambda: backend.laws(ch, dense._rotation_tableaux([[0, 0, 0]]), np.arange(4)),
                    lambda: backend.clifford_outcome_probs(ch, build_mub_family(3))):
        with pytest.raises(DimensionMismatchError):
            wrong_n()
    for basis in (True, False, np.True_, 1.0):
        with pytest.raises(ValueError, match="basis must be an integer"):
            backend.mub_transition_probs(ch, basis)
    for rows, bad in (([[0, 0], [-1, 0]], r"row 1: \[-1, 0\]"), ([[5, 0]], r"row 0: \[5, 0\]"),
                      ([[4, 3], [0, 4]], r"row 1: \[0, 4\]"), ([[2, -1]], r"row 0: \[2, -1\]")):
        with pytest.raises(ValueError, match=r"\(basis 0\.\.4, state 0\.\.3\) rows, got " + bad):
            TwirlSpec("mub", 2).laws(backend, ch, np.array(rows))
    for rows, bad in (([[[0, 0], [0, 0]], [[0, 3], [0, 0]]], r"row 1: \[\[0, 3\], \[0, 0\]\]"),
                      ([[[7, 0], [0, 0]]], r"row 0: \[\[7, 0\], \[0, 0\]\]"),
                      ([[[1, 2], [3, 1]], [[0, 0], [0, -1]]], r"row 1: \[\[0, 0\], \[0, -1\]\]"),
                      ([[[-1, 0], [0, 0]]], r"row 0: \[\[-1, 0\], \[0, 0\]\]")):
        with pytest.raises(ValueError, match=r"\(pauli 0\.\.3, rotation 0\.\.2\), got " + bad):
            TwirlSpec("local_clifford", 2).laws(backend, ch, np.array(rows))
    assert np.array_equal(backend.local_outcome_probs(ch, ((1, 2), (0, 0))),
                          local_tables(ch, [[2, 0]])[0, 2])
    assert np.array_equal(backend.mub_transition_probs(ch, np.int64(1)), mub_tables(ch)[1])
    assert local_tables(ch, np.empty((0, 2), dtype=int)).shape == (0, 4, 4)


def test_backend_capacity():
    """The backend's one cap is the dense cap of channels, n <= 6."""
    DenseBackend().check_capacity(6)
    with pytest.raises(CapacityError, match="capped at n=6, got 7"):
        DenseBackend().check_capacity(7)


def _dense_clifford_probs(channel, clifford, intermediary=None):
    """Reference outcome law from the dense unitary and channel.apply."""
    w = clifford.unitary()
    v = w[:, 0]
    sigma = channel.apply(np.outer(v, v.conj()))
    if intermediary is not None:
        pm = intermediary.to_matrix()
        sigma = pm @ sigma @ pm.conj().T
    return np.clip(np.einsum("im,ij,jm->m", w.conj(), sigma, w).real, 0.0, None)


def test_clifford_outcome_probs_match_dense_reference():
    """The tableau outcome law equals the dense one to 1e-12: 50 uniform
    Cliffords per n = 1..3 on every battery channel and the chi-only,
    non-CP transpose map, with and without an intermediary Pauli."""
    backend = DenseBackend()
    rng = master(77)
    channels = [*battery(), ("transpose", transpose_map_channel())]
    for n in (1, 2, 3):
        cliffords = [sample_clifford_uniform(n, rng) for _ in range(50)]
        for name, ch in channels:
            if ch.n != n:
                continue
            for c in cliffords:
                p = Pauli.from_label(n, int(rng.integers(0, 4 ** n)))
                one = Tableaux.of([c])
                for inter in (None, p):
                    got = dense._shift_outcomes(backend.clifford_outcome_probs(ch, one),
                                                one.z, inter)[0]
                    want = _dense_clifford_probs(ch, c, inter)
                    assert np.abs(got - want).max() <= 1e-12, (name, n, str(inter))


def _tableau_law_reference(channel, clifford, intermediary=None):
    """One element's law from its tableau and the chi matrix: each Pauli
    conjugates to a phased Pauli, C^dag P_l C = theta_l X^a Z^b, and
    X^a Z^b |0..0> = |a>, so with L(rho) = sum chi[l,l'] P_l rho P_l'

        probs[a] = Re sum_{b,b'} theta chi[l(a,b), l(a,b')] conj(theta')

    clipped at 0.  The images of X^a Z^b come from doubling over the
    element's Pauli images on Python ints (``conftest.conjugated_xz_table``
    for one element)."""
    n, d = channel.n, channel.dim
    x = z = e = np.zeros(1, dtype=np.int64)
    for g in (*clifford.z_images[::-1], *clifford.x_images[::-1]):
        g_e = g.phase_pow + (g.x & g.z).bit_count()
        e = np.concatenate((e, e + g_e + 2 * np.bitwise_count(x & g.z)))
        x = np.concatenate((x, x ^ g.x))
        z = np.concatenate((z, z ^ g.z))
    labels = label_table(n)[x, z].reshape(d, d)
    phi = I_POWERS[(e - np.bitwise_count(x & z)) % 4].reshape(d, d)
    block = channel.chi.mat[labels[:, :, None], labels[:, None, :]]
    probs = np.einsum("ab,abc,ac->a", phi.conj(), block, phi).real
    if intermediary is not None:
        a_p = int(np.flatnonzero(labels.ravel() == intermediary.label)[0]) >> n
        probs = probs[np.arange(d) ^ a_p]
    return np.clip(probs, 0.0, None)


def _law_source(channel):
    """The kernel that DenseBackend.laws picks for a single column."""
    if dense._pauli_support(channel) is not None:
        return "support"
    return "dense" if channel._pauli_form is None else "form"


def test_stacked_clifford_laws_equal_per_element_reference(monkeypatch):
    """The laws of a Tableaux stack, shifted by an intermediary or not,
    equal the chi-tableau reference within 1e-14 on the battery, a
    full-rank Kraus map (K = D^2), the non-CP transpose map, a non-Hermitian
    chi map, non-TP maps, the benchmark channel and Pauli specs of large
    support, which between them take each of the three law sources.  With
    the blocks (``_TABLE_BLOCK``, and ``_FIDELITY_BLOCK`` of the form)
    forced to one element and to all of them, the laws are bit-identical,
    and each row equals the law of the one-row stack of that Clifford bit
    for bit."""
    backend = DenseBackend()
    rng = master(78)
    count = 40
    full_rank = ("full-rank-3", random_cp_channel(3, master(83), n_kraus=64))
    sources = set()
    for name, ch in [*_table_test_channels(), full_rank, ("noisy-cnot-3", _noisy_cnot(3)),
                     ("noisy-cnot-2", _noisy_cnot(2)),
                     *((f"full-support-{n}", _full_support_spec(n)) for n in (1, 2, 3))]:
        n = ch.n
        rows, _ = draw_batch(int(rng.integers(0, 2 ** 32)), 1, count, clifford_bounds(n), 0)
        tableaux = grow_cliffords(n, rows)
        p = Pauli.from_label(n, int(rng.integers(1, 4 ** n)))
        sources.add(_law_source(ch))
        for inter in (None, p):
            want = np.array([_tableau_law_reference(ch, tableaux.clifford(i), inter)
                             for i in range(count)])
            laws = []
            for block in (1, 1 << 30):
                monkeypatch.setattr(dense, "_TABLE_BLOCK", block)
                monkeypatch.setattr(dense, "_FIDELITY_BLOCK", block)
                got = dense._shift_outcomes(backend.clifford_outcome_probs(ch, tableaux),
                                            tableaux.z, inter)
                assert got.shape == (count, ch.dim)
                assert np.abs(got - want).max() <= 1e-14, (name, str(inter))
                for i in range(count):
                    one = Tableaux.of([tableaux.clifford(i)])
                    law = dense._shift_outcomes(backend.clifford_outcome_probs(ch, one),
                                                one.z, inter)
                    assert np.array_equal(law[0], got[i]), (name, str(inter), block, i)
                laws.append(got)
            assert np.array_equal(*laws), (name, str(inter))
        assert backend.clifford_outcome_probs(ch, tableaux[:0]).shape == (0, ch.dim)
    assert sources == {"support", "form", "dense"}


def _spec_channel(n, build):
    return build_channel(parse_channel_document({"name": "t", "n": n, "build": build}))


def _noisy_cnot(n):
    """The benchmark channel: CNOT(1,2), then 5% depolarizing on qubit 1."""
    return _spec_channel(n, [{"named_gate": "CNOT", "qubits": [1, 2]},
                             {"noise": "depolarizing", "strength": 0.05, "qubits": [1]}])


def _support_test_channels():
    """The table-test maps (battery, chi-only, non-CP, non-Hermitian chi,
    non-TP) plus spec-built maps at n = 2..4: amplitude damping after a
    CNOT, a ``kraus`` layer and the benchmark channel."""
    ops = embed_kraus(amplitude_damping_kraus(0.3), 1, 2)
    kraus_layer = {"kraus": [[[[z.real, z.imag] for z in row] for row in op.tolist()]
                             for op in ops]}
    return [*_table_test_channels(),
            ("kraus-layer-2", _spec_channel(2, [{"named_gate": "H", "qubits": [1]},
                                                kraus_layer])),
            *((f"amp-damp-after-cnot-{n}", _spec_channel(n, [
                {"named_gate": "CNOT", "qubits": [1, 2]},
                {"noise": "amplitude_damping", "strength": 0.2, "qubits": [n]}]))
              for n in (2, 3, 4)),
            *((f"noisy-cnot-{n}", _noisy_cnot(n)) for n in (2, 3, 4))]


def test_support_laws_equal_transition_table_rows():
    """The Pauli-support law equals the elements' whole transition tables
    within 1e-15, on every map's full Pauli decomposition, whichever law
    the backend picks for it.  The decomposition reads pauli_coefficients
    by label (conftest's label_table) with the phase i^|x & z|; summed back
    over X^x Z^z, it gives each operator of the pairs to rounding.  The
    benchmark channel has 8 support terms at every n, and the backend keeps
    exactly those, with the same coefficients bit for bit."""
    rng = master(79)
    for name, ch in _support_test_channels():
        n = ch.n
        # X^x Z^z = (-i)^|x & z| P for the Hermitian Pauli P of key x | z << n
        xz = np.array([_key_to_pauli(k, n).to_matrix() * (-1j) ** (k & (k >> n)).bit_count()
                       for k in range(4 ** n)])
        keys = np.arange(4 ** n)
        x, z = keys % ch.dim, keys // ch.dim
        a, b = (np.array([pauli_coefficients(pair[side])[label_table(n)[x, z]]
                          * I_POWERS[np.bitwise_count(x & z) % 4]
                          for pair in ch.operator_pairs()]) for side in (0, 1))
        for coef, side in ((a, 0), (b, 1)):
            ops = np.array([pair[side] for pair in ch.operator_pairs()])
            assert np.abs(np.tensordot(coef, xz, 1) - ops).max() <= 1e-14, name
        rows, _ = draw_batch(int(rng.integers(0, 2 ** 32)), 1, 60, clifford_bounds(n), 0)
        tableaux = grow_cliffords(n, rows)
        every = np.arange(ch.dim)
        want = dense._transition_table(ch, tableaux, every)
        got = dense._support_laws((np.arange(4 ** n, dtype=np.uint64), a, b), tableaux, every)
        assert np.abs(got - want).max() <= 1e-15, name
        nonzero = np.flatnonzero((a != 0).any(axis=0) | (b != 0).any(axis=0))
        support = dense._pauli_support(ch)
        if support is not None:
            assert np.array_equal(support[0], nonzero), name
            assert np.array_equal(support[1], a[:, nonzero]), name
            got = dense._support_laws(support, tableaux, [0])[:, 0]
            assert np.abs(got - want[:, 0]).max() <= 1e-15, name
        if name.startswith("noisy-cnot"):  # K = 4, |S| = 8: the support law from n = 3
            assert len(nonzero) == 8 and (support is None) == (n == 2), name


# ---------------------------------------------------------------------------
# the Pauli-fidelity law of specs made of Clifford gates and Pauli noise


def _random_pauli_build(n, rng, layers=6):
    """The build list of a spec of ``layers`` random layers: H, S, X, Y, Z or
    CNOT gates, and depolarizing, bit-flip or phase-flip noise of strength up
    to 0.3 on a random set of qubits."""
    build = []
    for _ in range(layers):
        if rng.random() < 0.6:
            gate = str(rng.choice(["H", "S", "X", "Y", "Z"] + ["CNOT"] * 2 * (n > 1)))
            qubits = rng.choice(n, 2 if gate == "CNOT" else 1, replace=False) + 1
            build.append({"named_gate": gate, "qubits": qubits.tolist()})
        else:
            qubits = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False)) + 1
            build.append({"noise": str(rng.choice(["depolarizing", "bit_flip", "phase_flip"])),
                          "strength": float(rng.uniform(0, 0.3)), "qubits": qubits.tolist()})
    return build


def _random_pauli_spec(n, rng):
    return _spec_channel(n, _random_pauli_build(n, rng))


def _fidelity_law_channels():
    """Three random Pauli specs at each n = 1..4, the benchmark channel at
    n = 3..6 and a spec with no gate, all with a Pauli form."""
    rng = master(130)
    return [*((f"random-{n}-{i}", _random_pauli_spec(n, rng)) for n in (1, 2, 3, 4)
              for i in range(3)),
            *((f"noisy-cnot-{n}", _noisy_cnot(n)) for n in (3, 4, 5, 6)),
            ("noise-only-2", _spec_channel(2, [
                {"noise": "bit_flip", "strength": 0.2, "qubits": [2]},
                {"noise": "depolarizing", "strength": 0.1, "qubits": [1, 2]}]))]


def _law_stacks(n, rng):
    """(name, tableaux, columns) of the three uses of a law: every
    MUB basis, the one-qubit-twirl rotation parts (all up to n = 4, 40 of
    them past it) and column 0 of 100 random Clifford elements."""
    rotations = np.array(list(itertools.product(range(3), repeat=n)))
    if n > 4:
        rotations = rotations[rng.choice(len(rotations), 40, replace=False)]
    rows, _ = draw_batch(int(rng.integers(0, 2 ** 32)), 1, 100, clifford_bounds(n), 0)
    cliffords = grow_cliffords(n, rows)
    every = np.arange(1 << n)
    return [("mub", build_mub_family(n), every),
            ("local", dense._rotation_tableaux(rotations), every),
            ("clifford", cliffords, [0])]


def test_fidelity_tables_equal_transition_tables():
    """_fidelity_table equals _transition_table on the same bases, for MUB
    tables, one-qubit-twirl tables and Clifford column-0 laws, on random
    Pauli specs at n = 1..4 and the benchmark channel at n = 3..6.

    The bound is 4e-15, not 1e-15: the dense kernel's own rounding reaches
    that far.  Against an exact reference (the next test) the fidelity law
    is within 1e-15, and the dense one was measured up to 2.8e-15 off on
    these specs."""
    rng = master(131)
    for name, ch in _fidelity_law_channels():
        assert ch._pauli_form is not None, name
        for use, tableaux, columns in _law_stacks(ch.n, rng):
            got = dense._fidelity_table(ch._pauli_form, tableaux, columns)
            want = dense._transition_table(ch, tableaux, columns)
            assert got.shape == want.shape and not got.flags.writeable, (name, use)
            assert np.abs(got - want).max() <= 4e-15, (name, use)


def _exact_kraus(n, build):
    """The Kraus operators of a spec of gates and Pauli noise in long
    double, from exact gate entries and noise strengths."""
    paulis = PAULI_1Q.astype(np.clongdouble)
    root = np.sqrt(np.longdouble(2))
    gates = {"H": np.array([[1, 1], [1, -1]], dtype=np.clongdouble) / root,
             "S": np.diag([1, 1j]).astype(np.clongdouble), "X": paulis[1], "Y": paulis[2],
             "Z": paulis[3]}

    def on(op, q):
        out = np.ones((1, 1), dtype=np.clongdouble)
        for j in range(n):
            out = np.kron(out, op if j == q else paulis[0])
        return out

    ops = [np.eye(1 << n, dtype=np.clongdouble)]
    for layer in build:
        qubits = [q - 1 for q in layer["qubits"]]
        if "named_gate" in layer:
            gate = layer["named_gate"]
            g = (gate_unitary("CNOT", tuple(qubits), n).astype(np.clongdouble) if gate == "CNOT"
                 else on(gates[gate], qubits[0]))
            ops = [g @ a for a in ops]
            continue
        p = np.longdouble(layer["strength"])
        kraus = {"depolarizing": [np.sqrt(1 - 3 * p / 4)] + [np.sqrt(p / 4)] * 3,
                 "bit_flip": [np.sqrt(1 - p), np.sqrt(p), 0, 0],
                 "phase_flip": [np.sqrt(1 - p), 0, 0, np.sqrt(p)]}[layer["noise"]]
        for q in qubits:
            ops = [on(c * paulis[k], q) @ a for k, c in enumerate(kraus) if c for a in ops]
    return ops


def test_fidelity_tables_equal_exact_tables():
    """On random Pauli specs at n = 1..3, the fidelity law of every MUB
    basis, every rotation part and 30 Clifford elements is within 1e-15 of
    the table computed in long double from exact gates and noise strengths,
    on the rotation parts in long double and on the float64 unitaries of
    the MUB and Clifford bases."""
    rng = master(132)
    rots = [np.array(r, dtype=np.clongdouble) / np.sqrt(np.longdouble(2))
            for r in ([[1, -1j], [-1j, 1]], [[1, -1], [1, 1]], [[1 - 1j, 0], [0, 1 + 1j]])]
    for n in (1, 2, 3):
        for _ in range(2):
            build = _random_pauli_build(n, rng)
            ch = _spec_channel(n, build)
            kraus = _exact_kraus(n, build)
            rotations = np.array(list(itertools.product(range(3), repeat=n)))
            rows, _ = draw_batch(int(rng.integers(0, 2 ** 32)), 1, 30, clifford_bounds(n), 0)
            cliffords = grow_cliffords(n, rows)
            for tableaux, bases, columns in [
                    (build_mub_family(n), build_mub_family(n).unitaries(), range(1 << n)),
                    (dense._rotation_tableaux(rotations),
                     [functools.reduce(np.kron, (rots[s] for s in r))
                      for r in rotations.tolist()], range(1 << n)),
                    (cliffords, cliffords.unitaries(), [0])]:
                want = np.array([[_exact_row(kraus, w, m) for m in columns] for w in bases])
                got = dense._fidelity_table(ch._pauli_form, tableaux, list(columns))
                assert np.abs(got - want).max() <= 1e-15, build


def _exact_row(kraus, w, m):
    """Row m of the transition table of basis w, in the precision of w."""
    v = w[:, m]
    sigma = sum(k @ np.outer(v, v.conj()) @ k.conj().T for k in kraus)
    readout = np.einsum("im,ij,jm->m", w.conj(), sigma, w).real
    return readout[np.arange(len(v)) ^ m]


def test_pauli_form_acts_on_paulis():
    """The compiled form gives the spec's map on every Pauli P at n <= 3:
    E(P) = f(U P U^dag) U P U^dag, with U P U^dag (signs included) and its
    fidelity read off the form's tables of the images of every key."""
    rng = master(133)
    for n in (1, 2, 3):
        for _ in range(4):
            ch = _random_pauli_spec(n, rng)
            form = ch._pauli_form
            images, e, f = form.keys, form.e, form.f
            for key in range(4 ** n):
                p = _key_to_pauli(key, n)
                image = _key_to_pauli(int(images[key]), n)
                # U X^x Z^z U^dag = i^e X^x' Z^z', and P = i^|x & z| X^x Z^z
                phase = 1j ** (e[key] + (p.x & p.z).bit_count() - (image.x & image.z).bit_count())
                want = f[key] * phase * image.to_matrix()
                assert np.abs(ch.apply(p.to_matrix()) - want).max() <= 1e-12, (n, str(p))


def test_specs_outside_the_form_keep_their_laws():
    """Specs with an amplitude-damping or a kraus layer, and maps built any
    other way, get no Pauli form, and their laws are bit for bit those of
    the same Kraus operators in a plain ChannelModel."""
    ops = embed_kraus(amplitude_damping_kraus(0.3), 1, 2)
    kraus_layer = {"kraus": [[[[z.real, z.imag] for z in row] for row in op.tolist()]
                             for op in ops]}
    specs = [_spec_channel(2, [{"named_gate": "H", "qubits": [1]}, kraus_layer]),
             *(_spec_channel(n, [{"named_gate": "CNOT", "qubits": [1, 2]},
                                 {"noise": "depolarizing", "strength": 0.05, "qubits": [1]},
                                 {"noise": "amplitude_damping", "strength": 0.2, "qubits": [n]}])
               for n in (2, 3))]
    others = [random_cp_channel(2, master(134)), cnot_channel(),
              chi_channel(_noisy_cnot(2).chi), ChannelModel.from_kraus(_noisy_cnot(3).kraus)]
    assert all(ch._pauli_form is None for ch in [*specs, *others])
    rng = master(135)
    for ch in specs:
        plain, backend = ChannelModel.from_kraus(ch.kraus), DenseBackend()
        rows, _ = draw_batch(int(rng.integers(0, 2 ** 32)), 1, 200, clifford_bounds(ch.n), 0)
        elements = grow_cliffords(ch.n, rows)
        rotations = np.array(list(itertools.product(range(3), repeat=ch.n)))
        assert np.array_equal(mub_tables(ch), mub_tables(plain))
        assert np.array_equal(local_tables(ch, rotations), local_tables(plain, rotations))
        assert np.array_equal(backend.clifford_outcome_probs(ch, elements),
                              backend.clifford_outcome_probs(plain, elements))


def _full_support_spec(n):
    """H on qubit 1 and CNOT(1, 2), then 5% depolarizing noise on every
    qubit and a 20% bit flip on qubit 1: a Pauli spec whose Pauli support is
    too large for the support law, so its Clifford laws come from the form."""
    gates = [{"named_gate": "H", "qubits": [1]}]
    gates += [{"named_gate": "CNOT", "qubits": [1, 2]}] if n > 1 else []
    return _spec_channel(n, [*gates,
                             {"noise": "depolarizing", "strength": 0.05,
                              "qubits": list(range(1, n + 1))},
                             {"noise": "bit_flip", "strength": 0.2, "qubits": [1]}])


def _spy_kernels(monkeypatch) -> list[str]:
    """The names of the law kernels that DenseBackend.laws runs, in order,
    from here on."""
    ran = []

    def spied(name, kernel):
        def run(*args):
            ran.append(name)
            return kernel(*args)
        return run

    for name in ("_support_laws", "_fidelity_table", "_transition_table"):
        monkeypatch.setattr(dense, name, spied(name, getattr(dense, name)))
    return ran


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fidelity_outcome_test_fails_without_the_sign(monkeypatch, n):
    """The Clifford case of the distribution test has power against a wrong
    fidelity law: with the sign eps of U g_z U^dag = eps g_z' dropped (its
    i^k read as i^(k mod 2)), the laws miss the reference and their draws
    fail the pooled Pearson test, as with the support law's phase."""
    channel = _full_support_spec(n)
    twirl = TwirlSpec("clifford_full", n)
    ints, u = draw_batch(19, 1, 3000, twirl.layout, 1)
    elements = twirl.elements(ints)
    keys, want = _family_reference(channel, "clifford_full", ints, elements)
    ran = _spy_kernels(monkeypatch)
    monkeypatch.setattr(dense, "_I_POWERS", np.array([1, 1j, 1, 1j]))
    laws, rows = twirl.laws(DenseBackend(), channel, elements)
    assert ran == ["_fidelity_table"]  # the form's law, not the support law
    assert np.abs(laws[rows] - want).max() > 0.1
    assert _pooled_pearson_z(keys, want, dense.draw_outcomes(laws, rows, u[:, 0])) > 5.0


def test_sparse_clifford_runs_build_no_unitary(monkeypatch):
    """Blind and selective Clifford runs on the benchmark channel at n = 3
    and 5 read every law off the Pauli support and never build a unitary."""
    def refuse(self):
        raise AssertionError("a Clifford run built a dense unitary")

    monkeypatch.setattr(Tableaux, "unitaries", refuse)
    for n in (3, 5):
        ch = _noisy_cnot(n)
        cfg = SeqptConfig(shots=200, variant="clifford", seed=2)
        assert run_blind_discovery(ch, cfg).estimates
        est = estimate_chi_selective(ch, "I" * n, cfg)
        assert abs(est.chi_hat - ch.chi.mat[0, 0].real) <= 5 * est.stderr


def test_full_rank_maps_take_the_dense_law(monkeypatch):
    """A Kraus map with K = D^2 operators has full Pauli support, and
    depolarizing noise on every qubit nearly so: both take the dense law,
    and a sparse map the support law.  Built from a spec, both the
    depolarizing map and the benchmark channel carry a Pauli form, and
    their laws come from the form; the benchmark channel's Kraus set, handed
    in as a plain map, keeps the support law.  Each law call runs one
    kernel, once, on the whole stack: the kernels block themselves."""
    calls = []

    def counted(name, law):
        def run(source, tableaux, columns):
            calls.append((name, len(tableaux), list(columns)))
            return law(source, tableaux, columns)
        return run

    for name, kernel in (("support", "_support_laws"), ("dense", "_transition_table"),
                         ("form", "_fidelity_table")):
        monkeypatch.setattr(dense, kernel, counted(name, getattr(dense, kernel)))
    rows, _ = draw_batch(3, 1, 300, clifford_bounds(3), 0)
    tableaux = grow_cliffords(3, rows)
    depolarizing = _spec_channel(3, [{"noise": "depolarizing", "strength": 0.05,
                                      "qubits": [1, 2, 3]}])
    for ch, law in [(random_cp_channel(3, master(84), n_kraus=64), "dense"),
                    (ChannelModel.from_kraus(depolarizing.kraus), "dense"),
                    (depolarizing, "form"), (_noisy_cnot(3), "form"),
                    (ChannelModel.from_kraus(_noisy_cnot(3).kraus), "support")]:
        calls.clear()
        DenseBackend().clifford_outcome_probs(ch, tableaux)
        assert calls == [(law, 300, [0])], law


@pytest.mark.parametrize("n, qubits", [(3, [1]), (5, [1, 2, 3, 4, 5])])
def test_form_specs_take_clifford_laws_without_the_kraus_set(monkeypatch, n, qubits):
    """Selective and blind Clifford runs on a spec with a Pauli form (the
    benchmark channel at n = 3, CNOT(1,2) then depolarizing on every qubit
    at n = 5) take their laws from the form: they never compose the spec's
    Kraus set nor look for its Pauli support."""
    def refuse(name):
        def run(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return run

    kernels = []
    fidelity = dense._fidelity_table

    def counted(form, tableaux, columns):
        kernels.append(len(tableaux))
        return fidelity(form, tableaux, columns)

    monkeypatch.setattr(channel_spec, "compose", refuse("compose"))
    monkeypatch.setattr(dense, "_pauli_support", refuse("_pauli_support"))
    monkeypatch.setattr(dense, "_fidelity_table", counted)
    channel = _spec_channel(n, [{"named_gate": "CNOT", "qubits": [1, 2]},
                                {"noise": "depolarizing", "strength": 0.05, "qubits": qubits}])
    cfg = SeqptConfig(shots=200, variant="clifford", seed=5)
    estimate_chi_selective(channel, "X" + "I" * (n - 1), cfg)
    run_blind_discovery(channel, cfg)
    assert kernels == [200, 200]


def test_local_outcome_probs_match_per_element_reference(monkeypatch):
    """Rows of the 3^n rotation tables equal the per-element law to 1e-12:
    every element at n = 1, 2 and 300 random elements at n = 3, 4, on every
    battery channel, the chi-only non-CP transpose map and a random CP map
    at n = 4.  Each call builds one unitary, its rotation part's, so no
    element's own unitary is built."""
    built = []
    unitaries = Tableaux.unitaries

    def counted(self):
        built.append(len(self))
        return unitaries(self)

    monkeypatch.setattr(Tableaux, "unitaries", counted)
    rng = master(88)
    channels = [*battery(), ("transpose", transpose_map_channel()),
                ("random-cp-4", random_cp_channel(4, master(89)))]
    for name, ch in channels:
        n = ch.n
        if n <= 2:
            elements = list(itertools.product(
                itertools.product(range(4), range(3)), repeat=n))
        else:
            elements = [tuple((int(rng.integers(0, 4)), int(rng.integers(0, 3)))
                              for _ in range(n)) for _ in range(300)]
        backend = DenseBackend()
        for digits in elements:
            built.clear()
            got = backend.local_outcome_probs(ch, digits)
            assert built == [1], (name, digits)
            want = dense_local_probs(ch, digits)
            assert np.abs(got - want).max() <= 1e-12, (name, digits)


def test_sampling_builds_tables_without_channel_applications(monkeypatch):
    """Outcome laws are rows of whole transition tables: sampling a Kraus map
    applies the channel zero times, and each run builds one table per
    distinct rotation part (one-qubit twirl) or per basis (MUB, shared by
    every intermediary); one law takes one table, as sample_c1t_realization
    does.  Each exact MUB and one-qubit-twirl enumeration and c1t_fidelity,
    with and without an intermediary, apply the channel zero times too and
    build D+1 and 3^n tables.  Tables are counted by the length of each
    stack that the dense kernel is given, run by run: the backend keeps
    none for the next run."""
    applied, built = [], []
    apply, table = ChannelModel.apply, dense._transition_table

    def counted_apply(self, rho):
        applied.append(1)
        return apply(self, rho)

    def counted_table(channel, tableaux, columns):
        built.append(len(tableaux))
        return table(channel, tableaux, columns)

    monkeypatch.setattr(ChannelModel, "apply", counted_apply)
    monkeypatch.setattr(dense, "_transition_table", counted_table)
    ch = random_cp_channel(3, master(91))
    backend = DenseBackend()
    digits, _ = _sample_local_batch(ch, 5, 2000, backend)
    assert sum(built) == len({tuple(r) for r in digits[:, :, 1].tolist()}) <= 27
    assert not applied
    built.clear()
    cfg = SeqptConfig(shots=500, seed=3)
    p = Pauli.from_string("XIZ")
    runs = [(lambda: estimate_chi_selective(ch, "XIZ", cfg, backend), ch.dim + 1),
            (lambda: estimate_chi_selective(ch, "XIZ", cfg, backend), ch.dim + 1),
            (lambda: run_blind_discovery(ch, cfg, backend), ch.dim + 1),
            (lambda: backend.local_outcome_probs(ch, ((1, 2), (0, 0), (3, 1))), 1),
            *((lambda inter=inter: enumerate_twirl_exact(ch, TwirlSpec("mub", 3), inter, backend),
               ch.dim + 1) for inter in (None, p)),
            *((lambda inter=inter: enumerate_twirl_exact(ch, TwirlSpec("local_clifford", 3),
                                                         inter, backend), 3 ** 3)
              for inter in (None, p)),
            (lambda: localtwirl.c1t_fidelity(ch, backend), 3 ** 3)]
    for i, (run, tables) in enumerate(runs):
        built.clear()
        run()
        assert sum(built) == tables and not applied, i


def _reference_row(channel, w, m, pm=None):
    """Row m of a transition table by one channel application: prepare
    column m of w, apply the channel (and pm), read out in the basis w and
    relabel outcome v as v ^ m."""
    v = w[:, m]
    sigma = channel.apply(np.outer(v, v.conj()))
    if pm is not None:
        sigma = pm @ sigma @ pm.conj().T
    in_basis = np.clip(np.einsum("im,ij,jm->m", w.conj(), sigma, w).real, 0.0, None)
    return in_basis[np.arange(channel.dim) ^ m]


def _table_test_channels():
    rng = master(92)
    non_hermitian = 0.05 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    non_hermitian[0, 0] += 0.7
    return [*battery(),
            ("chi-only-random-cp-2", chi_channel(random_cp_channel(2, master(93)).chi)),
            ("transpose", transpose_map_channel()),
            ("non-hermitian-chi-2", chi_channel(ChiMatrix(2, non_hermitian))),
            ("non-tp-chi", chi_channel(
                ChiMatrix(1, np.diag([0.8, 0.1, 0.0, 0.0]).astype(complex)))),
            ("non-tp-kraus-2", ChannelModel.from_kraus([0.9 * np.eye(4)]))]


def test_transition_tables_match_per_column_apply():
    """MUB tables (with and without an intermediary) and one-qubit-twirl
    tables equal the per-column channel.apply reference to 1e-12, on the
    battery, a chi-only Hermitian map, the non-CP transpose map, a
    non-Hermitian chi map and non-TP maps."""
    rng = master(94)
    for name, ch in _table_test_channels():
        n, d = ch.n, ch.dim
        backend = DenseBackend()
        for basis, w in enumerate(build_mub_family(n).unitaries()):
            p = Pauli.from_label(n, int(rng.integers(1, 4 ** n)))
            for inter in (None, p):
                got = backend.mub_transition_probs(ch, basis, inter)
                pm = None if inter is None else inter.to_matrix()
                want = np.array([_reference_row(ch, w, m, pm) for m in range(d)])
                assert np.abs(got - want).max() <= 1e-12, (name, basis, str(inter))
        for rotations in itertools.product(range(3), repeat=n):
            r = local_twirl_unitary(tuple((0, s) for s in rotations))
            for x in range(d):
                digits = tuple((1 if (x >> (n - 1 - j)) & 1 else 0, s)
                               for j, s in enumerate(rotations))
                got = backend.local_outcome_probs(ch, digits)
                assert np.abs(got - _reference_row(ch, r, x)).max() <= 1e-12, (name, digits)


@pytest.mark.parametrize("block", [1, 1 << 30])
def test_stacked_local_tables_equal_per_table_builds(monkeypatch, block):
    """DenseBackend.laws builds the tables of a stack of rotation parts or
    MUB bases at once, as TwirlSpec.laws asks for them; every table equals
    the one built alone, _transition_table(channel, stack, all columns) of
    its one-row stack (_rotation_tableaux of the rotation part, or the MUB
    basis), bit for bit, and so does mub_transition_probs, which builds its
    one basis.  Every rotation part and every MUB basis at n = 1 to 5, on
    the table-test maps (battery, transpose, non-Hermitian chi, non-TP) and
    random CP maps at n = 4 and 5, with the block forced to one table and
    to all tables; the stack follows the order asked for."""
    monkeypatch.setattr(dense, "_TABLE_BLOCK", block)
    channels = [*_table_test_channels(),
                ("random-cp-4", random_cp_channel(4, master(98))),
                ("random-cp-5", random_cp_channel(5, master(99), n_kraus=3))]
    for name, ch in channels:
        rotations = np.array(list(itertools.product(range(3), repeat=ch.n)))
        every = np.arange(ch.dim)
        want = np.array([dense._transition_table(ch, dense._rotation_tableaux(r[None]), every)[0]
                         for r in rotations])
        backend = DenseBackend()
        assert np.array_equal(local_tables(ch, rotations[::2]), want[::2]), name
        assert np.array_equal(local_tables(ch, rotations[::-1]), want[::-1]), name
        family = build_mub_family(ch.n)
        want = np.array([dense._transition_table(ch, family[j], every)[0]
                         for j in range(len(family))])
        for j in range(0, len(family), 2):
            assert np.array_equal(backend.mub_transition_probs(ch, j), want[j]), name
        assert np.array_equal(mub_tables(ch), want), name


def test_kraus_apply_is_the_explicit_kraus_sum():
    """apply() on a Kraus map is bit for bit sum_k K rho K^dag."""
    rng = master(95)
    for name, ch in [*battery(), ("random-cp-4", random_cp_channel(4, master(96)))]:
        g = rng.normal(size=(ch.dim, ch.dim)) + 1j * rng.normal(size=(ch.dim, ch.dim))
        rho = g @ g.conj().T
        want = np.zeros_like(rho)
        for k in ch.kraus:
            want += k @ rho @ k.conj().T
        assert np.array_equal(ch.apply(rho), want), name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_local_twirl_unitary_is_the_kron_product(n):
    """local_twirl_unitary equals the np.kron product of its per-qubit
    gates bit for bit, over every element of the twirl."""
    for digits in itertools.product(itertools.product(range(4), range(3)), repeat=n):
        want = np.ones((1, 1), dtype=complex)
        for p, s in digits:
            want = np.kron(want, dense._ROTS[s] @ PAULI_1Q[p])
        assert np.array_equal(local_twirl_unitary(digits), want), digits


@pytest.mark.parametrize("n", [1, 2])
def test_local_batch_rows_agree_with_split_local_digits(monkeypatch, n):
    """The batch gathers the cdf row that split_local_digits names (row x of
    the table of the rotation part) for every element of the twirl: with
    every element drawn under a grid of uniforms, each outcome is the one
    drawn from local_outcome_probs."""
    elements = list(itertools.product(itertools.product(range(4), range(3)), repeat=n))
    grid = (np.arange(32) + 0.5) / 32
    ints = np.repeat(np.array(elements).reshape(len(elements), 2 * n), len(grid), axis=0)
    uniforms = np.tile(grid, len(elements))[:, None]
    monkeypatch.setattr(localtwirl, "draw_batch", lambda *args: (ints, uniforms))
    ch = random_cp_channel(n, master(97))
    backend = DenseBackend()
    _, outcomes = _sample_local_batch(ch, 0, len(ints), backend)
    want = [draw_outcome_reference(np.cumsum(backend.local_outcome_probs(ch, d)), u)
            for d in elements for u in grid]
    assert outcomes.tolist() == want


# ---------------------------------------------------------------------------
# every twirl family's sampler in distribution, and the one law path


def _family_reference(channel, kind, ints, elements, pm=None):
    """(keys, laws): each element's exact law, by a channel application
    outside the table cache (then the intermediary matrix pm, for MUB and
    Clifford elements), and a group key such that each group shares one law.
    MUB elements group by (basis, state) and one-qubit-twirl elements by
    (rotation part, X part), keys read off their draws alone; Clifford
    elements group by their reference law itself (rounded to 1e-9).
    Grouping Clifford elements with different laws pools their covariances
    towards the uniform one: 250 at a time in draw order, draws from the
    wrong law of every element scored z = 3.0 or less."""
    n, d = channel.n, channel.dim
    places = np.arange(n - 1, -1, -1)
    if kind == "mub":
        table = np.array([_reference_row(channel, w, m, pm)
                          for w in build_mub_family(n).unitaries() for m in range(d)])
        keys = ints[:, 0] * d + ints[:, 1]
        return keys, table[keys]
    if kind == "local_clifford":
        x = np.isin(elements[:, :, 0], (1, 2)) @ (1 << places)  # X and Y flip a qubit
        keys = (elements[:, :, 1] @ 3 ** places) * d + x
        rotations = np.arange(3 ** n)[:, None] // 3 ** places % 3
        # the element of each key with Pauli part X^x
        table = np.array([dense_local_probs(channel, tuple(zip((xx >> places) & 1, r)))
                          for r in rotations.tolist() for xx in range(d)])
        return keys, table[keys]
    laws = np.array([_reference_row(channel, w, 0, pm) for w in elements.unitaries()])
    return np.unique(np.round(laws, 9), axis=0, return_inverse=True)[1].ravel(), laws


def _pooled_pearson_z(keys, laws, outcomes) -> float:
    """z-score of X^2 = sum_g (O_g - E_g)^T S_g^+ (O_g - E_g) over the groups
    g of realizations with equal keys, given each realization's exact law.

    O_g counts the group's outcomes, E_g sums its laws p_i and S_g sums
    their covariances C_i = diag(p_i) - p_i p_i^T, so S_g is the covariance
    of O_g.  On a group that shares one law p this is Pearson's
    sum (O - N p)^2 / (N p).  Its mean is exactly rank S_g, and its variance
    sum_i [sum_v p_iv q_iv^2 - tr(A C_i)^2] + 2 [rank S_g - sum_i tr((A C_i)^2)]
    with A = S_g^+ and q_iv = (e_v - p_i)^T A (e_v - p_i).
    """
    d = laws.shape[1]
    order = np.argsort(keys, kind="stable")
    stat = mean = var = 0.0
    for group in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        p = laws[group]
        s = np.diag(p.sum(axis=0)) - p.T @ p
        a = np.linalg.pinv(s, rtol=1e-9, hermitian=True)
        resid = np.bincount(outcomes[group], minlength=d) - p.sum(axis=0)
        rank = round(np.trace(a @ s))
        ap = p @ a
        pap = (ap * p).sum(axis=1)
        q = np.diag(a) - 2 * ap + pap[:, None]
        tr_ac = (np.diag(a) * p).sum(axis=1) - pap
        tr_acac = np.einsum("iu,uv,iv->i", p, a * a, p) - 2 * (p * ap ** 2).sum(axis=1) + pap ** 2
        stat += resid @ a @ resid
        mean += rank
        var += ((p * q ** 2).sum(axis=1) - tr_ac ** 2).sum() + 2 * (rank - tr_acac.sum())
    return (stat - mean) / np.sqrt(var)


# (kind, n, shots): at least about 5 draws per (law, outcome) cell on
# average for MUB and the one-qubit twirl; a "spec-" kind runs on a
# compiled spec (_full_support_spec), whose laws the Pauli form gives
_FAMILY_RUNS = [*((kind, n, shots) for kind in ("mub", "local_clifford")
                  for n, shots in ((1, 2000), (2, 5000), (3, 20000), (4, 50000))),
                *(("clifford_full", n, shots) for n, shots in ((1, 2000), (2, 4000),
                                                                (3, 5000), (4, 5000))),
                *((f"spec-{kind}", n, shots) for kind in ("mub", "local_clifford")
                  for n, shots in ((1, 2000), (2, 5000), (3, 20000), (4, 50000))),
                *(("spec-clifford_full", n, shots) for n, shots in ((1, 2000), (2, 4000),
                                                                     (3, 5000)))]


@pytest.mark.parametrize("kind, n, shots", _FAMILY_RUNS)
def test_family_outcomes_follow_exact_laws(kind, n, shots):
    """Each twirl family's production path (draw_batch over the layout,
    TwirlSpec.elements, TwirlSpec.laws, draw_outcomes) draws every element's
    outcome from its exact law, at a fixed seed.

    The law each element reads, laws[rows[i]], must equal its reference law
    (:func:`_family_reference`) to 1e-12; no outcome of probability zero may
    be drawn; and the pooled Pearson statistic of :func:`_pooled_pearson_z`,
    over groups that share one law, must lie within 5 standard deviations
    above its mean.  Clifford elements run on :func:`_peaked_sparse_map`,
    whose laws the Pauli-support law gives from n = 2; the "spec-" runs on
    :func:`_full_support_spec`, whose laws of every family the Pauli form
    gives (:func:`dense._fidelity_table`)."""
    compiled, kind = kind.startswith("spec-"), kind.removeprefix("spec-")
    channel = (_full_support_spec(n) if compiled
               else _peaked_sparse_map(n) if kind == "clifford_full"
               else random_cp_channel(n, master(700 + n), n_kraus=2))
    twirl = TwirlSpec(kind, n)
    ints, u = draw_batch(19, 1, shots, twirl.layout, 1)
    elements = twirl.elements(ints)
    laws, rows = twirl.laws(DenseBackend(), channel, elements)
    outcomes = dense.draw_outcomes(laws, rows, u[:, 0])
    keys, want = _family_reference(channel, kind, ints, elements)
    assert np.abs(laws[rows] - want).max() <= 1e-12
    assert (want[np.arange(shots), outcomes] > 0).all(), "an outcome of probability zero was drawn"
    assert _pooled_pearson_z(keys, want, outcomes) <= 5.0


def _peaked_sparse_map(n):
    """70% identity and 30% one Clifford gate (H at n = 1, CNOT(1, 2) from
    n = 2): each law puts at least 0.7 on outcome 0, and the map has K = 2
    operators on |S| <= 4 Pauli terms, so from n = 2 the backend reads its
    Clifford laws off the Pauli support."""
    gate = gate_unitary("H", (0,), 1) if n == 1 else gate_unitary("CNOT", (0, 1), n)
    return ChannelModel.from_kraus([np.sqrt(0.7) * np.eye(1 << n), np.sqrt(0.3) * gate])


@pytest.mark.parametrize("n, shots", [(2, 4000), (3, 5000), (4, 5000)])
def test_clifford_outcome_test_fails_a_broken_support_phase(monkeypatch, n, shots):
    """The Clifford case of :func:`test_family_outcomes_follow_exact_laws`
    has power against a wrong Pauli-support law: with the sign of each
    phase i^e dropped (i^e read as i^(e mod 2)), the laws miss the reference
    and their draws fail the pooled Pearson test."""
    channel = _peaked_sparse_map(n)
    twirl = TwirlSpec("clifford_full", n)
    ints, u = draw_batch(19, 1, shots, twirl.layout, 1)
    elements = twirl.elements(ints)
    keys, want = _family_reference(channel, "clifford_full", ints, elements)
    support = dense._pauli_support(channel)  # found with its true phases
    assert support is not None
    monkeypatch.setattr(dense, "_pauli_support", lambda ch: support)
    ran = _spy_kernels(monkeypatch)
    monkeypatch.setattr(dense, "_I_POWERS", np.array([1, 1j, 1, 1j]))
    laws, rows = twirl.laws(DenseBackend(), channel, elements)
    assert ran == ["_support_laws"]
    assert np.abs(laws[rows] - want).max() > 0.1
    assert _pooled_pearson_z(keys, want, dense.draw_outcomes(laws, rows, u[:, 0])) > 5.0


@pytest.mark.parametrize("kind, n, shots", [(f"{spec}{kind}", n, shots)
                                             for spec in ("", "spec-")
                                             for kind in ("mub", "clifford_full")
                                             for n, shots in ((1, 2000), (2, 4000), (3, 5000))])
def test_shifted_outcomes_follow_exact_laws(kind, n, shots):
    """With an intermediary Pauli between the channel and the untwirl, the
    production path (draw_batch over the layout, TwirlSpec.elements,
    TwirlSpec.laws, _shift_outcomes against TwirlSpec.z_keys, draw_outcomes)
    draws every element's outcome from its exact law, at a fixed seed.

    The shifted laws must equal the per-element reference with the Pauli's
    matrix applied after the channel to 1e-12, no outcome of probability
    zero may be drawn, and the pooled Pearson statistic of
    :func:`_pooled_pearson_z` must lie within 5 standard deviations above
    its mean.  The same draws without the shift fail that test: the map is
    70% identity, so each law peaks at the outcome the shift picks.  The
    "spec-" runs take a compiled spec instead, X on qubit 1 then 10%
    depolarizing noise on every qubit, whose laws the Pauli form gives and
    peak at X's own shift."""
    compiled, kind = kind.startswith("spec-"), kind.removeprefix("spec-")
    noise = random_cp_channel(n, master(720 + n), n_kraus=2).kraus
    channel = (_spec_channel(n, [{"named_gate": "X", "qubits": [1]},
                                 {"noise": "depolarizing", "strength": 0.1,
                                  "qubits": list(range(1, n + 1))}]) if compiled
               else ChannelModel.from_kraus([np.sqrt(0.7) * np.eye(1 << n),
                                             *(np.sqrt(0.3) * k for k in noise)]))
    p = Pauli.from_string("Y" + "X" * (n - 1))  # anticommutes with Z on every qubit
    twirl = TwirlSpec(kind, n)
    ints, u = draw_batch(23, 1, shots, twirl.layout, 1)
    elements = twirl.elements(ints)
    laws, rows = twirl.laws(DenseBackend(), channel, elements)
    shifted = dense._shift_outcomes(laws[rows], twirl.z_keys(elements), p)
    keys, want = _family_reference(channel, kind, ints, elements, p.to_matrix())
    assert np.abs(shifted - want).max() <= 1e-12
    every = np.arange(shots)
    outcomes = dense.draw_outcomes(shifted, every, u[:, 0])
    assert (want[every, outcomes] > 0).all(), "an outcome of probability zero was drawn"
    assert _pooled_pearson_z(keys, want, outcomes) <= 5.0
    unshifted = dense.draw_outcomes(laws, rows, u[:, 0])
    assert _pooled_pearson_z(keys, want, unshifted) > 5.0


def test_every_law_is_read_through_twirl_spec_laws(monkeypatch):
    """Selective and blind runs of both variants, the one-qubit-twirl run,
    its single realization, local_outcome_probs and the exact enumeration of
    all three kinds read their laws through TwirlSpec.laws, of their own
    family: the backend's law source is only called from inside it, once
    per TwirlSpec.laws call.  The samplers that draw a batch of outcomes do
    it through draw_outcomes."""
    reads, sourced, draws, depth = [], [], [], [0]
    laws = TwirlSpec.laws

    def counted_laws(self, backend, channel, elements):
        reads.append(self.kind)
        depth[0] += 1
        try:
            return laws(self, backend, channel, elements)
        finally:
            depth[0] -= 1

    def guarded(source):
        def read(*args, **kwargs):
            assert depth[0], f"{source.__name__} read outside TwirlSpec.laws"
            sourced.append(1)
            return source(*args, **kwargs)
        return read

    def counted_draws(*args):
        draws.append(1)
        return dense.draw_outcomes(*args)

    monkeypatch.setattr(TwirlSpec, "laws", counted_laws)
    monkeypatch.setattr(DenseBackend, "laws", guarded(DenseBackend.laws))
    monkeypatch.setattr(localtwirl, "draw_outcomes", counted_draws)
    monkeypatch.setattr(seqpt, "draw_outcomes", counted_draws)
    ch = random_cp_channel(2, master(120), n_kraus=2)
    backend = DenseBackend()
    mub, clifford = SeqptConfig(shots=60, seed=1), SeqptConfig(shots=60, variant="clifford", seed=1)
    p = Pauli.from_string("XZ")
    runs = [
        ("selective mub", "mub", 0, lambda: estimate_chi_selective(ch, p, mub, backend)),
        ("selective clifford", "clifford_full", 0,
         lambda: estimate_chi_selective(ch, p, clifford, backend)),
        ("blind mub", "mub", 0, lambda: run_blind_discovery(ch, mub, backend)),
        ("blind clifford", "clifford_full", 1, lambda: run_blind_discovery(ch, clifford, backend)),
        ("local run", "local_clifford", 1,
         lambda: localtwirl.run_local_twirl(ch, localtwirl.LocalTwirlConfig(shots=60), backend)),
        ("local realization", "local_clifford", 1,
         lambda: localtwirl.sample_c1t_realization(ch, master(121), backend)),
        ("local_outcome_probs", "local_clifford", 0,
         lambda: backend.local_outcome_probs(ch, ((1, 2), (3, 0)))),
        *((f"enumerate {kind}", kind, 0,
           lambda kind=kind: enumerate_twirl_exact(ch, TwirlSpec(kind, 2), p, backend))
          for kind in ("mub", "local_clifford", "clifford_full")),
    ]
    for name, kind, ndraws, run in runs:
        reads.clear()
        sourced.clear()
        draws.clear()
        run()
        assert reads and set(reads) == {kind}, (name, reads)
        assert len(sourced) == len(reads), name
        assert len(draws) == ndraws, name
