import itertools

import numpy as np
import pytest

from conftest import (I_POWERS, battery, cnot_channel, dense_local_probs,
                      label_table, transpose_map_channel)
from twirltomo import dense, localtwirl, seqpt
from twirltomo.channels import (ChannelModel, ChiMatrix, depolarizing_kraus,
                                gate_unitary, random_cp_channel)
from twirltomo.dense import (DenseBackend, TwirlSpec, enumerate_twirl_exact,
                             exact_chi_extraction, haar_moment_closed_form,
                             haar_twirl_moment, local_twirl_unitary)
from twirltomo.errors import CapacityError, ConfigError, DimensionMismatchError
from twirltomo.localtwirl import _sample_local_batch
from twirltomo.pauli import PAULI_1Q, Pauli
from twirltomo.rng import _draw_outcome, draw_batch, master
from twirltomo.seqpt import (SeqptConfig, _bits, estimate_chi_selective,
                             run_blind_discovery)
from twirltomo.stabilizer import (build_mub_family, clifford_bounds, grow_cliffords,
                                  sample_clifford_uniform)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=float)
Z = np.diag([1.0, -1.0])


def _ket_density(amplitudes):
    v = np.asarray(amplitudes, dtype=complex)
    return np.outer(v, v.conj())


def _measure(rho, n, u):
    """Computational-basis outcome bits of ``rho`` for the uniforms ``u``,
    drawn the way every sampled protocol draws: the Born probabilities are
    cumsummed and passed to ``_draw_outcome``."""
    cdf = np.cumsum(np.clip(np.real(np.diag(rho)), 0.0, None))
    return [_bits(int(v), n) for v in np.atleast_1d(_draw_outcome(cdf, u))]


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


@pytest.mark.parametrize("dim, samples", [(1, 100), (0, 100), (2, 1), (2, 0)])
def test_haar_edge_inputs_raise_before_drawing(dim, samples):
    """Operators smaller than 2 x 2 (the closed form divides by D^2 - 1)
    and fewer than 2 samples (the standard error needs a sample variance)
    raise ConfigError, and the generator is left untouched."""
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
    with pytest.raises(ValueError):
        enumerate_twirl_exact(big, TwirlSpec("haar_state", 4))


@pytest.mark.parametrize("entry", [
    lambda ch, p, b: enumerate_twirl_exact(ch, TwirlSpec("mub", 2), p, b),
    lambda ch, p, b: enumerate_twirl_exact(ch, TwirlSpec("local_clifford", 2), p, b),
    lambda ch, p, b: enumerate_twirl_exact(ch, TwirlSpec("clifford_full", 2), p, b),
    lambda ch, p, b: b.mub_transition_probs(ch, 3, p),
    lambda ch, p, b: b.clifford_outcome_probs(ch, sample_clifford_uniform(2, master(9)), p),
    lambda ch, p, b: b.clifford_outcome_probs(ch, sample_clifford_uniform(p.n, master(9))),
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
    assert TwirlSpec("mub", 2).enumeration_size == 20
    assert TwirlSpec("local_clifford", 2).enumeration_size == 144
    assert TwirlSpec("haar_state", 2).enumeration_size is None
    for kind, n in (("MUB", 2), ("clifford", 2), ("mub", 0), ("mub", -1),
                    ("local_clifford", -1)):
        with pytest.raises(ConfigError):
            TwirlSpec(kind, n)


def test_mub_transition_probs_rejects_a_basis_outside_the_family():
    """A basis index outside 0..D raises ValueError naming the range and
    caches nothing; D, the last basis, is table D of mub_tables."""
    ch = random_cp_channel(2, master(10))
    backend = DenseBackend()
    for basis in (-1, 5, 100):
        with pytest.raises(ValueError, match=r"0\.\.4, got"):
            backend.mub_transition_probs(ch, basis)
    assert not backend._tables
    assert np.array_equal(backend.mub_transition_probs(ch, 4), backend.mub_tables(ch)[4])


def test_backend_capacity():
    backend = DenseBackend(max_n=2)
    with pytest.raises(CapacityError):
        backend.check_capacity(3)


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
                for inter in (None, p):
                    got = backend.clifford_outcome_probs(ch, c, inter)
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


def test_stacked_clifford_laws_equal_per_element_reference(monkeypatch):
    """The laws of a Tableaux stack equal row 0 of the elements' whole
    transition tables within 1e-15, and the chi-tableau reference within
    1e-14, with and without an intermediary, on the battery, a full-rank
    Kraus map (K = D^2), the non-CP transpose map, a non-Hermitian chi map
    and non-TP maps.  With the block forced to one element and to all of
    them, each row equals the law of that one Clifford bit for bit."""
    backend = DenseBackend()
    rng = master(78)
    count = 40
    full_rank = ("full-rank-3", random_cp_channel(3, master(83), n_kraus=64))
    for name, ch in [*_table_test_channels(), full_rank]:
        n = ch.n
        rows, _ = draw_batch(int(rng.integers(0, 2 ** 32)), 1, count, clifford_bounds(n), 0)
        tableaux = grow_cliffords(n, rows)
        table_rows = dense._transition_table(ch, tableaux.unitaries())[:, 0]
        assert np.abs(backend.clifford_outcome_probs(ch, tableaux) - table_rows).max() <= 1e-15
        p = Pauli.from_label(n, int(rng.integers(1, 4 ** n)))
        for inter in (None, p):
            want = np.array([_tableau_law_reference(ch, tableaux.clifford(i), inter)
                             for i in range(count)])
            for block in (1, 1 << 30):
                monkeypatch.setattr(dense, "_TABLE_BLOCK", block)
                got = backend.clifford_outcome_probs(ch, tableaux, inter)
                assert got.shape == (count, ch.dim)
                assert np.abs(got - want).max() <= 1e-14, (name, str(inter))
                for i in range(count):
                    one = backend.clifford_outcome_probs(ch, tableaux.clifford(i), inter)
                    assert np.array_equal(one, got[i]), (name, str(inter), block, i)
    assert backend.clifford_outcome_probs(ch, tableaux[:0]).shape == (0, ch.dim)


def test_local_outcome_probs_match_per_element_reference(monkeypatch):
    """Rows of the 3^n rotation tables equal the per-element law to 1e-12:
    every element at n = 1, 2 and 300 random elements at n = 3, 4, on every
    battery channel, the chi-only non-CP transpose map and a random CP map
    at n = 4.  Each channel builds at most 3^n unitaries (the rotation
    parts), so no element's own kron product is built."""
    built = []

    def counted(digits):
        built.append(digits)
        return local_twirl_unitary(digits)

    monkeypatch.setattr(dense, "local_twirl_unitary", counted)
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
        built.clear()
        for digits in elements:
            got = backend.local_outcome_probs(ch, digits)
            want = dense_local_probs(ch, digits)
            assert np.abs(got - want).max() <= 1e-12, (name, digits)
        assert len(built) <= 3 ** n, name


def test_sampling_builds_tables_without_channel_applications(monkeypatch):
    """Outcome laws are rows of whole transition tables: sampling a Kraus map
    applies the channel zero times, builds one table per distinct rotation
    part (one-qubit twirl) and one per basis (MUB, shared by every
    intermediary), and a fresh backend builds one table for one law, as
    sample_c1t_realization does without a shared backend.  The exact MUB
    and one-qubit-twirl enumerations and c1t_fidelity, with and without an
    intermediary, apply the channel zero times too and build D+1 and 3^n
    tables in all.  Tables are counted by the length of each stack of bases
    built."""
    applied, built = [], []
    apply, table = ChannelModel.apply, dense._transition_table

    def counted_apply(self, rho):
        applied.append(1)
        return apply(self, rho)

    def counted_table(channel, w):
        built.append(len(w))
        return table(channel, w)

    monkeypatch.setattr(ChannelModel, "apply", counted_apply)
    monkeypatch.setattr(dense, "_transition_table", counted_table)
    ch = random_cp_channel(3, master(91))
    backend = DenseBackend()
    digits, _ = _sample_local_batch(ch, 5, 2000, backend)
    assert sum(built) == len({tuple(r) for r in digits[:, :, 1].tolist()}) <= 27
    assert not applied
    built.clear()
    cfg = SeqptConfig(shots=500, seed=3)
    estimate_chi_selective(ch, "XIZ", cfg, backend)
    estimate_chi_selective(ch, "XIZ", cfg, backend)
    run_blind_discovery(ch, cfg, backend)
    assert sum(built) == ch.dim + 1 and not applied
    built.clear()
    DenseBackend().local_outcome_probs(ch, ((1, 2), (0, 0), (3, 1)))
    assert sum(built) == 1 and not applied
    built.clear()
    exact = DenseBackend()
    p = Pauli.from_string("XIZ")
    for inter in (None, p):
        enumerate_twirl_exact(ch, TwirlSpec("mub", 3), inter, exact)
    assert sum(built) == ch.dim + 1 and not applied
    for inter in (None, p):
        enumerate_twirl_exact(ch, TwirlSpec("local_clifford", 3), inter, exact)
    localtwirl.c1t_fidelity(ch, exact)
    assert sum(built) == ch.dim + 1 + 3 ** 3 and not applied


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
            ("chi-only-random-cp-2", ChannelModel.from_chi(random_cp_channel(2, master(93)).chi)),
            ("transpose", transpose_map_channel()),
            ("non-hermitian-chi-2", ChannelModel.from_chi(ChiMatrix(2, non_hermitian))),
            ("non-tp-chi", ChannelModel.from_chi(
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
    """local_tables and mub_tables build the missing tables from one stack
    of basis unitaries; every table equals the one built alone,
    _transition_table(channel, u[None]) of its rotation unitary
    local_twirl_unitary(...) or its basis unitary, bit for bit.  Every
    rotation part and every MUB basis at n = 1 to 5, on the table-test maps
    (battery, transpose, non-Hermitian chi, non-TP) and random CP maps at
    n = 4 and 5, with the block forced to one table and to all tables; half
    the tables are cached first, and the stack follows the order asked for."""
    monkeypatch.setattr(dense, "_TABLE_BLOCK", block)
    channels = [*_table_test_channels(),
                ("random-cp-4", random_cp_channel(4, master(98))),
                ("random-cp-5", random_cp_channel(5, master(99), n_kraus=3))]
    for name, ch in channels:
        rotations = np.array(list(itertools.product(range(3), repeat=ch.n)))
        want = np.array([dense._transition_table(
            ch, local_twirl_unitary(tuple((0, s) for s in r))[None])[0]
            for r in rotations.tolist()])
        backend = DenseBackend()
        assert np.array_equal(backend.local_tables(ch, rotations[::2]), want[::2]), name
        assert np.array_equal(backend.local_tables(ch, rotations[::-1]), want[::-1]), name
        family = build_mub_family(ch.n)
        want = np.array([dense._transition_table(ch, family[j].unitaries())[0]
                         for j in range(len(family))])
        for j in range(0, len(family), 2):
            assert np.array_equal(backend.mub_transition_probs(ch, j), want[j]), name
        assert np.array_equal(backend.mub_tables(ch), want), name


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
    want = [_draw_outcome(np.cumsum(backend.local_outcome_probs(ch, d)), u)
            for d in elements for u in grid]
    assert outcomes.tolist() == want


# ---------------------------------------------------------------------------
# every twirl family's sampler in distribution, and the one law path


def _family_reference(channel, kind, ints, elements):
    """(keys, laws): each element's exact law, by a channel application
    outside the table cache, and a group key read off its draws alone.
    MUB elements group by (basis, state) and one-qubit-twirl elements by
    (rotation part, X part), so each group shares one law; Clifford
    elements, each with a law of its own, group 250 at a time in draw order."""
    n, d = channel.n, channel.dim
    places = np.arange(n - 1, -1, -1)
    if kind == "mub":
        table = np.array([_reference_row(channel, w, m)
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
    laws = np.array([_reference_row(channel, w, 0) for w in elements.unitaries()])
    return np.arange(len(ints)) // 250, laws


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
# average for MUB and the one-qubit twirl
_FAMILY_RUNS = [*((kind, n, shots) for kind in ("mub", "local_clifford")
                  for n, shots in ((1, 2000), (2, 5000), (3, 20000), (4, 50000))),
                *(("clifford_full", n, shots) for n, shots in ((1, 2000), (2, 4000),
                                                                (3, 5000), (4, 5000)))]


@pytest.mark.parametrize("kind, n, shots", _FAMILY_RUNS)
def test_family_outcomes_follow_exact_laws(kind, n, shots):
    """Each twirl family's production path (draw_batch over the layout,
    TwirlSpec.elements, TwirlSpec.laws, draw_outcomes) draws every element's
    outcome from its exact law, at a fixed seed.

    The law each element reads, laws[rows[i]], must equal its reference law
    (:func:`_family_reference`) to 1e-12; no outcome of probability zero may
    be drawn; and the pooled Pearson statistic of :func:`_pooled_pearson_z`,
    grouped by keys read off the draws, must lie within 5 standard
    deviations above its mean."""
    channel = random_cp_channel(n, master(700 + n), n_kraus=2)
    twirl = TwirlSpec(kind, n)
    ints, u = draw_batch(19, 1, shots, twirl.layout, 1)
    elements = twirl.elements(ints)
    laws, rows = twirl.laws(DenseBackend(), channel, elements)
    outcomes = dense.draw_outcomes(laws, rows, u[:, 0])
    keys, want = _family_reference(channel, kind, ints, elements)
    assert np.abs(laws[rows] - want).max() <= 1e-12
    assert (want[np.arange(shots), outcomes] > 0).all(), "an outcome of probability zero was drawn"
    assert _pooled_pearson_z(keys, want, outcomes) <= 5.0


def test_every_law_is_read_through_twirl_spec_laws(monkeypatch):
    """Selective and blind runs of both variants, the one-qubit-twirl run,
    its single realization, local_outcome_probs and the exact enumeration of
    all three kinds read their laws through TwirlSpec.laws, of their own
    family: the backend's law sources are only called from inside it.  The
    samplers that draw a batch of outcomes do it through draw_outcomes."""
    reads, draws, depth = [], [], [0]
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
            return source(*args, **kwargs)
        return read

    def counted_draws(*args):
        draws.append(1)
        return dense.draw_outcomes(*args)

    monkeypatch.setattr(TwirlSpec, "laws", counted_laws)
    for name in ("mub_tables", "local_tables", "clifford_outcome_probs"):
        monkeypatch.setattr(DenseBackend, name, guarded(getattr(DenseBackend, name)))
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
        draws.clear()
        run()
        assert reads and set(reads) == {kind}, (name, reads)
        assert len(draws) == ndraws, name
