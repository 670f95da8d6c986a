import csv
import json

import numpy as np
import pytest

from conftest import (battery, chi_channel, cnot_channel, random_cp_channel,
                      transpose_map_channel)
from twirltomo.channels import (PSD_RTOL, TP_ATOL, ChannelModel, ChiMatrix,
                                check_cp_bound, check_positive_bound,
                                chi_from_kraus, classify, coarse_grain, compose,
                                depolarizing_kraus, diagonalize_chi, embed_kraus,
                                gate_unitary, matrix_from_pauli_coefficients,
                                pauli_coefficients)
from twirltomo.cli import main
from twirltomo.errors import DimensionMismatchError
from twirltomo.pauli import Pauli

CNOT_BLOCK_LABELS = [0, 12, 1, 13]  # II, ZI, IX, ZX
CNOT_BLOCK = 0.25 * np.array([[1, 1, 1, -1], [1, 1, 1, -1],
                              [1, 1, 1, -1], [-1, -1, -1, 1]])


def random_density(d, rng):
    v = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


def test_coefficient_transform_round_trip():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        d = 1 << n
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        c = pauli_coefficients(m)
        for l in (0, 1, 4 ** n - 1):
            pl = Pauli.from_label(n, l).to_matrix()
            assert abs(c[l] - np.trace(pl @ m) / d) < 1e-10
        np.testing.assert_allclose(matrix_from_pauli_coefficients(c), m, atol=1e-10)


def test_chi_identity_map():
    chi = chi_from_kraus([np.eye(2, dtype=complex)])
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    np.testing.assert_allclose(chi.mat, want, atol=1e-14)


def test_chi_cnot_block():
    chi = cnot_channel().chi
    np.testing.assert_allclose(chi.mat[np.ix_(CNOT_BLOCK_LABELS, CNOT_BLOCK_LABELS)],
                               CNOT_BLOCK, atol=1e-12)
    mask = np.ones((16, 16), dtype=bool)
    mask[np.ix_(CNOT_BLOCK_LABELS, CNOT_BLOCK_LABELS)] = False
    assert np.abs(chi.mat[mask]).max() < 1e-12


def test_chi_depolarizing():
    chi = chi_from_kraus(depolarizing_kraus(0.3))
    np.testing.assert_allclose(chi.mat, np.diag([0.775, 0.075, 0.075, 0.075]),
                               atol=1e-12)


def test_apply_chi_examples():
    ident = chi_from_kraus([np.eye(2, dtype=complex)])
    rho = random_density(2, np.random.default_rng(1))
    np.testing.assert_allclose(chi_channel(ident).apply(rho), rho, atol=1e-12)
    # CNOT truth table on |10> -> |11>
    chi = cnot_channel().chi
    rho10 = np.zeros((4, 4), dtype=complex)
    rho10[2, 2] = 1.0
    out = chi_channel(chi).apply(rho10)
    want = np.zeros((4, 4))
    want[3, 3] = 1.0
    np.testing.assert_allclose(out, want, atol=1e-10)
    # transpose map moves (I+sy)/2 to (I-sy)/2
    tr = transpose_map_channel()
    rho_y = 0.5 * (np.eye(2) + Pauli.from_string("Y").to_matrix())
    np.testing.assert_allclose(tr.apply(rho_y), rho_y.T, atol=1e-12)


def test_kraus_chi_round_trip_battery():
    """100 random CP channels at n <= 3, 20 random states each, 1e-10."""
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for _ in range(34 if n == 1 else 33):
            ch = random_cp_channel(n, rng)
            from_chi = chi_channel(ch.chi)
            for _ in range(20):
                rho = random_density(1 << n, rng)
                np.testing.assert_allclose(from_chi.apply(rho), ch.apply(rho),
                                           atol=1e-10)


def test_diagonalize_chi():
    dep = chi_from_kraus(depolarizing_kraus(0.3))
    dec = diagonalize_chi(dep)
    np.testing.assert_allclose(dec.eigenvalues, [0.775, 0.075, 0.075, 0.075],
                               atol=1e-12)
    np.testing.assert_allclose(dec.basis.conj().T @ np.diag(dec.eigenvalues) @ dec.basis,
                               dep.mat, atol=1e-12)
    # CNOT block is rank one (a unitary map)
    dec_c = diagonalize_chi(cnot_channel().chi)
    np.testing.assert_allclose(dec_c.eigenvalues[0], 1.0, atol=1e-12)
    assert np.abs(dec_c.eigenvalues[1:]).max() < 1e-12
    # transpose map has the single negative eigenvalue -1/2
    dec_t = diagonalize_chi(transpose_map_channel().chi)
    np.testing.assert_allclose(sorted(dec_t.eigenvalues), [-0.5, 0.5, 0.5, 0.5],
                               atol=1e-12)
    # operator normalization Tr[A_j^dag A_k] = D delta
    for dec_x, d in ((dec, 2), (dec_c, 4)):
        ops = dec_x.operators
        g = np.array([[np.trace(a.conj().T @ b) for b in ops] for a in ops])
        np.testing.assert_allclose(g, d * np.eye(len(ops)), atol=1e-9)


def test_diagonalize_requires_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        diagonalize_chi(ChiMatrix(1, bad))


def test_hermitian_split_into_cp_difference():
    """Sign-split eigenvalues give two CP maps whose difference is the map."""
    tr = transpose_map_channel()
    dec = diagonalize_chi(tr.chi)
    rng = np.random.default_rng(3)
    rho = random_density(2, rng)
    plus = sum(s * (op @ rho @ op.conj().T)
               for s, op in zip(dec.eigenvalues, dec.operators) if s > 0)
    minus = sum(-s * (op @ rho @ op.conj().T)
                for s, op in zip(dec.eigenvalues, dec.operators) if s < 0)
    np.testing.assert_allclose(plus - minus, tr.apply(rho), atol=1e-10)


def test_classification_examples():
    cls = cnot_channel().classification
    assert cls.hermitian_preserving and cls.trace_preserving
    assert cls.completely_positive and cls.positive is True
    cls_t = transpose_map_channel().classification
    assert cls_t.hermitian_preserving and cls_t.trace_preserving
    assert not cls_t.completely_positive and cls_t.positive is True
    # trace sum 0.9 -> not trace preserving
    chi_bad = ChiMatrix(1, np.diag([0.8, 0.1, 0.0, 0.0]).astype(complex))
    assert not classify(chi_channel(chi_bad)).trace_preserving


def _reference_flags(channel):
    """(hermitian, trace preserving, CP) computed through diagonalize_chi:
    Tr chi = 1 and, for a Hermitian chi, sum_k s_k A_k^dag A_k = I."""
    chi = channel.chi
    hermitian = chi.is_hermitian()
    tp = abs(complex(chi.diagonal().sum()) - 1.0) <= TP_ATOL
    if tp and hermitian:
        dec = diagonalize_chi(chi)
        acc = sum(s * (op.conj().T @ op) for s, op in zip(dec.eigenvalues, dec.operators))
        tp = bool(np.allclose(acc, np.eye(channel.dim), atol=1e-8))
    cp = False
    if hermitian:
        vals = diagonalize_chi(chi).eigenvalues
        cp = bool(vals.min() >= -PSD_RTOL * max(1.0, float(vals.max())))
    return hermitian, tp, cp


def test_classification_matches_diagonalize_chi_reference():
    """classify reads trace preservation off the operator pairs; its flags
    equal the diagonalize_chi reference on the battery, the transpose map,
    non-TP maps (one that fails only the operator condition, as a Kraus set
    and as a chi matrix) and random CP maps at n = 1 to 4, Kraus and
    chi-only."""
    off = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    off[0, 3] = off[3, 0] = 0.3  # Tr chi = 1, but sum chi P_l' P_l = I + 0.6 Z
    uneven = np.diag([np.sqrt(1.5), np.sqrt(0.5)]).astype(complex)  # Tr chi = 1
    rng = np.random.default_rng(7)
    random_maps = [(f"random-cp-{n}", random_cp_channel(n, rng)) for n in (1, 2, 3, 4)]
    channels = [*battery(), *random_maps,
                *[(name + "-chi", chi_channel(ch.chi))
                  for name, ch in random_maps if ch.n <= 3],
                ("transpose", transpose_map_channel()),
                ("trace-0.9", chi_channel(
                    ChiMatrix(1, np.diag([0.8, 0.1, 0.0, 0.0]).astype(complex)))),
                ("off-diagonal-z", chi_channel(ChiMatrix(1, off))),
                ("uneven-kraus", ChannelModel.from_kraus([uneven])),
                ("uneven-chi", chi_channel(chi_from_kraus([uneven])))]
    seen_tp = set()
    for name, ch in channels:
        cls = classify(ch)
        got = (cls.hermitian_preserving, cls.trace_preserving, cls.completely_positive)
        assert got == _reference_flags(ch), name
        seen_tp.add(cls.trace_preserving)
    assert seen_tp == {True, False}
    for name in ("off-diagonal-z", "uneven-kraus", "uneven-chi"):
        assert not classify(dict(channels)[name]).trace_preserving, name


def test_kraus_maps_classify_without_chi_checks(monkeypatch):
    """A Kraus map is classified Hermitian-preserving and CP without the
    Hermiticity check or the eigenvalues of chi, and its flags still equal
    the diagonalize_chi reference (positive follows from CP at n <= 3)."""
    channels = [*battery(), ("random-cp-4", random_cp_channel(4, np.random.default_rng(9)))]
    want = {name: (*_reference_flags(ch), True if ch.n <= 3 else None)
            for name, ch in channels}

    def unused(*args, **kwargs):
        raise AssertionError("chi check run on a Kraus map")

    monkeypatch.setattr(ChiMatrix, "is_hermitian", unused)
    monkeypatch.setattr(np.linalg, "eigvalsh", unused)
    for name, ch in channels:
        cls = classify(ch)
        got = (cls.hermitian_preserving, cls.trace_preserving,
               cls.completely_positive, cls.positive)
        assert got == want[name], name


def test_kraus_classification_builds_no_chi():
    """Classifying a Kraus map never builds its chi matrix: Tr chi is read as
    Tr(sum K^dag K) / D.  The flags equal the chi-based reference on the
    battery, and sum K^dag K = (1 + delta) I is trace preserving for
    |delta| = 5e-10 and not for |delta| = 2e-9, on either side of TP_ATOL,
    as the chi of the same map gives."""
    for name, ch in battery():
        cls = ch.classification
        assert ch._chi is None, name
        got = (cls.hermitian_preserving, cls.trace_preserving, cls.completely_positive)
        assert got == _reference_flags(ch), name
    base = random_cp_channel(2, np.random.default_rng(10))
    for delta, want in ((5e-10, True), (-5e-10, True), (2e-9, False), (-2e-9, False)):
        ch = ChannelModel.from_kraus([np.sqrt(1 + delta) * k for k in base.kraus])
        assert ch.classification.trace_preserving is want, delta
        assert ch._chi is None, delta
        assert _reference_flags(ch)[1] is want, delta


def test_non_hermitian_trace_preservation_is_the_operator_condition():
    """Tr chi = 1 does not make a non-Hermitian map trace preserving: the
    flag agrees with Tr L(rho) = Tr rho on random states."""
    rng = np.random.default_rng(8)
    one_sided = np.zeros((4, 4), dtype=complex)
    one_sided[0, 0], one_sided[0, 3] = 1.0, 0.3  # sum chi P_l' P_l = I + 0.3 Z
    cancelling = np.zeros((4, 4), dtype=complex)
    cancelling[0, 0], cancelling[0, 1], cancelling[1, 0] = 1.0, 0.3, -0.3  # = I
    for mat, want in ((one_sided, False), (cancelling, True)):
        ch = chi_channel(ChiMatrix(1, mat))
        cls = classify(ch)
        assert not cls.hermitian_preserving and cls.trace_preserving is want
        traces = [np.trace(ch.apply(random_density(2, rng))) for _ in range(5)]
        assert bool(np.abs(np.array(traces) - 1.0).max() < 1e-12) is want


def test_trace_preservation_operator_condition_dense():
    """TP iff sum_{l,l'} chi[l,l'] P_l' P_l = I, checked densely at n <= 2."""
    rng = np.random.default_rng(4)
    for n in (1, 2):
        ch = random_cp_channel(n, rng)
        chi = ch.chi.mat
        d = 1 << n
        mats = [Pauli.from_label(n, l).to_matrix() for l in range(4 ** n)]
        acc = np.zeros((d, d), dtype=complex)
        for l in range(4 ** n):
            for lp in range(4 ** n):
                acc += chi[l, lp] * mats[lp] @ mats[l]
        np.testing.assert_allclose(acc, np.eye(d), atol=1e-9)


def test_cp_bound():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        for _ in range(20):
            assert check_cp_bound(random_cp_channel(n, rng).chi) == []
    # CNOT saturates the bound without violating it
    assert check_cp_bound(cnot_channel().chi) == []
    viol = check_cp_bound(transpose_map_channel().chi)
    assert any(l == 0 and lp == 2 for l, lp, _, _ in viol)


def test_positive_bound():
    chi_t = transpose_map_channel().chi
    pair, diag = check_positive_bound(chi_t)
    assert pair == [] and diag == []
    assert chi_t.mat[2, 2].real == -0.5  # sits exactly on the -1/D edge
    rng = np.random.default_rng(6)
    for n in (1, 2):
        for _ in range(10):
            pair, diag = check_positive_bound(random_cp_channel(n, rng).chi)
            assert pair == [] and diag == []
    bad = ChiMatrix(1, np.diag([1.6, 0.0, -0.6, 0.0]).astype(complex))
    _, diag = check_positive_bound(bad)
    assert [l for l, _ in diag] == [0, 2]


def test_coarse_grain_examples():
    cg = coarse_grain(ChannelModel.identity(2).chi)
    np.testing.assert_allclose(cg.by_weight, [1, 0, 0], atol=1e-14)
    cg_dep = coarse_grain(chi_from_kraus(depolarizing_kraus(0.3)))
    np.testing.assert_allclose(cg_dep.by_weight, [0.775, 0.225], atol=1e-12)
    assert abs(cg_dep.by_support[(1,)] - 0.225) < 1e-12
    cg_cnot = coarse_grain(cnot_channel().chi)
    np.testing.assert_allclose(cg_cnot.by_weight, [0.25, 0.5, 0.25], atol=1e-12)


def test_coarse_grain_weight_sums_match_trace():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        chi = random_cp_channel(n, rng).chi
        cg = coarse_grain(chi)
        assert abs(cg.by_weight.sum() - chi.diagonal().sum().real) < 1e-10


def test_compose_and_embed():
    # Z1 then X1 equals Y1 up to phase: compare on random states
    n = 2
    z = ChannelModel.from_unitary(gate_unitary("Z", (0,), n))
    x = ChannelModel.from_unitary(gate_unitary("X", (0,), n))
    y = ChannelModel.from_unitary(gate_unitary("Y", (0,), n))
    comp = compose([z, x])
    rng = np.random.default_rng(8)
    for _ in range(5):
        rho = random_density(4, rng)
        np.testing.assert_allclose(comp.apply(rho), y.apply(rho), atol=1e-12)
    dep2 = ChannelModel(2, kraus=embed_kraus(depolarizing_kraus(0.3), 1, 2))
    cg = coarse_grain(dep2.chi)
    assert abs(cg.by_support[(0, 1)] - 0.225) < 1e-12


def test_chi_export_round_trip(tmp_path):
    """The chi.json and chi.csv that ``exact-chi`` writes read back to the
    channel's chi matrix."""
    chi = cnot_channel().chi
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "cnot", "n": 2,
                                "build": [{"named_gate": "CNOT", "qubits": [1, 2]}]}))
    assert main(["exact-chi", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "chi.json").read_text())
    loaded = ChiMatrix(doc["n"], [[complex(re, im) for re, im in row] for row in doc["entries"]])
    np.testing.assert_allclose(loaded.mat, chi.mat, atol=0)
    with open(tmp_path / "chi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 16 and len(rows[0]) == 16
    re, im = rows[0][0].split(",")
    assert abs(float(re) - 0.25) < 1e-15 and float(im) == 0.0


def test_dimension_errors():
    with pytest.raises(DimensionMismatchError):
        chi_from_kraus([np.eye(2), np.eye(4)])
    with pytest.raises(DimensionMismatchError):
        chi_channel(cnot_channel().chi).apply(np.eye(2))


def test_empty_kraus_set_rejected():
    """A map needs at least one Kraus operator, in the constructor and in
    from_kraus alike, as chi_from_kraus says."""
    for build in (lambda: ChannelModel(1, kraus=[]), lambda: ChannelModel.from_kraus([])):
        with pytest.raises(ValueError, match="need at least one Kraus operator"):
            build()


@pytest.mark.parametrize("n", range(1, 7))
def test_chi_labels_name_each_label_as_its_pauli(n):
    """``ChiMatrix.labels`` lists ``str(Pauli.from_label(n, l))`` for every
    label l, in label order.  The chi matrix is a broadcast zero, so n = 6
    holds no 4^6 x 4^6 array."""
    chi = ChiMatrix(n, np.broadcast_to(np.zeros((), dtype=complex), (4 ** n, 4 ** n)))
    assert chi.labels() == [str(Pauli.from_label(n, l)) for l in range(4 ** n)]
