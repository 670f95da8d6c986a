import functools
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import symplectic_product
from twirltomo.channels import _GATES_1Q, embed_kraus, gate_unitary
from twirltomo.errors import DimensionMismatchError
from twirltomo.pauli import PAULI_1Q, Pauli, commutes, enumerate_supports, multiply, tensor


def all_paulis(n):
    return [Pauli.from_label(n, l) for l in range(4 ** n)]


def test_multiply_spec_examples():
    assert str(multiply(Pauli.from_string("X"), Pauli.from_string("Y"))) == "iZ"
    for p in all_paulis(2):
        assert multiply(p, p) == Pauli.identity(2)
    prod = multiply(Pauli.from_string("ZI"), Pauli.from_string("IX"))
    assert str(prod) == "ZX" and prod.phase == 1


def test_multiply_matches_dense_exhaustive():
    for n in (1, 2):
        ps = all_paulis(n)
        for a, b in itertools.product(ps, repeat=2):
            m = multiply(a, b)
            np.testing.assert_allclose(m.to_matrix(), a.to_matrix() @ b.to_matrix(),
                                       atol=1e-12)


def test_multiply_associative_exhaustive_n2():
    ps = all_paulis(2)
    for a, b, c in itertools.product(ps, ps, ps):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_commutes_spec_examples():
    assert not commutes(Pauli.from_string("XI"), Pauli.from_string("ZZ"))
    for p in all_paulis(2):
        assert commutes(p, Pauli.identity(2))
    assert commutes(Pauli.from_string("ZZ"), Pauli.from_string("XX"))


def test_commutes_matches_dense():
    for n in (1, 2):
        for a, b in itertools.product(all_paulis(n), repeat=2):
            am, bm = a.to_matrix(), b.to_matrix()
            assert commutes(a, b) == np.allclose(am @ bm, bm @ am)


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_commutes_random_vs_symplectic(n, data):
    x1 = data.draw(st.integers(0, 2 ** n - 1))
    z1 = data.draw(st.integers(0, 2 ** n - 1))
    x2 = data.draw(st.integers(0, 2 ** n - 1))
    z2 = data.draw(st.integers(0, 2 ** n - 1))
    a, b = Pauli(n, x1, z1), Pauli(n, x2, z2)
    want = (bin(x1 & z2).count("1") + bin(z1 & x2).count("1")) % 2
    assert symplectic_product(a, b) == want
    assert commutes(a, b) == (want == 0)
    # ab and ba differ exactly by the sign (-1)^want
    ab, ba = multiply(a, b), multiply(b, a)
    assert (ab.x, ab.z) == (ba.x, ba.z)
    assert (ab.phase_pow - ba.phase_pow) % 4 == 2 * want


def test_mismatched_sizes_raise():
    with pytest.raises(DimensionMismatchError):
        multiply(Pauli.identity(1), Pauli.identity(2))
    with pytest.raises(DimensionMismatchError):
        commutes(Pauli.identity(1), Pauli.identity(2))


def test_weight_and_support():
    for s, want in (("ZIXI", (2, (1, 0, 1, 0))), ("III", (0, (0, 0, 0))),
                    ("YYY", (3, (1, 1, 1)))):
        p = Pauli.from_string(s)
        assert (p.weight, p.support) == want


def test_trace_orthogonality_dense():
    for n in (1, 2, 3):
        d = 1 << n
        mats = [Pauli.from_label(n, l).to_matrix() for l in range(4 ** n)]
        for l, ml in enumerate(mats):
            for lp in range(l, 4 ** n):
                want = d if l == lp else 0.0
                assert abs(np.trace(ml @ mats[lp]) - want) < 1e-12


def test_enumeration_counts_and_order():
    """Supports come weight-major, each once, and with their 3^w axis
    choices they count every Pauli: 4^n in all, 10 of weight <= 1 at n=3."""
    for n in (1, 2, 3):
        sups = list(enumerate_supports(n))
        weights = [sum(s) for s in sups]
        assert weights == sorted(weights)
        assert sorted(sups) == sorted(itertools.product((0, 1), repeat=n))
        assert sum(3 ** w for w in weights) == 4 ** n
    assert sum(3 ** sum(s) for s in enumerate_supports(3, max_weight=1)) == 10
    assert sorted(Pauli.from_label(3, l).label for l in range(64)) == list(range(64))


def test_label_axis_counts():
    # 3^w axis vectors per (weight, support)
    c = Counter(Pauli.from_label(3, l).support for l in range(64))
    assert set(c) == set(enumerate_supports(3))
    for s, cnt in c.items():
        assert cnt == 3 ** sum(s)


def test_label_round_trips():
    for n in (1, 2, 3):
        for l in range(4 ** n):
            assert Pauli.from_label(n, l).label == l
    assert [str(Pauli.from_label(1, l)) for l in range(4)] == ["I", "X", "Y", "Z"]


def test_string_round_trip_with_phases():
    for s in ("ZIXI", "-Y", "iXX", "-iZZZ", "I"):
        assert str(Pauli.from_string(s)) == s
    with pytest.raises(ValueError):
        Pauli.from_string("AB")
    with pytest.raises(ValueError):
        Pauli.from_string("")


def test_enumerate_supports():
    sups = list(enumerate_supports(3, max_weight=1))
    assert sups == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


# -- tensor builder: the same bits as a left fold of np.kron ----------------


def _kron(factors):
    return functools.reduce(np.kron, factors, np.ones((1, 1), dtype=complex))


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):  # signed zeros included
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def _signed_zero_factors(rng, shape):
    """Complex normals with about a third of the real and imaginary parts
    replaced by +0.0 or -0.0."""
    re, im = rng.normal(size=shape), rng.normal(size=shape)
    for part in (re, im):
        zero = rng.random(shape) < 1 / 3
        part[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return re + 1j * im


@pytest.mark.parametrize("n", range(1, 7))
def test_tensor_matches_kron(n):
    rng = np.random.default_rng(n)
    factors = list(_signed_zero_factors(rng, (n, 2, 2)))
    _assert_same_bits(tensor(factors), _kron(factors))
    stacks = list(_signed_zero_factors(rng, (n, 5, 2, 2)))
    got = tensor(stacks)
    assert got.shape == (5, 2 ** n, 2 ** n)
    for t in range(5):
        _assert_same_bits(got[t], _kron([s[t] for s in stacks]))
    # stacks mixed with single matrices, and the stack of none
    mixed = [stacks[0], *factors[1:]]
    for t in range(5):
        _assert_same_bits(tensor(mixed)[t], _kron([stacks[0][t], *factors[1:]]))
    assert tensor([np.zeros((0, 2, 2))] * n).shape == (0, 2 ** n, 2 ** n)


@pytest.mark.parametrize("n", range(1, 7))
def test_embed_and_gates_match_kron(n):
    rng = np.random.default_rng(10 + n)
    ops = list(_signed_zero_factors(rng, (3, 2, 2)))
    for q in range(n):
        want = [_kron([op if j == q else np.eye(2) for j in range(n)]) for op in ops]
        for got, w in zip(embed_kraus(ops, q, n), want):
            _assert_same_bits(got, w)
        for name, g in _GATES_1Q.items():
            _assert_same_bits(gate_unitary(name, (q,), n),
                              _kron([g if j == q else np.eye(2) for j in range(n)]))


@pytest.mark.parametrize("n", range(1, 5))
def test_to_matrix_matches_kron(n):
    for l in range(4 ** n):
        for phase in range(4):
            p = Pauli.from_label(n, l)
            p = Pauli(n, p.x, p.z, phase)
            want = p.phase * _kron([PAULI_1Q["IXYZ".index(c)] for c in str(p.strip_phase())])
            _assert_same_bits(p.to_matrix(), want)
