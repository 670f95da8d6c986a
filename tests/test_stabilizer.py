import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from conftest import (class_of, conjugated_xz_table, label_table, mub_family_reference,
                      symplectic_product, xor_combination)
from twirltomo import gf2
from twirltomo.pauli import Pauli
from twirltomo.stabilizer import (Clifford, _key_to_pauli,
                                  _swap_halves, build_mub_family,
                                  circuit_unitary, clifford_bounds,
                                  clifford_group_tableaux, draw_clifford_row,
                                  enumerate_clifford_group, grow_cliffords,
                                  outcome_shift, sample_clifford_uniform)
from twirltomo.seqpt import frames_independent_probability
from twirltomo.rng import draw_batch, master


def test_gate_conjugation_pinned_conventions():
    h = Clifford.from_circuit([("H", (0,))], 1)
    assert str(h.conjugate(Pauli.from_string("X"))) == "Z"
    assert str(h.conjugate(Pauli.from_string("Z"))) == "X"
    assert str(h.conjugate(Pauli.from_string("Y"))) == "-Y"
    s = Clifford.from_circuit([("S", (0,))], 1)
    assert str(s.conjugate(Pauli.from_string("X"))) == "Y"
    assert str(s.conjugate(Pauli.from_string("Z"))) == "Z"
    cn = Clifford.from_circuit([("CNOT", (0, 1))], 2)
    assert str(cn.conjugate(Pauli.from_string("XI"))) == "XX"
    assert str(cn.conjugate(Pauli.from_string("IZ"))) == "ZZ"


def test_conjugation_matches_dense():
    gates = [("H", (0,)), ("S", (1,)), ("CNOT", (0, 1)), ("CNOT", (1, 0)),
             ("X", (0,)), ("Y", (1,)), ("Z", (0,))]
    for g in gates:
        u = circuit_unitary([g], 2)
        c = Clifford.from_circuit([g], 2)
        for l in range(16):
            p = Pauli.from_label(2, l)
            np.testing.assert_allclose(c.conjugate(p).to_matrix(),
                                       u @ p.to_matrix() @ u.conj().T, atol=1e-12)


def _assert_unitary_conjugates(c, paulis):
    """c.unitary() is unitary and conjugates each Pauli to its tableau image."""
    u = c.unitary()
    np.testing.assert_allclose(u.conj().T @ u, np.eye(1 << c.n), atol=1e-10)
    for p in paulis:
        np.testing.assert_allclose(c.conjugate(p).to_matrix(),
                                   u @ p.to_matrix() @ u.conj().T, atol=1e-10)


def test_conjugation_random_vs_dense_n3():
    """The unitary built from the tableau conjugates Paulis as the images
    say: 12 uniform elements at n = 3 (6 random Paulis each), 12 more at each
    n = 1..4 (every Pauli), and every element of the n = 1 group."""
    rng = master(1)
    for _ in range(12):
        c = sample_clifford_uniform(3, rng)
        _assert_unitary_conjugates(
            c, [Pauli.from_label(3, int(rng.integers(0, 64))) for _ in range(6)])
    for n in (1, 2, 3, 4):
        paulis = [Pauli.from_label(n, l) for l in range(4 ** n)]
        for _ in range(12):
            _assert_unitary_conjugates(sample_clifford_uniform(n, rng), paulis)
    for c in enumerate_clifford_group(1):
        _assert_unitary_conjugates(c, [Pauli.from_label(1, l) for l in range(4)])


def _projector_unitary(c):
    """Dense unitary of one Clifford by dense matrix products: column 0 is
    the normalized largest column of prod_k (I + g_k) / 2 over the signed
    Z-images g_k, and each X-image h doubles the columns as [u, h u], qubit
    n first."""
    d = 1 << c.n
    proj = np.eye(d, dtype=complex)
    for g in c.z_images:
        proj = proj @ (np.eye(d) + g.to_matrix()) / 2
    norms = np.linalg.norm(proj, axis=0)
    u = proj[:, [int(np.argmax(norms))]] / norms.max()
    for h in reversed(c.x_images):
        u = np.concatenate((u, h.to_matrix() @ u), axis=1)
    return u


def test_stacked_unitaries_equal_the_projector_build():
    """Tableaux.unitaries (signed row permutations) equals the build by
    dense Pauli matrix products bit for bit: 200 sampled elements per
    n = 1..5, 40 at n = 6, and every MUB basis at n = 1..6; a single
    Clifford's unitary() is the one-element stack."""
    for n in range(1, 7):
        count = 200 if n < 6 else 40
        rows, _ = draw_batch(60 + n, 1, count, clifford_bounds(n), 0)
        tableaux = grow_cliffords(n, rows)
        got = tableaux.unitaries()
        assert got.shape == (count, 1 << n, 1 << n)
        for i in range(count):
            assert np.array_equal(got[i], _projector_unitary(tableaux.clifford(i))), (n, i)
        family = build_mub_family(n)
        got = family.unitaries()
        for j in range(len(family)):
            c = family.clifford(j)
            want = _projector_unitary(c)
            assert np.array_equal(got[j], want), (n, j)
            assert np.array_equal(c.unitary(), want), (n, j)


def _label_scan_shift(tableaux, p):
    """The X part a of C^dag P C for each element of the stack, found by
    scanning the labels of C X^a Z^b C^dag for P's label."""
    x, z, _ = conjugated_xz_table(tableaux)
    labels = label_table(tableaux.n)[x, z]
    return np.argmax(labels == p.label, axis=1) >> tableaux.n


def test_outcome_shift_equals_label_scan():
    """outcome_shift on the Z-images equals the label-table scan for every P
    on the whole n = 1 and n = 2 groups, and for random P on sampled stacks
    at n = 3 and n = 4; one frame as a list of keys gives the same int."""
    for n in (1, 2):
        tableaux = clifford_group_tableaux(n)
        for l in range(4 ** n):
            p = Pauli.from_label(n, l)
            assert np.array_equal(outcome_shift(tableaux.z, p),
                                  _label_scan_shift(tableaux, p)), (n, l)
    rng = master(12)
    for n, count in ((3, 400), (4, 100)):
        rows, _ = draw_batch(int(rng.integers(0, 2 ** 32)), 1, count, clifford_bounds(n), 0)
        tableaux = grow_cliffords(n, rows)
        for l in rng.integers(0, 4 ** n, size=30).tolist():
            p = Pauli.from_label(n, l)
            shifts = outcome_shift(tableaux.z, p)
            assert np.array_equal(shifts, _label_scan_shift(tableaux, p)), (n, l)
            assert outcome_shift(tableaux.z[0].tolist(), p) == shifts[0]


# SHA-256 of the JSON list of (key, phase) images of every element, in
# enumeration order, as the Python-int enumeration gave it
ENUMERATION_DIGESTS = {
    1: (24, "dc20e0bcf1efa535ca4e9937bdc8b94f8a755a7b5f7a3942f46223ced2cb274a"),
    2: (11520, "cd7a19063cbbfaacf9bca450b5a242a16c52354e6ad7f3270df0eead62cc9b01"),
}


def test_clifford_group_enumeration():
    from twirltomo.dense import TwirlSpec
    for n, (size, digest) in ENUMERATION_DIGESTS.items():
        group = list(enumerate_clifford_group(n))
        assert len(group) == len(set(group)) == size
        assert size == TwirlSpec("clifford_full", n).enumeration_size
        keys = [[(p.key, p.phase_pow) for p in (*c.x_images, *c.z_images)] for c in group]
        assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() == digest, n


def _reference_sample(n, rng):
    """The sampler on Python ints through gf2.solve_affine: the loop that
    grow_cliffords runs on arrays, with the same draws."""
    pairs = []
    for _ in range(n):
        rows = [_swap_halves(v, n) for pair in pairs for v in pair]
        _, basis = gf2.solve_affine(rows, [0] * len(rows), 2 * n)
        xk = xor_combination(basis, int(rng.integers(1, 1 << len(basis))))
        part, basis2 = gf2.solve_affine(rows + [_swap_halves(xk, n)],
                                        [0] * len(rows) + [1], 2 * n)
        pairs.append((xk, part ^ xor_combination(basis2, int(rng.integers(0, 1 << len(basis2))))))
    signs = rng.integers(0, 2, size=2 * n)
    return Clifford(n, tuple(_key_to_pauli(x, n, 2 * int(signs[2 * j]))
                             for j, (x, _) in enumerate(pairs)),
                    tuple(_key_to_pauli(z, n, 2 * int(signs[2 * j + 1]))
                          for j, (_, z) in enumerate(pairs)))


@pytest.mark.parametrize("n", range(1, 6))
def test_sampler_matches_python_int_reference(n):
    """sample_clifford_uniform grows the element the Python-int loop grows
    from the same draws, 300 times in a row from one generator."""
    rng_a, rng_b = master(700 + n), master(700 + n)
    for _ in range(300):
        assert sample_clifford_uniform(n, rng_a) == _reference_sample(n, rng_b)


def test_sampler_uniform_n1():
    """Each of the 24 single-qubit Cliffords appears with frequency 1/24."""
    rng = master(3)
    m = 60000
    # the elements sample_clifford_uniform draws one after another from rng
    tableaux = grow_cliffords(1, [draw_clifford_row(1, rng) for _ in range(m)])
    counts = Counter(tableaux.clifford(i) for i in range(m))
    assert len(counts) == 24
    sigma = np.sqrt(m * (1 / 24) * (23 / 24))
    for c, cnt in counts.items():
        assert abs(cnt - m / 24) <= 4 * sigma


def test_sampler_twirl_average_vanishes():
    """Group average of a traceless operator tends to zero."""
    rng = master(4)
    z = Pauli.from_string("Z").to_matrix()
    m = 10000
    acc = np.zeros((2, 2), dtype=complex)
    tableaux = grow_cliffords(1, [draw_clifford_row(1, rng) for _ in range(m)])
    for i in range(m):
        u = tableaux.clifford(i).unitary()
        acc += u.conj().T @ z @ u
    acc /= m
    assert np.abs(acc).max() < 3.5 / np.sqrt(m) + 0.02


def _z_images(keys, n):
    return [_key_to_pauli(k, n) for k in keys]


@pytest.mark.parametrize("n", range(1, 11))
def test_mub_family_equals_gf2_completion_reference(n):
    """The closed-form MUB stack has the x, z and sign arrays of the family
    built by completing each Z frame with one GF(2) solve per qubit; the
    cached arrays are read-only."""
    family, want = build_mub_family(n), mub_family_reference(n)
    assert len(family) == (1 << n) + 1
    for got, ref in ((family.x, want.x), (family.z, want.z), (family.signs, want.signs)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref), n
        assert not got.flags.writeable


@pytest.mark.parametrize("n", range(1, 9))
def test_mub_family_is_symplectic(n):
    """Every basis is a valid tableau: its Z-images commute pairwise and are
    independent, <x_i, z_j> = delta_ij, and its X-images commute."""
    family = build_mub_family(n)
    eye = np.eye(n, dtype=np.int64)

    def products(a, b):  # <a_i, b_j> for every basis: (D+1, n, n)
        return np.bitwise_count(_swap_halves(a[:, :, None], n) & b[:, None, :]) & 1

    assert not products(family.z, family.z).any()
    assert not products(family.x, family.x).any()
    assert (products(family.x, family.z) == eye).all()
    assert all(gf2.rank(keys) == n for keys in family.z.tolist())
    assert not family.signs.any()


def test_tableaux_int_index_is_a_one_row_stack():
    """An int row of a stack is the one-row stack of that element, negative
    indices counting from the end, with the element's unitary and law."""
    family = build_mub_family(2)
    for j in (0, 3, -1):
        row = family[j]
        assert len(row) == 1 and row.x.shape == (1, 2) and row.signs.shape == (1, 4)
        assert row.clifford(0) == family.clifford(j % len(family))
        assert np.array_equal(row.unitaries()[0], family.unitaries()[j])
    with pytest.raises(IndexError):
        family[len(family)]


def test_mub_family_n1():
    fam = build_mub_family(1)
    assert len(fam) == 3
    classes = {frozenset(str(g) for g in _z_images(keys, 1)) for keys in fam.z.tolist()}
    assert classes == {frozenset({"Z"}), frozenset({"X"}), frozenset({"Y"})}


def test_mub_partition():
    for n in (1, 2, 3):
        fam = build_mub_family(n)
        d = 1 << n
        assert len(fam) == d + 1
        seen = set()
        for keys in fam.z.tolist():
            gens = _z_images(keys, n)
            group = set()
            for bits in range(1, d):
                acc = Pauli.identity(n)
                for j in range(n):
                    if (bits >> j) & 1:
                        acc = acc * gens[j]
                group.add((acc.x, acc.z))
            assert len(group) == d - 1
            assert not (group & seen)
            seen |= group
        assert len(seen) == d * d - 1


def test_mub_partition_spot_checks_n8():
    """Randomized disjointness checks where dense verification is impossible."""
    rng = master(5)
    for n in (5, 8):
        fam = build_mub_family(n)
        assert len(fam) == (1 << n) + 1
        for _ in range(200):
            i, j = rng.choice(len(fam), size=2, replace=False)
            rows = fam.z[int(i)].tolist() + fam.z[int(j)].tolist()
            assert gf2.rank(rows) == 2 * n  # trivial intersection


def test_mub_unbiasedness_dense():
    for n in (1, 2, 3):
        fam = build_mub_family(n)
        d = 1 << n
        mats = fam.unitaries()
        for (i, wi), (j, wj) in itertools.combinations(list(enumerate(mats)), 2):
            np.testing.assert_allclose(np.abs(wi.conj().T @ wj) ** 2, 1.0 / d,
                                       atol=1e-10)


def _solve_pair(frame1, v1, frame2, v2):
    """Key of the unique Pauli compatible with outcome v1 of frame1 and v2
    of frame2 (lists of Z-image keys), or -1, as blind discovery solves it."""
    n = len(frame1)
    c1 = class_of(frame1, n, v1)
    c2 = class_of(frame2, n, v2)
    (key,) = gf2.solve_unique_batch(np.array([c1 + c2], dtype=np.uint64), 2 * n)
    return int(key)


def _candidates(frame, outcome):
    """Every Pauli compatible with one outcome of a frame (a list of Z-image
    keys): the solutions of its constraint class."""
    n = len(frame)
    rows = class_of(frame, n, outcome)
    particular, basis = gf2.solve_affine([r >> 1 for r in rows], [r & 1 for r in rows], 2 * n)
    return [_key_to_pauli(particular ^ xor_combination(basis, c), n)
            for c in range(1 << len(basis))]


def test_solver_spec_examples():
    zf = [Pauli.from_string("Z").key]
    xf = [Pauli.from_string("X").key]
    assert _solve_pair(zf, 1, xf, 0) == Pauli.from_string("X").key
    assert _solve_pair(zf, 0, zf, 1) == -1
    assert _solve_pair(zf, 0, zf, 0) == -1


def test_candidate_sets():
    zf = [Pauli.from_string("Z").key]
    assert sorted(str(q) for q in _candidates(zf, 0)) == ["I", "Z"]
    assert sorted(str(q) for q in _candidates(zf, 1)) == ["X", "Y"]
    for keys in build_mub_family(2).z.tolist():
        for v in range(4):
            members = _candidates(keys, v)
            assert len({q.key for q in members}) == len(members) == 4
            assert all(symplectic_product(g, q) == (v >> (1 - k)) & 1
                       for q in members for k, g in enumerate(_z_images(keys, 2)))
    # the weight <= 1 members for the all-zero outcome of the Z frame at n=3
    z3 = [Pauli.from_string(s).key for s in ("ZII", "IZI", "IIZ")]
    light = {str(q) for q in _candidates(z3, 0) if q.weight <= 1}
    assert light == {"III", "ZII", "IZI", "IIZ"}


def test_mub_pairs_pin_down_a_unique_pauli_n2():
    """Two MUB realizations from distinct bases determine one intermediary
    Pauli, the unique one compatible with both outcomes, through the
    constraint classes and the batched solve of blind discovery; two from
    the same basis determine none."""
    n = 2
    fam = build_mub_family(n)
    paulis = [Pauli.from_label(n, l) for l in range(4 ** n)]
    frames = fam.z.tolist()
    for (i, b1), (j, b2) in itertools.combinations_with_replacement(enumerate(frames), 2):
        for v1, v2 in itertools.product(range(1 << n), repeat=2):
            key = _solve_pair(b1, v1, b2, v2)
            if i == j:
                assert key == -1
                continue
            # brute force: outcome bit k is the symplectic product with generator k
            brute = [q for q in paulis
                     if all(symplectic_product(g, q) == (v >> (n - 1 - k)) & 1
                            for gens, v in ((_z_images(b1, n), v1),
                                            (_z_images(b2, n), v2))
                            for k, g in enumerate(gens))]
            assert len(brute) == 1 and brute[0].key == key


def test_frames_independent_rate_matches_exact_product():
    """Monte Carlo pair-independence rate against the counting formula."""
    rng = master(6)
    for n, m in ((1, 20000), (2, 20000), (3, 15000)):
        # pair i: elements 2i and 2i + 1 as drawn one after another from rng
        frames = grow_cliffords(n, [draw_clifford_row(n, rng) for _ in range(2 * m)]).z
        hits = sum(gf2.rank(keys) == 2 * n
                   for keys in frames.reshape(m, 2 * n).tolist())
        want = frames_independent_probability(n)
        sigma = np.sqrt(want * (1 - want) / m)
        assert abs(hits / m - want) <= 4 * sigma, (n, hits / m, want)


def test_frames_independent_examples():
    ident = Clifford.identity(1)
    had = Clifford.from_circuit([("H", (0,))], 1)

    def independent(ca, cb):
        return gf2.rank([p.key for p in (*ca.z_images, *cb.z_images)]) == 2 * ca.n

    assert independent(ident, had)
    assert not independent(ident, ident)


def _frame_state_vector(generators):
    """Dense stabilizer state of a frame with all +1 signs: a column of the
    product of the projectors (1 + g_j) / 2, normalized."""
    d = 1 << generators[0].n
    proj = np.eye(d, dtype=complex)
    for g in generators:
        proj = proj @ (np.eye(d) + g.to_matrix()) / 2
    v = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    return v / np.linalg.norm(v)


def test_frame_state_vector():
    """The MUB Clifford's unitary maps |0..0> to the state its Z-images
    stabilize."""
    fam = build_mub_family(2)
    for j, keys in enumerate(fam.z.tolist()):
        v = _frame_state_vector(_z_images(keys, 2))
        w = fam.clifford(j).unitary()[:, 0]
        overlap = abs(np.vdot(v, w))
        assert abs(overlap - 1.0) < 1e-10
