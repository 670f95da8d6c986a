import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (class_of, outcome_bits, random_cp_channel, solve_unique_batch,
                      spy_discover, symplectic_product, xor_combination)
from twirltomo import gf2, seqpt
from twirltomo.pauli import Pauli
from twirltomo.seqpt import SeqptConfig, _constraint_classes, run_blind_discovery
from twirltomo.rng import draw_batch
from twirltomo.stabilizer import (_key_to_pauli, build_mub_family, clifford_bounds,
                                  grow_cliffords, sample_clifford_uniform)


def brute_solutions(rows, rhs, width):
    return {v for v in range(1 << width)
            if all(bin(r & v).count("1") % 2 == b for r, b in zip(rows, rhs))}


def test_solve_affine_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(1500):
        width = int(rng.integers(1, 8))
        m = int(rng.integers(0, 6))
        rows = [int(rng.integers(0, 1 << width)) for _ in range(m)]
        rhs = [int(rng.integers(0, 2)) for _ in range(m)]
        want = brute_solutions(rows, rhs, width)
        got = gf2.solve_affine(rows, rhs, width)
        if got is None:
            assert not want
        else:
            part, basis = got
            gen = {part ^ xor_combination(basis, c) for c in range(1 << len(basis))}
            assert gen == want


def test_rref_canonical():
    rng = np.random.default_rng(2)
    for _ in range(800):
        width = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        rows = [int(rng.integers(0, 1 << width)) for _ in range(m)]
        rows2 = list(rows)
        for _ in range(12):
            i, j = rng.integers(0, m, 2)
            if i != j:
                rows2[i] ^= rows2[j]
        rng.shuffle(rows2)
        assert gf2.rref(rows) == gf2.rref(rows2)


def test_rref_batch_equals_rref():
    """The batched rref of stacked independent row sets equals rref of each."""
    rng = np.random.default_rng(3)
    for width in range(1, 10):
        for r in range(1, width + 1):
            rows = rng.integers(1, 1 << width, size=(60, r), dtype=np.uint64)
            rows = rows[[gf2.rank(row) == r for row in rows.tolist()]]
            got = gf2.rref_batch(rows, width)
            assert got.shape == rows.shape
            assert got.tolist() == [gf2.rref(row) for row in rows.tolist()]


def _affine_systems(width):
    """1 to 4 systems of ``width``-bit functionals, r of them each for one
    r in 0..width, with the solution each system's rhs is read from."""
    word = st.integers(0, (1 << width) - 1)
    return st.integers(0, width).flatmap(lambda r: st.lists(
        st.tuples(st.lists(word, min_size=r, max_size=r), word), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 62).flatmap(lambda width: st.tuples(st.just(width),
                                                            _affine_systems(width))))
@example((62, [([1 << 61, (1 << 62) - 1, 1], (1 << 62) - 1)]))
@example((62, [([(1 << 62) - 1], 1 << 61), ([1 << 61], 0)]))
def test_solve_affine_batch_equals_scalar(case):
    """The frames read off rref_batch's rows equal gf2.solve_affine's: the
    particular key and the nullspace keys in the same free-coordinate order,
    up to 62 coefficient bits (the top bit of a row is then bit 62)."""
    width, systems = case
    systems = [(fs, x) for fs, x in systems if gf2.rank(fs) == len(fs)]
    assume(systems)
    r = len(systems[0][0])
    aug = [[(f << 1) | (bin(f & x).count("1") & 1) for f in fs] for fs, x in systems]
    rows = gf2.rref_batch(np.array(aug, dtype=np.uint64).reshape(len(aug), r), width + 1)
    particular, basis = gf2.solve_affine_batch(rows, width)
    assert particular.dtype == basis.dtype == np.uint64
    assert basis.shape == (len(systems), width - r)
    for k, row in enumerate(aug):
        want = gf2.solve_affine([v >> 1 for v in row], [v & 1 for v in row], width)
        assert (int(particular[k]), basis[k].tolist()) == want


def test_rank_and_span():
    assert gf2.rank([0b01, 0b10, 0b11]) == 2
    assert gf2.rank([]) == 0
    # v is in the span of rows exactly when it leaves the rank unchanged
    assert gf2.rank([0b01, 0b10, 0b11]) == gf2.rank([0b01, 0b10])
    assert gf2.rank([0b01, 0b10, 0b100]) == 3


def _solve_unique_python(aug_rows, width):
    """Reference: the unique solution through gf2.rank and gf2.solve_affine."""
    rows = [r >> 1 for r in aug_rows]
    if gf2.rank(rows) != width:
        return -1
    sol = gf2.solve_affine(rows, [r & 1 for r in aug_rows], width)
    if sol is None or sol[1]:
        return -1
    return sol[0]


def _random_classes(n, count, rng):
    """Constraint classes of uniformly drawn Clifford frames and outcomes."""
    classes = []
    for _ in range(count):
        c = sample_clifford_uniform(n, rng)
        outcome = int(rng.integers(0, 1 << n))
        classes.append(class_of([p.key for p in c.z_images], n, outcome))
    return classes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_constraint_classes_equal_per_group_rref(n):
    """One batched pass gives each (frame, outcome) group the class of its
    own Python-int rref: uniform Clifford frames and every MUB frame, with
    random outcomes."""
    rng = np.random.default_rng(40 + n)
    rows, _ = draw_batch(n, 1, 300, clifford_bounds(n), 0)
    frames = np.concatenate((grow_cliffords(n, rows).z, build_mub_family(n).z))
    outcomes = rng.integers(0, 1 << n, size=len(frames))
    got = _constraint_classes(n, frames, outcomes)
    assert got.dtype == np.uint64 and got.shape == frames.shape
    assert [tuple(row) for row in got.tolist()] == [
        class_of(frame, n, v) for frame, v in zip(frames.tolist(), outcomes.tolist())]


@pytest.mark.parametrize("variant", ["mub", "clifford"])
def test_discover_merges_classes_in_first_seen_order(variant, monkeypatch):
    """Groups with equal classes merge into one class whose count sums
    theirs, and the classes reach the pair pass in the order of their first
    group, as a dict keyed by each group's reference class gives them."""
    seen, pair_votes = [], seqpt._pair_votes

    def counted(n, class_rows, counts):
        seen.append((class_rows, counts))
        return pair_votes(n, class_rows, counts)

    monkeypatch.setattr(seqpt, "_pair_votes", counted)
    n = 3
    d = 1 << n
    rng = np.random.default_rng(9)
    bases = rng.integers(0, d + 1, size=400)
    if variant == "mub":
        frames = build_mub_family(n).z[bases]
    else:  # 40 frames, so that distinct frames share classes
        rows, _ = draw_batch(11, 1, 40, clifford_bounds(n), 0)
        frames = grow_cliffords(n, rows).z[bases % 40]
    outcomes = rng.integers(0, d, size=len(frames))
    sizes = rng.integers(1, 5, size=len(frames))
    seqpt._discover(n, SeqptConfig(shots=int(sizes.sum()), seed=1), frames, outcomes, sizes)
    want: dict[tuple[int, ...], int] = {}
    for frame, v, size in zip(frames.tolist(), outcomes.tolist(), sizes.tolist()):
        key = class_of(frame, n, v)
        want[key] = want.get(key, 0) + size
    (class_rows, counts), = seen
    assert len(want) < len(frames)
    assert [tuple(row) for row in class_rows.tolist()] == list(want)
    assert counts.dtype == np.int64 and counts.tolist() == list(want.values())


def test_pairs_independent_vs_python():
    """The batched solve of every class pair matches the Python-int GF(2)
    path, at n = 1..4, including pairs whose frames share a stabilizer."""
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4):
        classes = _random_classes(n, 40, rng)
        # one frame under two outcomes: shares every stabilizer, never usable
        keys = [p.key for p in sample_clifford_uniform(n, rng).z_images]
        classes += [class_of(keys, n, outcome) for outcome in (0, 1)]
        rows = np.array(classes, dtype=np.uint64)
        seen = set()
        for i in range(len(classes) - 1):
            partners = np.arange(i + 1, len(classes))
            stacked = np.concatenate(
                (np.broadcast_to(rows[i], (len(partners), n)), rows[partners]), axis=1)
            got = solve_unique_batch(stacked, 2 * n)
            want = [_solve_unique_python(classes[i] + classes[j], 2 * n) for j in partners]
            np.testing.assert_array_equal(got, want)
            seen.update(w >= 0 for w in want)
        assert seen == {True, False}


def test_solve_unique_batch_random_systems():
    """Random square systems of any rank against the Python-int path."""
    rng = np.random.default_rng(5)
    for _ in range(400):
        width = int(rng.integers(1, 9))
        rows = rng.integers(0, 1 << (width + 1), size=(6, width), dtype=np.uint64)
        got = solve_unique_batch(rows, width)
        want = [_solve_unique_python([int(v) for v in r], width) for r in rows]
        np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError):
        solve_unique_batch(np.zeros((2, 3), dtype=np.uint64), 4)


def _assert_solves_like_python(rows, width):
    got = solve_unique_batch(rows, width)
    want = [_solve_unique_python([int(v) for v in r], width) for r in np.asarray(rows)]
    assert got.dtype == np.int64 and got.shape == (len(rows),)
    np.testing.assert_array_equal(got, want)
    return got


def test_solve_unique_batch_edge_cases():
    """The swap-free elimination against the Python-int path on an empty
    batch, width 1, rows whose pivot only a lower row supplies, systems of
    every rank below full, and inputs that are not C-contiguous, which it
    leaves unchanged."""
    rng = np.random.default_rng(6)
    for width in (1, 3, 6):
        assert _assert_solves_like_python(np.zeros((0, width), np.uint64), width).size == 0
    # width 1: every augmented row, 0 = 0, 0 = 1, v = 0 and v = 1
    assert _assert_solves_like_python(np.arange(4, dtype=np.uint64)[:, None], 1).tolist() \
        == [-1, -1, 0, 1]
    for width in range(2, 9):
        # row k holds coefficient bit k: row 0 lacks the top pivot, and only
        # the last row has it
        anti = (np.uint64(2) << np.arange(width, dtype=np.uint64))
        rhs = rng.integers(0, 2, size=(20, width), dtype=np.uint64)
        assert (_assert_solves_like_python(anti | rhs, width) >= 0).all()
        # random systems whose top coefficient bit only the last row holds
        rows = rng.integers(0, 1 << (width + 1), size=(400, width), dtype=np.uint64)
        moved = rows & np.uint64((1 << width) - 1)
        moved[:, -1] |= np.uint64(1 << width)
        assert (_assert_solves_like_python(moved, width) >= 0).any()
        # rank deficient: a zero row, a repeated row (either rhs), and past
        # width 2 a row the sum of two others
        rank_low = rows[:30 if width > 2 else 20].copy()
        rank_low[:10, 0] = rng.integers(0, 2, size=10, dtype=np.uint64)
        rank_low[10:20, -1] = rank_low[10:20, 0] ^ rng.integers(0, 2, size=10, dtype=np.uint64)
        rank_low[20:, -1] = rank_low[20:, 0] ^ rank_low[20:, 1]
        assert (_assert_solves_like_python(rank_low, width) == -1).all()
        # a transposed copy and a strided view, neither C-contiguous
        for view in (np.ascontiguousarray(rows.T).T, rows[::3]):
            kept = view.copy()
            assert not view.flags.c_contiguous
            _assert_solves_like_python(view, width)
            np.testing.assert_array_equal(view, kept)


def test_membership_counts(monkeypatch):
    """Each reported compatible_count equals the number of realizations
    whose frame signs admit the label, counted group by group over the
    (Z-frame, outcome, size) groups the run hands to ``_discover`` (one
    realization per group for Clifford, one seen (basis, outcome) for MUB)."""
    channel = random_cp_channel(2, np.random.default_rng(7))
    seen = spy_discover(monkeypatch)
    for variant in ("clifford", "mub"):
        res = run_blind_discovery(channel, SeqptConfig(shots=300, seed=8, variant=variant))
        frames, outcomes, sizes = seen.pop()
        assert res.estimates and sizes.sum() == 300
        for label, est in res.estimates.items():
            p = Pauli.from_string(label)
            count = 0
            for frame, v, size in zip(frames.tolist(), outcomes.tolist(), sizes.tolist()):
                gens = [_key_to_pauli(k, 2) for k in frame]
                count += size * all(symplectic_product(g, p) == bit
                                    for g, bit in zip(gens, outcome_bits(v, 2)))
            assert est.compatible_count == count, (variant, label)
