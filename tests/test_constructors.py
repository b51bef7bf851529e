import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, GroupTable, Representation
from framekit.errors import (
    BadGroupTable,
    BadKL,
    CountMismatch,
    DimMismatch,
    NegativeRadius,
    NotARepresentation,
    NotInvariant,
    NotParseval,
    NumericalOverflow,
)

from conftest import mercedes_benz


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def rotation_rep(n):
    g = GroupTable.cyclic(n)
    return Representation(g, tuple(rotation(2 * np.pi * k / n) for k in range(n)))


def s3_table():
    # permutations of {0,1,2} in a fixed listing; composition by application
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    mul = np.zeros((6, 6), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[k]] for k in range(3))]
    return GroupTable(mul, 0), perms


# --- group table ---------------------------------------------------------------

def test_cyclic_tables_are_groups():
    for n in range(1, 9):
        g = GroupTable.cyclic(n)
        assert g.order == n and g.identity == 0


def test_s3_table_is_a_group():
    g, _ = s3_table()
    assert g.order == 6


def test_bad_tables_rejected():
    with pytest.raises(BadGroupTable):
        GroupTable(np.array([[0, 1], [0, 1]]), 0)  # rows not permutations
    with pytest.raises(BadGroupTable):
        GroupTable(np.array([[1, 0], [0, 1]]), 0)  # identity misplaced
    # a Latin square with identity that is not associative
    latin = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ])
    with pytest.raises(BadGroupTable):
        GroupTable(latin, 0)


# --- left regular ---------------------------------------------------------------

def test_table_entries_must_be_integers():
    for mul in ([[0.5, 1], [1, 0]], [[0, 1], [1, np.nan]], [[False, True], [True, False]],
                [["0", "1"], ["1", "0"]], [[0, 1], [1, 0j]]):
        with pytest.raises(BadGroupTable, match="^table entries must be element indices$"):
            GroupTable(np.asarray(mul), 0)
    z2 = GroupTable(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)  # integral floats are indices
    assert z2.mul.dtype == int and np.array_equal(z2.mul, GroupTable.cyclic(2).mul)


def test_group_identity_must_be_an_element_index():
    mul = GroupTable.cyclic(3).mul
    for e in (0.5, 0.7, np.nan, np.inf, True, np.bool_(False), "0", [0], 1j, 3, -1, 3.0):
        with pytest.raises(BadGroupTable, match="^identity must be an element index below the order 3$"):
            GroupTable(mul, e)
    for e in (0, 0.0, np.int8(0), np.float32(0.0)):  # integral floats are indices
        z3 = GroupTable(mul, e)
        assert type(z3.identity) is int and z3.identity == 0


def test_group_table_leaves_the_callers_array_writable():
    mul = GroupTable.cyclic(3).mul.copy()
    GroupTable(mul, 0)
    assert mul.flags.writeable


def test_objects_that_hold_arrays_compare_and_hash_by_identity():
    """A field-wise == over numpy arrays raises, so these compare by identity."""
    eye = np.eye(2)
    makers = [
        lambda: GroupTable.cyclic(3),
        lambda: fk.left_regular(GroupTable.cyclic(3)),
        lambda: Representation(GroupTable.cyclic(2), (eye, eye)),
        lambda: FramePair(eye, eye, "real"),
        lambda: fk.OvfPair((eye,), (eye,), "real"),
        lambda: fk.PFramePair(eye, eye, 2.0, "real"),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)
    table = GroupTable.cyclic(3)
    assert table in {table} and GroupTable.cyclic(3) not in {table}


def test_left_regular_small_groups():
    assert np.allclose(fk.left_regular(GroupTable.cyclic(1)).mats[0], [[1.0]])
    z2 = fk.left_regular(GroupTable.cyclic(2))
    assert np.allclose(z2.mats[0], np.eye(2))
    assert np.allclose(z2.mats[1], [[0.0, 1.0], [1.0, 0.0]])
    z3 = fk.left_regular(GroupTable.cyclic(3))
    expected = np.zeros((3, 3))
    for q in range(3):
        expected[(1 + q) % 3, q] = 1.0
    assert np.allclose(z3.mats[1], expected)


def test_left_regular_s3():
    g, _ = s3_table()
    rep = fk.left_regular(g)
    assert rep.dim == 6  # its law is the associativity GroupTable checks


def test_representation_rejects_non_unitary():
    g = GroupTable.cyclic(2)
    with pytest.raises(NotARepresentation):
        Representation(g, (np.eye(2), 2.0 * np.eye(2)))


def test_representation_rejects_wrong_law():
    g = GroupTable.cyclic(2)
    with pytest.raises(NotARepresentation):
        Representation(g, (np.eye(2), rotation(np.pi / 3)))


# --- circular frames --------------------------------------------------------------

def test_circular_general_mercedes_benz():
    angles = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    ones = np.ones(3)
    result = fk.circular_general(ones, angles, ones, angles)
    assert result.tight
    assert result.constant == pytest.approx(1.5, abs=1e-12)
    assert np.linalg.norm(result.residual) < 1e-12


def test_circular_general_antipodal_not_tight():
    angles = np.array([0.0, np.pi])
    ones = np.ones(2)
    result = fk.circular_general(ones, angles, ones, angles)
    assert not result.tight
    assert result.residual[0] == pytest.approx(2.0, abs=1e-12)  # sum cos(2 theta)
    assert result.residual[2] == pytest.approx(0.0, abs=1e-12)


def test_circular_general_single_vector():
    result = fk.circular_general([1.0], [0.0], [1.0], [0.0])
    assert not result.tight
    assert np.allclose(result.residual, [1.0, 0.0, 0.0])


def test_circular_general_negative_radius():
    with pytest.raises(NegativeRadius):
        fk.circular_general([-1.0], [0.0], [1.0], [0.0])


def test_circular_kl_diagonal_family():
    for k in range(3, 8):
        result = fk.circular_kl(k, k)
        assert result.tight
        assert result.constant == pytest.approx(k * k / 2.0, rel=1e-12)
        assert fk.verify(result.fp).upper_b == pytest.approx(k * k / 2.0, rel=1e-9)


def test_circular_kl_degenerates():
    r22 = fk.circular_kl(2, 2)
    assert not r22.tight
    S = fk.frame_operator(r22.fp)
    assert np.allclose(S, np.diag([4.0, 0.0]), atol=1e-12)
    r31 = fk.circular_kl(3, 1)
    assert not r31.tight
    assert abs(r31.constant) < 1e-12  # S = 0
    assert np.max(np.abs(fk.frame_operator(r31.fp))) < 1e-12


def test_circular_kl_bad_arguments():
    with pytest.raises(BadKL):
        fk.circular_kl(1, 2)
    with pytest.raises(BadKL):
        fk.circular_kl(0, 5)


# --- group frames ------------------------------------------------------------------

def test_group_frame_z3_is_mercedes_benz():
    result = fk.group_frame(rotation_rep(3), [1.0, 0.0], [1.0, 0.0])
    assert result.report.tight
    assert result.report.lower_a == pytest.approx(1.5, abs=1e-9)
    assert result.generator_bound_ok
    assert np.max(np.abs(result.fp.X - mercedes_benz().X)) < 1e-12


def test_group_frame_trivial_group():
    g = GroupTable.cyclic(1)
    rep = Representation(g, (np.eye(1),))
    result = fk.group_frame(rep, [2.0], [0.5])
    assert result.report.is_frame and result.generator_bound_ok


def test_group_frame_zero_generator_vacuous():
    result = fk.group_frame(rotation_rep(3), [0.0, 0.0], [0.0, 0.0])
    assert not result.report.is_frame
    assert result.generator_bound_ok is True


def test_group_frame_complex_inner_not_applicable():
    g = GroupTable.cyclic(2)
    rep = Representation(g, (np.eye(2, dtype=complex), -np.eye(2, dtype=complex)))
    result = fk.group_frame(rep, np.array([1.0, 0.0]), np.array([1.0j, 0.0]))
    # S = 2i e1 e1^* is not a frame; retry with a frame-producing pair
    assert result.generator_bound_ok is True or result.generator_bound_ok is None


def test_group_frame_dim_mismatch():
    with pytest.raises(DimMismatch):
        fk.group_frame(rotation_rep(3), [1.0], [1.0])


def test_generator_bound_brackets_on_random_groups(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        rep = fk.left_regular(GroupTable.cyclic(n))
        x = rng.standard_normal(n)
        result = fk.group_frame(rep, x, x)
        if result.report.is_frame:
            assert result.generator_bound_ok


# --- invariance ----------------------------------------------------------------------

def test_group_frame_output_is_invariant(rng):
    groups = [GroupTable.cyclic(n) for n in range(1, 9)] + [s3_table()[0]]
    reps = [fk.left_regular(g) for g in groups]
    for _ in range(1000):
        idx = int(rng.integers(0, len(groups)))
        g, rep = groups[idx], reps[idx]
        x = rng.standard_normal(g.order)
        x /= np.linalg.norm(x)
        tau = rng.standard_normal(g.order)
        result = fk.group_frame(rep, x, tau)
        assert fk.check_group_invariance(result.fp, g)


def test_invariance_breaks_under_perturbation():
    result = fk.group_frame(rotation_rep(3), [1.0, 0.0], [1.0, 0.0])
    X = result.fp.X.copy()
    X[0, 1] += 0.1
    broken = FramePair(X, result.fp.T, "real")
    assert not fk.check_group_invariance(broken, GroupTable.cyclic(3))


def test_invariance_trivial_group():
    g = GroupTable.cyclic(1)
    fp = FramePair(np.array([[2.0]]), np.array([[1.0]]), "real")
    assert fk.check_group_invariance(fp, g)


def test_invariance_count_mismatch():
    with pytest.raises(CountMismatch):
        fk.check_group_invariance(mercedes_benz(), GroupTable.cyclic(2))


def test_invariance_of_an_overflowing_gram_is_a_numerical_failure():
    # swapping the two members moves <x_0, x_0> onto <x_1, x_1>, so neither pair is invariant
    g = GroupTable.cyclic(2)
    for field in ("real", "complex"):
        huge = np.diag([1e200, 1e100])  # <x_0, x_0> = 1e400 overflows
        with pytest.raises(NumericalOverflow, match="^Gram matrix overflows: largest input magnitude 1e\\+200$"):
            fk.check_group_invariance(FramePair(huge, huge, field), g)
        large = np.diag([1e100, 1e50])
        assert fk.check_group_invariance(FramePair(large, large, field), g) is False


# --- synthesis ------------------------------------------------------------------------

def test_synthesize_recovers_rotations():
    g = GroupTable.cyclic(3)
    scaled = mercedes_benz(np.sqrt(2.0 / 3.0))
    result = fk.synthesize_representation(scaled, g)
    assert result.pi_reproduces
    for k in range(3):
        assert np.max(np.abs(result.rep.mats[k] - rotation(2 * np.pi * k / 3))) < 1e-9


def test_synthesize_trivial_group():
    g = GroupTable.cyclic(1)
    fp = FramePair(np.array([[1.0]]), np.array([[1.0]]), "real")
    result = fk.synthesize_representation(fp, g)
    assert np.allclose(result.rep.mats[0], [[1.0]])


def test_synthesize_requires_parseval():
    with pytest.raises(NotParseval):
        fk.synthesize_representation(mercedes_benz(), GroupTable.cyclic(3))


def test_synthesize_requires_invariance(rng):
    # a generic overcomplete Parseval pair has no Z_4 Gram symmetry
    from conftest import random_parseval
    fp = random_parseval(rng, 2, 4, self_dual=True)
    assert not fk.check_group_invariance(fp, GroupTable.cyclic(4))
    with pytest.raises(NotInvariant):
        fk.synthesize_representation(fp, GroupTable.cyclic(4))


def test_synthesize_round_trip_through_parsevalize(rng):
    for n in range(2, 7):
        rep = fk.left_regular(GroupTable.cyclic(n))
        x = rng.standard_normal(n)
        result = fk.group_frame(rep, x, x)
        if not result.report.is_frame:
            continue
        parseval = fk.parsevalize(result.fp)
        synth = fk.synthesize_representation(parseval, rep.group)
        assert synth.pi_reproduces
