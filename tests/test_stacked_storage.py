"""Both pair classes store the stacked operators theta_A and theta_Psi.

A public constructor makes one copy of what the caller passes, so later
writes to the caller's arrays do not reach the pair, and the caller's
arrays stay writable.  Every pair, derived ones included, is read-only.
A pair the bodies build holds the same bits as under the former storage
of a vector pair by its columns X and T (oracles.FramePairByColumns).
"""

import json

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, OvfPair, PFramePair, Tolerance, io

import oracles
from conftest import random_frame, random_matrix, random_ovf, random_parseval, random_parseval_ovf

FIELDS = ("real", "complex")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_frame_pair_keeps_its_own_copy(rng):
    for field in FIELDS:
        X, T = random_matrix(rng, 3, 5, field), random_matrix(rng, 3, 5, field)
        keep = X.copy(), T.copy()
        fp = FramePair(X, T, field)
        X += 1.0
        T *= 2.0
        assert X.flags.writeable and T.flags.writeable
        assert same_bits(fp.X, keep[0]) and same_bits(fp.T, keep[1])
        assert same_bits(fp.theta_A, keep[0].conj().T)
        assert not np.shares_memory(fp.theta_A, X) and not np.shares_memory(fp.theta_Psi, T)
    columns = [np.array([1.0, 2.0]), np.array([0.5, -1.0]), np.array([3.0, 0.0])]
    fp = FramePair.from_columns(columns, columns)
    columns[0][0] = 9.0
    assert fp.X[0, 0] == 1.0 and columns[0].flags.writeable


def test_a_complex_pair_of_a_real_array_stores_its_conjugate(rng):
    X = random_matrix(rng, 2, 4)
    fp = FramePair(X, X, "complex")
    assert fp.theta_A.dtype == np.complex128
    assert same_bits(fp.theta_A, X.T.astype(complex).conj()) and same_bits(fp.X, X.astype(complex))


def test_an_ovf_pair_keeps_its_own_copy(rng):
    for field in FIELDS:
        A = [random_matrix(rng, 2, 3, field) for _ in range(3)]
        Psi = [random_matrix(rng, 2, 3, field) for _ in range(3)]
        keep = np.vstack(A), np.vstack(Psi)
        op = OvfPair(tuple(A), tuple(Psi), field)
        for M in A + Psi:
            M[:] = 7.0
            assert M.flags.writeable
        assert same_bits(op.theta_A, keep[0]) and same_bits(op.theta_Psi, keep[1])
        op2 = OvfPair.from_members(A, Psi)
        A[0][0, 0] = -1.0
        assert op2.theta_A[0, 0] == 7.0


def test_a_pframe_pair_keeps_its_own_copy(rng):
    F, T = random_matrix(rng, 4, 3), random_matrix(rng, 3, 4)
    keep = F.copy(), T.copy()
    pf = PFramePair(F, T, 3.0, "real")
    F[:] = 0.0
    T[:] = 0.0
    assert F.flags.writeable and T.flags.writeable
    assert same_bits(pf.F, keep[0]) and same_bits(pf.T, keep[1])
    with pytest.raises(ValueError):
        pf.F[0, 0] = 1.0


def derived_pairs(rng, field):
    """Every pair a body, a bridge or a reader builds, from seeded inputs."""
    fp = random_frame(rng, 3, 5, field)
    parseval = random_parseval(rng, 3, 5, field, self_dual=True)
    op = random_ovf(rng, 3, 2, 3, field)
    lam = fk.verify(fp).upper_b + 1.0
    U = random_matrix(rng, 3, 5, field)  # admissible with V = U on a self-dual pair
    pairs = [
        fp.with_tol(Tolerance(0.0, 0.0)),
        fk.canonical_dual(fp),
        fk.tensor_product(fp, parseval),
        fk.extend_tight_append(fp, lam),
        fk.extend_tight_minimal(parseval),
        fk.dilate(parseval).big,
        fk.make_dual_from_params(parseval, U, U),
        fk.direct_sum(fp, parseval),
        fk.ovf_bridge_inverse(fk.ovf_bridge(fp)),
        io.frame_pair_from_dict(io.frame_pair_to_dict(fp)),
        fk.ovf_bridge(fp),
        fk.canonical_dual_ovf(op),
        fk.tensor_ovf(op, op),
        fk.extend_tight_ovf(op, fk.verify_ovf(op).upper_b + 1.0),
        fk.dilate_ovf(random_parseval_ovf(rng, 3, 2, 3, field)),
        fk.compose_ovf(op, fk.onb_blocks(1, 3)),
        io.ovf_pair_from_dict(io.ovf_pair_to_dict(op)),
    ]
    pairs += [fk.parsevalize(fp, mode) for mode in (fk.frames.SPLIT, fk.frames.LEFT_ON_X,
                                                     fk.frames.LEFT_ON_T)]
    return pairs


@pytest.mark.parametrize("field", FIELDS)
def test_every_derived_pair_is_read_only(rng, field):
    for pair in derived_pairs(rng, field):
        arrays = [pair.theta_A, pair.theta_Psi]
        if isinstance(pair, FramePair):
            assert pair.codims == (1,) * pair.theta_A.shape[0] == (1,) * pair.n
            arrays += [pair.X, pair.T, pair.x(0), pair.tau(0)]
        else:
            arrays += list(pair.A) + list(pair.Psi)
        for M in arrays:
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[(0,) * M.ndim] = 1.0


def bodies(fp, gq, parseval, lam, U):
    """The derived arrays of each body on pairs of one storage class."""
    out = {"S": [fk.frame_operator(fp)]}
    out["verify"] = list(vars(fk.verify(fp)).values())
    result = fk.classify(fp)
    out["classify"] = [result.riesz_frame, result.orthonormal_frame, result.cross_gram]
    out["idempotent"] = [fk.frame_idempotent(fp)]
    derived = {
        "canonical_dual": fk.canonical_dual(fp),
        "tensor": fk.tensor_product(fp, gq),
        "extend_tight_append": fk.extend_tight_append(fp, lam),
        "extend_tight_minimal": fk.extend_tight_minimal(gq),
        "dilate": fk.dilate(parseval).big,
        "make_dual_from_params": fk.make_dual_from_params(gq, U, U),  # gq is self-dual
        "direct_sum": fk.direct_sum(fp, gq),
        "bridge_back": fk.ovf_bridge_inverse(fk.ovf_bridge(fp)),
    }
    for mode in (fk.frames.SPLIT, fk.frames.LEFT_ON_X, fk.frames.LEFT_ON_T):
        derived[f"parsevalize_{mode}"] = fk.parsevalize(fp, mode)
    for name, pair in derived.items():
        out[name] = [pair.X, pair.T, pair.theta_A, pair.theta_Psi, fk.frame_operator(pair)]
    op = fk.ovf_bridge(fp)
    out["bridge"] = [op.theta_A, op.theta_Psi, op.codims]
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_bodies_match_the_storage_by_columns(rng, field):
    for k in range(10):
        m = int(rng.integers(1, 5))
        n = m + int(rng.integers(0, 4))
        fp = random_frame(rng, m, n, field)
        X = random_matrix(rng, m, n, field) + 3.0 * np.eye(m, n)
        parseval = random_parseval(rng, m, n + 1, field, self_dual=k % 2 == 0)
        lam = fk.verify(fp).upper_b + 1.0
        U = random_matrix(rng, m, n, field)
        old = [oracles.FramePairByColumns(p.X, p.T, field) for p in (fp, parseval)]
        got = bodies(fp, FramePair(X, X, field), parseval, lam, U)
        want = bodies(old[0], oracles.FramePairByColumns(X, X, field), old[1], lam, U)
        assert got.keys() == want.keys()
        for name in got:
            for a, b in zip(got[name], want[name], strict=True):
                assert same_bits(a, b), name


@pytest.mark.parametrize("field", FIELDS)
def test_the_io_round_trip_matches_the_storage_by_columns(rng, field):
    for _ in range(10):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        X, T = random_matrix(rng, m, n, field), random_matrix(rng, m, n, field)
        fp, old = FramePair(X, T, field), oracles.FramePairByColumns(X, T, field)
        text = io.dumps(io.frame_pair_to_dict(fp))
        assert text == io.dumps(io.frame_pair_to_dict(old))
        back = io.frame_pair_from_dict(json.loads(text))
        for a, b in ((back.X, X), (back.T, T), (back.theta_A, old.theta_A),
                     (back.theta_Psi, old.theta_Psi)):
            assert same_bits(a, b)
