"""Both pair classes store the stacked operators theta_A and theta_Psi.

A public constructor makes one copy of what the caller passes, so later
writes to the caller's arrays do not reach the pair, and the caller's
arrays stay writable.  Every pair, derived ones included, is read-only.
A pair the bodies build holds the same bits as under the former storage
of a vector pair by its columns X and T (oracles.FramePairByColumns).
The bodies read the stacked operators; where that moves result bits,
they agree with their former column forms within a stated number of ulps.
"""

import json

import numpy as np
import pytest

import framekit as fk
from framekit import FramePair, OvfPair, PFramePair, Tolerance, io
from framekit.errors import FramekitError

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


def test_a_vector_pair_needs_a_dimension_and_a_member():
    """The constructor's check holds for the pairs bodies build through _stacked."""
    message = "^dimension and count must be positive$"
    for X in (np.zeros((0, 3)), np.zeros((2, 0))):
        with pytest.raises(ValueError, match=message):
            FramePair(X, X, "real")
    zero_dim = fk.Representation(fk.GroupTable.cyclic(2), (np.zeros((0, 0)),) * 2,
                                 Tolerance(abs_tol=1.0))  # the dense law accepts 0 x 0 matrices
    with pytest.raises(ValueError, match=message):
        fk.group_frame(zero_dim, [], [])
    Q = np.eye(4)
    p1, p2 = FramePair(Q[:2], Q[:2], "real"), FramePair(Q[2:], Q[2:], "real")
    none = np.zeros((0, 2))  # coefficients with no rows
    with pytest.raises(ValueError, match=message):
        fk.interpolate_parseval(p1, p2, none, none, none, none)


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


def bodies(fp, gq, parseval, lam, U, orthogonal):
    """The derived arrays of each body on pairs of one storage class.

    orthogonal holds two orthogonal Parseval pairs and coefficients
    A, B, C, D with A C^* + B D^* = I.
    """
    o1, o2, coefficients = orthogonal
    out = {"S": [fk.frame_operator(fp)]}
    out["verify"] = list(vars(fk.verify(fp)).values())
    result = fk.classify(fp)
    out["classify"] = [result.riesz_frame, result.orthonormal_frame, result.cross_gram]
    out["idempotent"] = [fk.frame_idempotent(fp)]
    out["formulas"] = list(vars(fk.formulas_report(fp)).values())
    derived = {
        "common_dual": fk.common_dual(o1, o2),
        "interpolate_parseval": fk.interpolate_parseval(o1, o2, *coefficients),
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


def orthogonal_parseval_pairs(rng, m, field):
    """Two orthogonal Parseval pairs, not self-dual, from the rows of one unitary,
    and coefficients A, B, C, D (k x m) with A C^* + B D^* = I."""
    Q, _ = np.linalg.qr(random_matrix(rng, 2 * m + 1, 2 * m + 1, field))
    pairs = []
    for rows in (Q[:m], Q[m:2 * m]):
        G = random_matrix(rng, m, m, field) + 3.0 * np.eye(m)
        pairs.append((G @ rows, np.linalg.inv(G).conj().T @ rows))
    k = int(rng.integers(1, m + 1))
    A, B, D = (random_matrix(rng, k, m, field) for _ in range(3))
    C = (np.linalg.pinv(A) @ (np.eye(k) - B @ D.conj().T)).conj().T
    return pairs, (A, B, C, D)


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
        columns, coefficients = orthogonal_parseval_pairs(rng, m, field)
        new_orth = [FramePair(Xo, To, field) for Xo, To in columns] + [coefficients]
        old_orth = [oracles.FramePairByColumns(Xo, To, field) for Xo, To in columns] + [coefficients]
        old = [oracles.FramePairByColumns(p.X, p.T, field) for p in (fp, parseval)]
        got = bodies(fp, FramePair(X, X, field), parseval, lam, U, new_orth)
        want = bodies(old[0], oracles.FramePairByColumns(X, X, field), old[1], lam, U, old_orth)
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


# --- bodies whose bits moved when they left the columns --------------------------------

CERTIFICATE_ULPS = 64  # the largest distance allowed between a predicted end and its column form


def ulp_distance(a, b) -> int:
    """The largest distance in units of the last place between the real and the
    imaginary parts of two equal-shape arrays; +0.0 and -0.0 are 0 apart."""
    def ordered(x):
        i = int(np.float64(x).view(np.int64))
        return i if i >= 0 else -(2**63) - i

    entries = zip(np.asarray(a, dtype=complex).ravel(), np.asarray(b, dtype=complex).ravel())
    return max((abs(ordered(f(p)) - ordered(f(q))) for p, q in entries for f in (np.real, np.imag)),
               default=0)


def outcome(call):
    """The call's result, or (exception class name, message)."""
    try:
        return call()
    except (FramekitError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


CERTIFICATES = [
    ("quadratic", ()), ("normsum", ()),
    ("sampled_linear", (0.1, 0.1, 0.2)), ("sampled_linear", (0.0, 0.0, 0.05)),
    ("sampled_linear", (0.9, 0.9, 0.9)), ("sampled_linear", (-0.1, 0.0, 0.0)),
    ("sampled_bessel", (0.2, 0.1, 0.0)), ("sampled_bessel", (0.1, 0.1, 0.3)),
    ("bogus", (0.1, 0.1, 0.1)),
]


def certificate(fp, Y, kind, params, seed):
    if kind == "quadratic":
        return fk.perturb_quadratic(fp, Y)
    if kind == "normsum":
        return fk.perturb_normsum(fp, Y)
    return fk.perturb_sampled(fp, Y, *params, samples=150, seed=seed, kind=kind)


@pytest.mark.parametrize("field", FIELDS)
def test_certificates_agree_with_their_column_forms(rng, field):
    """Verdicts, exceptions and actual bounds equal; each predicted end within
    CERTIFICATE_ULPS of the column form, whose ||X|| and ||T|| come from the
    SVDs of the m x n columns rather than of theta_A and theta_Psi."""
    hypotheses = []
    for k in range(24):
        tol = (Tolerance(), Tolerance(0.0, 0.0), Tolerance(1e-6, 1e-6))[k % 3]
        m = int(rng.integers(1, 9))
        n = m + int(rng.integers(0, 4))
        fp = random_frame(rng, m, n, field)
        if k % 2:
            fp = FramePair(fp.X, fp.X, field)  # self-dual, so a scaled X is aligned
        if k % 4 > 1:
            fp = fk.canonical_dual(fp)  # a pair a body built: its operators are C-ordered
        fp = fp.with_tol(tol)
        perturbed = [fp.X * rng.uniform(0.9, 1.1, n), fp.X + 0.05 * random_matrix(rng, m, n, field),
                     np.zeros((m, n + 1))]
        for Y in perturbed:
            for kind, params in CERTIFICATES:
                got = outcome(lambda: certificate(fp, Y, kind, params, k))
                want = outcome(lambda: oracles.perturbation_certificate_by_columns(
                    fp, Y, kind, *params, samples=150, seed=k))
                if isinstance(want, tuple):
                    assert got == want
                    continue
                hypotheses.append(got.hypothesis_ok)
                assert (got.kind, got.hypothesis_ok) == (want.kind, want.hypothesis_ok)
                assert (got.actual_lower, got.actual_upper) == (want.actual_lower, want.actual_upper)
                for end in ("predicted_lower", "predicted_upper"):
                    assert ulp_distance(getattr(got, end), getattr(want, end)) <= CERTIFICATE_ULPS
    assert any(hypotheses) and not all(hypotheses)


@pytest.mark.parametrize("field", FIELDS)
def test_rewritten_bodies_match_their_column_forms(rng, field):
    """common_dual, interpolate_parseval, direct_sum and make_dual_from_params
    against the forms that read the columns X and T, bit for bit over one
    field.  With a pair or a coefficient of the other field the column forms
    promote a real part to complex after the conjugate (imaginary part -0.0)
    and the stacked bodies before it (+0.0): those zero signs are the only
    bits that move."""
    other = "complex" if field == "real" else "real"
    for k in range(12):
        m = int(rng.integers(1, 5))
        n = m + int(rng.integers(0, 4))
        fp = random_frame(rng, m, n, field)
        gq = FramePair(random_matrix(rng, 2, n, other), random_matrix(rng, 2, n, other), other)
        sd = FramePair(fp.X, fp.X, field)
        U = 0.3 * random_matrix(rng, m, n, field)
        columns, coefficients = orthogonal_parseval_pairs(rng, m, field)
        o1, o2 = (FramePair(Xo, To, field) for Xo, To in columns)
        o2_complex = FramePair(*(M.astype(complex) for M in columns[1]), "complex")
        A, B, _, D = coefficients
        A, B = A + 0.1j, B + 0.1j  # complex coefficients, A C^* + B D^* = I still
        C = (np.linalg.pinv(A) @ (np.eye(len(A)) - B @ D.conj().T)).conj().T
        cases = [
            ("common_dual", (o1, o2), True), ("common_dual", (o1, o2_complex), field == "complex"),
            ("interpolate_parseval", (o1, o2, *coefficients), True),
            ("interpolate_parseval", (o1, o2, A, B, C, D), field == "complex"),
            ("direct_sum", (fp, fp), True), ("direct_sum", (fp, gq), False),
            ("make_dual_from_params", (sd, U, U), True),
            ("make_dual_from_params", (sd, U + 0.05j, U), field == "complex"),
        ]
        for name, args, one_field in cases:
            got = outcome(lambda: getattr(fk, name)(*args))
            want = outcome(lambda: getattr(oracles, name + "_by_columns")(*args))
            if isinstance(want, tuple):
                assert got == want
                continue
            assert got.field == want.field
            for a, b in ((got.theta_A, want.theta_A), (got.theta_Psi, want.theta_Psi)):
                assert same_bits(a + 0.0, b + 0.0), name  # adding 0.0 turns -0.0 into +0.0
                if one_field:
                    assert same_bits(a, b), name
