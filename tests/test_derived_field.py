"""A pair a body builds takes its field from its arrays' dtype.

frames._StackedPair._stacked decides it: complex exactly when either
stacked operator is complex (infer_field).  Every public function that
builds a pair, in both layers, is run here on real, complex and mixed
inputs; each result's field must agree with its arrays and with the field
the function's former hand-written rule gave, listed beside each call.
"""

from unittest import mock

import numpy as np

import framekit as fk
from framekit import FramePair, OvfPair, Tolerance, analysis
from framekit.frames import infer_field

from conftest import random_frame, random_matrix, random_ovf, random_parseval, random_parseval_ovf

R, C = "real", "complex"


def orthogonal_parseval(m, imaginary=False):
    """Two orthogonal self-dual Parseval pairs of K^m with 2m members; the second's
    rows carry a factor 1j when imaginary, so it is complex and still orthogonal."""
    Q, _ = np.linalg.qr(np.random.default_rng(m).standard_normal((2 * m, 2 * m)))
    second = 1j * Q[m:] if imaginary else Q[m:]
    return (FramePair(Q[:m], Q[:m], R), FramePair(second, second, C if imaginary else R))


def params(rng, fp, field):
    """U = V of fp's shape and of the given field: on a self-dual fp the condition
    matrix is S^-1 + U (I - P) U^* with P an orthogonal projection, so admissible."""
    U = random_matrix(rng, fp.m, fp.n, field)
    return U, U


def actual_bounds_pair(certificate, fp, Y, *args):
    """The pair (Y, T) whose optimal bounds a perturbation certificate reports."""
    with mock.patch.object(analysis, "verify", wraps=fk.verify) as verify:
        certificate(fp, Y, *args)
    return verify.call_args.args[0]


def derived_pairs(rng):
    """(label, pair a public function built, the field its former rule gave)."""
    fr, fc = random_frame(rng, 3, 5, R), random_frame(rng, 3, 5, C)
    pr, pc = random_parseval(rng, 2, 4, R), random_parseval(rng, 2, 4, C)
    sr, sc = random_parseval(rng, 2, 4, R, True), random_parseval(rng, 2, 4, C, True)
    Xr, Xc = random_matrix(rng, 2, 5, R), random_matrix(rng, 2, 5, C)  # self-dual, not tight
    opr, opc = random_ovf(rng, 3, 2, 3, R), random_ovf(rng, 3, 2, 3, C)
    outer_r, outer_c = random_ovf(rng, 2, 2, 2, R), random_ovf(rng, 2, 2, 2, C)
    qr, qc = random_parseval_ovf(rng, 3, 2, 3, R), random_parseval_ovf(rng, 3, 2, 3, C)
    a_r, b_r = orthogonal_parseval(2)
    a_m, b_c = orthogonal_parseval(2, imaginary=True)
    eye = np.eye(2)
    rep = fk.left_regular(fk.GroupTable.cyclic(4))
    x = np.array([1.0, 0.5, 0.0, 0.0])
    Yr = fr.X + 0.01 * rng.standard_normal(fr.X.shape)
    Yc = Yr + 0.01j * rng.standard_normal(fr.X.shape)
    sampled = (0.1, 0.1, 0.0, 50)
    cases = [
        ("canonical_dual real", fk.canonical_dual(fr), R),
        ("canonical_dual complex", fk.canonical_dual(fc), C),
        ("canonical_dual_ovf real", fk.canonical_dual_ovf(opr), R),
        ("canonical_dual_ovf complex", fk.canonical_dual_ovf(opc), C),
        ("make_dual_from_params real", fk.make_dual_from_params(sr, *params(rng, sr, R)), R),
        ("make_dual_from_params real, complex U V",
         fk.make_dual_from_params(sr, *params(rng, sr, C)), C),
        ("make_dual_from_params complex, real U V",
         fk.make_dual_from_params(sc, *params(rng, sc, R)), C),
        ("common_dual real x real", fk.common_dual(a_r, b_r), R),
        ("common_dual real x complex", fk.common_dual(a_m, b_c), C),
        ("common_dual complex x real", fk.common_dual(b_c, a_m), C),
        ("direct_sum real x real", fk.direct_sum(fr, fr), R),
        ("direct_sum real x complex", fk.direct_sum(fr, fc), C),
        ("direct_sum complex x real", fk.direct_sum(fc, fr), C),
        ("interpolate_parseval real, real coefficients",
         fk.interpolate_parseval(a_r, b_r, eye, 0 * eye, eye, 0 * eye), R),
        ("interpolate_parseval real, complex coefficients",
         fk.interpolate_parseval(a_r, b_r, 1j * eye, 0 * eye, 1j * eye, 0 * eye), C),
        ("interpolate_parseval real x complex",
         fk.interpolate_parseval(a_m, b_c, eye, 0 * eye, eye, 0 * eye), C),
        ("tensor_product real x real", fk.tensor_product(fr, fr), R),
        ("tensor_product real x complex", fk.tensor_product(fr, fc), C),
        ("tensor_product complex x real", fk.tensor_product(fc, fr), C),
        ("tensor_ovf real x complex", fk.tensor_ovf(opr, opc), C),
        ("tensor_ovf complex x real", fk.tensor_ovf(opc, opr), C),
        ("compose_ovf real x real", fk.compose_ovf(outer_r, opr), R),
        ("compose_ovf real outer x complex inner", fk.compose_ovf(outer_r, opc), C),
        ("compose_ovf complex outer x real inner", fk.compose_ovf(outer_c, opr), C),
    ]
    for mode in ("left_on_x", "split", "left_on_t"):
        cases += [(f"parsevalize {mode} real", fk.parsevalize(fr, mode), R),
                  (f"parsevalize {mode} complex", fk.parsevalize(fc, mode), C)]
    cases += [
        ("dilate real", fk.dilate(pr).big, R),
        ("dilate complex", fk.dilate(pc).big, C),
        ("dilate_ovf real", fk.dilate_ovf(qr), R),
        ("dilate_ovf complex", fk.dilate_ovf(qc), C),
        ("extend_tight_append real", fk.extend_tight_append(fr, 10.0), R),
        ("extend_tight_append complex", fk.extend_tight_append(fc, 10.0), C),
        ("extend_tight_ovf real", fk.extend_tight_ovf(opr, 10.0), R),
        ("extend_tight_ovf complex", fk.extend_tight_ovf(opc, 10.0), C),
        ("extend_tight_minimal real", fk.extend_tight_minimal(FramePair(Xr, Xr, R)), R),
        ("extend_tight_minimal complex", fk.extend_tight_minimal(FramePair(Xc, Xc, C)), C),
        ("ovf_bridge real", fk.ovf_bridge(fr), R),
        ("ovf_bridge complex", fk.ovf_bridge(fc), C),
        ("ovf_bridge_inverse real", fk.ovf_bridge_inverse(fk.ovf_bridge(fr)), R),
        ("ovf_bridge_inverse complex", fk.ovf_bridge_inverse(fk.ovf_bridge(fc)), C),
        ("real_to_complex", fk.real_to_complex(sr), C),
        ("complex_to_real", fk.complex_to_real(FramePair((1 + 1j) * sr.X, (1 + 1j) * sr.X, C)), R),
        ("with_tol real", fr.with_tol(Tolerance(1e-6, 1e-6)), R),
        ("with_tol complex", fc.with_tol(Tolerance(1e-6, 1e-6)), C),
        ("circular_kl", fk.circular_kl(3, 3).fp, R),
        ("circular_general", fk.circular_general([1, 2, 1], [0, 1, 2], [1, 1, 1], [0, 1, 2]).fp, R),
        ("group_frame real", fk.group_frame(rep, x, x).fp, R),
        ("group_frame complex", fk.group_frame(rep, x, 1j * x).fp, C),
        ("group_frame integer", fk.group_frame(rep, [1, 2, 0, 0], [1, 2, 0, 0]).fp, R),
    ]
    for name, certificate, args in (("perturb_quadratic", fk.perturb_quadratic, ()),
                                    ("perturb_normsum", fk.perturb_normsum, ()),
                                    ("perturb_sampled", fk.perturb_sampled, sampled)):
        cases += [(f"{name} real, real Y", actual_bounds_pair(certificate, fr, Yr, *args), R),
                  (f"{name} real, complex Y", actual_bounds_pair(certificate, fr, Yc, *args), C),
                  (f"{name} complex, real Y", actual_bounds_pair(certificate, fc, Yr, *args), C)]
    return cases


def test_every_derived_pair_takes_its_field_from_its_arrays(rng):
    cases = derived_pairs(rng)
    wrong = [(label, out.field, infer_field(out.theta_A, out.theta_Psi), want)
             for label, out, want in cases
             if not out.field == infer_field(out.theta_A, out.theta_Psi) == want]
    assert wrong == []
    assert all(isinstance(out, (FramePair, OvfPair)) for _, out, _ in cases)
    assert {want for _, _, want in cases} == {R, C}
