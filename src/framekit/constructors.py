"""Frame factories: circular tight frames on R^2 and group-generated frames.

Group elements are indexed 0..order-1 with the identity at its declared
index; the left regular representation acts by lambda_g chi_q = chi_{gq},
i.e. permutation matrices built from the multiplication table.  Every
body reads a pair's stacked operators theta_A = X^* and theta_Psi = T^*
and builds its pair through FramePair._stacked, adopting the arrays it
has just computed; X and T are caller-side adjoints, a fresh conjugate
copy on each read of a complex pair.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

import numpy as np

from .errors import (
    BadGroupTable,
    BadKL,
    CountMismatch,
    DimMismatch,
    NegativeRadius,
    NotARepresentation,
    NotInvariant,
)
from .frames import FramePair, FrameReport, _require_parseval_pair, verify
from .numerics import (Tolerance, _Frozen, _Record, _blocks, _finite_product, _frozen, _identities,
                       _members_close, entry_max)


def _element_indices(a: np.ndarray, n: int) -> bool:
    """Whether every entry of a is an integer (integral floats count) in [0, n)."""
    kind = a.dtype.kind
    integral = kind in "iu" or (kind == "f" and np.all(np.trunc(a) == a))
    return bool(integral and np.all(a >= 0) and np.all(a < n))


def _light_generators(mul: np.ndarray, e: int) -> list:
    """A greedy generating set of the loop mul with identity e, each
    generator a checked for (x a) y == x (a y) over all x, y as it is
    picked; BadGroupTable at the first that fails."""
    n = mul.shape[0]
    closed = np.zeros(n, dtype=bool)
    closed[e] = True
    generators = []
    size = 1
    while size < n:
        a = int(closed.argmin())  # the first element outside the closure
        if not (mul.take(mul[:, a], axis=0) == mul.take(mul[a], axis=1)).all():
            raise BadGroupTable("table is not associative")
        generators.append(a)
        closed[a] = True
        # square the closure until it stops growing: log2 of its diameter passes
        while True:
            members = closed.nonzero()[0]
            closed[mul.take(members, axis=0).take(members, axis=1)] = True
            size = np.count_nonzero(closed)
            if size == members.size or size == n:
                break
    return generators


@_frozen
class GroupTable(_Frozen):
    """Multiplication table of a finite group; mul[g, h] = g*h.

    Entries and the identity must be integer element indices (integral
    floats count); anything else, bool and NaN included, raises
    BadGroupTable rather than being truncated.  Tables compare and hash
    by identity.

    Associativity is Light's test on a greedy generating set: each
    generator a is the first element outside the product closure of e
    and the earlier generators, checked as soon as it is picked for
    (x a) y == x (a y) over all x, y in O(n^2).  The elements that pass
    are closed under products, so passing on a generating set proves
    the law.  While every check passes the closure is a group, and each
    new generator at least doubles it (Lagrange): at most floor(log2 n)
    generators, floor(log2 n) + 1 checks, O(n^2 log n) in all.
    """

    mul: np.ndarray
    identity: int

    def __post_init__(self):
        mul = np.asarray(self.mul)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] < 1:
            raise BadGroupTable("mul must be a square table of positive order")
        n = mul.shape[0]
        e = np.asarray(self.identity)
        if e.ndim != 0 or not _element_indices(e, n):
            raise BadGroupTable(f"identity must be an element index below the order {n}")
        e = int(e)
        if not _element_indices(mul, n):
            raise BadGroupTable("table entries must be element indices")
        mul = mul.astype(int)
        idx = np.arange(n)
        if np.any(np.sort(mul, axis=1) != idx) or np.any(np.sort(mul, axis=0) != idx[:, None]):
            raise BadGroupTable("rows and columns must be permutations")
        if np.any(mul[e, :] != idx) or np.any(mul[:, e] != idx):
            raise BadGroupTable("identity does not act trivially")
        _light_generators(mul, e)
        mul.setflags(write=False)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "identity", e)

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        idx = np.arange(n)
        return cls((idx[:, None] + idx[None, :]) % n, 0)


@_frozen
class Representation(_Frozen):
    """Unitary representation: a matrix per group element, validated.

    A representation by exact 0/1 permutation matrices keeps their index
    rows, mats[g] @ v == v[_indices[g]] for every vector v; else None.
    Representations compare and hash by identity.
    """

    group: GroupTable
    mats: tuple
    tol: Tolerance = Tolerance()
    _indices: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        mats = tuple(np.asarray(M) for M in self.mats)
        if len(mats) != self.group.order:
            raise NotARepresentation("need one matrix per group element")
        if mats[0].ndim != 2:
            raise NotARepresentation("matrices must be square of equal size")
        m = mats[0].shape[0]
        mul = self.group.mul
        # Products of 0/1 permutation matrices are exact and unitarity holds
        # exactly; once a unit entry difference exceeds the margin, two such
        # matrices are tol-close iff they are equal, so the law runs on indices.
        indices = _permutation_indices(mats, m) if self.tol.margin(1.0) < 1.0 else None
        if indices is not None:
            law = _index_law(indices, mul)
        else:
            law = _dense_law(_unitary_stack(mats, m, self.tol), mul, self.tol)
        if not law:
            raise NotARepresentation("matrices do not respect the group law")
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "_indices", indices)

    @classmethod
    def _adopted(cls, group: GroupTable, mats: tuple, indices: np.ndarray, tol: Tolerance):
        """The representation of exact 0/1 permutation matrices mats, with
        mats[g] @ v == v[indices[g]], that obey the law of group.

        Its caller builds both from the validated table, so the checks of
        __post_init__ are skipped; the index rows are kept under the same
        margin rule.
        """
        rep = object.__new__(cls)
        vars(rep).update(group=group, mats=mats, tol=tol,
                         _indices=indices if tol.margin(1.0) < 1.0 else None)
        return rep

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]


def _permutation_indices(mats, m: int) -> Optional[np.ndarray]:
    """idx with mats[g] @ v == v[idx[g]], when every matrix is an exact
    m x m 0/1 permutation matrix; None otherwise."""
    idx = np.empty((len(mats), m), dtype=np.intp)
    picked = np.empty((len(mats), m), dtype=complex)
    rows = np.arange(m)
    for g, M in enumerate(mats):
        if M.ndim != 2 or M.shape != (m, m) or M.dtype.kind not in "iufc":
            return None
        if np.count_nonzero(M) != m:
            return None
        idx[g] = M.argmax(axis=1)
        picked[g] = M[rows, idx[g]]
    # m nonzero entries, each row's largest a 1: that 1 is the row's only
    # nonzero, and a permutation matrix needs the 1s in distinct columns
    if np.all(picked == 1) and np.all(np.sort(idx, axis=1) == rows):
        return idx
    return None


def _index_law(idx: np.ndarray, mul: np.ndarray) -> bool:
    """mats[g] @ mats[h] == mats[g*h] on index rows, idx[h][idx[g]] ==
    idx[g*h], for a block of h at a time."""
    order, m = idx.shape
    return all(np.array_equal(np.take(idx[block], idx, axis=1), idx[mul[:, block].T])
               for block in _blocks(order, order * m))


def _unitary_stack(mats, m: int, tol: Tolerance) -> np.ndarray:
    """The matrices stacked, after the checks of a loop over them: each is
    m x m and unitary, or NotARepresentation names the first that is not.

    The group law reaches every matrix from every block of pairs, so the
    matrices are stacked once; the products go by blocks.
    """
    order = len(mats)
    bad = next((k for k, M in enumerate(mats) if M.ndim != 2 or M.shape != (m, m)), order)
    stack = np.stack(mats[:bad]) if bad else None
    for block in _blocks(bad, m * m):
        S = stack[block]
        Sh = S.conj().swapaxes(1, 2)
        if not (np.all(_identities(S @ Sh, tol)) and np.all(_identities(Sh @ S, tol))):
            raise NotARepresentation("matrices must be unitary")
    if bad < order:
        raise NotARepresentation("matrices must be square of equal size")
    return stack


def _dense_law(stack: np.ndarray, mul: np.ndarray, tol: Tolerance) -> bool:
    """stack[g] @ stack[h] against stack[g*h], each pair with its own
    mat_close margin, for a block of pairs at a time: each pair's matrices
    are flattened into one row, a member of two stacked operators."""
    order, m = stack.shape[:2]
    targets = mul.ravel()
    for block in _blocks(order * order, m * m):
        g, h = np.divmod(np.arange(order * order)[block], order)
        products, wanted = (stack[g] @ stack[h]).reshape(len(g), -1), stack[targets[block]]
        if not _members_close(products, wanted.reshape(len(g), -1), (1,) * len(g), tol):
            return False
    return True


def left_regular(g: GroupTable, tol: Tolerance = Tolerance()) -> Representation:
    """Left regular representation by permutation matrices, dim = order.

    L[h] e_q = e_{hq}, so L[h] @ v == v[idx[h]] with idx[h, hq] = q: the
    index rows are read off the table in one O(n^2) scatter.  The law
    L_g L_h = L_{gh} is the associativity GroupTable has checked, so no
    product is formed.  The matrices are still one dense (n, n, n) array.
    """
    n = g.order
    q = np.arange(n)
    L = np.zeros((n, n, n))
    L[q[:, None], g.mul, q] = 1.0  # L[h] e_q = e_{hq}
    idx = np.empty((n, n), dtype=np.intp)
    idx[q[:, None], g.mul] = q
    return Representation._adopted(g, tuple(L), idx, tol)


@_frozen
class CircularResult(_Record):
    """Planar circular pair, its tightness verdict, constant and residual."""

    fp: FramePair
    tight: bool
    constant: float
    residual: np.ndarray  # the 3-vector whose vanishing characterises tightness


def circular_general(a, theta, b, phi, tol: Tolerance = Tolerance()) -> CircularResult:
    """Planar pair x_j = a_j (cos t_j, sin t_j), tau_j = b_j (cos p_j, sin p_j).

    Tight exactly when the compound-angle sums
    sum a_j b_j (cos(t+p), sin(t+p), sin(t-p)) vanish, with tight constant
    (1/2) sum a_j b_j cos(t_j - p_j); a vanishing constant means S = 0 and
    is reported as not tight.
    """
    a, theta, b, phi = (np.asarray(v, dtype=float) for v in (a, theta, b, phi))
    if not (a.shape == theta.shape == b.shape == phi.shape) or a.ndim != 1 or a.size < 1:
        raise ValueError("a, theta, b, phi must be equal-length nonempty vectors")
    if np.any(a < 0) or np.any(b < 0):
        raise NegativeRadius("radii must be nonnegative")
    theta_x = np.column_stack([a * np.cos(theta), a * np.sin(theta)])  # rows x_j^T
    theta_tau = np.column_stack([b * np.cos(phi), b * np.sin(phi)])
    fp = FramePair._stacked(theta_x, theta_tau, (), tol)
    w = a * b
    residual = np.array([
        float(np.sum(w * np.cos(theta + phi))),
        float(np.sum(w * np.sin(theta + phi))),
        float(np.sum(w * np.sin(theta - phi))),
    ])
    constant = 0.5 * float(np.sum(w * np.cos(theta - phi)))
    scale = float(np.sum(w))
    tight = bool(np.linalg.norm(residual) <= tol.margin(scale) and constant > tol.margin(scale))
    return CircularResult(fp, tight, constant, residual)


def circular_kl(k: int, l: int, tol: Tolerance = Tolerance()) -> CircularResult:
    """The kl-member family with angles 2 pi j / k against 2 pi j / l."""
    if k < 1 or l < 1 or k * l < 3:
        raise BadKL("need k, l >= 1 with k*l >= 3")
    j = np.arange(k * l, dtype=float)
    ones = np.ones(k * l)
    return circular_general(ones, 2.0 * np.pi * j / k, ones, 2.0 * np.pi * j / l, tol)


@_frozen
class GroupFrameResult(_Record):
    """Orbit pair of a representation, its report and the generator bound check."""

    fp: FramePair
    report: FrameReport
    generator_bound_ok: Optional[bool]  # None when <x, tau> is not real


def group_frame(rep: Representation, x, tau, tol: Tolerance = Tolerance()) -> GroupFrameResult:
    """Orbit pair x_g = pi_g x, tau_g = pi_g tau in group-element order.

    For a frame, (order/dim) <x, tau> must sit between the optimal bounds;
    the check is skipped (None) when <x, tau> is not real within tolerance.
    """
    x = np.asarray(x).ravel()
    tau = np.asarray(tau).ravel()
    if x.shape != (rep.dim,) or tau.shape != (rep.dim,):
        raise DimMismatch("generator vectors must match the representation dimension")
    theta_x, theta_tau = _orbit(rep, x), _orbit(rep, tau)
    fp = FramePair._stacked(theta_x, theta_tau, (), tol)
    report = verify(fp)
    if not report.is_frame:
        return GroupFrameResult(fp, report, True)
    inner = complex(np.vdot(tau, x))  # <x, tau>
    if abs(inner.imag) > tol.margin(abs(inner)):
        return GroupFrameResult(fp, report, None)
    value = (rep.group.order / rep.dim) * inner.real
    margin = tol.margin(report.lower_a, report.upper_b, abs(value))
    ok = report.lower_a - margin <= value <= report.upper_b + margin
    return GroupFrameResult(fp, report, bool(ok))


def _orbit(rep: Representation, v: np.ndarray) -> np.ndarray:
    """The order x dim stacked operator whose row g is (pi_g v)^*, a fresh array."""
    if rep._indices is not None:
        images = v[rep._indices].astype(np.result_type(v, *rep.mats), copy=False)
    else:
        images = np.concatenate([np.stack(rep.mats[block]) @ v
                                 for block in _blocks(rep.group.order, rep.dim ** 2)])
    return images.conj()  # row g is pi_g v: the array itself when real


def check_group_invariance(fp: FramePair, g: GroupTable) -> bool:
    """All three Gram invariances <v_{gp}, w_{gq}> = <v_p, w_q>.

    A Gram matrix that overflows raises NumericalOverflow, as the frame
    operator does.
    """
    if fp.n != g.order:
        raise CountMismatch("pair count must equal the group order")
    tol = fp.tol
    x_cols = fp.theta_A.conj().T
    # [p, q] = <x_q, x_p>, <x_q, tau_p> and <tau_q, tau_p>
    grams = [_finite_product(rows, cols, "Gram matrix")
             for rows, cols in ((fp.theta_A, x_cols), (fp.theta_Psi, x_cols),
                                (fp.theta_Psi, fp.theta_Psi.conj().T))]
    margins = [tol.margin(entry_max(G)) for G in grams]
    n = g.order
    for block in _blocks(n, n * n):
        rows = g.mul[block]
        moved = rows[:, :, None] * n + rows[:, None, :]  # flat indices of G[g p, g q]
        for G, margin in zip(grams, margins):
            if np.any(np.abs(np.take(G, moved) - G).max(axis=(1, 2)) > margin):
                return False
    return True


@_frozen
class RepresentationSynthesis(_Record):
    """Representation recovered from a group-invariant Parseval pair."""

    rep: Representation
    pi_reproduces: bool


def synthesize_representation(fp: FramePair, g: GroupTable) -> RepresentationSynthesis:
    """Recover pi_g = T lambda_g X^* from a Parseval group-invariant pair.

    lambda_g e_q = e_{gq}, so T lambda_g = theta_Psi[mul[g]]^*; pi_reproduces
    records whether x_g = pi_g x_e and tau_g = pi_g tau_e hold for every
    element.
    """
    _require_parseval_pair(fp, "synthesis needs a Parseval pair")
    if not check_group_invariance(fp, g):
        raise NotInvariant("pair is not group invariant")
    n, m = g.order, fp.m
    tau_rows = fp.theta_Psi.conj()  # row q is tau_q
    pis = np.empty((n, m, m), dtype=np.result_type(tau_rows, fp.theta_A))
    for block in _blocks(n, m * n):
        np.matmul(tau_rows[g.mul[block]].swapaxes(1, 2), fp.theta_A, out=pis[block])
    rep = Representation(g, tuple(pis), fp.tol)
    e = g.identity
    generators = np.stack([fp.theta_A[e], fp.theta_Psi[e]], axis=1).conj()  # columns x_e, tau_e
    images = (pis @ generators).swapaxes(1, 2)  # [g, 0] = pi_g x_e
    targets = np.stack([fp.theta_A, fp.theta_Psi], axis=1).conj()  # [g, 0] = x_g, [g, 1] = tau_g
    ok = _members_close(images.reshape(2 * n, m), targets.reshape(2 * n, m), (1,) * (2 * n), fp.tol)
    return RepresentationSynthesis(rep, ok)
