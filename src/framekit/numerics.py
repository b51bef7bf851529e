"""Dense spectral primitives shared by every other module.

Matrices are plain numpy arrays (real or complex).  All verdicts are made
against a Tolerance, whose comparison rule is

    |a - b| <= abs_tol + rel_tol * max(|a|, |b|)

applied entrywise with the max-magnitude of the operands as scale.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter

import numpy as np

from .errors import (
    BadExponent,
    EigenFailure,
    InconsistentInterval,
    NonSquare,
    NotDiagonalizable,
    NotPsd,
    NumericalOverflow,
    SpectrumOnCut,
)


_set = object.__setattr__


class _Frozen:
    """__init__, the frozen guards and repr of a framekit dataclass, written once over its fields.

    Every framekit dataclass is declared with @_frozen on this base (on
    _Record for a value record), so dataclass generates no code.  The
    methods below behave as those @dataclass(frozen=True) would generate:

    - __init__ binds positional and keyword arguments to the init fields,
      fills defaults and default_factory, calls the default_factory of a
      non-init field and then __post_init__ where the class defines one.
      Missing, extra, duplicate and unknown arguments raise TypeError.
    - __setattr__ and __delattr__ raise FrozenInstanceError.
    - repr is qualname(name=value!r, ...) over the fields with repr=True.

    __init__ adopts one fresh dict of the values, in field order, as the
    instance's __dict__.  Under CPython 3.11 that costs less than a store
    per field once a record has five fields, and reads of the attributes
    stay as fast; after stores into vars(self) they would not.

    @_frozen reads each class's fields once, when the class is declared.
    _init_spec holds what every call reads: the names of the fields
    __init__ stores, the arity and whether __post_init__ exists.  The
    arity is the number of stored fields when all of them are init
    fields, else -1; a call with exactly that many positional arguments
    takes them in order, and any other call goes through _bind, which
    reads _init_bind: the init field names, the required ones, and the
    defaults and default factories by name.  _shown names the fields repr
    shows, and a _Record's _compared and _hashed read the tuples its ==
    and hash compare.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names, arity, post_init = self._init_spec
        if kwargs or len(args) != arity:
            values = self._bind(args, kwargs)
        else:
            values = {}
            k = 0
            for name in names:  # cheaper than dict(zip(names, args)) under CPython 3.11
                values[name] = args[k]
                k += 1
        _set(self, "__dict__", values)
        if post_init:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """The stored fields' values, in field order, of a call other than the positional one."""
        cls = type(self)
        init, required, defaults, factories = cls._init_bind
        if len(args) > len(init):
            raise TypeError(f"{cls.__qualname__}() takes at most {len(init)} positional "
                            f"arguments ({len(args)} given)")
        given = dict(zip(init, args))
        for name in kwargs:
            if name in given:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            if name not in init:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
        given.update(kwargs)
        missing = [name for name in required if name not in given]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return {name: given[name] if name in given
                else defaults[name] if name in defaults else factories[name]()
                for name in cls._init_spec[0]}

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @reprlib.recursive_repr()
    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{self.__class__.__qualname__}({shown})"


def _tuple_getter(names: tuple) -> staticmethod:
    """The function of an instance that returns the tuple of its attributes
    named in names, as a staticmethod for a class to hold."""
    if len(names) > 1:
        return staticmethod(attrgetter(*names))
    if names:
        get = attrgetter(*names)
        return staticmethod(lambda obj: (get(obj),))
    return staticmethod(lambda obj: ())


def _frozen(cls):
    """cls, a _Frozen subclass, as a dataclass that keeps _Frozen's methods (see there)."""
    cls = dataclass(init=False, eq=False, repr=False)(cls)
    every = fields(cls)
    # as in dataclass, a non-init field with a plain default is read from the class attribute
    stored = tuple(f for f in every if f.init or f.default_factory is not MISSING)
    names = tuple(f.name for f in stored)
    arity = len(stored) if all(f.init for f in stored) else -1
    cls._init_spec = (names, arity, hasattr(cls, "__post_init__"))
    init = dict.fromkeys(f.name for f in stored if f.init)
    defaults = {f.name: f.default for f in stored if f.default is not MISSING}
    factories = {f.name: f.default_factory for f in stored if f.default_factory is not MISSING}
    required = tuple(name for name in init if name not in defaults and name not in factories)
    cls._init_bind = (init, required, defaults, factories)
    cls._shown = tuple(f.name for f in every if f.repr)
    cls._compared = _tuple_getter(tuple(f.name for f in every if f.compare))
    cls._hashed = _tuple_getter(tuple(f.name for f in every
                                      if (f.compare if f.hash is None else f.hash)))
    return cls


class _Record(_Frozen):
    """Value == and hash of a frozen result record, written once over its fields.

    Each record is declared with @_frozen on this base.  The methods below
    are the ones @dataclass(frozen=True) would generate: == compares the
    tuples of the fields with compare=True between instances of one class
    (else NotImplemented), and hash is that of the fields it hashes.  The
    other framekit dataclasses, the pairs, tables and representations,
    derive from _Frozen alone and compare and hash by identity.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._hashed(self))


@_frozen
class Tolerance(_Record):
    """Absolute and relative tolerance of every verdict (see the module docstring)."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 <= self.abs_tol < np.inf and 0.0 <= self.rel_tol < np.inf):  # NaN fails both
            raise ValueError(f"tolerances must be finite and nonnegative, got {self}")

    def margin(self, *scales: float) -> float:
        return _margins(self, max(map(abs, map(float, scales)), default=0.0))

    def mat_close(self, A, B) -> bool:
        A = np.asarray(A)
        B = np.asarray(B)
        if A.shape != B.shape:
            return False
        return entry_max(A - B) <= self.margin(entry_max(A), entry_max(B))

    def is_identity(self, A) -> bool:
        """Whether A is the identity within tolerance, scaled by max(entry_max(A), 1)."""
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            return False
        return bool(_identities(A, self))

    def is_zero(self, A, scale: float = 1.0) -> bool:
        return entry_max(np.asarray(A)) <= self.margin(scale)


def entry_max(A) -> float:
    """Max-magnitude norm of a matrix or vector (0 for empty input)."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A)))


def opnorm2(A) -> float:
    """Operator 2-norm (largest singular value)."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _overflow(what: str, L: np.ndarray, R: np.ndarray) -> NumericalOverflow:
    """The error for a product L @ R of finite factors that is not finite,
    naming the largest input magnitude."""
    largest = max(entry_max(L), entry_max(R))
    return NumericalOverflow(f"{what} overflows: largest input magnitude {largest:.6g}")


def _finite_product(L: np.ndarray, R: np.ndarray, what: str) -> np.ndarray:
    """L @ R for finite L and R, or NumericalOverflow when an entry overflows.

    The product runs with numpy's overflow and invalid warnings off, so
    stderr stays clean; the message names the largest input magnitude.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P = L @ R
    if not np.isfinite(P).all():
        raise _overflow(what, L, R)
    return P


_FLOAT_MAX = np.finfo(float).max
_HALF_FLOAT_MAX = _FLOAT_MAX / 2  # M + M^* may overflow above this max |M|


def hermitian_part(M) -> np.ndarray:
    """(M + M^*) / 2, for a matrix or each matrix of a stack (..., k, k).

    A finite M gives a finite result (_hermitian_part).
    """
    M = np.asarray(M)
    return _hermitian_part(M, M.swapaxes(-1, -2).conj(), entry_max(M))


def _hermitian_part(M: np.ndarray, Mh: np.ndarray, scale) -> np.ndarray:
    """(M + Mh) / 2 for Mh = M^* and scale = max |M| over all of M.

    Up to scale = FLOAT_MAX / 2 this is 0.5 * (M + Mh).  Above it the sum
    could overflow, so each term is halved first: 0.5 * M + 0.5 * Mh.
    Halving is exact barring subnormal entries, so the second form rounds
    the same sum once and differs from the first only where that overflows.
    """
    if scale > _HALF_FLOAT_MAX:
        return 0.5 * M + 0.5 * Mh
    return 0.5 * (M + Mh)


def _require_finite(M) -> np.ndarray:
    """M as an array, or ValueError when an entry is NaN or infinite."""
    M = np.asarray(M)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def _require_square(M) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {M.shape}")
    return _require_finite(M)


# --- the comparison rules ------------------------------------------------------
#
# Every closeness, identity and zero verdict compares a deviation with tol's
# margin at a scale, abs_tol + rel_tol * scale (_margins): on one array
# (Tolerance), on each matrix of a stack (..., k, k) (_identities) or on
# each member block of a pair's stacked operators (_members_close,
# _block_identities_ok).  The bounds that rest on the identity margin
# (_rank_excludes_identity, the fast path of _block_identities_ok) sit
# with them, and so does the one block budget (_blocks).


def _margins(tol: Tolerance, scale):
    """tol's margin abs_tol + rel_tol * scale, at a scale or at each of an array of them.

    A margin beyond FLOAT_MAX is inf, with no warning.  With abs_tol <= 1
    and rel_tol <= 1, the defaults among them, it cannot overflow:
    rel_tol * scale <= scale <= FLOAT_MAX, and adding abs_tol <= 1, far
    below half an ulp of FLOAT_MAX, rounds to at most FLOAT_MAX.  Only a
    larger tolerance forms it with numpy's overflow warning off.
    """
    if tol.abs_tol <= 1.0 and tol.rel_tol <= 1.0:
        return tol.abs_tol + tol.rel_tol * scale
    with np.errstate(over="ignore"):
        return tol.abs_tol + tol.rel_tol * scale


def _identity_deviation(P: np.ndarray):
    """(|P - I|, max |P|) for a matrix or for each matrix of a stack (..., k, k).

    |P - I| is taken without building I: |P| in the dtype P - I would
    have, with |p_ii - 1| on the diagonal.
    """
    P = P.astype(np.result_type(P.dtype, np.float64), copy=False)
    dev = np.abs(P)
    scale = dev.max(axis=(-2, -1), initial=0.0)
    diag = np.arange(P.shape[-1])
    dev[..., diag, diag] = np.abs(np.diagonal(P, axis1=-2, axis2=-1) - 1.0)
    return dev, scale


def _identities(P: np.ndarray, tol: Tolerance):
    """Whether P, or each matrix of a stack (..., k, k), is the identity within
    tol: max |P - I| against the margin at max(max |P|, 1)."""
    dev, scale = _identity_deviation(P)
    return dev.max(axis=(-2, -1), initial=0.0) <= _margins(tol, np.maximum(scale, 1.0))


def _rank_excludes_identity(N: int, m: int, tol: Tolerance) -> bool:
    """Whether no N x N product of N x m and m x N factors passes tol.is_identity.

    Such a product M (the frame idempotent) has rank at most
    m.  For N > m, Eckart-Young gives ||M - I||_2 >= 1, hence
    entry_max(M - I) >= 1/N.  A matrix that passes is_identity has
    entry_max(M) <= (1 + abs_tol) / (1 - rel_tol) when rel_tol < 1, so its
    deviation is at most mu = abs_tol + rel_tol (1 + abs_tol) / (1 - rel_tol).
    When 1/N > mu the Riesz verdict, and with it the orthonormal one, is
    False, decided in exact arithmetic, without the N x N product;
    otherwise callers form it.
    A computed product is a rank-m one plus rounding error, so it could
    pass only through a rounding error of 2-norm at least 1 - N mu.
    """
    if N <= m or tol.rel_tol >= 1.0:
        return False
    mu = tol.abs_tol + tol.rel_tol * (1.0 + tol.abs_tol) / (1.0 - tol.rel_tol)
    return 1.0 / N > mu


def _members_close(M: np.ndarray, N: np.ndarray, codims, tol: Tolerance) -> bool:
    """tol.mat_close on each member's row block of two stacked operators."""
    sizes = np.asarray(codims, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes

    def block_max(B):  # entry_max of each block, 0 for an empty one
        rows = np.append(np.abs(B).max(axis=1, initial=0.0), 0.0)
        return np.where(sizes > 0, np.maximum.reduceat(rows, starts), 0.0)

    return bool(np.all(block_max(M - N) <= _margins(tol, np.maximum(block_max(M), block_max(N)))))


def _block_identities_ok(L: np.ndarray, R: np.ndarray, codims, tol: Tolerance) -> bool:
    """max_jk || L_j R_k^* - delta_jk I || within tolerance; needs equal member sizes.

    Each d x d block keeps its own margin at max(block max, 1), never below
    the margin at 1, so the block reductions run only when some entry
    exceeds that.
    """
    if len(set(codims)) != 1:
        return False
    prod = L @ R.conj().T
    dev = _identity_deviation(prod)[0]
    if dev.max(initial=0.0) <= _margins(tol, 1.0):
        return True
    blocks = (len(codims), codims[0], len(codims), codims[0])
    deviation = dev.reshape(blocks).max(axis=(1, 3))
    scale = np.abs(prod).reshape(blocks).max(axis=(1, 3))
    return bool(np.all(deviation <= _margins(tol, np.maximum(scale, 1.0))))


# Items per block times their width stays below this many entries, so the
# temporaries of a blocked pass stay small however many items there are.
_BLOCK_ENTRIES = 1 << 15


def _blocks(count: int, width: int) -> list:
    """Slices of range(count), a block of them times width within
    _BLOCK_ENTRIES entries (one item when width alone exceeds it)."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    return [slice(k, min(k + step, count)) for k in range(0, count, step)]


# --- the spectral rules ---------------------------------------------------------
#
# Every verdict on a frame operator, an operator-valued or a p-frame
# operator is one of these five rules, applied to the decomposition it
# reads.  They take matrices the caller already holds as finite and square.


def _hermitian(M, tol: Tolerance, Mh=None, scale=None):
    """Whether M, or each matrix of a stack (..., k, k), is Hermitian within tol.

    The deviation max |M - M^*| is compared with tol's margin at the
    scale max |M|.  Mh is M^*, and scale that max (of each matrix), when
    the caller holds them already; a frame operator's builder reads its
    scale in the same pass that tests S finite (frames._frame_operator_scale).
    Both numbers come from _hermitian_deviation, so scale is a numpy float
    or array, as numpy's max returns it.
    """
    Mh = M.swapaxes(-1, -2).conj() if Mh is None else Mh
    if scale is None:
        scale = np.abs(M).max(axis=(-2, -1), initial=0.0)
    dev, margin = _hermitian_deviation(M, Mh, scale, tol)
    return dev <= margin


def _hermitian_deviation(M, Mh, scale, tol: Tolerance):
    """(deviation, margin) that the Hermitian rule compares, for Mh = M^* and
    scale = max |M| (a numpy float, or an array of one per matrix of a stack).

    Up to scale = FLOAT_MAX / 2 they are max |M - M^*| and tol's margin at
    scale.  Above it M - M^* could overflow, so, as in _hermitian_part, each
    term is halved first: max |0.5 M - 0.5 M^*| against half the margin.
    Halving is exact barring subnormal entries, so the verdict is the one
    the unhalved comparison gives wherever that does not overflow.  A stack
    with one matrix above FLOAT_MAX / 2 takes the halved form for all.
    """
    big = scale > _HALF_FLOAT_MAX
    if big.any() if big.ndim else big:
        return np.abs(0.5 * M - 0.5 * Mh).max(axis=(-2, -1), initial=0.0), 0.5 * _margins(tol, scale)
    return np.abs(M - Mh).max(axis=(-2, -1), initial=0.0), _margins(tol, scale)


# In the psd and pd rules, w[..., 0][()] is lambda_min of each matrix: a
# numpy scalar for one w, whose comparison costs a tenth of a 0-d array's.


def _psd(w, tol: Tolerance):
    """The psd rule on ascending eigenvalues w (..., k): lambda_min >= -abs_tol.

    w is None for a matrix that failed the Hermitian rule, which fails this one.
    """
    return w is not None and (w.shape[-1] == 0 or w[..., 0][()] >= -tol.abs_tol)


def _pd(w, tol: Tolerance):
    """The frame (pd) rule on ascending eigenvalues w (..., k): lambda_min > abs_tol.

    w is None for a matrix that failed the Hermitian rule, which fails this one.
    """
    return w is not None and w.shape[-1] > 0 and w[..., 0][()] > tol.abs_tol


def _invertible(M, tol: Tolerance) -> bool:
    """The invertibility rule: sigma_min(M) > abs_tol, from one SVD of M.

    A 1-D M holds the eigenvalues of a Hermitian matrix instead, whose
    singular values are their absolute values, and no SVD runs.
    """
    s = np.abs(M) if M.ndim == 1 else np.linalg.svd(M, compute_uv=False)
    return bool(s.size) and float(s.min()) > tol.abs_tol


def _clear_of_cut(w, tol: Tolerance) -> bool:
    """The cut rule: every eigenvalue lies farther than abs_tol from (-inf, 0].

    w holds the eigenvalues, or is a square matrix whose eigenvalues are taken.
    """
    w = np.linalg.eigvals(w) if w.ndim == 2 else w
    dist = np.where(w.real <= 0.0, np.abs(w.imag), np.abs(w))
    return bool(np.all(dist > tol.abs_tol))


def _decompose(fn, M):
    """fn(M) for a numpy.linalg decomposition fn, raising EigenFailure when LAPACK fails."""
    try:
        return fn(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def _checked_hermitian_part(M, tol: Tolerance, scale=None):
    """M's Hermitian part, or None when M fails the Hermitian rule.

    M^* and the scale max |M| are read once, for both the rule and the
    Hermitian part; scale is that max when the caller holds it already.
    The Hermitian part does not overflow (_hermitian_part), and it is
    exactly Hermitian: entry ij is 0.5 fl(m_ij + conj(m_ji)), the conjugate
    of entry ji.
    """
    Mh = M.swapaxes(-1, -2).conj()
    if scale is None:
        scale = np.abs(M).max(initial=0.0)
    if not _hermitian(M, tol, Mh, scale):
        return None
    return _hermitian_part(M, Mh, scale)


def _hermitian_eig(M, tol: Tolerance, vectors: bool = False, scale=None):
    """Ascending eigenvalues w of M's Hermitian part, or its eigh (w, V) with
    vectors; None when M fails the Hermitian rule (_checked_hermitian_part)."""
    H = _checked_hermitian_part(M, tol, scale)
    if H is None:
        return None
    return _decompose(np.linalg.eigh if vectors else np.linalg.eigvalsh, H)


def _finite_eigenvalues(w, what: str) -> None:
    """NumericalOverflow naming the first eigenvalue of w that is not finite, if any.

    A finite Hermitian matrix can have an eigenvalue beyond the float range;
    a result built from such an eigh (a root, S^-1/2) would be meaningless.
    """
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        k = int(bad[0])
        raise NumericalOverflow(f"{what}: eigenvalue {k + 1} of {w.size} overflows to {w[k]}")


# --- the positive-definiteness certificate ------------------------------------
#
# A gate that reports no eigenvalue asks only whether lambda_min(H) > t.  One
# Cholesky of a shifted H can prove that; where it cannot, the caller runs
# the eigenvalue rule, which alone says "no".  It runs only where it pays,
# from _CERT_MIN rows (eigvalsh costs about as much as the certificate near
# 8 to 12 rows, with BLAS on one thread, and far more above), and only for
# max |M| in [_CERT_LO, _CERT_HI], clear of the float limits.

_CERT_MIN = 12
_CERT_LO, _CERT_HI = 2.0**-500, 2.0**500
_CERT_BIG = 2.0**1000  # no proof is attempted when sum |h_ii - t| or |t| exceeds this
_UNIT = 2.0**-53  # unit roundoff u of float64
_TINY = 2.0**-1022  # the smallest normal float64


def _certifiable(H: np.ndarray, scale) -> bool:
    """Whether _pd_certified applies to H, the Hermitian part of a matrix M with max |M| = scale."""
    return H.shape[0] >= _CERT_MIN and _CERT_LO <= scale <= _CERT_HI


def _pd_certified(H: np.ndarray, t: float) -> bool:
    """True only when one floating-point Cholesky of H - s I succeeds, s = fl(t + c);
    that proves lambda_min(H) > t for the exactly Hermitian m x m H.

    False proves nothing: the caller then runs the eigenvalue rule.

    Write A~ = fl(H - s I), a~_ii = fl(h_ii - s), its off-diagonal that of H.
    A~ is formed in H's own diagonal, which is restored exactly afterwards,
    so H must be a writable array no one else reads meanwhile; no m x m
    copy is made beside the one np.linalg.cholesky makes.  The shift c
    covers four terms.

    1. Backward error.  If Cholesky runs to completion on A~, its factor
       satisfies R^* R = A~ + dA with |dA| <= g d d^T, d_i = sqrt(a~_ii) and
       g = gamma_k / (1 - gamma_k), gamma_k = k u / (1 - k u), k = m + 1
       (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
       SIAM 2002, Thm 10.3 with |R^*| |R| <= d d^T / (1 - gamma_k); the
       bound holds for any order of the inner products, so for LAPACK's
       blocked potrf).  So ||dA||_2 <= g d^T d = g tr A~, and R^* R pd gives
       lambda_min(A~) > -g tr A~.  In complex arithmetic a product carries a
       relative error up to sqrt(2) gamma_2 < 4u (Higham section 3.6), so k
       = 4 (m + 1) there.
    2. The m diagonal subtractions: a~_ii = (h_ii - s)(1 + delta_i) with
       |delta_i| <= u, so H - s I = A~ - E with |E_ii| <= u a~_ii / (1 - u).
    3. Underflow.  With gradual underflow a product or quotient also
       carries an absolute error up to eta / 2, eta = 2^-1074 (sums and
       square roots carry none); through the inner products and the
       divisions by r_ii they add at most m (m + max d_i) eta to ||dA||_2, a
       term of the kind Rump, "Verification of positive definiteness",
       BIT 46 (2006), adds.  m (m + 2) tiny, tiny = 2^-1022 = 2^52 eta,
       covers all of it but m max(d_i) eta <= m eta (1 + tr A~), whose
       second part is below u tr A~ and goes to term 1's factor 2.
    4. A stated extra margin, so that an H the certificate accepts also
       passes the eigenvalue rule as eigvalsh computes it: eigvalsh's
       eigenvalues lie within p(m) u ||H||_2 of the exact ones (LAPACK
       Users' Guide, 3rd ed., section 4.7), with p(m) "a modestly growing
       function" here taken as m.  Once lambda_min(H) > t,
       ||H||_2 <= |t| + tr(H - t I) <= |t| + sum |h_ii - t|.

    With T = sum |fl(h_ii - t)| (computed), s >= t, so tr A~ <= (1 + u) sum
    |h_ii - t|, and the final form is

        c = 2 g T + 2 m u (|t| + T) + m (m + 2) tiny.

    The factor 2 on g T covers terms 1 and 2 and the rounding of T and c
    (g >= 2u, and g tr A~ + u tr A~ / (1 - u) stays below 2 g T by a
    quarter of it for any m below 2^40).  Of 2 m u (|t| + T), half is
    term 4, and half covers the rounding of s = fl(t + c), |s - t - c| <=
    u (|t| + c).  Then lambda_min(H) >= lambda_min(A~) + s - max |E_ii|
    > t whenever the Cholesky succeeds.

    No proof is attempted when T or |t| exceeds 2^1000 or is NaN: below
    that no pivot or product of the factorization overflows, since a
    factor entry's square is at most its column's a~_ii.
    """
    m = H.shape[0]
    diag = H.diagonal().copy()
    T = float(np.abs(diag.real - t).sum())
    if not (T <= _CERT_BIG and abs(t) <= _CERT_BIG):  # NaN fails both
        return False
    k = (m + 1) * (4 if H.dtype.kind == "c" else 1)
    g = k * _UNIT / (1.0 - 2.0 * k * _UNIT)  # gamma_k / (1 - gamma_k)
    np.fill_diagonal(H, diag - (t + (2.0 * g * T + 2.0 * m * _UNIT * (abs(t) + T) + m * (m + 2) * _TINY)))
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(H, diag)
    return True


def _not_tight_certified(H: np.ndarray, scale, tol: Tolerance) -> bool:
    """True only when the diagonal of H proves that H fails the tight rule,
    b - a <= abs_tol + rel_tol b on its extreme eigenvalues a <= b, both in
    exact arithmetic and as frames._frame_flags computes it from eigvalsh.

    H is the exactly Hermitian m x m part of a matrix M with max |M| =
    scale (_checked_hermitian_part), so its diagonal is real; the caller
    checks _certifiable(H, scale).  False proves nothing: the caller then
    runs the eigenvalue rule.  The test reads the m diagonal entries and
    does a few float operations.  With u = 2^-53:

    1. Rayleigh quotients.  Each h_ii = e_i^* H e_i lies in [a, b], so
       b - a >= delta = max h_ii - min h_ii.  D = fl(delta) has delta >=
       D (1 - u); a subtraction that underflows is exact.
    2. The norm.  |h_ij| = |fl(m_ij + conj(m_ji))| / 2 <= scale (1 + u),
       so ||H||_2 <= m max |h_ij| <= m scale (1 + u) <= N, where N =
       fl(fl(m scale) (1 + 4u)) >= m scale (1 + 4u)(1 - u)^2.
    3. eigvalsh's error.  Its eigenvalues lie within p(m) u ||H||_2 of the
       exact ones (LAPACK Users' Guide, 3rd ed., section 4.7), with p(m)
       taken as m, the model of _pd_certified's term 4.  So the computed
       ends satisfy b^ - a^ >= delta - 2 m u N, and 0 <= b^ <= b + m u N
       <= N (1 + m u) wherever the tight rule is read (b^ > abs_tol).
    4. The computed rule compares fl(b^ - a^) >= (b^ - a^)(1 - u) with
       fl(abs_tol + fl(rel_tol b^)) <= (abs_tol + rel_tol b^)(1 + u)^2.
       With L = abs_tol + rel_tol N (1 + m u) + 2 m u N, it fails once
       D > L (1 + u)^2 / (1 - u)^2, below L (1 + 4.1 u); and then b - a >=
       delta > L >= abs_tol + rel_tol b fails the exact rule too.

    The bound is computed as C = fl(L (1 + 16u)): at most six roundings,
    each by a factor no lower than 1 - u, reach C, so C > L (1 + 9u).
    Products that underflow add at most 2^-1074 each, far below the slack
    5 u L > 2^-600 that the factor leaves once scale >= 2^-500.
    A term that overflows makes C inf, and no proof is given.
    """
    m = H.shape[0]
    diag = H.diagonal().real
    spread = float(diag.max() - diag.min())
    N = m * float(scale) * (1.0 + 4.0 * _UNIT)
    mu = m * _UNIT
    bound = (float(tol.abs_tol) + float(tol.rel_tol) * N * (1.0 + mu) + 2.0 * mu * N) * (1.0 + 16.0 * _UNIT)
    return spread > bound


def _gate(M, tol: Tolerance, rule, scale=None):
    """Whether M passes the Hermitian rule and rule (_psd or _pd) on the
    eigenvalues of its Hermitian part H, as (passed, w ascending or None).

    A Cholesky that proves lambda_min(H) > t, t = -abs_tol for _psd and
    abs_tol for _pd, decides "yes" without eigenvalues (w None).  Else w
    comes from one eigvalsh, and w is None only when M failed the
    Hermitian rule.  scale is max |M| when the caller holds it.
    """
    if scale is None:
        scale = np.abs(M).max(initial=0.0)
    H = _checked_hermitian_part(M, tol, scale)
    if H is None:
        return False, None
    if _certifiable(H, scale) and _pd_certified(H, -tol.abs_tol if rule is _psd else tol.abs_tol):
        return True, None
    w = _decompose(np.linalg.eigvalsh, H)
    return bool(rule(w, tol)), w


@_frozen
class SpectralReport(_Record):
    """Eigenvalues of a square matrix and spectral's verdicts on them."""

    is_hermitian: bool
    eigenvalues: np.ndarray  # sorted by real part, ascending
    min_real_eig: float
    is_psd: bool
    is_pd: bool


def spectral(M, tol: Tolerance = Tolerance()) -> SpectralReport:
    """Eigenvalue verdicts: hermiticity, positivity, definiteness.

    Hermitian inputs go through eigvalsh so the returned eigenvalues are
    real up to dtype; general inputs use eigvals.  psd/pd require
    hermiticity first.
    """
    M = _require_square(M)
    vals = _hermitian_eig(M, tol)
    hermitian = vals is not None
    vals = vals.astype(complex) if hermitian else _decompose(np.linalg.eigvals, M)
    vals = vals[np.argsort(vals.real, kind="stable")]
    min_real = float(vals.real.min()) if vals.size else 0.0
    real = vals.real if hermitian else None
    return SpectralReport(hermitian, vals, min_real, bool(_psd(real, tol)), bool(_pd(real, tol)))


def herm_sqrt(M, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Hermitian psd square root via eigendecomposition.

    One eigh of the Hermitian part both gates and builds the root: the
    input must pass the Hermitian and psd rules.  Eigenvalues in
    [-abs_tol, 0] are clipped to 0 so that round-off on an intended-psd
    input does not raise.  An eigenvalue beyond the float range (of a
    finite M) raises NumericalOverflow.
    """
    eig = _hermitian_eig(_require_square(M), tol, vectors=True)
    if eig is None or not _psd(eig[0], tol):
        raise NotPsd("herm_sqrt needs a Hermitian positive semidefinite matrix")
    w, V = eig
    _finite_eigenvalues(w, "herm_sqrt")
    R = hermitian_part((V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T)
    return R.real if np.isrealobj(M) else R


def principal_power(M, alpha: float, tol: Tolerance = Tolerance()) -> np.ndarray:
    """V diag(lambda^alpha) V^-1 with the principal branch on each eigenvalue.

    Requires a spectrum clear of the closed negative real axis (the cut
    rule, tested first, so an input failing both raises SpectrumOnCut) and
    a diagonalizable matrix, gated by the condition number of the
    eigenvector matrix.
    """
    M = _require_square(M)
    w, V = _decompose(np.linalg.eig, M)
    if not _clear_of_cut(w, tol):
        raise SpectrumOnCut("an eigenvalue lies within tolerance of (-inf, 0]")
    svals = np.linalg.svd(V, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1.0 / max(tol.abs_tol, 1e-300):
        raise NotDiagonalizable("eigenvector matrix is too ill-conditioned")
    powered = np.asarray(w, dtype=complex) ** alpha
    R = V @ np.diag(powered) @ np.linalg.inv(V)
    if np.isrealobj(M) and entry_max(R.imag) <= tol.margin(entry_max(R)):
        R = R.real
    return R


@_frozen
class PNormInterval(_Record):
    """Interval [lower, upper] that pnorm_estimate gives for an lp operator norm."""

    lower: float
    upper: float


# _lp_norms sums unscaled only within [_LP_SUM_MIN, _FLOAT_MAX]; below, the
# round-off of subnormal terms may reach an ulp of the sum.
_LP_SUM_MIN = np.finfo(float).tiny * 2.0**53


def _lp_norms(V, p: float) -> np.ndarray:
    """lp norm of each row of V (of V itself when V is a vector).

    When a sum of p-th powers could overflow, or is small enough to carry
    subnormal round-off, each row is divided by 2^e, the power of two just
    above its largest entry, before the powers, and its norm multiplied
    back by 2^e.  Both scalings are exact, so a norm within the float
    range never overflows; otherwise the rows are summed unscaled.
    """
    V = np.asarray(V)
    V = V.astype(complex if np.iscomplexobj(V) else float, order="C", copy=False)
    A = np.abs(V)
    if p == np.inf:
        return A.max(axis=-1, initial=0.0)
    if A.max(initial=0.0) < (_FLOAT_MAX / max(A.shape[-1], 1)) ** (1.0 / p):
        A **= p
        sums = A.sum(axis=-1)
        if sums.min(initial=np.inf) >= _LP_SUM_MIN:
            return sums ** (1.0 / p)
    A = np.abs(V)
    e = np.frexp(A.max(axis=-1, keepdims=True, initial=0.0))[1]
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return np.ldexp((np.ldexp(A, -e) ** p).sum(axis=-1) ** (1.0 / p), e[..., 0])


def _lp_norm(v, p: float) -> float:
    return float(_lp_norms(np.ravel(v), p))


def _image_lp_norms(M: np.ndarray, C, p: float) -> np.ndarray:
    """||M c||_p for every row c of C, each block of images one GEMM.

    An image may differ from M @ c in its last bits (another summation
    order), so a witness norm moves only by rounding.
    """
    norms = [_lp_norms(C[block] @ M.T, p) for block in _blocks(len(C), max(M.shape))]
    return np.concatenate(norms) if norms else np.zeros(0)


def _normalized_image_lp_norms(M: np.ndarray, C, p: float) -> np.ndarray:
    """||M (c / ||c||_p)||_p for every row c of C with ||c||_p > 0.

    Each candidate is cast to M's dtype before it is scaled, so an integer
    M sees integer candidates.
    """
    nc = _lp_norms(C, p)
    keep = nc > 0.0
    if not keep.all():
        C, nc = C[keep], nc[keep]
    return _image_lp_norms(M, np.asarray(C, dtype=M.dtype) / nc[:, None], p)


@functools.lru_cache(maxsize=None)
def _half_sign_patterns(n: int) -> np.ndarray:
    """The 2^(n-1) vectors of +-1 that end in +1, as the rows of a read-only
    array built once per n.

    Row k has +1 in column j exactly when bit j of 2^(n-1) + k is set: the
    second half of all 2^n patterns in bit order.  c and -c have equal
    image norms, so these rows stand for all 2^n; callers ask only for
    n <= 12, whose tables hold about 0.4 MB together.
    """
    bits = np.arange((1 << n) >> 1, 1 << n)[:, None] >> np.arange(n)
    bits &= 1
    signs = bits.astype(float)
    signs *= 2.0
    signs -= 1.0
    signs.setflags(write=False)
    return signs


def _gaussian_rows(rng: np.random.Generator, count: int, n: int, complex_field: bool) -> np.ndarray:
    """count seeded draws of length n as rows.

    Consumes the stream exactly as count successive draws of n normals
    (each followed, for a complex field, by n more for the imaginary part)
    would.
    """
    count = max(count, 0)
    if complex_field:
        draws = rng.standard_normal((count, 2, n))
        return draws[:, 0] + 1j * draws[:, 1]
    return rng.standard_normal((count, n))


def _gaussian_blocks(rng: np.random.Generator, count: int, n: int, complex_field: bool,
                     width: int):
    """The draws of _gaussian_rows(rng, count, n, complex_field), yielded as
    blocks of rows small enough that a (rows, width) temporary per block
    stays below _BLOCK_ENTRIES entries.

    A falsifier that stops at its first failing block then needs bounded
    memory however many samples it is asked for.
    """
    for block in _blocks(count, width):
        yield _gaussian_rows(rng, block.stop - block.start, n, complex_field)


def pnorm_estimate(
    M,
    p: float,
    samples: int = 200,
    seed: int = 0,
) -> PNormInterval:
    """Certified interval for the lp -> lp operator norm of M.

    lower: best witness among all standard basis vectors, the +-1 sign
    patterns up to a global sign (when cols <= 12), the leading right
    singular vector, and `samples` seeded random directions, each
    normalised in lp; each family of witnesses goes through one matrix
    product per block.  The sign patterns are the 2^(cols-1) that end
    in +1, taken from a read-only table cached once per cols (at most
    about 0.4 MB over all cols <= 12) and divided by their common lp
    norm.
    upper: at p = 2 the largest singular value, taken from the same full
    SVD as the singular-vector witness (a failing SVD raises), else the
    interpolation bound ||M||_1^(1/p) * ||M||_inf^(1-1/p).

    A witness above the upper end by more than round-off
    (8 cols eps relative) means the upper bound is wrong and raises
    InconsistentInterval; smaller overshoot is clamped.  p = inf is the
    max-norm; a p below 1 or NaN raises BadExponent, and a non-finite
    entry ValueError.
    """
    if not p >= 1:
        raise BadExponent(f"p must be >= 1, got {p}")
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("pnorm_estimate expects a matrix")
    rows, cols = _require_finite(M).shape

    try:
        _, sigma, Vh = np.linalg.svd(M)
    except np.linalg.LinAlgError:
        if p == 2:  # no upper end without it
            raise
        Vh = None
    absM = np.abs(M)
    norm1 = float(absM.sum(axis=0).max()) if M.size else 0.0
    norminf = float(absM.sum(axis=1).max()) if M.size else 0.0
    if p == 2:
        upper = float(sigma[0]) if sigma.size else 0.0
    elif norm1 == 0.0 or norminf == 0.0:
        upper = 0.0
    else:
        upper = norm1 ** (1.0 / p) * norminf ** (1.0 - 1.0 / p)

    # a standard basis vector has unit lp norm and maps to its column exactly
    witnesses = [_lp_norms(M.T, p)]
    if 0 < cols <= 12:
        # every pattern has the lp norm _lp_norms gives the first, cols^(1/p),
        # since a sum of cols ones is exact
        signs = _half_sign_patterns(cols)
        scaled = np.asarray(signs, dtype=M.dtype) / _lp_norms(signs[:1], p)
        witnesses.append(_image_lp_norms(M, scaled, p))
    if Vh is not None:
        witnesses.append(_normalized_image_lp_norms(M, Vh[:1].conj(), p))
    rng = np.random.default_rng(seed)
    draws = _gaussian_rows(rng, samples, cols, np.iscomplexobj(M))
    witnesses.append(_normalized_image_lp_norms(M, draws, p))
    lower = max(float(w.max(initial=0.0)) for w in witnesses)

    # every witness is a true lower bound; only round-off may exceed the upper one
    if lower > upper * (1.0 + 8.0 * cols * np.finfo(float).eps):
        raise InconsistentInterval(
            f"lp norm witness {lower!r} exceeds the upper bound {upper!r} beyond round-off")
    return PNormInterval(min(lower, upper), upper)
