"""Ground-truth comparisons shared by the job checkers.

A checker returns None when a result is right and a short reason when it is
not.  Expected values come from the generator's construction or from plain
numpy on the input, never from framekit.
"""

from __future__ import annotations

import numpy as np

REL = 1e-8


def close(got, want) -> bool:
    return abs(got - want) <= 1e-10 + REL * max(abs(got), abs(want))


def mat_close(got, want) -> bool:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return False
    scale = max(np.max(np.abs(want)), 1.0)
    return bool(np.max(np.abs(got - want)) <= REL * scale)


def parse_report(text: str) -> dict:
    """`key = value` lines of a CLI report, values kept as text."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def number(text: str) -> float:
    """A printed real, or the real part of a printed [re, im] pair."""
    if text.startswith("["):
        return vector(text)[0]
    return float(text)


def vector(text: str) -> list:
    return [float(v) for v in text.strip("[]").split(",")]


_FLAGS = {True: "true", False: "false", None: "none"}


def report(code=0, kind=None, flags=None, values=None, extra=None):
    """Checker for one CLI job: exit code, report kind, flags, numbers.

    `values` maps a key to an expected number or list of numbers, compared
    with the relative tolerance REL; `extra(report)` may add checks.
    """
    def check(result):
        if result.code != code:
            return f"exit code {result.code}, expected {code}: {result.text[-300:]!r}"
        rep = parse_report(result.text)
        if kind is not None and rep.get("kind") != kind:
            return f"kind {rep.get('kind')!r}, expected {kind!r}"
        for key, want in (flags or {}).items():
            if rep.get(key) != _FLAGS[want]:
                return f"{key} = {rep.get(key)}, expected {_FLAGS[want]}"
        for key, want in (values or {}).items():
            if key not in rep:
                return f"{key} missing"
            if isinstance(want, (list, tuple)):
                got = vector(rep[key])
                ok = len(got) == len(want) and all(close(g, w) for g, w in zip(got, want))
            else:
                got = number(rep[key])
                ok = close(got, want)
            if not ok:
                return f"{key} = {rep[key]}, expected {want}"
        return extra(rep) if extra else None
    return check


def lp_norm(v, p) -> float:
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def lp_interpolation_bound(M, p) -> float:
    """Riesz-Thorin upper bound ||M||_1^(1/p) ||M||_inf^(1-1/p) on ||M||_p."""
    absM = np.abs(M)
    return float(absM.sum(axis=0).max() ** (1.0 / p) * absM.sum(axis=1).max() ** (1.0 - 1.0 / p))


def column_lower_bound(M, p) -> float:
    """max_j ||M e_j||_p, a lower bound on ||M||_p."""
    return max(lp_norm(M[:, j], p) for j in range(M.shape[1]))


def spd_power(S, alpha):
    w, V = np.linalg.eigh(S)
    return (V * w ** alpha) @ V.conj().T


def p_bounds_problem(lower, upper, S, p):
    """Soundness of certified p-frame intervals for a symmetric pd S.

    With R = S^(1/p), the optimal bounds are a = ||R^-1||_p^-p and
    b = ||R||_p^p.  Any induced norm dominates the spectral radius and is
    dominated by the interpolation bound, which brackets both.
    """
    lam = np.linalg.eigvalsh(S)
    R = spd_power(S, 1.0 / p)
    Rinv = spd_power(S, -1.0 / p)
    b_hi = lp_interpolation_bound(R, p) ** p
    a_lo = lp_interpolation_bound(Rinv, p) ** -p
    for name, (lo, hi) in (("lower_a", lower), ("upper_b", upper)):
        if not (0.0 < lo <= hi * (1 + REL)):
            return f"{name} interval [{lo}, {hi}] is not ordered and positive"
    if upper[1] < lam[-1] * (1 - REL) or upper[0] > b_hi * (1 + REL):
        return f"upper_b {upper} misses [{lam[-1]}, {b_hi}]"
    if lower[0] > lam[0] * (1 + REL) or lower[1] < a_lo * (1 - REL):
        return f"lower_a {lower} misses [{a_lo}, {lam[0]}]"
    return None


def rank(M) -> int:
    return int(np.linalg.matrix_rank(M, tol=1e-9))
