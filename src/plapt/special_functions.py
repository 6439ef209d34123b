"""The theta*x kernel of the quantiles, and the W_{-1} branch of the real Lambert W function.

Every quantile is Q(1 - v) = t/theta, where t = theta*Q >= 0 solves
t - log1p(t/beta) = -log s, s the Pseudo-Lindley survival mass at tail
mass v: t = -beta - W_{-1}(-beta*exp(-beta)*s), and W_{-1}(z) = -1 - t at
beta = 1, s = -e*z.  ``_theta_x`` solves for t from log s by Newton steps in
t (Corless et al. 1996; Iacono & Boyd 2017 take them in log form), which
form neither z nor exp(-t), so t keeps its relative accuracy for every beta
and down to s = 5e-324.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .exceptions import DomainError

__all__ = ["BRANCH_POINT", "LambertBranch", "lambert_w"]

BRANCH_POINT = -math.exp(-1.0)  # -1/e, where the two real branches meet

# Series of W_{-1} about the branch point in p = -sqrt(2*(1 + e*z)).
_BRANCH_COEFFS = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0, 769.0 / 17280.0)
# Below this distance from the branch point the series alone is already at
# machine accuracy, and Newton steps would only add the rounding of log s.
_SERIES_ONLY = 1e-5
_TINY = float(np.finfo(float).tiny)  # smallest normal float


class LambertBranch(enum.Enum):
    """Real branch of the Lambert W function evaluated by :func:`lambert_w`."""

    NEGATIVE_ONE = -1


def _theta_x(beta: float, log_s):
    """The t >= 0 with t - log1p(t/beta) = -log s, elementwise on a 1-d array
    of log s <= 0, for a shift beta >= 1: t = -beta - W_{-1}(-beta*exp(-beta)*s).

    With a = -log s, the points at distance d = 1 + e*z = -expm1(c - a),
    c = 1 + log(beta) - beta, at most 1/2 above the branch point take the
    branch-point series as their guess, t = (1 - beta) - (1 + W_{-1}), and
    the others the fixed-point step g(a), g(t) = a + log1p(t/beta).  Four
    Newton steps t -= (t - g)*(beta + t)/(beta + t - 1) follow.  Below
    d = 1e-5 the series value is kept, and at s = 1 t is 0 exactly; a float
    log s below 0 is at most log(1 - 2**-53), where t is already positive.
    """
    c = math.log(beta) - (beta - 1.0)
    with np.errstate(all="ignore"):  # Newton steps at the branch point itself, whose t is the series'
        a = np.subtract(0.0, log_s)  # +0.0, not -0.0, at s = 1
        t = np.multiply(a, 1.0 / beta)
        np.log1p(t, out=t)
        t += a
        near = np.flatnonzero(a <= c + math.log(2.0))
        a_near = a[near]
        d = np.subtract(c, a_near)
        np.negative(np.expm1(d, out=d), out=d)
        p = np.multiply(d, 2.0)
        np.negative(np.sqrt(p, out=p), out=p)  # p = -sqrt(2d)
        series = np.full_like(p, _BRANCH_COEFFS[-1])  # 1 + W_{-1}, by Horner down to the linear term
        for coeff in _BRANCH_COEFFS[-2:0:-1]:
            series *= p
            series += coeff
        series *= p
        np.subtract(1.0 - beta, series, out=series)
        series[a_near <= 0.0] = 0.0
        t[near] = series
        g, r = np.empty_like(t), np.empty_like(t)
        for _ in range(4):  # t = g - (t - g)/(t + beta - 1), in place
            np.multiply(t, 1.0 / beta, out=g)
            np.log1p(g, out=g)
            g += a
            np.add(t, beta - 1.0, out=r)
            t -= g
            t /= r
            np.subtract(g, t, out=t)
    series_only = d < _SERIES_ONLY
    t[near[series_only]] = series[series_only]
    return t


def lambert_w(branch: LambertBranch, z):
    """Evaluate the W_{-1} branch of the real Lambert W function.

    W_{-1} is the inverse of w -> w*exp(w) on w <= -1; it is defined on
    [-1/e, 0).

    Parameters
    ----------
    branch : LambertBranch
        LambertBranch.NEGATIVE_ONE, the only branch implemented.
    z : float or array_like
        Evaluation point(s). Scalar input yields a float, arrays an ndarray.

    Returns
    -------
    float or numpy.ndarray
        w <= -1 with ``w * exp(w) == z`` to machine tolerance.

    Raises
    ------
    DomainError
        If ``z`` lies outside [-1/e, 0) (non-finite values included) or
        ``branch`` is not a LambertBranch.
    """
    if branch is not LambertBranch.NEGATIVE_ONE:
        raise DomainError(f"unknown Lambert branch: {branch!r}")
    z = np.asarray(z, dtype=float)
    if z.size and not (z.min() >= BRANCH_POINT and z.max() < 0.0):  # nan fails either
        raise DomainError("W_{-1} branch requires -1/e <= z < 0")
    zf = z.ravel()
    w = np.subtract(-1.0, _theta_x(1.0, np.log(-zf) + 1.0))  # log s = log(-e*z), 0 at the float -1/e
    # log(-z) rounds by up to half an ulp of w; one Newton step on w*exp(w) = z
    # takes it out, where exp(w) is normal and 1 + w far from 0
    with np.errstate(all="ignore"):
        e = np.exp(w)
        np.subtract(w, (w * e - zf) / (e * (w + 1.0)), out=w, where=(e >= _TINY) & (w <= -2.0))
    return w.reshape(z.shape)[()]  # a 0-d result as a float
