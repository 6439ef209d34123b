"""The W_{-1} branch of the real Lambert W function.

The quantile machinery of the package rests on W_{-1} on [-1/e, 0).  Its
evaluator takes a fixed number of steps: the branch-point series or the
logarithmic asymptote as the initial guess, three Newton steps on
w + log(-w) = log(-z) (Iacono & Boyd 2017), which need no exp and so stay
accurate down to subnormal z, and one Newton step on w*exp(w) = z wherever
exp(w) is a normal float.
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
# machine accuracy and Newton's denominator 1 + w is too ill-conditioned to help.
_SERIES_ONLY = 1e-5
_TINY = float(np.finfo(float).tiny)  # smallest normal float


class LambertBranch(enum.Enum):
    """Real branch of the Lambert W function evaluated by :func:`lambert_w`."""

    NEGATIVE_ONE = -1


def _branch_series(p):
    w = np.full_like(p, _BRANCH_COEFFS[-1])
    for c in _BRANCH_COEFFS[-2::-1]:
        w *= p
        w += c
    return w


def _wm1(z):
    """W_{-1} on [-1/e, 0), elementwise on a 1-d array; domain already validated.

    Every point takes the logarithmic asymptote as its guess; the points
    with d = 1 + e*z <= 1/2, gathered by index, take the branch-point series
    instead, evaluated on them alone.  The three log-form Newton steps carry
    m = -w, so that no step negates a block: each is the step on w rewritten
    by exact identities (-(a - b) = b - a, (-a)*(-b) = a*b, 1 + w = 1 - m),
    and the result is bitwise that of the step on w.  The steps run in place
    in four buffers of z's size (d, later log_z; m, later w; t; e); the
    comments give each step as one expression, whose operations and their
    order the in-place steps keep.  Below d = 1e-5 the series value is kept
    as it is, and at d <= 0 the value is -1.
    """
    with np.errstate(all="ignore"):
        d = np.multiply(z, np.e)
        d += 1.0  # the distance above the branch point
        near = np.flatnonzero(d <= 0.5)
        d_near = d[near]
        p = np.multiply(d_near, 2.0)
        np.negative(np.sqrt(p, out=p), out=p)  # p = -sqrt(2d)
        series = _branch_series(p)
        log_z = np.log(np.negative(z, out=d), out=d)
        m = np.log(np.negative(log_z))  # log_log = log(-log_z)
        t = np.divide(m, log_z)
        np.subtract(m, log_z, out=m)
        m -= t  # -(log_z - log_log + log_log / log_z)
        m[near] = np.negative(series, out=p)
        # Over 4.4e6 points from 1 + e*z = 1e-5 down through the subnormals
        # the worst relative error falls from 0.055 to 1e-3, 3e-7 and 3e-14;
        # the last is set by the conditioning 1/|1 + w| near the branch point
        # (a fourth step gives 2.5e-14).  The exp step then brings the
        # residual w*exp(w) - z down to rounding.
        e = np.empty_like(m)
        for _ in range(3):  # m += (log_z + m - log(m)) * m / (1 - m)
            np.add(log_z, m, out=t)
            t -= np.log(m, out=e)
            t *= m
            t /= np.subtract(1.0, m, out=e)
            m += t
        w = np.negative(m, out=m)
        np.exp(w, out=e)
        np.multiply(w, e, out=t)
        t -= z
        t /= np.multiply(e, np.add(w, 1.0, out=log_z), out=log_z)
        np.subtract(w, t, out=w, where=e >= _TINY)  # w -= (w*e - z) / (e*(1 + w))
    series_only = d_near < _SERIES_ONLY
    w[near[series_only]] = series[series_only]
    w[near[d_near <= 0.0]] = -1.0  # within rounding of -1/e itself
    return w


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
    return _wm1(z.ravel()).reshape(z.shape)[()]  # a 0-d result as a float
