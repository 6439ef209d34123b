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

    The steps run in place in four buffers of z's size (p, later log_z;
    series, later e; w; t) and three boolean masks, so that a block holds few
    temporaries; the comments give each step as one expression, whose
    operations and their order the in-place steps keep.  The few points
    near the branch point take their series values by mask at the end.
    """
    with np.errstate(all="ignore"):
        p = np.multiply(z, np.e)
        p += 1.0  # d = 1 + e*z, the distance above the branch point
        asymptote, series_only, at_branch = p > 0.5, p < _SERIES_ONLY, p <= 0.0
        p *= 2.0
        np.negative(np.sqrt(p, out=p), out=p)  # p = -sqrt(2d)
        series = _branch_series(p)
        series_kept = series[series_only]
        log_z = np.log(np.negative(z, out=p), out=p)
        w = np.log(np.negative(log_z))  # log_log = log(-log_z)
        t = np.divide(w, log_z)
        np.subtract(log_z, w, out=w)
        w += t  # log_z - log_log + log_log / log_z
        np.copyto(w, series, where=~asymptote)
        # Over 4.4e6 points from 1 + e*z = 1e-5 down through the subnormals
        # the worst relative error falls from 0.055 to 1e-3, 3e-7 and 3e-14;
        # the last is set by the conditioning 1/|1 + w| near the branch point
        # (a fourth step gives 2.5e-14).  The exp step then brings the
        # residual w*exp(w) - z down to rounding.
        e = series
        for _ in range(3):  # w -= (w - log_z + log(-w)) * w / (1 + w)
            np.subtract(w, log_z, out=t)
            t += np.log(np.negative(w, out=e), out=e)
            t *= w
            t /= np.add(w, 1.0, out=e)
            w -= t
        np.exp(w, out=e)
        np.multiply(w, e, out=t)
        t -= z
        t /= np.multiply(e, np.add(w, 1.0, out=log_z), out=log_z)
        np.subtract(w, t, out=w, where=e >= _TINY)  # w -= (w*e - z) / (e*(1 + w))
    w[series_only] = series_kept
    w[at_branch] = -1.0  # within rounding of -1/e itself
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
    if not np.all((z >= BRANCH_POINT) & (z < 0.0)):  # nan fails too
        raise DomainError("W_{-1} branch requires -1/e <= z < 0")
    return _wm1(z.ravel()).reshape(z.shape)[()]  # a 0-d result as a float
