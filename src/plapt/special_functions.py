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
        w = w * p + c
    return w


def _wm1(z):
    """W_{-1} on [-1/e, 0), elementwise; domain already validated."""
    d = 1.0 + np.e * z  # distance above the branch point
    with np.errstate(all="ignore"):
        series = _branch_series(-np.sqrt(2.0 * d))
        log_z = np.log(-z)
        log_log = np.log(-log_z)
        w = np.where(d > 0.5, log_z - log_log + log_log / log_z, series)
        # Over 4.4e6 points from 1 + e*z = 1e-5 down through the subnormals
        # the worst relative error falls from 0.055 to 1e-3, 3e-7 and 3e-14;
        # the last is set by the conditioning 1/|1 + w| near the branch point
        # (a fourth step gives 2.5e-14).  The exp step then brings the
        # residual w*exp(w) - z down to rounding.
        for _ in range(3):
            w = w - (w - log_z + np.log(-w)) * w / (1.0 + w)
        e = np.exp(w)
        w = np.where(e >= _TINY, w - (w * e - z) / (e * (1.0 + w)), w)
    w = np.where(d < _SERIES_ONLY, series, w)
    return np.where(d <= 0.0, -1.0, w)  # within rounding of -1/e itself


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
    return _wm1(z)[()]  # a 0-d result as a float
