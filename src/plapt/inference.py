"""Maximum-likelihood estimation of (theta, beta) at fixed alpha.

The two score equations are the exact partial derivatives of the
log-likelihood (validated against central finite differences in the test
suite) and are solved by a damped Newton-Raphson iteration with a
finite-difference Jacobian.  Model comparison against the nested Lindley
and Pseudo-Lindley families reports AIC/BIC per candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distribution import ALPHA_ONE_TOL, PlAptParams, Sample, _survival_log, _validate_params
from .exceptions import DomainError, NumericalError

__all__ = [
    "FitResult",
    "FamilySpec",
    "ModelCompareRow",
    "log_likelihood",
    "score",
    "fit_mle",
    "fit_mle_profile",
    "model_compare",
    "lindley_family",
    "pseudo_lindley_family",
    "pl_apt_family",
]

SCORE_TOL_PER_OBS = 1e-8  # converged when ||score||_2 <= 1e-8 * n
MAX_ITER = 200
_BETA_FLOOR = 1.0 + 1e-9
_MAX_HALVINGS = 30


def log_likelihood(alpha: float, theta: float, beta: float, data: Sample) -> float:
    """Log-likelihood of the data under parameters (alpha, theta, beta).

    For alpha away from 1 the constant log(log(alpha)) - log(alpha - 1) is
    evaluated jointly as log(log(alpha)/(alpha - 1)), which is real and
    finite on both sides of alpha = 1.
    """
    _validate_params(alpha, beta, theta)
    x = data.values
    n = data.n
    t = theta * x
    ll = n * (math.log(theta) - math.log(beta))
    ll += float(np.sum(np.log(beta - 1.0 + t)) - np.sum(t))
    if abs(alpha - 1.0) >= ALPHA_ONE_TOL:
        log_a = math.log(alpha)
        ll += n * math.log(log_a / (alpha - 1.0))
        ll += log_a * float(np.sum(-np.expm1(_survival_log(beta, t))))
    return float(ll)


def score(alpha: float, theta: float, beta: float, data: Sample) -> tuple[float, float]:
    """Partial derivatives of :func:`log_likelihood` in (theta, beta)."""
    _validate_params(alpha, beta, theta)
    x = data.values
    n = data.n
    t = theta * x
    denom = beta - 1.0 + t
    d_theta = n / theta - float(np.sum(x)) + float(np.sum(x / denom))
    d_beta = -n / beta + float(np.sum(1.0 / denom))
    if abs(alpha - 1.0) >= ALPHA_ONE_TOL:
        log_a = math.log(alpha)
        xe = x * np.exp(-t)
        d_theta += log_a * float(np.sum(xe * denom)) / beta
        d_beta += log_a * theta * float(np.sum(xe)) / (beta * beta)
    return float(d_theta), float(d_beta)


@dataclass(frozen=True, eq=False)
class FitResult:
    """MLE output: estimates with convergence diagnostics and standard errors."""

    params: PlAptParams
    loglik: float
    score_norm: float
    iterations: int
    converged: bool
    stderr_theta: float
    stderr_beta: float
    covariance: np.ndarray | None  # 2x2 over (theta, beta) when positive semidefinite


def _score_vec(alpha, theta, beta, data):
    return np.asarray(score(alpha, theta, beta, data), dtype=float)


def _score_jacobian(alpha, theta, beta, data):
    # Central differences of the analytic score: better conditioned than
    # second differences of the likelihood itself.
    h_theta = min(6e-6 * max(1.0, abs(theta)), 0.49 * theta)
    h_beta = min(6e-6 * max(1.0, abs(beta)), 0.49 * (beta - 1.0))
    jac = np.empty((2, 2))
    jac[:, 0] = (
        _score_vec(alpha, theta + h_theta, beta, data)
        - _score_vec(alpha, theta - h_theta, beta, data)
    ) / (2.0 * h_theta)
    jac[:, 1] = (
        _score_vec(alpha, theta, beta + h_beta, data)
        - _score_vec(alpha, theta, beta - h_beta, data)
    ) / (2.0 * h_beta)
    return jac


def _damp_into_region(theta, beta, step):
    scale = 1.0
    for _ in range(_MAX_HALVINGS):
        cand = (theta + scale * step[0], beta + scale * step[1])
        if cand[0] > 0.0 and cand[1] > _BETA_FLOOR:
            return cand
        scale *= 0.5
    return None


def _ascent_fallback(alpha, theta, beta, grad, data):
    base = log_likelihood(alpha, theta, beta, data)
    scale = 1.0 / (1.0 + float(np.hypot(*grad)))
    for _ in range(_MAX_HALVINGS):
        cand = (theta + scale * grad[0], beta + scale * grad[1])
        if cand[0] > 0.0 and cand[1] > _BETA_FLOOR:
            if log_likelihood(alpha, cand[0], cand[1], data) > base:
                return cand
        scale *= 0.5
    return None


def _covariance(alpha, theta, beta, data):
    hess = _score_jacobian(alpha, theta, beta, data)
    hess = 0.5 * (hess + hess.T)
    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        return None, math.nan, math.nan
    if not np.all(np.isfinite(cov)):
        return None, math.nan, math.nan
    eig = np.linalg.eigvalsh(cov)
    if eig[0] < -1e-12 * max(1.0, abs(eig[-1])):
        return None, math.nan, math.nan
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return cov, float(se[0]), float(se[1])


def fit_mle(
    alpha: float,
    data: Sample,
    init: tuple[float, float] | None = None,
    *,
    max_iter: int = MAX_ITER,
) -> FitResult:
    """Fit (theta, beta) by damped Newton-Raphson on the score at fixed alpha.

    Parameters
    ----------
    alpha : float
        Held fixed during the fit (profile over a grid with
        :func:`fit_mle_profile` to estimate it).
    data : Sample
        At least two observations with positive mean.
    init : (theta0, beta0), optional
        Defaults to the exponential-rate heuristic 1/mean(data) and beta0=2.

    Returns
    -------
    FitResult
        ``converged`` is False (never an exception) when the score norm
        fails to reach 1e-8 * n within ``max_iter`` iterations.

    Raises
    ------
    NumericalError
        If the finite-difference Jacobian is numerically rank-deficient.
    """
    if data.n < 2:
        raise DomainError("fitting requires at least two observations")
    mean = float(np.mean(data.values))
    if init is None:
        if mean <= 0.0:
            raise DomainError("degenerate sample: all observations are zero")
        theta, beta = 1.0 / mean, 2.0
    else:
        theta, beta = float(init[0]), float(init[1])
    _validate_params(alpha, beta, theta)

    tol = SCORE_TOL_PER_OBS * data.n
    s = _score_vec(alpha, theta, beta, data)
    norm = float(np.hypot(*s))
    iterations = 0
    while norm > tol and iterations < max_iter:
        iterations += 1
        jac = _score_jacobian(alpha, theta, beta, data)
        if not np.all(np.isfinite(jac)):
            raise NumericalError("score Jacobian is not finite")
        try:
            step = np.linalg.solve(jac, -s)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("score Jacobian is numerically singular") from exc
        if not np.all(np.isfinite(step)):
            raise NumericalError("score Jacobian is numerically singular")
        cand = _damp_into_region(theta, beta, step)
        if cand is None:
            cand = _ascent_fallback(alpha, theta, beta, s, data)
        if cand is None:
            break  # stalled against the parameter boundary
        theta, beta = cand
        s = _score_vec(alpha, theta, beta, data)
        norm = float(np.hypot(*s))

    converged = norm <= tol
    cov, se_theta, se_beta = _covariance(alpha, theta, beta, data)
    return FitResult(
        params=PlAptParams(alpha=alpha, beta=beta, theta=theta),
        loglik=log_likelihood(alpha, theta, beta, data),
        score_norm=norm,
        iterations=iterations,
        converged=converged,
        stderr_theta=se_theta,
        stderr_beta=se_beta,
        covariance=cov,
    )


def fit_mle_profile(
    alpha_grid: Sequence[float],
    data: Sample,
    init: tuple[float, float] | None = None,
) -> tuple[FitResult, list[FitResult]]:
    """Profile the likelihood over a grid of alpha values.

    Fits (theta, beta) at every alpha and returns the best fit by profile
    log-likelihood (converged fits preferred) together with all per-alpha
    results.
    """
    grid = [float(a) for a in alpha_grid]
    if not grid:
        raise DomainError("alpha grid must be nonempty")
    fits: list[FitResult] = []
    for a in grid:
        fits.append(fit_mle(a, data, init=init))
    converged = [f for f in fits if f.converged]
    pool = converged if converged else fits
    best = max(pool, key=lambda f: f.loglik)
    return best, fits


@dataclass(frozen=True)
class FamilySpec:
    """A candidate family for model comparison.

    kind determines the free parameters: "lindley" frees theta only (with
    beta = 1 + theta, alpha = 1), "pseudo_lindley" frees (theta, beta) at
    alpha = 1, and "pl_apt" frees (theta, beta) at a fixed alpha or over an
    alpha grid (profile likelihood, counted as a third free parameter).
    """

    name: str
    kind: str
    alpha: float = 1.0
    alpha_grid: tuple[float, ...] | None = None


def lindley_family() -> FamilySpec:
    return FamilySpec(name="lindley", kind="lindley")


def pseudo_lindley_family() -> FamilySpec:
    return FamilySpec(name="pseudo_lindley", kind="pseudo_lindley")


def pl_apt_family(alpha: float | None = None, alpha_grid: Sequence[float] | None = None) -> FamilySpec:
    if (alpha is None) == (alpha_grid is None):
        raise DomainError("specify exactly one of alpha or alpha_grid")
    if alpha_grid is not None:
        return FamilySpec(name="pl_apt", kind="pl_apt", alpha_grid=tuple(float(a) for a in alpha_grid))
    return FamilySpec(name="pl_apt", kind="pl_apt", alpha=float(alpha))


@dataclass(frozen=True)
class ModelCompareRow:
    """One line of the model-comparison table."""

    name: str
    n_free: int
    loglik: float
    aic: float
    bic: float
    converged: bool
    params: PlAptParams | None
    error: str | None = None


def _fit_lindley(data: Sample) -> tuple[float, float]:
    # Stationary point of the one-parameter Lindley likelihood has the
    # closed form theta = (-(m-1) + sqrt((m-1)^2 + 8m)) / (2m), m = mean.
    mean = float(np.mean(data.values))
    if mean <= 0.0:
        raise DomainError("degenerate sample: all observations are zero")
    theta = (-(mean - 1.0) + math.sqrt((mean - 1.0) ** 2 + 8.0 * mean)) / (2.0 * mean)
    return theta, log_likelihood(1.0, theta, 1.0 + theta, data)


def _information_criteria(loglik: float, n_free: int, n: int) -> tuple[float, float]:
    """AIC and BIC of a fit with n_free free parameters to n observations."""
    return 2.0 * n_free - 2.0 * loglik, n_free * math.log(n) - 2.0 * loglik


def model_compare(data: Sample, candidates: Sequence[FamilySpec]) -> list[ModelCompareRow]:
    """Fit each candidate family and tabulate loglik, AIC and BIC.

    A candidate that fails to fit contributes a flagged row instead of
    aborting the table.
    """
    rows: list[ModelCompareRow] = []
    for fam in candidates:
        try:
            if fam.kind == "lindley":
                theta, ll = _fit_lindley(data)
                k, params, conv, err = 1, PlAptParams(1.0, 1.0 + theta, theta), True, None
            elif fam.kind == "pseudo_lindley":
                fit = fit_mle(1.0, data)
                k, ll, params, conv = 2, fit.loglik, fit.params, fit.converged
                err = None if conv else "fit did not converge"
            elif fam.kind == "pl_apt":
                if fam.alpha_grid is not None:
                    fit, _ = fit_mle_profile(fam.alpha_grid, data)
                    k = 3
                else:
                    fit = fit_mle(fam.alpha, data)
                    k = 2
                ll, params, conv = fit.loglik, fit.params, fit.converged
                err = None if conv else "fit did not converge"
            else:
                raise DomainError(f"unknown family kind: {fam.kind!r}")
        except Exception as exc:  # a failed candidate must not take down the table
            rows.append(
                ModelCompareRow(
                    name=fam.name,
                    n_free=0,
                    loglik=math.nan,
                    aic=math.nan,
                    bic=math.nan,
                    converged=False,
                    params=None,
                    error=str(exc),
                )
            )
            continue
        aic, bic = _information_criteria(ll, k, data.n)
        rows.append(
            ModelCompareRow(
                name=fam.name,
                n_free=k,
                loglik=ll,
                aic=aic,
                bic=bic,
                converged=conv,
                params=params,
                error=err,
            )
        )
    return rows
