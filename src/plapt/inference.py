"""Maximum-likelihood estimation of (theta, beta) at fixed alpha.

The log-likelihood, its score and its Hessian come from one closed-form
pass over the data (validated against central finite differences in the
test suite).  Newton's method runs on unconstrained coordinates, ending
converged at an interior maximum, at one of the boundaries beta -> 1 and
beta -> inf, or at the iteration limit.  Model comparison against the
nested Lindley and Pseudo-Lindley families reports AIC/BIC per candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distribution import ALPHA_ONE_TOL, PlAptParams, Sample, _validate_params
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
_STEP_TOL = 1e-6  # and Newton's step is shorter in both coordinates
_BOUNDARY_GAIN_PER_OBS = 1e-10  # largest gain a boundary step may still predict
_STEP_SHRUNK = 0.1  # a shorter step in log(beta - 1) is not heading for a boundary
MAX_ITER = 200
_MAX_HALVINGS = 30
_MAX_STEP = 4.0
# Near a maximum a Newton step gains less than the rounding error of the sum.
_LOGLIK_RTOL = 1e-13


def _loglik_derivatives(alpha, theta, beta, data):
    # Log-likelihood, score and Hessian in (theta, beta) from one pass.  With
    # t = theta*x, d = beta - 1 + t and e = exp(-t), the alpha-power term
    # log(alpha) * sum(1 - (1 + t/beta)*e) and its derivatives are sums of
    # x*e*t**k, k = 0, 1, 2.
    x = data.values
    n = data.n
    t = theta * x
    d = beta - 1.0 + t
    q = 1.0 / d
    xq = x * q
    ll = n * (math.log(theta) - math.log(beta)) + float(np.log(d).sum() - t.sum())
    s_t = n / theta - float(x.sum()) + float(xq.sum())
    s_b = -n / beta + float(q.sum())
    h_tt = -n / theta**2 - float(xq @ xq)
    h_tb = -float(xq @ q)
    h_bb = n / beta**2 - float(q @ q)
    if abs(alpha - 1.0) >= ALPHA_ONE_TOL:
        log_a = math.log(alpha)
        e = np.exp(-t)
        xe = x * e
        s0, s1, s2 = float(xe.sum()), float(xe @ t), float((xe * t) @ t)
        ll += n * math.log(log_a / (alpha - 1.0)) + log_a * (n - float(e.sum()) - theta * s0 / beta)
        s_t += log_a * ((beta - 1.0) * s0 + s1) / beta
        s_b += log_a * theta * s0 / beta**2
        h_tt += log_a * ((2.0 - beta) * s1 - s2) / (beta * theta)
        h_tb += log_a * (s0 - s1) / beta**2
        h_bb -= 2.0 * log_a * theta * s0 / beta**3
    return ll, np.array([s_t, s_b]), np.array([[h_tt, h_tb], [h_tb, h_bb]])


def log_likelihood(alpha: float, theta: float, beta: float, data: Sample) -> float:
    """Log-likelihood of the data under parameters (alpha, theta, beta).

    For alpha away from 1 the constant log(log(alpha)) - log(alpha - 1) is
    evaluated jointly as log(log(alpha)/(alpha - 1)), which is real and
    finite on both sides of alpha = 1.
    """
    _validate_params(alpha, beta, theta)
    return _loglik_derivatives(alpha, theta, beta, data)[0]


def score(alpha: float, theta: float, beta: float, data: Sample) -> tuple[float, float]:
    """Partial derivatives of :func:`log_likelihood` in (theta, beta)."""
    _validate_params(alpha, beta, theta)
    d_theta, d_beta = _loglik_derivatives(alpha, theta, beta, data)[1]
    return float(d_theta), float(d_beta)


@dataclass(frozen=True, eq=False)
class FitResult:
    """MLE output: estimates, status (see :func:`fit_mle`) and standard errors."""

    params: PlAptParams
    loglik: float
    score_norm: float
    iterations: int
    status: str
    stderr_theta: float
    stderr_beta: float
    covariance: np.ndarray | None  # 2x2 over (theta, beta) when positive definite

    @property
    def converged(self) -> bool:
        """True at an interior maximum."""
        return self.status == "converged"


def _covariance(hess):
    # Inverse of the observed information -H, when it is positive definite.
    (h_tt, h_tb), (_, h_bb) = hess
    det = h_tt * h_bb - h_tb * h_tb
    if not (h_tt < 0.0 and det > 0.0):
        return None, math.nan, math.nan
    cov = np.array([[-h_bb, h_tb], [h_tb, -h_tt]]) / det
    return cov, math.sqrt(-h_bb / det), math.sqrt(-h_tt / det)


def fit_mle(
    alpha: float,
    data: Sample,
    init: tuple[float, float] | None = None,
    *,
    max_iter: int = MAX_ITER,
) -> FitResult:
    """Fit (theta, beta) at fixed alpha by Newton's method on
    u = log theta + log(beta/(beta + 1)) and v = log(beta - 1).

    Every iterate has theta > 0 and beta > 1.  The shift of log theta keeps
    the likelihood's ridge straight as beta -> inf, where the best theta at
    fixed beta tends to its limit as 1 + 1/beta.

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
        ``status`` is "converged" (an interior maximum: score norm at most
        1e-8 * n, Newton's step below 1e-6), "boundary_beta_one" or
        "boundary_beta_inf" (the beta-score keeps its sign as beta -> 1 or
        beta -> inf, the alpha-power exponential limit: Newton's step in v
        follows it without shrinking and predicts a gain below 1e-10 * n),
        or "max_iter" (neither within ``max_iter`` iterations, or no step
        kept the log-likelihood from falling).  None of these raises.

    Raises
    ------
    NumericalError
        If the Hessian of the log-likelihood is not finite or is singular.
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

    ll, grad, hess = _loglik_derivatives(alpha, theta, beta, data)
    status = None
    iterations = 0
    while True:
        # Chain rule to (u, v): theta = exp(u)*(1 + 1/beta), beta = 1 + exp(v).
        m = beta - 1.0
        t_v = -theta * m / (beta * (beta + 1.0))  # d theta / dv
        jac = np.array([[theta, t_v], [0.0, m]])
        g = jac.T @ grad
        h = jac.T @ hess @ jac + grad[0] * np.array([[theta, t_v], [t_v, t_v * (2.0 - beta) / beta]])
        h[1, 1] += grad[1] * m
        # Eigenvalues of h taken by magnitude: Newton's step or a step uphill.
        w, vecs = np.linalg.eigh(h)
        step = vecs @ ((vecs.T @ g) / np.abs(w))
        if not np.all(np.isfinite(step)):
            raise NumericalError("Hessian of the log-likelihood is not finite or is singular")
        # On a concave model, a step in v that follows the beta-score without
        # shrinking heads for a boundary.
        heads_out = w[1] < 0.0 and abs(step[1]) >= _STEP_SHRUNK and step[1] * grad[1] > 0.0
        if math.hypot(*grad) <= SCORE_TOL_PER_OBS * data.n and max(abs(step)) <= _STEP_TOL:
            status = "converged"
        elif heads_out and g @ step <= _BOUNDARY_GAIN_PER_OBS * data.n:
            status = "boundary_beta_inf" if grad[1] > 0.0 else "boundary_beta_one"
        if status is not None or iterations == max_iter:
            break
        scale = min(1.0, _MAX_STEP / max(abs(step)))
        phi = theta * beta / (beta + 1.0)
        for _ in range(_MAX_HALVINGS):
            cand_beta = 1.0 + m * math.exp(scale * step[1])
            cand_theta = phi * math.exp(scale * step[0]) * (1.0 + 1.0 / cand_beta)
            cand = _loglik_derivatives(alpha, cand_theta, cand_beta, data)
            if cand[0] >= ll - _LOGLIK_RTOL * abs(ll):
                break
            scale *= 0.5
        else:
            break  # no step keeps the log-likelihood from falling
        theta, beta = cand_theta, cand_beta
        ll, grad, hess = cand
        iterations += 1

    cov, se_theta, se_beta = _covariance(hess)
    return FitResult(
        params=PlAptParams(alpha=alpha, beta=beta, theta=theta),
        loglik=ll,
        score_norm=math.hypot(*grad),
        iterations=iterations,
        status=status or "max_iter",
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
    log-likelihood (fits that reached a maximum or a boundary preferred)
    together with all per-alpha results.
    """
    grid = [float(a) for a in alpha_grid]
    if not grid:
        raise DomainError("alpha grid must be nonempty")
    fits: list[FitResult] = []
    for a in grid:
        fits.append(fit_mle(a, data, init=init))
    finished = [f for f in fits if f.status != "max_iter"]
    best = max(finished or fits, key=lambda f: f.loglik)
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

    A candidate that fails to fit, or whose fit stops at the iteration
    limit, contributes a flagged row instead of aborting the table; a fit on
    a boundary is scored with its last iterate.
    """
    rows: list[ModelCompareRow] = []
    for fam in candidates:
        try:
            if fam.kind == "lindley":
                theta, ll = _fit_lindley(data)
                k, params, conv, err = 1, PlAptParams(1.0, 1.0 + theta, theta), True, None
            else:
                if fam.kind == "pseudo_lindley":
                    fit, k = fit_mle(1.0, data), 2
                elif fam.kind != "pl_apt":
                    raise DomainError(f"unknown family kind: {fam.kind!r}")
                elif fam.alpha_grid is not None:
                    fit, k = fit_mle_profile(fam.alpha_grid, data)[0], 3
                else:
                    fit, k = fit_mle(fam.alpha, data), 2
                ll, params, conv = fit.loglik, fit.params, fit.converged
                err = "fit did not converge" if fit.status == "max_iter" else None
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
