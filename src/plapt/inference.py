"""Maximum-likelihood estimation of (theta, beta) at fixed alpha.

The log-likelihood, its score and its Hessian come from one closed-form
pass over the data (validated against central finite differences in the
test suite).  Newton's method runs on unconstrained coordinates, ending
converged at an interior maximum, at one of the boundaries beta -> 1 and
beta -> inf, or at the iteration limit.  Model comparison against the
nested Lindley and Pseudo-Lindley families reports AIC/BIC per candidate.

All fits run through one private entry point, ``_fit_rows``, which fits
a stack of samples of one size at a list of alphas.  Inside it every
(sample, alpha) pair is a lane of one lockstep Newton engine that fits
its lanes with array operations, one row of data per lane.  ``fit_mle``
fits one sample at one alpha, ``fit_mle_profile`` one sample at a grid,
and ``model_compare`` and the simulation studies the candidates of many
samples at once.  A lane's arithmetic is elementwise and its sums are row
sums, so its result does not depend on the lanes fitted beside it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distribution import ALPHA_ONE_TOL, PlAptParams, Sample, _validate_params
from .exceptions import DomainError, NumericalError, PlaptError

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
# Lanes times observations fitted in lockstep; larger stacks run in chunks.
CHUNK_ELEMENTS = 1 << 16


def _alpha_terms(alpha, n: int) -> tuple:
    # log(alpha) and the log-likelihood constant
    # n*log(log(alpha)/(alpha - 1)) + n*log(alpha) of every lane, or () for
    # lanes at alpha = 1, which skip the alpha-power term (the lanes agree
    # on which side of ALPHA_ONE_TOL they are).
    if abs(alpha[0] - 1.0) < ALPHA_ONE_TOL:
        return ()
    log_a = np.log(alpha)
    return log_a, n * np.log(log_a / (alpha - 1.0)) + n * log_a


def _lane_derivatives(theta, m, inv_b, x, x_sum, log_a=None, ll_a=None):
    # Log-likelihood, score and Hessian of every lane from one pass over its
    # row of x, with m = beta - 1, inv_b = 1/beta and the alpha-power terms
    # of _alpha_terms, if any.  The derivatives come scaled to the log
    # coordinates a = log(theta), v = log(beta - 1): (ll, theta*s_theta,
    # m*s_beta, theta**2*h_theta_theta, theta*m*h_theta_beta,
    # m**2*h_beta_beta), one entry per lane.  With t = theta*x, d = m + t,
    # y = t/d and z = m/d (so y + z = 1), the Pseudo-Lindley part needs the
    # sums of log(d), y, z, y*z and z*z; the alpha-power term
    # log(alpha) * (n - sum((1 + t/beta)*e)), e = exp(-t), and its
    # derivatives need the sums of t**k * e, k = 0..3.  Every sum is a row
    # sum of a reduction over the stack w.
    lanes, n = x.shape
    w = np.empty((6, lanes, n))
    log_d, y, z, yz, zz, t = w
    np.multiply(theta[:, None], x, out=t)
    d = np.add(t, m[:, None], out=zz)
    np.log(d, out=log_d)
    np.divide(t, d, out=y)
    np.divide(m[:, None], d, out=z)
    np.multiply(y, z, out=yz)
    np.multiply(z, z, out=zz)
    s_log_d, s_y, s_z, s_yz, s_zz = np.add.reduce(w[:5], axis=2)
    n = float(n)
    s_t = theta * x_sum
    mb = m * inv_b
    n_mb = n * mb
    ll = n * np.log(theta * inv_b) + (s_log_d - s_t)
    g_a = (n - s_t) + s_y
    g_v = s_z - n_mb
    h_aa = (s_yz - s_y) - n
    h_av = -s_yz
    h_vv = n_mb * mb - s_zz
    if log_a is not None:
        e, te, t2e, t3e = w[:4]
        np.exp(np.negative(t, out=e), out=e)
        np.multiply(t, e, out=te)
        np.multiply(te, t, out=t2e)
        np.multiply(t2e, t, out=t3e)
        e_sums = np.add.reduce(w[:4], axis=2)
        # log(alpha)/beta times the sums of t**k * e, k = 1..3.
        a1, a2, a3 = (log_a * inv_b) * e_sums[1:]
        mb_a1 = mb * a1
        ll += ll_a - (log_a * e_sums[0] + a1)
        g_a += m * a1 + a2
        g_v += mb_a1
        h_aa += (1.0 - m) * a2 - a3
        h_av += mb * (a1 - a2)
        h_vv -= 2.0 * mb * mb_a1
    return ll, g_a, g_v, h_aa, h_av, h_vv


def _theta_beta(theta, m, g_a, g_v, h_aa, h_av, h_vv):
    # Score and Hessian in (theta, beta) from the scaled ones.
    return (g_a / theta, g_v / m), (h_aa / theta**2, h_av / (theta * m), h_vv / m**2)


def _loglik_derivatives(alpha, theta, beta, data):
    # One lane of _lane_derivatives: log-likelihood, score and Hessian in
    # (theta, beta).
    x = data.values[None, :]
    alpha, theta, beta = (np.array([v], dtype=float) for v in (alpha, theta, beta))
    m = beta - 1.0
    ll, *derivs = _lane_derivatives(theta, m, 1.0 / beta, x, x.sum(axis=1), *_alpha_terms(alpha, x.shape[1]))
    (s_t, s_b), (h_tt, h_tb, h_bb) = _theta_beta(theta, m, *derivs)
    return float(ll[0]), np.concatenate([s_t, s_b]), np.array([[h_tt[0], h_tb[0]], [h_tb[0], h_bb[0]]])


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
    """MLE output: estimates, status (see :func:`fit_mle`) and standard errors;
    ``iterations`` counts accepted Newton steps, not rejected candidates."""

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


def _covariance(h_tt, h_tb, h_bb):
    # Inverse of the observed information -H, when it is positive definite.
    det = h_tt * h_bb - h_tb * h_tb
    if not (h_tt < 0.0 and det > 0.0):
        return None, math.nan, math.nan
    cov = np.array([[-h_bb, h_tb], [h_tb, -h_tt]]) / det
    return cov, math.sqrt(-h_bb / det), math.sqrt(-h_tt / det)


def _best(fits: list) -> FitResult:
    # The highest log-likelihood of a profile's fits, preferring fits that
    # reached a maximum or a boundary; raises the first error among them.
    if not fits:
        raise DomainError("alpha grid must be nonempty")
    for fit in fits:
        if isinstance(fit, PlaptError):
            raise fit
    finished = [f for f in fits if f.status != "max_iter"]
    return max(finished or fits, key=lambda f: f.loglik)


_CONVERGED, _BETA_ONE, _BETA_INF, _MAX_ITER, _FAILED = range(5)
_STATUS = ("converged", "boundary_beta_one", "boundary_beta_inf", "max_iter")
_NOT_FINITE = "Hessian of the log-likelihood is not finite or is singular"


def _newton_step(beta, m, g_a, g_v, h_aa, h_av, h_vv):
    # The v-gradient and Newton step in (u, v) of every lane, and the mean
    # eigenvalue and determinant of the Hessian there, from the scaled
    # derivatives of _lane_derivatives.  Those give the derivatives in
    # a = log(theta) and v: the gradient (g_a, g_v) and the Hessian
    # [[h_aa + g_a, h_av], [h_av, h_vv + g_v]].  (u, v) is a shear of
    # (a, v), a = u + log(1 + 1/beta), so da/dv = -k with
    # k = m/(beta*(beta + 1)).
    b1 = beta * (beta + 1.0)
    k = m / b1
    p = h_aa + g_a
    k_p = k * p
    q = h_av - k_p
    r = h_vv + g_v + k * (k_p - 2.0 * h_av) + g_a * k * (m * m - 2.0) / b1
    g_v = g_v - k * g_a
    # The Hessian [[p, q], [q, r]] has eigenvalues c +- |h| with
    # c = (p + r)/2 and h = (p - r)/2 + iq.  Taking each by magnitude
    # (Newton's step where both are negative, a step uphill elsewhere)
    # gives, with the gradient as g = g_u + i*g_v, the closed form
    # step = (M*g - (c/M)*h*conj(g)) / |det|, M = max(|c|, |h|).
    c = 0.5 * (p + r)
    h = 0.5 * (p - r) + 1j * q
    det = p * r - q * q
    big = np.maximum(np.abs(c), np.abs(h))
    g = g_a + 1j * g_v
    step = (big * g - c / big * h * g.conj()) / np.abs(det)
    return g_v, step.real, step.imag, c, det


def _fit_chunk(x, alpha, theta, beta, max_iter):
    # Newton's method in lockstep on the lanes of one chunk, all on one side
    # of the alpha = 1 switch; x holds one row of data per lane and alpha,
    # theta and beta one entry per lane.  A lane's state is a column of
    # (exp(u), exp(v), theta, beta, 1/beta) and its scaled derivatives.
    # Every turn tries one candidate per live lane: Newton's step, at most
    # _MAX_STEP long, halved once for each candidate the lane has had
    # rejected since its last accepted step.  Returns the final states (one
    # column per lane), status codes and accepted-step counts.
    n = x.shape[1]
    score_tol, gain_tol = SCORE_TOL_PER_OBS * n, _BOUNDARY_GAIN_PER_OBS * n
    data = (x, x.sum(axis=1), *_alpha_terms(alpha, n))  # per-lane inputs of a pass
    m, inv_b = beta - 1.0, 1.0 / beta
    state = np.array((theta / (1.0 + inv_b), m, theta, beta, inv_b, *_lane_derivatives(theta, m, inv_b, *data)))
    final = np.empty_like(state)
    status = np.empty(alpha.size, dtype=int)
    iterations = np.empty(alpha.size, dtype=int)
    live = np.arange(alpha.size)  # the lane of each column of state
    counts = np.zeros((2, alpha.size), dtype=int)  # accepted steps, halvings since the last
    while live.size:
        _, m, theta, beta, _, _, g_a, g_v, h_aa, h_av, h_vv = state
        accepted, halvings = counts
        g_uv, step_u, step_v, c, det = _newton_step(beta, m, g_a, g_v, h_aa, h_av, h_vv)
        longest = np.maximum(np.abs(step_u), np.abs(step_v))
        gain = g_a * step_u + g_uv * step_v  # predicted by the quadratic model
        converged = (longest <= _STEP_TOL) & (np.hypot(g_a / theta, g_v / m) <= score_tol)
        # On a concave model (c < 0 < det), a step in v that follows the
        # beta-score without shrinking heads for a boundary.
        boundary = (
            (gain <= gain_tol)
            & (c < 0.0)
            & (det > 0.0)
            & (np.abs(step_v) >= _STEP_SHRUNK)
            & (step_v * g_v > 0.0)
        )
        failed = ~(longest < np.inf)
        # After _MAX_HALVINGS rejections no step keeps the log-likelihood
        # from falling.
        stop = converged | boundary | failed | (accepted == max_iter) | (halvings == _MAX_HALVINGS)
        if np.count_nonzero(stop):
            code = np.where(boundary, np.where(g_v > 0.0, _BETA_INF, _BETA_ONE), _MAX_ITER)
            code[converged] = _CONVERGED
            code[failed] = _FAILED
            done = live[stop]
            final[:, done] = state[:, stop]
            status[done], iterations[done] = code[stop], accepted[stop]
            keep = ~stop
            live, state, counts = live[keep], state[:, keep], counts[:, keep]
            data = tuple(v[keep] for v in data)
            if not live.size:
                break
            step_u, step_v, longest = step_u[keep], step_v[keep], longest[keep]
        phi, m, ll = state[0], state[1], state[5]
        scale = np.ldexp(np.minimum(1.0, _MAX_STEP / longest), -counts[1])
        c_m = m * np.exp(scale * step_v)
        c_beta = 1.0 + c_m
        c_inv_b = 1.0 / c_beta
        c_phi = phi * np.exp(scale * step_u)
        c_theta = c_phi * (1.0 + c_inv_b)
        cand = np.array((c_phi, c_m, c_theta, c_beta, c_inv_b, *_lane_derivatives(c_theta, c_m, c_inv_b, *data)))
        up = cand[5] >= ll - _LOGLIK_RTOL * np.abs(ll)
        np.copyto(state, cand, where=up)
        counts[0] += up
        counts[1] = np.where(up, 0, counts[1] + 1)
    return final, status, iterations


def _chunks(count: int, n: int) -> list[range]:
    """Consecutive runs of ``count`` rows of ``n`` observations, at most
    ``CHUNK_ELEMENTS`` observations a run (one row if a row is longer)."""
    size = max(1, CHUNK_ELEMENTS // n)
    return [range(k, min(k + size, count)) for k in range(0, count, size)]


def _params_error(alpha: float, beta: float, theta: float) -> DomainError | None:
    try:
        _validate_params(alpha, beta, theta)
    except DomainError as exc:
        return exc
    return None


def _fit_rows(x: np.ndarray, alphas: Sequence[float], init=None, max_iter: int = MAX_ITER) -> list[list]:
    """Fit every row of ``x`` at every alpha, each fit a lane of the
    lockstep engine.

    ``x`` is a stack of sorted samples of one size.  Entry ``[r][j]`` of
    the result is the ``FitResult`` of ``fit_mle(alphas[j], Sample(x[r]),
    init, max_iter=max_iter)``, or the ``PlaptError`` it raises.  Lanes run
    in chunks (``_chunks``) on one side of the alpha = 1 switch.
    """
    alphas = [float(a) for a in alphas]
    n = x.shape[1]
    out: list[list] = [[None] * len(alphas) for _ in x]
    if not alphas:  # the callers' _best names an empty grid, before init is read
        return out
    # fit_mle's checks, each made once, in its order: the row, then alpha,
    # then the start point.  (beta, theta) = (2, 1) and alpha = 1 are valid.
    alpha_errors = [_params_error(a, 2.0, 1.0) for a in alphas]
    lanes: dict[bool, list] = {}  # (row, alpha index, start) by side of alpha = 1
    for r, mean in enumerate(x.mean(axis=1).tolist()):
        row_error = start_error = None
        if n < 2:
            row_error = DomainError("fitting requires at least two observations")
        elif mean <= 0.0:
            row_error = DomainError("degenerate sample: all observations are zero")
        else:
            theta, beta = (1.0 / mean, 2.0) if init is None else (float(init[0]), float(init[1]))
            start_error = _params_error(1.0, beta, theta)
            if init is None and theta == math.inf:
                start_error = DomainError(f"sample mean {mean!r} is too small to start a fit from")
        for j, alpha in enumerate(alphas):
            out[r][j] = row_error or alpha_errors[j] or start_error
            if out[r][j] is None:
                lanes.setdefault(abs(alpha - 1.0) < ALPHA_ONE_TOL, []).append((r, j, theta, beta))
    for group in lanes.values():
        for chunk in _chunks(len(group), n):
            rows, cols, theta, beta = zip(*group[chunk.start : chunk.stop])
            alpha = np.array([alphas[j] for j in cols])
            final, status, iterations = _fit_chunk(x[list(rows)], alpha, np.array(theta), np.array(beta), int(max_iter))
            _, m, theta, beta, _, ll, *derivs = final
            (s_t, s_b), hess = _theta_beta(theta, m, *derivs)
            values = (theta, beta, ll, s_t, s_b, *hess, status, iterations)
            for r, j, *vals in zip(rows, cols, *(v.tolist() for v in values)):
                theta_i, beta_i, ll_i, s_t_i, s_b_i, h_tt, h_tb, h_bb, code, its = vals
                if code == _FAILED:
                    out[r][j] = NumericalError(_NOT_FINITE)
                    continue
                cov, se_theta, se_beta = _covariance(h_tt, h_tb, h_bb)
                out[r][j] = FitResult(
                    params=PlAptParams(alpha=alphas[j], beta=beta_i, theta=theta_i),
                    loglik=ll_i,
                    score_norm=math.hypot(s_t_i, s_b_i),
                    iterations=its,
                    status=_STATUS[code],
                    stderr_theta=se_theta,
                    stderr_beta=se_beta,
                    covariance=cov,
                )
    return out


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
    fixed beta tends to its limit as 1 + 1/beta.  Each step takes the
    closed-form eigen-decomposition of the 2x2 Hessian in (u, v), with
    every eigenvalue by magnitude: Newton's step where the Hessian is
    negative definite, a step uphill elsewhere.  The fit runs on the
    lockstep engine of profiles and simulation studies and gives the same
    result alone as beside other fits.

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
        or "max_iter" (neither within ``max_iter`` accepted steps, or no step
        kept the log-likelihood from falling).  None of these raises.

    Raises
    ------
    NumericalError
        If the Hessian of the log-likelihood is not finite or is singular.
    """
    return _best(_fit_rows(data.values[None, :], [alpha], init, max_iter)[0])


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
    fits = _fit_rows(data.values[None, :], alpha_grid, init)[0]
    return _best(fits), fits


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


def _lindley_rows(x: np.ndarray, means: np.ndarray) -> list:
    # Theta and log-likelihood of the one-parameter Lindley fit to every row
    # (or its error): the stationary point has the closed form
    # theta = (-(m-1) + sqrt((m-1)^2 + 8m)) / (2m), m = mean.
    ok = means > 0.0
    m = means[ok]
    theta = (-(m - 1.0) + np.sqrt((m - 1.0) ** 2 + 8.0 * m)) / (2.0 * m)
    xs = x[ok]
    ll = _lane_derivatives(theta, theta, 1.0 / (1.0 + theta), xs, xs.sum(axis=1))[0]
    fits = iter(zip(theta.tolist(), ll.tolist()))
    return [next(fits) if good else DomainError("degenerate sample: all observations are zero") for good in ok.tolist()]


def _information_criteria(loglik: float, n_free: int, n: int) -> tuple[float, float]:
    """AIC and BIC of a fit with n_free free parameters to n observations."""
    return 2.0 * n_free - 2.0 * loglik, n_free * math.log(n) - 2.0 * loglik


def _compare_row(name: str, n_free: int, n: int, outcome) -> ModelCompareRow:
    # The table line of one candidate: outcome is a FitResult, a Lindley
    # (theta, loglik) pair or the exception that stopped the fit.
    if isinstance(outcome, Exception):
        nan = math.nan
        return ModelCompareRow(name, 0, loglik=nan, aic=nan, bic=nan, converged=False, params=None, error=str(outcome))
    if isinstance(outcome, FitResult):
        ll, params, conv = outcome.loglik, outcome.params, outcome.converged
        err = "fit did not converge" if outcome.status == "max_iter" else None
    else:
        theta, ll = outcome
        params, conv, err = PlAptParams(1.0, 1.0 + theta, theta), True, None
    aic, bic = _information_criteria(ll, n_free, n)
    return ModelCompareRow(
        name=name, n_free=n_free, loglik=ll, aic=aic, bic=bic, converged=conv, params=params, error=err
    )


def _model_compare_rows(x: np.ndarray, candidates: Sequence[FamilySpec]) -> list[list[ModelCompareRow]]:
    """:func:`model_compare` for every row of x, a stack of sorted samples
    of one size; the alphas of all candidates are fitted in one call."""
    n_rows, n = x.shape
    alphas: list[float] = []
    plans = []  # per candidate: the free parameters and its slice of alphas, or an outcome per row
    for fam in candidates:
        try:
            if fam.kind == "lindley":
                plans.append((1, _lindley_rows(x, x.mean(axis=1))))
                continue
            if fam.kind == "pseudo_lindley":
                n_free, grid = 2, (1.0,)
            elif fam.kind != "pl_apt":
                raise DomainError(f"unknown family kind: {fam.kind!r}")
            elif fam.alpha_grid is not None:
                n_free, grid = 3, fam.alpha_grid
            else:
                n_free, grid = 2, (fam.alpha,)
            grid = [float(a) for a in grid]
            plans.append((n_free, slice(len(alphas), len(alphas) + len(grid))))
            alphas += grid
        except Exception as exc:  # a failed candidate must not take down the table
            plans.append((0, [exc] * n_rows))
    fits = _fit_rows(x, alphas)
    table = []
    for r in range(n_rows):
        row = []
        for fam, (n_free, outcomes) in zip(candidates, plans):
            if isinstance(outcomes, slice):
                try:
                    outcome = _best(fits[r][outcomes])
                except PlaptError as exc:
                    outcome = exc
            else:
                outcome = outcomes[r]
            row.append(_compare_row(fam.name, n_free, n, outcome))
        table.append(row)
    return table


def model_compare(data: Sample, candidates: Sequence[FamilySpec]) -> list[ModelCompareRow]:
    """Fit each candidate family and tabulate loglik, AIC and BIC.

    A candidate that fails to fit, or whose fit stops at the iteration
    limit, contributes a flagged row instead of aborting the table; a fit on
    a boundary is scored with its last iterate.
    """
    return _model_compare_rows(data.values[None, :], candidates)[0]
