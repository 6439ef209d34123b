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
sums, so its result does not depend on the lanes fitted beside it.  Each
distinct (sample, alpha) pair is one lane; the lanes at alpha = 1 trail,
so that the others alone evaluate the alpha-power term.  ``_fit_rows``
returns the fits as columns over (sample, alpha) (``_Fits``), with each
fit's error beside them, and ``_Fits.outcomes`` names each fit's status
and message.  Only ``fit_mle``, ``fit_mle_profile`` and ``model_compare``
build ``FitResult`` and ``ModelCompareRow`` objects from them; the
studies read the columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distribution import PlAptParams, Sample, _integer, _log_ratio, _param_error
from .exceptions import DomainError, NumericalError, PlaptError
from .special_functions import _TINY

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

SCORE_TOL_PER_OBS = 1e-8  # converged when ||score||_2 <= 1e-8 * n, on data scaled to a maximum in [0.5, 1)
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
    # n*log(log(alpha)/(alpha - 1)) + n*log(alpha) of every lane, both 0 at alpha = 1.
    log_a = np.log(alpha)
    return log_a, n * np.log(_log_ratio(alpha)) + n * log_a


def _lane_derivatives(theta, m, inv_b, x, x_sum, log_a, ll_a):
    # Log-likelihood, score and Hessian of every lane from one pass over its
    # row of x, with m = beta - 1, inv_b = 1/beta and the alpha-power terms
    # log_a, ll_a of _alpha_terms.  The derivatives come scaled to the log
    # coordinates a = log(theta), v = log(beta - 1): (ll, theta*s_theta,
    # m*s_beta, theta**2*h_theta_theta, theta*m*h_theta_beta,
    # m**2*h_beta_beta), one entry per lane.  With t = theta*x, d = m + t,
    # y = t/d and z = m/d (so y + z = 1), the Pseudo-Lindley part needs the
    # sums of log(d), y, z, y*z and z*z; the alpha-power term
    # log(alpha) * (n - sum((1 + t/beta)*e)), e = exp(-t), and its
    # derivatives need the sums of t**j * e, j = 0..3.  Every sum is a row
    # sum of a reduction over the stack w.  The alpha-power part runs, through
    # views, on the lanes up to the last one off alpha = 1 only: a lane at
    # alpha = 1 (log_a = ll_a = 0) among them adds exact zeros, and those
    # after it skip the part.
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
    if (off_one := log_a.nonzero()[0]).size:
        k = int(off_one[-1]) + 1
        e, te, t2e, t3e = w[:4, :k]
        t, log_a, ll_a, inv_b, m, mb = t[:k], log_a[:k], ll_a[:k], inv_b[:k], m[:k], mb[:k]
        np.exp(np.negative(t, out=e), out=e)
        np.multiply(t, e, out=te)
        np.multiply(te, t, out=t2e)
        np.multiply(t2e, t, out=t3e)
        e_sums = np.add.reduce(w[:4, :k], axis=2)
        # log(alpha)/beta times the sums of t**j * e, j = 1..3.
        a1, a2, a3 = (log_a * inv_b) * e_sums[1:]
        mb_a1 = mb * a1
        ll[:k] += ll_a - (log_a * e_sums[0] + a1)
        g_a[:k] += m * a1 + a2
        g_v[:k] += mb_a1
        h_aa[:k] += (1.0 - m) * a2 - a3
        h_av[:k] += mb * (a1 - a2)
        h_vv[:k] -= 2.0 * mb * mb_a1
    return ll, g_a, g_v, h_aa, h_av, h_vv


def _theta_beta(theta, m, g_a, g_v, h_aa, h_av, h_vv):
    # Score and Hessian in (theta, beta) from the scaled ones.
    return (g_a / theta, g_v / m), (h_aa / theta**2, h_av / (theta * m), h_vv / m**2)


def _loglik_derivatives(alpha, theta, beta, data):
    # theta, m = beta - 1 and one lane of _lane_derivatives, at parameters that
    # PlAptParams validates; no theta**2 is formed, which may leave the float range.
    p, x = PlAptParams(alpha, beta, theta), data.values[None, :]
    alpha, theta, beta = (np.array([v]) for v in (p.alpha, p.theta, p.beta))
    m = beta - 1.0
    return theta, m, _lane_derivatives(theta, m, 1.0 / beta, x, x.sum(axis=1), *_alpha_terms(alpha, x.shape[1]))


def log_likelihood(alpha: float, theta: float, beta: float, data: Sample) -> float:
    """Log-likelihood of the data under parameters (alpha, theta, beta).

    The constant log(log(alpha)) - log(alpha - 1) is evaluated jointly as
    log(log(alpha)/(alpha - 1)), which is real and finite on both sides of
    alpha = 1 and 0 at alpha = 1, its limit.
    """
    return float(_loglik_derivatives(alpha, theta, beta, data)[2][0][0])


def score(alpha: float, theta: float, beta: float, data: Sample) -> tuple[float, float]:
    """Partial derivatives of :func:`log_likelihood` in (theta, beta)."""
    theta, m, (_, g_a, g_v, *_) = _loglik_derivatives(alpha, theta, beta, data)
    return float(g_a[0] / theta[0]), float(g_v[0] / m[0])


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


# A singular, indefinite or infinite Hessian gives NaN or inf entries, and
# no warning, as in Python floats.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _covariance(h_tt, h_tb, h_bb, e):
    # The standard errors and the inverse of the observed information -H of
    # fits at scale 2**e, theta scaled back by 2**-e (FitResult's field
    # order), one entry per fit: a (fits, 2, 2) array of inverses.  All are
    # NaN where -H is not positive definite.  Where it is, the off-diagonal
    # h_tb/det is never NaN, so an inverse all NaN marks the others.
    det = h_tt * h_bb - h_tb * h_tb
    definite = (h_tt < 0.0) & (det > 0.0)
    cov = np.ldexp(np.array([[-h_bb, h_tb], [h_tb, -h_tt]]) / det, np.array([[-2 * e, -e], [-e, 0 * e]]))
    stderrs = np.ldexp(np.sqrt(-h_bb / det), -e), np.sqrt(-h_tt / det)
    return (*(np.where(definite, v, math.nan) for v in stderrs), np.moveaxis(np.where(definite, cov, math.nan), -1, 0))


def _best(status, loglik):
    # The column of each row's chosen fit in a (rows, alphas) grid of one
    # profile: that of its first error if it has one, else the highest
    # log-likelihood, preferring fits that reached a maximum or a boundary,
    # the first maximal one as max() picks it (NaN included).
    if not status.shape[1]:
        raise DomainError("alpha grid must be nonempty")
    failed = status == _FAILED
    finished = status != _MAX_ITER
    candidate = np.where(finished.any(axis=1, keepdims=True), finished, True)
    best = candidate.argmax(axis=1)
    rows = np.arange(len(best))
    for j in range(1, status.shape[1]):
        best = np.where(candidate[:, j] & (loglik[:, j] > loglik[rows, best]), j, best)
    return np.where(failed.any(axis=1), failed.argmax(axis=1), best)


_CONVERGED, _BETA_ONE, _BETA_INF, _MAX_ITER, _FAILED = range(5)
# The status name and message of each code (a raised fit's message is its error's text)
_STATUS = np.array(("converged", "boundary_beta_one", "boundary_beta_inf", "max_iter", None), object)
_MESSAGE = np.array((None, None, None, "fit did not converge", None), object)
_NOT_FINITE = "Hessian of the log-likelihood is not finite or is singular"
_ZERO_SAMPLE = "degenerate sample: all observations are zero"


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


# A lane whose step is not finite fails and a non-finite candidate is rejected: no flag warns.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _fit_chunk(x, alpha, theta, beta, max_iter):
    # Newton's method in lockstep on the lanes of one chunk, those at alpha = 1
    # last (dropping finished lanes keeps that order); x holds one
    # row of data per lane, alpha, theta and beta one entry per lane.  A
    # lane's state is a column of (exp(u), exp(v), theta, beta, 1/beta) and
    # its scaled derivatives.  Every turn tries one candidate per live lane:
    # Newton's step, at most _MAX_STEP long, halved once for each candidate
    # the lane has had rejected since its last accepted step.  Returns the
    # final states (one column per lane), status codes and accepted steps.
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
    """Consecutive runs of ``count`` rows of ``n`` values, at most
    ``CHUNK_ELEMENTS`` values a run (one row if a row is longer)."""
    size = max(1, CHUNK_ELEMENTS // n)
    return [range(k, min(k + size, count)) for k in range(0, count, size)]


@dataclass(frozen=True, eq=False)
class _Fits:
    """The fits of a stack of rows at a list of alphas, as columns: entry
    ``[r, j]`` of each (rows, alphas) array is the fit of row r at
    ``alphas[j]``, in the units of the rows.  An entry whose fit raised
    holds the ``PlaptError`` in ``error``, status ``_FAILED``, NaN values and
    0 iterations; the standard errors and the (rows, alphas, 2, 2)
    ``covariance`` are NaN where -H is not positive definite."""

    alphas: list
    theta: np.ndarray
    beta: np.ndarray
    loglik: np.ndarray
    stderr_theta: np.ndarray
    stderr_beta: np.ndarray
    score_theta: np.ndarray
    score_beta: np.ndarray
    covariance: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    error: np.ndarray  # objects: a PlaptError or None

    def outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """Each entry's status name (None where its fit raised) and message
        (the error's text, "fit did not converge" at the iteration limit,
        else None), as two (rows, alphas) object arrays."""
        messages = _MESSAGE[self.status]
        raised = np.not_equal(self.error, None)
        messages[raised] = [str(err) for err in self.error[raised]]
        return _STATUS[self.status], messages

    def result(self, r: int, j: int) -> FitResult:
        """The ``FitResult`` of entry ``[r, j]``, or raise its error."""
        if (error := self.error[r, j]) is not None:
            raise error
        columns = (self.theta, self.beta, self.loglik, self.stderr_theta, self.stderr_beta)
        theta, beta, loglik, stderr_theta, stderr_beta = (v[r, j].item() for v in columns)
        norm = math.hypot(self.score_theta[r, j].item(), self.score_beta[r, j].item())
        cov = self.covariance[r, j]
        return FitResult(
            PlAptParams(self.alphas[j], beta, theta), loglik, norm, self.iterations[r, j].item(),
            _STATUS[self.status[r, j]], stderr_theta, stderr_beta, None if np.isnan(cov).all() else cov.copy(),
        )


def _fit_rows(x: np.ndarray, alphas: Sequence[float], init=None, max_iter: int = MAX_ITER) -> _Fits:
    """Fit every row of ``x`` at every alpha, each fit a lane of the
    lockstep engine, and return the fits as columns (``_Fits``).

    ``x`` is a stack of nonnegative rows of one size, each sorted
    ascending; a row may end in inf, a study's quantile beyond the float
    range, and is then flagged as ``Sample`` flags it.  Entry ``[r, j]`` of
    the result holds what ``fit_mle(alphas[j], Sample(x[r]), init,
    max_iter=max_iter)`` returns or raises (``_Fits.result`` builds that
    ``FitResult``); a repeated alpha is fitted once and its entries hold
    that fit.  All lanes run in one run of chunks (``_chunks``), those at
    alpha = 1 last, which skip the alpha-power term.  No object is built
    per fit: only ``fit_mle``, ``fit_mle_profile`` and ``model_compare``
    build them, from the columns.

    Each row is fitted as y = x * 2**-e, its maximum in [0.5, 1), and the
    fit is scaled back to the units of x: a fit to x * 2**k is the fit to x
    with theta times 2**-k, bit for bit, while x * 2**k stays normal.
    """
    max_iter = _integer("max_iter", max_iter, 0)
    if init is not None and len(init) != 2:
        raise DomainError(f"init must be a pair (theta0, beta0), got {init!r}")
    alphas = [float(a) for a in alphas]
    lane_alphas: dict = {}  # one lane column per distinct alpha
    col = np.array([lane_alphas.setdefault(a, len(lane_alphas)) for a in alphas], int)
    count, n = x.shape
    shape = (count, len(lane_alphas))
    e = np.frexp(x[:, -1])[1]
    y = np.ldexp(x, -e[:, None])
    init = None if init is None else (float(init[0]), float(init[1]))
    with np.errstate(over="ignore", divide="ignore"):  # zero rows start none
        theta0 = np.ldexp(init[0], e) if init else 1.0 / y.mean(axis=1)
    # fit_mle's checks, each made once, in its order: Sample's finiteness
    # (a sorted row is finite where its last value is), too few or all-zero
    # observations, alpha, the start point.  The last is written first, so
    # that each earlier check overwrites it.
    errors = np.full(shape, None, object)
    if init and (start_error := _param_error("beta", init[1]) or _param_error("theta", init[0])):
        errors[:] = start_error
    elif init:  # theta0 at each row's scale
        off_scale = ~((_TINY <= theta0) & (theta0 < math.inf))
        for r, e_r in zip(np.flatnonzero(off_scale).tolist(), e[off_scale].tolist()):
            errors[r] = DomainError(
                f"start point {init}: theta0 * 2**{e_r} leaves the normal float range at the sample's scale 2**{e_r}"
            )
    for k, alpha in enumerate(lane_alphas):
        if error := _param_error("alpha", alpha):
            errors[:, k] = error
    for r in np.flatnonzero(x[:, -1] == 0.0).tolist():
        errors[r] = DomainError(_ZERO_SAMPLE)
    if n < 2:
        errors[:] = DomainError("fitting requires at least two observations")
    for r in np.flatnonzero(~np.isfinite(x[:, -1])).tolist():
        errors[r] = DomainError("sample values must be finite")
    # The lanes in row order, each row's alphas in grid order, those at alpha = 1 last.
    lane_r, lane_k = np.nonzero(np.equal(errors, None))
    lane_alpha = np.array(list(lane_alphas))[lane_k]
    order = np.argsort(lane_alpha == 1.0, kind="stable")
    lane_r, lane_k, lane_alpha = lane_r[order], lane_k[order], lane_alpha[order]
    final = np.empty((11, lane_r.size))
    codes, steps = np.empty((2, lane_r.size), int)
    for chunk in _chunks(lane_r.size, n):
        c, rows = slice(chunk.start, chunk.stop), lane_r[chunk.start : chunk.stop]
        beta0 = np.full(rows.size, init[1] if init else 2.0)
        final[:, c], codes[c], steps[c] = _fit_chunk(y[rows], lane_alpha[c], theta0[rows], beta0, max_iter)
    failed = codes == _FAILED
    for r, k in zip(lane_r[failed].tolist(), lane_k[failed].tolist()):
        errors[r, k] = NumericalError(_NOT_FINITE)
    done = ~failed
    lane_r, lane_k, codes, steps, e_fit = lane_r[done], lane_k[done], codes[done], steps[done], e[lane_r[done]]
    _, m, theta, beta, _, ll, *derivs = final[:, done]
    (s_t, s_b), hess = _theta_beta(theta, m, *derivs)
    with np.errstate(over="ignore"):  # a score or covariance entry beyond the float range is inf
        theta_x = np.ldexp(theta, -e_fit)
        stderr_theta, stderr_beta, cov = _covariance(*hess, e_fit)
        # in the field order of _Fits
        floats = np.array(
            (theta_x, beta, ll - (n * math.log(2.0)) * e_fit, stderr_theta, stderr_beta, np.ldexp(s_t, e_fit), s_b)
        )
    # The fitted parameters by PlAptParams' rule, _param_error's as one mask;
    # only the lanes that fail it have their message formatted.
    theta_ok = (theta_x > 0.0) & (theta_x < math.inf)
    fitted = theta_ok & (beta > 1.0) & (beta < math.inf)
    for i in np.flatnonzero(~fitted).tolist():
        t, e_i = theta[i].item(), e_fit[i].item()
        errors[lane_r[i], lane_k[i]] = _param_error("beta", beta[i].item()) if theta_ok[i] else DomainError(
            f"fitted theta {t!r} * 2**{-e_i} leaves the float range at the sample's scale 2**{e_i}"
        )
    r, k = lane_r[fitted], lane_k[fitted]
    columns = np.full((len(floats), *shape), math.nan)
    columns[:, r, k] = floats[:, fitted]
    covariance = np.full((*shape, 2, 2), math.nan)
    covariance[r, k] = cov[fitted]
    status, iterations = np.full(shape, _FAILED), np.zeros(shape, int)
    status[r, k], iterations[r, k] = codes[fitted], steps[fitted]
    return _Fits(alphas, *columns[:, :, col], covariance[:, col], status[:, col], iterations[:, col], errors[:, col])


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
    result alone as beside other fits.  It fits the data scaled by the power
    of two that puts their maximum in [0.5, 1), so theta scales exactly as
    1/scale: only a fitted theta beyond the float range is refused.

    Parameters
    ----------
    alpha : float
        Held fixed during the fit (profile over a grid with
        :func:`fit_mle_profile` to estimate it).
    data : Sample
        At least two observations, not all zero.
    init : (theta0, beta0), optional
        Defaults to the exponential-rate heuristic 1/mean(data) and beta0=2.

    Returns
    -------
    FitResult
        ``status`` is "converged" (an interior maximum: score norm on the
        scaled data at most 1e-8 * n, Newton's step below 1e-6),
        "boundary_beta_one" or "boundary_beta_inf" (the beta-score keeps its
        sign as beta -> 1 or beta -> inf, the alpha-power exponential limit:
        Newton's step in v follows it without shrinking and predicts a gain
        below 1e-10 * n), or "max_iter" (neither within ``max_iter`` accepted
        steps, or no step kept the log-likelihood from falling).  None of
        these raises.

    Raises
    ------
    DomainError
        For too few or all-zero observations, an invalid alpha, an init
        that is not a valid (theta0, beta0) pair, a negative max_iter, a
        start theta0 beyond the normal float range at the sample's scale,
        or a fitted theta beyond the float range (subnormal samples).
    NumericalError
        If the Hessian of the log-likelihood is not finite or is singular.
    """
    return _fit_rows(data.values[None, :], [alpha], init, max_iter).result(0, 0)


def fit_mle_profile(
    alpha_grid: Sequence[float],
    data: Sample,
    init: tuple[float, float] | None = None,
) -> tuple[FitResult, list[FitResult]]:
    """Profile the likelihood over a grid of alpha values.

    Fits (theta, beta) at every alpha and returns the best fit by profile
    log-likelihood (fits that reached a maximum or a boundary preferred)
    together with all per-alpha results.  An alpha repeated in the grid is
    fitted once, and each of its entries is that same ``FitResult``.
    """
    fits = _fit_rows(data.values[None, :], alpha_grid, init)
    made: dict = {}  # one FitResult per distinct alpha; the first error in grid order raises
    profile = [made[a] if a in made else made.setdefault(a, fits.result(0, j)) for j, a in enumerate(fits.alphas)]
    return profile[_best(fits.status, fits.loglik)[0]], profile


@dataclass(frozen=True)
class FamilySpec:
    """A candidate family for model comparison.

    kind determines the free parameters: "lindley" frees theta only (with
    beta = 1 + theta, alpha = 1), "pseudo_lindley" frees (theta, beta) at
    alpha = 1, and "pl_apt" frees (theta, beta) at a fixed alpha or over an
    alpha grid (profile likelihood, counted as a third free parameter).
    Any other kind, or a field the kind does not read, raises ``DomainError``.
    """

    name: str
    kind: str
    alpha: float = 1.0
    alpha_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lindley", "pseudo_lindley", "pl_apt"):
            raise DomainError(f"unknown family kind: {self.kind!r}")
        if self.alpha_grid is not None and self.kind != "pl_apt":
            raise DomainError(f"alpha_grid applies to pl_apt families, not {self.kind!r}")
        if self.alpha != 1.0 and (self.kind != "pl_apt" or self.alpha_grid is not None):
            raise DomainError(f"a fixed alpha applies to pl_apt families without an alpha_grid, got {self.alpha}")

    def _alphas(self) -> tuple:
        # The alphas of the family's Newton fits (the Lindley fit has a closed form).
        if self.kind != "pl_apt":
            return () if self.kind == "lindley" else (1.0,)
        return self.alpha_grid if self.alpha_grid is not None else (self.alpha,)

    def _n_free(self) -> int:
        return 1 if self.kind == "lindley" else 2 + (self.kind == "pl_apt" and self.alpha_grid is not None)


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


def _lindley_rows(x: np.ndarray) -> tuple:
    # Theta and log-likelihood of the one-parameter Lindley fit to every row,
    # and an object array of each row's error message or None (its
    # log-likelihood NaN): the stationary point is the positive root of
    # m*theta**2 + (m - 1)*theta - 2 = 0, m = mean, taken in a form that
    # does not cancel (Ghitany, Atieh & Nadarajah 2008).  A root that leaves
    # beta = 1 + theta outside (1, inf), as from m = 2e16 up, is flagged.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = x.mean(axis=1)
        root_8m = np.sqrt(8.0 * m)
        above = 4.0 / ((m - 1.0) + np.hypot(m - 1.0, root_8m))
        theta = np.where(m >= 1.0, above, ((1.0 - m) + np.hypot(1.0 - m, root_8m)) / (2.0 * m))
    good = (1.0 + theta > 1.0) & (theta < math.inf)
    t, xs = theta[good], x[good]
    at_one = _alpha_terms(np.ones_like(t), x.shape[1])
    ll = np.full(theta.size, math.nan)
    ll[good] = _lane_derivatives(t, t, 1.0 / (1.0 + t), xs, xs.sum(axis=1), *at_one)[0]
    errors = np.full(theta.size, None, object)
    for r in np.flatnonzero(~good).tolist():
        th, mean = theta[r].item(), m[r].item()
        errors[r] = (_ZERO_SAMPLE if x[r, -1] == 0.0 else f"Lindley theta {th!r} at mean {mean!r} is out of "
                     f"range: beta = 1 + theta {'overflows' if th == math.inf else 'rounds to 1'}")
    return theta, ll, errors


def _information_criteria(loglik, n_free, n: int) -> tuple:
    """AIC and BIC of fits with n_free free parameters to n observations
    (floats or arrays)."""
    return 2.0 * n_free - 2.0 * loglik, n_free * math.log(n) - 2.0 * loglik


def _model_compare_rows(x: np.ndarray, candidates: Sequence[FamilySpec]) -> dict:
    """:func:`model_compare` for every row of x, a stack of sorted samples
    of one size, as (rows, candidates) columns: loglik, aic, bic,
    converged, n_free (0 where the candidate failed, whose params are then
    not read), params ((alpha, beta, theta) in a last axis) and error (the
    message or None, objects).  The alphas of all candidates are fitted in
    one call."""
    count, n = x.shape
    grids = [fam._alphas() for fam in candidates]
    fits = _fit_rows(x, [a for grid in grids for a in grid])
    messages = fits.outcomes()[1]
    alphas = np.array(fits.alphas)
    shape, rows = (count, len(candidates)), np.arange(count)
    loglik, params = np.full(shape, math.nan), np.full((*shape, 3), math.nan)
    converged, n_free = np.zeros(shape, bool), np.zeros(shape, int)
    errors = np.full(shape, None, object)
    start = 0
    for f, (fam, grid) in enumerate(zip(candidates, grids)):
        if fam.kind == "lindley":
            theta, loglik[:, f], errors[:, f] = _lindley_rows(x)
            params[:, f] = np.stack([np.ones_like(theta), 1.0 + theta, theta], axis=1)
            fitted = converged[:, f] = np.equal(errors[:, f], None)
        else:
            cols = slice(start, start + len(grid))
            start += len(grid)
            try:
                j = cols.start + _best(fits.status[:, cols], fits.loglik[:, cols])
            except DomainError as exc:  # an empty grid
                errors[:, f] = str(exc)
                continue
            status = fits.status[rows, j]
            fitted, converged[:, f] = status != _FAILED, status == _CONVERGED
            loglik[:, f] = fits.loglik[rows, j]
            params[:, f] = np.stack([alphas[j], fits.beta[rows, j], fits.theta[rows, j]], axis=1)
            errors[:, f] = messages[rows, j]
        n_free[fitted, f] = fam._n_free()
    aic, bic = _information_criteria(loglik, n_free, n)
    return {"loglik": loglik, "aic": aic, "bic": bic, "converged": converged, "n_free": n_free, "params": params,
            "error": errors}


def model_compare(data: Sample, candidates: Sequence[FamilySpec]) -> list[ModelCompareRow]:
    """Fit each candidate family and tabulate loglik, AIC and BIC.

    A candidate that fails to fit, or whose fit stops at the iteration
    limit, contributes a flagged row instead of aborting the table; a fit on
    a boundary is scored with its last iterate.
    """
    cols = _model_compare_rows(data.values[None, :], candidates)
    table = []
    for f, fam in enumerate(candidates):
        n_free = cols["n_free"][0, f].item()
        params = PlAptParams(*cols["params"][0, f].tolist()) if n_free else None
        scores = (cols[key][0, f].item() for key in ("loglik", "aic", "bic", "converged"))
        table.append(ModelCompareRow(fam.name, n_free, *scores, params, cols["error"][0, f]))
    return table
