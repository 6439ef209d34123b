"""Tail asymptotics and extreme-value-index estimation.

Covers the asymptotic expansion of the upper-tail quantile, a numeric
check that the family sits in the Gumbel max-domain of attraction (on the
exact auxiliary scale 1/h(Q(1 - u))), the normalization of simulated
maxima, and the double-indexed Hill statistic T_n(f, s) with its
centering/scaling constants and asymptotic test.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distribution import (
    PlAptParams, Sample, _BLOCK, _MAX_COUNT, _MAX_REPS, _blockwise, _first_uniforms, _integer, _log_ratio,
    _param_error, _positive, _tail_log_s, hazard, tail_quantile,
)
from .exceptions import DomainError, NumericalError
from .inference import _chunks
from .special_functions import _theta_x

__all__ = [
    "ExtremalExpansion",
    "WeightSpec",
    "EviReport",
    "EviTestResult",
    "PiVariationPoint",
    "MaximaResult",
    "tail_constant",
    "a_function",
    "extremal_quantile",
    "pi_variation_check",
    "double_hill_components",
    "evi_asymptotic_test",
    "maxima_normalization",
    "gumbel_ks_distance",
]

_Z975 = 1.959963984540054  # standard normal 97.5% point


def tail_constant(alpha: float, beta: float) -> float:
    """Leading coefficient C(alpha, beta) of the small-u Lambert argument.

    The W-argument of the upper-tail quantile behaves as u * C + O(u^2);
    C = (1 - alpha) * beta * exp(-beta) / (alpha * log(alpha)) is negative
    for every alpha and beta that ``PlAptParams`` accepts, and others raise
    its ``DomainError``; C(1, beta) = -beta * exp(-beta), its limit at the
    Pseudo-Lindley law.  As a float, C underflows to -0.0 from beta of about 745.
    """
    error = _param_error("alpha", alpha) or _param_error("beta", beta)
    if error:
        raise error
    return float(-beta * math.exp(-beta) / (alpha * _log_ratio(alpha)))


def a_function(p: PlAptParams, u):
    """W-argument A(alpha, beta, u) of the upper-tail quantile Q(1 - u).

    Lies in [-beta * exp(-beta), 0), inside (-1/e, 0), for u in (0, 1] and
    behaves as u * C(alpha, beta) as u -> 0; at alpha = 1 it is exactly
    u * C.  Where A underflows to 0 it raises ``NumericalError``.
    """

    def block(b):
        if not (b.min() > 0.0 and b.max() <= 1.0):  # nan fails either
            raise DomainError("a_function requires 0 < u <= 1")
        s = b if p.is_alpha_one else np.exp(_tail_log_s(p, b))
        a = np.multiply(s, -p.beta * math.exp(-p.beta))
        if a.max() == 0.0:
            raise NumericalError("A(alpha, beta, u) underflows to 0 below the float range")
        return a

    return _blockwise(block, u)


@dataclass(frozen=True)
class ExtremalExpansion:
    """Asymptotic upper-tail quantile with its per-term breakdown.

    components holds the printed leading terms -- constant C0, the
    log(1/u) and log(log(1/u)) terms and the log(-C)/log(1/u) term -- plus
    a "remainder" carrying the next-order Lambert-series corrections; the
    five sum exactly to ``value``.  The remainder decays like
    log(log(1/u))/log(1/u) and is what makes the approximation usable at
    moderate tail masses.
    """

    params: PlAptParams
    u: float
    value: float
    c_ab: float
    c0: float
    components: dict[str, float]


def extremal_quantile(p: PlAptParams, u: float) -> ExtremalExpansion:
    """Asymptotic expansion of Q(1 - u) for small tail mass u.

    Applies the four-term logarithmic series of W_{-1} to the exact
    argument A(alpha, beta, u), taken as log(-A) = log(beta) - beta + log s,
    so the error decreases monotonically as u -> 0 (within 1e-2 of the
    exact quantile already at u = 1e-10 across the tested parameter range,
    alpha = 1 included).  No term has a beta to cancel, so every beta holds.
    """
    u = float(u)
    if not 0.0 < u <= 0.1:
        raise DomainError(f"extremal_quantile requires 0 < u <= 0.1, got {u}")
    log_beta, log_s = math.log(p.beta), float(_tail_log_s(p, np.array([u]))[0])
    log_z = log_beta - p.beta + log_s
    log_log = math.log(-log_z)
    # -beta - w for w = log_z - log_log + log_log/log_z + ..., with -beta - log_z = -log(beta) - log s
    t = log_log - (log_beta + log_s) - log_log / log_z - log_log * (log_log - 2.0) / (2.0 * log_z * log_z)
    value = t / p.theta
    log_alpha_ratio = math.log(p.alpha * float(_log_ratio(p.alpha)))
    c0 = (log_alpha_ratio - log_beta) / p.theta  # (-beta - log(-C))/theta
    log_inv_u = -math.log(u)
    components = {
        "constant": c0,
        "log": log_inv_u / p.theta,
        "loglog": math.log(log_inv_u) / p.theta,
        "inv_log": (log_beta - p.beta - log_alpha_ratio) / (p.theta * log_inv_u),  # log(-C)/(theta log(1/u))
    }
    components["remainder"] = value - sum(components.values())
    c_ab = tail_constant(p.alpha, p.beta)
    return ExtremalExpansion(params=p, u=u, value=value, c_ab=c_ab, c0=c0, components=components)


@dataclass(frozen=True)
class PiVariationPoint:
    """One grid point of the Gumbel-domain residual check."""

    u: float
    scale: float  # s(u) = u * Q'(1-u), exactly 1/h(Q(1-u))
    residual: float  # (Q(1-lambda*u) - Q(1-u))/s(u) + log(lambda)


def pi_variation_check(
    p: PlAptParams, lam: float, u_grid: Sequence[float]
) -> list[PiVariationPoint]:
    """Residuals of the Gumbel-domain limit along a grid of tail masses.

    The limit of (Q(1-lambda*u) - Q(1-u)) / s(u) as u -> 0 is -log(lambda),
    so the reported residual r(u) must shrink toward 0 down the grid.  The
    auxiliary scale s(u) = u * Q'(1-u) = R(Q)/f(Q) is exactly 1/h(Q(1 - u)),
    the reciprocal hazard (de Haan and Ferreira 2006, ch. 1).  The
    quantiles and the hazard are taken in t = theta*x at theta = 1, by one
    call on the masses u and lambda*u and one at t(u), so the residual is
    exactly independent of theta and no quantile can overflow; only a
    scale beyond the float range, at a theta below about 1e-308, is inf.
    Every alpha, alpha = 1 included, lies in the Gumbel domain.
    """
    lam = _positive("lambda", lam)
    u = np.asarray(u_grid, dtype=float).ravel()
    for v in u.tolist():
        if not 0.0 < v < 1e-2:
            raise DomainError(f"grid values must lie in (0, 1e-2), got {v}")
        if not lam * v < 1.0:
            raise DomainError(f"lambda*u must stay below 1, got {lam * v}")
    unit = PlAptParams(p.alpha, p.beta, 1.0)
    t = tail_quantile(unit, np.concatenate([u, lam * u]))
    t_u, t_lam = np.split(t, 2)
    h_t = hazard(unit, t_u)
    with np.errstate(over="ignore"):  # a scale beyond the float range (theta below about 1e-308) is inf
        scale = 1.0 / h_t / p.theta
    residual = (t_lam - t_u) * h_t + math.log(lam)
    return [PiVariationPoint(*point) for point in zip(u.tolist(), scale.tolist(), residual.tolist())]


@dataclass(frozen=True)
class WeightSpec:
    """Weight family (f, s) of the double-indexed Hill statistic.

    kind "hill" sets f(j) = j (the classical Hill estimator at s = 1),
    "power" sets f(j) = j**tau, and "custom" takes an explicit positive
    table f(1), f(2), ...  The exponent s > 0 powers the log-spacings.
    tau is rejected unless power, table unless custom.
    """

    kind: str
    s: float = 1.0
    tau: float | None = None
    table: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "s", _positive("s", self.s))
        if self.tau is not None and self.kind != "power":
            raise DomainError(f"tau applies to power weights, not {self.kind!r}")
        if self.table is not None and self.kind != "custom":
            raise DomainError(f"table applies to custom weights, not {self.kind!r}")
        if self.kind == "power":
            if self.tau is None or not math.isfinite(float(self.tau)):
                raise DomainError(f"power weights require a finite tau, got {self.tau}")
            object.__setattr__(self, "tau", float(self.tau))
        elif self.kind == "custom":
            if not self.table:
                raise DomainError("custom weights require a nonempty table")
            object.__setattr__(self, "table", tuple(_positive("custom weight", v) for v in self.table))
        elif self.kind != "hill":
            raise DomainError(f"unknown weight kind: {self.kind!r}")

    @classmethod
    def hill(cls, s: float = 1.0) -> "WeightSpec":
        return cls(kind="hill", s=s)

    @classmethod
    def power(cls, tau: float, s: float = 1.0) -> "WeightSpec":
        return cls(kind="power", s=s, tau=tau)

    @classmethod
    def custom(cls, values: Sequence[float], s: float = 1.0) -> "WeightSpec":
        return cls(kind="custom", s=s, table=tuple(values))

    def weights(self, k: int) -> np.ndarray:
        """f(1), ..., f(k) as an array, for an integer k >= 1."""
        k = _integer("k", k, 1)
        j = np.arange(1, k + 1, dtype=float)
        if self.kind == "hill":
            return j
        if self.kind == "power":
            return j**self.tau
        if len(self.table) < k:
            raise DomainError(f"custom weight table covers {len(self.table)} ranks, need {k}")
        return np.asarray(self.table[:k], dtype=float)


@dataclass(frozen=True)
class EviReport:
    """Double-Hill components for one choice of (weights, k).

    t_n is the weighted sum of powered log-spacings, a_n and s_n its
    centering and scaling constants (data-independent), b_n the Lindeberg
    ratio max_j f(j) j^{-s} / s_n, and m_n = (t_n/a_n)^(1/s) the
    extreme-value-index estimate.  The confidence interval is the normal
    approximation for the s-th root with the plug-in t_n/a_n variance.
    """

    k: int
    t_n: float
    a_n: float
    s_n: float
    b_n: float
    m_n: float
    z_stat: float
    ci_low: float
    ci_high: float

    @property
    def an_sn_ratio(self) -> float:
        return self.a_n / self.s_n


def _hill_weights(w: WeightSpec, k: int) -> tuple:
    """(s, f(1..k), a_n, s_n, b_n): the weights w at k and the data-free constants
    of T_n; a DomainError unless f(1..k), a_n and s_n are positive and finite."""
    s = w.s
    with np.errstate(over="ignore"):
        f_j = w.weights(k)
        g_j = f_j * np.arange(1, k + 1, dtype=float) ** -s
        g_sq = g_j * g_j
    if not np.all((f_j > 0.0) & (f_j < math.inf)):
        raise DomainError(f"weights must be positive and finite on 1..{k}")
    try:
        a_n = math.gamma(s + 1.0) * math.fsum(g_j)
        s_n = math.sqrt((math.gamma(2.0 * s + 1.0) - math.gamma(s + 1.0) ** 2) * math.fsum(g_sq))
    except (OverflowError, ValueError):  # gamma or fsum overflows, or the variance is negative
        a_n = s_n = math.nan
    if not (0.0 < a_n < math.inf and 0.0 < s_n < math.inf):
        raise DomainError(f"weights with s = {s} give no positive finite a_n and s_n at k = {k}")
    return s, f_j, a_n, s_n, float(np.max(g_j)) / s_n


# The per-row statistics of ``_double_hill_rows``, in its columns' order
_EVI_STATS = ("t_n", "m_n", "z_stat", "ci_low", "ci_high")


def _double_hill_rows(top: np.ndarray, weights: tuple, target: float | None = None) -> tuple[dict, list]:
    """The EviReport statistics of each row of ``top``, a (rows, k+1) stack
    of top order statistics sorted ascending, as float64 columns named by
    ``_EVI_STATS`` (NaN on a row that fails), and the PlaptError that stops
    each row, or None (rows failing alike share one error); ``weights`` is
    ``_hill_weights(w, k)``."""
    s, f_j, a_n, s_n, _ = weights
    with np.errstate(all="ignore"):
        # Column i is the log-spacing of rank j = k - i, log X_{n-j+1,n} -
        # log X_{n-j,n}, weighted by f(j).
        spacings = np.diff(np.log(top), axis=1)
        terms = f_j[::-1] * spacings**s
        valid = (top[:, 0] > 0.0) & (top[:, -1] < math.inf)  # nan fails either
        good = valid & np.any(spacings > 0.0, axis=1)
        # the one loop: fsum reads each good row's terms through a memoryview,
        # as Python floats without a list, 2.4 times faster than the numpy row
        t_n = np.full(len(top), math.nan)
        t_n[good] = [math.fsum(memoryview(row)) for row in terms[good]]
        ratio = t_n / a_n
        half = _Z975 * (s_n / a_n) * ratio
        z_stat = np.where(good, 0.0, math.nan) if target is None else (a_n / s_n) * (ratio / target**s - 1.0)
        ci_low, ci_high = (np.maximum(b, 0.0) ** (1.0 / s) for b in (ratio - half, ratio + half))
        stats = dict(zip(_EVI_STATS, (t_n, ratio ** (1.0 / s), z_stat, ci_low, ci_high)))
    errors = np.full(len(top), None)
    errors[~good] = NumericalError("all top log-spacings are zero (tied observations)")
    errors[~valid] = DomainError("the top k+1 order statistics must be positive and finite")
    return stats, errors.tolist()


def double_hill_components(
    data: Sample, w: WeightSpec, k: int, target: float | None = None
) -> EviReport:
    """Compute T_n, a_n, s_n, B_n and M_n(f, s) from the top k spacings.

    Parameters
    ----------
    data : Sample
        Observations; the top k+1 order statistics must be strictly
        positive (log-spacings are taken).
    w : WeightSpec
        Weight family (f, s).
    k : int
        Number of top spacings, 1 <= k <= n-1.
    target : float, optional
        Extreme-value index g under test (on the same scale as m_n); the z
        statistic is (a_n/s_n) * ((t_n/a_n)/g**s - 1), standard normal in
        the limit when g is the true index.  Without a target z_stat is
        zero and the confidence interval is the inferential output.

    Raises
    ------
    DomainError
        On k out of range, weights that do not give positive finite f(1..k),
        a_n and s_n, nonpositive top order statistics or a target that is
        not a positive real.
    NumericalError
        When every top spacing is zero (tied observations).
    """
    n = data.n
    k = _integer("k", k, 1, n - 1)
    target = None if target is None else _positive("target", target)
    weights = _hill_weights(w, k)
    stats, (error,) = _double_hill_rows(data.values[None, n - k - 1 :], weights, target)
    if error is not None:
        raise error
    _, _, a_n, s_n, b_n = weights
    return EviReport(k, a_n=a_n, s_n=s_n, b_n=b_n, **{key: col.item() for key, col in stats.items()})


@dataclass(frozen=True)
class EviTestResult:
    """Normal-approximation test of the extreme-value index."""

    z_stat: float
    p_value: float
    an_sn_ratio: float
    b_n: float
    lindeberg_warning: bool  # set when b_n > 0.5, i.e. B_n -> 0 is implausible
    report: EviReport


def evi_asymptotic_test(data: Sample, w: WeightSpec, k: int, target: float) -> EviTestResult:
    """Test m_n against a caller-supplied target on the m_n scale.

    Reads the z statistic of :func:`double_hill_components` at that target
    and adds a two-sided normal p-value.  The report carries a_n/s_n and
    b_n so the caller can judge whether the asymptotic regime (a_n/s_n
    small, b_n small) is plausible.
    """
    rep = double_hill_components(data, w, k, target=float(target))
    p_value = math.erfc(abs(rep.z_stat) / math.sqrt(2.0))
    return EviTestResult(
        z_stat=rep.z_stat,
        p_value=p_value,
        an_sn_ratio=rep.an_sn_ratio,
        b_n=rep.b_n,
        lindeberg_warning=rep.b_n > 0.5,
        report=rep,
    )


def gumbel_ks_distance(values) -> float:
    """Kolmogorov-Smirnov distance to the standard Gumbel law exp(-exp(-x)),
    whose cdf is 0 at -inf and 1 at inf; NaN is refused."""
    z = np.sort(np.asarray(values, dtype=float).ravel())
    if z.size == 0:
        raise DomainError("need at least one value")
    if np.isnan(z[-1]):  # sorting puts NaN last
        raise DomainError("values must not be NaN")
    gaps = []  # the largest gap of each block of sorted values: only a block's temporaries beside z
    for start in range(0, z.size, _BLOCK):
        ref = np.exp(-np.exp(-z[start : start + _BLOCK]))
        i = np.arange(start + 1, start + ref.size + 1, dtype=float)
        gaps += [np.max(i / z.size - ref), np.max(ref - (i - 1.0) / z.size)]
    return float(np.max(gaps))


@dataclass(frozen=True, eq=False)
class MaximaResult:
    """Normalized simulated maxima theta * (X_max - Q(1 - 1/n)) per replication."""

    normalized: np.ndarray
    ks_distance: float
    n: int
    reps: int

    @functools.cached_property
    def _sorted(self) -> np.ndarray:
        # the maxima sorted once, for ecdf; normalized keeps replication order
        return np.sort(self.normalized)

    def ecdf(self, x):
        """Empirical cdf of the normalized maxima; NaN at a NaN point."""
        z = self._sorted
        return _blockwise(lambda b: np.where(np.isnan(b), math.nan, np.searchsorted(z, b, side="right") / z.size), x)


def _normalized_maxima(p: PlAptParams, n: int, g) -> np.ndarray:
    """theta * (X_max - Q(1 - 1/n)) of the maximum of n draws, one per uniform g.

    The maximum of n uniforms has tail mass -expm1(log(g)/n) (Devroye 1986,
    ch. V), which is 1 at g = 0 and positive for every g < 1.  The
    normalization is taken in t = theta*x, exactly independent of theta.
    """
    with np.errstate(divide="ignore"):  # log(0) = -inf gives tail mass 1
        v = -np.expm1(np.log(g) / n)
    # the maxima's theta*x and, last, that of Q(1 - 1/n), in one kernel call
    t = _theta_x(p.beta, _tail_log_s(p, np.append(v, 1.0 / n)))
    return t[:-1] - t[-1]


def maxima_normalization(p: PlAptParams, n: int, reps: int, seed) -> MaximaResult:
    """Simulate maxima of size-n samples and normalize toward the Gumbel law.

    Replication i reads the one uniform its maximum needs, the first draw of
    its own stream, bit for bit ``default_rng(SeedSequence(seed,
    spawn_key=(i,))).random()`` as in every seeded study, for a nonnegative
    seed and reps <= 2**32.  The uniforms are computed straight from the
    streams' seed words (``_first_uniforms``), a chunk of replications at a
    time in integer array arithmetic, with no generator: results are
    reproducible, each maximum depends on nothing but its own stream, and
    the cost does not grow with n.  All maxima go through one
    kernel call.  The normalization theta * (X_max - Q(1-1/n)) is computed in
    t = theta*x, making it exactly independent of theta.  Every alpha,
    alpha = 1 included, is in the Gumbel domain.
    """
    n = _integer("n", n, 100, _MAX_COUNT)
    reps = _integer("reps", reps, 1, _MAX_REPS)
    g = np.concatenate([_first_uniforms(seed, chunk) for chunk in _chunks(reps, 1)])
    normalized = _normalized_maxima(p, n, g)
    return MaximaResult(
        normalized=normalized,
        ks_distance=gumbel_ks_distance(normalized),
        n=n,
        reps=reps,
    )
