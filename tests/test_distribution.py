import math
import re
import sys
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

import plapt
from plapt import distribution
from plapt import (
    DomainError,
    ExperimentConfig,
    OrderStatSpec,
    PlAptParams,
    Sample,
    WeightSpec,
    a_function,
    cdf,
    double_hill_components,
    fit_mle,
    hazard,
    log_likelihood,
    maxima_normalization,
    median_order_stat_pdf,
    order_stat_pdf,
    pdf,
    quantile,
    reliability,
    run_experiment,
    sample,
    tail_quantile,
)

from reference_tables import ALL_TRIPLES, QUARTILE_US, TABLE_PSEUDO

P_APT = PlAptParams(2.0, 2.5, 0.6)
P_ONE = PlAptParams(1.0, 1.1, 0.6)


def params_grid():
    return [PlAptParams(a, b, th) for th, a, b in ALL_TRIPLES]


def _mp_tail_quantile(p, v):
    """Q(1 - v) at 50 digits: t = theta*Q solves t - log1p(t/beta) = -log s,
    s = log1p(v*(1 - alpha)/alpha)/-log(alpha) the Pseudo-Lindley survival mass."""
    with mpmath.workdps(50):
        a, b, v = mpmath.mpf(p.alpha), mpmath.mpf(p.beta), mpmath.mpf(v)
        log_s = mpmath.log(v) if p.alpha == 1.0 else mpmath.log(-mpmath.log1p(v * (1 - a) / a) / mpmath.log(a))
        # -beta - W_{-1}(-beta*exp(-beta)*s), in the log form of the equation
        t = mpmath.findroot(lambda t: t - mpmath.log1p(t / b) + log_s, -log_s + mpmath.log1p(-log_s / b) + 1)
        return float(t / mpmath.mpf(p.theta))


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, beta=2.0, theta=1.0),
            dict(alpha=-1.0, beta=2.0, theta=1.0),
            dict(alpha=2.0, beta=1.0, theta=1.0),
            dict(alpha=2.0, beta=0.5, theta=1.0),
            dict(alpha=2.0, beta=2.0, theta=0.0),
            dict(alpha=math.nan, beta=2.0, theta=1.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            PlAptParams(**kwargs)

    def test_subnormal_alpha_rejected(self):
        # At a subnormal alpha, v*(1 - alpha)/alpha in the Lambert argument overflows.
        with pytest.raises(DomainError) as info:
            PlAptParams(1e-310, 2.0, 1.0)
        assert str(info.value) == "alpha must be at least 2.2250738585072014e-308, the smallest normal float, got 1e-310"

    @pytest.mark.parametrize("alpha", [1e-300, 2.2250738585072014e-308])
    def test_tiny_normal_alpha(self, alpha):
        p = PlAptParams(alpha, 2.0, 1.0)
        u = np.array([0.1, 0.5, 0.9])
        x = quantile(p, u)
        assert 1.9e-3 < x[1] < 2.1e-3
        assert np.all(np.abs(cdf(p, x) - u) <= 1e-10)

    def test_alpha_one_switch(self):
        # alpha = 1 is special only at alpha == 1; its neighbours take the
        # generic formulas
        assert PlAptParams(1.0, 2.0, 1.0).is_alpha_one
        for alpha in (1.0 + 1e-9, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1.0 + 1e-7):
            assert not PlAptParams(alpha, 2.0, 1.0).is_alpha_one


class TestCdf:
    def test_zero_below_support(self):
        assert cdf(P_APT, 0.0) == 0.0
        assert cdf(P_APT, -1.0) == 0.0

    def test_matches_closed_form(self):
        x = np.linspace(0.01, 30.0, 400)
        for p in params_grid():
            t = p.theta * x
            surv_kernel = (1.0 + t / p.beta) * np.exp(-t)
            if p.is_alpha_one:
                direct = 1.0 - surv_kernel
            else:
                direct = (1.0 - p.alpha ** (1.0 - surv_kernel)) / (1.0 - p.alpha)
            assert np.max(np.abs(cdf(p, x) - direct)) <= 1e-14

    def test_nondecreasing_to_one(self):
        x = np.linspace(0.0, 200.0, 2000)
        for p in (P_APT, P_ONE, PlAptParams(0.5, 1.1, 3.0)):
            g = cdf(p, x)
            assert np.all(np.diff(g) >= 0.0)
            assert g[-1] == pytest.approx(1.0, abs=1e-12)

    def test_reference_medians_alpha_one(self):
        # tabulated alpha=1 medians hold 15 significant digits; see reference_tables
        for (theta, alpha, beta), row in TABLE_PSEUDO.items():
            p = PlAptParams(alpha, beta, theta)
            assert cdf(p, row[1]) == pytest.approx(0.5, abs=1e-10)

    def test_median_roundtrip_exact(self):
        for p in params_grid():
            assert cdf(p, quantile(p, 0.5)) == pytest.approx(0.5, abs=1e-12)


class TestPdf:
    def test_zero_below_support(self):
        assert pdf(P_APT, -1.0) == 0.0
        assert pdf(P_ONE, -1e-9) == 0.0

    def test_alpha_one_at_origin(self):
        p = PlAptParams(1.0, 2.0, 1.0)
        assert pdf(p, 0.0) == pytest.approx(p.theta * (p.beta - 1.0) / p.beta, rel=1e-15)

    def test_finite_difference_of_cdf(self):
        h = 1e-6
        fd = (cdf(P_APT, 1.0 + h) - cdf(P_APT, 1.0 - h)) / (2.0 * h)
        assert pdf(P_APT, 1.0) == pytest.approx(fd, abs=1e-6)

    def test_normalization_by_quadrature(self):
        for p in (P_APT, P_ONE, PlAptParams(0.5, 1.1, 3.0), PlAptParams(1.5, 1.5, 5.2)):
            upper = tail_quantile(p, 1e-12)
            total, _ = integrate.quad(lambda x: pdf(p, x), 0.0, upper, limit=200)
            assert 1.0 - 1e-6 <= total <= 1.0 + 1e-9


class TestReliability:
    def test_one_at_origin(self):
        for p in params_grid():
            assert reliability(p, 0.0) == 1.0
            assert reliability(p, -3.0) == 1.0

    def test_exact_complement_of_cdf(self):
        x = np.linspace(0.0, 60.0, 3000)
        for p in (P_APT, P_ONE, PlAptParams(0.5, 1.1, 1.5)):
            total = reliability(p, x) + cdf(p, x)
            assert np.max(np.abs(total - 1.0)) <= np.finfo(float).eps

    def test_closed_form_alpha_not_one(self):
        x = np.linspace(0.01, 20.0, 200)
        for p in (P_APT, PlAptParams(0.5, 1.1, 1.5)):
            t = p.theta * x
            surv_kernel = (1.0 + t / p.beta) * np.exp(-t)
            direct = (p.alpha / (p.alpha - 1.0)) * (1.0 - p.alpha ** (-surv_kernel))
            assert np.max(np.abs(reliability(p, x) - direct)) <= 1e-12


class TestHazard:
    def test_alpha_one_at_origin(self):
        p = PlAptParams(1.0, 2.0, 1.0)
        assert hazard(p, 0.0) == pytest.approx(p.theta * (p.beta - 1.0) / p.beta, rel=1e-15)

    def test_alpha_one_limit_is_theta(self):
        p = PlAptParams(1.0, 1.5, 3.0)
        assert hazard(p, 1e4) == pytest.approx(3.0, abs=1e-3)

    def test_ratio_oracle(self):
        assert hazard(P_APT, 1.0) == pytest.approx(
            pdf(P_APT, 1.0) / reliability(P_APT, 1.0), rel=1e-14
        )

    def test_product_identity(self):
        x = np.linspace(0.0, 20.0, 500)
        for p in (P_APT, P_ONE, PlAptParams(0.5, 1.1, 1.5)):
            r = reliability(p, x)
            keep = r > 1e-10
            lhs = hazard(p, x)[keep] * r[keep]
            rhs = pdf(p, x)[keep]
            assert np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)) <= 1e-12

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            hazard(P_APT, -0.5)

    @pytest.mark.parametrize(
        "p",
        [
            PlAptParams(2.0, 2.5, 1.5),
            PlAptParams(0.5, 1.1, 0.6),
            PlAptParams(1.0, 1.5, 3.0),
            PlAptParams(1.0 + 5e-9, 2.5, 1.5),  # next to alpha = 1
            PlAptParams(50.0, 30.0, 1e-3),
            PlAptParams(0.01, 1.0001, 5.0),
        ],
        ids=str,
    )
    def test_mpmath_oracle_into_the_far_tail(self, p):
        # pdf/reliability at 60 digits, past the underflow of the survival
        # (x = 700 and 1e4 at theta = 1.5), where the hazard tends to theta.
        with mpmath.workdps(60):
            a, b, th = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.theta))
            for x in (0.0, 1e-300, 1e-8, 0.3, 1.0, 5.0, 30.0, 200.0, 700.0, 1e4):
                t = th * mpmath.mpf(x)
                surv = (1 + t / b) * mpmath.exp(-t)
                dens = th * (b - 1 + t) * mpmath.exp(-t) / b
                if a != 1:
                    dens *= mpmath.log(a) / (a - 1) * a ** (1 - surv)
                    surv = a / (1 - a) * mpmath.expm1(-mpmath.log(a) * surv)
                got = hazard(p, x)
                assert abs(got - dens / surv) <= 1e-15 * (dens / surv), x


class TestHugeAndInfiniteX:
    # t = theta*x saturates, so every function reaches its limit, with no
    # warning (the suite makes a RuntimeWarning an error), where theta*x or
    # theta*(beta - 1 + t) would overflow; theta*x itself overflows at
    # x = 1e308 for the last two.
    @pytest.mark.parametrize(
        "p",
        [
            PlAptParams(2.0, 2.5, 1.5),
            PlAptParams(1.0, 2.5, 1.5),
            PlAptParams(0.5, 1.1, 0.6),
            PlAptParams(2.0, 2.5, 2.0),
            PlAptParams(1.0, 1.1, 1e10),
        ],
        ids=str,
    )
    def test_limits(self, p):
        assert (cdf(p, -1e308), reliability(p, -1e308), pdf(p, -1e308)) == (0.0, 1.0, 0.0)
        for x in (1e308, math.inf):
            assert cdf(p, x) == 1.0
            assert reliability(p, x) == 0.0
            assert pdf(p, x) == 0.0
            assert hazard(p, x) == p.theta
            for k in (1, 4, 7):
                assert order_stat_pdf(p, OrderStatSpec(n=7, k=k), x) == 0.0
        x = np.array([5.0, 1e308, math.inf])
        assert np.array_equal(hazard(p, x), [hazard(p, 5.0), p.theta, p.theta])
        assert np.array_equal(cdf(p, x), [cdf(p, 5.0), 1.0, 1.0])


class TestQuantile:
    def test_zero_at_zero(self):
        for p in params_grid():
            assert quantile(p, 0.0) == 0.0

    @pytest.mark.parametrize("u", [-0.1, 1.0, 1.5, math.nan])
    def test_domain_errors(self, u):
        with pytest.raises(DomainError):
            quantile(P_APT, u)

    def test_roundtrip_grid(self):
        u = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        for p in params_grid():
            assert np.max(np.abs(cdf(p, quantile(p, u)) - u)) <= 1e-10

    def test_scale_law(self):
        # theta never enters the Lambert argument, so theta*quantile is theta-free
        u = np.linspace(0.05, 0.95, 19)
        base = PlAptParams(2.0, 2.5, 1.0)
        for theta in (0.25, 0.6, 3.0, 5.2):
            p = PlAptParams(2.0, 2.5, theta)
            expected = quantile(base, u) * (base.theta / theta)
            got = quantile(p, u)
            assert np.max(np.abs(got - expected) / expected) <= 1e-12

    def test_alpha_continuity_at_one(self):
        x = np.linspace(0.0, 30.0, 500)
        ref = cdf(PlAptParams(1.0, 2.5, 0.6), x)
        for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
            got = cdf(PlAptParams(alpha, 2.5, 0.6), x)
            assert np.max(np.abs(got - ref)) <= 1e-4

    def test_lindley_special_case(self):
        # alpha=1 and beta=1+theta collapse to the one-parameter Lindley law
        theta = 0.8
        p = PlAptParams(1.0, 1.0 + theta, theta)
        x = np.linspace(0.0, 25.0, 400)
        lindley = 1.0 - (1.0 + theta * x / (1.0 + theta)) * np.exp(-theta * x)
        assert np.max(np.abs(cdf(p, x) - lindley)) <= 1e-14

    def test_pseudo_lindley_special_case(self):
        p = PlAptParams(1.0, 1.7, 1.3)
        x = np.linspace(0.0, 25.0, 400)
        t = p.theta * x
        pseudo = 1.0 - (p.beta + t) * np.exp(-t) / p.beta
        assert np.max(np.abs(cdf(p, x) - pseudo)) <= 1e-14

    def test_tail_quantile_consistency(self):
        for p in (P_APT, P_ONE):
            for v in (0.5, 0.1, 1e-3):
                assert tail_quantile(p, v) == pytest.approx(quantile(p, 1.0 - v), rel=1e-12)

    def test_tail_quantile_domain(self):
        with pytest.raises(DomainError):
            tail_quantile(P_APT, 0.0)
        with pytest.raises(DomainError):
            tail_quantile(P_APT, 1.5)

    def test_branch_point_clamp(self):
        # At beta = 1 + 2**-52, next to the branch point, s = 1 at v = 1 gives
        # Q = 0 exactly, u = 5e-324 rounds to v = 1 and so gives 0 too, and
        # small quantiles keep their relative accuracy against 50 digits.
        p = PlAptParams(0.01, math.nextafter(1.0, 2.0), 1.0)
        assert tail_quantile(p, 1.0) == 0.0
        assert quantile(p, 5e-324) == 0.0
        for v in (0.5, 1e-10, 1e-300):
            want = _mp_tail_quantile(p, v)
            assert abs(tail_quantile(p, v) - want) <= 1e-14 * want, v

    def test_tail_quantile_down_to_underflow(self):
        # log s stays finite down to the smallest subnormal tail mass, so no
        # tail mass of (0, 1] underflows, and each keeps its precision
        p = PlAptParams(2.0, 2.5, 1.5)
        assert tail_quantile(p, 1e-320) == pytest.approx(495.23429350541144864, rel=1e-14)
        for v in (1e-323, 5e-324):
            assert tail_quantile(p, v) == pytest.approx(_mp_tail_quantile(p, v), rel=1e-14)

    @pytest.mark.parametrize("alpha", [1e16, 1e17, 1e300])
    def test_huge_alpha(self, alpha):
        # From alpha ~ 2**53 on, v*(1 - alpha)/alpha rounds to -1 at v = 1 and
        # the Lambert argument to -inf; W_{-1} is -1 there, with no warning (the
        # suite turns RuntimeWarnings into errors), and Q(0) = 0.
        p = PlAptParams(alpha, 2.0, 1.0)
        assert quantile(p, 0.0) == 0.0
        assert tail_quantile(p, 1.0) == 0.0
        assert a_function(p, 1.0) == -2.0 * math.exp(-2.0)
        u = np.array([0.0, 1e-12, 1e-3, 0.5, 0.999999])
        assert np.max(np.abs(cdf(p, quantile(p, u)) - u)) <= 1e-10


class TestWholeParameterSpace:
    """The quantiles solve for theta*x from log s, so they hold for every
    beta that PlAptParams accepts and for every tail mass down to 5e-324."""

    @pytest.mark.parametrize("beta", [1.0 + 1e-9, 2.5, 709.0, 744.0, 1e6, 1e300])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_roundtrip_at_any_beta(self, alpha, beta):
        p = PlAptParams(alpha, beta, 1.0)
        u = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(cdf(p, quantile(p, u)) - u)) <= 1e-10

    @pytest.mark.parametrize("p", [(2.0, 2.5, 1.5), (0.5, 1.1, 0.6), (1.0, 1.5, 3.0), (2.0, 1e6, 1.0)], ids=str)
    def test_tail_quantile_against_mpmath_down_to_the_smallest_subnormal(self, p):
        p = PlAptParams(*p)
        v = np.geomspace(5e-324, 0.5, 60)
        got = tail_quantile(p, v)
        want = np.array([_mp_tail_quantile(p, x) for x in v.tolist()])
        assert np.max(np.abs(got - want) / want) <= 1e-14

    def test_exact_zero_at_both_ends(self):
        extremes = [(a, b, 1.0) for a in (1e-300, 0.01, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 3.0, 1e300)
                    for b in (math.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.5, 2.678, 2.7, 1e6)]
        for p in params_grid() + [PlAptParams(*t) for t in extremes]:
            for q in (quantile(p, 0.0), tail_quantile(p, 1.0), tail_quantile(p, np.array([0.5, 1.0]))[1]):
                assert q == 0.0 and math.copysign(1.0, q) == 1.0, p


class TestExactAlphaOne:
    """alpha = 1 is special only at alpha == 1: next to it the generic
    formulas hold to full precision, checked against 50-digit values at
    (beta, theta) = (2.5, 1.5)."""

    B, TH = 2.5, 1.5

    @pytest.mark.parametrize("alpha", [1.0 - 5e-9, 1.0 + 5e-9, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 2.2e-16])
    def test_mpmath_oracle_next_to_one(self, alpha):
        p = PlAptParams(alpha, self.B, self.TH)
        data = sample(PlAptParams(1.0, self.B, self.TH), 200, seed=2024)
        with mpmath.workdps(50):
            a, b, th = (mpmath.mpf(v) for v in (alpha, self.B, self.TH))
            log_a = mpmath.log(a)

            def one_minus_surv(x):
                t = th * mpmath.mpf(x)
                return 1 - (1 + t / b) * mpmath.exp(-t)

            def log_pdf(x):
                t = th * mpmath.mpf(x)
                return mpmath.log(th * (b - 1 + t) / b) - t + mpmath.log(log_a / (a - 1)) + log_a * one_minus_surv(x)

            for x in (0.05, 0.3, 1.0, 3.0, 10.0):
                want_cdf = mpmath.expm1(log_a * one_minus_surv(x)) / (a - 1)
                assert abs(cdf(p, x) - want_cdf) <= 1e-14 * want_cdf, x
                want_pdf = mpmath.exp(log_pdf(x))
                assert abs(pdf(p, x) - want_pdf) <= 1e-14 * want_pdf, x
            for v in np.geomspace(1e-290, 0.5, 30).tolist():
                arg = b * mpmath.exp(-b) / log_a * mpmath.log1p(v * (1 - a) / a)
                want = (-b - mpmath.lambertw(arg, -1).real) / th
                assert abs(tail_quantile(p, v) - want) <= 1e-14 * want, v
            want_ll = mpmath.fsum(log_pdf(x) for x in data.values.tolist())
            assert abs(log_likelihood(alpha, self.TH, self.B, data) - want_ll) <= 1e-12 * data.n


_SPEC = OrderStatSpec(n=7, k=3)


def order_stat_pdf_3_of_7(p, x):
    return order_stat_pdf(p, _SPEC, x)


# Every elementwise function and a draw of its domain of a given shape:
# negatives take the x <= 0 and x < 0 branches, tail masses reach 1e-304.
_DRAWS = {
    quantile: lambda rng, shape: rng.random(shape),
    tail_quantile: lambda rng, shape: np.exp(-700.0 * rng.random(shape)),
    cdf: lambda rng, shape: 3.0 * rng.random(shape) - 0.5,
    pdf: lambda rng, shape: 3.0 * rng.random(shape) - 0.5,
    reliability: lambda rng, shape: 3.0 * rng.random(shape) - 0.5,
    hazard: lambda rng, shape: 800.0 * rng.random(shape) ** 3,
    order_stat_pdf_3_of_7: lambda rng, shape: 3.0 * rng.random(shape) - 0.5,
    a_function: lambda rng, shape: np.exp(-700.0 * rng.random(shape)),
}


class TestBlockwise:
    """Every elementwise function runs in blocks of _BLOCK points, with
    bitwise the result of one block; _BLOCK = 7 splits small inputs."""

    @pytest.mark.parametrize("p", [P_APT, P_ONE], ids=["apt", "alpha-one"])
    @pytest.mark.parametrize("shape", [(1,), (6,), (7,), (8,), (50,), (3, 5)])
    def test_blocks_match_one_block(self, monkeypatch, p, shape):
        rng = np.random.default_rng(11)
        inputs = [(fn, _DRAWS[fn](rng, shape)) for fn in _DRAWS]
        assert np.prod(shape) <= distribution._BLOCK
        one_block = [fn(p, a) for fn, a in inputs]
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        for (fn, a), want in zip(inputs, one_block):
            got = fn(p, a)
            assert got.shape == shape
            assert np.all(got == want), fn.__name__

    def test_zero_in_later_block(self, monkeypatch):
        u = np.linspace(0.05, 0.95, 20)
        u[15] = 0.0
        want = quantile(P_APT, u)
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        got = quantile(P_APT, u)
        assert got[15] == 0.0
        assert np.all(got == want)

    def test_scalar_in_float_out(self, monkeypatch):
        # A scalar skips the blocks and gives the one-element array's value.
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        rng = np.random.default_rng(13)
        edges = {quantile: [0.0], tail_quantile: [1.0, 1e-300], cdf: [-0.5, 0.0], hazard: [0.0, 1e4]}
        for p in (PlAptParams(2.0, 2.5, 1.5), PlAptParams(0.5, 1.1, 0.6), PlAptParams(1.0, 1.5, 3.0)):
            for fn in _DRAWS:
                for arg in _DRAWS[fn](rng, 3).tolist() + edges.get(fn, []):
                    got = fn(p, arg)
                    assert isinstance(got, float)
                    assert got == fn(p, np.array([arg]))[0]

    def test_errors_in_last_block(self, monkeypatch):
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        u = np.full(15, 0.5)
        u[-1] = 1.0
        with pytest.raises(DomainError):
            quantile(P_APT, u)
        v = np.full(15, 0.5)
        v[-1] = 0.0
        with pytest.raises(DomainError):
            tail_quantile(PlAptParams(2.0, 2.5, 1.5), v)
        x = np.full(15, 0.5)
        x[-1] = -0.5
        with pytest.raises(DomainError):
            hazard(P_APT, x)

    @pytest.mark.parametrize("fn", list(_DRAWS))
    def test_peak_memory_about_the_output(self, fn):
        # Only one block's temporaries live beside the output; one pass over
        # all the points would hold several full-size temporaries at once.
        a = np.random.default_rng(5).uniform(1e-3, 0.999, 2**18)
        tracemalloc.start()
        try:
            fn(P_APT, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * a.nbytes

    @pytest.mark.parametrize("fn", list(_DRAWS))
    @pytest.mark.parametrize("cores", [1, 2, 64])
    def test_peak_memory_at_any_core_count(self, monkeypatch, cores, fn):
        # 2**18 points are 16 blocks: 2 threads at 2 cores or more, each with
        # its block's temporaries, and still about the output's size
        monkeypatch.setattr(distribution, "_CORES", cores)
        self.test_peak_memory_about_the_output(fn)


def _count_threads(monkeypatch) -> list:
    # The threads that _blockwise starts, in order, as they start
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


class TestThreadedBlocks:
    """Blocks are dealt round-robin to up to _CORES threads, at least
    _THREAD_BLOCKS blocks each; _BLOCK = 7 makes small inputs take threads."""

    @pytest.mark.parametrize("p", [P_APT, P_ONE], ids=["apt", "alpha-one"])
    def test_threads_match_one_pass(self, monkeypatch, p):
        rng = np.random.default_rng(17)
        inputs = [(fn, _DRAWS[fn](rng, 7 * 41 + 3)) for fn in _DRAWS]  # 42 blocks of 7
        one_pass = [fn(p, a) for fn, a in inputs]
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        monkeypatch.setattr(distribution, "_CORES", 4)
        started = _count_threads(monkeypatch)
        for (fn, a), want in zip(inputs, one_pass):
            del started[:]
            got = fn(p, a)
            assert len(started) == 3, fn.__name__  # 4 threads: the caller and 3 helpers
            assert np.all(got == want), fn.__name__
            del started[:]
            fn(p, a[: 7 * 15])  # 15 blocks: below 2 * _THREAD_BLOCKS, no helper
            assert started == [], fn.__name__

    def test_first_failing_block_wins_when_a_helper_fails_first(self, monkeypatch):
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        monkeypatch.setattr(distribution, "_CORES", 2)
        started = _count_threads(monkeypatch)

        def f(b):  # block 0 runs on the calling thread, block 1 on the helper
            if b[0] == 0.0:
                started[0].join(10.0)  # the helper has failed and stopped
                raise ValueError(f"block 0, helper alive: {started[0].is_alive()}")
            if b[0] == 7.0:
                raise KeyError("block 1")
            return b

        with pytest.raises(ValueError, match="block 0, helper alive: False"):
            distribution._blockwise(f, np.arange(16 * 7.0))

    def test_first_failing_block_wins_when_it_is_a_helpers(self, monkeypatch):
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        monkeypatch.setattr(distribution, "_CORES", 2)
        later_failed = threading.Event()

        def f(b):  # block 1 runs on the helper, block 2 on the calling thread
            if b[0] == 7.0:
                raise KeyError(f"block 1, after block 2: {later_failed.wait(10.0)}")
            if b[0] == 14.0:
                later_failed.set()
                raise ValueError("block 2")
            return b

        with pytest.raises(KeyError, match="block 1, after block 2: True"):
            distribution._blockwise(f, np.arange(16 * 7.0))

    def test_many_threads_with_fast_switching(self, monkeypatch):
        # 16 threads on fewer cores, switching every microsecond: every block
        # lands in its place, and of the failing blocks the first one wins,
        # though the next block, on the next thread, fails sooner
        u = np.random.default_rng(19).random(3 * 8 * 16 * 3)
        want = quantile(P_APT, u)  # one block

        def f(b):
            if np.any(b >= 1.0):
                time.sleep(0.002 if b.max() == 2.0 else 0.0)
                raise ValueError(f"u = {b.max()}")
            return quantile(P_APT, b)

        bad = u.copy()
        bad[[3 * 17, 3 * 18, 1000]] = 2.0, 3.0, 1.0  # blocks 17, 18 and 333
        monkeypatch.setattr(distribution, "_BLOCK", 3)
        monkeypatch.setattr(distribution, "_CORES", 16)
        started = _count_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert np.all(distribution._blockwise(f, u) == want)
                with pytest.raises(ValueError, match=re.escape("u = 2.0")):
                    distribution._blockwise(f, bad)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 2 * 20 * 15

    def test_errstate_holds_in_helper_threads(self, monkeypatch):
        # exp(-theta*x) underflows at x = 2000; that point lies in block 1,
        # which a helper thread evaluates, and raises there as it does serially
        x = np.full(16 * 7, 0.5)
        x[7 + 3] = 2000.0
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        for cores, helpers in [(1, 0), (2, 1)]:
            monkeypatch.setattr(distribution, "_CORES", cores)
            started = _count_threads(monkeypatch)
            assert pdf(P_APT, x)[10] == 0.0
            with np.errstate(under="raise"):
                with pytest.raises(FloatingPointError, match="underflow"):
                    pdf(P_APT, x)
            assert len(started) == 2 * helpers


class TestSample:
    def test_deterministic(self):
        s1 = sample(P_APT, 1000, seed=42)
        s2 = sample(P_APT, 1000, seed=42)
        assert np.array_equal(s1.values, s2.values)

    def test_single_draw_is_quantile_of_first_uniform(self):
        u0 = np.random.default_rng(7).random(1)[0]
        s = sample(P_APT, 1, seed=7)
        assert s.values[0] == quantile(P_APT, u0)

    def test_nonnegative_and_sorted(self):
        s = sample(P_ONE, 5000, seed=3)
        assert s.values[0] >= 0.0
        assert np.all(np.diff(s.values) >= 0.0)

    def test_kolmogorov_smirnov_band(self):
        s = sample(P_APT, 10**5, seed=42)
        grid = cdf(P_APT, s.values)
        i = np.arange(1, s.n + 1)
        dist = max(np.max(i / s.n - grid), np.max(grid - (i - 1) / s.n))
        assert dist < 1.358 / math.sqrt(s.n)  # 95% band

    @pytest.mark.parametrize("p", [P_APT, P_ONE], ids=["apt", "alpha-one"])
    @pytest.mark.parametrize("cores", [1, 4])
    def test_values_are_the_sorted_quantiles_of_the_uniforms(self, monkeypatch, p, cores):
        # the quantiles written over the uniforms, in blocks of 7 points on
        # one thread or four, and sorted in place: bitwise the quantiles of
        # the uniforms, sorted
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        monkeypatch.setattr(distribution, "_CORES", cores)
        started = _count_threads(monkeypatch)
        for n, seed in [(1, 5), (7 * 41 + 3, 23), (1000, [4, 2])]:
            want = np.sort(quantile(p, np.random.default_rng(seed).random(n)))
            del started[:]
            got = sample(p, n, seed).values
            assert got.shape == (n,)
            assert np.all(got == want)
            assert len(started) == (0 if n == 1 else cores - 1)

    def test_peak_memory_about_the_output(self):
        # one n-point buffer holds the uniforms, then their quantiles, sorted
        # in place; beside it, only the blocks' temporaries
        n = 2**18
        sample(P_APT, n, seed=1)  # numpy.random's first-use allocations
        tracemalloc.start()
        try:
            s = sample(P_APT, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * s.values.nbytes

    def test_sorted_quantiles_of_rows_in_place(self, monkeypatch):
        # a study's chunk of uniform rows becomes its sorted quantile rows in
        # place, threaded across rows; the rows are checked where they are
        # fitted, so a quantile beyond the float range is inf and sorts last
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        monkeypatch.setattr(distribution, "_CORES", 2)
        u = np.random.default_rng(29).random((9, 31))
        want = np.sort(quantile(P_APT, u), axis=1)
        assert distribution._sorted_quantiles(P_APT, u) is u
        assert np.all(u == want)
        with pytest.raises(DomainError, match="quantile requires"):
            distribution._sorted_quantiles(P_APT, np.full((2, 3), np.nan))
        huge = PlAptParams(2.0, 2.5, 3e-308)
        u = np.array([[0.999, 0.3, 0.0]])
        assert distribution._sorted_quantiles(huge, u).tolist() == [[0.0, quantile(huge, 0.3), math.inf]]

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            sample(P_APT, 0, seed=1)
        with pytest.raises(DomainError):
            Sample([])
        with pytest.raises(DomainError):
            Sample([-1.0, 2.0])
        for values in ([1.0, math.nan], [math.inf]):
            with pytest.raises(DomainError, match="sample values must be finite"):
                Sample(values)
        # at theta = 3e-308 the quantile of u above about 0.98 is beyond the float range
        with pytest.raises(DomainError, match="sample values must be finite"):
            sample(PlAptParams(2.0, 2.5, 3e-308), 50, seed=1)


class TestOrderStatistics:
    def test_single_observation_reduces_to_pdf(self):
        x = np.linspace(0.0, 10.0, 50)
        got = order_stat_pdf(P_APT, OrderStatSpec(n=1, k=1), x)
        assert np.max(np.abs(got - pdf(P_APT, x))) <= 1e-15

    # x = 0 makes the cdf 0 and x = 2000 underflows the reliability to 0, so
    # the log term with exponent 0 must be skipped, not formed as 0 * log(0)
    TAIL_X = np.concatenate([np.linspace(0.0, 10.0, 50), [2000.0]])

    def test_maximum_reduction(self):
        x = self.TAIL_X
        assert reliability(P_APT, x[-1]) == 0.0
        got = order_stat_pdf(P_APT, OrderStatSpec(n=5, k=5), x)
        expected = 5.0 * cdf(P_APT, x) ** 4 * pdf(P_APT, x)
        assert np.max(np.abs(got - expected)) <= 1e-13

    def test_minimum_reduction(self):
        x = self.TAIL_X
        got = order_stat_pdf(P_APT, OrderStatSpec(n=5, k=1), x)
        expected = 5.0 * reliability(P_APT, x) ** 4 * pdf(P_APT, x)
        assert np.max(np.abs(got - expected)) <= 1e-13
        assert got[0] == pytest.approx(5.0 * pdf(P_APT, 0.0), rel=1e-15)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            OrderStatSpec(n=5, k=0)
        with pytest.raises(DomainError):
            OrderStatSpec(n=5, k=6)

    def test_median_rejects_m_zero(self):
        with pytest.raises(DomainError):
            median_order_stat_pdf(P_APT, 0, 1.0)

    def test_median_delegates(self):
        x = np.linspace(0.0, 8.0, 40)
        got = median_order_stat_pdf(P_APT, 1, x)
        expected = order_stat_pdf(P_APT, OrderStatSpec(n=3, k=2), x)
        assert np.array_equal(got, expected)

    def test_median_integrates_to_one(self):
        upper = tail_quantile(P_APT, 1e-13)
        total, _ = integrate.quad(
            lambda x: median_order_stat_pdf(P_APT, 2, x), 0.0, upper, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_simulation_histogram_chi_square(self):
        # 4th order statistic of size-7 samples vs the integrated density,
        # chi-square at the 1% level with 20 equal-probability bins
        spec = OrderStatSpec(n=7, k=4)
        reps = 100_000
        rng = np.random.default_rng(2718)
        u4 = np.sort(rng.random((reps, spec.n)), axis=1)[:, spec.k - 1]
        simulated = quantile(P_APT, u4)

        n_bins = 20
        inner = stats.beta.ppf(np.linspace(0, 1, n_bins + 1)[1:-1], spec.k, spec.n - spec.k + 1)
        edges = np.concatenate([[0.0], quantile(P_APT, inner), [tail_quantile(P_APT, 1e-12)]])
        expected = np.array(
            [
                integrate.quad(lambda x: order_stat_pdf(P_APT, spec, x), lo, hi, limit=100)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        assert expected.sum() == pytest.approx(1.0, abs=1e-9)
        observed, _ = np.histogram(simulated, bins=edges)
        chi2 = float(np.sum((observed - reps * expected) ** 2 / (reps * expected)))
        assert chi2 < stats.chi2.ppf(0.99, n_bins - 1)


_DATA = sample(P_APT, 50, seed=1)
# Each public count argument, a call that takes it and a valid value; the
# ExperimentConfig fields and replication indices have tests of their own
_INTEGER_ARGS = {
    "sample-n": (lambda v: sample(P_APT, v, 1), 2),
    "OrderStatSpec-n": (lambda v: OrderStatSpec(v, 2), 2),
    "OrderStatSpec-k": (lambda v: OrderStatSpec(3, v), 2),
    "median_order_stat_pdf-m": (lambda v: median_order_stat_pdf(P_APT, v, 1.0), 1),
    "maxima_normalization-n": (lambda v: maxima_normalization(P_APT, v, 3, 1), 100),
    "maxima_normalization-reps": (lambda v: maxima_normalization(P_APT, 100, v, 1), 3),
    "double_hill_components-k": (lambda v: double_hill_components(_DATA, WeightSpec.hill(), v), 10),
    "WeightSpec.weights-k": (lambda v: WeightSpec.power(0.5).weights(v), 2),
    "fit_mle-max_iter": (lambda v: fit_mle(2.0, _DATA, max_iter=v), 2),
}


@pytest.mark.parametrize("case", list(_INTEGER_ARGS))
@pytest.mark.parametrize("shift", [0.9, 0.0], ids=["float", "integral-float"])
def test_count_must_be_an_integer(case, shift):
    # one rule: 2.9 is not truncated to 2, and 2.0 is refused as well
    call, good = _INTEGER_ARGS[case]
    call(good)
    call(np.int64(good))
    bad = good + shift
    with pytest.raises(TypeError, match=re.escape(f"must be an integer, got {bad!r}")):
        call(bad)


# Each count argument with a range, a call that takes it, the bound that the
# call accepts, the first value beyond it and the error's message
_COUNT_RANGES = {
    "sample-n": (lambda v: sample(P_APT, v, 1), 1, 0, "n must be >= 1, got 0"),
    "OrderStatSpec-n": (lambda v: OrderStatSpec(v, 1), 1, 0, "n must be >= 1, got 0"),
    "OrderStatSpec-k-low": (lambda v: OrderStatSpec(3, v), 1, 0, "k must lie in [1, 3], got 0"),
    "OrderStatSpec-k-high": (lambda v: OrderStatSpec(3, v), 3, 4, "k must lie in [1, 3], got 4"),
    "median_order_stat_pdf-m": (lambda v: median_order_stat_pdf(P_APT, v, 1.0), 1, 0, "m must be >= 1, got 0"),
    "maxima_normalization-n": (lambda v: maxima_normalization(P_APT, v, 3, 1), 100, 99, "n must be >= 100, got 99"),
    "maxima_normalization-reps": (
        lambda v: maxima_normalization(P_APT, 100, v, 1), 1, 0, "reps must lie in [1, 4294967296], got 0"
    ),
    "double_hill_components-k-low": (
        lambda v: double_hill_components(_DATA, WeightSpec.hill(), v), 1, 0, "k must lie in [1, 49], got 0"
    ),
    "double_hill_components-k-high": (
        lambda v: double_hill_components(_DATA, WeightSpec.hill(), v), 49, 50, "k must lie in [1, 49], got 50"
    ),
    "WeightSpec.weights-k": (lambda v: WeightSpec.power(0.5).weights(v), 1, 0, "k must be >= 1, got 0"),
    "fit_mle-max_iter": (lambda v: fit_mle(2.0, _DATA, max_iter=v), 0, -1, "max_iter must be >= 0, got -1"),
    "ExperimentConfig-n": (
        lambda v: ExperimentConfig(kind="recovery", n=v, reps=1, seed=1, truth=P_APT), 2, 1, "n must be >= 2, got 1"
    ),
    "ExperimentConfig-maxima-n": (
        lambda v: ExperimentConfig(kind="maxima_gumbel", n=v, reps=1, seed=1, truth=P_APT),
        100, 99, "n must be >= 100, got 99",
    ),
    "ExperimentConfig-reps": (
        lambda v: ExperimentConfig(kind="recovery", n=2, reps=v, seed=1, truth=P_APT),
        1, 0, "reps must lie in [1, 4294967296], got 0",
    ),
}


@pytest.mark.parametrize("case", list(_COUNT_RANGES))
def test_count_outside_its_range_is_a_domain_error(case):
    call, bound, beyond, message = _COUNT_RANGES[case]
    call(bound)
    with pytest.raises(DomainError) as info:
        call(beyond)
    assert str(info.value) == message


_HUGE = 10**400  # beyond the float range: float(_HUGE) overflows
# Each count that is used as a float: a call that takes it, the start of the
# call's error, the n that the error names for a count v, and the largest
# count the call accepts (None: a study at that n would not fit in memory)
_FLOAT_COUNTS = {
    "OrderStatSpec-n": (lambda v: OrderStatSpec(v, 1), "n must lie in [1, 9007199254740992]", None, 2**53),
    "median_order_stat_pdf-m": (
        lambda v: median_order_stat_pdf(P_APT, v, 1.0), "n must lie in [1, 9007199254740992]",
        lambda m: 2 * m + 1, 2**52 - 1,
    ),
    "maxima_normalization-n": (
        lambda v: maxima_normalization(P_APT, v, 1, 1), "n must lie in [100, 9007199254740992]", None, 2**53
    ),
    "ExperimentConfig-evi_coverage-n": (
        lambda v: ExperimentConfig(kind="evi_coverage", n=v, reps=1, seed=1, truth=P_APT),
        "n must lie in [2, 9007199254740992]", None, None,
    ),
    "sample-n": (lambda v: sample(P_APT, v, 1), "n must lie in [1, 9007199254740992]", None, None),
    "run_experiment-maxima_gumbel-n": (
        lambda v: run_experiment(ExperimentConfig(kind="maxima_gumbel", n=v, reps=1, seed=1, truth=P_APT)),
        "n must lie in [100, 9007199254740992]", None, 2**53,
    ),
}


@pytest.mark.parametrize("case", list(_FLOAT_COUNTS))
def test_count_beyond_the_float_range_is_a_domain_error(case):
    # not the OverflowError of float(n): the count's range stops at 2**53
    call, message, n_of, bound = _FLOAT_COUNTS[case]
    if bound is not None:
        call(bound)
    for beyond in ([] if bound is None else [bound + 1]) + [_HUGE]:
        with pytest.raises(DomainError) as info:
            call(beyond)
        assert str(info.value) == f"{message}, got {n_of(beyond) if n_of else beyond}"
