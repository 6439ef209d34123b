import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from plapt import (
    DomainError,
    NumericalError,
    PlaptError,
    PlAptParams,
    Sample,
    WeightSpec,
    a_function,
    double_hill_components,
    evi_asymptotic_test,
    extremal_quantile,
    gumbel_ks_distance,
    hazard,
    maxima_normalization,
    pi_variation_check,
    quantile,
    replication_rng,
    sample,
    tail_constant,
    tail_quantile,
)
from plapt import extremes

P = PlAptParams(2.0, 2.5, 0.6)


def random_triples(count, seed):
    rng = np.random.default_rng(seed)
    triples = []
    while len(triples) < count:
        alpha = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
        if abs(alpha - 1.0) < 0.05:
            continue
        triples.append(
            PlAptParams(alpha, float(rng.uniform(1.05, 5.0)), float(rng.uniform(0.5, 5.0)))
        )
    return triples


class TestTailConstant:
    def test_negative_for_both_sides_of_one(self):
        assert tail_constant(2.0, 2.5) < 0.0
        assert tail_constant(0.5, 1.1) < 0.0

    def test_negative_on_random_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            alpha = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            if abs(alpha - 1.0) < 1e-3:
                continue
            assert tail_constant(alpha, float(rng.uniform(1.0001, 10.0))) < 0.0

    def test_non_finite_rejected(self):
        for alpha, beta in ((0.0, 2.0), (math.nan, 2.0), (math.inf, 2.0), (2.0, math.nan)):
            with pytest.raises(DomainError):
                tail_constant(alpha, beta)

    def test_parameters_follow_the_params_rule(self):
        # refused as PlAptParams refuses them, with its message: at beta = -3
        # the formula would give +43.47, at beta = 0.5 and a subnormal alpha a number
        for alpha, beta in ((2.0, -3.0), (2.0, 0.5), (1e-310, 2.0)):
            with pytest.raises(DomainError) as info:
                tail_constant(alpha, beta)
            with pytest.raises(DomainError) as expected:
                PlAptParams(alpha, beta, 1.0)
            assert str(info.value) == str(expected.value)

    def test_alpha_one_limit(self):
        # C(1, beta) = -beta*exp(-beta), the limit from both sides
        for beta in (1.1, 2.5, 7.0):
            c = tail_constant(1.0, beta)
            assert c == -beta * math.exp(-beta)
            for alpha in (1.0 - 1e-9, 1.0 + 1e-9):
                assert tail_constant(alpha, beta) == pytest.approx(c, rel=1e-8)


class TestAFunction:
    def test_small_u_linear_coefficient(self):
        got = a_function(P, 1e-8) / 1e-8
        assert got == pytest.approx(tail_constant(P.alpha, P.beta), rel=1e-6)

    def test_value_at_u_equal_one(self):
        # log(alpha + u(1-alpha)) vanishes at u=1, leaving -beta*exp(-beta)
        p = PlAptParams(2.0, 2.0, 1.0)
        assert a_function(p, 1.0) == pytest.approx(-2.0 * math.exp(-2.0), rel=1e-15)

    def test_membership_in_lambert_domain(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            alpha = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
            if abs(alpha - 1.0) < 1e-3:
                continue
            p = PlAptParams(alpha, float(rng.uniform(1.001, 8.0)), 1.0)
            a = a_function(p, float(rng.uniform(1e-12, 1.0)))
            assert -1.0 / math.e < a < 0.0

    def test_tail_mass_domain(self):
        # tail masses outside (0, 1], non-finite ones included, as tail_quantile
        for u in (0.0, 1.5, math.nan, math.inf, np.array([0.5, math.nan])):
            with pytest.raises(DomainError):
                a_function(P, u)

    def test_alpha_one_is_linear(self):
        p = PlAptParams(1.0, 2.0, 1.0)
        u = np.array([1e-300, 1e-8, 0.5, 1.0])
        assert np.array_equal(a_function(p, u), tail_constant(1.0, 2.0) * u)

    @pytest.mark.parametrize("beta", [700.0, 730.0, 740.0])
    def test_subnormal_a_keeps_its_digits(self, beta):
        # from beta of about 708, exp(-beta) and A are subnormal: A is then
        # within one subnormal spacing of 50 digits, and normal A within 1e-14
        got = a_function(PlAptParams(2.0, beta, 1.0), 0.5)
        with mpmath.workdps(50):
            b = mpmath.mpf(beta)
            s = mpmath.log1p(mpmath.mpf(-0.25)) / -mpmath.log(2)
            want = -b * mpmath.exp(-b) * s
        if abs(want) >= np.finfo(float).tiny:
            assert abs(got - want) <= 1e-14 * abs(want)
        else:
            assert abs(got - want) <= 5e-324


class TestExtremalQuantile:
    def test_close_to_exact_at_small_u(self):
        p = PlAptParams(0.5, 1.1, 0.6)
        e = extremal_quantile(p, 1e-6)
        assert abs(e.value - tail_quantile(p, 1e-6)) < 2e-3

    def test_error_decays_with_u(self):
        for p in random_triples(20, seed=11):
            err_coarse = abs(extremal_quantile(p, 1e-4).value - tail_quantile(p, 1e-4))
            err_fine = abs(extremal_quantile(p, 1e-8).value - tail_quantile(p, 1e-8))
            assert err_fine < err_coarse

    def test_components_sum_to_value(self):
        e = extremal_quantile(P, 1e-5)
        assert sum(e.components.values()) == pytest.approx(e.value, rel=1e-15)
        assert set(e.components) == {"constant", "log", "loglog", "inv_log", "remainder"}

    def test_component_ordering(self):
        # below u=1e-4 the log term dominates loglog, which dominates the
        # 1/log term, in absolute value
        for p in random_triples(10, seed=13):
            for u in (1e-5, 1e-8):
                comp = extremal_quantile(p, u).components
                assert abs(comp["log"]) > abs(comp["loglog"]) > abs(comp["inv_log"])

    def test_constant_matches_definition(self):
        e = extremal_quantile(P, 1e-4)
        c = tail_constant(P.alpha, P.beta)
        assert e.c_ab == pytest.approx(c, rel=1e-15)
        assert e.c0 == pytest.approx((-P.beta - math.log(-c)) / P.theta, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            extremal_quantile(P, 0.2)
        with pytest.raises(DomainError):
            extremal_quantile(P, 0.0)

    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.5])
    def test_alpha_one(self, beta):
        # the bounds of the alpha != 1 tests above
        p = PlAptParams(1.0, beta, 0.6)
        assert abs(extremal_quantile(p, 1e-6).value - tail_quantile(p, 1e-6)) < 2e-3
        errors = [abs(extremal_quantile(p, u).value - tail_quantile(p, u)) for u in (1e-4, 1e-8, 1e-10)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-2
        for u in (1e-5, 1e-8):
            comp = extremal_quantile(p, u).components
            assert abs(comp["log"]) > abs(comp["loglog"]) > abs(comp["inv_log"])
        assert extremal_quantile(p, 1e-4).c_ab == tail_constant(1.0, beta)


@pytest.mark.parametrize("alpha", [2.0, 1.0])
@pytest.mark.parametrize("function", [tail_quantile, a_function, extremal_quantile], ids=lambda f: f.__name__)
def test_underflowed_lambert_argument_is_a_numerical_error(function, alpha):
    # At u = 5e-324 the Lambert argument A rounds to 0: a_function, which
    # returns it, raises; the quantile and its expansion never form it and
    # hold there (tests/test_distribution.py checks the quantile against 50 digits).
    p = PlAptParams(alpha, 2.5, 1.5)
    if function is a_function:
        with pytest.raises(NumericalError, match="underflows"):
            a_function(p, 5e-324)
        return
    want = tail_quantile(p, 5e-324)
    assert 490.0 < want < math.inf
    if function is extremal_quantile:
        e = extremal_quantile(p, 5e-324)
        assert abs(e.value - want) < 1e-2
        assert sum(e.components.values()) == pytest.approx(e.value, rel=1e-14)


class TestLargeBeta:
    """From beta of about 745, beta*exp(-beta) and the float C(alpha, beta)
    underflow to 0; the quantiles, the expansion and the maxima, which work
    in t = theta*x and in logs, hold for every beta."""

    def test_expansion_past_the_underflow_of_c(self):
        p = PlAptParams(2.0, 800.0, 1.0)
        assert tail_constant(2.0, 800.0) == 0.0
        e = extremal_quantile(p, 1e-10)
        assert abs(e.value - tail_quantile(p, 1e-10)) < 1e-2
        assert sum(e.components.values()) == pytest.approx(e.value, rel=1e-14)
        assert e.c0 == pytest.approx(math.log(2.0 * math.log(2.0)) - math.log(800.0), rel=1e-15)
        with pytest.raises(NumericalError, match="underflows"):
            a_function(p, 0.5)

    def test_normalized_maxima_at_beta_one_million(self):
        p, n = PlAptParams(2.0, 1e6, 1.0), 10**4
        g = np.array([0.0, 0.3, 0.9, 0.999999])
        with np.errstate(divide="ignore"):  # g = 0 is the maximum of tail mass 1
            x_max = tail_quantile(p, -np.expm1(np.log(g) / n))
        want = p.theta * (x_max - tail_quantile(p, 1.0 / n))
        assert np.allclose(extremes._normalized_maxima(p, n, g), want, rtol=1e-13, atol=1e-13)


class TestPiVariation:
    def test_lambda_one_is_exactly_zero(self):
        for point in pi_variation_check(P, 1.0, [1e-4, 1e-6]):
            assert point.residual == 0.0

    def test_residual_decays(self):
        points = pi_variation_check(P, 2.0, [1e-4, 1e-8])
        assert abs(points[1].residual) < abs(points[0].residual)
        assert abs(points[1].residual) < 0.05

    def test_scale_approaches_inverse_theta(self):
        for alpha, beta in ((0.5, 1.1), (1.5, 1.5), (2.0, 2.5)):
            p = PlAptParams(alpha, beta, 0.6)
            point = pi_variation_check(p, 2.0, [1e-8])[0]
            assert point.scale * p.theta == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(DomainError):
            pi_variation_check(P, -1.0, [1e-4])
        with pytest.raises(DomainError):
            pi_variation_check(P, 2.0, [0.5])
        for lam in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match=f"lambda must be a positive real, got {lam}"):
                pi_variation_check(P, lam, [1e-4])
        with pytest.raises(DomainError, match="lambda\\*u must stay below 1, got 1.0"):
            pi_variation_check(P, 200.0, [5e-3])

    @pytest.mark.parametrize(
        "p", [PlAptParams(2.0, 2.5, 1.5), PlAptParams(0.5, 1.1, 0.6), PlAptParams(1.0, 1.5, 3.0)], ids=str
    )
    def test_scale_is_the_reciprocal_hazard(self, p):
        # s(u) = u * Q'(1 - u) = R(Q)/f(Q) at 40 digits, t = theta*Q solving
        # t - log1p(t/beta) = -log s, s the Pseudo-Lindley survival mass at u
        with mpmath.workdps(40):
            a, b, th = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.theta))
            for point in pi_variation_check(p, 2.0, [1e-3, 1e-8]):
                u = mpmath.mpf(point.u)
                log_s = mpmath.log(u if a == 1 else -mpmath.log1p(u * (1 - a) / a) / mpmath.log(a))
                t = mpmath.findroot(lambda t: t - mpmath.log1p(t / b) + log_s, -log_s + 1)
                surv = (1 + t / b) * mpmath.exp(-t)
                dens = th * (b - 1 + t) * mpmath.exp(-t) / b
                if a != 1:
                    dens *= mpmath.log(a) / (a - 1) * a ** (1 - surv)
                    surv = a / (1 - a) * mpmath.expm1(-mpmath.log(a) * surv)
                want = float(surv / dens)
                assert abs(point.scale - want) <= 1e-14 * want, point.u

    def test_tiny_masses(self):
        # down to the smallest subnormal mass, the scale is 1/h(Q(1 - u)) and the residual finite
        p = PlAptParams(2.0, 2.5, 1.5)
        for point in pi_variation_check(p, 2.0, [5e-324, 3e-323, 1e-320]):
            assert abs(point.scale * hazard(p, tail_quantile(p, point.u)) - 1.0) <= 4.4e-16
            assert math.isfinite(point.residual)

    def test_residual_is_theta_free(self):
        grid = [1e-3, 1e-8, 5e-324]
        want = [point.residual for point in pi_variation_check(PlAptParams(2.0, 2.5, 1.5), 2.0, grid)]
        for theta in (1e-308, 1e300, 5e-324):
            points = pi_variation_check(PlAptParams(2.0, 2.5, theta), 2.0, grid)
            assert [point.residual for point in points] == want
            # at a subnormal theta the scale is beyond the float range
            assert [0.0 < point.scale < math.inf for point in points] == [theta != 5e-324] * len(grid)

    def test_empty_grid(self):
        assert pi_variation_check(P, 2.0, []) == []

    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.5])
    def test_alpha_one(self, beta):
        # the bounds of the alpha != 1 tests above
        p = PlAptParams(1.0, beta, 0.6)
        coarse, fine = pi_variation_check(p, 2.0, [1e-4, 1e-8])
        assert abs(fine.residual) < abs(coarse.residual)
        assert abs(fine.residual) < 0.05
        assert fine.scale * p.theta == pytest.approx(1.0, abs=0.05)


def classical_hill(values, k):
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    return math.fsum(np.log(xs[n - k :]) - math.log(xs[n - k - 1])) / k


class TestDoubleHill:
    def test_hill_reduction_bitwise(self):
        rng = np.random.default_rng(8)
        x = rng.random(400) ** -0.7
        rep = double_hill_components(Sample(x), WeightSpec.hill(), k=50)
        hill = classical_hill(x, 50)
        assert abs(rep.m_n - hill) <= 4.0 * math.ulp(max(abs(rep.m_n), abs(hill)))

    def test_constants_for_hill_weights(self):
        rng = np.random.default_rng(9)
        rep = double_hill_components(Sample(rng.random(200) + 0.1), WeightSpec.hill(), k=40)
        assert rep.a_n == pytest.approx(40.0, rel=1e-14)
        assert rep.s_n**2 == pytest.approx(40.0, rel=1e-14)
        assert rep.b_n == pytest.approx(1.0 / math.sqrt(40.0), rel=1e-14)

    def test_power_weights_match_direct_formula(self):
        rng = np.random.default_rng(10)
        x = rng.random(600) ** -0.4
        k, tau = 80, 0.5
        rep = double_hill_components(Sample(x), WeightSpec.power(tau), k=k)
        xs = np.sort(x)
        spacings = np.diff(np.log(xs[len(xs) - k - 1 :]))[::-1]
        j = np.arange(1, k + 1, dtype=float)
        direct = float(np.sum(j**tau * spacings) / np.sum(j ** (tau - 1.0)))
        assert rep.m_n == pytest.approx(direct, rel=5e-15)

    def test_telescoping_identity(self):
        rng = np.random.default_rng(12)
        x = np.exp(rng.normal(size=300))
        k = 70
        rep = double_hill_components(Sample(x), WeightSpec.hill(), k=k)
        assert rep.t_n == pytest.approx(k * classical_hill(x, k), rel=1e-13)

    def test_constants_are_data_free(self):
        rng = np.random.default_rng(14)
        w = WeightSpec.power(1.3, s=2.0)
        rep1 = double_hill_components(Sample(rng.random(300) + 0.5), w, k=60)
        rep2 = double_hill_components(Sample(rng.random(500) ** -0.3), w, k=60)
        assert rep1.a_n == rep2.a_n
        assert rep1.s_n == rep2.s_n
        assert rep1.b_n == rep2.b_n

    def test_domain_errors(self):
        rng = np.random.default_rng(16)
        data = Sample(rng.random(100) + 0.5)
        with pytest.raises(DomainError):
            double_hill_components(data, WeightSpec.hill(), k=100)
        with pytest.raises(DomainError):
            double_hill_components(data, WeightSpec.hill(), k=0)
        with_zeros = Sample(np.concatenate([[0.0] * 5, rng.random(10) + 0.5]))
        with pytest.raises(DomainError):
            double_hill_components(with_zeros, WeightSpec.hill(), k=14)
        # weights without positive finite f(1..k), a_n and s_n: j**400
        # overflows, j**-1000 underflows to 0, gamma(2s + 1) overflows at
        # s = 100, and gamma(2s + 1) - gamma(s + 1)**2 is 0 at s = 1e-300
        for w in (WeightSpec.power(400.0), WeightSpec.power(-1000.0), WeightSpec.hill(s=100.0), WeightSpec.hill(s=1e-300)):
            with pytest.raises(DomainError):
                double_hill_components(data, w, k=50)

    def test_rows_equal_the_one_row_statistic(self):
        rng = np.random.default_rng(20)
        k = 30
        top = np.sort(rng.random((5, k + 1)) ** -0.6, axis=1)
        top[1] = 2.0  # tied top values
        top[3, 0] = 0.0  # a nonpositive top value
        w = WeightSpec.power(0.5, s=0.7)
        stats, errors = extremes._double_hill_rows(top, extremes._hill_weights(w, k))
        assert errors.dtype == object
        assert isinstance(errors[1], NumericalError) and isinstance(errors[3], DomainError)
        for r, (row, got) in enumerate(zip(top, errors)):
            try:
                want = double_hill_components(Sample(row), w, k)
            except PlaptError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                assert all(math.isnan(col[r]) for col in stats.values())
            else:
                assert got is None
                assert {key: col[r] for key, col in stats.items()} == {key: getattr(want, key) for key in stats}

    def test_ties_degenerate(self):
        data = Sample(np.ones(50))
        with pytest.raises(NumericalError):
            double_hill_components(data, WeightSpec.hill(), k=10)

    def test_custom_weights(self):
        rng = np.random.default_rng(17)
        x = rng.random(200) ** -0.5
        table = [1.0, 2.0, 3.0, 4.0, 5.0]
        rep = double_hill_components(Sample(x), WeightSpec.custom(table), k=5)
        hill_rep = double_hill_components(Sample(x), WeightSpec.hill(), k=5)
        assert rep.m_n == pytest.approx(hill_rep.m_n, rel=1e-14)
        with pytest.raises(DomainError):
            double_hill_components(Sample(x), WeightSpec.custom(table), k=6)
        # k below 1 is refused: a table sliced to [:-1] is not f(1..k)
        for weight in (WeightSpec.custom(table), WeightSpec.hill()):
            for k in (0, -1):
                with pytest.raises(DomainError, match="k must be >= 1"):
                    weight.weights(k)

    def test_weight_spec_validation(self):
        with pytest.raises(DomainError):
            WeightSpec.hill(s=0.0)
        with pytest.raises(DomainError):
            WeightSpec(kind="power")
        with pytest.raises(DomainError):
            WeightSpec.custom([1.0, -2.0])
        for table in ([1.0, math.inf], [math.nan]):
            with pytest.raises(DomainError, match="custom weight must be a positive real"):
                WeightSpec.custom(table)
        with pytest.raises(DomainError, match="custom weights require a nonempty table"):
            WeightSpec.custom([])
        for s in (-1.0, math.inf):
            with pytest.raises(DomainError, match=f"s must be a positive real, got {s}"):
                WeightSpec.hill(s=s)
        with pytest.raises(DomainError):
            WeightSpec(kind="bogus")
        with pytest.raises(DomainError):
            WeightSpec.power(tau=math.nan)
        # fields the kind never reads
        for kwargs in (dict(kind="hill", tau=0.5), dict(kind="custom", tau=0.5, table=(1.0,))):
            with pytest.raises(DomainError, match="tau applies to power weights"):
                WeightSpec(**kwargs)
        for kwargs in (dict(kind="hill", table=(1.0,)), dict(kind="power", tau=0.5, table=(1.0,))):
            with pytest.raises(DomainError, match="table applies to custom weights"):
                WeightSpec(**kwargs)


def scalar_double_hill_rows(top, weights, target=None, reversed_power=True):
    """The per-row loop that computed _double_hill_rows' statistics in Python
    floats, one row at a time, with the z statistic at target (NaN without
    one).  Its terms power the spacings through a reversed view, as that
    loop did, or, with reversed_power=False, as one contiguous array, as the
    array form does."""
    s, f_j, a_n, s_n, _ = weights
    with np.errstate(divide="ignore", invalid="ignore"):
        spacings = np.diff(np.log(top), axis=1)
        if reversed_power:
            powered = (spacings.ravel()[::-1] ** s)[::-1].reshape(spacings.shape)
        else:
            powered = spacings**s
        terms = f_j[::-1] * powered
    stats, errors = [], []
    rows = zip(top[:, 0].tolist(), top[:, -1].tolist(), np.any(spacings > 0.0, axis=1).tolist(), terms)
    for lowest, highest, spaced, row_terms in rows:
        error = None
        if not (lowest > 0.0 and highest < math.inf):
            error = DomainError("the top k+1 order statistics must be positive and finite")
        elif not spaced:
            error = NumericalError("all top log-spacings are zero (tied observations)")
        errors.append(error)
        if error is not None:
            stats.append((math.nan,) * 5)
            continue
        t_n = math.fsum(row_terms.tolist())
        ratio = t_n / a_n
        half = extremes._Z975 * (s_n / a_n) * ratio
        z_stat = math.nan if target is None else (a_n / s_n) * (ratio / target**s - 1.0)
        ci_low, ci_high = (max(ratio + d, 0.0) ** (1.0 / s) for d in (-half, half))
        stats.append((t_n, ratio ** (1.0 / s), z_stat, ci_low, ci_high))
    return dict(zip(("t_n", "m_n", "z_stat", "ci_low", "ci_high"), np.array(stats).T)), errors


def _mixed_stack(k, seed):
    # good rows around one of each failing kind: a nonpositive lowest value,
    # a row ending in inf, a NaN row and an all-ties row
    top = np.sort(np.random.default_rng(seed).random((8, k + 1)) ** -0.6, axis=1)
    top[1, 0] = 0.0
    top[3, -1] = math.inf
    top[4] = math.nan
    top[6] = 2.0
    return top


class TestDoubleHillRows:
    """The array form of _double_hill_rows, and at a target the z statistic
    of evi_asymptotic_test on each good row, against the per-row scalar loop."""

    def _compare(self, w, k, target, seed):
        top = _mixed_stack(k, seed)
        weights = extremes._hill_weights(w, k)
        stats, errors = extremes._double_hill_rows(top, weights)
        want, want_errors = scalar_double_hill_rows(top, weights, target)
        assert [type(e) for e in errors] == [type(e) for e in want_errors]
        assert [str(e) for e in errors] == [str(e) for e in want_errors]
        assert [e is None for e in errors] == [True, False, True, False, False, True, False, True]
        good = np.array([e is None for e in errors])
        assert set(stats) == {"t_n", "m_n", "ci_low", "ci_high"}
        for col in stats.values():
            assert col.dtype == float and np.all(np.isnan(col[~good]))
        if target is not None:
            stats = {**stats, "z_stat": np.full(len(top), math.nan)}
            stats["z_stat"][good] = [evi_asymptotic_test(Sample(row), w, k, target).z_stat for row in top[good]]
        return stats, want, good, (top, weights)

    @pytest.mark.parametrize("target", [None, 0.6])
    @pytest.mark.parametrize("w", [WeightSpec.hill(), WeightSpec.power(0.5), WeightSpec.custom(np.linspace(0.5, 4, 40))])
    def test_hill_exponent_is_bitwise(self, w, target):
        stats, want, _, _ = self._compare(w, 40, target, seed=30)
        for key, col in stats.items():
            assert np.array_equal(col, want[key], equal_nan=True), key

    @pytest.mark.parametrize("target", [None, 0.6])
    @pytest.mark.parametrize("s", [0.5, 0.7, 1.5, 2.0])
    def test_other_exponents_within_rounding(self, s, target):
        for seed, w in enumerate((WeightSpec.hill(s=s), WeightSpec.power(0.5, s=s))):
            stats, want, good, (top, weights) = self._compare(w, 60, target, seed=31 + seed)
            # numpy powers the contiguous spacings in another loop than a
            # reversed view: each nonnegative term moves by at most 1 ulp, so
            # the exact sum by at most 2**-52 of itself plus its own rounding
            t_n, old = stats["t_n"][good], want["t_n"][good]
            assert np.all(np.abs(t_n - old) <= 2.0**-51 * old)
            # on the same terms, each statistic is that of the scalar loop to
            # 1 ulp: numpy's ** against Python's
            same_terms, _ = scalar_double_hill_rows(top, weights, target, reversed_power=False)
            for key, col in stats.items():
                ref = same_terms[key][good]
                assert np.all(np.abs(col[good] - ref) <= np.spacing(np.abs(ref))), key


class TestEviTest:
    def test_target_at_estimate_gives_zero(self):
        rng = np.random.default_rng(18)
        data = Sample(rng.random(500) ** -0.5)
        rep = double_hill_components(data, WeightSpec.hill(), k=60)
        res = evi_asymptotic_test(data, WeightSpec.hill(), k=60, target=rep.m_n)
        assert res.z_stat == 0.0
        assert res.p_value == 1.0

    def test_lindeberg_warning_threshold(self):
        rng = np.random.default_rng(19)
        data = Sample(rng.random(500) ** -0.5)
        res_small_k = evi_asymptotic_test(data, WeightSpec.hill(), k=2, target=0.5)
        assert res_small_k.report.b_n > 0.5
        assert res_small_k.lindeberg_warning
        res_large_k = evi_asymptotic_test(data, WeightSpec.hill(), k=100, target=0.5)
        assert not res_large_k.lindeberg_warning

    def test_pareto_z_is_reasonable(self):
        # On exact Pareto data the top log-spacings are independent scaled
        # exponentials, so z at the true index has mean 0 and sd 1 up to
        # sampling error (sd of the sd about 0.035 at 400 replications).
        n, k, reps = 5000, 165, 400
        for i, (gamma, s) in enumerate(((0.5, 0.5), (0.5, 1.0), (2.0, 0.5), (2.0, 1.0))):
            rng = np.random.default_rng([20, i])
            z = np.empty(reps)
            for r in range(reps):
                data = Sample(rng.random(n) ** -gamma)
                res = evi_asymptotic_test(data, WeightSpec.hill(s), k=k, target=gamma)
                assert 0.0 <= res.p_value <= 1.0
                z[r] = res.z_stat
            assert abs(z.mean()) <= 0.25, (gamma, s, z.mean())
            assert 0.85 <= z.std() <= 1.15, (gamma, s, z.std())

    def test_target_validation(self):
        rng = np.random.default_rng(21)
        data = Sample(rng.random(100) + 0.5)
        with pytest.raises(DomainError):
            evi_asymptotic_test(data, WeightSpec.hill(), k=10, target=0.0)
        for target in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match=f"target must be a positive real, got {target}"):
                evi_asymptotic_test(data, WeightSpec.hill(), k=10, target=target)


class TestMaximaNormalization:
    def test_single_replication_finite(self):
        res = maxima_normalization(P, n=100, reps=1, seed=0)
        assert res.normalized.shape == (1,)
        assert math.isfinite(res.normalized[0])

    def test_theta_equivariance_exact(self):
        a = maxima_normalization(PlAptParams(2.0, 2.5, 0.6), n=2000, reps=50, seed=7)
        b = maxima_normalization(PlAptParams(2.0, 2.5, 3.0), n=2000, reps=50, seed=7)
        assert np.array_equal(a.normalized, b.normalized)
        # replication i draws one uniform g from replication_rng(seed, i), and
        # g**(1/n) is distributed as the maximum of n uniforms
        u_max = np.array([replication_rng(7, i).random() for i in range(50)]) ** (1.0 / 2000)
        direct = P.theta * (quantile(P, u_max) - tail_quantile(P, 1.0 / 2000))
        assert np.max(np.abs(a.normalized - direct)) <= 1e-9

    def test_rough_gumbel_agreement(self):
        res = maxima_normalization(P, n=10**4, reps=400, seed=123)
        assert res.ks_distance < 0.12

    def test_ecdf(self):
        res = maxima_normalization(P, n=500, reps=20, seed=5)
        assert res.ecdf(-math.inf) == 0.0
        assert res.ecdf(math.inf) == 1.0
        mid = res.ecdf(float(np.median(res.normalized)))
        assert 0.4 <= mid <= 0.6

    def test_ecdf_of_nan_is_nan(self):
        # as cdf reads NaN at NaN; searchsorted alone sorts NaN last, giving 1
        res = maxima_normalization(PlAptParams(2.0, 2.5, 1.5), n=100, reps=10, seed=1)
        got = res.ecdf([0.0, math.nan])
        assert got[0] == np.mean(res.normalized <= 0.0) and math.isnan(got[1])
        assert math.isnan(res.ecdf(math.nan))

    def test_ecdf_reads_a_sorted_copy(self):
        # normalized stays in replication order, one maximum per stream
        res = maxima_normalization(PlAptParams(2.0, 2.5, 1.5), n=100, reps=50, seed=3)
        before = res.normalized.copy()
        points = np.array([-math.inf, -1.0, 0.0, float(res.normalized[7]), 2.5, math.inf])
        expected = np.searchsorted(np.sort(before), points, "right") / res.reps
        assert np.array_equal(res.ecdf(points), expected)
        assert [res.ecdf(p) for p in points.tolist()] == expected.tolist()
        assert np.array_equal(res.normalized, before)
        assert not np.all(np.diff(res.normalized) >= 0.0)
        assert np.array_equal(res.normalized, maxima_normalization(PlAptParams(2.0, 2.5, 1.5), 100, 50, 3).normalized)

    def test_alpha_one(self):
        # the bounds of the alpha != 1 tests above
        p = PlAptParams(1.0, 2.5, 0.6)
        assert maxima_normalization(p, n=10**4, reps=400, seed=123).ks_distance < 0.12
        res = maxima_normalization(p, n=2000, reps=50, seed=7)
        assert np.array_equal(res.normalized, maxima_normalization(PlAptParams(1.0, 2.5, 3.0), 2000, 50, 7).normalized)
        u_max = np.array([replication_rng(7, i).random() for i in range(50)]) ** (1.0 / 2000)
        direct = p.theta * (quantile(p, u_max) - tail_quantile(p, 1.0 / 2000))
        assert np.max(np.abs(res.normalized - direct)) <= 1e-9

    def test_cost_does_not_grow_with_n(self):
        res = maxima_normalization(PlAptParams(2.0, 2.5, 1.5), n=10**12, reps=2000, seed=1)
        assert np.all(np.isfinite(res.normalized))
        assert res.ks_distance < 0.05

    def test_uniform_edges(self, recwarn):
        # g = 0 is the maximum of tail mass 1, at Q(0) = 0; the largest uniform
        # below 1 still gives a positive tail mass, so a finite maximum.
        n = 1000
        low, high = extremes._normalized_maxima(P, n, np.array([0.0, 1.0 - 2.0**-53]))
        assert low == pytest.approx(-P.theta * tail_quantile(P, 1.0 / n), rel=1e-14)
        v = -math.expm1(math.log1p(-(2.0**-53)) / n)
        assert v > 0.0
        assert math.isfinite(high)
        assert high == pytest.approx(P.theta * (tail_quantile(P, v) - tail_quantile(P, 1.0 / n)), rel=1e-12)
        assert not recwarn.list

    def test_law_of_the_one_uniform_maximum(self):
        # The maxima drawn from one uniform each against maxima of n = 200
        # uniforms each, as drawn before.  The normalized maximum is a
        # decreasing function of the maximum's tail mass times n, so the
        # two-sample KS test compares that tail mass's law.
        n, reps = 200, 20000
        drawn = maxima_normalization(P, n, reps, seed=5).normalized
        u_max = np.random.default_rng(2024).random((reps, n)).max(axis=1)
        reference = P.theta * (quantile(P, u_max) - tail_quantile(P, 1.0 / n))
        assert stats.ks_2samp(drawn, reference).pvalue > 0.01

    def test_validation(self):
        with pytest.raises(DomainError):
            maxima_normalization(P, n=50, reps=10, seed=1)
        with pytest.raises(DomainError):
            maxima_normalization(P, n=1000, reps=0, seed=1)
        with pytest.raises(DomainError, match="need at least one value"):
            gumbel_ks_distance([])

    def test_gumbel_ks_distance_of_exact_gumbel_quantiles(self):
        u = (np.arange(1, 2001) - 0.5) / 2000
        z = -np.log(-np.log(u))
        assert gumbel_ks_distance(z) < 0.001

    def test_gumbel_ks_distance_refuses_nan_keeps_infinities(self):
        for values in ([0.1, math.nan], [math.nan], [math.nan, -math.inf, 0.1]):
            with pytest.raises(DomainError, match="NaN"):
                gumbel_ks_distance(values)
        # the Gumbel cdf is 0 at -inf and 1 at inf
        assert gumbel_ks_distance([-math.inf, math.inf]) == 0.5
