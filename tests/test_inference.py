import math

import numpy as np
import pytest

from plapt import (
    DomainError,
    NumericalError,
    PlAptParams,
    Sample,
    fit_mle,
    fit_mle_profile,
    lindley_family,
    log_likelihood,
    model_compare,
    pdf,
    pl_apt_family,
    pseudo_lindley_family,
    sample,
    score,
)
from plapt import inference
from plapt.inference import _FAILED, _STATUS, MAX_ITER, FamilySpec, _fit_chunk, _fit_rows, _loglik_derivatives


def _fd_score(alpha, theta, beta, data):
    h_t = 1e-6 * max(1.0, abs(theta))
    h_b = min(1e-6 * max(1.0, abs(beta)), 0.4 * (beta - 1.0))
    d_t = (
        log_likelihood(alpha, theta + h_t, beta, data)
        - log_likelihood(alpha, theta - h_t, beta, data)
    ) / (2.0 * h_t)
    d_b = (
        log_likelihood(alpha, theta, beta + h_b, data)
        - log_likelihood(alpha, theta, beta - h_b, data)
    ) / (2.0 * h_b)
    return d_t, d_b


def _fd_hessian(alpha, theta, beta, data):
    # central differences of the analytic score, column by column
    h_t = 1e-6 * max(1.0, abs(theta))
    h_b = min(1e-6 * max(1.0, abs(beta)), 0.4 * (beta - 1.0))
    col_t = np.subtract(score(alpha, theta + h_t, beta, data), score(alpha, theta - h_t, beta, data))
    col_b = np.subtract(score(alpha, theta, beta + h_b, data), score(alpha, theta, beta - h_b, data))
    return np.column_stack([col_t / (2.0 * h_t), col_b / (2.0 * h_b)])


class TestLogLikelihood:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_equals_sum_of_log_pdf(self, alpha):
        p = PlAptParams(alpha, 2.5, 0.6)
        data = sample(p, 100, seed=11)
        direct = float(np.sum(np.log(pdf(p, data.values))))
        got = log_likelihood(alpha, 0.6, 2.5, data)
        assert got == pytest.approx(direct, rel=1e-10)

    def test_alpha_below_one_at_origin(self):
        # density at 0 is theta * (log a/(a-1)) * (beta-1)/beta, real for 0<a<1
        got = log_likelihood(0.5, 1.0, 2.0, Sample([0.0]))
        expected = math.log((math.log(0.5) / (0.5 - 1.0)) * 1.0 * 0.5)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_parameter_validation(self):
        data = Sample([1.0, 2.0])
        for bad in (dict(alpha=-1.0), dict(theta=0.0), dict(beta=1.0)):
            kwargs = dict(alpha=2.0, theta=1.0, beta=2.0) | bad
            with pytest.raises(DomainError):
                log_likelihood(kwargs["alpha"], kwargs["theta"], kwargs["beta"], data)


class TestScore:
    def test_finite_difference_sweep(self):
        rng = np.random.default_rng(42)
        alphas = [0.3, 0.9, 1.0, 1.5, 4.0]
        for trial in range(40):
            alpha = alphas[trial % len(alphas)]
            theta = float(rng.uniform(0.1, 10.0))
            beta = float(rng.uniform(1.05, 10.0))
            data = sample(PlAptParams(max(alpha, 0.3), beta, theta), 50, seed=trial)
            got = score(alpha, theta, beta, data)
            fd = _fd_score(alpha, theta, beta, data)
            for g, f in zip(got, fd):
                assert abs(g - f) <= 1e-5 * max(1.0, abs(f))
            hess = _loglik_derivatives(alpha, theta, beta, data)[2]
            fd_hess = _fd_hessian(alpha, theta, beta, data)
            assert np.all(np.abs(hess - fd_hess) <= 1e-6 * np.maximum(1.0, np.abs(fd_hess)))

    def test_alpha_one_reduction(self):
        data = sample(PlAptParams(1.0, 1.5, 3.0), 200, seed=5)
        theta, beta = 2.8, 1.6
        _, d_beta = score(1.0, theta, beta, data)
        direct = -data.n / beta + float(np.sum(1.0 / (beta - 1.0 + theta * data.values)))
        assert d_beta == pytest.approx(direct, rel=1e-14)

    def test_zero_at_fitted_maximum(self):
        data = sample(PlAptParams(2.0, 2.5, 0.6), 2000, seed=3)
        fit = fit_mle(2.0, data)
        assert fit.converged
        s = score(2.0, fit.params.theta, fit.params.beta, data)
        assert math.hypot(*s) <= 1e-8 * data.n


class TestFit:
    def test_recovers_truth_roughly(self):
        truth = PlAptParams(2.0, 2.5, 0.6)
        data = sample(truth, 10_000, seed=99)
        fit = fit_mle(2.0, data)
        assert fit.converged
        assert abs(fit.params.theta - truth.theta) <= 4.0 * fit.stderr_theta
        assert abs(fit.params.beta - truth.beta) <= 4.0 * fit.stderr_beta
        assert fit.covariance is not None
        assert np.all(np.linalg.eigvalsh(fit.covariance) >= -1e-12)

    def test_starts_at_stationary_point(self):
        data = sample(PlAptParams(1.0, 1.5, 3.0), 5000, seed=21)
        first = fit_mle(1.0, data)
        again = fit_mle(1.0, data, init=(first.params.theta, first.params.beta))
        assert again.converged
        assert again.iterations <= 2

    def test_restart_invariance(self):
        data = sample(PlAptParams(1.5, 1.8, 1.2), 3000, seed=8)
        rng = np.random.default_rng(0)
        fits = [fit_mle(1.5, data)]
        for _ in range(5):
            init = (float(rng.uniform(0.3, 4.0)), float(rng.uniform(1.2, 6.0)))
            fits.append(fit_mle(1.5, data, init=init))
        logliks = [f.loglik for f in fits if f.converged]
        assert len(logliks) >= 5
        assert max(logliks) - min(logliks) <= 1e-6
        thetas = [f.params.theta for f in fits if f.converged]
        assert (max(thetas) - min(thetas)) / max(thetas) <= 1e-4

    def test_scale_equivariance(self):
        data = sample(PlAptParams(2.0, 2.5, 0.6), 2000, seed=5)
        c = 3.0
        base = fit_mle(2.0, data)
        scaled = fit_mle(2.0, Sample(data.values * c))
        assert scaled.params.theta == pytest.approx(base.params.theta / c, rel=1e-6)
        assert scaled.params.beta == pytest.approx(base.params.beta, rel=1e-6)

    def test_non_convergence_is_reported_not_raised(self):
        data = sample(PlAptParams(2.0, 2.5, 0.6), 500, seed=1)
        fit = fit_mle(2.0, data, init=(5.0, 9.0), max_iter=1)
        assert not fit.converged
        assert fit.status == "max_iter"
        assert fit.iterations == 1

    def test_too_small_sample_rejected(self):
        with pytest.raises(DomainError):
            fit_mle(2.0, Sample([1.0]))

    def test_profile_prefers_higher_likelihood(self):
        data = sample(PlAptParams(2.0, 2.5, 0.6), 3000, seed=17)
        best, fits = fit_mle_profile([0.5, 1.0, 2.0, 4.0], data)
        assert len(fits) == 4
        assert best.loglik == max(f.loglik for f in fits if f.status != "max_iter")


class TestBoundary:
    def test_beta_inf_named_within_twenty_iterations(self):
        # At alpha = 4 this sample's likelihood still rises as beta -> inf;
        # Newton's method used to walk to beta = 5.4e4 in 77 iterations and
        # call that converged.
        data = sample(PlAptParams(2.0, 2.5, 1.5), 100_000, seed=9)
        fit = fit_mle(4.0, data)
        assert fit.status == "boundary_beta_inf"
        assert not fit.converged
        assert fit.iterations <= 20
        assert fit.params.beta > 1e3
        assert score(4.0, fit.params.theta, fit.params.beta, data)[1] > 0.0

    def test_beta_one_named(self):
        # Gamma(3) data are more peaked than the beta = 1 member, Gamma(2),
        # so the likelihood rises all the way to beta -> 1.
        data = Sample(np.random.default_rng(0).gamma(3.0, 1.0, 500))
        for alpha in (1.0, 2.0):
            fit = fit_mle(alpha, data)
            assert fit.status == "boundary_beta_one"
            assert 1.0 < fit.params.beta < 1.0 + 1e-6
            assert score(alpha, fit.params.theta, fit.params.beta, data)[1] < 0.0

    def test_boundary_fit_is_scored_not_flagged(self):
        data = Sample(np.random.default_rng(0).gamma(3.0, 1.0, 500))
        best, fits = fit_mle_profile([1.0, 2.0], data)
        assert best.status == "boundary_beta_one"
        assert best.loglik == max(f.loglik for f in fits)
        row = model_compare(data, [pseudo_lindley_family()])[0]
        assert row.error is None and not row.converged
        assert math.isfinite(row.aic)


class TestModelCompare:
    def test_nested_ordering(self):
        data = sample(PlAptParams(1.0, 2.0, 1.0), 1500, seed=2)
        rows = model_compare(
            data,
            [pseudo_lindley_family(), pl_apt_family(alpha_grid=[0.5, 1.0, 2.0])],
        )
        by_name = {r.name: r for r in rows}
        assert by_name["pl_apt"].loglik >= by_name["pseudo_lindley"].loglik - 1e-6

    def test_failed_candidate_flagged_others_intact(self):
        data = sample(PlAptParams(1.0, 2.0, 1.0), 500, seed=4)
        rows = model_compare(
            data, [lindley_family(), FamilySpec(name="broken", kind="not_a_kind")]
        )
        assert rows[0].error is None and math.isfinite(rows[0].aic)
        assert rows[1].error is not None and math.isnan(rows[1].aic)

    def test_aic_bic_definitions(self):
        data = sample(PlAptParams(1.0, 2.0, 1.0), 400, seed=6)
        row = model_compare(data, [pseudo_lindley_family()])[0]
        assert row.aic == pytest.approx(2 * row.n_free - 2 * row.loglik, rel=1e-15)
        assert row.bic == pytest.approx(
            row.n_free * math.log(data.n) - 2 * row.loglik, rel=1e-15
        )

    def test_lindley_parsimony_on_lindley_data(self):
        # data from the one-parameter sub-family: the parsimonious candidate
        # should win or nearly win AIC in at least 90% of replications
        theta = 1.0
        truth = PlAptParams(1.0, 1.0 + theta, theta)
        wins = 0
        reps = 200
        for rep in range(reps):
            data = sample(truth, 500, seed=10_000 + rep)
            rows = model_compare(
                data,
                [lindley_family(), pl_apt_family(alpha_grid=[0.5, 1.0, 2.0, 4.0])],
            )
            by_name = {r.name: r for r in rows}
            if by_name["lindley"].aic <= by_name["pl_apt"].aic + 2.0:
                wins += 1
        assert wins >= 0.9 * reps


def _same_fit(a, b):
    # Bitwise equality of two FitResults (NaN standard errors equal NaN).
    assert a.params == b.params
    assert (a.loglik, a.score_norm, a.iterations, a.status) == (b.loglik, b.score_norm, b.iterations, b.status)
    for x, y in ((a.stderr_theta, b.stderr_theta), (a.stderr_beta, b.stderr_beta)):
        assert x == y or (math.isnan(x) and math.isnan(y))
    assert (a.covariance is None) == (b.covariance is None)
    if a.covariance is not None:
        assert np.array_equal(a.covariance, b.covariance)


def _mixed_rows():
    # Three n = 500 samples whose fits at alpha 4 end in different ways.
    return np.stack([
        sample(PlAptParams(2.0, 2.5, 1.5), 500, seed=2).values,  # boundary_beta_inf at 4
        Sample(np.random.default_rng(0).gamma(3.0, 1.0, 500)).values,  # boundary_beta_one
        sample(PlAptParams(1.5, 1.8, 1.2), 500, seed=8).values,  # converges
    ])


class TestLockstep:
    # A lane's result does not depend on the lanes fitted beside it.

    def test_profile_equals_separate_fits(self):
        data = sample(PlAptParams(2.0, 2.5, 0.6), 700, seed=31)
        grid = [0.5, 1.0, 1.5, 2.0, 4.0]
        best, fits = fit_mle_profile(grid, data)
        for a, fit in zip(grid, fits):
            _same_fit(fit, fit_mle(a, data))
        assert any(best is f for f in fits)

    def test_mixed_lanes_equal_separate_calls(self):
        rows = _mixed_rows()
        alphas = [4.0, 1.0, 1.5, 2.0]
        together = _fit_rows(rows, alphas)
        for row, fits in zip(rows, together):
            for a, fit in zip(alphas, fits):
                _same_fit(fit, fit_mle(a, Sample(row)))
        assert [fits[0].status for fits in together] == ["boundary_beta_inf", "boundary_beta_one", "converged"]
        # An iteration limit between the lanes' counts stops some lanes
        # beside others that converge.
        limit = 8
        limited = _fit_rows(rows, alphas, max_iter=limit)
        for row, fits in zip(rows, limited):
            for a, fit in zip(alphas, fits):
                _same_fit(fit, fit_mle(a, Sample(row), max_iter=limit))
        statuses = {fit.status for fits in limited for fit in fits}
        assert {"max_iter", "converged"} <= statuses

    @pytest.mark.parametrize("init", [None, (0.05, 30.0)])
    def test_no_ascent_exit(self, monkeypatch, init):
        # A tolerance that asks every step to gain 0.1 % of |loglik| soon
        # rejects all the halvings of a step; each lane then stops at
        # max_iter after its own number of accepted steps.
        monkeypatch.setattr(inference, "_LOGLIK_RTOL", -1e-3)
        rows = _mixed_rows()
        alphas = [4.0, 1.0, 2.0]
        together = _fit_rows(rows, alphas, init)
        for row, fits in zip(rows, together):
            for a, fit in zip(alphas, fits):
                _same_fit(fit, fit_mle(a, Sample(row), init))
        fits = [fit for fits in together for fit in fits]
        assert {fit.status for fit in fits} == {"max_iter"}
        assert len({fit.iterations for fit in fits}) > 1

    def test_failed_lane_does_not_stop_the_others(self):
        data = sample(PlAptParams(2.0, 2.5, 0.6), 300, seed=3)
        x = np.stack([data.values, data.values])
        theta = np.array([1.0 / np.mean(data.values), 1e-300])  # a singular Hessian at the second start
        with np.errstate(divide="ignore", invalid="ignore"):
            final, status, iterations = _fit_chunk(x, np.array([2.0, 2.0]), theta, np.array([2.0, 2.0]), MAX_ITER)
        fit = fit_mle(2.0, data)
        assert status[1] == _FAILED
        assert (_STATUS[status[0]], iterations[0]) == (fit.status, fit.iterations)
        assert (final[2, 0], final[3, 0]) == (fit.params.theta, fit.params.beta)


_ZEROS = Sample([0.0, 0.0, 0.0])
_GOOD = sample(PlAptParams(2.0, 2.5, 0.6), 200, seed=5)
_SUBNORMAL = Sample([5e-324, 5e-324, 1e-323])  # the default start 1/mean overflows


class TestErrors:
    # The exception each fitting entry point gives for a bad sample, grid
    # or start point.

    @pytest.mark.parametrize(
        "data, alpha, init, message",
        [
            (_ZEROS, 2.0, None, "degenerate sample: all observations are zero"),
            (Sample([1.0]), 2.0, None, "fitting requires at least two observations"),
            (Sample([1.0]), -1.0, (0.0, 2.0), "fitting requires at least two observations"),
            (_GOOD, -1.0, None, "alpha must be a positive real, got -1.0"),
            (_GOOD, 2.0, (0.0, 2.0), "theta must be a positive real, got 0.0"),
            (_GOOD, 2.0, (1.0, 1.0), "beta must exceed 1, got 1.0"),
            (_GOOD, -1.0, (1.0, 1.0), "alpha must be a positive real, got -1.0"),
            (_ZEROS, -1.0, None, "degenerate sample: all observations are zero"),
            (_ZEROS, 2.0, (1.0, 2.0), "degenerate sample: all observations are zero"),
            (_SUBNORMAL, 2.0, None, "sample mean 5e-324 is too small to start a fit from"),
            (_SUBNORMAL, -1.0, None, "alpha must be a positive real, got -1.0"),
        ],
    )
    def test_fit_mle(self, data, alpha, init, message):
        with pytest.raises(DomainError) as info:
            fit_mle(alpha, data, init)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "data, grid, init, message",
        [
            (_ZEROS, [0.5, 2.0], None, "degenerate sample: all observations are zero"),
            (Sample([1.0]), [0.5, 2.0], None, "fitting requires at least two observations"),
            (_GOOD, [2.0, -1.0], None, "alpha must be a positive real, got -1.0"),
            (_GOOD, [], None, "alpha grid must be nonempty"),
            (Sample([1.0]), [], (0.0, 2.0), "alpha grid must be nonempty"),
            (_GOOD, [0.5, 2.0], (1.0, 0.5), "beta must exceed 1, got 0.5"),
            (_GOOD, [0.5, -1.0], (1.0, 0.5), "beta must exceed 1, got 0.5"),
            (_ZEROS, [0.5, 2.0], (1.0, 2.0), "degenerate sample: all observations are zero"),
        ],
    )
    def test_fit_mle_profile(self, data, grid, init, message):
        with pytest.raises(DomainError) as info:
            fit_mle_profile(grid, data, init)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "data, grid, messages",
        [
            (_ZEROS, [0.5, 2.0], ["degenerate sample: all observations are zero"] * 3),
            (Sample([1.0]), [0.5, 2.0], [None] + ["fitting requires at least two observations"] * 2),
            (_GOOD, [2.0, -1.0], [None, None, "alpha must be a positive real, got -1.0"]),
            (_GOOD, [], [None, None, "alpha grid must be nonempty"]),
        ],
    )
    def test_model_compare(self, data, grid, messages):
        candidates = [lindley_family(), pseudo_lindley_family(), pl_apt_family(alpha_grid=grid)]
        rows = model_compare(data, candidates)
        assert [row.error for row in rows] == messages
