import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapt import (
    DomainError,
    NumericalError,
    PlAptParams,
    PlaptError,
    Sample,
    fit_mle,
    fit_mle_profile,
    lindley_family,
    log_likelihood,
    model_compare,
    pdf,
    pl_apt_family,
    pseudo_lindley_family,
    quantile,
    sample,
    score,
    tail_quantile,
)
from plapt import inference
from plapt.inference import (
    _BETA_INF,
    _BETA_ONE,
    _CONVERGED,
    _FAILED,
    _MAX_ITER,
    _STATUS,
    MAX_ITER,
    FamilySpec,
    _alpha_terms,
    _fit_chunk,
    _fit_rows,
    _lane_derivatives,
    _lindley_rows,
    _loglik_derivatives,
    _model_compare_rows,
    _theta_beta,
)
from plapt.montecarlo import _DEFAULT_ALPHA_GRID


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
            t, m, (_, *derivs) = _loglik_derivatives(alpha, theta, beta, data)
            h_tt, h_tb, h_bb = (v[0] for v in _theta_beta(t, m, *derivs)[1])
            hess = np.array([[h_tt, h_tb], [h_tb, h_bb]])
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
        # A power of two scales the data exactly, and theta with it.
        exact = fit_mle(2.0, Sample(data.values * 2.0**-40))
        assert exact.params.theta == math.ldexp(base.params.theta, 40)
        assert exact.stderr_theta == math.ldexp(base.stderr_theta, 40)
        assert (exact.params.beta, exact.stderr_beta, exact.iterations) == (
            base.params.beta,
            base.stderr_beta,
            base.iterations,
        )

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


def _ldexp(v, k):
    # v * 2**k in one rounding, inf beyond the float range.
    with np.errstate(over="ignore"):
        return np.ldexp(v, k)


def _normal_exponents(x):
    # The k that keep every value of x * 2**k a normal float.
    low = np.frexp(x[x > 0.0].min())[1]
    return 1 - 1022 - low, 1024 - np.frexp(x.max())[1]


_SCALE_SAMPLES = [sample(PlAptParams(2.0, 2.5, 0.6), 50, seed=seed) for seed in range(8)]


class TestScale:
    # theta is a rate: every row is fitted at an exact power-of-two scale.

    @given(st.data(), st.sampled_from(range(len(_SCALE_SAMPLES))), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_power_of_two_scale_law(self, data, which, alpha):
        x = _SCALE_SAMPLES[which].values
        k = data.draw(st.integers(*_normal_exponents(x)))
        base, fit = fit_mle(alpha, Sample(x)), fit_mle(alpha, Sample(np.ldexp(x, k)))
        assert fit.params.theta == _ldexp(base.params.theta, -k)
        assert fit.stderr_theta == _ldexp(base.stderr_theta, -k)
        assert (fit.params.beta, fit.stderr_beta, fit.status, fit.iterations) == (
            base.params.beta,
            base.stderr_beta,
            base.status,
            base.iterations,
        )
        if base.covariance is None:
            assert fit.covariance is None
        else:
            assert np.array_equal(fit.covariance, _ldexp(base.covariance, [[-2 * k, -k], [-k, 0]]))
        n = x.size
        expected = base.loglik - n * k * math.log(2.0)
        assert abs(fit.loglik - expected) <= 1e-15 * (abs(base.loglik) + n * (abs(k) + 2048))

    def test_normal_exponents_reach_both_ends(self):
        x = _SCALE_SAMPLES[0].values
        low, high = _normal_exponents(x)
        assert np.ldexp(x, low).min() >= np.finfo(float).tiny > np.ldexp(x, low - 1).min()
        with np.errstate(over="ignore"):
            assert np.ldexp(x, high).max() < math.inf == np.ldexp(x, high + 1).max()

    @pytest.mark.parametrize("c, theta_variance", [(1e200, 0.0), (1e160, None), (1e-200, math.inf)])
    def test_extreme_scale_fit(self, c, theta_variance):
        # The suite turns RuntimeWarnings into errors: none may be raised, not
        # even where theta's variance leaves the float range.
        x = np.random.default_rng(3).exponential(1.0, 50)
        base, fit = fit_mle(2.0, Sample(x)), fit_mle(2.0, Sample(x * c))
        if theta_variance is not None:
            assert fit.covariance[0, 0] == theta_variance
        assert (fit.status, fit.iterations) == (base.status, base.iterations)
        assert fit.stderr_theta == pytest.approx(base.stderr_theta / c, rel=1e-9)
        assert fit.params.theta == pytest.approx(base.params.theta / c, rel=1e-9)
        assert fit.params.beta == pytest.approx(base.params.beta, rel=1e-9)

    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_extreme_scale_loglik_and_score(self, c):
        x = np.random.default_rng(3).exponential(1.0, 50)
        ll, (s_t, s_b) = log_likelihood(2.0, 1.2, 15.8, Sample(x)), score(2.0, 1.2, 15.8, Sample(x))
        data = Sample(x * c)
        assert log_likelihood(2.0, 1.2 / c, 15.8, data) == pytest.approx(ll - x.size * math.log(c), rel=1e-12)
        got_t, got_b = score(2.0, 1.2 / c, 15.8, data)
        assert got_t == pytest.approx(s_t * c, rel=1e-9)
        assert got_b == pytest.approx(s_b, rel=1e-9)


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
        # An unknown kind fails when the family is built; a candidate whose
        # fit fails is flagged beside intact rows (TestErrors.test_model_compare).
        with pytest.raises(DomainError, match="unknown family kind: 'not_a_kind'"):
            FamilySpec(name="broken", kind="not_a_kind")

    def test_family_spec_rejects_unread_fields(self):
        for kind in ("lindley", "pseudo_lindley"):
            with pytest.raises(DomainError, match="fixed alpha"):
                FamilySpec(name=kind, kind=kind, alpha=2.0)
            with pytest.raises(DomainError, match="alpha_grid"):
                FamilySpec(name=kind, kind=kind, alpha_grid=(0.5, 2.0))
        with pytest.raises(DomainError, match="fixed alpha"):
            FamilySpec(name="pl_apt", kind="pl_apt", alpha=2.0, alpha_grid=(0.5, 2.0))
        with pytest.raises(DomainError, match="fixed alpha"):
            FamilySpec(name="pl_apt", kind="pl_apt", alpha=math.nan, alpha_grid=())
        for kwargs in ({}, {"alpha": 2.0, "alpha_grid": [0.5, 2.0]}):
            with pytest.raises(DomainError, match="specify exactly one of alpha or alpha_grid"):
                pl_apt_family(**kwargs)
        # a fixed-alpha family is one fit at that alpha, with two free parameters
        data = sample(PlAptParams(2.0, 2.5, 1.5), 400, seed=6)
        family = pl_apt_family(alpha=2)
        assert (family.alpha, family.alpha_grid, family._n_free()) == (2.0, None, 2)
        (row,) = model_compare(data, [family])
        assert (row.n_free, row.params) == (2, fit_mle(2.0, data).params)

    def test_aic_bic_definitions(self):
        data = sample(PlAptParams(1.0, 2.0, 1.0), 400, seed=6)
        row = model_compare(data, [pseudo_lindley_family()])[0]
        assert row.aic == pytest.approx(2 * row.n_free - 2 * row.loglik, rel=1e-15)
        assert row.bic == pytest.approx(
            row.n_free * math.log(data.n) - 2 * row.loglik, rel=1e-15
        )

    def test_lindley_root_matches_mpmath(self):
        # The positive root of m*theta**2 + (m - 1)*theta - 2 = 0 at 60
        # digits, for sample means from 1e-300 to 1e15.
        rng = np.random.default_rng(1)
        means = np.concatenate([10.0 ** rng.uniform(-300.0, 15.0, 400), 1.0 + rng.uniform(-1e-3, 1e-3, 50), [1.0, 1e15]])
        with mpmath.workdps(60):
            for m, theta in zip(means.tolist(), _lindley_rows(np.repeat(means[:, None], 2, axis=1))[0].tolist()):
                mm = mpmath.mpf(m)
                root = (1 - mm + mpmath.sqrt((mm - 1) ** 2 + 8 * mm)) / (2 * mm)
                assert abs(theta - root) <= 5e-16 * root

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


def _entries(fits):
    # The FitResult, or the error, of every entry of _fit_rows' columns, row by row.
    def entry(r, j):
        try:
            return fits.result(r, j)
        except PlaptError as exc:
            return exc

    return [[entry(r, j) for j in range(len(fits.alphas))] for r in range(fits.status.shape[0])]


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
        # Beside the three mixed rows, one that ends in inf, as a study's row
        # does where a quantile leaves the float range: that row alone is
        # flagged, as Sample flags it.
        rows = _mixed_rows()
        rows = np.insert(rows, 1, np.append(rows[0, :-1], math.inf), axis=0)
        alphas = [4.0, 1.0, 1.5, 2.0]

        def finite_rows(together, max_iter=MAX_ITER):
            assert [str(fit) for fit in together[1]] == ["sample values must be finite"] * len(alphas)
            with pytest.raises(DomainError, match="^sample values must be finite$"):
                Sample(rows[1])
            for row, fits in zip(rows[[0, 2, 3]], together[:1] + together[2:]):
                for a, fit in zip(alphas, fits):
                    _same_fit(fit, fit_mle(a, Sample(row), max_iter=max_iter))
            return together[:1] + together[2:]

        together = finite_rows(_entries(_fit_rows(rows, alphas)))
        assert [fits[0].status for fits in together] == ["boundary_beta_inf", "boundary_beta_one", "converged"]
        # An iteration limit between the lanes' counts stops some lanes
        # beside others that converge.
        limit = 8
        limited = finite_rows(_entries(_fit_rows(rows, alphas, max_iter=limit)), limit)
        statuses = {fit.status for fits in limited for fit in fits}
        assert {"max_iter", "converged"} <= statuses

    def test_outcomes_name_each_entry_as_fit_mle_does(self):
        # One grid with every outcome: an iteration limit of 20 falls
        # between the lanes' counts (19 to 21 at alpha 4 and 1; a limit of
        # 3 stops every lane), and alpha -1, an all-zero row and a row
        # ending in inf raise.
        rows = _mixed_rows()
        rows = np.vstack([rows, np.zeros(rows.shape[1]), np.append(rows[0, :-1], math.inf)])
        alphas, limit = [4.0, 1.0, -1.0, 1.5], 20
        names, messages = _fit_rows(rows, alphas, max_iter=limit).outcomes()
        assert set(names.ravel().tolist()) == set(_STATUS.tolist())
        for r, row in enumerate(rows):
            for j, a in enumerate(alphas):
                try:
                    fit = fit_mle(a, Sample(row), max_iter=limit)
                except PlaptError as exc:
                    assert (names[r, j], messages[r, j]) == (None, str(exc))
                else:
                    message = "fit did not converge" if fit.status == "max_iter" else None
                    assert (names[r, j], messages[r, j]) == (fit.status, message)

    def test_seam_and_repeated_alphas_in_one_call(self):
        # Lanes on both sides of alpha = 1 share the chunks; a repeated
        # alpha is fitted once and gives the same result.
        rows = _mixed_rows()
        alphas = [2.0, 1.0, 1.0 + 5e-9, 2.0, 0.5, 1.0 - 5e-9]
        together = _entries(_fit_rows(rows, alphas))
        for row, fits in zip(rows, together):
            for a, fit in zip(alphas, fits):
                _same_fit(fit, fit_mle(a, Sample(row)))
            fits = fit_mle_profile(alphas, Sample(row))[1]
            assert fits[0] is fits[3]

    def test_model_compare_fits_each_alpha_once(self, monkeypatch):
        # The Pseudo-Lindley fit is the grid's alpha = 1 lane, and all the
        # lanes of the rows run in one chunk.
        calls = []

        def fit_chunk(x, alpha, *args):
            calls.append(alpha.size)
            return _fit_chunk(x, alpha, *args)

        monkeypatch.setattr(inference, "_fit_chunk", fit_chunk)
        rows = _mixed_rows()
        grid = pl_apt_family(alpha_grid=_DEFAULT_ALPHA_GRID)
        table = _model_compare_rows(rows, [lindley_family(), pseudo_lindley_family(), grid])
        assert calls == [len(_DEFAULT_ALPHA_GRID) * len(rows)]
        for row, (_, pseudo, _) in zip(rows, table["params"]):
            assert PlAptParams(*pseudo.tolist()) == fit_mle(1.0, Sample(row)).params

    def test_derivatives_of_mixed_lanes_equal_one_lane_calls(self):
        # The alpha = 1 lane sits before a lane off alpha = 1.
        self._check_lanes(np.array([4.0, 0.5, 1.0 - 2e-8, 1.0, 1.0 + 5e-9]))

    def test_derivatives_in_any_lane_order(self):
        self._check_lanes(np.array([1.0, 4.0, 0.5, 1.0 - 2e-8, 1.0 + 5e-9]))
        self._check_lanes(np.array([1.0, 1.0, 1.0, 1.0, 2.0]))
        self._check_lanes(np.array([1.0, 1.0, 1.0, 1.0, 1.0]))

    @staticmethod
    def _check_lanes(alpha):
        rows = _mixed_rows()
        x = rows[[0, 1, 2, 0, 1]]
        theta = np.array([1.2, 0.4, 0.9, 2.0, 0.3])
        beta = np.array([2.5, 1.1, 30.0, 1.7, 4.0])
        m, inv_b = beta - 1.0, 1.0 / beta
        terms = _alpha_terms(alpha, x.shape[1])
        together = _lane_derivatives(theta, m, inv_b, x, x.sum(axis=1), *terms)
        for i in range(alpha.size):
            lane = slice(i, i + 1)
            alone = _lane_derivatives(
                theta[lane], m[lane], inv_b[lane], x[lane], x[lane].sum(axis=1), *(v[lane] for v in terms)
            )
            assert [v[i] for v in together] == [v[0] for v in alone]

    @pytest.mark.parametrize("init", [None, (0.05, 30.0)])
    def test_no_ascent_exit(self, monkeypatch, init):
        # A tolerance that asks every step to gain 0.1 % of |loglik| soon
        # rejects all the halvings of a step; each lane then stops at
        # max_iter after its own number of accepted steps.
        monkeypatch.setattr(inference, "_LOGLIK_RTOL", -1e-3)
        rows = _mixed_rows()
        alphas = [4.0, 1.0, 2.0]
        together = _entries(_fit_rows(rows, alphas, init))
        for row, fits in zip(rows, together):
            for a, fit in zip(alphas, fits):
                _same_fit(fit, fit_mle(a, Sample(row), init))
        fits = [fit for fits in together for fit in fits]
        assert {fit.status for fit in fits} == {"max_iter"}
        assert len({fit.iterations for fit in fits}) > 1

    def test_covariance_columns_equal_one_fit_in_python_floats(self):
        # _covariance on arrays against the rule it had for one fit, bit for
        # bit: Hessians of either sign and any scale, beyond the float range,
        # zero and NaN, at scales 2**e from the subnormals to the overflow.
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, 4000)) * 10.0 ** rng.uniform(-200.0, 200.0, (3, 4000))
        h[rng.random((3, 4000)) < 0.02] = math.inf
        h[rng.random((3, 4000)) < 0.02] = -math.inf
        h[rng.random((3, 4000)) < 0.02] = 0.0
        h[rng.random((3, 4000)) < 0.01] = math.nan
        h[2, :1000] = h[0, :1000] * 1e-3  # near-singular and definite ones
        h[1, :1000] = 0.0
        e = rng.integers(-1074, 1025, 4000).astype(np.int32)
        stderr_theta, stderr_beta, cov = inference._covariance(*h, e)
        for i, (h_tt, h_tb, h_bb, e_i) in enumerate(zip(*h.tolist(), e.tolist())):
            det = h_tt * h_bb - h_tb * h_tb
            if not (h_tt < 0.0 and det > 0.0):
                assert math.isnan(stderr_theta[i]) and math.isnan(stderr_beta[i]) and np.isnan(cov[i]).all()
                continue
            with np.errstate(over="ignore", invalid="ignore"):  # inf / inf
                one = np.ldexp(np.array([[-h_bb, h_tb], [h_tb, -h_tt]]) / det, [[-2 * e_i, -e_i], [-e_i, 0]])
                se_t = float(np.ldexp(math.sqrt(-h_bb / det), -e_i))
            se_b = math.sqrt(-h_tt / det)
            assert np.array_equal(cov[i], one, equal_nan=True) and not np.isnan(cov[i, 0, 1])
            assert np.array_equal([stderr_theta[i], stderr_beta[i]], [se_t, se_b], equal_nan=True)

    def test_best_picks_as_max_picks(self):
        # _best on a (rows, alphas) grid against the rule it had for one
        # profile's list of fits: the first error, else max() over the fits
        # not at max_iter (all of them if none), ties and NaN included.
        rng = np.random.default_rng(9)
        for width in (1, 2, 5):
            status = rng.choice([_CONVERGED, _BETA_ONE, _BETA_INF, _MAX_ITER, _MAX_ITER, _FAILED], (3000, width),
                                p=[0.3, 0.1, 0.1, 0.2, 0.2, 0.1])
            loglik = rng.choice([-3.0, -2.0, -1.0, -math.inf, math.nan], (3000, width))
            for j, codes, ll in zip(inference._best(status, loglik).tolist(), status.tolist(), loglik.tolist()):
                failed = [i for i, code in enumerate(codes) if code == _FAILED]
                finished = [i for i, code in enumerate(codes) if code != _MAX_ITER]
                assert j == (failed[0] if failed else max(finished or range(width), key=ll.__getitem__))
        with pytest.raises(DomainError, match="^alpha grid must be nonempty$"):
            inference._best(np.zeros((1, 0), int), np.zeros((1, 0)))

    def test_failed_lane_does_not_stop_the_others(self):
        data = sample(PlAptParams(2.0, 2.5, 0.6), 300, seed=3)
        x = np.stack([data.values, data.values])
        theta = np.array([1.0 / np.mean(data.values), 1e-300])  # a singular Hessian at the second start
        final, status, iterations = _fit_chunk(x, np.array([2.0, 2.0]), theta, np.array([2.0, 2.0]), MAX_ITER)
        fit = fit_mle(2.0, data)
        assert status[1] == _FAILED
        assert (_STATUS[status[0]], iterations[0]) == (fit.status, fit.iterations)
        assert (final[2, 0], final[3, 0]) == (fit.params.theta, fit.params.beta)


_ZEROS = Sample([0.0, 0.0, 0.0])
_GOOD = sample(PlAptParams(2.0, 2.5, 0.6), 200, seed=5)
_SUBNORMAL = Sample([5e-324, 5e-324, 1e-323])  # its maximum is 2**-1073
_HUGE = Sample([1e308, 1e308])  # its mean overflows
_OFF_SCALE = "fitted theta {} * 2**1072 leaves the float range at the sample's scale 2**-1072"
_NOT_FINITE = "Hessian of the log-likelihood is not finite or is singular"


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
            # The fitted theta of a sample of subnormals overflows at its scale.
            (_SUBNORMAL, 2.0, None, _OFF_SCALE.format("6.994331118347938")),
            (_SUBNORMAL, -1.0, None, "alpha must be a positive real, got -1.0"),
            # A start point is a pair: one entry is not read as half of one, nor a third dropped.
            (_GOOD, 2.0, (1.0,), "init must be a pair (theta0, beta0), got (1.0,)"),
            (_GOOD, 2.0, (1.0, 2.0, 3.0), "init must be a pair (theta0, beta0), got (1.0, 2.0, 3.0)"),
        ],
    )
    def test_fit_mle(self, data, alpha, init, message):
        with pytest.raises(DomainError) as info:
            fit_mle(alpha, data, init)
        assert str(info.value) == message

    @pytest.mark.parametrize("init", [(1e-300, 2.0), (1e300, 2.0), (1.0, 1e300)])
    def test_fit_mle_failed_lane(self, init):
        # The Hessian at each start is not finite or is singular; the suite
        # turns RuntimeWarnings into errors, so the fit must warn of nothing.
        data = sample(PlAptParams(2.0, 2.5, 0.6), 300, seed=3)
        with pytest.raises(NumericalError) as info:
            fit_mle(2.0, data, init)
        assert str(info.value) == _NOT_FINITE

    @pytest.mark.parametrize("data", [_SUBNORMAL, _HUGE])
    def test_start_beyond_the_sample_scale(self, data):
        # theta0 = 1 is 2**-1072, a subnormal, at the fitted scale of the
        # subnormal sample and overflows at that of the huge one: no lane
        # starts, and the error names the start point and the scale.
        e = int(np.frexp(data.values[-1])[1])
        assert e in (-1072, 1024)
        message = (
            f"start point (1.0, 2.0): theta0 * 2**{e} leaves the normal float range at the sample's scale 2**{e}"
        )
        for fit in (lambda: fit_mle(2.0, data, (1.0, 2.0)), lambda: fit_mle_profile([0.5, 2.0], data, (1.0, 2.0))):
            with pytest.raises(DomainError) as info:
                fit()
            assert str(info.value) == message

    def test_quantiles_beyond_the_float_range_are_inf(self):
        # A fit near the float maximum has a theta near 2**-1024, so its upper
        # quantiles leave the float range: inf, and no overflow warning (the
        # suite turns RuntimeWarnings into errors).
        fit = fit_mle(2.0, Sample([1.7e308, 1.7e308, 1e308]))
        assert quantile(fit.params, 0.999) == tail_quantile(fit.params, 1e-10) == math.inf
        assert quantile(fit.params, np.array([0.5, 0.999])).tolist() == [quantile(fit.params, 0.5), math.inf]

    def test_huge_sample_fits(self):
        # Two observations at 1e308 are fitted at 2**-1024 times their scale;
        # the likelihood rises to beta -> 1, and theta is near 2**-1024.
        fits = [fit_mle(alpha, _HUGE) for alpha in (0.5, 1.0, 2.0, 4.0)]
        assert [fit.status for fit in fits] == ["boundary_beta_one"] * 4
        assert all(1e-308 < fit.params.theta < 1e-307 and math.isfinite(fit.loglik) for fit in fits)
        best, profile = fit_mle_profile([0.5, 2.0], _HUGE)
        assert best is profile[1]
        _same_fit(best, fits[2])

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
            (_SUBNORMAL, [0.5, 2.0], None, _OFF_SCALE.format("5.022519904691739")),
            (_GOOD, [0.5, 2.0], (1.0,), "init must be a pair (theta0, beta0), got (1.0,)"),
            (_GOOD, [0.5, 2.0], (1.0, 2.0, 3.0), "init must be a pair (theta0, beta0), got (1.0, 2.0, 3.0)"),
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
            (
                _SUBNORMAL,
                [0.5, 2.0],
                [
                    "Lindley theta inf at mean 5e-324 is out of range: beta = 1 + theta overflows",
                    _OFF_SCALE.format("5.999999999366833"),
                    _OFF_SCALE.format("5.022519904691739"),
                ],
            ),
            # The mean overflows: the Lindley theta is 0, and the Newton fits
            # reach beta -> 1 and are scored.
            (_HUGE, [0.5, 2.0], ["Lindley theta 0.0 at mean inf is out of range: beta = 1 + theta rounds to 1", None, None]),
            # Above a mean of about 2e16 a Lindley beta = 1 + theta rounds to
            # 1 in any form; the Newton fits are scored.
            (
                Sample(np.random.default_rng(3).exponential(1.0, 50) * 1e18),
                [0.5, 2.0],
                [
                    "Lindley theta 1.9412381712767583e-18 at mean 1.0302702829527578e+18 is out of range: "
                    "beta = 1 + theta rounds to 1",
                    None,
                    None,
                ],
            ),
        ],
    )
    def test_model_compare(self, data, grid, messages):
        candidates = [lindley_family(), pseudo_lindley_family(), pl_apt_family(alpha_grid=grid)]
        rows = model_compare(data, candidates)
        assert [row.error for row in rows] == messages
