"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``)
before asserting.  Criterion 1 compares the quantile function at 5e-7
against reference quartiles computed independently of ``plapt`` (see
``reference_tables`` and ``make_reference_tables.py``); criteria 2 and 3
pin the exact 1/theta scale law and the cdf round trip.
"""
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from plapt import (
    BRANCH_POINT,
    ExperimentConfig,
    LambertBranch,
    PlAptParams,
    Sample,
    WeightSpec,
    cdf,
    double_hill_components,
    extremal_quantile,
    lambert_w,
    log_likelihood,
    pi_variation_check,
    quantile,
    run_experiment,
    sample,
    score,
    tail_quantile,
)

from reference_tables import QUARTILE_US, TABLE_APT, TABLE_PSEUDO


def _verdict(number: int, name: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number:2d} ({name}): {detail}")


def test_criterion_01_quantile_golden_tables():
    """Reference tables reproduce to 5e-7 absolute.

    The tables hold the quartiles of all 24 points of the reference grid,
    solved from the cdf definition with mpmath at 50 digits and stored to
    15 significant digits, so the comparison tests ``quantile`` rather than
    the rounding.  The published tabulation they replace was off by up to
    9e-5 (alpha = 1, limited-precision root solve) and 3.6 (alpha != 1,
    quantiles of the wrong Pseudo-Lindley level); ``make_reference_tables``
    reports both.
    """
    tol = 5e-7
    deviations = []
    for (theta, alpha, beta), row in {**TABLE_APT, **TABLE_PSEUDO}.items():
        p = PlAptParams(alpha, beta, theta)
        for u, ref in zip(QUARTILE_US, row):
            deviations.append(abs(quantile(p, u) - ref))
    worst = max(deviations)
    n_bad = sum(d > tol for d in deviations)
    passed = worst <= tol
    _verdict(
        1,
        "quantile golden tables",
        passed,
        f"{n_bad}/{len(deviations)} values exceed {tol:g}; worst deviation {worst:.3g}",
    )
    assert passed, (
        f"{n_bad} of {len(deviations)} tabulated quartiles deviate by more than {tol:g} "
        f"(worst {worst:.3g}); quantile disagrees with the quartiles solved from the cdf"
    )


def test_reference_tables_match_their_script():
    """``reference_tables.py`` is byte for byte what its script writes."""
    pytest.importorskip("mpmath")
    tests = pathlib.Path(__file__).parent
    run = subprocess.run([sys.executable, str(tests / "make_reference_tables.py")], capture_output=True, check=True)
    assert run.stdout == (tests / "reference_tables.py").read_bytes()


def test_criterion_02_scale_law_substitute():
    # quantiles scale exactly as 1/theta, in the library and in the tables
    us = np.linspace(0.05, 0.95, 19)
    p_52 = PlAptParams(1.0, 1.1, 5.2)
    p_30 = PlAptParams(1.0, 1.1, 3.0)
    got = quantile(p_52, us)
    expected = quantile(p_30, us) * (3.0 / 5.2)
    rel = np.max(np.abs(got - expected) / expected)

    printed_30 = TABLE_PSEUDO[(3.0, 1.0, 1.5)]
    printed_52 = TABLE_PSEUDO[(5.2, 1.0, 1.5)]
    printed_dev = max(
        abs(a * 3.0 / 5.2 - b) for a, b in zip(printed_30, printed_52)
    )
    passed = rel <= 1e-12 and printed_dev <= 5e-7
    _verdict(
        2,
        "scale-law substitute",
        passed,
        f"quantile scale-law rel err {rel:.2e}; printed beta=1.5 row law dev {printed_dev:.2e}",
    )
    assert rel <= 1e-12
    assert printed_dev <= 5e-7


def test_criterion_03_roundtrip_suite():
    us = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    worst = 0.0
    for theta, alpha, beta in {**TABLE_APT, **TABLE_PSEUDO}:
        p = PlAptParams(alpha, beta, theta)
        worst = max(worst, float(np.max(np.abs(cdf(p, quantile(p, us)) - us))))
    passed = worst <= 1e-10
    _verdict(3, "cdf/quantile roundtrip", passed, f"worst |cdf(quantile(u)) - u| = {worst:.2e}")
    assert passed


def test_criterion_04_lambert_w_identity():
    z = np.clip(-np.logspace(np.log10(1.0 / np.e), -300, 10**6), BRANCH_POINT, None)
    w = lambert_w(LambertBranch.NEGATIVE_ONE, z)
    residual = float(np.max(np.abs(w * np.exp(w) - z) / np.abs(z)))
    passed = residual <= 1e-13
    _verdict(4, "Lambert W identity (1e6 points)", passed, f"max rel residual {residual:.2e}")
    assert passed


def test_criterion_05_score_vs_finite_differences():
    rng = np.random.default_rng(2025)
    alphas = (0.3, 0.9, 1.0, 1.5, 4.0)
    worst = 0.0
    for trial in range(100):
        alpha = alphas[trial % len(alphas)]
        theta = float(rng.uniform(0.1, 10.0))
        beta = float(rng.uniform(1.05, 10.0))
        n = int(rng.integers(20, 200))
        data = sample(PlAptParams(max(alpha, 0.3), beta, theta), n, seed=trial)
        got = score(alpha, theta, beta, data)
        h_t = 1e-6 * max(1.0, theta)
        h_b = min(1e-6 * max(1.0, beta), 0.4 * (beta - 1.0))
        fd = (
            (
                log_likelihood(alpha, theta + h_t, beta, data)
                - log_likelihood(alpha, theta - h_t, beta, data)
            )
            / (2.0 * h_t),
            (
                log_likelihood(alpha, theta, beta + h_b, data)
                - log_likelihood(alpha, theta, beta - h_b, data)
            )
            / (2.0 * h_b),
        )
        for g, f in zip(got, fd):
            worst = max(worst, abs(g - f) / max(1.0, abs(f)))
    passed = worst <= 1e-5
    _verdict(5, "analytic score vs finite differences", passed, f"worst rel err {worst:.2e}")
    assert passed


@pytest.mark.parametrize(
    "truth,seed",
    [
        (PlAptParams(2.0, 2.5, 0.6), 601),
        (PlAptParams(1.0, 1.5, 3.0), 602),
        (PlAptParams(1.5, 1.5, 1.5), 603),
    ],
    ids=["apt-2.0", "pseudo-1.0", "apt-1.5"],
)
def test_criterion_06_mle_recovery(truth, seed):
    reps = 200
    cfg = ExperimentConfig(kind="recovery", n=10_000, reps=reps, seed=seed, truth=truth)
    report = run_experiment(cfg)
    assert report.failures == 0
    ok = True
    detail = []
    for name in ("theta", "beta"):
        stats = report.summary[name]
        bound = 3.0 * stats["sd"] / math.sqrt(reps)
        ok &= abs(stats["bias"]) <= bound
        detail.append(f"{name}: |bias| {abs(stats['bias']):.2e} vs 3*MC-SE {bound:.2e}")
    _verdict(
        6,
        f"MLE recovery (alpha={truth.alpha}, beta={truth.beta}, theta={truth.theta})",
        ok,
        "; ".join(detail),
    )
    assert ok


def test_criterion_07_hill_equivalence():
    rng = np.random.default_rng(7007)
    worst_ulp = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 400))
        kind = rng.integers(0, 3)
        if kind == 0:
            x = rng.random(n) ** -float(rng.uniform(0.2, 1.5))
        elif kind == 1:
            x = np.exp(rng.normal(size=n))
        else:
            x = rng.random(n) + 0.01
        k = int(rng.integers(5, n - 1))
        rep = double_hill_components(Sample(x), WeightSpec.hill(), k=k)
        xs = np.sort(x)
        # textbook form: mean of per-term log exceedances over the threshold
        hill = math.fsum(np.log(xs[n - k :]) - math.log(xs[n - k - 1])) / k
        scale = math.ulp(max(abs(rep.m_n), abs(hill)))
        worst_ulp = max(worst_ulp, abs(rep.m_n - hill) / scale)
    passed = worst_ulp <= 4.0
    _verdict(7, "double-Hill reduces to Hill", passed, f"worst deviation {worst_ulp:.2f} ulp")
    assert passed


def _expansion_triples(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        alpha = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
        if abs(alpha - 1.0) < 0.05:
            continue
        out.append(
            PlAptParams(alpha, float(rng.uniform(1.05, 5.0)), float(rng.uniform(0.5, 5.0)))
        )
    return out


def test_criterion_08_extremal_expansion_residual():
    u_grid = [10.0**-e for e in range(4, 11)]
    worst_final = 0.0
    monotone = True
    for p in _expansion_triples(20, seed=808):
        residuals = [
            abs(extremal_quantile(p, u).value - tail_quantile(p, u)) for u in u_grid
        ]
        monotone &= all(b <= a for a, b in zip(residuals, residuals[1:]))
        worst_final = max(worst_final, residuals[-1])
    passed = monotone and worst_final < 1e-2
    _verdict(
        8,
        "extremal expansion residual",
        passed,
        f"monotone decay: {monotone}; worst residual at u=1e-10: {worst_final:.2e}",
    )
    assert monotone
    assert worst_final < 1e-2


def test_criterion_09_pi_variation():
    worst = 0.0
    decayed = True
    for p in _expansion_triples(20, seed=909):
        points = pi_variation_check(p, 2.0, [1e-4, 1e-8])
        r_coarse, r_fine = abs(points[0].residual), abs(points[1].residual)
        decayed &= r_fine < r_coarse
        worst = max(worst, r_fine)
    passed = decayed and worst < 0.05
    _verdict(
        9,
        "Gumbel-domain residual",
        passed,
        f"|r(1e-8)| < |r(1e-4)| for all triples: {decayed}; worst |r(1e-8)| = {worst:.4f}",
    )
    assert decayed
    assert worst < 0.05


def test_criterion_10_gumbel_maxima():
    cfg = ExperimentConfig(
        kind="maxima_gumbel",
        n=10**5,
        reps=2000,
        seed=7,
        truth=PlAptParams(2.0, 2.5, 0.6),
    )
    report = run_experiment(cfg)
    dist = report.summary["ks_distance"]
    passed = dist < 0.05
    _verdict(10, "normalized maxima vs Gumbel", passed, f"KS distance {dist:.4f} (n=1e5, 2000 reps)")
    assert passed


def test_criterion_11_evi_coverage_on_pareto():
    n, reps = 5000, 500
    cfg = ExperimentConfig(
        kind="evi_coverage",
        n=n,
        reps=reps,
        seed=1111,
        pareto_gamma=0.5,
        weight=WeightSpec.hill(),
        k_exponent=0.6,
    )
    report = run_experiment(cfg)
    assert report.failures == 0
    coverage = report.summary["coverage"]
    passed = 0.90 <= coverage <= 0.99
    _verdict(
        11,
        "EVI 95% CI coverage (exact Pareto)",
        passed,
        f"coverage {coverage:.3f} over {reps} reps, k={report.summary['k']}",
    )
    assert passed
