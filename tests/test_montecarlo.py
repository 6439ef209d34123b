import dataclasses
import functools
import hashlib
import json
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from plapt import (
    DomainError,
    ExperimentConfig,
    ExperimentKind,
    PlaptError,
    PlAptParams,
    Sample,
    WeightSpec,
    double_hill_components,
    fit_mle,
    gumbel_ks_distance,
    lindley_family,
    maxima_normalization,
    model_compare,
    pl_apt_family,
    pseudo_lindley_family,
    quantile,
    run_experiment,
    sample,
    tail_quantile,
)
from plapt import NumericalError, distribution, inference, montecarlo
from plapt.distribution import _first_uniforms, _replication_rngs, replication_rng
from plapt.inference import _BETA_INF, _FAILED, _fit_rows
from plapt.montecarlo import _DEFAULT_ALPHA_GRID

TRUTH = PlAptParams(2.0, 2.5, 0.6)


class TestConfig:
    def test_kind_coercion_from_string(self):
        cfg = ExperimentConfig(kind="recovery", n=100, reps=2, seed=1, truth=TRUTH)
        assert cfg.kind is ExperimentKind.RECOVERY

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(kind="recovery", n=100, reps=0, seed=1, truth=TRUTH)
        with pytest.raises(DomainError):
            ExperimentConfig(kind="recovery", n=1, reps=2, seed=1, truth=TRUTH)
        with pytest.raises(DomainError):
            ExperimentConfig(kind="recovery", n=100, reps=2, seed=1)  # no truth
        with pytest.raises(DomainError):
            ExperimentConfig(kind="evi_coverage", n=100, reps=2, seed=1)
        with pytest.raises(DomainError):
            ExperimentConfig(kind="maxima_gumbel", n=99, reps=2, seed=1, truth=TRUTH)
        with pytest.raises(DomainError):
            ExperimentConfig(
                kind="evi_coverage", n=100, reps=2, seed=1, pareto_gamma=0.5, k_exponent=1.5
            )
        for k_exponent in (math.nan, math.inf):
            with pytest.raises(DomainError):
                ExperimentConfig(
                    kind="evi_coverage", n=100, reps=2, seed=1, pareto_gamma=0.5, k_exponent=k_exponent
                )
        for gamma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=f"pareto_gamma must be a positive real, got {gamma}"):
                ExperimentConfig(kind="evi_coverage", n=100, reps=2, seed=1, pareto_gamma=gamma)
        for grid in ((-1.0, 2.0), (math.nan,), (0.0, 1.0), ()):
            with pytest.raises(DomainError):
                ExperimentConfig(kind="model_compare", n=100, reps=2, seed=1, truth=TRUTH, alpha_grid=grid)
        # fields the kind never reads
        with pytest.raises(DomainError, match="alpha_grid"):
            ExperimentConfig(kind="recovery", n=100, reps=2, seed=1, truth=TRUTH, alpha_grid=(0.5, 3.0))
        with pytest.raises(DomainError, match="pareto_gamma"):
            ExperimentConfig(kind="recovery", n=100, reps=2, seed=1, truth=TRUTH, pareto_gamma=-3)
        with pytest.raises(DomainError, match="not both"):
            ExperimentConfig(kind="evi_coverage", n=100, reps=2, seed=1, truth=TRUTH, pareto_gamma=0.5)
        for kind in ("recovery", "model_compare", "maxima_gumbel"):
            for weight in (WeightSpec.hill(s=2.0), WeightSpec.power(0.5)):
                with pytest.raises(DomainError, match="weight"):
                    ExperimentConfig(kind=kind, n=100, reps=2, seed=1, truth=TRUTH, weight=weight)
            ExperimentConfig(kind=kind, n=100, reps=2, seed=1, truth=TRUTH, weight=WeightSpec.hill())
            for k_exponent in (0.5, math.nan):
                with pytest.raises(DomainError, match="k_exponent"):
                    ExperimentConfig(kind=kind, n=100, reps=2, seed=1, truth=TRUTH, k_exponent=k_exponent)
            ExperimentConfig(kind=kind, n=100, reps=2, seed=1, truth=TRUTH, k_exponent=0.6)
        # EVI weights that cannot serve k = floor(500**0.6) = 41: a table of
        # 3 ranks, and power weights j**1000 that overflow
        for weight in (WeightSpec.custom([1.0, 2.0, 3.0]), WeightSpec.power(1000.0)):
            with pytest.raises(DomainError):
                ExperimentConfig(kind="evi_coverage", n=500, reps=2, seed=1, pareto_gamma=0.5, weight=weight)

    @pytest.mark.parametrize("field", ["n", "reps", "seed"])
    def test_non_integer_field_is_a_type_error(self, field):
        # no silent truncation: n = 100.7 does not run n = 100
        fields = {"kind": "maxima_gumbel", "n": 100, "reps": 2, "seed": 1, "truth": TRUTH}
        for value in (fields[field] + 0.7, float(fields[field]), np.float64(fields[field]), str(fields[field])):
            with pytest.raises(TypeError, match=f"{field} must be an integer, got"):
                ExperimentConfig(**{**fields, field: value})
        cfg = ExperimentConfig(**{**fields, field: np.int64(fields[field])})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == fields[field]

    def test_k_rule(self):
        cfg = ExperimentConfig(
            kind="evi_coverage", n=5000, reps=1, seed=1, pareto_gamma=0.5, k_exponent=0.6
        )
        assert cfg.k_value() == int(5000**0.6)


class TestRecovery:
    def test_summary_statistics(self):
        cfg = ExperimentConfig(kind="recovery", n=800, reps=6, seed=42, truth=TRUTH)
        report = run_experiment(cfg)
        ok = [r for r in report.records if r["ok"]]
        thetas = np.array([r["theta_hat"] for r in ok])
        assert report.summary["theta"]["mean"] == pytest.approx(float(thetas.mean()))
        assert report.summary["theta"]["bias"] == pytest.approx(
            float(thetas.mean()) - TRUTH.theta
        )
        rmse = math.sqrt(float(np.mean((thetas - TRUTH.theta) ** 2)))
        assert report.summary["theta"]["rmse"] == pytest.approx(rmse)

    def test_boundary_fits_counted_not_summarised(self):
        truth = PlAptParams(1.0, 1.1, 0.6)
        report = run_experiment(ExperimentConfig(kind="recovery", n=50, reps=20, seed=1, truth=truth))
        counts = report.summary["status_counts"]
        assert counts.get("boundary_beta_one", 0) > 0 and counts.get("converged", 0) > 0
        assert sum(counts.values()) == 20
        boundary = [r for r in report.records if r["status"] != "converged"]
        assert all(r["ok"] and math.isfinite(r["beta_hat"]) for r in boundary)
        assert report.failures == 0
        betas = np.array([r["beta_hat"] for r in report.records if r["status"] == "converged"])
        assert report.summary["beta"]["mean"] == pytest.approx(float(betas.mean()))
        rmse = math.sqrt(float(np.mean((betas - truth.beta) ** 2)))
        assert report.summary["beta"]["rmse"] == pytest.approx(rmse)

    def test_runs_where_exp_minus_beta_underflows(self):
        # exp(-760) is 0 as a float; the samples are drawn in t = theta*x from
        # log s, so every replication draws and is fitted (at n = 50 beta is
        # not identified this far out, and its fits scatter or reach beta -> inf)
        truth = PlAptParams(2.0, 760.0, 1.0)
        report = run_experiment(ExperimentConfig(kind="recovery", n=50, reps=20, seed=1, truth=truth))
        assert len(report.records) == 20 and report.failures == 0
        assert sum(report.summary["status_counts"].values()) == 20
        assert all(math.isfinite(r["theta_hat"]) and math.isfinite(r["loglik"]) for r in report.records)

    def test_recovery_is_sane(self):
        cfg = ExperimentConfig(kind="recovery", n=2000, reps=10, seed=7, truth=TRUTH)
        report = run_experiment(cfg)
        assert report.failures == 0
        assert abs(report.summary["theta"]["bias"]) < 0.1
        assert abs(report.summary["beta"]["bias"]) < 1.0


class TestReportContract:
    def test_deterministic_reruns(self):
        cfg = ExperimentConfig(kind="recovery", n=300, reps=4, seed=5, truth=TRUTH)
        assert run_experiment(cfg).to_json() == run_experiment(cfg).to_json()

    @pytest.mark.parametrize("kind", [k.value for k in ExperimentKind])
    def test_reruns_are_identical(self, kind):
        cfg = ExperimentConfig(kind=kind, n=300, reps=4, seed=5, truth=TRUTH)
        assert run_experiment(cfg).to_json() == run_experiment(cfg).to_json()

    def test_single_rep_summary_equals_record(self):
        cfg = ExperimentConfig(kind="recovery", n=400, reps=1, seed=9, truth=TRUTH)
        report = run_experiment(cfg)
        record = report.records[0]
        assert report.summary["theta"]["mean"] == record["theta_hat"]
        assert report.summary["beta"]["mean"] == record["beta_hat"]
        assert report.summary["theta"]["sd"] == 0.0

    def test_failure_accounting(self):
        cfg = ExperimentConfig(kind="recovery", n=300, reps=5, seed=13, truth=TRUTH)
        report = run_experiment(cfg)
        successes = sum(r["ok"] for r in report.records)
        assert successes + report.failures == cfg.reps
        assert report.summary["failure_rate"] == pytest.approx(report.failures / cfg.reps)

    def test_records_match_reps_and_json_shape(self):
        cfg = ExperimentConfig(kind="recovery", n=300, reps=3, seed=2, truth=TRUTH)
        report = run_experiment(cfg)
        assert len(report.records) == cfg.reps
        payload = json.loads(report.to_json())
        assert set(payload) == {"config", "seed", "version", "failures", "summary", "records"}
        assert payload["config"]["truth"] == {"alpha": 2.0, "beta": 2.5, "theta": 0.6}
        assert payload["seed"] == 2


# SHA-256 of run_experiment(cfg).to_json() at seed 1 for each kind, recorded
# when the quantiles were first solved for theta*x (numpy 2.4.6, x86-64).
_GOLDEN = {
    "recovery": (200, 5, "edc31e137375796d11652bd0b0ae2ce8cfcb04c68f68f40638ce222e4f99697c"),
    "model_compare": (200, 3, "62e872bd385aae1310b66935994390cc85284c83daa39704ce858245fa5be0cb"),
    "evi_coverage": (1000, 5, "45841b12178c6cb732aeec8f3ef1ebb581f1137d26aee6d54bd35624b9fceba7"),
    "maxima_gumbel": (1000, 50, "5f4b502c100a4e8559a5a0d45c495a4cac9b398ce2963601ad01ccb231a5bda8"),
}
_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**200 + 3, [3, 2**40, 0],
    [], np.array([5, 2**32 - 1], np.uint32), [1, 2, 3, 4, 5], range(3),
]
_REPS = st.one_of(
    st.lists(st.sampled_from([0, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    st.integers(0, 2**32 - 800).map(lambda start: range(start, start + 800)),
)


class TestReplicationStreams:
    # The streams of a chunk are derived in one pass; SeedSequence itself
    # is the oracle.

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(_SEEDS), _REPS)
    @example(2**200 + 3, range(2**32 - 800, 2**32))
    @example(range(3), [0, 2**32 - 1])
    def test_streams_are_seed_sequence_spawns(self, seed, reps):
        for rep, rng in zip(reps, _replication_rngs(seed, reps), strict=True):
            oracle = np.random.SeedSequence(seed, spawn_key=(rep,))
            words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
            assert words.tobytes() == oracle.generate_state(4, np.uint64).tobytes()
            ref = np.random.default_rng(oracle)
            # the draws of each kind's row: a uniform, exponentials, a Gamma(n - k)
            draws = [(g.random(), g.standard_exponential(), g.standard_gamma(10_000 - 251)) for g in (rng, ref)]
            assert np.array(draws[0]).tobytes() == np.array(draws[1]).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(_SEEDS), _REPS)
    @example(2**200 + 3, range(2**32 - 800, 2**32))
    @example(2**32, [5])
    @example([3, 2**40, 0], range(2**31, 2**31 + 65536))
    @example(range(3), [0, 2**32 - 1])
    def test_first_uniforms_are_the_streams_first_draws(self, seed, reps):
        # computed from the seed words with no generator, bytewise each
        # stream's own first random()
        oracle = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,))).random() for rep in reps]
        assert _first_uniforms(seed, reps).tobytes() == np.array(oracle).tobytes()

    @pytest.mark.parametrize("rep", [1.5, 2.0, np.float64(3.0), "1"], ids=["float", "integral-float", "np-float", "str"])
    def test_non_integer_replication_index_is_a_type_error(self, rep):
        # SeedSequence refuses a float spawn key too (it parses a string as
        # an integer, which replication_rng does not)
        if not isinstance(rep, str):
            with pytest.raises(TypeError):
                np.random.SeedSequence(1, spawn_key=(rep,))
        with pytest.raises(TypeError, match="replication index must be an integer, got"):
            replication_rng(1, rep)

    def test_replication_count_beyond_2_32_is_a_validation_error(self):
        with pytest.raises(DomainError, match=r"reps must lie in \[1, 4294967296\], got 4294967297"):
            ExperimentConfig(kind="maxima_gumbel", n=100, reps=2**32 + 1, seed=1, truth=TRUTH)
        assert ExperimentConfig(kind="maxima_gumbel", n=100, reps=2**32, seed=1, truth=TRUTH).reps == 2**32
        with pytest.raises(DomainError, match=r"reps must lie in \[1, 4294967296\], got 8589934592"):
            maxima_normalization(TRUTH, 1000, 2**33, 1)

    def test_sample_seed_is_checked_as_replication_rng_checks_it(self):
        with pytest.raises(DomainError, match="seed must be a nonnegative integer, got -1"):
            sample(TRUTH, 5, [-1])
        with pytest.raises(TypeError, match="seed must be an integer or a sequence of integers, got 1.5"):
            sample(TRUTH, 5, 1.5)
        words = [3, 2**40, 0]
        assert np.array_equal(sample(TRUTH, 5, words).values, sample(TRUTH, 5, np.random.default_rng(words)).values)

    def test_replication_rng_is_one_stream_of_the_chunk(self):
        chunk = [rng.random(3) for rng in _replication_rngs(7, range(5))]
        assert all(np.array_equal(replication_rng(7, rep).random(3), row) for rep, row in enumerate(chunk))

    def test_replication_rng_pickles_and_continues_its_stream(self):
        rng = replication_rng(7, 3)
        rng.random(4)
        clone = pickle.loads(pickle.dumps(rng))
        assert clone.random(5).tobytes() == rng.random(5).tobytes()

    def test_replication_rng_spawns_as_numpy_does(self):
        oracle = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(3,)))
        children = zip(replication_rng(7, 3).spawn(2), oracle.spawn(2), strict=True)
        assert all(got.random(3).tobytes() == ref.random(3).tobytes() for got, ref in children)

    def test_replication_rng_holds_numpy_seed_sequence(self):
        seed_seq = replication_rng(7, 3).bit_generator.seed_seq
        assert type(seed_seq) is np.random.SeedSequence
        assert seed_seq.entropy == 7 and seed_seq.spawn_key == (3,)

    @pytest.mark.parametrize(
        "seed, rep, message",
        [
            (-1, 0, "seed must be a nonnegative integer, got -1"),
            ([1, -2], 0, "seed must be a nonnegative integer, got -2"),
            (1, -1, "replication index must lie in [0, 4294967295], got -1"),
            (1, 2**32, "replication index must lie in [0, 4294967295], got 4294967296"),
            (1, 2**70, f"replication index must lie in [0, 4294967295], got {2**70}"),
        ],
        ids=["negative-seed", "negative-seed-word", "negative-rep", "rep-at-2-32", "rep-beyond-int64"],
    )
    def test_domain_errors(self, seed, rep, message):
        # A seed is checked by replication_rng and where a study derives its
        # streams; a replication index by replication_rng, as a study's
        # indices lie below its count, which its configuration bounds.
        with pytest.raises(DomainError) as info:
            replication_rng(seed, rep)
        assert str(info.value) == message
        if rep == 0:
            with pytest.raises(DomainError) as info:
                _replication_rngs(seed, range(1))
            assert str(info.value) == message

    def test_negative_seed_is_a_validation_error(self):
        with pytest.raises(DomainError, match="seed must be a nonnegative integer, got -1"):
            ExperimentConfig(kind="recovery", n=100, reps=2, seed=-1, truth=TRUTH)
        with pytest.raises(DomainError, match="seed must be a nonnegative integer, got -1"):
            sample(TRUTH, 5, -1)
        with pytest.raises(DomainError, match="seed must be a nonnegative integer, got -1"):
            maxima_normalization(TRUTH, 100, 2, -1)

    @pytest.mark.parametrize("kind", list(_GOLDEN))
    def test_reports_hash_as_before(self, kind):
        n, reps, digest = _GOLDEN[kind]
        cfg = ExperimentConfig(kind=kind, n=n, reps=reps, seed=1, truth=PlAptParams(2.0, 2.5, 1.5))
        assert hashlib.sha256(run_experiment(cfg).to_json().encode()).hexdigest() == digest


class TestOtherKinds:
    def test_evi_coverage_pareto(self):
        cfg = ExperimentConfig(
            kind="evi_coverage",
            n=2000,
            reps=40,
            seed=3,
            pareto_gamma=0.5,
            weight=WeightSpec.hill(),
        )
        report = run_experiment(cfg)
        assert report.failures == 0
        assert 0.7 <= report.summary["coverage"] <= 1.0
        assert report.summary["k"] == int(2000**0.6)
        assert all(r["target"] == 0.5 for r in report.records)

    def test_custom_weights_rerun_from_their_echo(self):
        weight = WeightSpec.custom([1.0 + 0.5 * j for j in range(30)], s=1.5)
        cfg = ExperimentConfig(kind="evi_coverage", n=200, reps=4, seed=6, pareto_gamma=0.5, weight=weight)
        report = run_experiment(cfg)
        echo = json.loads(report.to_json())["config"]
        assert echo["weight"] == {"kind": "custom", "s": 1.5, "tau": None, "table": list(weight.table)}
        fields = {key: value for key, value in echo.items() if key != "k"}
        rebuilt = ExperimentConfig(**{**fields, "weight": WeightSpec(**echo["weight"])})
        assert run_experiment(rebuilt).to_json() == report.to_json()

    def test_evi_coverage_family_truth_uses_rate_scale(self):
        cfg = ExperimentConfig(kind="evi_coverage", n=1000, reps=5, seed=4, truth=TRUTH)
        report = run_experiment(cfg)
        assert all(r["target"] == 1.0 / TRUTH.theta for r in report.records)

    def test_maxima_gumbel_records_are_normalized_maxima(self):
        cfg = ExperimentConfig(kind="maxima_gumbel", n=5000, reps=30, seed=7, truth=TRUTH)
        report = run_experiment(cfg)
        assert len(report.records) == 30
        assert "ks_distance" in report.summary
        assert report.summary["ks_distance"] < 0.4

    def test_maxima_gumbel_at_alpha_one(self):
        truth = PlAptParams(1.0, 2.5, 1.5)
        cfg = ExperimentConfig(kind="maxima_gumbel", n=5000, reps=30, seed=7, truth=truth)
        report = run_experiment(cfg)
        assert report.failures == 0
        assert report.summary["ks_distance"] < 0.4
        z = np.array([r["normalized"] for r in report.records])
        assert np.array_equal(z, maxima_normalization(truth, 5000, 30, 7).normalized)

    def test_model_compare_summary(self):
        cfg = ExperimentConfig(
            kind="model_compare",
            n=400,
            reps=3,
            seed=11,
            truth=PlAptParams(1.0, 2.0, 1.0),
            alpha_grid=(0.5, 1.0, 2.0),
        )
        report = run_experiment(cfg)
        assert set(report.summary["win_fraction"]) == {"lindley", "pseudo_lindley", "pl_apt"}
        total = sum(report.summary["win_fraction"].values())
        assert total == pytest.approx(1.0)


# Oracles: each record as a dict made from one replication's own result,
# and the summary computed from those dicts, one replication at a time.


def _recovery_record(rep, fit):
    if isinstance(fit, PlaptError):
        return {"rep": rep, "ok": False, "error": str(fit)}
    if fit.status == "max_iter":
        return {"rep": rep, "ok": False, "error": "fit did not converge", "status": fit.status}
    return {
        "rep": rep,
        "ok": True,
        "status": fit.status,
        "theta_hat": fit.params.theta,
        "beta_hat": fit.params.beta,
        "stderr_theta": fit.stderr_theta,
        "stderr_beta": fit.stderr_beta,
        "loglik": fit.loglik,
        "iterations": fit.iterations,
    }


def _model_compare_record(rep, rows):
    rec = {"rep": rep, "ok": all(r.error is None for r in rows)}
    table = {}
    for r in rows:
        table[r.name] = {"loglik": r.loglik, "aic": r.aic, "bic": r.bic, "converged": r.converged}
        if r.error is not None:
            table[r.name]["error"] = r.error
    rec["families"] = table
    scored = [r for r in rows if r.error is None and math.isfinite(r.aic)]
    rec["winner"] = min(scored, key=lambda r: r.aic).name if scored else None
    if not rec["ok"]:
        rec["error"] = "; ".join(f"{r.name}: {r.error}" for r in rows if r.error is not None)
    return rec


def _evi_coverage_record(rep, report, target):
    if isinstance(report, PlaptError):
        return {"rep": rep, "ok": False, "error": str(report)}
    return {
        "rep": rep,
        "ok": True,
        "m_n": report.m_n,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "b_n": report.b_n,
        "target": target,
        "covered": bool(report.ci_low <= target <= report.ci_high),
    }


def _mean_sd(values):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return float(np.mean(arr)), sd


def _param_summary(records, key, truth):
    vals = [r[key] for r in records if r.get("status") == "converged"]
    mean, sd = _mean_sd(vals)
    rmse = float(np.sqrt(np.mean((np.asarray(vals) - truth) ** 2))) if vals else math.nan
    return {"truth": truth, "mean": mean, "bias": mean - truth, "sd": sd, "rmse": rmse}


def _summary_of(cfg, records):
    ok = [r for r in records if r["ok"]]
    summary = {"failure_rate": 1.0 - len(ok) / len(records)}
    if cfg.kind is ExperimentKind.RECOVERY:
        summary["theta"] = _param_summary(records, "theta_hat", cfg.truth.theta)
        summary["beta"] = _param_summary(records, "beta_hat", cfg.truth.beta)
        summary["status_counts"] = dict(Counter(r["status"] for r in records if "status" in r))
        its = [r["iterations"] for r in records if "iterations" in r]
        pcts = np.percentile(its, (50, 90, 100)).tolist() if its else [math.nan] * 3
        summary["iterations"] = dict(zip(("p50", "p90", "max"), pcts))
    elif cfg.kind is ExperimentKind.MODEL_COMPARE:
        names = sorted({name for r in ok for name in r["families"]})
        summary["mean_aic"] = {name: float(np.mean([r["families"][name]["aic"] for r in ok])) for name in names}
        summary["win_fraction"] = {
            name: sum(r["winner"] == name for r in ok) / len(ok) if ok else math.nan for name in names
        }
    elif cfg.kind is ExperimentKind.EVI_COVERAGE:
        mean, sd = _mean_sd([r["m_n"] for r in ok])
        summary["m_n"] = {"mean": mean, "sd": sd}
        summary["coverage"] = sum(r["covered"] for r in ok) / len(ok) if ok else math.nan
        summary["k"] = cfg.k_value()
    elif cfg.kind is ExperimentKind.MAXIMA_GUMBEL:
        vals = np.asarray([r["normalized"] for r in ok])
        summary["ks_distance"] = gumbel_ks_distance(vals)
        mean, sd = _mean_sd(list(vals))
        summary["normalized"] = {"mean": mean, "sd": sd}
    return summary


def _report_json(cfg, records, summary=None):
    # The report text json.dumps makes of the record dicts, the summary
    # computed from them unless given.
    payload = {
        "config": montecarlo._config_echo(cfg),
        "seed": cfg.seed,
        "version": montecarlo.__version__,
        "failures": sum(not r["ok"] for r in records),
        "summary": _summary_of(cfg, records) if summary is None else summary,
        "records": list(records),
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)


# SHA-256 of the report JSON of two studies at truth _BOUNDARY_TRUTH, seed
# 1000, recorded when the quantiles were first solved for theta*x (numpy
# 2.4.6, x86-64): 4 of the 20 recovery fits end at beta -> 1, and one pl_apt
# lane of the model_compare profiles at beta -> inf.
_BOUNDARY_TRUTH = PlAptParams(0.5, 1.1, 0.6)
_BOUNDARY_DIGESTS = {
    "recovery": (50, 20, "80d727a7da176ac1fedabc0760131ef169311eb8b9cb41e82e0633bc49a63326"),
    "model_compare": (1000, 6, "d10646c1dcac92b70f0dc38cf0f80c8d7e8365ccef0beaa3afbfc9c788936fc6"),
}


class TestLockstepStudies:
    # The studies stack their replications into lockstep fits; every
    # replication must come out as if it were fitted on its own.

    @pytest.mark.parametrize("n", [50, 1000])
    @pytest.mark.parametrize("truth", [PlAptParams(0.5, 1.1, 0.6), PlAptParams(1.0, 1.1, 1.5), PlAptParams(2.0, 2.5, 3.0)])
    def test_recovery_equals_per_replication_fits(self, n, truth):
        cfg = ExperimentConfig(kind="recovery", n=n, reps=20, seed=4, truth=truth)
        records = []
        for rep in range(cfg.reps):
            try:
                fit = fit_mle(truth.alpha, sample(truth, n, replication_rng(cfg.seed, rep)))
            except PlaptError as exc:
                fit = exc
            records.append(_recovery_record(rep, fit))
        report = run_experiment(cfg)
        assert repr(report.records) == repr(tuple(records))
        assert report.to_json() == _report_json(cfg, records)

    @pytest.mark.parametrize("kind", ["recovery", "model_compare"])
    def test_overflowed_samples_are_recorded_as_failures(self, kind):
        # At theta = 3e-308 the quantile of u above about 0.98 leaves the
        # float range; 13 of these 20 samples hold one.  Each of those
        # replications is recorded as failed, and the others are fitted.
        truth = PlAptParams(2.0, 2.5, 3e-308)
        cfg = ExperimentConfig(kind=kind, n=50, reps=20, seed=1, truth=truth)
        records = run_experiment(cfg).records
        rows = [np.sort(quantile(truth, replication_rng(cfg.seed, rep).random(cfg.n))) for rep in range(cfg.reps)]
        overflowed = [rep for rep, row in enumerate(rows) if row[-1] == math.inf]
        assert len(overflowed) == 13
        flagged = [r["rep"] for r in records if "sample values must be finite" in (r.get("error") or "")]
        assert flagged == overflowed
        if kind == "recovery":
            fits = []
            for row in rows:
                try:
                    fits.append(fit_mle(truth.alpha, Sample(row)))
                except PlaptError as exc:
                    fits.append(exc)
            assert repr(records) == repr(tuple(_recovery_record(rep, fit) for rep, fit in enumerate(fits)))
            assert sum(r["ok"] for r in records) == 7
        else:
            for rep in overflowed:
                families = records[rep]["families"]
                assert families["pseudo_lindley"]["error"] == families["pl_apt"]["error"] == "sample values must be finite"
                assert families["lindley"]["error"] == (
                    "Lindley theta 0.0 at mean inf is out of range: beta = 1 + theta rounds to 1"
                )

    @pytest.mark.parametrize("kind", list(_BOUNDARY_DIGESTS))
    def test_boundary_fits_hash_as_before(self, kind):
        n, reps, digest = _BOUNDARY_DIGESTS[kind]
        cfg = ExperimentConfig(kind=kind, n=n, reps=reps, seed=1000, truth=_BOUNDARY_TRUTH)
        report = run_experiment(cfg)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
        if kind == "recovery":
            assert report.summary["status_counts"] == {"converged": 16, "boundary_beta_one": 4}
        else:
            rows = np.stack([sample(cfg.truth, n, replication_rng(cfg.seed, rep)).values for rep in range(reps)])
            assert np.count_nonzero(_fit_rows(rows, _DEFAULT_ALPHA_GRID).status == _BETA_INF) == 1

    def test_recovery_at_max_iter_equals_per_replication_fits(self, monkeypatch):
        # A tolerance that asks every step to gain 0.1 % of |loglik| ends
        # every fit at max_iter, after its own number of steps
        # (test_no_ascent_exit); the columns keep each fit's estimates.
        monkeypatch.setattr(inference, "_LOGLIK_RTOL", -1e-3)
        cfg = ExperimentConfig(kind="recovery", n=50, reps=20, seed=1000, truth=_BOUNDARY_TRUTH)
        report = run_experiment(cfg)
        samples = [sample(cfg.truth, cfg.n, replication_rng(cfg.seed, rep)) for rep in range(cfg.reps)]
        fits = [fit_mle(cfg.truth.alpha, data) for data in samples]
        assert repr(report.records) == repr(tuple(_recovery_record(rep, fit) for rep, fit in enumerate(fits)))
        assert {fit.status for fit in fits} == {"max_iter"} and len({fit.iterations for fit in fits}) > 1
        assert report.columns["iterations"].tolist() == [fit.iterations for fit in fits]
        for key, value in (
            ("theta_hat", lambda fit: fit.params.theta), ("beta_hat", lambda fit: fit.params.beta),
            ("stderr_theta", lambda fit: fit.stderr_theta), ("stderr_beta", lambda fit: fit.stderr_beta),
            ("loglik", lambda fit: fit.loglik),
        ):
            assert np.array_equal(report.columns[key], [value(fit) for fit in fits], equal_nan=True)

    def test_fit_without_positive_definite_information(self):
        # Replication 3 ends at beta -> 1 where -H is not positive definite:
        # no standard errors and no covariance, alone and in the study.
        truth = PlAptParams(1.0, 1.1, 0.6)
        fit = fit_mle(truth.alpha, sample(truth, 50, replication_rng(1003, 3)))
        assert fit.status == "boundary_beta_one" and fit.covariance is None
        assert math.isnan(fit.stderr_theta) and math.isnan(fit.stderr_beta)
        report = run_experiment(ExperimentConfig(kind="recovery", n=50, reps=4, seed=1003, truth=truth))
        assert repr(report.records[3]) == repr(_recovery_record(3, fit))

    def test_model_compare_equals_its_row(self):
        truth = PlAptParams(1.5, 1.5, 1.5)
        cfg = ExperimentConfig(kind="model_compare", n=400, reps=4, seed=12, truth=truth, alpha_grid=(0.5, 1.0, 2.0))
        candidates = [lindley_family(), pseudo_lindley_family(), pl_apt_family(alpha_grid=cfg.alpha_grid)]
        report = run_experiment(cfg)
        for rep, record in enumerate(report.records):
            rows = model_compare(sample(truth, cfg.n, replication_rng(cfg.seed, rep)), candidates)
            assert repr(_model_compare_record(rep, rows)) == repr(record)

    @pytest.mark.parametrize(
        "truth,pareto_gamma,weight",
        [
            (PlAptParams(2.0, 2.5, 0.6), None, WeightSpec.power(0.5, s=0.7)),
            (PlAptParams(1.0, 1.5, 3.0), None, WeightSpec.hill()),
            (None, 0.5, WeightSpec.hill(s=2.0)),
        ],
        ids=["family", "alpha-one", "pareto"],
    )
    def test_evi_coverage_equals_per_replication_statistic(self, truth, pareto_gamma, weight):
        cfg = ExperimentConfig(
            kind="evi_coverage", n=1000, reps=20, seed=8, truth=truth, pareto_gamma=pareto_gamma, weight=weight, k_exponent=0.8
        )
        k = cfg.k_value()
        records = []
        for rep in range(cfg.reps):
            # the k + 1 smallest of n uniform tail masses, from k + 1
            # exponentials and one Gamma(n - k) variate
            rng = replication_rng(cfg.seed, rep)
            s = np.cumsum(rng.standard_exponential(k + 1))
            v = s / (s[-1] + rng.standard_gamma(cfg.n - k))
            if pareto_gamma is None:
                data, target = Sample(tail_quantile(truth, v)), 1.0 / truth.theta
            else:
                data, target = Sample(v**-pareto_gamma), pareto_gamma
            try:
                report = double_hill_components(data, weight, k)
            except PlaptError as exc:
                report = exc
            records.append(_evi_coverage_record(rep, report, target))
        report = run_experiment(cfg)
        assert repr(report.records) == repr(tuple(records))
        assert report.to_json() == _report_json(cfg, records)

    @pytest.mark.parametrize("kind", ["recovery", "model_compare", "evi_coverage", "maxima_gumbel"])
    def test_chunks_do_not_change_the_report(self, kind, monkeypatch):
        cfg = ExperimentConfig(kind=kind, n=200, reps=7, seed=21, truth=TRUTH)
        # a row of n uniforms, k + 2 = floor(200**0.6) + 2 = 26 variates, one uniform
        width = {"recovery": 200, "model_compare": 200, "evi_coverage": 26, "maxima_gumbel": 1}[kind]
        assert montecarlo._row_draw(cfg)[0] == width
        one_chunk = run_experiment(cfg).to_json()
        # three replications, and three lanes of the engine, a chunk
        monkeypatch.setattr(distribution, "CHUNK_ELEMENTS", 3 * width)
        assert distribution._chunks(7, width) == [range(0, 3), range(3, 6), range(6, 7)]
        assert run_experiment(cfg).to_json() == one_chunk

    def test_evi_tail_masses_follow_the_law_of_n_uniforms(self):
        # The k-th and (k+1)-th smallest tail masses drawn from k + 2 variates
        # (the rows of replications 0..19999 of seed 0) against those of
        # n = 200 uniforms each, as drawn before.
        cfg = ExperimentConfig(kind="evi_coverage", n=200, reps=1, seed=0, truth=TRUTH)
        k, reps = cfg.k_value(), 20000
        _, draw = montecarlo._row_draw(cfg)
        drawn = montecarlo._smallest_tail_masses(draw(range(reps)))
        reference = np.sort(1.0 - np.random.default_rng(32).random((reps, cfg.n)), axis=1)
        for j in (k - 1, k):
            assert stats.ks_2samp(cfg.n * drawn[:, j], cfg.n * reference[:, j]).pvalue > 0.01

    def test_evi_coverage_at_n_1e9(self):
        # memory and time set by k, not n: a sample of 1e9 would take 8 GB
        cfg = ExperimentConfig(kind="evi_coverage", n=10**9, reps=2, seed=1, truth=PlAptParams(2.0, 2.5, 1.5), k_exponent=0.3)
        report = run_experiment(cfg)
        assert report.failures == 0
        assert all(math.isfinite(r["m_n"]) for r in report.records)

    def test_iteration_summary(self):
        cfg = ExperimentConfig(kind="recovery", n=200, reps=9, seed=3, truth=TRUTH)
        report = run_experiment(cfg)
        its = [r["iterations"] for r in report.records if "iterations" in r]
        assert its
        assert report.summary["iterations"] == {
            "p50": float(np.percentile(its, 50)),
            "p90": float(np.percentile(its, 90)),
            "max": float(max(its)),
        }


# An error message that json must escape: quotes, backslashes, a control
# character and non-ASCII text, one character beyond the BMP.
_ODD = 'a "quoted" \\ back\\slash,\tcaf\u00e9 \u2603 \U0001f600\nend'


def _odd_fits(fit_rows):
    # fit_rows with an error carrying _ODD on every third row (its entries
    # as fit_rows leaves a failed fit) and an infinite stderr and
    # log-likelihood on the next
    def rows(x, alphas, *args, **kwargs):
        fits = fit_rows(x, alphas, *args, **kwargs)
        third = np.arange(len(x)) % 3
        fits.error[third == 0] = DomainError(_ODD)
        fits.status[third == 0], fits.iterations[third == 0] = _FAILED, 0
        for name in ("theta", "beta", "loglik", "stderr_theta", "stderr_beta", "score_theta", "score_beta", "covariance"):
            getattr(fits, name)[third == 0] = math.nan
        second = (third == 1) & (fits.status[:, 0] != _FAILED)
        fits.stderr_theta[second, 0], fits.loglik[second, 0] = math.inf, -math.inf
        return fits

    return rows


def _odd_evi(double_hill_rows):
    def rows(top, weights):
        stats, errors = double_hill_rows(top, weights)
        for r in range(len(errors)):
            if r % 3 == 0:
                errors[r] = NumericalError(_ODD)
            elif r % 3 == 1:
                stats["ci_high"][r] = math.inf
        return stats, errors

    return rows


_DEFAULT_TRUTH = PlAptParams(2.0, 2.5, 1.5)
# (kind, n, reps, seed, extra config fields, what to patch) of each writer
# case; a patch is (module, name, function of the original).
_WRITER_CASES = {
    **{f"{kind}-golden": (kind, n, reps, 1, {}, None) for kind, (n, reps, _) in _GOLDEN.items()},
    **{f"{kind}-one-rep": (kind, n, 1, 3, {}, None) for kind, (n, _, _) in _GOLDEN.items()},
    "recovery-nan-stderr": ("recovery", 50, 20, 1003, {"truth": PlAptParams(1.0, 1.1, 0.6)}, None),
    "recovery-max-iter": (
        "recovery", 50, 8, 1, {}, (montecarlo, "_fit_rows", lambda f: functools.partial(f, max_iter=3))
    ),
    "model-compare-family-errors": (
        "model_compare", 50, 6, 1, {}, (inference, "_fit_rows", lambda f: functools.partial(f, max_iter=3))
    ),
    "evi-tied-spacings": ("evi_coverage", 200, 12, 1, {"truth": None, "pareto_gamma": 2e-17, "k_exponent": 0.3}, None),
    "recovery-odd": ("recovery", 100, 7, 2, {}, (montecarlo, "_fit_rows", _odd_fits)),
    "model-compare-odd": ("model_compare", 100, 7, 2, {}, (inference, "_fit_rows", _odd_fits)),
    "evi-odd": ("evi_coverage", 500, 7, 2, {}, (montecarlo, "_double_hill_rows", _odd_evi)),
}


def _case_report(case, monkeypatch):
    kind, n, reps, seed, extra, patch = _WRITER_CASES[case]
    if patch is not None:
        module, name, wrap = patch
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    cfg = ExperimentConfig(**{"kind": kind, "n": n, "reps": reps, "seed": seed, "truth": _DEFAULT_TRUTH, **extra})
    return cfg, run_experiment(cfg)


# SHA-256 of repr(report.records) of some writer cases, recorded when the
# quantiles were first solved for theta*x (numpy 2.4.6, x86-64)
_RECORD_DIGESTS = {
    "recovery-golden": "f9b6f57906b088f3c519887e73659859791949e5e635d928eee5793a50547036",
    "model_compare-golden": "e73c4e3b5e540244e23dc8d4c796f26a8245f85a9aacddd83fafbf6fee30679b",
    "evi_coverage-golden": "77307ca6e9538fe7e02d703d963e46c1b22bf68888b7be99aa4c8c994a1b49a9",
    "maxima_gumbel-golden": "0f8da01c83d9c686d1276adf3758aefccce91dbe590f7d6345716c0ba5e204b7",
    "recovery-nan-stderr": "663ac6eb987edc1fb0f845cb1a2e27417b6270454ba06ac12377b3af24aa5043",
    "recovery-max-iter": "38f29ff8735d388a8060de33f7e5ac3a3745dbe0cbfb553b710a8ba9c82d8fc9",
    "model-compare-family-errors": "6992c50876ac652f26eaa2243bde968135d206e356c4cfaa05ff7a1ec44f5167",
    "evi-tied-spacings": "e44da8a122343e5914cbab6426c68ff3550c868dae6dc51aa67ac6d15d95408e",
}


class TestReportWriter:
    # The report is written from its columns; json.dumps of the record
    # dicts is the oracle, byte for byte.

    @pytest.mark.parametrize("case", list(_WRITER_CASES))
    def test_writer_equals_json_dumps_of_the_records(self, case, monkeypatch):
        cfg, report = _case_report(case, monkeypatch)
        records = report.records
        assert len(records) == cfg.reps
        assert report.failures == sum(not r["ok"] for r in records)
        assert report.to_json() == _report_json(cfg, records, report.summary)
        # the summary is the one the record dicts give, bit for bit
        assert repr(report.summary) == repr(_summary_of(cfg, records))

    def test_writer_cases_cover_what_json_must_escape(self, monkeypatch):
        failed = {}
        for case in _WRITER_CASES:
            with monkeypatch.context() as m:
                _, report = _case_report(case, m)
            text = report.to_json()
            failed[case] = report.failures
            if case.endswith("-odd"):
                assert '"a \\"quoted\\" \\\\ back\\\\slash,\\tcaf\\u00e9 \\u2603 \\ud83d\\ude00\\nend"' in text
                assert "Infinity" in text
        assert "NaN" in _case_report("recovery-nan-stderr", monkeypatch)[1].to_json()
        for case in ("recovery-max-iter", "model-compare-family-errors", "evi-tied-spacings"):
            assert 0 < failed[case]
        assert 0 < failed["evi-tied-spacings"] < 12

    @pytest.mark.parametrize("case", list(_RECORD_DIGESTS))
    def test_records_are_the_dicts_reports_held(self, case, monkeypatch):
        # the same keys in the same order, values of the same types and bits
        _, report = _case_report(case, monkeypatch)
        assert hashlib.sha256(repr(report.records).encode()).hexdigest() == _RECORD_DIGESTS[case]

    @pytest.mark.parametrize("case", ["recovery-nan-stderr", "model-compare-family-errors", "evi-tied-spacings"])
    def test_records_survive_dataclasses_replace(self, case, monkeypatch):
        # a replaced field leaves the records, and their section of the
        # report text, as the columns give them, NaN and errors included
        _, report = _case_report(case, monkeypatch)
        changed = dataclasses.replace(report, summary={})

        def record_text(r):
            return r.to_json().partition('"records": ')[2].partition('"seed": ')[0]

        assert repr(changed.records) == repr(report.records)
        assert record_text(changed) == record_text(report)
        assert changed.summary == {} != report.summary

    @pytest.mark.parametrize("kind", list(_GOLDEN))
    def test_report_spans_chunks_and_pieces(self, kind, monkeypatch):
        cfg = ExperimentConfig(kind=kind, n=200, reps=11, seed=21, truth=TRUTH)
        whole = run_experiment(cfg).to_json()
        width = montecarlo._row_draw(cfg)[0]
        monkeypatch.setattr(distribution, "CHUNK_ELEMENTS", 3 * width)  # four chunks of replications
        monkeypatch.setattr(montecarlo, "_WRITE_ROWS", 4)  # records written four at a time
        report = run_experiment(cfg)
        pieces = list(report.json_chunks())
        assert len(pieces) == 2 + 3
        assert "".join(pieces) == whole == _report_json(cfg, report.records, report.summary)
