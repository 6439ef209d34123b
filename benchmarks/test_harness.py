"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks -q
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from plapt import ExperimentConfig, Sample  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _small_draws_op():
    rng = np.random.default_rng(0)
    v = np.sort(np.exp(workloads.LOG_TAIL_MIN * rng.random(256)))[::-1].copy()
    return workloads.draws_op(0, workloads.GRID[2], 4096, (3, 0), v)


def _small_recovery_op():
    cfg = ExperimentConfig(kind="recovery", n=50, reps=3, seed=5, truth=workloads.GRID[0])
    return workloads.study_op("recovery[0]", cfg, max_not_ok=1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    workdir = workloads.BENCH_DIR / "out"
    first, again, other = (workloads.build(name, seed, workdir) for seed in (7, 7, 8))
    assert [op.key for op in first] == [op.key for op in again]
    assert [op.key for op in first] != [op.key for op in other]
    # the seed changes the data, never the amount of work
    assert [op.items for op in first] == [op.items for op in other]


def test_draws_check_accepts_exact_output():
    op = _small_draws_op()
    assert op.check(op.run()) is None


def test_quantile_perturbed_by_1e_6_is_caught():
    op = _small_draws_op()
    s, t = op.run()
    values = s.values.copy()
    values[values.size // 2] *= 1.0 + 1e-6
    assert "round trip" in op.check((Sample(values), t))


def test_tail_quantile_perturbed_by_1e_6_is_caught():
    op = _small_draws_op()
    s, t = op.run()
    t = t.copy()
    t[t.size // 2] *= 1.0 + 1e-6
    assert "reliability" in op.check((s, t))


def test_report_check_catches_a_non_finite_estimate():
    op = _small_recovery_op()
    report = op.run()
    assert op.check(report) is None
    k = next(i for i, r in enumerate(report.records) if r["ok"])
    records = list(report.records)
    records[k] = dict(records[k], theta_hat=math.nan)
    assert "non-finite" in op.check(replace(report, records=tuple(records)))


def test_report_check_catches_replications_that_are_not_ok():
    op = _small_recovery_op()
    report = op.run()
    failed = tuple({"rep": r["rep"], "ok": False, "error": "fit did not converge"} for r in report.records)
    assert "3 of 3 replications not ok" in op.check(replace(report, records=failed))
    one_failed = (failed[0], *report.records[1:])
    assert op.check(replace(report, records=one_failed)) is None


def test_failed_cli_command_is_caught():
    proc = workloads.Proc(status=3, wall_s=0.1, maxrss_kb=1, stdout=b"", stderr=b"numerical error")
    assert "exit status 3" in workloads.check_cli("fit", proc, Path("unused"))


def test_a_check_that_raises_is_a_failed_operation():
    op = workloads.Op("bad", 1, run=lambda: None, check=lambda out: 1 / 0, digest=lambda out: b"", key=b"")
    r = run.Run([op])
    r.one_pass([op])
    assert r.attempted == 1 and "ZeroDivisionError" in r.failures[0]


def test_a_repeat_with_another_output_is_a_failed_operation():
    outputs = iter([b"first", b"second"])
    op = workloads.Op("flaky", 1, run=lambda: next(outputs), check=lambda out: None, digest=lambda out: out, key=b"")
    r = run.Run([op])
    r.one_pass([op])
    r.one_pass([op])
    assert r.failures == ["flaky: output differs from the first repeat"]


def _bindings():
    return {
        (module.__name__, attr): value
        for module in tracer.plapt_modules()
        for attr, value in vars(module).items()
    }


def test_process_times_lose_the_excess_of_the_probes_around_them():
    ref = run.IMPORT_PROBE_REF_S
    times = run.bracketed([1.0, 2.0, 1.5], [ref, ref, ref + 0.2, ref - 0.4])
    assert times == pytest.approx([1.0, 1.9, 1.6])
    with pytest.raises(ValueError):
        run.bracketed([1.0], [ref])


def test_a_burst_in_one_pass_does_not_move_items_per_s():
    ops = [workloads.Op(f"op{j}", 2, run=lambda: b"", check=lambda out: None, digest=lambda out: out, key=b"")
           for j in range(2)]
    r = run.Run(ops)
    steady = run.end_to_end(r, [[1.0, 3.0], [1.0, 3.0], [1.0, 3.0]], [0.5], 1024)
    burst = run.end_to_end(r, [[1.0, 3.0], [9.0, 3.0], [1.0, 3.0]], [0.5], 1024)
    assert steady["items_per_s"]["value"] == burst["items_per_s"]["value"] == pytest.approx(1.0)


def test_trace_rebinds_every_call_site_and_restores_it():
    before = _bindings()
    t = tracer.Tracer()
    op = _small_recovery_op()
    with tracer.installed(t) as rebound:
        sites = {(module.__name__, attr) for module, attr, _ in rebound}
        with t.span(tracer.ROOT_LAYER):
            op.run()
    expected = {
        ("plapt.distribution", "lambert_w"),
        ("plapt.extremes", "lambert_w"),
        *(("plapt.montecarlo", name) for name in
          ("quantile", "fit_mle", "model_compare", "double_hill_components", "maxima_normalization")),
        *(("plapt.inference", name) for name in ("score", "log_likelihood", "fit_mle", "fit_mle_profile")),
    }
    assert expected <= sites
    assert tracer.traced_bindings() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    spans = len(t.span_layer)
    op.run()  # untraced again: nothing is recorded
    assert len(t.span_layer) == spans

    summary = t.summary()
    layers = summary["layers"]
    assert layers["montecarlo.run_experiment"]["calls"] == 1
    assert layers["inference.fit_mle"]["calls"] == len(summary["fit_iterations"]) == 3
    assert layers["inference.score"]["calls"] > 0
    assert layers["special_functions.lambert_w"]["points"] == 3 * 50
    # self times partition the root spans exactly
    assert sum(e["self_ns"] for e in layers.values()) == summary["root_ns"]


def test_a_missing_layer_fails_the_trace(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "inference.renamed_away", None)
    with pytest.raises(AttributeError):
        with tracer.installed(tracer.Tracer()):
            pass
    assert tracer.traced_bindings() == []


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_every_metric_of_benchmark_json(trace, section, capsys):
    argv = ["--workload", "extremes", "--seed", "1", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
