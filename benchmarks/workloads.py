"""The benchmark's workloads: seeded inputs, the operations of one pass,
and the check and fingerprint of each operation's output.

Every workload is a closed loop: one caller, one operation at a time.  A
pass runs a fixed list of operations; the seed changes only the random
streams, never the amount of work, so runs with different seeds measure
the same thing.  Operations look their library functions up on the module
at call time, so that the tracer's rebinding (see ``tracer.py``) sees the
calls the benchmark makes from outside.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "plapt" / "__init__.py").is_file():
    raise ImportError(f"no plapt sources under {SRC}: run from a plapt checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import plapt  # noqa: E402
from plapt import distribution, montecarlo  # noqa: E402

if Path(plapt.__file__).resolve().parent != (SRC / "plapt").resolve():
    raise ImportError(f"plapt was imported from {plapt.__file__}, not from {SRC}")

GRID = montecarlo.REFERENCE_PARAMETER_GRID

# draws: one 2 MiB sample per grid point (larger than a 4 MiB L2 once numpy's
# temporaries are counted) and tail masses log-uniform down to 1e-300.
DRAW_N = 2**18
TAIL_POINTS = 2**14
LOG_TAIL_MIN = math.log(1e-300)
ROUNDTRIP_TOL = 1e-10  # cdf(quantile(u)) - u, as the test suite pins it
TAIL_RTOL = 1e-9  # reliability(tail_quantile(v)) / v - 1

# (kind, n, reps per grid point, most not-ok replications per report) of
# each study.  Over seeds 1-20 at the commit that added the
# benchmark, a recovery_small report had up to 8 of 20 fits not converged
# (3.5 on average at its hardest grid point), a recovery report up to 1 of
# 20, and the other kinds none.  A report above its ceiling fails, so a
# change that makes most fits raise or stop early cannot pass.
STUDIES = {
    "recovery": ("recovery", 1000, 20, 10),
    "recovery_small": ("recovery", 50, 20, 15),
    "model_compare": ("model_compare", 1000, 6, 3),
    "maxima": ("maxima_gumbel", 10_000, 800, 400),
    "evi": ("evi_coverage", 10_000, 10, 5),
}
EVI_PARETO = (0.5, 100_000, 40)  # (gamma, n, reps) of the exact-Pareto study

# cli: fixed parameters, so that the seed changes the data but not the work.
CLI_TRUTH = ("--alpha", "2", "--beta", "2.5", "--theta", "1.5")
CLI_SAMPLE_N = 100_000
CLI_TIMEOUT_S = 120.0

# The studies of each experiment workload, run one after another in a pass.
# Studies share a workload where one alone would leave too few passes in a
# run, or too few runs in the time all runs may take.
STUDY_WORKLOADS = {
    "recovery": ("recovery", "recovery_small"),
    "model_compare": ("model_compare",),
    "extremes": ("maxima", "evi"),
}

WORKLOADS = ("draws", *STUDY_WORKLOADS, "cli")


@dataclass
class Op:
    """One operation: ``run()`` is timed; ``check`` and ``digest`` are not.

    ``check(out)`` returns a failure message or None.  ``digest(out)`` is
    the bytes fingerprinted to show that repeats, and later versions of the
    library, give identical outputs.  ``key`` describes the inputs.
    """

    name: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], bytes]
    key: bytes


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# --------------------------------------------------------------------- draws


def draws_op(i: int, p, n: int, sample_seed: tuple[int, ...], v: np.ndarray) -> Op:
    """One ``sample`` of size n and one ``tail_quantile`` over tail masses v."""

    def run():
        return distribution.sample(p, n, list(sample_seed)), distribution.tail_quantile(p, v)

    def check(out):
        return check_draws(p, n, sample_seed, v, out)

    def digest(out):
        s, t = out
        return _sha(s.values.tobytes()) + _sha(np.asarray(t).tobytes())

    key = repr((p, n, sample_seed)).encode() + v.tobytes()
    return Op(f"draws[{i}]", n + v.size, run, check, digest, key)


def check_draws(p, n, sample_seed, v, out) -> str | None:
    s, t = out
    x = s.values
    if x.shape != (n,) or not np.all(np.isfinite(x)) or x[0] < 0.0:
        return "sample values are not n finite nonnegative numbers"
    # sample() draws default_rng(seed).random(n) and sorts the quantiles, so
    # a monotone exact quantile maps the sorted uniforms onto the values.
    u = np.sort(np.random.default_rng(list(sample_seed)).random(n))
    err = float(np.max(np.abs(distribution.cdf(p, x) - u)))
    if not err <= ROUNDTRIP_TOL:
        return f"cdf round trip off by {err:.3g} > {ROUNDTRIP_TOL:g}"
    t = np.asarray(t)
    if t.shape != v.shape or not np.all(np.isfinite(t)) or np.any(t < 0.0):
        return "tail quantiles are not finite nonnegative numbers"
    if np.any(np.diff(t) < 0.0):  # v is decreasing
        return "tail quantiles are not monotone in the tail mass"
    rel = float(np.max(np.abs(distribution.reliability(p, t) / v - 1.0)))
    if not rel <= TAIL_RTOL:
        return f"reliability(tail_quantile(v)) / v off by {rel:.3g} > {TAIL_RTOL:g}"
    return None


def _draws(seed: int) -> list[Op]:
    ops = []
    for i, p in enumerate(GRID):
        rng = np.random.default_rng([seed, i])
        v = np.sort(np.exp(LOG_TAIL_MIN * rng.random(TAIL_POINTS)))[::-1].copy()
        ops.append(draws_op(i, p, DRAW_N, (seed, i), v))
    return ops


# ------------------------------------------------------------------- studies

_FINITE_KEYS = {
    "recovery": ("theta_hat", "beta_hat", "loglik"),
    "maxima_gumbel": ("normalized",),
    "evi_coverage": ("m_n", "ci_low", "ci_high"),
}


def check_report(report, reps: int, max_not_ok: int) -> str | None:
    """Every replication is recorded, at most ``max_not_ok`` are not ok, and
    every ok record is finite."""
    kind = report.config["kind"]
    if len(report.records) != reps:
        return f"{len(report.records)} records for {reps} replications"
    not_ok = sum(not rec["ok"] for rec in report.records)
    if not_ok > max_not_ok:
        return f"{not_ok} of {reps} replications not ok, more than {max_not_ok}"
    for rec in report.records:
        if not rec["ok"]:
            continue  # a recorded non-convergence is a result, not a failure
        if kind == "model_compare":
            values = [v for fam in rec["families"].values() for v in (fam["loglik"], fam["aic"], fam["bic"])]
        else:
            values = [rec[k] for k in _FINITE_KEYS[kind]]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite estimate in replication {rec['rep']}"
    return None


def study_op(name: str, cfg, max_not_ok: int) -> Op:
    """One seeded ``run_experiment`` call."""

    def run():
        return montecarlo.run_experiment(cfg)

    def check(report):
        return check_report(report, cfg.reps, max_not_ok)

    def digest(report):
        return _sha(report.to_json().encode())

    return Op(name, cfg.reps, run, check, digest, repr(cfg).encode())


def _study(study: str, seed: int) -> list[Op]:
    kind, n, reps, max_not_ok = STUDIES[study]
    grid = [p for p in GRID if not (kind == "maxima_gumbel" and p.is_alpha_one)]
    ops = []
    for i, p in enumerate(grid):
        cfg = montecarlo.ExperimentConfig(kind=kind, n=n, reps=reps, seed=1000 * seed + i, truth=p)
        ops.append(study_op(f"{study}[{i}]", cfg, max_not_ok))
    if study == "evi":
        gamma, n, reps = EVI_PARETO
        cfg = montecarlo.ExperimentConfig(
            kind=kind, n=n, reps=reps, seed=1000 * seed + len(grid), pareto_gamma=gamma
        )
        ops.append(study_op("evi[pareto]", cfg, reps // 2))
    return ops


# ----------------------------------------------------------------------- cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Proc:
    """Outcome of one child process."""

    status: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], stdout_path: Path) -> Proc:
    """Run argv to completion with stdout in a file; report its peak RSS.

    ``os.wait4`` gives this child's own resource usage.  A child that
    outlives CLI_TIMEOUT_S is killed, then reaped here.
    """
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss, stdout_path.read_bytes(), err_path.read_bytes())


def cli_commands(seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    data = str(workdir / "data.csv")
    return [
        ("sample", ["sample", *CLI_TRUTH, "--n", str(CLI_SAMPLE_N), "--seed", str(seed), "--output", data]),
        ("fit", ["fit", "--input", data, "--alpha", "2"]),
        ("fit_grid", ["fit", "--input", data, "--alpha-grid", "0.5", "1", "2", "4"]),
        ("evi", ["evi", "--input", data, "--k", "300"]),
        ("experiment", ["experiment", "--kind", "recovery", *CLI_TRUTH, "--n", "1000", "--reps", "50", "--seed", str(seed)]),
        ("table", ["table"]),
    ]


CLI_COMMANDS = tuple(name for name, _ in cli_commands(0, Path()))


def _json_check(text: bytes, required: tuple[str, ...]) -> tuple[dict | None, str | None]:
    try:
        payload = json.loads(text)
    except ValueError:
        return None, "output is not JSON"
    missing = [k for k in required if k not in payload]
    if missing:
        return None, f"output lacks {missing}"
    return payload, None


def check_cli(cmd: str, proc: Proc, data_path: Path) -> str | None:
    if proc.status != 0:
        return f"exit status {proc.status}: {proc.stderr.decode(errors='replace')[-300:]}"
    if cmd == "sample":
        lines = data_path.read_text().splitlines()
        if lines[0] != "x" or len(lines) != CLI_SAMPLE_N + 1:
            return "sample CSV does not have a header and n rows"
        x = np.array(lines[1:], dtype=float)
        if not np.all(np.isfinite(x)) or np.any(x < 0.0) or np.any(np.diff(x) < 0.0):
            return "sample CSV values are not sorted finite nonnegative numbers"
    elif cmd in ("fit", "fit_grid"):
        fit, err = _json_check(proc.stdout, ("n", "alpha", "theta", "beta", "loglik", "convergence"))
        if err:
            return err
        if fit["n"] != CLI_SAMPLE_N or not all(math.isfinite(fit[k]) for k in ("theta", "beta", "loglik")):
            return "fit output has a wrong n or non-finite estimates"
    elif cmd == "evi":
        evi, err = _json_check(proc.stdout, ("k", "m_n", "ci_low", "ci_high"))
        if err:
            return err
        if evi["k"] != 300 or not evi["ci_low"] <= evi["m_n"] <= evi["ci_high"]:
            return "evi output has a wrong k or an interval that misses m_n"
    elif cmd == "experiment":
        report, err = _json_check(proc.stdout, ("config", "records", "summary"))
        if err:
            return err
        if len(report["records"]) != 50 or report["config"]["kind"] != "recovery":
            return "experiment output does not hold 50 recovery records"
    elif cmd == "table":
        rows = [line.split(",") for line in proc.stdout.decode().splitlines()]
        if rows[0] != ["theta", "alpha", "beta", "q1", "q2", "q3"] or len(rows) != 1 + len(GRID):
            return "table output does not have the header and one row per grid point"
        if not all(math.isfinite(float(v)) for row in rows[1:] for v in row):
            return "table output has non-finite entries"
    return None


def cli_op(cmd: str, args: list[str], workdir: Path, prefix: list[str]) -> Op:
    """One ``plapt`` command in a fresh process started with ``prefix``."""
    data_path = workdir / "data.csv"
    out_path = workdir / f"{cmd}.out"

    def run():
        return run_child([*prefix, *args], out_path)

    def check(proc):
        return check_cli(cmd, proc, data_path)

    def digest(proc):
        return _sha(data_path.read_bytes() if cmd == "sample" else proc.stdout)

    return Op(f"cli.{cmd}", 1, run, check, digest, repr(args).encode())


def cli_prefix() -> list[str]:
    return [sys.executable, "-m", "plapt.cli"]


def traced_cli_prefix(trace_path: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(trace_path), "--"]


def _cli(seed: int, workdir: Path, prefix: list[str]) -> list[Op]:
    return [cli_op(cmd, args, workdir, prefix) for cmd, args in cli_commands(seed, workdir)]


# --------------------------------------------------------------------- entry


def build(workload: str, seed: int, workdir: Path, prefix: list[str] | None = None) -> list[Op]:
    """The operations of one pass of ``workload`` with inputs from ``seed``.

    ``workdir`` holds the cli workload's files; ``prefix`` is the command
    that starts a cli process (default: ``python -m plapt.cli``).
    """
    if workload == "draws":
        return _draws(seed)
    if workload in STUDY_WORKLOADS:
        return [op for study in STUDY_WORKLOADS[workload] for op in _study(study, seed)]
    if workload == "cli":
        return _cli(seed, workdir, prefix or cli_prefix())
    raise ValueError(f"unknown workload {workload!r}")
