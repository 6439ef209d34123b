"""Run one workload of the plapt benchmark and print its metrics.

    python3 benchmarks/run.py --workload draws --seed 1 --seconds 10 --trace 0

Run from the root of a plapt checkout; the library is imported from its
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md).  ``--record FILE`` also appends the full
record of the run (metrics with sample counts, fingerprint, environment,
per-layer detail) to FILE as one JSON line, for ``compare.py``.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import workloads
except ImportError as exc:  # not a plapt checkout
    print(f"error: {exc}", file=sys.stderr)
    raise SystemExit(2) from None
import tracer

WARMUP_S = 1.0  # cli: untimed commands first, so lazy set-up is not measured
SETUP_REPEATS = 5  # spread over the run, between passes
MIN_PASSES = 3  # untraced, so that per-operation medians outvote one burst
CLI_PROBE_REPEATS = 3


# Host-speed calibration.  On a shared host the speed of this process's
# core drifts by 20-60 % over tens of seconds, longer than a run, so the
# medians of whole runs disagree.  A fixed kernel timed before and after
# every pass measures the drift, and a pass's times are scaled to a host on
# which the kernel takes CALIBRATION_REF_S.  Of the kernels tried (small
# numpy calls in a Python loop, large arrays, starting a Python process)
# large arrays tracked every in-process workload best.  None tracked the
# cli workload's process start-ups, so cli is not scaled by it (see
# IMPORT_PROBE_REF_S).  Raw values are kept in the record.
CALIBRATION_REF_S = 0.03
# The kernel's reading is its median repeat, times CALIBRATION_UNITS.  A
# single burst on the host then moves no reading; with the sum of six
# repeats, such bursts made the scaled draws figures spread 22 % while
# the raw ones spread 5 %.
CALIBRATION_REPEATS = 12
CALIBRATION_UNITS = 6


@functools.cache
def _calibration_data() -> np.ndarray:
    return np.random.default_rng(0).random(2**18)


# A cli command, like a setup_s probe, is mostly process start-up and the
# imports of numpy and scipy, and the host's start-up speed drifts, apart
# from the speed the calibration kernel sees.  So a probe process that only
# imports numpy and scipy is timed next to each such process, outside the
# measured time, and the process's time is corrected by the probe's excess
# over IMPORT_PROBE_REF_S: ``adjusted = wall - (probe - ref)``.  A cli
# command takes the mean of the probes just before and just after it (the
# commands of a pass share the probes between them); a setup probe takes
# the one after it.  The correction is additive because the start-up is
# what drifts with the probe, not the rest of a command: over five minutes
# of back-to-back commands a command's wall time moved by 0.8-1.2 s per
# second that the probe moved.  On the same log the quartile spread of
# pass times fell from 14.7 % raw to 3.4 % corrected, 6.5 % with the ratio
# to the probe; over six seeds of cli runs it fell from 11 % raw to 6 %
# corrected (6.5 % with the ratio).  A bare
# interpreter start hardly tracked.  The probe runs no plapt code, so a
# faster plapt import or command, dropping scipy included, still shows in
# full.
IMPORT_PROBE_REF_S = 0.5
IMPORT_PROBE_ARGV = [sys.executable, "-c", "import numpy, scipy.special"]


def startup_adjusted(seconds: float, probe_s: float) -> float:
    """Correct a process's wall time by the import probe's excess."""
    return seconds - (probe_s - IMPORT_PROBE_REF_S)


def bracketed(times: list[float], probes: list[float]) -> list[float]:
    """Correct consecutive processes' times by the probes between them:
    ``probes[i]`` ran just before process i, ``probes[i + 1]`` just after."""
    if len(probes) != len(times) + 1:
        raise ValueError("need a probe before the first process and after each")
    return [startup_adjusted(t, (a + b) / 2) for t, a, b in zip(times, probes, probes[1:])]


def calibrate() -> float:
    """Time transcendentals and a sort over a 2 MiB array."""
    data = _calibration_data()
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        np.sort(np.exp(-0.5 * np.log(data)))
        times.append(time.perf_counter() - start)
    return CALIBRATION_UNITS * statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Run:
    """Timed passes over a workload's operations, with their checks."""

    def __init__(self, ops):
        self.ops = ops
        self.pass_op_s: list[list[float]] = []  # untraced passes
        self.calib_s: list[float] = []  # kernel times around the untraced passes
        self.traced_pass_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: list[bytes | None] = [None] * len(ops)
        self.bad: list[str | None] = [None] * len(ops)

    def verify(self, j: int, out, error: str | None) -> None:
        """Check the first output of op j; later repeats must match it."""
        op = self.ops[j]
        if error is None:
            try:
                digest = op.digest(out)
                if self.reference[j] is None:
                    self.reference[j] = digest
                    self.bad[j] = op.check(out)
                elif digest != self.reference[j]:
                    error = "output differs from the first repeat"
            except Exception as exc:  # a malformed output fails its check
                error = f"checking the output raised {type(exc).__name__}: {exc}"
        error = error or self.bad[j]
        if error is not None:
            self.failures.append(f"{op.name}: {error}")

    @property
    def pass_s(self) -> list[float]:
        return [sum(times) for times in self.pass_op_s]

    def one_pass(self, ops, span=None, after_op=None) -> list[float]:
        """Run ``ops`` (the run's ops, or a traced twin of them) once.

        Only ``op.run()`` is timed.  ``span`` opens the root trace span of
        each op; ``after_op(op, out, seconds)`` runs after each op, with
        ``out`` None if it raised.
        """
        times = []
        for j, op in enumerate(ops):
            error = out = None
            start = time.perf_counter()
            try:
                if span is None:
                    out = op.run()
                else:
                    with span():
                        out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            self.attempted += 1
            self.verify(j, out, error)
            if after_op is not None:
                after_op(op, out, elapsed)
        return times

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for digest in self.reference:
            h.update(digest or b"missing")
        return h.hexdigest()


def warm_up(ops, seconds: float) -> None:
    """Run ``ops`` once, untimed and unchecked, stopping after ``seconds``."""
    start = time.perf_counter()
    for op in ops:
        try:
            op.run()
        except Exception:  # failures are counted in the timed passes
            pass
        if time.perf_counter() - start > seconds:
            return


def measure(run: Run, seconds: float, untraced_pass, traced_pass=None, calibrated=False, between=None) -> None:
    """Alternate untraced and (when given) traced passes for ``seconds``.

    Stops before a pass that would end more than half a pass after
    ``seconds``, once there are MIN_PASSES untraced passes and one traced
    pass per untraced one.  If ``calibrated``, the calibration kernel is
    timed before every untraced pass and after the last one.
    ``between()``, if given, runs after every untraced pass, outside the
    measured time.
    """
    while True:
        if traced_pass is not None and len(run.traced_pass_s) < len(run.pass_op_s):
            run.traced_pass_s.append(sum(traced_pass()))
        else:
            if calibrated:
                run.calib_s.append(calibrate())
            run.pass_op_s.append(untraced_pass())
            if between is not None:
                between()
        spent = sum(run.pass_s) + sum(run.traced_pass_s)
        enough = len(run.pass_op_s) >= MIN_PASSES and (
            traced_pass is None or len(run.traced_pass_s) == len(run.pass_op_s)
        )
        if enough and spent + statistics.median(run.pass_s) / 2 > seconds:
            break
    if calibrated:
        run.calib_s.append(calibrate())


def child_walls(argv, workdir: Path, repeats: int) -> list[float]:
    walls = []
    for _ in range(repeats):
        proc = workloads.run_child(argv, workdir / "probe.out")
        if proc.status != 0:
            raise RuntimeError(f"{' '.join(argv)} exited with {proc.status}: {proc.stderr.decode()[-500:]}")
        walls.append(proc.wall_s)
    return walls


def import_seconds(workdir: Path) -> list[float]:
    """Cumulative ``import plapt`` time reported by ``python -X importtime``."""
    out = []
    for _ in range(CLI_PROBE_REPEATS):
        proc = workloads.run_child([sys.executable, "-X", "importtime", "-c", "import plapt"], workdir / "probe.out")
        lines = [line for line in proc.stderr.decode().splitlines() if line.rstrip().endswith("| plapt")]
        if proc.status != 0 or not lines:
            raise RuntimeError("python -X importtime -c 'import plapt' failed")
        out.append(int(lines[-1].split("|")[1]) / 1e6)
    return out


def environment() -> dict:
    src_files = sorted(workloads.SRC.rglob("*.py"))
    h = hashlib.sha256()
    for path in src_files:
        h.update(path.relative_to(workloads.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        cpu = None

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in src_files),
        "src_sha256": h.hexdigest(),
    }


def _metric(value, unit, samples):
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def op_ms(pass_op_s: list[list[float]], q: float) -> dict:
    """Percentile q of the operation times of all passes."""
    times = np.concatenate(pass_op_s) * 1e3
    return _metric(np.percentile(times, q), "ms", times.size)


def end_to_end(run: Run, pass_op_s: list[list[float]], setup: list[float], peak_rss_kb: int) -> dict:
    """End-to-end metrics from the (corrected or raw) operation times of
    the untraced passes and the (corrected or raw) set-up times.

    ``items_per_s`` is the items of a pass over the sum of each operation's
    median time, so a burst on the host that slows one operation in one
    pass moves nothing.

    Percentiles of operation times are reported but not among them; across
    seeds they spread nearly as wide as any bound.  On ``cli`` the 90th
    percentile is ``fit --alpha-grid``, whose fit at alpha = 4 drifts toward
    beta -> inf in 20 to 80 Newton iterations depending on the data.  On
    ``recovery`` and ``model_compare`` a few long fits set it, at grid
    points that depend on the seed.
    """
    items = sum(op.items for op in run.ops)
    pass_time = sum(statistics.median(op_times) for op_times in zip(*pass_op_s))
    return {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "items_per_s": _metric(items / pass_time, "1/s", len(pass_op_s)),
        "peak_rss_mb": _metric(peak_rss_kb / 1024.0, "MB", 1),
    }


def per_layer(run: Run, summary: dict, imports: list[float], interp: list[float]) -> dict:
    passes = len(run.traced_pass_s)
    layers = summary["layers"]
    root_ns = summary["root_ns"] or 1
    zero = {"calls": 0, "points": 0, "self_ns": 0}
    out = {}
    names = [*tracer.LAYERS, tracer.ROOT_LAYER, *(f"cli.{c}" for c in workloads.CLI_COMMANDS)]
    for name in names:
        e = layers.get(name, zero)
        out[f"{name}.calls_per_pass"] = _metric(e["calls"] / passes, "count", passes)
        out[f"{name}.self_pct"] = _metric(100.0 * e["self_ns"] / root_ns, "%", e["calls"])
        if tracer.LAYERS.get(name) in ("points", "n"):
            out[f"{name}.points_per_pass"] = _metric(e["points"] / passes, "count", passes)
    lw = layers.get("special_functions.lambert_w", zero)
    out["special_functions.lambert_w.ns_per_point"] = _metric(lw["self_ns"] / max(lw["points"], 1), "ns", lw["calls"])
    iters = summary["fit_iterations"]
    fits = len(iters)
    score_calls = layers.get("inference.score", zero)["calls"]
    out["inference.fits_per_pass"] = _metric(fits / passes, "count", passes)
    out["inference.fits_not_converged_per_pass"] = _metric(summary["fits_not_converged"] / passes, "count", passes)
    out["inference.score_calls_per_fit"] = _metric(score_calls / fits if fits else 0.0, "count", fits)
    out["inference.newton_iters.p50"] = _metric(np.percentile(iters, 50) if fits else 0.0, "count", fits)
    out["inference.newton_iters.p99"] = _metric(np.percentile(iters, 99) if fits else 0.0, "count", fits)
    untraced = statistics.median(run.pass_s)
    out["trace.overhead_pct"] = _metric(100.0 * (statistics.median(run.traced_pass_s) / untraced - 1.0), "%", passes)
    out["trace.spans_per_pass"] = _metric(summary["spans"] / passes, "count", passes)
    out["bench.op_ms.p50"] = op_ms(run.pass_op_s, 50)
    out["bench.op_ms.p90"] = op_ms(run.pass_op_s, 90)
    out["cli.import_s"] = _metric(statistics.median(imports), "s", len(imports))
    out["cli.interpreter_s"] = _metric(statistics.median(interp), "s", len(interp))
    return out


def execute(args, workdir: Path) -> tuple[Run, dict, dict]:
    """Measure the workload; return the run, its metrics and extra detail."""
    ops = workloads.build(args.workload, args.seed, workdir)
    run = Run(ops)
    is_cli = args.workload == "cli"
    peak_child_kb = 0
    probe_cli = is_cli and not args.trace
    import_probe_s: list[list[float]] = []  # per untraced cli pass: before and after each command

    def import_probe():
        import_probe_s[-1].extend(child_walls(IMPORT_PROBE_ARGV, workdir, 1))

    def after_cli_op(op, proc, elapsed):
        nonlocal peak_child_kb
        if proc is not None:
            peak_child_kb = max(peak_child_kb, proc.maxrss_kb)
        if probe_cli:
            import_probe()

    def untraced_pass():
        if probe_cli:
            import_probe_s.append([])
            import_probe()
        return run.one_pass(ops, after_op=after_cli_op if is_cli else None)

    summary = tracer.empty_summary()
    traced_pass = None
    if args.trace and is_cli:
        # Each command runs in a child that traces itself; the command's
        # own span is its wall time, the child's spans hang below it.
        trace_json = workdir / "trace.json"
        traced_ops = workloads.build("cli", args.seed, workdir, workloads.traced_cli_prefix(trace_json))

        def after_traced_cli_op(op, proc, elapsed):
            if proc is None:
                return
            part = json.loads(trace_json.read_text())
            trace_json.unlink()
            own_ns = int(elapsed * 1e9) - part["root_ns"]
            tracer.merge(summary, part)
            tracer.merge(summary, {
                "layers": {op.name: {"calls": 1, "points": 0, "self_ns": own_ns}},
                "root_ns": own_ns, "spans": 1, "fit_iterations": [], "fits_not_converged": 0,
            })

        def traced_pass():
            return run.one_pass(traced_ops, after_op=after_traced_cli_op)

    elif args.trace:
        t = tracer.Tracer()

        def traced_pass():
            with tracer.installed(t):
                return run.one_pass(ops, span=lambda: t.span(tracer.ROOT_LAYER))

    setup, setup_import_s = [], []
    setup_argv = [sys.executable, str(workloads.BENCH_DIR / "child.py"), "setup", args.workload, str(args.seed)]

    def setup_probe():
        # Spread over the run, so that a short slow phase of the host
        # moves only some of the probes.
        if len(setup) < SETUP_REPEATS:
            setup.extend(child_walls(setup_argv, workdir, 1))
            setup_import_s.extend(child_walls(IMPORT_PROBE_ARGV, workdir, 1))

    calibrated = not args.trace and not is_cli
    # In-process workloads warm up with one whole pass, and their peak RSS
    # is read right after it, before the calibration kernel or an output
    # check has allocated anything.  cli's peak is its largest command's.
    warm_up(ops, WARMUP_S if is_cli else math.inf)
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibrate()  # warms the kernel's own arrays
    if args.trace:
        measure(run, args.seconds, untraced_pass, traced_pass)
    else:
        setup_probe()
        measure(run, args.seconds, untraced_pass, calibrated=calibrated, between=setup_probe)
        while len(setup) < SETUP_REPEATS:
            setup_probe()

    detail = {
        "pass_s": run.pass_s,
        "op_median_s": {op.name: statistics.median(t[j] for t in run.pass_op_s) for j, op in enumerate(ops)},
    }
    if args.trace:
        if not is_cli:
            tracer.merge(summary, t.summary())
        imports = import_seconds(workdir)
        interp = child_walls([sys.executable, "-c", "pass"], workdir, CLI_PROBE_REPEATS)
        metrics = per_layer(run, summary, imports, interp)
        detail["traced_pass_s"] = run.traced_pass_s
        detail["self_s"] = {name: e["self_ns"] / 1e9 for name, e in summary["layers"].items()}
    else:
        peak_kb = peak_child_kb if is_cli else own_peak_kb
        if is_cli:
            adjusted = [bracketed(times, probes) for times, probes in zip(run.pass_op_s, import_probe_s)]
        else:
            scales = [2.0 * CALIBRATION_REF_S / (a + b) for a, b in zip(run.calib_s, run.calib_s[1:])]
            adjusted = [[t * k for t in times] for times, k in zip(run.pass_op_s, scales)]
        setup_adjusted = [startup_adjusted(t, probe) for t, probe in zip(setup, setup_import_s)]
        metrics = end_to_end(run, adjusted, setup_adjusted, peak_kb)
        detail["calib_s"] = run.calib_s
        detail["import_probe_s"] = import_probe_s
        detail["setup_import_probe_s"] = setup_import_s
        detail["setup_s"] = setup
        detail["raw_metrics"] = end_to_end(run, run.pass_op_s, setup, peak_kb)
        for q in (50, 90):
            detail[f"op_ms.p{q}"] = op_ms(adjusted, q)
            detail["raw_metrics"][f"op_ms.p{q}"] = op_ms(run.pass_op_s, q)
    return run, metrics, detail


def report(args, run: Run, metrics: dict, detail: dict, env: dict) -> dict:
    """Print the human-readable summary; return the full record."""
    kind = "per-layer" if args.trace else "end-to-end"
    print(
        f"workload {args.workload}, seed {args.seed}: {len(run.pass_s)} untraced passes"
        + (f" + {len(run.traced_pass_s)} traced" if args.trace else "")
        + f", {run.attempted} operations, {len(run.failures)} failed"
        + f" (failed_frac {len(run.failures) / max(run.attempted, 1):.3g})"
    )
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}")
    print(f"{kind} metrics (value, unit, sample count):")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    if not args.trace:
        for name in ("op_ms.p50", "op_ms.p90"):
            m = detail[name]
            print(f"  {name + ' (not gated)':52s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
        if detail["calib_s"]:
            calib = f"kernel median {statistics.median(detail['calib_s']):.4g} s"
        else:
            calib = f"cli import probe median {statistics.median(sum(detail['import_probe_s'], [])):.4g} s"
        print(f"unscaled ({calib}; setup import probe median {statistics.median(detail['setup_import_probe_s']):.4g} s):")
        for name, m in detail["raw_metrics"].items():
            print(f"  {name:52s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    if args.workload == "cli":
        for name, s in detail["op_median_s"].items():
            print(f"  {name + '_s (median, unscaled)':52s} {s:14.6g} s")
    print(f"fingerprint {run.fingerprint()}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "fingerprint": run.fingerprint(),
        "metrics": metrics,
        "detail": detail,
        "env": env,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = workloads.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run, metrics, detail = execute(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = report(args, run, metrics, detail, environment())
    if args.record is not None:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
