"""Summarise one benchmark record file, or compare two.

    python3 benchmarks/compare.py BASE.jsonl [NEW.jsonl]

For every workload and metric it prints the median and quartiles over the
runs in each file, their spread (quartile distance over median) and, with
two files, the change of the median.  A metric whose spread in either file
exceeds its bound in BENCHMARK.json is marked "unresolved", unless every
new run is better than every base run.  Fingerprints of runs with the same
workload and seed must agree within a file and between the files; every
difference is printed.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def by_metric(records: list[dict]) -> dict:
    values = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            values[(rec["workload"], rec["trace"], name)].append(m["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base: list[float], new: list[float], spec: dict | None) -> str:
    if spec is None or "bound" not in spec:
        return ""
    bound, lower = spec["bound"], spec["better"] == "lower"
    all_better = max(new) < min(base) if lower else min(new) > max(base)
    if max(spread(base), spread(new)) > bound:
        return "better (every run)" if all_better else "unresolved"
    change = statistics.median(new) / statistics.median(base) - 1.0
    worse = change > bound if lower else change < -bound
    return "WORSE" if worse else "ok"


def fingerprints(records: list[dict]) -> dict:
    seen = defaultdict(set)
    for rec in records:
        seen[(rec["workload"], rec["seed"])].add(rec["fingerprint"])
    return seen


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = [load(Path(p)) for p in argv]
    specs = metric_specs()
    tables = [by_metric(recs) for recs in files]
    keys = sorted(set().union(*tables))
    header = f"{'workload':15s} {'metric':48s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}"
    if len(files) == 2:
        header += f" {'new median':>12s} {'new spread':>10s} {'change':>8s}  verdict"
    print(header)
    for key in keys:
        workload, trace, name = key
        base = tables[0].get(key)
        if not base:
            continue
        q1, med, q3 = quartiles(base)
        unit = specs.get(name, {}).get("unit", "")
        line = f"{workload:15s} {name + ' [' + unit + ']':48s} {len(base):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread(base):7.1%}"
        if len(files) == 2 and tables[1].get(key):
            new = tables[1][key]
            new_med = statistics.median(new)
            change = new_med / med - 1.0 if med else float("nan")
            line += f" {new_med:12.6g} {spread(new):10.1%} {change:+8.1%}  {verdict(base, new, specs.get(name))}"
        print(line)
    status = 0
    for i, recs in enumerate(files):
        for (workload, seed), prints in sorted(fingerprints(recs).items()):
            if len(prints) > 1:
                print(f"fingerprint differs between runs of {workload} seed {seed} in {argv[i]}: {sorted(prints)}")
                status = 1
    if len(files) == 2:
        base, new = fingerprints(files[0]), fingerprints(files[1])
        for key in sorted(set(base) & set(new)):
            if base[key] != new[key]:
                print(f"fingerprint of {key[0]} seed {key[1]} changed: {sorted(base[key])} -> {sorted(new[key])}")
                status = 1
    for i, recs in enumerate(files):
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        print(f"{argv[i]}: {len(recs)} runs, {failed} of {attempted} operations failed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
