"""Child processes started by run.py.

    python3 benchmarks/child.py setup WORKLOAD SEED
        Import plapt and build the workload's inputs, then exit; run.py
        times the whole process as setup_s.
    python3 benchmarks/child.py cli TRACE_JSON -- ARGS...
        Run ``plapt ARGS`` with every layer traced and write the trace
        summary to TRACE_JSON; the exit status is the command's.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    import workloads

    if argv[0] == "setup":
        workloads.build(argv[1], int(argv[2]), workloads.BENCH_DIR / "out")
        return 0
    if argv[0] == "cli" and argv[2] == "--":
        import tracer
        from plapt import cli

        t = tracer.Tracer()
        with tracer.installed(t):
            code = cli.main(argv[3:])
        Path(argv[1]).write_text(json.dumps(t.summary()))
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
