#!/usr/bin/env python3
"""Check that traced work counts repeat exactly and that invariants hold at a second seed.

    python3 bench/selftest.py [--workloads exceptional needle ...] [--seeds 1 2]

For each workload, two traced runs at the first seed must report identical
work counts (every per-layer metric named like a count), and every run,
including one at the second seed, must pass all its invariant checks.
`qep.solve.calls` must be 0 on retrieval and non-zero on exceptional and
needle.  Each traced run also performs the binding self-check of run.py.
Results are appended to .bench_out/traced.jsonl.  Exits 1 if anything fails.
"""

from __future__ import annotations

import argparse
import sys

from layers import COUNT_SUFFIXES
from report import run_bench
from run import NAMES


def check(workload: str, seeds: list) -> list:
    first, again, other = (run_bench(workload, s, 1, 1) for s in (seeds[0], seeds[0], seeds[1]))
    problems = [f"{workload} seed {seed}: {r['failed']} of {r['attempted']} operations failed"
                for seed, r in zip((seeds[0], seeds[0], seeds[1]), (first, again, other)) if not r["correct"]]
    for name, value in first["metrics"].items():
        if name.endswith(COUNT_SUFFIXES) and again["metrics"][name]["value"] != value["value"]:
            problems.append(f"{workload}: {name} {value['value']} then {again['metrics'][name]['value']}")
    solves = first["metrics"]["qep.solve.calls"]["value"]
    expects_solves = {"exceptional": True, "needle": True, "retrieval": False}.get(workload)
    if expects_solves is not None and (solves > 0) != expects_solves:
        problems.append(f"{workload}: qep.solve.calls = {solves}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", choices=NAMES, default=list(NAMES))
    p.add_argument("--seeds", nargs=2, type=int, default=[1, 2])
    args = p.parse_args(argv)
    failures = []
    for workload in args.workloads:
        problems = check(workload, args.seeds)
        print(f"{'FAIL' if problems else 'PASS'} {workload}", *problems, sep="\n  ", flush=True)
        failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
