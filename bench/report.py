#!/usr/bin/env python3
"""Run workloads over several seeds and print every end-to-end metric with its spread.

    python3 bench/report.py [--workloads exceptional needle ...] [--seeds 1 2 3] [--seconds 8]

Runs `run.py --trace 0` once per workload and seed, sequentially, and
appends each result to .bench_out/report.jsonl.  For each workload and
metric it prints the median, the quartile spread as a share of the median
(as `statistics.quantiles(values, n=4)` gives the quartiles) and the bound
from BENCHMARK.json; a spread at or above a third of the bound is marked
STEADY? so it can be looked at.  Exits 1 if any run fails a check; a run that
exits non-zero raises.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run; its JSON result is returned and appended to .bench_out/<report|traced>.jsonl."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: {res.stderr.strip()[-500:]}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    log = ROOT / ".bench_out" / ("traced.jsonl" if trace else "report.jsonl")
    log.parent.mkdir(exist_ok=True)
    with log.open("a") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        results = [run_bench(workload, seed, args.seconds, 0) for seed in args.seeds]
        ok &= all(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, failed_frac {failed / max(attempted, 1):.4f} ({failed}/{attempted})")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  STEADY?"
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:<12} median {med:10.4f} {unit:<3} spread {spread:.4f} (bound {bound}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
