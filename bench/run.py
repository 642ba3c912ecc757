#!/usr/bin/env python3
"""excepta benchmark: run one workload for a time window and report its metrics.

    python3 bench/run.py --workload exceptional --seed 1 --seconds 8 --trace 0

One process, one caller in a closed loop, BLAS/OpenMP threads pinned to 1.
The run repeats whole passes of the workload until `--seconds` have elapsed
(always at least one pass) and checks every operation's physics invariants.

--trace 0 reports the end-to-end metrics: run_s (median time of one pass),
setup_s (fresh interpreter to first timed operation, median of several
probes) and peak_rss_mb.  Both times are rescaled to a fixed reference
machine speed by bench/speed.py, and the plain wall times are printed
beside them.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of bench/layers.py, with the
tracing overhead.  Human-readable lines and a `record` line with the run's
environment come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("exceptional", "needle", "retrieval", "configs")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120
OUT = ROOT / ".bench_out"


class BindingError(RuntimeError):
    """A traced count disagrees with an independent count: some binding was not wrapped."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_child(cmd: list, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def setup_seconds(args, env: dict, clock: SpeedClock) -> list:
    """Fresh interpreter until the workload's inputs are ready, once per probe, at reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = clock.mark()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            samples.append(clock.seconds(start, clock.mark()))
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
    return samples


def import_seconds(env: dict) -> float:
    """Median of (fresh `import excepta.cli`) minus (bare interpreter start)."""
    diffs = []
    for _ in range(IMPORT_PROBES):
        bare = timed_child([sys.executable, "-c", "pass"], env)
        diffs.append(timed_child([sys.executable, "-c", "import excepta.cli"], env) - bare)
    return statistics.median(diffs)


@dataclass(frozen=True)
class Pass:
    results: list         # [(kind, seconds, problems)], one per operation
    wall_seconds: float   # the same operations in plain wall seconds

    @property
    def seconds(self) -> float:
        return sum(s for _, s, _ in self.results)


def run_pass(ops, clock: SpeedClock, recorder=None) -> Pass:
    """Time each operation (reference-speed seconds when the clock samples) and check its result."""
    results, walls = [], []

    def elapsed(start):
        end = clock.mark()
        walls.append(clock.wall_seconds(start, end))
        return clock.seconds(start, end)

    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        start = clock.mark()
        try:
            value = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((op.kind, elapsed(start), [f"{op.kind}: {type(exc).__name__}: {exc}"]))
            continue
        seconds = elapsed(start)
        try:
            problems = op.check(value)
        except Exception as exc:
            problems = [f"{op.kind}: check raised {type(exc).__name__}: {exc}"]
        results.append((op.kind, seconds, problems))
    return Pass(results, sum(walls))


def tail(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return f"n={n}, no tail percentile (needs 11 samples)"
    k = n - 10
    return f"p{100.0 * k / n:.0f}={sorted(samples)[k - 1]:.4f}, n={n}"


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_record() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[lib.name] = fn()
                    break
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def check_bindings(name: str, m: dict, build_calls: int) -> None:
    """Traced solve counts against counts the benchmark makes on its own."""
    solves = m["qep.solve.calls"]
    if name == "exceptional" and not solves == build_calls > 0:
        raise BindingError(f"qep.solve.calls {solves} != calls to the model builder {build_calls}")
    if name == "needle":
        expected = m["lattice.band_slice.calls"] * m["lattice.band_slice.kpoints"]
        if not solves == expected > 0:
            raise BindingError(f"qep.solve.calls {solves} != band_slice.calls x kpoints = {expected}")
    if name == "retrieval" and solves != 0:
        raise BindingError(f"retrieval made {solves} eigensolves")


def measure(args, workload, plan, clock: SpeedClock, layers=None) -> dict:
    """Cycle through the plan's passes until the window is used; return per-label results.

    The spans of the first traced pass are written to .bench_out as CSV.
    """
    runs = {label: [] for label, _, _ in plan}
    traced_metrics = []
    t_start = time.perf_counter()
    while True:
        for label, make_ops, traced in plan:
            if not traced:
                runs[label].append(run_pass(make_ops(), clock))
                continue
            rec = layers.SpanRecorder()
            before = getattr(workload, "build_calls", 0)
            with rec.installed(layers.TARGETS):
                runs[label].append(run_pass(make_ops(), clock, rec))
            m = layers.span_metrics(rec)
            check_bindings(args.workload, m, getattr(workload, "build_calls", 0) - before)
            traced_metrics.append(m)
            if len(traced_metrics) == 1:
                with (OUT / f"spans-{args.workload}-seed{args.seed}.csv").open("w") as fh:
                    fh.write("id,op,name,start,end,parent,error\n")
                    fh.writelines(",".join(map(str, row)) + "\n" for row in rec.rows())
        if time.perf_counter() - t_start >= args.seconds:
            return {"runs": runs, "traced": traced_metrics}


def per_layer(args, workload, layers, measured: dict, env: dict) -> dict:
    traced = measured["traced"]
    counts = [{k: v for k, v in m.items() if k.endswith(layers.COUNT_SUFFIXES)} for m in traced]
    if any(c != counts[0] for c in counts):
        raise RuntimeError("work counts differ between identical traced passes")
    metrics = {k: (v if k in counts[0] else statistics.median(m[k] for m in traced)) for k, v in traced[0].items()}
    runs = {label: [r.seconds for r in rs] for label, rs in measured["runs"].items()}
    plain = runs["inproc"] if "inproc" in runs else runs["main"]
    metrics["trace.overhead_frac"] = statistics.median(runs["traced"]) / statistics.median(plain) - 1.0
    metrics["cli.import_s"] = import_seconds(env)
    if args.workload == "configs":
        metrics["cli.run.s"] = statistics.median(runs["inproc"])
        metrics["cli.startup_s"] = statistics.median(runs["main"]) - metrics["cli.run.s"]
        metrics["cli.artifact_bytes"] = workload.artifact_bytes()
    else:
        metrics["cli.run.s"] = metrics["cli.startup_s"] = metrics["cli.artifact_bytes"] = 0
    return {name: {"value": metrics[name], "unit": unit} for name, unit in layers.PER_LAYER.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "excepta" / "__init__.py").is_file():
        print(f"bench: no excepta sources at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    env = workloads.child_env()
    # Untraced runs rescale their times to reference speed; traced runs keep spans free of sampling.
    clock = SpeedClock(active=not args.trace)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    with clock:
        setup = setup_seconds(args, env, clock)
        try:
            if args.workload == "configs":
                workload = workloads.Configs(args.seed, work_dir)
                # The CLI runs in child processes; traced passes call cli.run in-process.
                traced_ops = workload.in_process_operations
            else:
                workload = workloads.WORKLOADS[args.workload](args.seed)
                traced_ops = workload.operations
            plan = [("main", workload.operations, False)]
            layers = None
            if args.trace:
                import layers

                layers.import_targets()
                if args.workload == "configs":
                    plan.append(("inproc", traced_ops, False))
                plan.append(("traced", traced_ops, True))
            measured = measure(args, workload, plan, clock, layers)
            if args.trace:
                metrics = per_layer(args, workload, layers, measured, env)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    ops = [op for rs in measured["runs"].values() for r in rs for op in r.results]
    failed = sum(1 for _, _, ps in ops if ps)
    main_runs = measured["runs"]["main"]
    run_samples = [r.seconds for r in main_runs]
    wall_samples = [r.wall_seconds for r in main_runs]
    if args.workload == "configs":
        peak_mb = workload.peak_rss_mb
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        metrics = {
            "run_s": {"value": statistics.median(run_samples), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(main_runs)} untraced passes, "
          f"{len(ops)} operations, {failed} failed")
    print(f"run_s        {statistics.median(run_samples):.4f} s median ({tail(run_samples)})")
    print(f"run wall     {statistics.median(wall_samples):.4f} s median, {len(clock.samples)} speed samples")
    print(f"setup_s      {statistics.median(setup):.4f} s median ({tail(setup)})")
    print(f"peak_rss_mb  {peak_mb:.1f} MB")
    print(f"failed_frac  {failed / len(ops):.4f} ({failed}/{len(ops)} operations)")
    if args.workload in ("configs", "retrieval"):
        op_samples = [s for r in main_runs for _, s, _ in r.results]
        label = "config_s" if args.workload == "configs" else "fit_s"
        print(f"{label:<12} {statistics.median(op_samples):.4f} s median ({tail(op_samples)})")
    for problem in [p for _, _, ps in ops for p in ps][:20]:
        print(f"FAILED {problem}")
    if args.trace:
        for name, v in metrics.items():
            print(f"{name:<44} {v['value']:.6g} {v['unit']}")

    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    record = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(), **blas_record(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS}, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "sizes": workload.sizes,
        "run_s_samples": run_samples, "run_wall_s_samples": wall_samples, "setup_s_samples": setup,
        "op_seconds": {kind: s for kind, s, _ in main_runs[0].results},
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
