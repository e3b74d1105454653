"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  The run times whole rounds of the workload's operations for about S
seconds, checks every output, and prints one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 3
MIN_ROUNDS = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    if not os.path.isfile(os.path.join(ROOT, "src", "qcqp", "__init__.py")):
        sys.exit(f"error: no package source at {os.path.join('src', 'qcqp')} under {ROOT}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench import workloads

    return workloads


def _setup(workload, seed: int, workdir: str) -> list:
    """Inputs, problem files and a warm-up: everything before the first timed operation."""
    os.makedirs(workdir, exist_ok=True)
    ops = workload.prepare(seed, workdir)
    workload.warm_up(workdir)
    return ops


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes that set the workload up and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _cpu_seconds() -> float:
    """CPU time of this process, its threads, and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def _measure(ops, seconds: float):
    """Whole rounds of ops, at least MIN_ROUNDS, until another round would pass the deadline.

    Each operation keeps its fastest wall and CPU time over the rounds, so a
    stretch of time in which the machine runs slow for every process does
    not set the figure.
    """
    wall = [[] for _ in ops]  # per operation, one entry per round
    cpu = [[] for _ in ops]
    problems = []
    failed = attempted = rounds = 0
    consistent = True
    first = [None] * len(ops)
    gaps = [None] * len(ops)
    t_start = time.perf_counter()
    while True:
        for k, op in enumerate(ops):
            attempted += 1
            c0, t0 = _cpu_seconds(), time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a raised exception is a failed operation
                failed += 1
                problems.append(f"op {k}: {traceback.format_exc()}")
                continue
            wall[k].append(time.perf_counter() - t0)
            cpu[k].append(_cpu_seconds() - c0)
            found = op.check(out)
            if found:
                failed += 1
                problems.extend(f"op {k}: {p}" for p in found)
                continue
            if first[k] is None:
                first[k], gaps[k] = out, op.gap(out)
            elif out != first[k]:
                consistent = False
                problems.append(f"op {k}: output differs from its first round")
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            break
    return {
        "wall": [min(v) for v in wall if v],
        "wall_all": [t for v in wall for t in v],
        "cpu": [min(v) for v in cpu if v],
        "gaps": [g for g in gaps if g is not None],
        "attempted": attempted,
        "failed": failed,
        "consistent": consistent,
        "problems": problems,
        "rounds": rounds,
    }


def _result(res: dict, metrics: dict) -> dict:
    """The last line of a run: correct only if no operation failed and every round agreed."""
    return {
        "correct": res["consistent"] and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            _setup(workload, args.seed, workdir)
            return 0
        setup_s = _setup_seconds(args)
        ops = _setup(workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from perfbench import trace

            tracer = trace.install(trace.Tracer())
        try:
            res = _measure(ops, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    for line in res["problems"]:
        print(line, file=sys.stderr)
    nan = [float("nan")]
    if args.trace:
        metrics = trace.layer_metrics(tracer, res["attempted"])
        metrics["traced.solve_s"] = {"value": statistics.fmean(res["wall"] or nan), "unit": "s"}
        # the base of the layer figures, which average over every operation
        metrics["traced.op_s"] = {"value": statistics.fmean(res["wall_all"] or nan), "unit": "s"}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": statistics.fmean(res["wall"] or nan), "unit": "s"},
            "cpu_s": {"value": statistics.fmean(res["cpu"] or nan), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
            "gap_ratio": {"value": statistics.fmean(res["gaps"] or nan), "unit": "ratio"},
        }
    print(f"{args.workload}: {res['rounds']} rounds of {len(ops)} operations", file=sys.stderr)
    print(json.dumps(_result(res, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
