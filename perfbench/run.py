#!/usr/bin/env python3
"""Benchmark of the greente solvers: one seeded workload per run.

    python3 perfbench/run.py --workload k6-mspnd --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory; it exits with code 2 when that directory is missing.  The
workload's solver calls run back to back as one pass, in a single process.
Passes repeat until ``--seconds`` of pass time is spent and ``MIN_PASSES``
have run (traced runs: at least one untraced and one traced pass).  Answers
are checked outside the timed region (see workloads.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` and ``cpu_s`` (pass wall and process CPU seconds, first solver
call to last), ``setup_s`` (imports plus input generation and parsing, in
this process and ``SETUP_PROBES`` fresh interpreters) and ``peak_rss_mb``.
Each timing is the median of its samples.  ``failed_frac``, ``failed /
attempted`` of the same line, is printed above it.

With ``--trace 1`` untraced and traced passes alternate, and the line reports
the per-layer metrics of layers.py plus ``trace.overhead_s`` (median traced
minus median untraced pass seconds).  Each run also writes its record, with
an environment block, to ``.perfbench_out/`` and, when traced, its spans.
"""
import time

_T0 = time.perf_counter()  # set-up time starts before any heavy import

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2
# k6-mspnd passes take about 9 s; it runs longer than --seconds rather than
# report the mean of two passes as their median.
MIN_PASSES = 4


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up seconds and exit")
    return p.parse_args(argv)


def _git_sha():
    """Commit of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": has_gmpy2,
    }


def _setup_probe(args) -> float:
    """Set-up seconds of a fresh interpreter building the same inputs."""
    cmd = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Judge:
    """Counts solver runs and failures over passes.

    The first pass is audited; a later pass fails a solver run whose answer
    differs from the first pass or whose first answer failed the audit.  A
    call that raises fails every solver run of its pass.
    """

    def __init__(self, workload):
        self.wl = workload
        self.first = None
        self.bad: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0

    def judge(self, results) -> None:
        units = self.wl.units
        self.attempted += len(units)
        errors = [r for r in results if isinstance(r, Exception)]
        if errors:
            self.failed += len(units)
            self.bad.setdefault("*", []).append(f"raised {errors[0]!r}")
            return
        summary = self.wl.summarize(results)
        if self.first is None:
            self.first = summary
            problems = self.wl.audit(results, self.wl.reference)
            self.bad.update({u: p for u, p in problems.items() if p})
            for u in units:
                if u not in summary:
                    self.bad.setdefault(u, []).append("no answer")
        failed = {u for u in units if u in self.bad or summary.get(u) != self.first.get(u)}
        for u in failed - set(self.bad):
            self.bad[u] = ["answer changed between passes"]
        self.failed += len(failed)


def run_pass(workload, tracer=None):
    """One timed pass: returns (results, wall seconds, CPU seconds)."""
    results = []
    c0, t0 = time.process_time(), time.perf_counter()
    for label, call in workload.calls:
        if tracer is not None:
            tracer.open("call:" + label, root=True)
        try:
            results.append(call())
        except Exception as exc:  # counted as a failed solver run, not fatal
            results.append(exc)
        finally:
            if tracer is not None:
                tracer.close()
    return results, time.perf_counter() - t0, time.process_time() - c0


def measure(workload, seconds: float, judge: Judge) -> dict:
    walls, cpus = [], []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        results, wall, cpu = run_pass(workload)
        walls.append(wall)
        cpus.append(cpu)
        judge.judge(results)
    return {"wall_s": walls, "cpu_s": cpus}


def measure_traced(workload, seconds: float, judge: Judge, tracer, setup_totals) -> tuple:
    plain, traced, totals = [], [], []
    while not traced or sum(plain) + sum(traced) < seconds:
        results, wall, _ = run_pass(workload)
        plain.append(wall)
        judge.judge(results)
        first = len(tracer.spans)
        with tracer:
            results, wall, _ = run_pass(workload, tracer)
        traced.append(wall)
        totals.append(layers.merged(setup_totals, tracer.totals(first, len(tracer.spans))))
        judge.judge(results)
    metrics = {}
    for name, (unit, _, value) in layers.LAYER_METRICS.items():
        per_pass = [value(t) for t in totals]
        # counts and ratios repeat exactly; seconds are medians over passes
        metrics[name] = (statistics.median(per_pass) if unit == "s" else per_pass[0], unit)
    name, unit, _ = layers.OVERHEAD_METRIC
    metrics[name] = (statistics.median(traced) - statistics.median(plain), unit)
    repeat = all(
        [value(t) for t in totals] == [value(totals[0])] * len(totals)
        for _, (unit, _, value) in layers.LAYER_METRICS.items() if unit != "s"
    )
    return metrics, {"wall_s": plain, "traced_wall_s": traced, "counts_repeat": repeat}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "greente" / "__init__.py").is_file():
        print(f"perfbench: no greente package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import greente

    if Path(greente.__file__).resolve().parent != SRC / "greente":
        print(f"perfbench: imported greente from {greente.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    tracer = layers.Tracer() if args.trace else None
    if tracer is None:
        workload = build(args.seed)
    else:
        with tracer:
            workload = build(args.seed)
    setup_own = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_own}))
        return 0

    judge = Judge(workload)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if tracer is None:
        setup = [setup_own] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
        passes = measure(workload, args.seconds, judge)
        metrics = {
            "wall_s": (statistics.median(passes["wall_s"]), "s"),
            "cpu_s": (statistics.median(passes["cpu_s"]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        passes["setup_s"] = setup
    else:
        setup_totals = tracer.totals(0, len(tracer.spans))
        metrics, passes = measure_traced(workload, args.seconds, judge, tracer, setup_totals)
    failed_frac = judge.failed / judge.attempted
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(passes=passes, failures=judge.bad, failed_frac=failed_frac, metrics=reported)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.jsonl"))

    print("environment " + json.dumps(record["environment"]))
    for label, problems in sorted(judge.bad.items()):
        print(f"FAILED {label}: {'; '.join(problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {failed_frac:.6g} ratio "
          f"({judge.failed} of {judge.attempted} solver runs)")
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
