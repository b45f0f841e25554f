"""Benchmark of the wpmirror certifier.

    python3 perfbench/run.py --workload sweep-2w --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process as a closed loop with
one client: each op starts when the previous one has returned.  The run
repeats whole passes over the workload's ops while another pass still fits
in `--seconds`, and always makes at least one.  NumPy's BLAS is pinned to
one thread.  Every op's output is checked against an exact reference; if
any check fails no timing is printed and the exit code is 1.

`--trace 0` prints the end-to-end metrics:

* setup_s -- fresh interpreter to the workload's first op done, the median
  of SETUP_PROBES probes.
* wall_s -- the ops of one pass back to back (checks excluded), median
  over passes.
* op_p50_ms, op_p90_ms -- op latency over every op of every pass.
* peak_rss_mb -- peak resident memory of this process.

`--trace 1` spends half the time on untraced passes and half on traced
ones (spans.py) and prints the per-layer metrics of the traced passes,
each the median over those passes; `trace.overhead_ratio` is the traced
over the untraced `wall_s`.  Spans go to .perfbench_out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are
the provenance and the metrics in readable form.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before anything imports numpy.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  A name ending in .calls, .s or .self_s reads
# that field of the span of the same prefix; the others are result counts
# (spans.RESULT_COUNTS) or the tracing overhead.
PER_LAYER = {
    "aside.words.enumerate.calls": "count",
    "aside.words.enumerate.s": "s",
    "aside.words.accepted": "count",
    "aside.strip.intersections.calls": "count",
    "aside.strip.intersections.s": "s",
    "aside.strip.hom_space.calls": "count",
    "verify.hms_certificate.self_s": "s",
    "verify.aside_digest.self_s": "s",
    "verify.digest.s": "s",
    "bside.dual_ext.calls": "count",
    "bside.dual_ext.s": "s",
    "bside.compose_dual.calls": "count",
    "bside.compose_dual.s": "s",
    "verify.bside_digest.self_s": "s",
    "verify.bside_digest.entries": "count",
    "bside.resolution_oracle.calls": "count",
    "bside.resolution_oracle.s": "s",
    "bside.resolution_summands.calls": "count",
    "bside.resolution_summands.summands": "count",
    "bside.ext_pushforward.s": "s",
    "weights.monomial_basis.s": "s",
    "bside.generation.s": "s",
    "aside.potential.h_poly_roots.calls": "count",
    "aside.potential.h_poly_roots.s": "s",
    "bisection.track_splitting.self_s": "s",
    "bisection.critical_values_univariate.calls": "count",
    "bisection.critical_values_univariate.s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-start", type=float, default=None,
                   help="internal: run the workload's first op and print the "
                        "seconds since this CLOCK_MONOTONIC time")
    return p.parse_args(argv)


# -- provenance ------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git, or None."""
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


def source_sha256():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workloads):
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "commit": git_commit(),
        "src_sha256": source_sha256(),
        "sweep_l": workloads.SWEEP_L,
        "load": "closed loop, 1 client, 1 op in flight",
    }


# -- measuring --------------------------------------------------------------------

def setup_times(workload, n=SETUP_PROBES):
    """Seconds from starting a fresh interpreter until it has run and
    checked the workload's first op, n times.  CLOCK_MONOTONIC is one clock
    for every process, so the probe itself reads the time at its end."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--probe-start"]
    times = []
    for _ in range(n):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd + [repr(start)], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): "
                               + proc.stderr.strip()[-300:])
        times.append(float(proc.stdout))
    return times


class Passes:
    """Latencies and failures of whole passes over a workload's ops."""

    def __init__(self):
        self.walls = []        # per pass: seconds of op work
        self.latencies = []    # every op of every pass, seconds
        self.attempted = 0
        self.failures = []     # (op key, reason)

    def run(self, ops, budget_s, call=lambda index, fn: fn()):
        """Passes while the next one fits in budget_s; at least one."""
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            wall = 0.0
            for index, op in enumerate(ops):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = call(index, op.run)
                except Exception as exc:  # a raising op is a failed op
                    self.failures.append((op.key, f"{type(exc).__name__}: {exc}"))
                    continue
                dt = time.perf_counter() - t0
                reason = op.check(out)
                if reason is not None:
                    self.failures.append((op.key, reason))
                    continue
                wall += dt
                self.latencies.append(dt)
            self.walls.append(wall)
            now = time.perf_counter()
            if self.failures or now - start + (now - pass_start) > budget_s:
                return


def end_to_end(passes, setup):
    deciles = statistics.quantiles(passes.latencies, n=10)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes.walls),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(pass_summaries, overhead_ratio):
    """Median over traced passes of each per-layer metric."""
    def value(name, layers, counts):
        if name == "trace.overhead_ratio":
            return overhead_ratio
        if name in counts:
            return counts[name]
        for field in ("calls", "self_s", "s"):
            if name.endswith("." + field):
                return layers[name[:-len(field) - 1]][field]
        raise KeyError(name)

    return {name: statistics.median(value(name, *s) for s in pass_summaries)
            for name in PER_LAYER}


def traced_passes(ops, budget_s, passes, spans):
    """Untraced passes for half the budget, then traced ones; per-pass
    summaries of the traced ones and the tracing overhead."""
    passes.run(ops, budget_s / 2)
    untraced_wall = statistics.median(passes.walls)
    tracer = spans.Tracer()
    summaries, walls = [], []
    start = time.perf_counter()
    with tracer:
        while not passes.failures:
            mark = tracer.mark()
            pass_start = time.perf_counter()
            passes.run(ops, 0, tracer.run_op)
            summaries.append(tracer.summary(mark))
            walls.append(passes.walls.pop())
            now = time.perf_counter()
            if now - start + (now - pass_start) > budget_s / 2:
                break
    return tracer, summaries, statistics.median(walls) / untraced_wall


# -- known numeric defects ------------------------------------------------------------

def probe_numeric_defects(workloads):
    """Re-run the recorded h_poly_roots failures at the probed l, untimed:
    (the probed l, failures recorded there, how many still fail)."""
    record = workloads.load("numeric-defects.json")
    probed = [f for f in record["failures"] if f["l"] in record["probed_l"]]
    still = sum(workloads.hpoly_outcome(f["l"], workloads.Fraction(f["modulus"]),
                                        workloads.Fraction(f["angle"])) is not None
                for f in probed)
    return record["probed_l"], len(probed), still


# -- output ----------------------------------------------------------------------------

def emit(correct, passes, metrics, units):
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def write_result(name, payload):
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / name, "w") as fh:
        json.dump(payload, fh, indent=1)


def probe(workloads, name, start):
    op = workloads.first_op(name)
    reason = op.check(op.run())
    elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    if reason is not None:
        print(f"error: {op.key}: {reason}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wpmirror" / "__init__.py").is_file():
        print(f"error: the wpmirror sources are not in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_start is not None:
        return probe(workloads, args.workload, args.probe_start)

    prov = provenance(args, workloads)
    print("# provenance " + json.dumps(prov))
    ops = workloads.build(args.workload, args.seed)
    print(f"# {args.workload}: {len(ops)} ops per pass")
    workloads.first_op(args.workload).run()  # warm-up, untimed

    passes = Passes()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer, summaries, overhead = traced_passes(ops, args.seconds, passes, spans)
        if not passes.failures:
            metrics, units = per_layer(summaries, overhead), PER_LAYER
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{tag}.npz", {"provenance": prov})
    else:
        try:
            setup = setup_times(args.workload)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            passes.failures.append(("set-up probe", str(exc)))
        else:
            passes.run(ops, args.seconds)
        if not passes.failures:
            metrics, units = end_to_end(passes, setup), END_TO_END
            print(f"# {len(passes.walls)} passes, {len(passes.latencies)} op latencies")

    extra = {}
    if args.workload == "numeric":
        probed_l, recorded, still = probe_numeric_defects(workloads)
        extra["known_numeric_defects"] = {"probed_l": probed_l, "recorded": recorded,
                                          "still_failing": still}
        print(f"# known h_poly_roots defects at l in {probed_l} "
              f"(expected/numeric-defects.json): {still} of {recorded} still fail")

    if passes.failures:
        for key, reason in passes.failures[:20]:
            print(f"# FAILED {key}: {reason}")
        metrics, units = {}, {}
    write_result(f"result-{tag}.json", {"provenance": prov, "metrics": metrics,
                                        "failures": passes.failures, **extra})
    emit(not passes.failures, passes, metrics, units)
    return 1 if passes.failures else 0


if __name__ == "__main__":
    sys.exit(main())
