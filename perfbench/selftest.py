"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py [check_seed] [check_corrupt] [check_metrics]

Runs the named checks, or all of them.  They check that
* every metric named in BENCHMARK.json is emitted with its unit, traced
  and untraced, on every workload;
* a certificate built with `hms_certificate(..., corrupt=...)` counts as a
  failed op, and a failed op suppresses every timing;
* a changed seed changes the op order but no digest.

Takes about ten seconds.
"""

import contextlib
import io
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BUILD = workloads.build


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


@contextlib.contextmanager
def ops_replaced(make_ops):
    """run.main builds its ops with `make_ops(name, seed)` instead."""
    workloads.build = make_ops
    try:
        yield
    finally:
        workloads.build = BUILD


def run_main(*argv):
    """Exit code and the parsed last line of run.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in workloads.WORKLOADS:
            with ops_replaced(lambda n, s: BUILD(n, s, tiny=True)):
                code, result = run_main("--workload", name, "--seed", "3",
                                        "--seconds", "0", "--trace", str(trace))
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: {result}")
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={trace}: metrics {got} != {wanted}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{name} trace={trace}: non-numeric value")
    print("ok: every named metric is emitted with its unit")


def check_corrupt():
    digests = workloads.load("sweep-2w.json")["digests"]
    bad = workloads.sweep_op((2, 3), digests["2,3"], corrupt=("aside", 0))

    def with_corrupt(name, seed):
        return BUILD(name, seed, tiny=True) + [bad]

    with ops_replaced(with_corrupt):
        code, result = run_main("--workload", "sweep-2w", "--seed", "1",
                                "--seconds", "0", "--trace", "0")
    expect(code == 1 and result["failed"] == 1 and not result["correct"],
           f"corrupted certificate not counted as failed: {result}")
    expect(result["metrics"] == {}, "a failed op did not suppress the timings")
    print("ok: a corrupted certificate is a failed op and suppresses timings")


def check_seed():
    a = workloads.build("sweep-2w", 1, tiny=True)
    b = workloads.build("sweep-2w", 2, tiny=True)
    expect([op.key for op in a] != [op.key for op in b], "seed did not change op order")
    da = {op.key: op.run() for op in a}
    db = {op.key: op.run() for op in b}
    expect(da == db, "seed changed a digest")
    expect(all(op.check(da[op.key]) is None for op in a), "digest differs from record")
    print("ok: another seed changes op order, not digests")


if __name__ == "__main__":
    for name in sys.argv[1:] or ("check_seed", "check_corrupt", "check_metrics"):
        globals()[name]()
