"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py [sweep-2w] [bside-multi] [numeric]

Writes `perfbench/expected/`:

* `sweep-2w.json` -- `Certificate.digest()` of every pair a0 <= a1 with
  a0 + a1 <= 25 (the benchmark uses those with a0 + a1 <= 20).
* `bside-multi.json` -- the hash of the whole B-side pass of every vector.
* `numeric-defects.json` -- every input of a fixed scan of `h_poly_roots`
  at which the double-root flag disagrees with the exact oracle or the call
  raises.  These inputs are kept out of the timed `numeric` ops; `run.py`
  re-checks the ones named in PROBED_L on every `numeric` run.

The digests are the correctness gate of every later speed-up, so record
them only from a commit whose outputs are accepted as right.  The numeric
scan takes a few minutes.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, str(ROOT / "src"))

from wpmirror import verify  # noqa: E402
from wpmirror.aside import potential  # noqa: E402
from wpmirror.weights import Weights  # noqa: E402

import workloads  # noqa: E402

RECORD_SWEEP_L = 25
# Every l up to 50, then l = 60 and the overflow edge: at l = 143 LAPACK
# fails to converge, from l = 144 float(l) ** l overflows.
SCAN_L = tuple(range(5, 51)) + (60, 143, 144)
# Beyond the workload's grid: q = 0 and q = 0.95 (l - 1), where the seed's
# flag was first seen to misfire.
SCAN_FACTORS = workloads.OFF_CRITICAL_FACTORS + (workloads.Fraction(0),
                                                 workloads.Fraction(19, 20))
# Every workload angle up to this l; three of them above it.
FULL_ANGLES_UP_TO_L = 50
COARSE_ANGLES = tuple(workloads.Fraction(x) for x in ("0", "1/3", "7/6"))
PROBED_L = (34, 50, 60, 144)


def _write(name, payload):
    path = workloads.EXPECTED / name
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def record_sweep():
    digests = {f"{a0},{a1}": verify.hms_certificate(Weights((a0, a1))).digest()
               for a0, a1 in workloads.sweep_pairs(RECORD_SWEEP_L)}
    _write("sweep-2w.json", {"l_max": RECORD_SWEEP_L, "digests": digests})


def record_bside():
    hashes = {",".join(map(str, v)): workloads.bside_hash(workloads.bside_pass(Weights(v)))
              for v in workloads.bside_vectors(workloads.BSIDE_L)}
    _write("bside-multi.json", {"l_max": workloads.BSIDE_L, "hashes": hashes})


def scan_inputs(l):
    for c in potential.critical_data(Weights((1, l - 1))):
        yield "critical", c.modulus, c.angle
    angles = (workloads.OFF_CRITICAL_ANGLES if l <= FULL_ANGLES_UP_TO_L
              else COARSE_ANGLES)
    for f in SCAN_FACTORS:
        for angle in angles:
            yield "off-critical", (l - 1) * f, angle


def record_numeric():
    failures = []
    for l in SCAN_L:
        for kind, modulus, angle in scan_inputs(l):
            got = workloads.hpoly_outcome(l, modulus, angle)
            if got is not None:
                failures.append({"l": l, "kind": kind, "modulus": str(modulus),
                                 "angle": str(angle), "got": got})
        print(f"l={l}: {len(failures)} failures so far", flush=True)
    first_bad = min(f["l"] for f in failures)
    _write("numeric-defects.json", {
        "scan": {"l": list(SCAN_L), "pair": "(1, l-1)",
                 "critical": "every critical value",
                 "off_critical_factors": [str(f) for f in SCAN_FACTORS],
                 "off_critical_angles": [str(a) for a in workloads.OFF_CRITICAL_ANGLES],
                 "full_angles_up_to_l": FULL_ANGLES_UP_TO_L,
                 "coarse_angles": [str(a) for a in COARSE_ANGLES]},
        "first_failing_l": first_bad,
        "probed_l": list(PROBED_L),
        "failures": failures,
    })


if __name__ == "__main__":
    jobs = {"sweep-2w": record_sweep, "bside-multi": record_bside,
            "numeric": record_numeric}
    for name in sys.argv[1:] or list(jobs):
        jobs[name]()
