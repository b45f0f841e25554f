"""Property test of the CLI exit-code contract: whatever the arguments or the
config file, `cli.run` returns 0, 1 or 2, lets no exception escape and
prints no traceback.

Weights stay at l <= 12 and config points in [-3, 3], so no certificate or
root solve in `track_splitting` (r <= 6) makes an example slow.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wpmirror.cli import run  # noqa: E402

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                 st.lists(st.integers(-3, 3), max_size=2), st.just([[1]]))

WEIGHTS = st.one_of(
    st.lists(st.integers(1, 6), min_size=2, max_size=3),
    st.lists(st.integers(-1, 12), min_size=1, max_size=3).filter(lambda ws: sum(ws) <= 12),
).map(lambda ws: ",".join(map(str, ws))) | st.text(max_size=6)

Q = st.one_of(
    st.tuples(st.floats(), st.floats()).map(lambda q: f"{q[0]},{q[1]}"),
    st.sampled_from(["inf,0", "0,nan", "1e308,1e308", "1,2,3", ""]),
    st.text(max_size=6),
)

FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "csv"], ["--format", "xml"]])


@st.composite
def argvs(draw):
    """Arguments of one bside, aside or verify call; `{tmp}` stands for a
    fresh temporary directory."""
    command = draw(st.sampled_from(["bside", "aside", "verify", "nonsense"]))
    fmt = draw(FORMAT)
    if command == "bside":
        action = draw(st.sampled_from(["ext", "dual", "resolve", "certify-generation"]))
        return ["bside", action, "--weights", draw(WEIGHTS)] + fmt
    if command == "aside":
        action = draw(st.sampled_from(["homs", "points", "critical", "hq"]))
        argv = ["aside", action, "--weights", draw(WEIGHTS)]
        if draw(st.booleans()):
            argv += ["--q", draw(Q)]
        if draw(st.booleans()):
            argv += ["--svg", draw(st.sampled_from(["{tmp}/c.svg", "{tmp}/no/such/c.svg"]))]
        return argv + fmt
    if command == "verify":
        argv = ["verify"]
        if draw(st.booleans()):
            argv += ["--weights", draw(WEIGHTS)]
        if draw(st.booleans()):
            argv += ["--sweep-l", str(draw(st.integers(-2, 6)))]
        return argv + fmt
    return [draw(st.text(max_size=6))]


POINT = st.one_of(st.integers(-3, 3), st.lists(st.integers(-3, 3), min_size=1, max_size=1), JUNK)
POINTS = st.one_of(st.lists(POINT, max_size=5), JUNK)
OPTIONAL = {
    "seed": st.one_of(st.integers(), JUNK),
    # A key the config does not know, refused by name.
    "tolerance": st.one_of(st.floats(), JUNK),
    "coefficients": st.one_of(
        st.dictionaries(st.sampled_from(["-3", "-2", "-1", "0", "1", "2", "3", "[1]", "x", "[[1]]"]),
                        st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=3))),
        JUNK),
}


@st.composite
def bisections(draw):
    """An interval [lo, hi] cut at a wall, the shape every experiment
    expects, with the optional keys drawn at random."""
    lo, wall, hi = sorted(draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3, unique=True)))
    cfg = {"A": list(range(lo, hi + 1)), "A0": list(range(lo, wall + 1)),
           "A1": list(range(wall, hi + 1))}
    for key, values in OPTIONAL.items():
        if draw(st.booleans()):
            cfg[key] = draw(values)
    return cfg


CONFIGS = st.one_of(
    bisections(),
    st.fixed_dictionaries({"A": POINTS, "A0": POINTS, "A1": POINTS}, optional=OPTIONAL),
    JUNK,
)

GOOD = {"A": [-1, 0, 1, 2], "A0": [-1, 0, 1], "A1": [1, 2], "seed": 42}


def run_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    return code


@SETTINGS
@given(argv=argvs())
@example(argv=["aside", "homs", "--weights", "2,3", "--svg", "{tmp}/no/such/c.svg"])
@example(argv=["aside", "hq", "--weights", "2,3", "--q", "inf,0"])
# A pair table or a certificate past the memory: the request fails at once.
@example(argv=["bside", "ext", "--weights", "1,100000000000"])
@example(argv=["bside", "dual", "--weights", "1,100000000000"])
@example(argv=["verify", "--weights", "1,100000000000"])
def test_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        run_captured([a.replace("{tmp}", tmp) for a in argv])


@SETTINGS
@given(config=CONFIGS, action=st.sampled_from(["validate", "weights", "track"]))
@example(config={**GOOD, "A": 5}, action="track")
@example(config={**GOOD, "t_schedule": []}, action="track")
@example(config={**GOOD, "A": [[[1]]]}, action="track")
@example(config={**GOOD, "seed": [1]}, action="track")
@example(config={**GOOD, "coefficients": {"0": 1, "1": 2, "2": 1}}, action="track")
@example(config={**GOOD, "coefficients": {"-1": 1, "0": 1, "1": 0.0, "2": 1}}, action="track")
def test_bisect_config_contract(config, action):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        run_captured(["bisect", action, "--config", path])
