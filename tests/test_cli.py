"""End-to-end tests of the command-line interface: exit codes, output
formats, and the SVG/config side channels."""

import ast
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import wpmirror
from wpmirror import bisection, cli
from wpmirror.cli import run
from wpmirror.verify import hms_certificate, json_chunks
from wpmirror.weights import Weights, graded_dim


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestExitCodes:
    def test_verify_pass_is_zero(self, capsys):
        assert run(["verify", "--weights", "2,3"]) == 0
        assert out_json(capsys)["passed"] is True

    def test_single_weight_is_invalid(self, capsys):
        assert run(["verify", "--weights", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_weight_is_invalid(self, capsys):
        assert run(["bside", "ext", "--weights", "0,3"]) == 2
        capsys.readouterr()

    def test_garbage_weights_invalid(self, capsys):
        assert run(["bside", "ext", "--weights", "two,three"]) == 2
        capsys.readouterr()

    def test_unsorted_aside_weights_invalid(self, capsys):
        assert run(["aside", "homs", "--weights", "3,2"]) == 2
        capsys.readouterr()

    def test_missing_selector_invalid(self, capsys):
        assert run(["verify"]) == 2
        assert run(["verify", "--weights", "2,3", "--sweep-l", "4"]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("action", ["ext", "dual"])
    def test_table_past_memory_is_invalid(self, capsys, action):
        # l - 1 = 10^11 objects: the pair table asks for far more memory
        # than there is and fails before it allocates anything.
        assert run(["bside", action, "--weights", "1,100000000000"]) == 2
        assert capsys.readouterr() == (
            "", "error: not enough memory for this input\n")

    def test_certificate_past_memory_is_invalid(self, capsys):
        # The certificate holds its 10^11 objects first and fails at once.
        assert run(["verify", "--weights", "1,100000000000"]) == 2
        assert capsys.readouterr() == (
            "", "error: not enough memory for this input\n")


class TestBside:
    def test_ext_table(self, capsys):
        assert run(["bside", "ext", "--weights", "2,3"]) == 0
        table = out_json(capsys)
        assert table["0,0"] == {"0": 1}
        assert table["3,0"] == {}

    def test_dual_table_csv(self, capsys):
        assert run(["bside", "dual", "--weights", "2,3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("key,")
        assert len(lines) == 17  # header + 4x4 pairs

    def test_four_weights_ext_and_dual(self, capsys):
        w = Weights((2, 3, 4, 1))
        assert run(["bside", "ext", "--weights", "2,3,4,1"]) == 0
        ext = out_json(capsys)
        assert run(["bside", "dual", "--weights", "2,3,4,1"]) == 0
        dual = out_json(capsys)
        pairs = list(product(range(w.l - 1), repeat=2))
        assert set(ext) == set(dual) == {f"{j},{k}" for j, k in pairs}
        subsets = [J for r in range(5) for J in combinations(range(4), r)]
        for j, k in pairs:
            ext_dims = {"0": graded_dim(w, k - j), "1": graded_dim(w, k - j - 1)}
            assert ext[f"{j},{k}"] == {d: v for d, v in ext_dims.items() if v}
            # dual_ext from the simple at j to the simple at k: every subset
            # of weight <= j - k, in degree |J|.
            dual_dims = Counter(str(len(J)) for J in subsets if sum(w.a[x] for x in J) <= j - k)
            assert dual[f"{j},{k}"] == dict(dual_dims)
        for action in ("ext", "dual"):
            assert run(["bside", action, "--weights", "2,3,4,1", "--format", "csv"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 1 + len(pairs)

    def test_resolve(self, capsys):
        assert run(["bside", "resolve", "--weights", "2,3"]) == 0
        # (position, projective, shift, subset) of each summand at positions
        # 0..n of the resolution of each simple.
        summands = {
            "0": [(0, 0, 0, [])],
            "1": [(0, 1, 0, []), (1, 0, -1, [])],
            "2": [(0, 2, 0, []), (1, 1, -1, []), (1, 0, 0, [0])],
            "3": [(0, 3, 0, []), (1, 2, -1, []), (1, 1, 0, [0]), (1, 0, 0, [1])],
        }
        expected = {k: [dict(zip(("position", "projective", "shift", "subset"), s))
                        for s in rows] for k, rows in summands.items()}
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_certify_generation(self, capsys):
        assert run(["bside", "certify-generation", "--weights", "2,3"]) == 0
        assert out_json(capsys)["passed"] is True


class TestAside:
    def test_homs_matches_bside_dual(self, capsys):
        assert run(["aside", "homs", "--weights", "2,3"]) == 0
        homs = out_json(capsys)
        assert run(["bside", "dual", "--weights", "2,3"]) == 0
        dual = out_json(capsys)
        for jk, dims in homs.items():
            j, k = jk.split(",")
            assert dims == dual[f"{k},{j}"]

    def test_points_encoding(self, capsys):
        assert run(["aside", "points", "--weights", "2,3"]) == 0
        out = out_json(capsys)
        [pm] = [p for p in out["0,3"] if p["kind"] == "seg_pm"]
        assert pm["x"] == {"num": "1", "den": "4"}
        assert pm["degree"] == 1

    def test_critical(self, capsys):
        assert run(["aside", "critical", "--weights", "2,3"]) == 0
        out = out_json(capsys)
        assert len(out["critical_values"]) == 4
        assert out["monodromy"]["branch_ramification"] == 4

    def test_hq_at_critical_parameters(self, capsys):
        assert run(["aside", "hq", "--weights", "2,3"]) == 0
        reports = out_json(capsys)["reports"]
        assert len(reports) == 4
        assert all(r["near_double_root"] for r in reports)

    def test_hq_custom_q(self, capsys):
        assert run(["aside", "hq", "--weights", "2,3", "--q", "1.0,1.0"]) == 0
        [rep] = out_json(capsys)["reports"]
        assert not rep["near_double_root"]
        assert run(["aside", "hq", "--weights", "2,3", "--q", "nope"]) == 2
        capsys.readouterr()

    def test_hq_large_l(self, capsys):
        # l^l leaves float range from l = 144; q = 200 is a critical value.
        assert run(["aside", "hq", "--weights", "1,200", "--q", "200,0"]) == 0
        [rep] = out_json(capsys)["reports"]
        assert len(rep["roots"]) == 201 and rep["near_double_root"]

    def test_hq_huge_q(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["aside", "hq", "--weights", "2,3", "--q", "1e308,1e308"]) == 0
        [rep] = out_json(capsys)["reports"]
        assert len(rep["roots"]) == 5 and not rep["near_double_root"]

    def test_svg_written(self, capsys, tmp_path):
        svg = tmp_path / "curves.svg"
        assert run(["aside", "homs", "--weights", "2,3", "--svg", str(svg)]) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.startswith("<svg") and "<path" in text

    def test_unwritable_svg_invalid(self, capsys, tmp_path):
        svg = tmp_path / "no" / "such" / "curves.svg"
        assert run(["aside", "homs", "--weights", "2,3", "--svg", str(svg)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("q", ["inf,0", "0,-inf", "nan,1"])
    def test_non_finite_q_invalid(self, capsys, q):
        assert run(["aside", "hq", "--weights", "2,3", "--q", q]) == 2
        assert capsys.readouterr().err == "error: --q must be finite\n"


class TestVerify:
    def test_sweep_json(self, capsys):
        assert run(["verify", "--sweep-l", "5"]) == 0
        out = out_json(capsys)
        assert out["all_passed"] is True and len(out["results"]) == 6

    def test_sweep_csv(self, capsys):
        assert run(["verify", "--sweep-l", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "weights,l,passed"
        assert all(line.count(",") == 2 for line in lines[1:])

    def test_certificate_fields(self, capsys):
        assert run(["verify", "--weights", "1,4"]) == 0
        cert = out_json(capsys)
        assert cert["weights"] == [1, 4]
        assert cert["aside_digest"] == cert["bside_digest"]
        assert cert["higher_products"]["ok"] is True
        assert cert["resolution_check"]["ok"] is True


def assert_matches(actual, expected, path="out"):
    """Floats agree to rel=1e-12; every other value, key and length exactly."""
    assert type(actual) is type(expected), path
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for i, (x, y) in enumerate(zip(actual, expected)):
            assert_matches(x, y, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-12), path
    else:
        assert actual == expected, path


# The full stdout of `bisect weights` and `bisect track` for two configs,
# recorded from an earlier implementation of the bisection layer.  The
# first is the README config.  The second gives its
# coefficients out of point order; on the second cell the restriction
# z - 2 z^2 + z^3 = z (1 - z)^2 has the critical value 0, so the run
# reports a violation and exits 1.
README_CONFIG = {"A": [-1, 0, 1, 2], "A0": [-1, 0, 1], "A1": [1, 2], "seed": 42}
OUT_OF_ORDER_CONFIG = {"A": [-1, 0, 1, 2, 3], "A0": [-1, 0, 1], "A1": [1, 2, 3],
                       "coefficients": {"3": 1, "-1": 1, "2": -2, "0": 1, "1": 1}}
README_WEIGHTS = {"eta": {"-1": 0, "0": 0, "1": 0, "2": -1},
                  "tau": {"-1": -2, "0": -1, "1": 0, "2": 0}}
README_TRACK = {"m": 2,
                "ok": True,
                "r": 3,
                "seed": 42,
                "targets_cell0": [{"im": 0.0, "re": -4.82842712474619},
                                  {"im": 0.0, "re": 0.8284271247461901}],
                "targets_cell1": [{"im": 0.0, "re": 0.5}],
                "violations": []}
OUT_OF_ORDER_WEIGHTS = {"eta": {"-1": 0, "0": 0, "1": 0, "2": -1, "3": -2},
                        "tau": {"-1": -2, "0": -1, "1": 0, "2": 0, "3": 0}}
OUT_OF_ORDER_TRACK = {"m": 2,
                      "ok": False,
                      "r": 4,
                      "seed": 42,
                      "targets_cell0": [{"im": 0.0, "re": 3.0}, {"im": 0.0, "re": -1.0}],
                      "targets_cell1": [{"im": 0.0, "re": 0.0},
                                        {"im": 0.0, "re": 0.14814814814814814}],
                      "violations": ["restriction to the second cell has a zero critical value"]}


class TestBisect:
    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "A": [-1, 0, 1, 2], "A0": [-1, 0, 1], "A1": [1, 2], "seed": 42,
        }))
        return str(path)

    def test_validate(self, capsys, config):
        assert run(["bisect", "validate", "--config", config]) == 0
        assert out_json(capsys)["passed"] is True

    def test_weights(self, capsys, config):
        assert run(["bisect", "weights", "--config", config]) == 0
        out = out_json(capsys)
        assert out["eta"] == {"-1": 0, "0": 0, "1": 0, "2": -1}
        assert out["tau"] == {"-1": -2, "0": -1, "1": 0, "2": 0}

    def test_track(self, capsys, config):
        assert run(["bisect", "track", "--config", config]) == 0
        out = out_json(capsys)
        assert out["ok"] is True and out["m"] == 2 and out["r"] == 3

    @pytest.mark.parametrize("config, weights, track, code", [
        (README_CONFIG, README_WEIGHTS, README_TRACK, 0),
        (OUT_OF_ORDER_CONFIG, OUT_OF_ORDER_WEIGHTS, OUT_OF_ORDER_TRACK, 1),
    ], ids=["readme", "out-of-order"])
    def test_pinned_output(self, capsys, tmp_path, config, weights, track, code):
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(config))
        assert run(["bisect", "weights", "--config", str(path)]) == 0
        assert_matches(out_json(capsys), weights)
        assert run(["bisect", "track", "--config", str(path)]) == code
        assert_matches(out_json(capsys), track)

    def test_pinned_validate_output(self, capsys, tmp_path):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(README_CONFIG))
        assert run(["bisect", "validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == '{\n  "passed": true,\n  "violations": []\n}\n'
        path.write_text(json.dumps({"A": [-1, 0, 1, 2], "A0": [-1, 0, 1], "A1": [0, 1, 2]}))
        assert run(["bisect", "validate", "--config", str(path)]) == 1
        assert capsys.readouterr().out == (
            '{\n  "passed": false,\n  "violations": [\n'
            '    "cells cover measure 4, parent has 3",\n'
            '    "cells 0,1 overlap on a full interval (0, 1)"\n  ]\n}\n')
        assert run(["bisect", "weights", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: invalid bisection: cells cover measure 4, parent has 3\n")

    @pytest.mark.parametrize("config, message", [
        ({"A": [0, 1, 2], "A0": [0], "A1": [0, 1, 2]}, "cell 0 is not full-dimensional"),
        ({"A": [-1, 2], "A0": [-1, 1], "A1": [1, 2]},
         "cells mark points the parent does not: [1]"),
    ], ids=["point-cell", "extra-marks"])
    @pytest.mark.parametrize("action", ["weights", "track"])
    def test_invalid_bisection_refused(self, capsys, tmp_path, config, message, action):
        # Validate rejects both; weights and track refuse them with its
        # first violation instead of computing on them.
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(config))
        assert run(["bisect", "validate", "--config", str(path)]) == 1
        assert message == out_json(capsys)["violations"][0]
        assert run(["bisect", action, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: invalid bisection: {message}\n")

    @pytest.mark.parametrize("config, violations", [
        ({"A": [-1, 2], "A0": [-1, 1], "A1": [1, 2]},
         ["cells mark points the parent does not: [1]"]),
        ({"A": [-1, 0, 1, 2], "A0": [-1, 1], "A1": [1, 2]},
         ["parent marks points no cell marks: [0]"]),
        ({"A": [-1, 0, 2], "A0": [-1, 1], "A1": [1, 2]},
         ["parent marks points no cell marks: [0]",
          "cells mark points the parent does not: [1]"]),
    ], ids=["extra", "missing", "both"])
    def test_marked_points_each_direction(self, capsys, tmp_path, config, violations):
        # The cells cover the parent's marked points in "extra"; each
        # direction of the mismatch is named with its points.
        path = tmp_path / "marks.json"
        path.write_text(json.dumps(config))
        assert run(["bisect", "validate", "--config", str(path)]) == 1
        assert out_json(capsys)["violations"] == violations

    def test_invalid_bisection_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "A": [-1, 0, 1], "A0": [-1, 0], "A1": [0, 1],
        }))
        assert run(["bisect", "validate", "--config", str(path)]) == 1
        capsys.readouterr()

    def test_undrawable_track_config_invalid(self, capsys, monkeypatch, tmp_path):
        # With a tolerance this wide no seeded coefficient vector keeps the
        # critical values 10x the tolerance apart, so the run cannot start.
        monkeypatch.setattr(bisection, "TOLERANCE", 1000)
        path = tmp_path / "undrawable.json"
        path.write_text(json.dumps({
            "A": [[-1], [0], [1], [2]], "A0": [[-1], [0], [1]], "A1": [[1], [2]],
        }))
        assert run(["bisect", "track", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: could not draw a generic coefficient vector\n"

    @pytest.mark.parametrize("change, message", [
        ({"A": 5}, "error: bad config: A must be"),
        ({"A0": []}, "error: bad config: A0 must be"),
        ({"A": [[[1]]]}, "error: bad config: a point must be"),
        ({"A1": [1.5, 2]}, "error: bad config: a point must be"),
        ({"seed": [1]}, "error: bad config: seed must be"),
        ({"coefficients": {"0": 1, "1": 2, "2": 1}}, "error: the coefficients and the marked "
                                                     "points differ at -1"),
        ({"coefficients": {"-1": 1, "0": "1/0", "1": 1, "2": 1}},
         "error: bad config: the coefficient at 0 is not a number: '1/0'\n"),
        ({"coefficients": {"-1": 1, "0": 1, "1": 1, "2": "1e400"}},
         "error: bad config: the coefficient at 2 is outside float range: '1e400'\n"),
        # A zero at a cell's end would shorten the Newton polygon's edge.
        ({"coefficients": {"-1": 0, "0": 1, "1": 1, "2": 1}},
         "error: the coefficient at -1, a vertex of cell 0, is zero\n"),
        ({"coefficients": {"-1": 1, "0": 1, "1": 0, "2": 1}},
         "error: the coefficient at 1, a vertex of cell 0, is zero\n"),
        # Read as a seeded draw, the misspelled map would pass where its
        # coefficients fail.
        ({key.replace("coefficients", "coefficents"): value
          for key, value in OUT_OF_ORDER_CONFIG.items()},
         "error: bad config: unknown config key 'coefficents'\n"),
        # The schedule and the tolerance are fixed: a config that sets
        # either is refused by the key's name, whatever the value.
        *[({key: value}, f"error: bad config: unknown config key {key!r}\n")
          for key, value in (("t_schedule", 5), ("tolerance", "nan"), ("tolerance", True),
                             ("tolerance", "abc"), ("tolerance", 10 ** 400),
                             ("t_schedule", []), ("t_schedule", ["1/10", "1/0"]),
                             ("t_schedule", ["1e400", "1/10"]))],
    ], ids=["A-int", "A0-empty", "point-nested", "point-float", "seed-list",
            "coefficient-missing", "coefficient-zero-denominator", "coefficient-huge",
            "coefficient-zero-end", "coefficient-zero-wall", "misspelled-key", "schedule-int",
            "tolerance-nan", "tolerance-bool", "tolerance-string", "tolerance-huge",
            "schedule-empty", "schedule-zero-denominator", "schedule-huge"])
    def test_bad_config_shape_invalid(self, capsys, tmp_path, change, message):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"A": [-1, 0, 1, 2], "A0": [-1, 0, 1], "A1": [1, 2],
                                    **change}))
        assert run(["bisect", "track", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("config, m, r", [
        # Far-apart points: the decision deforms no coefficient in floats.
        ({"A": [-1, 0, 1, 100], "A0": [-1, 0, 1], "A1": [1, 100]}, 2, 101),
        # A zero constant term is allowed: 0 is no point of x f'(x).
        ({**README_CONFIG, "coefficients": {"-1": 1, "0": 0, "1": 1, "2": 1}}, 2, 3),
        # The second cell's critical value 64/823543 is small, not zero.
        ({"A": list(range(-1, 8)), "A0": list(range(-1, 7)), "A1": [6, 7],
          "coefficients": {"-1": 2, "0": -2, "1": 1, "2": 3, "3": 2, "4": -3, "5": -1,
                           "6": 1, "7": -3}}, 7, 8),
    ], ids=["wide", "zero-constant", "near-zero-value"])
    def test_track_passes(self, capsys, tmp_path, config, m, r):
        path = tmp_path / "pass.json"
        path.write_text(json.dumps(config))
        assert run(["bisect", "track", "--config", str(path)]) == 0
        out = out_json(capsys)
        assert (out["ok"], out["m"], out["r"], out["violations"]) == (True, m, r, [])

    def test_missing_config_invalid(self, capsys, tmp_path):
        assert run(["bisect", "validate", "--config",
                    str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()


class TestCsv:
    def test_weights_table(self, capsys, tmp_path):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(README_CONFIG))
        assert run(["bisect", "weights", "--config", str(path), "--format", "csv"]) == 0
        assert capsys.readouterr().out == "key,-1,0,1,2\neta,0,0,0,-1\ntau,-2,-1,0,0\n"

    @pytest.mark.parametrize("argv", [
        ["aside", "points", "--weights", "2,3"],
        ["aside", "critical", "--weights", "2,3"],
        ["aside", "hq", "--weights", "2,3"],
        ["bside", "resolve", "--weights", "2,3"],
        ["bside", "certify-generation", "--weights", "2,3"],
        ["verify", "--weights", "2,3"],
        ["bisect", "validate", "--config", "{config}"],
        ["bisect", "track", "--config", "{config}"],
    ], ids=["points", "critical", "hq", "resolve", "certify-generation", "verify",
            "validate", "track"])
    def test_non_table_refused(self, capsys, monkeypatch, tmp_path, argv):
        # Only a table of rows has a csv form; reprs such as Fraction(1, 2)
        # or (2+0j) are never written.  The refusal comes before any work:
        # no function that computes an output may run.
        def must_not_run(*args, **kwargs):
            pytest.fail("--format csv was refused only after the work began")

        for name in ("track_splitting", "h_poly_roots", "critical_data", "intersections",
                     "resolution_summands", "generation_certificate", "hms_certificate",
                     "load_config", "validate_bisection"):
            monkeypatch.setattr(cli, name, must_not_run)
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(README_CONFIG))
        argv = [a.replace("{config}", str(path)) for a in argv]
        assert run(argv + ["--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: --format csv writes tables only; use --format json for this output\n")


def _encode_reference(obj):
    """The CLI's encoding before every command wrote through
    `verify.json_chunks`, for `json.dumps`: rationals as {num, den}
    strings, complex as {re, im} doubles, everything else structural."""
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _encode_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_reference(x) for x in obj]
    return obj


def reference_text(payload):
    """The stdlib text of a payload; a digest table is written as its list."""
    return json.dumps(_encode_reference(payload), indent=2, sort_keys=True, default=list)


BISECT_CONFIGS = {"readme": README_CONFIG, "out-of-order": OUT_OF_ORDER_CONFIG,
                  "plain": {"A": [-1, 0, 1, 2], "A0": [-1, 0, 1], "A1": [1, 2]}}
# Every command and action that writes JSON, on inputs of each shape.
JSON_INVOCATIONS = (
    [["bside", action, "--weights", w] for w in ("2,3", "1", "7", "2,3,4,1", "1,2,3")
     for action in ("ext", "dual", "resolve", "certify-generation")]
    + [["aside", action, "--weights", w] for w in ("2,3", "1,1", "3,4", "1,5")
       for action in ("homs", "points", "critical", "hq")]
    + [["aside", "hq", "--weights", "2,3", f"--q={q}"] for q in ("1e308,1e308", "1.0,1.0", "-0.0,0")]
    + [["bisect", action, "--config", name] for name in BISECT_CONFIGS
       for action in ("validate", "weights", "track")]
    + [["verify", "--sweep-l", l] for l in ("2", "5", "8")]
    + [["verify", "--weights", w] for w in ("1,1", "2,3", "1,4")]
)

cli_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.fractions()
    | st.complex_numbers() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=30,
)


class TestOneEncoder:
    @pytest.mark.parametrize("argv", JSON_INVOCATIONS, ids=" ".join)
    def test_stdout_is_the_reference_text(self, capsys, monkeypatch, tmp_path, argv):
        # Each command writes the chunks of `json_chunks`, then a newline:
        # the bytes that `json.dumps` made of the reference encoding.
        code = 0
        if argv[0] == "bisect":
            code = int(argv[1] == "track" and argv[-1] == "out-of-order")
            path = tmp_path / "config.json"
            path.write_text(json.dumps(BISECT_CONFIGS[argv[-1]]))
            argv = argv[:-1] + [str(path)]
        payloads = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda payload, fmt: (payloads.append(payload),
                                                                emit(payload, fmt)))
        assert run(argv) == code
        [payload] = payloads
        assert capsys.readouterr().out == reference_text(payload) + "\n"

    @given(cli_values)
    @example([np.float64(0.1), np.complex128(complex(-0.0, float("nan"))), Fraction(-3, 6),
              {"a": Fraction(1, 3), "b": [Fraction(1, 3), complex(1, 2), (1.0, 1, True)]}])
    # Each Fraction and complex is written through a dict made for it, freed
    # once written: a memo keyed by id alone would give a later one its text.
    @example([Fraction(n, 7) for n in range(200)] + [complex(n, -n) for n in range(200)])
    def test_types_of_every_command(self, value):
        assert "".join(json_chunks(value)) == reference_text(value)

    def test_failed_certificate_written_whole(self, capsys, monkeypatch):
        # The verdict is known before the first byte: a failed check exits
        # 1 and still writes the whole certificate, which says it failed.
        made = []

        def corrupted(w):
            made.append(hms_certificate(w, corrupt=("bside", 0)))
            return made[-1]

        monkeypatch.setattr(cli, "hms_certificate", corrupted)
        assert run(["verify", "--weights", "2,3"]) == 1
        out = capsys.readouterr().out
        cert = json.loads(out)
        assert cert["passed"] is False and cert["failures"]
        assert cert["aside_digest"] != cert["bside_digest"]
        assert out == made[0].to_json() + "\n" == reference_text(vars(made[0])) + "\n"


class TestVersion:
    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_one_version_string(self, capsys):
        assert run(["--version"]) == 0
        cert = hms_certificate(Weights((1, 2)))
        assert capsys.readouterr().out.strip() == wpmirror.__version__ \
            == cert.tool_version == json.loads(cert.to_json())["tool_version"]


class TestImports:
    # The exact commands use no float, so they never load numpy: it is
    # imported by the numeric functions on their first call.
    @pytest.mark.parametrize("code", [
        "import wpmirror.cli",
        "import contextlib, io, wpmirror.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert wpmirror.cli.run(['verify', '--weights', '1,1']) == 0",
    ], ids=["import", "verify"])
    def test_exact_commands_leave_numpy_unloaded(self, code):
        src = str(Path(wpmirror.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = code + "\nimport sys\nsys.exit('numpy' in sys.modules)\n"
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr or "numpy was loaded"

    def test_no_private_name_imported_across_modules(self):
        # A private helper is used in its own module only; the others reach
        # what it computes through public calls.  Dunder names are public.
        root = Path(wpmirror.__file__).resolve().parent
        found = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").startswith("wpmirror")):
                    found += [f"{path.relative_to(root)}:{node.lineno} {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_") and not alias.name.endswith("__")]
        assert found == []
