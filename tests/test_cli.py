"""End-to-end tests of the command-line interface: exit codes, output
formats, and the SVG/config side channels."""

import json

import pytest

import wpmirror
from wpmirror.cli import run
from wpmirror.verify import hms_certificate
from wpmirror.weights import Weights


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

    def test_invalid_bisection_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "A": [-1, 0, 1], "A0": [-1, 0], "A1": [0, 1],
        }))
        assert run(["bisect", "validate", "--config", str(path)]) == 1
        capsys.readouterr()

    def test_undrawable_track_config_invalid(self, capsys, tmp_path):
        # No seeded coefficient vector keeps the critical values 10x the
        # tolerance apart, so the run cannot start.
        path = tmp_path / "undrawable.json"
        path.write_text(json.dumps({
            "A": [[-1], [0], [1], [2]], "A0": [[-1], [0], [1]], "A1": [[1], [2]],
            "tolerance": 1000,
        }))
        assert run(["bisect", "track", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("schedule", [["1/10", "1e-200", "1e-300"],
                                          ["1/10", "1/100", "1e-40"]],
                             ids=["overflow", "underflow"])
    def test_tiny_schedule_invalid(self, capsys, tmp_path, schedule):
        # Coefficients scaled by t^(-psi) leave float range at these t.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"A": [-1, 0, 1, 2], "A0": [-1, 0, 1], "A1": [1, 2],
                                    "seed": 42, "t_schedule": schedule}))
        assert run(["bisect", "track", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: t_schedule value ")
        assert "Traceback" not in captured.err

    def test_small_schedule_tracks(self, capsys, tmp_path):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"A": [-1, 0, 1, 2], "A0": [-1, 0, 1], "A1": [1, 2],
                                    "seed": 42, "t_schedule": ["1/10", "1/100", "1e-20"]}))
        assert run(["bisect", "track", "--config", str(path)]) == 0
        assert out_json(capsys)["ok"] is True

    @pytest.mark.parametrize("change, message", [
        ({"A": 5}, "error: bad config: A must be"),
        ({"A0": []}, "error: bad config: A0 must be"),
        ({"A": [[[1]]]}, "error: bad config: a point must be"),
        ({"A1": [1.5, 2]}, "error: bad config: a point must be"),
        ({"t_schedule": 5}, "error: bad config: t_schedule must be"),
        ({"seed": [1]}, "error: bad config: seed must be"),
        ({"tolerance": "nan"}, "error: bad config: tolerance must be"),
        ({"coefficients": {"0": 1, "1": 2, "2": 1}}, "error: the coefficients and the marked "
                                                     "points differ at -1"),
    ], ids=["A-int", "A0-empty", "point-nested", "point-float", "schedule-int", "seed-list",
            "tolerance-nan", "coefficient-missing"])
    def test_bad_config_shape_invalid(self, capsys, tmp_path, change, message):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"A": [-1, 0, 1, 2], "A0": [-1, 0, 1], "A1": [1, 2],
                                    **change}))
        assert run(["bisect", "track", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_missing_config_invalid(self, capsys, tmp_path):
        assert run(["bisect", "validate", "--config",
                    str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()


class TestVersion:
    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_one_version_string(self, capsys):
        assert run(["--version"]) == 0
        cert = hms_certificate(Weights((1, 2)))
        assert capsys.readouterr().out.strip() == wpmirror.__version__ \
            == cert.tool_version == json.loads(cert.to_json())["tool_version"]
