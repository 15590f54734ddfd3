"""Command-line surface: payload shapes, exit codes, output routing."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdsampling
from pdsampling.cli import main, parse_point_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestPointText:
    def test_inclusive_integer_range(self):
        assert parse_point_text("0..3") == [0.0, 1.0, 2.0, 3.0]

    def test_step_range(self):
        got = parse_point_text("0:1:0.25")
        np.testing.assert_allclose(got, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)

    def test_step_must_tile(self):
        from pdsampling import ValidationError

        with pytest.raises(ValidationError):
            parse_point_text("0:1:0.3")

    def test_inline_list_and_scalar(self):
        assert parse_point_text("1,2.5,4") == [1.0, 2.5, 4.0]
        assert parse_point_text("3.5") == [3.5]

    def test_csv_file(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# comment\n1.0\n2.0\n")
        assert parse_point_text(str(path)) == [1.0, 2.0]


class TestKernelEval:
    def test_brownian_value(self, capsys):
        doc = run_json(
            capsys, "kernel-eval", "--kernel", "brownian", "--s", "1.5", "--t", "2.5"
        )
        assert doc["schema_version"] == 1
        assert doc["value"] == 1.5
        assert doc["config"]["kernel"] == "brownian"

    def test_binomial_exact_integer(self, capsys):
        doc = run_json(
            capsys, "kernel-eval", "--kernel", "binomial", "--s", "3", "--t", "4"
        )
        assert doc["value"] == 35
        assert isinstance(doc["value"], int)

    def test_domain_violation_exits_one(self, capsys):
        code, out, err = run(
            capsys, "kernel-eval", "--kernel", "brownian", "--s", "-1", "--t", "2"
        )
        assert code == 1
        msg = json.loads(err)
        assert msg["error"] == "validation"
        assert "\n" not in err.strip()

    def test_binomial_past_capacity_exits_two(self, capsys, monkeypatch):
        # The capacity is checked before any coefficient is computed.
        def refuse(*args):
            raise AssertionError("math.comb called past the capacity")

        monkeypatch.setattr(math, "comb", refuse)
        code, out, err = run(
            capsys, "kernel-eval", "--kernel", "binomial", "--s", "8000", "--t", "8000"
        )
        assert code == 2
        assert out == ""
        msg = json.loads(err)
        assert msg["error"] == "numerical"
        assert "capacity" in msg["message"]
        assert err.count("\n") == 1


class TestGram:
    def test_brownian_det_pair(self, capsys):
        doc = run_json(capsys, "gram", "--kernel", "brownian", "--points", "1,2,3")
        assert doc["det_closed"] == 1.0
        assert abs(doc["det_lu"] - 1.0) <= 1e-10
        assert doc["entries"][0] == [1.0, 1.0, 1.0]

    def test_near_duplicate_report_still_emitted(self, capsys):
        doc = run_json(
            capsys, "gram", "--kernel", "brownian", "--points", "1,1.00000000000001"
        )
        assert 0.0 < doc["det_closed"] < 1e-13

    def test_csv_format(self, capsys, tmp_path):
        target = tmp_path / "g.csv"
        code, out, err = run(
            capsys,
            "gram",
            "--kernel",
            "brownian",
            "--points",
            "1,2",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0].startswith("# schema_version=1 ")
        assert lines[1] == "1.0,1.0"
        assert lines[2] == "1.0,2.0"

    def test_unknown_kernel_exits_one(self, capsys):
        code, _, err = run(capsys, "gram", "--kernel", "nope", "--points", "1,2")
        assert code == 1
        assert json.loads(err)["error"] == "validation"

    def test_overflowing_determinant_is_null(self, capsys):
        # The binomial Gram over 0..100 has determinant 1, but its LU pivot
        # product overflows a double; the report stays strict JSON.
        code, out, err = run(capsys, "gram", "--kernel", "binomial", "--points", "0..100")
        assert code == 0
        assert err == ""

        def refuse(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        doc = json.loads(out, parse_constant=refuse)
        assert doc["det_lu"] is None
        assert doc["order"] == 101


class TestStrictJson:
    def test_non_finite_report_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(pdsampling.cli, "eval_kernel", lambda spec, s, t: math.nan)
        code, out, err = run(
            capsys, "kernel-eval", "--kernel", "brownian", "--s", "1", "--t", "2"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "numerical"


class TestFrameCheck:
    def test_integer_truncation_with_tail(self, capsys):
        doc = run_json(
            capsys,
            "frame-check",
            "--kernel",
            "sinc",
            "--integers",
            "200",
            "--grid",
            "0.25,0.5",
        )
        assert doc["N"] == 200
        assert doc["defect"] <= 5e-3
        assert doc["tail_bound"] is not None
        assert doc["defect"] <= doc["tail_bound"] * 1.05

    def test_bounds_flag(self, capsys):
        doc = run_json(
            capsys,
            "frame-check",
            "--kernel",
            "brownian",
            "--points",
            "1,2",
            "--grid",
            "1",
            "--bounds",
        )
        lam_hi = (3.0 + math.sqrt(5.0)) / 2.0
        assert abs(doc["a"] - 1.0 / lam_hi) <= 1e-12
        assert doc["defect"] == 1.0

    def test_points_and_integers_conflict(self, capsys):
        code, _, err = run(
            capsys,
            "frame-check",
            "--kernel",
            "sinc",
            "--integers",
            "5",
            "--points",
            "0,1",
            "--grid",
            "0.25",
        )
        assert code == 1

    def test_integers_radius_must_be_positive(self, capsys):
        code, out, err = run(
            capsys, "frame-check", "--kernel", "sinc", "--integers", "0", "--grid", "0.25"
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["message"] == "--integers radius must be an integer >= 1, got 0"


class TestReconstruct:
    def test_unit_sample_at_node(self, capsys):
        doc = run_json(
            capsys,
            "reconstruct",
            "--kernel",
            "sinc",
            "--points=-2..2",
            "--samples",
            "0,0,1,0,0",
            "--t",
            "0",
        )
        assert doc["value"] == 1.0


class TestInterpolate:
    def test_spline_payload(self, capsys):
        doc = run_json(
            capsys,
            "interpolate",
            "--spline",
            "--points",
            "1,2",
            "--values",
            "0,1",
        )
        assert doc["norm_sq"] == 1.0
        assert doc["admissible"] is True
        assert doc["config"]["budget"] is None

    def test_spline_budget_flag(self, capsys):
        doc = run_json(
            capsys,
            "interpolate",
            "--spline",
            "--points",
            "1,2",
            "--values",
            "0,1",
            "--budget",
            "0.5",
        )
        assert doc["admissible"] is False
        assert doc["config"]["budget"] == 0.5

    def test_singular_solve_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            "interpolate",
            "--kernel",
            "brownian",
            "--points",
            "1,1.00000000000001",
            "--values",
            "0,1",
            "--alpha",
            "0",
        )
        assert code == 2
        msg = json.loads(err)
        assert msg["error"] == "numerical"
        assert "\n" not in err.strip()

    def test_ridge_interpolates_at_alpha_zero(self, capsys):
        doc = run_json(
            capsys,
            "interpolate",
            "--kernel",
            "brownian",
            "--points",
            "1,2",
            "--values",
            "1,1",
            "--alpha",
            "0",
        )
        np.testing.assert_allclose(doc["coefficients"], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(doc["node_residuals"], [0.0, 0.0], atol=1e-12)

    def test_data_file_replaces_inline_pairs(self, capsys, tmp_path):
        data = tmp_path / "xy.csv"
        data.write_text("1.0,0.0\n2.0,1.0\n")
        doc = run_json(
            capsys, "interpolate", "--spline", "--data", str(data)
        )
        assert doc["norm_sq"] == 1.0


class TestObstruct:
    def test_blocked_midpoint(self, capsys):
        doc = run_json(
            capsys,
            "obstruct",
            "--kernel",
            "brownian",
            "--points",
            "1,2",
            "--t0",
            "0.5",
            "--y0",
            "1",
            "--alpha",
            "0.1",
        )
        assert 0.0 < doc["minimum_value"] < 1.0
        assert len(doc["residuals_at_S"]) == 2
        rebuilt = (
            sum(w * r**2 for w, r in zip(doc["weights"], doc["residuals_at_S"]))
            + (doc["value_at_t0"] - 1.0) ** 2
        )
        assert rebuilt <= doc["minimum_value"]


class TestMassProbe:
    def test_binomial_divergence(self, capsys):
        doc = run_json(
            capsys,
            "mass-probe",
            "--kernel",
            "binomial",
            "--points",
            "0..25",
            "--target",
            "5",
        )
        assert doc["verdict"]["kind"] == "diverging"
        assert doc["norms"][-1] > 2.8e9

    def test_binomial_truncation_matches_probe_report(self, capsys):
        doc = run_json(
            capsys,
            "mass-probe",
            "--kernel",
            "binomial",
            "--points",
            "0..40",
            "--target",
            "6",
        )
        rep = pdsampling.probe_report(
            pdsampling.KernelSpec.binomial(), pdsampling.SampleSet.of(range(41)), 6
        )
        assert len(doc["norms"]) == 29
        assert doc["norms"] == list(rep.norms)
        for n in range(7, 30):
            exact = pdsampling.binomial_projection_norm_closed(6, n - 1)
            assert abs(doc["norms"][n - 1] - exact) <= 1e-15 * exact
        assert doc["verdict"]["kind"] == "diverging"

    def test_brownian_bounded(self, capsys):
        doc = run_json(
            capsys,
            "mass-probe",
            "--kernel",
            "brownian",
            "--points",
            "1..40",
            "--target",
            "0",
        )
        assert doc["verdict"]["kind"] == "bounded"
        assert abs(doc["verdict"]["limit"] - 2.0) <= 1e-10

    def test_csv_export(self, capsys, tmp_path):
        target = tmp_path / "probe.csv"
        code, _, _ = run(
            capsys,
            "mass-probe",
            "--kernel",
            "brownian",
            "--points",
            "1,2,3",
            "--target",
            "0",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0].startswith("# schema_version=1 ")
        assert lines[1] == "1,1.0"

    @pytest.mark.parametrize("target", ["-1", "10"])
    def test_bad_target_names_x_index(self, capsys, target):
        code, out, err = run(
            capsys,
            "mass-probe",
            "--kernel",
            "brownian",
            "--points",
            "1..10",
            "--target",
            target,
        )
        assert code == 1
        msg = json.loads(err)
        assert msg["error"] == "validation"
        assert msg["message"] == f"x_index must be an integer in [0, 10), got {target}"


class TestSimulate:
    def test_depth_past_capacity_exits_two(self, capsys, monkeypatch):
        # The basis size is checked before any basis column is computed.
        def refuse(*args, **kwargs):
            raise AssertionError("basis built past the capacity")

        monkeypatch.setattr(np, "clip", refuse)
        monkeypatch.setattr(np, "column_stack", refuse)
        code, out, err = run(
            capsys,
            "simulate",
            "--kernel",
            "bridge",
            "--grid",
            "0:1:0.25",
            "--paths",
            "3",
            "--depth",
            "24",
            "--seed",
            "1",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        msg = json.loads(err)
        assert msg["error"] == "numerical"
        assert "capacity" in msg["message"]

    def test_csv_paths(self, capsys):
        code, out, err = run(
            capsys,
            "simulate",
            "--kernel",
            "brownian",
            "--grid",
            "0:1:0.25",
            "--paths",
            "3",
            "--depth",
            "3",
            "--seed",
            "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# schema_version=1 ")
        assert lines[1] == "0.0,0.25,0.5,0.75,1.0"
        assert len(lines) == 5
        for row in lines[2:]:
            assert float(row.split(",")[0]) == 0.0

    def test_json_summary(self, capsys):
        doc = run_json(
            capsys,
            "simulate",
            "--kernel",
            "bridge",
            "--grid",
            "0:1:0.0625",
            "--paths",
            "400",
            "--depth",
            "6",
            "--seed",
            "2",
            "--format",
            "json",
        )
        assert doc["config"]["seed"] == 2
        assert len(doc["grid"]) == 17
        assert doc["mean"][0] == 0.0
        for check in doc["cov_checks"]:
            if check["std_error"] == 0.0:
                continue
            assert (
                abs(check["empirical"] - check["exact_truncated"])
                <= 6 * check["std_error"]
            )

    def test_sinc_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            "--kernel",
            "sinc",
            "--grid",
            "0:1:0.25",
            "--paths",
            "2",
            "--depth",
            "2",
            "--seed",
            "1",
        )
        assert code == 1


class TestOutputRouting:
    def test_rerun_bytes_identical(self, capsys):
        args = (
            "simulate",
            "--kernel",
            "brownian",
            "--grid",
            "0:1:0.125",
            "--paths",
            "20",
            "--depth",
            "5",
            "--seed",
            "42",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_dir_env_joins_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PDSAMPLING_OUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys,
            "kernel-eval",
            "--kernel",
            "brownian",
            "--s",
            "1",
            "--t",
            "2",
            "--out",
            "result.json",
        )
        assert code == 0
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["value"] == 1.0

    def test_absolute_out_ignores_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PDSAMPLING_OUT_DIR", str(tmp_path / "unused"))
        target = tmp_path / "direct.json"
        code, _, _ = run(
            capsys,
            "kernel-eval",
            "--kernel",
            "brownian",
            "--s",
            "1",
            "--t",
            "2",
            "--out",
            str(target),
        )
        assert code == 0
        assert target.exists()

    def test_missing_subcommand_exits_one(self, capsys):
        assert run(capsys, )[0] == 1


class TestConsoleScript:
    @pytest.mark.skipif(
        shutil.which("pdsampling") is None,
        reason="console script 'pdsampling' is not on PATH; install the package to run it",
    )
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [
                "pdsampling",
                "kernel-eval",
                "--kernel",
                "brownian",
                "--s",
                "1",
                "--t",
                "2",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 1.0

    def test_declared_entry_point_runs(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["pdsampling"]
        # Call the declared module:function the way the installed wrapper does.
        code = f"import pkgutil, sys; sys.exit(pkgutil.resolve_name({target!r})())"
        package_root = str(Path(pdsampling.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, "kernel-eval", "--kernel", "brownian", "--s", "1", "--t", "2"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == 1.0
