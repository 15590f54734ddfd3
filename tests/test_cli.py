"""Command-line surface: payload shapes, exit codes, output routing."""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdsampling
from pdsampling import CapacityError, NumericalError, ValidationError
from pdsampling.cli import MAX_POINTS, _report, main, parse_point_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_csv(capsys, *argv):
    """The CSV body of a successful run, below its one `#` header line."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    header, body = out.split("\n", 1)
    assert header.startswith("# schema_version=1 ")
    return body


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

    def test_relative_path_with_dot_dot_is_a_file(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "pts.csv").write_text("1.0\n2.0\n")
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        assert parse_point_text("../pts.csv") == [1.0, 2.0]
        doc = run_json(capsys, "gram", "--kernel", "brownian", "--points", "../pts.csv")
        assert doc["points"] == [1.0, 2.0]


class TestPointCeiling:
    """Range expressions are sized from their count before any list is built."""

    @pytest.fixture
    def ranges(self, monkeypatch):
        """Record the cli module's range() calls and hand back empty ranges."""
        calls = []

        def record(*args):
            calls.append(args)
            return []

        monkeypatch.setattr(pdsampling.cli, "range", record, raising=False)
        return calls

    def test_integer_range(self, ranges):
        assert parse_point_text(f"1..{MAX_POINTS}") == []
        assert ranges == [(1, MAX_POINTS + 1)]
        for text in (f"0..{MAX_POINTS}", f"-{MAX_POINTS}..0", f"0..{10**400}"):
            with pytest.raises(CapacityError, match="documented ceiling"):
                parse_point_text(text)
        assert len(ranges) == 1

    def test_step_range(self, ranges):
        assert parse_point_text(f"0:{MAX_POINTS - 1}:1") == [MAX_POINTS - 1.0]
        assert ranges == [(MAX_POINTS - 1,)]
        for text in (f"0:{MAX_POINTS}:1", "0:1:1e-320", "0:1e300:1e-300"):
            with pytest.raises(CapacityError, match="documented ceiling"):
                parse_point_text(text)
        assert len(ranges) == 1

    @pytest.mark.parametrize("text", ["nan:1:0.5", "0:inf:1", "0:1:inf", "-inf:0:1"])
    def test_step_range_must_be_finite(self, text):
        with pytest.raises(ValidationError, match="finite"):
            parse_point_text(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gram", "--kernel", "sinc", "--points", f"0..{MAX_POINTS}"],
            ["gram", "--kernel", "sinc", "--points", f"0:{MAX_POINTS}:1"],
            ["frame-check", "--kernel", "sinc", "--integers", f"{MAX_POINTS // 2}", "--grid", "0"],
        ],
    )
    def test_oversized_range_exits_two_before_building(self, capsys, ranges, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "numerical"
        assert ranges == []

    def test_oversized_gram_exits_two_before_any_entry(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("Gram entries computed past the entry ceiling")

        monkeypatch.setattr(pdsampling.gram, "kernel_values", refuse)
        code, out, err = run(capsys, "gram", "--kernel", "sinc", "--points", "0..4096")
        assert code == 2
        assert out == ""
        assert "4097 points" in json.loads(err)["message"]

    def test_csv_file_cells_are_counted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(pdsampling.cli, "MAX_POINTS", 4)
        path = tmp_path / "pts.csv"
        path.write_text("# header\n1,2\n3,4\n")
        assert parse_point_text(str(path)) == [1.0, 2.0, 3.0, 4.0]
        path.write_text("1,2\n3,4\n5\n6\n")
        with pytest.raises(CapacityError, match="ceiling 4"):
            parse_point_text(str(path))
        code, out, err = run(capsys, "gram", "--kernel", "brownian", "--points", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "numerical"

    def test_nan_step_range_exits_one(self, capsys):
        code, out, err = run(capsys, "gram", "--kernel", "sinc", "--points", "nan:1:0.5")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "validation"


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

    def test_singular_table_determinant_is_zero(self, capsys, tmp_path):
        # Rows 0 and 1 of the table are equal, so its LU has a zero pivot.
        table = tmp_path / "t.csv"
        table.write_text("0,1,2\n1,1,0\n1,1,0\n0,0,1\n")
        code, out, err = run(
            capsys, "gram", "--kernel", f"tabulated:{table}", "--points", "0,1,2"
        )
        assert code == 0
        assert err == ""
        assert json.loads(out)["det_lu"] == 0.0

    def test_report_contents(self, capsys):
        doc = run_json(capsys, "gram", "--kernel", "brownian", "--points", "1,2,3")
        assert doc["order"] == 3
        assert doc["points"] == [1.0, 2.0, 3.0]
        assert doc["det_closed"] == 1.0
        assert abs(doc["det_lu"] - 1.0) <= 1e-10

    def test_report_without_closed_form(self, capsys):
        doc = run_json(capsys, "gram", "--kernel", "sinc", "--points", "0,1")
        assert doc["det_closed"] is None

    def test_csv_rows(self, capsys):
        body = run_csv(capsys, "gram", "--kernel", "brownian", "--points", "1,2", "--format", "csv")
        assert body == "1.0,1.0\n1.0,2.0\n"


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

    def test_gapped_integers_have_no_tail_certificate(self, capsys):
        code, out, err = run(
            capsys,
            "frame-check",
            "--kernel",
            "sinc",
            "--points=-10,0,10",
            "--grid",
            "0.5",
            "--tail-budget",
            "0.1",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "validation"

    def test_integers_radius_must_be_positive(self, capsys):
        code, out, err = run(
            capsys, "frame-check", "--kernel", "sinc", "--integers", "0", "--grid", "0.25"
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["message"] == "--integers radius must be an integer >= 1, got 0"

    def test_symmetric_integer_radius(self, capsys):
        doc = run_json(
            capsys, "frame-check", "--kernel", "sinc", "--integers", "7", "--grid", "0.25"
        )
        rep = pdsampling.parseval_defect(
            pdsampling.KernelSpec.sinc(), pdsampling.SampleSet.of(range(-7, 8)), [0.25]
        )
        assert doc["N"] == 7
        assert doc["grid"] == [0.25]
        assert doc["a"] is None and doc["b"] is None
        assert doc["defect"] == rep.parseval_defect
        assert doc["tail_bound"] == rep.tail_bound

    def test_generic_points_use_count(self, capsys):
        doc = run_json(
            capsys, "frame-check", "--kernel", "brownian", "--points", "1,2,4", "--grid", "1.5"
        )
        assert doc["N"] == 3

    def test_gapped_integer_points_use_count(self, capsys):
        doc = run_json(
            capsys, "frame-check", "--kernel", "sinc", "--points=-10,0,10", "--grid", "0.5"
        )
        assert doc["tail_bound"] is None
        assert doc["N"] == 3


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

    @pytest.mark.parametrize("fmt", ["xml", "csv"])
    def test_ridge_rejects_other_formats(self, capsys, fmt):
        code, out, err = run(
            capsys,
            "interpolate",
            "--kernel",
            "brownian",
            "--points",
            "0.1,0.2",
            "--values",
            "1,2",
            "--format",
            fmt,
        )
        assert code == 1
        assert out == ""
        assert "unsupported format" in json.loads(err)["message"]

    def test_ridge_builds_one_gram(self, capsys, monkeypatch):
        real = pdsampling.gram.build_gram
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("pdsampling") and getattr(module, "build_gram", None) is real:
                monkeypatch.setattr(module, "build_gram", counted)
        doc = run_json(
            capsys,
            "interpolate",
            "--kernel",
            "brownian",
            "--points",
            "1,2,3",
            "--values",
            "1,2,3",
            "--alpha",
            "0.1",
        )
        assert len(calls) == 1
        assert len(doc["node_residuals"]) == 3

    @pytest.mark.parametrize(
        "argv, flag, ranged, listed",
        [
            (("interpolate", "--kernel", "brownian", "--points", "1,2,3"), "--values", "0..2", "0,1,2"),
            (("reconstruct", "--kernel", "sinc", "--points", "0..2", "--t", "0.3"), "--samples", "0:1:0.5", "0,0.5,1"),
            (
                ("obstruct", "--kernel", "brownian", "--points", "1,2", "--t0", "0.5", "--y0", "1", "--alpha", "0.1"),
                "--weights",
                "1..2",
                "1,2",
            ),
        ],
    )
    def test_value_lists_take_the_point_syntax(self, capsys, argv, flag, ranged, listed):
        assert run_json(capsys, *argv, flag, ranged) == run_json(capsys, *argv, flag, listed)

    def test_data_file_replaces_inline_pairs(self, capsys, tmp_path):
        data = tmp_path / "xy.csv"
        data.write_text("1.0,0.0\n2.0,1.0\n")
        doc = run_json(
            capsys, "interpolate", "--spline", "--data", str(data)
        )
        assert doc["norm_sq"] == 1.0

    def test_spline_csv_knot_value_rows(self, capsys):
        body = run_csv(
            capsys, "interpolate", "--spline", "--points", "0,0.5", "--values", "1,-2",
            "--format", "csv",
        )
        assert body == "0.0,1.0\n0.5,-2.0\n"


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


class TestNonFiniteNumbers:
    BROWNIAN = ("--kernel", "brownian", "--points", "0.1,0.2,0.3")
    SPLINE = ("interpolate", "--spline", "--points", "1,2", "--values", "0,1")
    SINC_RECONSTRUCT = ("reconstruct", "--kernel", "sinc", "--points", "0..2")

    @pytest.mark.parametrize(
        "argv",
        [
            ("interpolate", *BROWNIAN, "--values", "1,2,3", "--alpha", "inf"),
            ("interpolate", *BROWNIAN, "--values", "1,inf,3"),
            ("interpolate", *BROWNIAN, "--values", "1,nan,3", "--alpha", "1"),
            ("obstruct", *BROWNIAN, "--t0", "0.15", "--y0", "inf", "--alpha", "1"),
            ("obstruct", *BROWNIAN, "--t0", "0.15", "--y0", "1", "--alpha", "inf"),
            (
                "frame-check", "--kernel", "sinc", "--integers", "5", "--grid", "0.5",
                "--tail-budget", "nan",
            ),
            (
                "obstruct", "--kernel", "brownian", "--points", "1,2", "--t0", "0.5",
                "--y0", "1", "--alpha", "0.1", "--weights", "inf,1",
            ),
            (*SPLINE, "--budget", "nan", "--format", "csv"),
            (*SPLINE, "--budget", "nan", "--format", "json"),
            (*SPLINE, "--budget=-1"),
            (*SINC_RECONSTRUCT, "--samples", "1,nan,0", "--t", "0.3"),
            (*SINC_RECONSTRUCT, "--samples", "1,inf,0", "--t", "0.3"),
        ],
    )
    def test_exit_one_with_one_json_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "validation"
        assert "Traceback" not in err

    def test_csv_header_is_strict_json(self):
        args = SimpleNamespace(command="interpolate", out=None)
        with pytest.raises(NumericalError, match="non-finite"):
            _report(args, "csv", {"budget": math.nan}, [[0.0, 0.0]])


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

    def test_json_round_trip_fields(self, capsys):
        doc = run_json(
            capsys, "mass-probe", "--kernel", "brownian", "--points", "1..7", "--target", "1"
        )
        rep = pdsampling.probe_report(
            pdsampling.KernelSpec.brownian(), pdsampling.SampleSet.of(range(1, 8)), 1
        )
        assert doc["kernel"] == "brownian"
        assert doc["target_index"] == 1
        assert doc["verdict"]["kind"] == rep.verdict.kind
        assert doc["norms"] == list(rep.norms)

    def test_csv_rows(self, capsys):
        # Brownian points 1, 2 give the norms 1/K(1,1) = 1 and 2/(1 (2 - 1)) = 2.
        body = run_csv(
            capsys, "mass-probe", "--kernel", "brownian", "--points", "1,2", "--target", "0",
            "--format", "csv",
        )
        assert body == "1,1.0\n2,2.0\n"


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

    def test_csv_layout(self, capsys):
        body = run_csv(
            capsys, "simulate", "--kernel", "brownian", "--grid", "0,0.5,1", "--paths", "2",
            "--depth", "2", "--seed", "1",
        )
        e = pdsampling.simulate_brownian(np.array([0.0, 0.5, 1.0]), 2, 2, seed=1)
        lines = body.strip().split("\n")
        assert lines[0] == "0.0,0.5,1.0"
        assert len(lines) == 3
        row = [float(v) for v in lines[1].split(",")]
        np.testing.assert_array_equal(row, e.paths[0])

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

    @pytest.mark.parametrize("kernel", ["brownian", "bridge"])
    @pytest.mark.parametrize("grid, depth", [("0:1:0.015625", 10), ("0.25:0.75:0.125", 2), ("0.5", 3)])
    def test_exact_covariance_over_probe_points_only(self, capsys, monkeypatch, kernel, grid, depth):
        """The summary's exact entries come from the probe points, bit for bit the full matrix's."""
        sizes = []
        covariance = pdsampling.cli.truncated_covariance

        def recorded(points, *args, **kwargs):
            sizes.append(len(points))
            return covariance(points, *args, **kwargs)

        monkeypatch.setattr(pdsampling.cli, "truncated_covariance", recorded)
        argv = ("--grid", grid, "--paths", "3", "--depth", str(depth), "--seed", "1")
        doc = run_json(capsys, "simulate", "--kernel", kernel, *argv, "--format", "json")
        assert len(sizes) == 1 and sizes[0] <= 3
        points = parse_point_text(grid)
        full = covariance(points, depth, kind=kernel)
        for check in doc["cov_checks"]:
            i, j = points.index(check["s"]), points.index(check["t"])
            assert check["exact_truncated"] == float(full[i, j])

    def test_json_needs_two_paths_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work done before the path count was checked")

        monkeypatch.setattr(pdsampling.cli, "parse_point_text", refuse)
        monkeypatch.setattr(pdsampling.cli, "simulate_brownian", refuse)
        argv = ("--grid", "0:1:0.25", "--paths", "1", "--depth", "2", "--seed", "1")
        code, out, err = run(capsys, "simulate", "--kernel", "brownian", *argv, "--format", "json")
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "validation",
            "message": "covariance needs at least two paths",
        }

    @pytest.mark.parametrize("kernel", ["brownian", "bridge"])
    def test_kernel_value_is_the_kernel(self, capsys, kernel):
        doc = run_json(
            capsys,
            "simulate",
            "--kernel",
            kernel,
            "--grid",
            "0:1:0.5",
            "--paths",
            "3",
            "--depth",
            "2",
            "--seed",
            "1",
            "--format",
            "json",
        )
        spec = pdsampling.KernelSpec(kernel)
        endpoints = 0
        for check in doc["cov_checks"]:
            s, t = check["s"], check["t"]
            if kernel == "bridge" and {s, t} & {0.0, 1.0}:
                endpoints += 1
                assert check["kernel_value"] == 0.0
            else:
                assert check["kernel_value"] == pdsampling.eval_kernel(spec, s, t)
        assert len(doc["cov_checks"]) == 6
        assert endpoints == (5 if kernel == "bridge" else 0)

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


class TestOneStderrLine:
    """Floating-point failures exit with one JSON line and no warning before it.

    Run in a subprocess: in-process, the test configuration turns numpy's
    RuntimeWarnings into exceptions before the command could print them.
    """

    @pytest.mark.parametrize(
        "code, argv",
        [
            (2, "interpolate --kernel brownian --points 1,2,3 --values 1e300,-1e300,1e300 --alpha 0"),
            (2, "obstruct --kernel brownian --points 1,2,3 --t0 1.5 --y0 1e300 --alpha 1e-300"),
            (2, "frame-check --kernel brownian --points 1e300,2e300 --grid 1e300 --bounds"),
            (2, "reconstruct --kernel brownian --points 1,2 --samples 1e308,1e308 --t 1e308"),
            (2, "reconstruct --kernel brownian --points 1,2 --samples 1e308,1e308 --t 1"),
            (1, "simulate --kernel brownian --grid 0:1:0.25 --paths 1 --depth 2 --seed 1 --format json"),
            (2, "mass-probe --kernel brownian --points 1e-300,2e-300,3e-300 --target 0"),
            (2, "mass-probe --kernel bridge --points 1e-300,2e-300,3e-300 --target 1"),
        ],
    )
    def test_exit_code_and_one_line(self, code, argv):
        package_root = str(Path(pdsampling.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pdsampling.cli", *argv.split()],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert json.loads(proc.stderr)["error"] == ("numerical" if code == 2 else "validation")


# Edge values of a float flag, and the scales that turn a sorted integer set
# into a point list from the underflow to the overflow end of the doubles.
EDGE_NUMBERS = [
    0.0, 1.0, -1.0, 1e308, -1e308, 1e-300, -1e-300, 5e-324, math.nan, math.inf, -math.inf
]
SCALES = [1e-300, 1e-160, 0.1, 1.0, 1e300]
# Point expressions past MAX_POINTS, which must be refused before a list is built.
PAST_MAX_POINTS = [f"0..{MAX_POINTS}", f"-1..{MAX_POINTS}", f"0:1:{0.5 / MAX_POINTS!r}"]

numbers = st.sampled_from(EDGE_NUMBERS).map(repr)
# Sizes are small enough to run in microseconds or past a ceiling: a
# point-count, path-count or basis-depth check must refuse them up front.
sizes = st.one_of(
    st.integers(-2, 64), st.sampled_from([MAX_POINTS + 1, 2**31, 2**63])
).map(str)
depths = st.one_of(st.integers(-1, 6), st.sampled_from([24, 64, 2**31])).map(str)
integer_sets = st.sets(st.integers(-2, 64), max_size=8).map(sorted)
point_lists = st.one_of(
    st.builds(
        lambda ints, scale: ",".join(repr(k * scale) for k in ints),
        integer_sets,
        st.sampled_from(SCALES),
    ),
    st.sampled_from(PAST_MAX_POINTS),
    numbers,
)
formats = st.sampled_from(["json", "csv", "xml"])


@st.composite
def point_value_pairs(draw):
    """--points and a value list of the same length, so some runs succeed."""
    ints = draw(integer_sets)
    scale = draw(st.sampled_from(SCALES))
    value = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0])
    values = draw(st.lists(value, min_size=len(ints), max_size=len(ints)))
    return ",".join(repr(k * scale) for k in ints), ",".join(map(repr, values))


@pytest.fixture(scope="module")
def kernels(tmp_path_factory):
    """Every kernel the CLI names, a tabulated one over 0, 1, 2 included."""
    table = tmp_path_factory.mktemp("kernel") / "table.csv"
    table.write_text("0,1,2\n2,1,0\n1,3,1\n0,1,2\n")
    return st.sampled_from(["brownian", "bridge", "sinc", "binomial", f"tabulated:{table}", "nope"])


def flags(**values):
    """argv flags as --name=value, so a negative number is not read as a flag.

    A None value leaves the flag out and True gives a bare switch.
    """
    argv = []
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")
    return argv


def optional(strategy):
    return st.one_of(st.none(), strategy)


def assert_contract(argv):
    """Exit 0 with a silent stderr, or 1/2 with one JSON line and no report."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err.getvalue() == "", argv
        return
    assert out.getvalue() == "", argv
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, (argv, err.getvalue())
    assert json.loads(lines[0])["error"] == ("validation" if code == 1 else "numerical"), argv


contract = settings(derandomize=True, deadline=None, database=None, max_examples=100)


class TestContractProperty:
    """Every argv of each subcommand exits 0, 1 or 2 under the one-line contract.

    Values come from the edge cases of doubles and from lists past the
    ceilings.  The properties call main in-process, so numpy's warnings
    arrive as exceptions (see TestOneStderrLine for the subprocess check).
    """

    @contract
    @given(data=st.data())
    def test_kernel_eval(self, kernels, data):
        argv = flags(kernel=data.draw(kernels), s=data.draw(numbers), t=data.draw(numbers))
        assert_contract(["kernel-eval", *argv])

    @contract
    @given(data=st.data())
    def test_gram(self, kernels, data):
        argv = flags(
            kernel=data.draw(kernels), points=data.draw(point_lists), format=data.draw(formats)
        )
        assert_contract(["gram", *argv])

    @contract
    @given(data=st.data())
    def test_frame_check(self, kernels, data):
        argv = flags(
            kernel=data.draw(kernels),
            points=data.draw(optional(point_lists)),
            integers=data.draw(optional(sizes)),
            grid=data.draw(point_lists),
            tail_budget=data.draw(optional(numbers)),
            bounds=data.draw(st.booleans()),
        )
        assert_contract(["frame-check", *argv])

    @contract
    @given(data=st.data())
    def test_reconstruct(self, kernels, data):
        points, samples = data.draw(point_value_pairs())
        argv = flags(
            kernel=data.draw(kernels), points=points, samples=samples, t=data.draw(numbers)
        )
        assert_contract(["reconstruct", *argv])

    @contract
    @given(data=st.data())
    def test_interpolate(self, kernels, data):
        points, values = data.draw(point_value_pairs())
        argv = flags(
            kernel=data.draw(optional(kernels)),
            points=points,
            values=values,
            alpha=data.draw(optional(numbers)),
            weights=data.draw(optional(point_lists)),
            spline=data.draw(st.booleans()),
            budget=data.draw(optional(numbers)),
            format=data.draw(formats),
        )
        assert_contract(["interpolate", *argv])

    @contract
    @given(data=st.data())
    def test_obstruct(self, kernels, data):
        argv = flags(
            kernel=data.draw(kernels),
            points=data.draw(point_lists),
            t0=data.draw(numbers),
            y0=data.draw(numbers),
            alpha=data.draw(numbers),
            weights=data.draw(optional(point_lists)),
        )
        assert_contract(["obstruct", *argv])

    @settings(contract, max_examples=300)
    @given(data=st.data())
    def test_mass_probe(self, kernels, data):
        argv = flags(
            kernel=data.draw(kernels),
            points=data.draw(point_lists),
            target=data.draw(sizes),
            n_max=data.draw(optional(sizes)),
            format=data.draw(formats),
        )
        assert_contract(["mass-probe", *argv])

    @contract
    @given(data=st.data())
    def test_simulate(self, data):
        argv = flags(
            kernel=data.draw(st.sampled_from(["brownian", "bridge", "sinc"])),
            grid=data.draw(point_lists),
            paths=data.draw(sizes),
            depth=data.draw(depths),
            seed=data.draw(sizes),
            format=data.draw(formats),
        )
        assert_contract(["simulate", *argv])


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
