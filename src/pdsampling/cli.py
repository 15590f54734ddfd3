"""Command-line front end: parse a run configuration, dispatch, emit a report.

Every successful run writes one machine-readable report (JSON, or CSV for
matrix/sequence/path payloads) that echoes the fully resolved configuration,
so the identical computation can be replayed from the report alone.  Exit
status 0 means success, 1 a validation or domain error, 2 a numerical
failure (singular Gram, capacity); either failure prints a one-line JSON
object on stderr.

Point syntax: `a..b` is an inclusive integer range, `start:stop:step` a real
grid (the step must tile the interval exactly), `v1,v2,...` an inline list,
a bare number a singleton, and anything else is read as a numeric CSV file.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .errors import NumericalError, ValidationError, check_int
from .frames import frame_report_json, parseval_defect, reconstruct
from .gram import build_gram, gram_report, gram_to_csv
from .interpolate import (
    obstruction_probe,
    plf_to_csv,
    ridge_interpolant,
    spline_interpolant,
)
from .kernels import SampleSet, eval_kernel, parse_kernel
from .massprobe import probe_report, probe_to_csv, report_json
from .simulate import (
    empirical_covariance,
    ensemble_to_csv,
    simulate_bridge,
    simulate_brownian,
    truncated_covariance,
)

SCHEMA_VERSION = 1
OUT_DIR_ENV = "PDSAMPLING_OUT_DIR"
GRID_STEP_RTOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """argparse parser whose errors become ValidationError (exit status 1)."""

    def error(self, message):
        raise ValidationError(message)


def _parse_number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"not a number: {text!r}") from None


def _read_numeric_csv(path: str) -> list[list[float]]:
    try:
        with open(path, newline="") as fh:
            rows = []
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                rows.append([_parse_number(cell) for cell in row if cell.strip()])
            return rows
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def parse_point_text(text: str) -> list[float]:
    """Resolve a point expression to an explicit list of reals."""
    text = text.strip()
    if not text:
        raise ValidationError("empty point expression")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (_parse_number(p) for p in parts)
        if not step > 0:
            raise ValidationError(f"range step must be positive, got {step}")
        span = stop - start
        n = round(span / step)
        if n < 1 or abs(start + n * step - stop) > GRID_STEP_RTOL * max(1.0, abs(stop)):
            raise ValidationError(
                f"step {step} does not tile [{start}, {stop}] exactly"
            )
        return [start + i * span / n for i in range(n)] + [stop]
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ValidationError(
                f"integer range must be a..b with integers, got {text!r}"
            ) from None
        if hi < lo:
            raise ValidationError(f"empty integer range {text!r}")
        return [float(v) for v in range(lo, hi + 1)]
    if "," in text:
        return [_parse_number(p) for p in text.split(",") if p.strip()]
    try:
        return [float(text)]
    except ValueError:
        pass
    return [v for row in _read_numeric_csv(text) for v in row]


def _parse_values(text: str) -> list[float]:
    """Value lists: inline comma floats, a bare number, or a CSV file."""
    text = text.strip()
    if "," in text:
        return [_parse_number(p) for p in text.split(",") if p.strip()]
    try:
        return [float(text)]
    except ValueError:
        return [v for row in _read_numeric_csv(text) for v in row]


def _resolve_out(out: str | None) -> str | None:
    if out is None or out == "-":
        return None
    if not os.path.isabs(out) and os.environ.get(OUT_DIR_ENV):
        return os.path.join(os.environ[OUT_DIR_ENV], out)
    return out


def _emit(text: str, out: str | None) -> None:
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _emit_json(payload: dict, config: dict, out: str | None) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "config": config}
    doc.update(payload)
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite number: {exc}") from None
    _emit(text + "\n", out)


def _csv_header(config: dict) -> str:
    compact = json.dumps(config, separators=(",", ":"))
    return f"# schema_version={SCHEMA_VERSION} config={compact}\n"


def _emit_csv(body: str, config: dict, out: str | None) -> None:
    _emit(_csv_header(config) + body, out)


def _check_format(fmt: str, allowed: tuple[str, ...]) -> str:
    if fmt not in allowed:
        raise ValidationError(
            f"unsupported format {fmt!r} for this command (allowed: {', '.join(allowed)})"
        )
    return fmt


def _cmd_kernel_eval(args) -> int:
    spec = parse_kernel(args.kernel)
    value = eval_kernel(spec, args.s, args.t)
    config = {
        "command": "kernel-eval",
        "kernel": spec.to_text(),
        "s": args.s,
        "t": args.t,
        "format": "json",
        "out": args.out,
    }
    _emit_json({"value": value}, config, args.out)
    return 0


def _cmd_gram(args) -> int:
    spec = parse_kernel(args.kernel)
    fmt = _check_format(args.format, ("json", "csv"))
    points = parse_point_text(args.points)
    g = build_gram(spec, SampleSet.of(points))
    config = {
        "command": "gram",
        "kernel": spec.to_text(),
        "points": points,
        "format": fmt,
        "out": args.out,
    }
    if fmt == "csv":
        _emit_csv(gram_to_csv(g), config, args.out)
    else:
        _emit_json(gram_report(g), config, args.out)
    return 0


def _cmd_frame_check(args) -> int:
    spec = parse_kernel(args.kernel)
    if (args.points is None) == (args.integers is None):
        raise ValidationError("give exactly one of --points or --integers")
    if args.integers is not None:
        radius = check_int("--integers radius", args.integers, 1)
        points = [float(v) for v in range(-radius, radius + 1)]
    else:
        points = parse_point_text(args.points)
    grid = parse_point_text(args.grid)
    report = parseval_defect(
        spec,
        SampleSet.of(points),
        grid,
        tail_budget=args.tail_budget,
        include_bounds=args.bounds,
    )
    config = {
        "command": "frame-check",
        "kernel": spec.to_text(),
        "integers": args.integers,
        "points": None if args.integers is not None else points,
        "grid": grid,
        "tail_budget": args.tail_budget,
        "bounds": args.bounds,
        "format": "json",
        "out": args.out,
    }
    _emit_json(frame_report_json(report), config, args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    spec = parse_kernel(args.kernel)
    points = parse_point_text(args.points)
    samples = _parse_values(args.samples)
    s = SampleSet.of(points)
    if len(samples) != len(s):
        raise ValidationError(f"{len(samples)} samples for {len(s)} sample points")
    value = reconstruct(spec, s, samples, args.t)
    config = {
        "command": "reconstruct",
        "kernel": spec.to_text(),
        "points": points,
        "samples": samples,
        "t": args.t,
        "format": "json",
        "out": args.out,
    }
    _emit_json({"value": value}, config, args.out)
    return 0


def _interp_inputs(args) -> tuple[list[float], list[float]]:
    if args.data is not None:
        if args.points is not None or args.values is not None:
            raise ValidationError("--data replaces --points/--values")
        rows = _read_numeric_csv(args.data)
        pairs = [row for row in rows if row]
        if any(len(row) != 2 for row in pairs):
            raise ValidationError("--data file must have two columns: point,value")
        return [r[0] for r in pairs], [r[1] for r in pairs]
    if args.points is None or args.values is None:
        raise ValidationError("need --points and --values (or --data)")
    return parse_point_text(args.points), _parse_values(args.values)


def _cmd_interpolate(args) -> int:
    points, values = _interp_inputs(args)
    s = SampleSet.of(points)
    if len(values) != len(s):
        raise ValidationError(f"{len(values)} values for {len(s)} points")
    if args.spline:
        fmt = _check_format(args.format, ("json", "csv"))
        result = spline_interpolant(s, values, finiteness_budget=args.budget)
        config = {
            "command": "interpolate",
            "mode": "spline",
            "points": points,
            "values": values,
            "budget": None if math.isinf(args.budget) else args.budget,
            "format": fmt,
            "out": args.out,
        }
        if fmt == "csv":
            _emit_csv(plf_to_csv(result.function), config, args.out)
        else:
            _emit_json(
                {
                    "knots": list(result.function.knots),
                    "values": list(result.function.values),
                    "norm_sq": result.norm_sq,
                    "admissible": result.admissible,
                },
                config,
                args.out,
            )
        return 0
    if args.kernel is None:
        raise ValidationError("ridge interpolation needs --kernel (or use --spline)")
    spec = parse_kernel(args.kernel)
    weights = _parse_values(args.weights) if args.weights is not None else None
    f = ridge_interpolant(spec, s, values, args.alpha, weights)
    g = build_gram(spec, s)
    c = np.asarray(f.coefficients)
    fitted = g.entries @ c
    residuals = [float(fv - yv) for fv, yv in zip(fitted, values)]
    config = {
        "command": "interpolate",
        "mode": "ridge",
        "kernel": spec.to_text(),
        "points": points,
        "values": values,
        "alpha": args.alpha,
        "weights": weights,
        "format": "json",
        "out": args.out,
    }
    _emit_json(
        {
            "coefficients": list(f.coefficients),
            "node_residuals": residuals,
            "norm_sq": float(c @ (g.entries @ c)),
        },
        config,
        args.out,
    )
    return 0


def _cmd_obstruct(args) -> int:
    spec = parse_kernel(args.kernel)
    points = parse_point_text(args.points)
    s = SampleSet.of(points)
    weights = _parse_values(args.weights) if args.weights is not None else None
    result = obstruction_probe(spec, s, args.t0, args.y0, args.alpha, weights)
    config = {
        "command": "obstruct",
        "kernel": spec.to_text(),
        "points": points,
        "t0": args.t0,
        "y0": args.y0,
        "alpha": args.alpha,
        "weights": list(result.weights),
        "format": "json",
        "out": args.out,
    }
    _emit_json(
        {
            "minimum_value": result.minimum_value,
            "minimizer_points": list(result.minimizer.sample_set.points),
            "minimizer_coefficients": list(result.minimizer.coefficients),
            "residuals_at_S": list(result.residuals_at_s),
            "value_at_t0": result.value_at_t0,
            "alpha": result.alpha,
            "weights": list(result.weights),
        },
        config,
        args.out,
    )
    return 0


def _cmd_mass_probe(args) -> int:
    spec = parse_kernel(args.kernel)
    fmt = _check_format(args.format, ("json", "csv"))
    points = parse_point_text(args.points)
    v = SampleSet.of(points)
    n_max = args.n_max if args.n_max is not None else len(v)
    report = probe_report(spec, v, args.target, n_max)
    config = {
        "command": "mass-probe",
        "kernel": spec.to_text(),
        "points": points,
        "target": args.target,
        "n_max": n_max,
        "format": fmt,
        "out": args.out,
    }
    if fmt == "csv":
        _emit_csv(probe_to_csv(report.norms), config, args.out)
    else:
        _emit_json(report_json(report), config, args.out)
    return 0


def _cmd_simulate(args) -> int:
    fmt = _check_format(args.format, ("csv", "json"))
    if args.kernel not in ("brownian", "bridge"):
        raise ValidationError(
            f"simulate supports kernels brownian and bridge, got {args.kernel!r}"
        )
    grid = parse_point_text(args.grid)
    if args.kernel == "brownian":
        e = simulate_brownian(grid, args.paths, args.depth, args.seed)
    else:
        e = simulate_bridge(grid, args.paths, args.depth, args.seed)
    config = {
        "command": "simulate",
        "kernel": args.kernel,
        "grid": grid,
        "paths": args.paths,
        "depth": args.depth,
        "seed": args.seed,
        "format": fmt,
        "out": args.out,
    }
    if fmt == "csv":
        _emit_csv(ensemble_to_csv(e), config, args.out)
        return 0
    mean = [float(v) for v in e.paths.mean(axis=0)]
    var = [float(v) for v in e.paths.var(axis=0, ddof=1)]
    exact = truncated_covariance(grid, args.depth, kind=args.kernel)
    m = len(grid)
    idx = sorted({m // 4, m // 2, (3 * m) // 4})
    pairs = [(a, b) for k, a in enumerate(idx) for b in idx[k:]]
    checks = []
    for i, j in pairs:
        est, se = empirical_covariance(e, i, j)
        s_t, t_t = grid[i], grid[j]
        kernel_value = min(s_t, t_t) if args.kernel == "brownian" else min(s_t, t_t) - s_t * t_t
        checks.append(
            {
                "s": s_t,
                "t": t_t,
                "empirical": est,
                "std_error": se,
                "exact_truncated": float(exact[i, j]),
                "kernel_value": kernel_value,
            }
        )
    _emit_json(
        {"grid": grid, "mean": mean, "var": var, "cov_checks": checks},
        config,
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdsampling",
        description="Positive-definite kernel sampling toolkit",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", default="-", help="output path, or - for stdout")
        return p

    p = add("kernel-eval", _cmd_kernel_eval, "evaluate the kernel at one pair (s, t)")
    p.add_argument("--kernel", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = add("gram", _cmd_gram, "build the Gram matrix over a point set")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--format", default="json", help="json or csv")

    p = add("frame-check", _cmd_frame_check, "truncated frame diagnostics over a probe grid")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points")
    p.add_argument("--integers", type=int, help="use integer samples -N..N")
    p.add_argument("--grid", required=True)
    p.add_argument("--tail-budget", type=float, dest="tail_budget")
    p.add_argument("--bounds", action="store_true", help="also compute frame bounds (a, b)")

    p = add("reconstruct", _cmd_reconstruct, "evaluate the sample-coefficient expansion at t")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--t", type=float, required=True)

    p = add("interpolate", _cmd_interpolate, "ridge or spline interpolation through data")
    p.add_argument("--kernel")
    p.add_argument("--points")
    p.add_argument("--values")
    p.add_argument("--data", help="two-column CSV of point,value pairs")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--weights")
    p.add_argument("--spline", action="store_true", help="piecewise-linear spline instead of ridge")
    p.add_argument("--budget", type=float, default=math.inf, help="spline admissibility budget")
    p.add_argument("--format", default="json", help="json, or csv for --spline knots")

    p = add("obstruct", _cmd_obstruct, "penalized probe for forcing a value off the sample set")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--weights")

    p = add("mass-probe", _cmd_mass_probe, "projected point-mass norms along nested prefixes")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--target", type=int, required=True, help="index of the target point")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--format", default="json", help="json or csv")

    p = add("simulate", _cmd_simulate, "simulate Brownian or bridge paths on a grid")
    p.add_argument("--kernel", required=True, help="brownian or bridge")
    p.add_argument("--grid", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", default="csv", help="csv (paths) or json (summary)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(
            json.dumps({"error": "validation", "message": str(exc)}) + "\n"
        )
        return 1
    except NumericalError as exc:
        sys.stderr.write(
            json.dumps({"error": "numerical", "message": str(exc)}) + "\n"
        )
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
