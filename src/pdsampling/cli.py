"""Command-line front end: parse a run configuration, dispatch, emit a report.

Every successful run writes one machine-readable report (JSON, or CSV for
matrix/sequence/path payloads) that echoes the fully resolved configuration,
so the identical computation can be replayed from the report alone.  This
module builds every report: the library returns its dataclasses and arrays,
each handler turns them into a JSON payload or a list of CSV rows, and
_report is the one writer, the only place where CSV cells are joined.

Exit status 0 means success, 1 a validation or domain error, 2 a numerical
failure (singular Gram, capacity); either failure prints a one-line JSON
object on stderr.  A command runs with numpy's overflow, division and
invalid-operation errors and every RuntimeWarning raised, so a floating-point
failure anywhere in it, numpy's or Python's own (any ArithmeticError), exits
2 with that one line rather than printing a warning first; underflow is left
silent, since the sinc kernel's Taylor branch underflows by design.

Point syntax, shared by every list flag (points, grids, values, samples,
weights): `a..b` is an inclusive integer range, `start:stop:step` a real
grid (the step must tile the interval exactly), `v1,v2,...` an inline list,
a bare number a singleton, and anything else is read as a numeric CSV file.
A range expression, or `--integers R`, asking for more than MAX_POINTS points
exits 2 before its list is built, and so does a CSV file once it has held
more than MAX_POINTS cells.
The path of an existing file is read as a file before any of the other
syntaxes is tried, so a relative path such as `../pts.csv` is not taken
for an integer range.
"""

import argparse
import csv
import json
import math
import os
import sys
import warnings

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError, check_int
from .frames import _integer_range, frame_bounds_truncated, parseval_defect, synthesis
from .gram import build_gram, det_bridge_closed, det_brownian_closed, det_lu
from .interpolate import _ridge_fit, obstruction_probe, spline_interpolant
from .kernels import KernelSpec, SampleSet, eval_kernel, kernel_values, parse_kernel
from .massprobe import probe_report
from .simulate import (
    empirical_covariance,
    simulate_bridge,
    simulate_brownian,
    truncated_covariance,
)

SCHEMA_VERSION = 1
OUT_DIR_ENV = "PDSAMPLING_OUT_DIR"
GRID_STEP_RTOL = 1e-9
# Points one range expression (a..b, start:stop:step, --integers R) may ask
# for, checked from the count before the list is built: 8 MiB of doubles.
MAX_POINTS = 2**20


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
            cells = 0
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                rows.append([_parse_number(cell) for cell in row if cell.strip()])
                cells += len(rows[-1])
                _check_point_count(path, cells)
            return rows
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _check_point_count(text: str, count) -> None:
    """CapacityError when a range expression asks for more than MAX_POINTS points."""
    if count > MAX_POINTS:
        raise CapacityError(
            f"{text!r} asks for more points than the documented ceiling {MAX_POINTS}"
        )


def parse_point_text(text: str) -> list[float]:
    """Resolve a point expression to an explicit list of reals."""
    text = text.strip()
    if not text:
        raise ValidationError("empty point expression")
    if os.path.isfile(text):
        return [v for row in _read_numeric_csv(text) for v in row]
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (_parse_number(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValidationError(f"range must have finite start, stop and step, got {text!r}")
        if not step > 0:
            raise ValidationError(f"range step must be positive, got {step}")
        span = stop - start
        _check_point_count(text, span / step + 1)
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
        _check_point_count(text, hi - lo + 1)
        return [float(v) for v in range(lo, hi + 1)]
    if "," in text:
        return [_parse_number(p) for p in text.split(",") if p.strip()]
    try:
        return [float(text)]
    except ValueError:
        pass
    return [v for row in _read_numeric_csv(text) for v in row]


def _resolve_out(out: str | None) -> str | None:
    if out is None or out == "-":
        return None
    if not os.path.isabs(out) and os.environ.get(OUT_DIR_ENV):
        return os.path.join(os.environ[OUT_DIR_ENV], out)
    return out


def _report(args, fmt: str, fields: dict, payload: dict | list) -> int:
    """Write the one report of a run and return exit status 0.

    Every report of the package is written here.  The configuration echoes
    the command, the resolved fields, the format and the output path.  A
    dict payload is written as indented JSON after the configuration.  A
    list payload holds CSV rows of Python ints and floats, each written as
    its cells' reprs joined by commas, under one `#` header line that
    carries the configuration as compact JSON.  The JSON of either is
    strict: a non-finite number in it raises NumericalError.
    """
    config = {"command": args.command, **fields, "format": fmt, "out": args.out}
    try:
        if isinstance(payload, dict):
            doc = {"schema_version": SCHEMA_VERSION, "config": config, **payload}
            text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
        else:
            compact = json.dumps(config, separators=(",", ":"), allow_nan=False)
            body = "".join(",".join(map(repr, row)) + "\n" for row in payload)
            text = f"# schema_version={SCHEMA_VERSION} config={compact}\n{body}"
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite number: {exc}") from None
    path = _resolve_out(args.out)
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    return 0


def _check_format(fmt: str, allowed: tuple[str, ...]) -> str:
    if fmt not in allowed:
        raise ValidationError(
            f"unsupported format {fmt!r} for this command (allowed: {', '.join(allowed)})"
        )
    return fmt


def _cmd_kernel_eval(args) -> int:
    spec = parse_kernel(args.kernel)
    value = eval_kernel(spec, args.s, args.t)
    fields = {"kernel": spec.to_text(), "s": args.s, "t": args.t}
    return _report(args, "json", fields, {"value": value})


def _cmd_gram(args) -> int:
    spec = parse_kernel(args.kernel)
    fmt = _check_format(args.format, ("json", "csv"))
    points = parse_point_text(args.points)
    s = SampleSet.of(points)
    entries = build_gram(spec, s)
    fields = {"kernel": spec.to_text(), "points": points}
    if fmt == "csv":
        return _report(args, fmt, fields, entries.tolist())
    closed = {"brownian": det_brownian_closed, "bridge": det_bridge_closed}.get(spec.kind)
    payload = {
        "order": len(points),
        "points": points,
        "entries": entries.tolist(),
        "det_closed": None if closed is None else closed(s),
        "det_lu": det_lu(entries),
    }
    return _report(args, fmt, fields, payload)


def _cmd_frame_check(args) -> int:
    spec = parse_kernel(args.kernel)
    if (args.points is None) == (args.integers is None):
        raise ValidationError("give exactly one of --points or --integers")
    if args.integers is not None:
        radius = check_int("--integers radius", args.integers, 1)
        _check_point_count(f"--integers {radius}", 2 * radius + 1)
        points = [float(v) for v in range(-radius, radius + 1)]
    else:
        points = parse_point_text(args.points)
    grid = parse_point_text(args.grid)
    s = SampleSet.of(points)
    report = parseval_defect(spec, s, grid, tail_budget=args.tail_budget)
    a, b = frame_bounds_truncated(spec, s) if args.bounds else (None, None)
    # "N" is the radius when the samples are exactly the integers of [-N, N],
    # otherwise the sample count.
    span = _integer_range(s)
    symmetric = span is not None and span[0] < 0 and span[0] == -span[1]
    fields = {
        "kernel": spec.to_text(),
        "integers": args.integers,
        "points": None if args.integers is not None else points,
        "grid": grid,
        "tail_budget": args.tail_budget,
        "bounds": args.bounds,
    }
    payload = {
        "a": a,
        "b": b,
        "defect": report.parseval_defect,
        "tail_bound": report.tail_bound,
        "N": span[1] if symmetric else len(s),
        "grid": grid,
    }
    return _report(args, "json", fields, payload)


def _cmd_reconstruct(args) -> int:
    spec = parse_kernel(args.kernel)
    points = parse_point_text(args.points)
    samples = parse_point_text(args.samples)
    s = SampleSet.of(points)
    if len(samples) != len(s):
        raise ValidationError(f"{len(samples)} samples for {len(s)} sample points")
    value = synthesis(spec, s, samples)(args.t)
    fields = {"kernel": spec.to_text(), "points": points, "samples": samples, "t": args.t}
    return _report(args, "json", fields, {"value": value})


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
    return parse_point_text(args.points), parse_point_text(args.values)


def _cmd_interpolate(args) -> int:
    points, values = _interp_inputs(args)
    s = SampleSet.of(points)
    if len(values) != len(s):
        raise ValidationError(f"{len(values)} values for {len(s)} points")
    if args.spline:
        fmt = _check_format(args.format, ("json", "csv"))
        result = spline_interpolant(s, values, finiteness_budget=args.budget)
        fields = {
            "mode": "spline",
            "points": points,
            "values": values,
            "budget": None if math.isinf(args.budget) else args.budget,
        }
        if fmt == "csv":
            rows = list(zip(result.function.knots, result.function.values))
            return _report(args, fmt, fields, rows)
        payload = {
            "knots": list(result.function.knots),
            "values": list(result.function.values),
            "norm_sq": result.norm_sq,
            "admissible": result.admissible,
        }
        return _report(args, fmt, fields, payload)
    if args.kernel is None:
        raise ValidationError("ridge interpolation needs --kernel (or use --spline)")
    fmt = _check_format(args.format, ("json",))
    spec = parse_kernel(args.kernel)
    weights = parse_point_text(args.weights) if args.weights is not None else None
    c, fitted, _ = _ridge_fit(spec, s, values, args.alpha, weights)
    fields = {
        "mode": "ridge",
        "kernel": spec.to_text(),
        "points": points,
        "values": values,
        "alpha": args.alpha,
        "weights": weights,
    }
    payload = {
        "coefficients": c.tolist(),
        "node_residuals": [fv - yv for fv, yv in zip(fitted.tolist(), values)],
        "norm_sq": float(c @ fitted),
    }
    return _report(args, fmt, fields, payload)


def _cmd_obstruct(args) -> int:
    spec = parse_kernel(args.kernel)
    points = parse_point_text(args.points)
    s = SampleSet.of(points)
    weights = parse_point_text(args.weights) if args.weights is not None else None
    result = obstruction_probe(spec, s, args.t0, args.y0, args.alpha, weights)
    fields = {
        "kernel": spec.to_text(),
        "points": points,
        "t0": args.t0,
        "y0": args.y0,
        "alpha": args.alpha,
        "weights": list(result.weights),
    }
    payload = {
        "minimum_value": result.minimum_value,
        "minimizer_points": list(result.minimizer.sample_set.points),
        "minimizer_coefficients": list(result.minimizer.coefficients),
        "residuals_at_S": list(result.residuals_at_s),
        "value_at_t0": result.value_at_t0,
        "alpha": args.alpha,
        "weights": list(result.weights),
    }
    return _report(args, "json", fields, payload)


def _cmd_mass_probe(args) -> int:
    spec = parse_kernel(args.kernel)
    fmt = _check_format(args.format, ("json", "csv"))
    points = parse_point_text(args.points)
    v = SampleSet.of(points)
    n_max = len(v) if args.n_max is None else check_int("--n-max", args.n_max, 1, len(v) + 1)
    target = check_int("--target", args.target, 0, n_max)
    report = probe_report(spec, v, target, n_max)
    fields = {"kernel": spec.to_text(), "points": points, "target": target, "n_max": n_max}
    if fmt == "csv":
        return _report(args, fmt, fields, [[n + 1, q] for n, q in enumerate(report.norms)])
    verdict = {"kind": report.verdict.kind}
    if report.verdict.limit is not None:
        verdict["limit"] = report.verdict.limit
    payload = {
        "kernel": spec.to_text(),
        "V_prefix": points[:n_max],
        "target_index": target,
        "norms": list(report.norms),
        "verdict": verdict,
        "closed_form": report.closed_form,
    }
    return _report(args, fmt, fields, payload)


def _cmd_simulate(args) -> int:
    fmt = _check_format(args.format, ("csv", "json"))
    if fmt == "json" and args.paths < 2:
        raise ValidationError("covariance needs at least two paths")
    if args.kernel not in ("brownian", "bridge"):
        raise ValidationError(
            f"simulate supports kernels brownian and bridge, got {args.kernel!r}"
        )
    grid = parse_point_text(args.grid)
    paths = check_int("--paths", args.paths, 1)
    depth = check_int("--depth", args.depth, 0)
    seed = check_int("--seed", args.seed, 0)
    simulate = simulate_brownian if args.kernel == "brownian" else simulate_bridge
    e = simulate(grid, paths, depth, seed)
    fields = {
        "kernel": args.kernel,
        "grid": grid,
        "paths": paths,
        "depth": depth,
        "seed": seed,
    }
    if fmt == "csv":
        return _report(args, fmt, fields, [list(e.time_grid), *e.paths.tolist()])
    mean = [float(v) for v in e.paths.mean(axis=0)]
    var = [float(v) for v in e.paths.var(axis=0, ddof=1)]
    m = len(grid)
    idx = sorted({m // 4, m // 2, (3 * m) // 4})
    # The grid is checked against [0, 1], where both kernels are defined.
    # Only the probe points enter the exact covariance: the grid's full
    # matrix has the same entries but can be far too large to build.
    probe = np.asarray(grid)[idx]
    exact = truncated_covariance(probe, depth, kind=args.kernel)
    pairs = [(a, b) for a in range(len(idx)) for b in range(a, len(idx))]
    rows, cols = np.array(pairs).T
    kernel = kernel_values(KernelSpec(args.kernel), probe[rows], probe[cols]).tolist()
    checks = []
    for (a, b), kernel_value in zip(pairs, kernel):
        i, j = idx[a], idx[b]
        est, se = empirical_covariance(e, i, j)
        checks.append(
            {
                "s": grid[i],
                "t": grid[j],
                "empirical": est,
                "std_error": se,
                "exact_truncated": float(exact[a, b]),
                "kernel_value": kernel_value,
            }
        )
    payload = {"grid": grid, "mean": mean, "var": var, "cov_checks": checks}
    return _report(args, fmt, fields, payload)


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
        with np.errstate(over="raise", divide="raise", invalid="raise"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(
            json.dumps({"error": "validation", "message": str(exc)}) + "\n"
        )
        return 1
    except (NumericalError, ArithmeticError, RuntimeWarning) as exc:
        sys.stderr.write(
            json.dumps({"error": "numerical", "message": str(exc)}) + "\n"
        )
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
