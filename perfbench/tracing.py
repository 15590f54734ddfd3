"""Spans and counts around pdsampling's public functions, taken from outside.

Tracer.install() replaces each wrapped function wherever the package binds
it: the package namespace and every submodule that imported it by name, so
calls from one module into another are seen as well.  uninstall() puts the
originals back.  A wrapped function records a span (name, tag, size, start,
end, parent span, operation id); spans stay in memory until the run ends.

Kernel evaluation is counted but not spanned: one operation makes tens of
thousands of eval_kernel calls, and a span each would cost more than the
call.  Its time therefore shows as self time of whatever called it (Gram
assembly, an interpolant evaluation, the Parseval sum).
"""

import functools
import importlib
import sys
import time

PACKAGE = "pdsampling"

# (module, attribute) pairs; "Class.method" names a method of a class.
SPANNED = (
    ("gram", "build_gram"),
    ("gram", "cholesky_factor"),
    ("gram", "cholesky_solve"),
    ("gram", "solve_spd"),
    ("gram", "det_lu"),
    ("frames", "frame_bounds_truncated"),
    ("frames", "parseval_defect"),
    ("frames", "CoefficientFunction.__call__"),
    ("interpolate", "ridge_interpolant"),
    ("interpolate", "obstruction_probe"),
    ("massprobe", "probe_report"),
    ("massprobe", "projection_norm_sequence"),
    ("massprobe", "membership_probe"),
    ("simulate", "simulate_brownian"),
    ("simulate", "simulate_bridge"),
    ("simulate", "haar_antiderivative_matrix"),
    ("simulate", "truncated_covariance"),
    ("simulate", "empirical_covariance"),
    ("cli", "main"),
)
COUNTED = (("kernels", "eval_kernel"),)

# A span record: [name, tag, size, start, end, parent index, operation id].
NAME, TAG, SIZE, START, END, PARENT, OP = range(7)


def _resolve(module, dotted):
    owner, attr = module, dotted
    if "." in dotted:
        cls_name, attr = dotted.split(".", 1)
        owner = getattr(module, cls_name, None)
    if owner is None or not hasattr(owner, attr):
        return None, attr, None
    return owner, attr, getattr(owner, attr)


def _grid_tag(args, kwargs):
    """'dyadic' when every grid point is a multiple of 2^-depth, else 'random'."""
    grid = args[0] if args else kwargs.get("grid")
    depth = args[2] if len(args) > 2 else kwargs.get("basis_depth", 0)
    scale = 2.0**depth
    return "dyadic" if all(float(t * scale).is_integer() for t in grid) else "random"


class Tracer:
    """Collects spans and counts for the operations run while installed."""

    def __init__(self, extra=()):
        """extra: further (module object, attribute, span name) to span, such as json.dumps."""
        self.spans = []
        self.counts = {}
        self.current = -1
        self.op = -1
        self._seen = set()
        self._patches = []  # (owner, attribute, original, replacement)
        self.present = set()  # wrapped names this version of the package has
        for mod_name, dotted in SPANNED + COUNTED:
            name = f"{mod_name}.{dotted}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            owner, attr, original = _resolve(module, dotted)
            if original is None:
                continue
            self.present.add(name)
            if (mod_name, dotted) in COUNTED:
                replacement = self._counted(name, original)
            else:
                replacement = self._spanned(name, original)
            if owner is module:
                for m in self._package_modules():
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, key, original, replacement))
            else:
                self._patches.append((owner, attr, original, replacement))
        for owner, attr, name in extra:
            original = getattr(owner, attr)
            self.present.add(name)
            self._patches.append((owner, attr, original, self._spanned(name, original)))

    @staticmethod
    def _package_modules():
        return [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def begin_op(self, op):
        self.op = op
        self._seen = set()

    def _bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._bump(name)
            return fn(*args, **kwargs)

        return wrapper

    def _annotate(self, rec, args, kwargs):
        name = rec[NAME]
        if name == "gram.build_gram" and len(args) >= 2:
            spec, s = args[0], args[1]
            key = (spec.kind, id(spec.table), tuple(s.points))
            if key in self._seen:
                self._bump("gram.duplicate_builds")
            self._seen.add(key)
        elif name == "gram.cholesky_factor" and args:
            rec[SIZE] = len(args[0])
        elif name == "simulate.simulate_brownian":
            rec[TAG] = _grid_tag(args, kwargs)

    def _spanned(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            rec = [name, None, 0, 0.0, 0.0, tracer.current, tracer.op]
            tracer._annotate(rec, args, kwargs)
            parent = tracer.current
            tracer.current = len(spans)
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._bump(f"{name}:{type(exc).__name__}")
                raise
            finally:
                rec[END] = clock()
                tracer.current = parent

        return wrapper

    def export(self):
        return {"spans": self.spans, "counts": self.counts}

    def merge(self, exported, op):
        """Add spans and counts recorded by a child process as operation op."""
        base = len(self.spans)
        for rec in exported["spans"]:
            rec = list(rec)
            rec[PARENT] = rec[PARENT] + base if rec[PARENT] >= 0 else -1
            rec[OP] = op
            self.spans.append(rec)
        for key, value in exported["counts"].items():
            self._bump(key, value)


def aggregate(spans):
    """Per (name, tag): calls, summed size, total time and self time."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out = {}
    for rec, inner in zip(spans, child):
        dur = rec[END] - rec[START]
        for key in ((rec[NAME], None), (rec[NAME], rec[TAG])) if rec[TAG] else ((rec[NAME], None),):
            a = out.setdefault(key, {"calls": 0, "size": 0, "total": 0.0, "self": 0.0})
            a["calls"] += 1
            a["size"] += rec[SIZE]
            a["total"] += dur
            a["self"] += dur - inner
    return out


def _field(agg, name, field, tag=None):
    return agg.get((name, tag), {}).get(field, 0)


# Per-layer metrics computed from spans and counts, all per traced operation.
# Each entry: metric -> (unit, wrapped names it rests on, function of
# (aggregates, counts)).  Times marked self exclude the spans of wrapped
# callees; the others are inclusive.
SPAN_METRICS = {
    "kernels.eval_calls": ("count", ["kernels.eval_kernel"], lambda a, c: c.get("kernels.eval_kernel", 0)),
    "gram.build_calls": ("count", ["gram.build_gram"], lambda a, c: _field(a, "gram.build_gram", "calls")),
    "gram.duplicate_builds": ("count", ["gram.build_gram"], lambda a, c: c.get("gram.duplicate_builds", 0)),
    "gram.build_s": ("s", ["gram.build_gram"], lambda a, c: _field(a, "gram.build_gram", "self")),
    "gram.factor_calls": ("count", ["gram.cholesky_factor"], lambda a, c: _field(a, "gram.cholesky_factor", "calls")),
    "gram.factor_rows": ("count", ["gram.cholesky_factor"], lambda a, c: _field(a, "gram.cholesky_factor", "size")),
    "gram.factor_s": ("s", ["gram.cholesky_factor"], lambda a, c: _field(a, "gram.cholesky_factor", "self")),
    "gram.solve_s": (
        "s",
        ["gram.cholesky_solve", "gram.solve_spd"],
        lambda a, c: _field(a, "gram.cholesky_solve", "self") + _field(a, "gram.solve_spd", "self"),
    ),
    "gram.singular_raises": (
        "count",
        ["gram.cholesky_factor"],
        lambda a, c: c.get("gram.cholesky_factor:SingularMatrixError", 0),
    ),
    "gram.det_s": ("s", ["gram.det_lu"], lambda a, c: _field(a, "gram.det_lu", "total")),
    "frames.coef_eval_calls": (
        "count",
        ["frames.CoefficientFunction.__call__"],
        lambda a, c: _field(a, "frames.CoefficientFunction.__call__", "calls"),
    ),
    "frames.coef_eval_s": (
        "s",
        ["frames.CoefficientFunction.__call__"],
        lambda a, c: _field(a, "frames.CoefficientFunction.__call__", "self"),
    ),
    "frames.defect_s": ("s", ["frames.parseval_defect"], lambda a, c: _field(a, "frames.parseval_defect", "total")),
    "frames.bounds_s": (
        "s",
        ["frames.frame_bounds_truncated"],
        lambda a, c: _field(a, "frames.frame_bounds_truncated", "total"),
    ),
    "interpolate.ridge_s": (
        "s",
        ["interpolate.ridge_interpolant"],
        lambda a, c: _field(a, "interpolate.ridge_interpolant", "self"),
    ),
    "interpolate.obstruct_s": (
        "s",
        ["interpolate.obstruction_probe"],
        lambda a, c: _field(a, "interpolate.obstruction_probe", "self"),
    ),
    "massprobe.sequence_calls": (
        "count",
        ["massprobe.projection_norm_sequence"],
        lambda a, c: _field(a, "massprobe.projection_norm_sequence", "calls"),
    ),
    "massprobe.sequence_s": (
        "s",
        ["massprobe.projection_norm_sequence"],
        lambda a, c: _field(a, "massprobe.projection_norm_sequence", "total"),
    ),
    "massprobe.membership_s": (
        "s",
        ["massprobe.membership_probe"],
        lambda a, c: _field(a, "massprobe.membership_probe", "total"),
    ),
    "simulate.basis_s": (
        "s",
        ["simulate.haar_antiderivative_matrix"],
        lambda a, c: _field(a, "simulate.haar_antiderivative_matrix", "total"),
    ),
    "simulate.synth_dyadic_s": (
        "s",
        ["simulate.simulate_brownian"],
        lambda a, c: _field(a, "simulate.simulate_brownian", "self", "dyadic"),
    ),
    "simulate.synth_random_s": (
        "s",
        ["simulate.simulate_brownian"],
        lambda a, c: _field(a, "simulate.simulate_brownian", "self", "random"),
    ),
    "simulate.bridge_s": (
        "s",
        ["simulate.simulate_bridge"],
        lambda a, c: _field(a, "simulate.simulate_bridge", "self"),
    ),
    "simulate.cov_s": (
        "s",
        ["simulate.empirical_covariance", "simulate.truncated_covariance"],
        lambda a, c: _field(a, "simulate.empirical_covariance", "self")
        + _field(a, "simulate.truncated_covariance", "self"),
    ),
    "cli.main_ms": ("ms", ["cli.main"], lambda a, c: 1e3 * _field(a, "cli.main", "total")),
    "cli.emit_ms": ("ms", ["cli.main"], lambda a, c: 1e3 * _field(a, "cli.json_dumps", "total")),
}


def span_metrics(tracer, n_ops):
    """Every SPAN_METRICS value per traced operation; None when its names are absent."""
    agg = aggregate(tracer.spans)
    out = {}
    for metric, (unit, sources, fn) in SPAN_METRICS.items():
        if not any(src in tracer.present for src in sources):
            out[metric] = (None, unit)
        else:
            out[metric] = (fn(agg, tracer.counts) / max(n_ops, 1), unit)
    return out
