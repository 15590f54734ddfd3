"""One workload process: set up, warm up, run the closed loop, report.

Started by run.py, which times the launch; prints one JSON line on stdout.
With --setup-only it stops where the first timed operation would start.
With --trace 1 it alternates untraced and traced operations and reports
per-layer metrics instead of operation times.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import pdsampling as pd  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Past --seconds a run goes on until the tail percentile has ten samples
# beyond it, but never past this many seconds of loop.
EXTRA_SECONDS = 30
# The sizes of ROADMAP direction 1 at which its baseline shows the growth:
# Gram n = 250 and 500, probe n = 200 and 400.
BUILD_SWEEP = (250, 500)
SEQUENCE_SWEEP = (200, 400)
IMPORT_PROBES = 3
# Seconds of loop between two calibration samples.
CALIBRATE_EVERY = 1.0
# Traced operations of each layer-only workload (paths, cli) per traced run,
# after one untraced warm-up operation of its own.
LAYER_OPS = 3
CLI_CHILD = [sys.executable, os.path.join(HERE, "cli_child.py")]


def min_ops(tail_pct):
    return math.ceil(10 / (1 - tail_pct / 100) - 1e-9)


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__,
    }


def calibration_sample_ms():
    """One pass of a fixed loop that does not call pdsampling: Python arithmetic and a matmul."""
    a = np.full((160, 160), 0.5)
    t = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += i * 0.5
    for _ in range(10):
        a @ a
    return 1e3 * (time.perf_counter() - t)


def exponent(make, fn, sizes, reps):
    """Slope of log time against log n, each size timed as the best of reps.

    The sizes take turns, round after round, so a speed swing of the machine
    falls on every size alike.  Each call gets fresh inputs from make(n),
    made outside the timed part.
    """
    best = [math.inf] * len(sizes)
    for _ in range(reps):
        for i, n in enumerate(sizes):
            x = make(n)
            t = time.perf_counter()
            fn(x)
            best[i] = min(best[i], time.perf_counter() - t)
    return float(np.polyfit(np.log(sizes), np.log(best), 1)[0])


def sweeps():
    rng = np.random.default_rng(0)
    brownian = pd.KernelSpec.brownian()

    def points(n):
        return pd.SampleSet.of(workloads.jittered(rng, n, 0.3) / n)

    return {
        "gram.build_exponent": (exponent(points, lambda s: pd.build_gram(brownian, s), BUILD_SWEEP, 10), "slope"),
        "massprobe.sequence_exponent": (
            exponent(points, lambda s: pd.projection_norm_sequence(brownian, s, 0, len(s.points)), SEQUENCE_SWEEP, 3),
            "slope",
        ),
    }


def import_ms():
    times = []
    for _ in range(IMPORT_PROBES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pdsampling"], check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


class Loop:
    """Closed loop over operations 0, 1, 2, ... of one workload, one caller.

    Operation 0 is the warm-up: it is attempted and checked like the others,
    but its time is not kept.
    """

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.k = 0
        self.failed = 0
        self.errors = []
        self.raised = []
        self.stdout_bytes = []
        self.calibration = []
        self.next_calibration = 0.0
        self.last = None
        self.attempted_elsewhere = 0

    def step(self, tracer=None, **run_kwargs):
        """Run operation k; return its time in seconds, or None if it raised.

        A tracer given here is installed around the run only, so input
        generation and the checks never show in the spans.
        """
        op = self.k
        self.k += 1
        self.last = None
        inputs = self.wl.make_inputs(self.seed, op)
        if tracer is not None:
            tracer.begin_op(op)
            tracer.install()
        t = time.perf_counter()
        try:
            out = self.wl.run(inputs, **run_kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.raised.append(
                f"op {op} raised {type(exc).__name__}: {exc} "
                f"({os.path.basename(where.filename)}:{where.lineno} in {where.name})"
            )
            return None
        finally:
            elapsed = time.perf_counter() - t
            if tracer is not None:
                tracer.uninstall()
        try:
            errors = self.wl.check(inputs, out)
        except Exception as exc:  # output too malformed for the checks to read
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            self.errors.append(f"op {op}: " + "; ".join(errors))
        if isinstance(out, dict) and "stdout" in out:
            self.stdout_bytes.append(len(out["stdout"]))
        self.last = out
        return elapsed

    def absorb(self, other):
        """Count another loop's attempts, failures and messages in this one's."""
        self.attempted_elsewhere += other.k
        self.failed += other.failed
        self.errors += [f"{other.wl.name} {e}" for e in other.errors]
        self.raised += [f"{other.wl.name} {e}" for e in other.raised]

    def calibrate(self):
        """Take a calibration sample once per CALIBRATE_EVERY s, between operations."""
        now = time.monotonic()
        if now >= self.next_calibration:
            self.calibration.append(calibration_sample_ms())
            self.next_calibration = now + CALIBRATE_EVERY


def timed_loop(loop, seconds, tail_pct):
    times = []
    need = min_ops(tail_pct)
    first = loop.k
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= seconds + EXTRA_SECONDS or (elapsed >= seconds and loop.k - first >= need):
            break
        t = loop.step()
        if t is not None:
            times.append(t)
        loop.calibrate()
    return times


def traced_step(loop, tracer):
    """Run one traced operation; a cli operation runs cli_child.py and hands its spans back."""
    if loop.wl.name != "cli":
        return loop.step(tracer=tracer)
    op = loop.k
    t = loop.step(command=CLI_CHILD)
    if t is not None and loop.last is not None and loop.last["returncode"] == 0:
        tracer.merge(json.loads(loop.last["stderr"].splitlines()[-1]), op)
    return t


def layer_only_metrics(loop):
    """simulate.* from traced paths operations; cli.* and gram.det_s from traced cli processes.

    These two workloads do not run end to end (see README); their
    operations run here, checked like any other, so that the layers they
    alone exercise are measured in every traced run.  Their attempts,
    failures and failed checks count in the run's totals.
    """
    metrics, exports = {}, {}
    for wl, prefixes in ((workloads.Paths(), ("simulate.",)), (workloads.Cli(), ("cli.", "gram.det_s"))):
        side = Loop(wl, loop.seed)
        tracer = tracing.Tracer()
        side.step()  # warm-up, untraced
        done = sum(traced_step(side, tracer) is not None for _ in range(LAYER_OPS))
        for name, value in tracing.span_metrics(tracer, done).items():
            if name.startswith(prefixes):
                metrics[name] = value
        if wl.name == "cli":
            sizes = side.stdout_bytes
            metrics["cli.stdout_bytes"] = (statistics.mean(sizes) if sizes else None, "count")
        loop.absorb(side)
        exports[wl.name] = tracer.export()
    return metrics, exports


def traced_loop(loop, seconds):
    """Alternate untraced and traced operations, so both see the same machine."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    traced_ops = 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= seconds + EXTRA_SECONDS or (elapsed >= seconds and traced_ops >= 2):
            break
        loop.calibrate()
        if loop.k % 2:
            t = loop.step()
            if t is not None:
                plain.append(t)
            continue
        traced_ops += 1
        t = traced_step(loop, tracer)
        if t is not None:
            traced.append(t)
    metrics = tracing.span_metrics(tracer, traced_ops)
    side, exports = layer_only_metrics(loop)
    metrics.update(side)
    metrics.update(sweeps())
    metrics["cli.import_ms"] = (import_ms(), "ms")
    if min(len(plain), len(traced)) < 2:
        loop.errors.append(f"only {len(plain)} untraced and {len(traced)} traced operations succeeded")
    overhead = None
    if plain and traced:
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    path = os.path.join(HERE, "out", f"trace-{loop.wl.name}-{loop.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": loop.wl.name, "seed": loop.seed, **tracer.export(), "layer_only": exports}, fh)
    return metrics, path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    wl.setup(workdir)
    loop = Loop(wl, args.seed)
    result = {}
    try:
        loop.step()  # operation 0, the warm-up
        result["setup_end"] = time.monotonic()
        if not args.setup_only:
            if args.trace:
                metrics, path = traced_loop(loop, args.seconds)
                result.update(metrics={k: list(v) for k, v in metrics.items()}, trace_file=path)
            else:
                result["times"] = timed_loop(loop, args.seconds, wl.tail_pct)
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        wl.close()
    result.update(
        attempted=loop.k + loop.attempted_elsewhere,
        failed=loop.failed,
        tail_pct=wl.tail_pct,
        errors=loop.errors,
        raised=loop.raised,
        facts=machine_facts(),
        calibration_ms=loop.calibration,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
