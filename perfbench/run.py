"""pdsampling benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics (setup_s, ops_per_s, latency_p50_ms, latency_tail_ms,
peak_rss_mb); with --trace 1 it carries the per-layer metrics of a traced
run.  Lines before it, starting with '#', give the machine facts and a
calibration time for reference.  If fewer than two operations succeed,
every metric is null and correct is false.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("dense-interp", "nested-probe")

# Set-up is measured this many times in separate processes, plus once in the
# process that runs the loop; setup_s is the median.
SETUP_PROBES = 2


def worker_env():
    env = dict(os.environ)
    # One caller, one BLAS thread: a second thread would compete with it on
    # a 2-core machine and make times depend on what else runs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args, extra, deadline):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    launched = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if "setup_end" in result:
        result["setup_s"] = result["setup_end"] - launched
    return result


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pdsampling", "__init__.py")):
        sys.exit(f"no pdsampling source tree under {os.path.join(ROOT, 'src')}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    deadline = time.monotonic() + 170

    probes = [] if args.trace else [launch(args, ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    main_run = launch(args, [], deadline)
    errors = [e for r in probes + [main_run] for e in r["errors"]]
    raised = [e for r in probes + [main_run] for e in r["raised"]]

    print("# machine " + json.dumps(main_run["facts"]))
    cal = main_run["calibration_ms"]
    if len(cal) >= 2:
        q = statistics.quantiles(cal, n=4)
        med = statistics.median(cal)
        print(f"# calibration_ms median {med:.3f}, quartile spread {(q[2] - q[0]) / med:.3f}, "
              f"{len(cal)} samples through the loop (fixed loop outside pdsampling, for reference)")
    for e in errors[:20]:
        print("# check failed: " + e)
    for e in raised[:20]:
        print("# operation failed: " + e)

    if args.trace:
        metrics = {}
        for name, (value, unit) in main_run["metrics"].items():
            metrics[name] = {"value": value, "unit": unit}
        absent = sorted(k for k, m in metrics.items() if m["value"] is None)
        print("# absent: " + (", ".join(absent) if absent else "none"))
        print(f"# spans written to {os.path.relpath(main_run['trace_file'], ROOT)}")
    else:
        times = main_run["times"]
        pct = main_run["tail_pct"]
        setups = [r["setup_s"] for r in probes] + [main_run["setup_s"]]
        print(f"# {len(times)} timed operations; latency_tail_ms is p{pct}; "
              f"set-up times {', '.join(f'{s:.3f}' for s in setups)} s")
        measured = len(times) >= 2
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(times) / sum(times) if measured else None, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(times) if measured else None, "ms"),
            "latency_tail_ms": (1e3 * percentile(times, pct) if measured else None, "ms"),
            "peak_rss_mb": (main_run["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        if not measured:
            errors.append(f"only {len(times)} operations succeeded")
    print(json.dumps({
        "correct": not errors,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
