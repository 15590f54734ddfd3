"""Self-test of the benchmark's checks: correct outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

For each workload it runs one small operation and expects every check to
pass, then hands the checker a corrupted copy of that output and expects the
check aimed at that corruption to reject it.  Exits 0 when every expectation
holds, 1 otherwise.
"""

import dataclasses
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(1, SRC)
# The cli workload starts `python -m pdsampling.cli`, which needs the tree too.
os.environ["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")

import workloads  # noqa: E402


def nudge_coefficient(out):
    case = dict(out["cases"][0])
    f = case["exact"]
    c = list(f.coefficients)
    c[len(c) // 2] += 1e-4 * max(1.0, max(abs(v) for v in c))
    case["exact"] = dataclasses.replace(f, coefficients=tuple(c))
    return {**out, "cases": [case] + out["cases"][1:]}


def decrease_probe(out):
    rep = out["bounded"]
    norms = list(rep.norms)
    j = len(norms) - 3  # past the target, before the entries the limit checks read
    norms[j] = 0.5 * norms[j - 1]
    return {**out, "bounded": dataclasses.replace(rep, norms=tuple(norms))}


def lift_bridge_endpoint(out):
    e = out["bridge"]
    paths = e.paths.copy()
    paths[0, -1] = 1e-3
    return {**out, "bridge": dataclasses.replace(e, paths=paths)}


def set_off_diagonal(out):
    doc = json.loads(out["stdout"])
    doc["entries"][0][1] = 1e-3
    return {**out, "stdout": json.dumps(doc).encode()}


CASES = (
    # workload, small instance, corruption, words the rejecting message holds
    (workloads.DenseInterp, dict(n=12, table_size=32, queries=4, radius=20, grid=5),
     nudge_coefficient, "exact coefficients"),
    (workloads.NestedProbe, dict(n=24, membership_n=12), decrease_probe, "decreases"),
    (workloads.Paths, dict(n_paths=16), lift_bridge_endpoint, "not exactly 0 at t=0 and t=1"),
    (workloads.Cli, dict(length=10), set_off_diagonal, "not exactly the identity"),
)


def main():
    ok = True
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        for cls, sizes, corrupt, words in CASES:
            wl = cls(**sizes)
            wl.setup(workdir)
            try:
                inputs = wl.make_inputs(0, 1)
                out = wl.run(inputs)
                errors = wl.check(inputs, out)
                if errors:
                    ok = False
                    print(f"FAIL {wl.name}: correct output rejected: {errors}")
                else:
                    print(f"PASS {wl.name}: correct output accepted")
                errors = wl.check(inputs, corrupt(out))
                hit = [e for e in errors if words in e]
                if hit:
                    print(f"PASS {wl.name}: {corrupt.__name__} rejected: {hit[0]}")
                else:
                    ok = False
                    print(f"FAIL {wl.name}: {corrupt.__name__} not rejected by its check: {errors}")
            finally:
                wl.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
