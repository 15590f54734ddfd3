"""The benchmark's workloads: seeded inputs, one operation, its checks.

dense-interp and nested-probe run end to end (WORKLOADS).  paths and cli run
only inside traced runs, where they measure the simulate and cli layers
(worker.layer_only_metrics); see README.md for why.

Each workload object has

  setup(workdir)        one-off state (the tabulated kernel's CSV), untimed
  make_inputs(seed, k)  the inputs of operation k; operation 0 is the warm-up
  run(inputs)           the operation itself: the only timed part
  check(inputs, out)    a list of failed-check messages, empty when correct
  close()               removes what setup wrote

Every operation has a fixed size and a fixed make-up, and draws all of its
inputs fresh from (seed, k), so no operation repeats another's inputs.
Checks compare against computations the benchmark makes itself (dense
Grams built by broadcasting, numpy solves and eigensolves, math.comb) or
against properties the method must have, never against stored output.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import pdsampling as pd

# Salts keep the input streams of different workloads apart for one seed.
_SALT = {"dense-interp": 1, "nested-probe": 2, "paths": 3, "cli": 4}


def op_rng(name: str, seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2**63 - 1), _SALT[name], k])


def jittered(rng, n: int, jitter: float) -> np.ndarray:
    """k + 1 + d_k with |d_k| <= jitter < 1/2: gaps never below 1 - 2 jitter."""
    return np.arange(1, n + 1) + rng.uniform(-jitter, jitter, n)


def _close(errors, label, got, want, rtol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{label}: shape {got.shape} != {want.shape}")
        return
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= rtol * scale:
        errors.append(f"{label}: max error {err:.3e} > {rtol:.0e} x {scale:.3e}")


# Relative slack for "non-decreasing": a stabilized probe sequence may
# wobble in its last bits once the projection has converged.
MONOTONE_SLACK = 1e-12


def _non_decreasing(errors, label, seq):
    for i in range(1, len(seq)):
        a, b = seq[i - 1], seq[i]
        if b < a - MONOTONE_SLACK * max(1.0, abs(a)):
            errors.append(f"{label}: decreases at entry {i}: {a!r} -> {b!r}")
            return


# ---------------------------------------------------------------- dense-interp


def own_gram(kind: str, x, y=None) -> np.ndarray:
    """K(x_i, y_j) by broadcasting, independent of the package's scalar path."""
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    s, t = x[:, None], y[None, :]
    if kind == "brownian":
        return np.minimum(s, t)
    if kind == "bridge":
        return np.minimum(s, t) - s * t
    if kind == "sinc":
        return np.sinc(s - t)
    if kind == "tabulated":
        return np.exp(-np.abs(s - t))
    raise ValueError(kind)


@dataclass
class InterpCase:
    kind: str
    spec: object
    x: np.ndarray
    y: np.ndarray
    t0: float
    queries: np.ndarray


class DenseInterp:
    """Exact, ridge and obstruction solves for four kernels, plus frame checks.

    The tabulated kernel is exp(-|s-t|) over the points k/4, written to CSV
    in setup and read back through parse_kernel; each operation samples a
    seeded subset of it.
    """

    name = "dense-interp"
    # Not the highest percentile a run reaches (p97): in a calm set its
    # per-run values spread 0.23, as it catches whether a short slow burst
    # fell in the run or not.
    tail_pct = 90
    KINDS = ("brownian", "bridge", "sinc", "tabulated")
    RIDGE_ALPHA = 1e-2
    OBSTRUCT_ALPHA = 1e-3
    Y0 = 1.0
    JITTER = 0.3  # points never closer than 0.4 of the mean spacing
    SINC_JITTER = 0.2  # below Kadec's 1/4, so integer sinc stays a Riesz basis

    # n = 48 is below the ROADMAP's smallest Gram size (250): at 250 one
    # operation, 17 Gram builds over four kernels, takes seconds, too long
    # for a tail percentile in one run.  The build_exponent sweep of the
    # traced run covers n = 250 and 500.
    def __init__(self, n=48, table_size=96, queries=32, radius=200, grid=40):
        self.n = n
        self.table_size = table_size
        self.queries = queries
        self.radius = radius
        self.grid = grid
        self.table_path = None

    def setup(self, workdir):
        pts = [k * 0.25 for k in range(self.table_size)]
        self.table_pts = np.array(pts)
        self.table_path = os.path.join(workdir, f"table-{os.getpid()}.csv")
        with open(self.table_path, "w") as fh:
            fh.write(",".join(repr(p) for p in pts) + "\n")
            for s in pts:
                fh.write(",".join(repr(math.exp(-abs(s - t))) for t in pts) + "\n")
        self.table_spec = pd.parse_kernel("tabulated:" + self.table_path)
        self.integers = pd.SampleSet.of(range(-self.radius, self.radius + 1))

    def close(self):
        if self.table_path and os.path.exists(self.table_path):
            os.remove(self.table_path)

    def _case(self, kind, rng):
        n = self.n
        if kind == "brownian":
            spec = pd.KernelSpec.brownian()
            x = jittered(rng, n, self.JITTER) / n
            queries = rng.uniform(x[0], x[-1], self.queries)
        elif kind == "bridge":
            spec = pd.KernelSpec.bridge()
            x = jittered(rng, n, self.JITTER) / (n + 1)
            queries = rng.uniform(x[0], x[-1], self.queries)
        elif kind == "sinc":
            spec = pd.KernelSpec.sinc()
            x = float(rng.integers(-1000, 1000)) + jittered(rng, n, self.SINC_JITTER)
            queries = rng.uniform(x[0], x[-1], self.queries)
        else:
            spec = self.table_spec
            idx = np.sort(rng.choice(self.table_size, n, replace=False))
            x = self.table_pts[idx]
            rest = np.setdiff1d(np.arange(self.table_size), idx)
            queries = self.table_pts[rng.choice(self.table_size, self.queries)]
        y = rng.standard_normal(n)
        if kind == "tabulated":
            t0 = float(self.table_pts[rng.choice(rest)])
        else:
            j = int(rng.integers(0, n - 1))
            t0 = float((x[j] + x[j + 1]) / 2.0)
        return InterpCase(kind, spec, x, y, t0, np.sort(queries))

    def make_inputs(self, seed, k):
        rng = op_rng(self.name, seed, k)
        cases = [self._case(kind, rng) for kind in self.KINDS]
        grid = rng.uniform(-self.radius / 2, self.radius / 2, self.grid)
        return {"cases": cases, "grid": grid}

    def run(self, inputs):
        results = []
        for case in inputs["cases"]:
            s = pd.SampleSet.of(case.x)
            exact = pd.ridge_interpolant(case.spec, s, case.y, 0.0)
            ridge = pd.ridge_interpolant(case.spec, s, case.y, self.RIDGE_ALPHA)
            obstruct = pd.obstruction_probe(
                case.spec, s, case.t0, self.Y0, self.OBSTRUCT_ALPHA
            )
            values = [exact(float(q)) for q in case.queries]
            results.append({"exact": exact, "ridge": ridge, "obstruct": obstruct, "values": values})
        sinc = inputs["cases"][self.KINDS.index("sinc")]
        bounds = pd.frame_bounds_truncated(pd.KernelSpec.sinc(), pd.SampleSet.of(sinc.x))
        defect = pd.parseval_defect(pd.KernelSpec.sinc(), self.integers, inputs["grid"])
        return {"cases": results, "bounds": bounds, "defect": defect}

    def check(self, inputs, out):
        errors = []
        for case, res in zip(inputs["cases"], out["cases"]):
            self._check_case(errors, case, res)
        sinc = inputs["cases"][self.KINDS.index("sinc")]
        eig = np.linalg.eigvalsh(own_gram("sinc", sinc.x))
        _close(errors, "frame bounds", out["bounds"], (1.0 / eig[-1], 1.0 / eig[0]), 1e-9)
        grid = inputs["grid"]
        tail = 2.0 / (math.pi**2 * (self.radius - float(np.max(np.abs(grid)))))
        ks = np.arange(-self.radius, self.radius + 1, dtype=float)
        own = float(np.max(np.abs(1.0 - np.sum(np.sinc(grid[:, None] - ks[None, :]) ** 2, axis=1))))
        d = out["defect"].parseval_defect
        if not 0.0 <= d <= tail:
            errors.append(f"parseval defect {d!r} outside [0, tail bound {tail!r}]")
        _close(errors, "parseval defect", d, own, 1e-10)
        return errors

    def _check_case(self, errors, case, res):
        k = case.kind
        g = own_gram(k, case.x)
        c0 = np.asarray(res["exact"].coefficients)
        _close(errors, f"{k} exact coefficients", c0, np.linalg.solve(g, case.y), 1e-7)
        _close(errors, f"{k} interpolant at nodes", g @ c0, case.y, 1e-7)
        nodes = np.linspace(0, len(case.x) - 1, 4).astype(int)
        _close(
            errors,
            f"{k} interpolant called at nodes",
            [res["exact"](float(case.x[i])) for i in nodes],
            case.y[nodes],
            1e-7,
        )
        ca = np.asarray(res["ridge"].coefficients)
        want = np.linalg.solve(g + self.RIDGE_ALPHA * np.eye(len(case.x)), case.y)
        _close(errors, f"{k} ridge coefficients", ca, want, 1e-7)
        _close(errors, f"{k} query values", res["values"], own_gram(k, case.queries, case.x) @ c0, 1e-7)

        ob = res["obstruct"]
        i0 = int(np.searchsorted(case.x, case.t0))
        aug = np.insert(case.x, i0, case.t0)
        if not np.array_equal(np.asarray(ob.minimizer.sample_set.points), aug):
            errors.append(f"{k} obstruction: minimizer points are not S with t0 inserted")
            return
        ga = own_gram(k, aug)
        c = np.asarray(ob.minimizer.coefficients)
        targets = np.zeros(len(aug))
        targets[i0] = self.Y0
        _close(
            errors,
            f"{k} obstruction minimizer",
            c,
            np.linalg.solve(ga + self.OBSTRUCT_ALPHA * np.eye(len(aug)), targets),
            1e-7,
        )
        u = ga @ c
        _close(errors, f"{k} obstruction residuals", ob.residuals_at_s, np.delete(u, i0), 1e-9)
        _close(errors, f"{k} obstruction value at t0", ob.value_at_t0, u[i0], 1e-9)
        r = np.asarray(ob.residuals_at_s)
        objective = float(r @ r) + (ob.value_at_t0 - self.Y0) ** 2 + self.OBSTRUCT_ALPHA * float(c @ u)
        m = ob.minimum_value
        if not 0.0 <= m <= self.Y0**2:
            errors.append(f"{k} obstruction minimum {m!r} outside [0, y0^2]")
        _close(errors, f"{k} obstruction minimum vs objective", m, objective, 1e-9)


# ---------------------------------------------------------------- nested-probe


class NestedProbe:
    """Nested-prefix probes: bounded Brownian, truncated binomial, membership.

    The binomial set 0..N runs past the prefix (about 29) where the
    double-precision factorization gives out, so probe_report takes its
    singular-truncation route and runs the sequence a second time.
    """

    name = "nested-probe"
    tail_pct = 85
    JITTER = 0.3
    # The double-precision sequence drifts from the exact sums next to the
    # prefix where the factorization gives out: on 0..40 entry 29 is off by
    # 1.0e-7 relative for target 6, and by less for the other targets 0..9.
    BINOMIAL_RTOL = 1e-6
    BINOMIAL_N = 40
    CENTRES = 4

    # n = 200 is the smallest probe size of ROADMAP direction 1 and of its
    # projection_norm_sequence baseline.
    def __init__(self, n=200, membership_n=200):
        self.n = n
        self.membership_n = membership_n

    def setup(self, workdir):
        self.binomial_set = pd.SampleSet.of(range(self.BINOMIAL_N + 1))

    def close(self):
        pass

    def make_inputs(self, seed, k):
        rng = op_rng(self.name, seed, k)
        n, m = self.n, self.membership_n
        x = jittered(rng, n, self.JITTER) / n
        target = int(rng.integers(5, n // 4))
        binomial_target = int(rng.integers(0, 10))
        xm = jittered(rng, m, self.JITTER) / m
        centres = np.sort(rng.uniform(0.0, 1.0, self.CENTRES))
        coef = rng.standard_normal(self.CENTRES)
        f = own_gram("brownian", xm, centres) @ coef
        return {
            "x": x,
            "target": target,
            "binomial_target": binomial_target,
            "xm": xm,
            "centres": centres,
            "coef": coef,
            "f": f,
        }

    def run(self, inputs):
        brownian = pd.KernelSpec.brownian()
        bounded = pd.probe_report(brownian, pd.SampleSet.of(inputs["x"]), inputs["target"])
        binomial = pd.probe_report(pd.KernelSpec.binomial(), self.binomial_set, inputs["binomial_target"])
        membership = pd.membership_probe(
            brownian, pd.SampleSet.of(inputs["xm"]), inputs["f"], self.membership_n
        )
        return {"bounded": bounded, "binomial": binomial, "membership": membership}

    def check(self, inputs, out):
        errors = []
        x, i = inputs["x"], inputs["target"]
        rep = out["bounded"]
        self._check_sequence(errors, "brownian", rep.norms, i)
        limit = (x[i + 1] - x[i - 1]) / ((x[i] - x[i - 1]) * (x[i + 1] - x[i]))
        if rep.verdict.kind != "bounded":
            errors.append(f"brownian verdict {rep.verdict.kind!r}, want 'bounded'")
        else:
            _close(errors, "brownian verdict limit", rep.verdict.limit / limit, 1.0, 1e-9)
        if rep.norms:
            _close(errors, "brownian last norm", rep.norms[-1] / limit, 1.0, 1e-9)

        xb = inputs["binomial_target"]
        rep = out["binomial"]
        self._check_sequence(errors, "binomial", rep.norms, xb)
        if len(rep.norms) <= xb:
            errors.append(f"binomial sequence has no entry at the target ({len(rep.norms)} entries)")
        exact = 0
        for n in range(xb + 1, len(rep.norms) + 1):
            exact += math.comb(n - 1, xb) ** 2
            if not abs(rep.norms[n - 1] - exact) <= self.BINOMIAL_RTOL * exact:
                errors.append(f"binomial entry {n}: {rep.norms[n - 1]!r} != sum C(k,{xb})^2 = {exact}")
                break
        if rep.verdict.kind != "diverging":
            errors.append(f"binomial verdict {rep.verdict.kind!r}, want 'diverging'")

        seq = out["membership"]
        if len(seq) != self.membership_n:
            errors.append(f"membership sequence has {len(seq)} entries, want {self.membership_n}")
        _non_decreasing(errors, "membership", seq)
        c = inputs["coef"]
        norm = float(c @ own_gram("brownian", inputs["centres"]) @ c)
        if seq and not (0.0 <= seq[0] and seq[-1] <= norm * (1.0 + 1e-9)):
            errors.append(f"membership sequence leaves [0, a'K_p a = {norm!r}]: {seq[0]!r}..{seq[-1]!r}")
        return errors

    @staticmethod
    def _check_sequence(errors, label, norms, target):
        if any(v != 0.0 for v in norms[:target]):
            errors.append(f"{label}: entries before the target are not exactly 0")
        _non_decreasing(errors, label, norms)


# ---------------------------------------------------------------------- paths


class Paths:
    """Brownian and bridge ensembles on a dyadic and a random grid.

    The 65-point dyadic grid touches 64 of the 2048 depth-10 basis columns;
    a random grid of the same size touches several hundred.
    """

    name = "paths"
    DEPTH = 10
    GRID_POINTS = 65
    PAIRS = ((16, 16), (16, 48), (32, 64), (48, 48))
    # Standard errors allowed between an empirical covariance and min(s,t).
    # Wide enough that no seed trips it by chance over many runs, narrow
    # enough that a wrong covariance (a bridge, a missing level) fails.
    SE_LIMIT = 8.0
    PREFIX = 8

    # 256 paths: the five basis builds take a little over half of an
    # operation and the per-path work (seeding, normal draws, basis products),
    # which is all of C14's cost at 20k paths, a little under half, so a
    # change to either shows.
    def __init__(self, n_paths=256):
        self.n_paths = n_paths
        self.dyadic = np.linspace(0.0, 1.0, self.GRID_POINTS)

    def setup(self, workdir):
        pass

    def close(self):
        pass

    def make_inputs(self, seed, k):
        rng = op_rng(self.name, seed, k)
        inner = np.sort(rng.uniform(0.0, 1.0, self.GRID_POINTS - 2))
        grid = np.concatenate(([0.0], inner, [1.0]))
        seeds = [int(v) for v in rng.integers(0, 2**62, 4)]
        return {"random": grid, "seeds": seeds}

    def run(self, inputs):
        p, d = self.n_paths, self.DEPTH
        sb, sbr, rb, rbr = inputs["seeds"]
        out = {
            "brownian": pd.simulate_brownian(self.dyadic, p, d, sb),
            "bridge": pd.simulate_bridge(self.dyadic, p, d, sbr),
            "brownian_random": pd.simulate_brownian(inputs["random"], p, d, rb),
            "bridge_random": pd.simulate_bridge(inputs["random"], p, d, rbr),
        }
        out["cov"] = [pd.empirical_covariance(out["brownian"], i, j) for i, j in self.PAIRS]
        out["exact"] = pd.truncated_covariance(self.dyadic, d)
        return out

    def check(self, inputs, out):
        errors = []
        p, d = self.n_paths, self.DEPTH
        grids = {
            "brownian": self.dyadic,
            "bridge": self.dyadic,
            "brownian_random": inputs["random"],
            "bridge_random": inputs["random"],
        }
        for key, seed in zip(grids, inputs["seeds"]):
            e = out[key]
            if e.paths.shape != (p, self.GRID_POINTS):
                errors.append(f"{key}: paths shape {e.paths.shape}")
                return errors
            small = pd.simulate_brownian(grids[key], self.PREFIX, d, seed)
            if key.startswith("brownian"):
                again = pd.simulate_brownian(grids[key], self.PREFIX, d, seed)
                if not np.array_equal(small.paths, again.paths):
                    errors.append(f"{key}: a rerun with the same seed is not bit-identical")
                if not np.array_equal(small.paths, e.paths[: self.PREFIX]):
                    errors.append(f"{key}: the first paths change with the path count")
            else:
                if np.any(e.paths[:, 0] != 0.0) or np.any(e.paths[:, -1] != 0.0):
                    errors.append(f"{key}: bridge paths are not exactly 0 at t=0 and t=1")
                want = small.paths - np.outer(small.paths[:, -1], grids[key])
                _close(errors, f"{key}: B_t - t B_1 of the same draws", e.paths[: self.PREFIX], want, 1e-12)
        x = out["brownian"].paths
        for (i, j), (est, se) in zip(self.PAIRS, out["cov"]):
            s, t = self.dyadic[i], self.dyadic[j]
            prod = (x[:, i] - x[:, i].mean()) * (x[:, j] - x[:, j].mean())
            own = (prod.sum() / (p - 1), prod.std(ddof=1) / math.sqrt(p))
            _close(errors, f"covariance ({s}, {t})", (est, se), own, 1e-9)
            if not abs(est - min(s, t)) <= self.SE_LIMIT * se:
                errors.append(
                    f"covariance ({s}, {t}) = {est!r} is not within {self.SE_LIMIT} SE ({se!r}) of {min(s, t)}"
                )
        kernel = own_gram("brownian", self.dyadic)
        err = float(np.max(np.abs(out["exact"] - kernel)))
        if not err <= 2.0 ** -(d + 2):
            errors.append(f"truncated covariance is {err:.3e} from min(s,t), above 2^-(depth+2)")
        return errors


# ------------------------------------------------------------------------ cli


class Cli:
    """One `pdsampling gram --kernel sinc` process over a shifted integer range.

    The package is not installed, so the process is `python -m pdsampling.cli`
    with the source tree on PYTHONPATH (set by the caller's environment).
    """

    name = "cli"
    COMMAND = (sys.executable, "-m", "pdsampling.cli")

    # 400 points: about half the 801 of the ROADMAP's gram CLI baseline
    # (2.1 s, 0.73 s of it indented JSON), so a traced run stays short.
    def __init__(self, length=400):
        self.length = length

    def setup(self, workdir):
        pass

    def close(self):
        pass

    def make_inputs(self, seed, k):
        rng = op_rng(self.name, seed, k)
        lo = int(rng.integers(-10**6, 10**6))
        return {"lo": lo, "hi": lo + self.length - 1}

    def argv(self, inputs):
        return ["gram", "--kernel", "sinc", f"--points={inputs['lo']}..{inputs['hi']}"]

    def run(self, inputs, command=None):
        proc = subprocess.run(
            list(command or self.COMMAND) + self.argv(inputs),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, inputs, out):
        if out["returncode"] != 0:
            return [f"exit code {out['returncode']}: {out['stderr'][-300:]!r}"]
        try:
            doc = json.loads(out["stdout"])
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        errors = []
        n = self.length
        if doc.get("schema_version") != 1:
            errors.append(f"schema_version {doc.get('schema_version')!r}, want 1")
        if doc.get("points") != [float(v) for v in range(inputs["lo"], inputs["hi"] + 1)]:
            errors.append("points do not echo the requested range")
        entries = doc.get("entries")
        if not (isinstance(entries, list) and len(entries) == n
                and np.array_equal(np.array(entries), np.eye(n))):
            errors.append("Gram of integer sinc is not exactly the identity")
        if doc.get("det_lu") != 1.0:
            errors.append(f"det_lu {doc.get('det_lu')!r}, want exactly 1.0")
        return errors


WORKLOADS = {w.name: w for w in (DenseInterp, NestedProbe)}
