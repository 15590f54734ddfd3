"""Acceptance suite: numbered end-to-end checks, one line of verdict each.

Each test prints `Cnn <name>: PASS/FAIL` with the measured figure so a log
scrape shows the whole scorecard.  Tolerances are part of the package's
contract and are asserted exactly as stated, never loosened to make a check
green.  C11 brackets the Basel tail of an N-tooth witness: the gap
pi^2/6 - sum_{n<=N} 1/n^2 is the tail sum_{n>N} 1/n^2, which the integral
test pins strictly inside (1/(N+1), 1/N) for every N.  The window is signed,
so a witness with one tooth too many or too few falls outside it.
"""

import math
import time

import numpy as np

from pdsampling import (
    KernelSpec,
    SampleSet,
    binomial_gram_inverse,
    binomial_projection_norm_closed,
    brownian_delta_norm_closed,
    build_gram,
    cholesky_solve,
    cm_norm_sq,
    det_bridge_closed,
    det_brownian_closed,
    det_lu,
    empirical_covariance,
    frame_bounds_truncated,
    kernel_matrix,
    obstruction_probe,
    parseval_defect,
    pascal_inverse,
    pascal_lower,
    probe_report,
    projection_norm_sequence,
    ridge_interpolant,
    sawtooth_energy_closed,
    sawtooth_witness,
    simulate_bridge,
    simulate_brownian,
    sinc_pi,
    spline_interpolant,
    synthesis,
    truncated_covariance,
)

BM = KernelSpec.brownian()
BRIDGE = KernelSpec.bridge()
BINOMIAL = KernelSpec.binomial()
SINC = KernelSpec.sinc()


def report(code, name, ok, detail):
    line = f"{code} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_points(rng, n, lo, hi, min_gap):
    while True:
        pts = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.min(np.diff(pts)) > min_gap:
            return pts.tolist()


def test_c01_brownian_determinant_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        s = SampleSet.of(random_points(rng, n, 0.05, 10.0, 1e-3))
        closed = det_brownian_closed(s)
        lu = det_lu(build_gram(BM, s))
        worst = max(worst, abs(lu - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    report(
        "C01",
        "brownian determinant closed form vs LU",
        worst <= 1e-10 and elapsed < 1.0,
        f"max rel err {worst:.3e}, {elapsed:.3f}s",
    )


def test_c02_bridge_determinant_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        s = SampleSet.of(random_points(rng, n, 0.01, 0.99, 1e-4))
        closed = det_bridge_closed(s)
        lu = det_lu(build_gram(BRIDGE, s))
        worst = max(worst, abs(lu - closed) / abs(closed))
    report("C02", "bridge determinant closed form vs LU", worst <= 1e-10, f"max rel err {worst:.3e}")


def test_c03_first_point_projection_stabilizes():
    rng = np.random.default_rng(103)
    worst_flat = worst_limit = worst_zeta = 0.0
    for _ in range(5):
        pts = random_points(rng, 40, 0.1, 50.0, 1e-2)
        s = SampleSet.of(pts)
        x1, x2 = pts[0], pts[1]
        expected = x2 / (x1 * (x2 - x1))
        norms = projection_norm_sequence(BM, s, 0, 40)
        tail = norms[1:]
        worst_flat = max(worst_flat, max(tail) - min(tail))
        worst_limit = max(worst_limit, abs(norms[-1] - expected))
        g2 = build_gram(BM, SampleSet.of([x1, x2]))
        zeta = cholesky_solve(g2, np.array([1.0, 0.0]))
        ref = np.array([expected, -1.0 / (x2 - x1)])
        worst_zeta = max(worst_zeta, float(np.max(np.abs(zeta - ref) / np.abs(ref))))
    ok = worst_flat <= 1e-10 and worst_limit <= 1e-10 and worst_zeta <= 1e-10
    report(
        "C03",
        "first-point projection constant from n=2 with closed limit",
        ok,
        f"flatness {worst_flat:.3e}, limit err {worst_limit:.3e}, zeta err {worst_zeta:.3e}",
    )


def test_c04_interior_delta_norm_closed_form():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 13))
        s = SampleSet.of(random_points(rng, n, 0.1, 20.0, 1e-2))
        for i in range(1, n - 1):
            closed = brownian_delta_norm_closed(s, i)
            norms = projection_norm_sequence(BM, s, i, n)
            worst = max(worst, abs(norms[-1] - closed) / closed)
    report("C04", "interior point-mass norm closed form vs probe", worst <= 1e-9, f"max rel err {worst:.3e}")


def test_c05_sparse_family_decay():
    pts = [i * (i - 1) / 2.0 for i in range(2, 52)]
    s = SampleSet.of(pts)
    worst = 0.0
    closed_values = []
    for i in range(2, 51):
        j = i - 2
        expected = (2 * i - 1) / ((i - 1) * i)
        closed = (
            brownian_delta_norm_closed(s, 0)
            if j == 0
            else brownian_delta_norm_closed(s, j)
        )
        norms = projection_norm_sequence(BM, s, j, len(pts))
        worst = max(worst, abs(norms[-1] - expected) / expected)
        worst = max(worst, abs(closed - expected) / expected)
        closed_values.append(expected)
    decreasing = all(b < a for a, b in zip(closed_values, closed_values[1:]))
    ok = worst <= 1e-9 and decreasing and closed_values[-1] < 0.05
    report(
        "C05",
        "triangular-number family norms shrink toward zero",
        ok,
        f"max rel err {worst:.3e}, tail value {closed_values[-1]:.4f}",
    )


def test_c06_binomial_dichotomy():
    pts = list(range(26))
    s = SampleSet.of(pts)
    worst = 0.0
    for x in range(0, 11):
        norms = projection_norm_sequence(BINOMIAL, s, x, 26)
        for n in range(x, 26):
            exact = binomial_projection_norm_closed(x, n)
            worst = max(worst, abs(norms[n] - exact) / exact)
    witness = binomial_projection_norm_closed(5, 25)
    rep = probe_report(BINOMIAL, s, 5)
    ok = (
        worst <= 1e-8
        and witness > 2.8e9
        and rep.verdict.kind == "diverging"
    )
    report(
        "C06",
        "binomial probes equal exact sums and diverge",
        ok,
        f"max rel err {worst:.3e}, x=5 depth-25 value {witness}, verdict {rep.verdict.kind}",
    )


def test_c07_pascal_algebra():
    n = 60
    low = pascal_lower(n)
    inv = pascal_inverse(n)
    identity_exact = (low @ inv).tolist() == np.eye(n + 1, dtype=int).tolist()
    m = 25
    lowm = pascal_lower(m)
    product_exact = (lowm @ lowm.T).tolist() == kernel_matrix(
        BINOMIAL, range(m + 1), range(m + 1)
    ).tolist()
    k = 15
    g = build_gram(BINOMIAL, SampleSet.of(range(k + 1)))
    resid = float(np.max(np.abs(g @ binomial_gram_inverse(k) - np.eye(k + 1))))
    ok = identity_exact and product_exact and resid <= 1e-9
    report(
        "C07",
        "pascal triangular algebra exact and inverse identity",
        ok,
        f"L inverse exact={identity_exact}, LL' exact={product_exact}, inverse resid {resid:.3e}",
    )


def test_c08_sinc_diagonal_defect():
    s = SampleSet.of([float(v) for v in range(-2000, 2001)])
    grid = [0.25, 0.5, math.pi / 7]
    start = time.perf_counter()
    rep = parseval_defect(SINC, s, grid)
    elapsed = time.perf_counter() - start
    ok = rep.parseval_defect <= 5e-4 and rep.tail_bound <= 1.1e-4 and elapsed < 1.0
    report(
        "C08",
        "integer sinc diagonal defect within analytic tail",
        ok,
        f"defect {rep.parseval_defect:.3e}, tail {rep.tail_bound:.3e}, {elapsed:.3f}s",
    )


def test_c09_shifted_sinc_reconstruction():
    s = SampleSet.of([float(v) for v in range(-2000, 2001)])
    samples = [sinc_pi(p - 0.3) for p in s.points]
    value = synthesis(SINC, s, samples)(0.3)
    err = abs(value - 1.0)
    report("C09", "shifted sinc recovered from integer samples", err <= 1e-3, f"|f(0.3)-1| = {err:.3e}")


def test_c10_frame_bound_surrogates():
    a1, b1 = frame_bounds_truncated(SINC, SampleSet.of([float(v) for v in range(-50, 51)]))
    a2, b2 = frame_bounds_truncated(BM, SampleSet.of([1.0, 2.0]))
    lam_hi = (3.0 + math.sqrt(5.0)) / 2.0
    lam_lo = (3.0 - math.sqrt(5.0)) / 2.0
    err = max(
        abs(a1 - 1.0),
        abs(b1 - 1.0),
        abs(a2 - 1.0 / lam_hi),
        abs(b2 - 1.0 / lam_lo),
    )
    report("C10", "truncated frame bounds match closed eigenvalues", err <= 1e-12, f"max err {err:.3e}")


def test_c11_sawtooth_witness_energy():
    s = SampleSet.of([float(k) for k in range(1, 201)])
    w = sawtooth_witness(s)
    vanishes = all(w(p) == 0.0 for p in s.points)
    direct = cm_norm_sq(w)
    closed = sawtooth_energy_closed(s)
    identity_err = abs(direct - closed)
    n_teeth = len(s.points) - 1
    basel_gap = math.pi**2 / 6.0 - closed
    lo, hi = 1.0 / (n_teeth + 1), 1.0 / n_teeth
    ok = vanishes and identity_err <= 1e-12 and lo < basel_gap < hi
    report(
        "C11",
        "sawtooth witness vanishes with summable energy",
        ok,
        f"vanishes={vanishes}, energy identity err {identity_err:.3e}, "
        f"pi^2/6 gap {basel_gap:.6e} in (1/{n_teeth + 1}, 1/{n_teeth}) "
        f"= ({lo:.4e}, {hi:.4e})",
    )


def test_c12_spline_energy_identity():
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 101))
        pts = random_points(rng, n, 0.01, 40.0, 1e-4)
        y = rng.standard_normal(n)
        sp = spline_interpolant(SampleSet.of(pts), y.tolist())
        ref = sum(
            (y[j + 1] - y[j]) ** 2 / (pts[j + 1] - pts[j]) for j in range(n - 1)
        )
        scale = max(1.0, abs(ref))
        worst = max(worst, abs(sp.norm_sq - ref) / scale)
        worst = max(worst, abs(sp.norm_sq - cm_norm_sq(sp.function)) / scale)
    report("C12", "spline energy equals slope sum via two paths", worst <= 1e-12, f"max rel err {worst:.3e}")


def test_c13_ridge_and_obstruction():
    rng = np.random.default_rng(113)
    interp_err = 0.0
    monotone = True
    zero_iff = True
    for _ in range(10):
        n = int(rng.integers(2, 8))
        pts = random_points(rng, n, 0.2, 9.0, 5e-2)
        s = SampleSet.of(pts)
        y = rng.standard_normal(n)
        g = build_gram(BM, s)
        c = np.asarray(ridge_interpolant(BM, s, y, 0.0).coefficients)
        interp_err = max(interp_err, float(np.max(np.abs(g @ c - y))))
        t0 = float(rng.uniform(9.5, 12.0))
        y0 = float(rng.uniform(0.5, 2.0))
        zero_case = obstruction_probe(BM, s, t0, 0.0, alpha=0.1)
        nonzero_case = obstruction_probe(BM, s, t0, y0, alpha=0.1)
        zero_iff = zero_iff and zero_case.minimum_value == 0.0 and nonzero_case.minimum_value > 0.0
        values = [
            obstruction_probe(BM, s, t0, y0, alpha=a).minimum_value
            for a in (1e-1, 1e-2, 1e-3)
        ]
        monotone = monotone and values[0] >= values[1] >= values[2]
    ok = interp_err <= 1e-10 and zero_iff and monotone
    report(
        "C13",
        "ridge interpolates at zero penalty and probe tracks alpha",
        ok,
        f"interp err {interp_err:.3e}, zero-iff {zero_iff}, monotone {monotone}",
    )


def test_c14_monte_carlo_covariance():
    start = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 65)
    rng = np.random.default_rng(114)
    results = []
    bm = simulate_brownian(grid, 20000, 10, seed=1414)
    br = simulate_bridge(grid, 20000, 10, seed=1414)
    for ensemble, kind in ((bm, "brownian"), (br, "bridge")):
        cov = truncated_covariance(grid, 10, kind)
        for _ in range(20):
            i, j = (int(v) for v in rng.integers(0, 65, 2))
            est, se = empirical_covariance(ensemble, i, j)
            results.append(abs(est - cov[i, j]) <= 5 * se)
    pinned = bool(
        np.all(bm.paths[:, 0] == 0.0)
        and np.all(br.paths[:, 0] == 0.0)
        and np.all(br.paths[:, -1] == 0.0)
    )
    rerun = simulate_brownian(grid, 20000, 10, seed=1414)
    identical = bool(np.array_equal(bm.paths, rerun.paths))
    elapsed = time.perf_counter() - start
    ok = all(results) and pinned and identical and elapsed < 60.0
    report(
        "C14",
        "path ensembles match truncated covariance and rerun bit-for-bit",
        ok,
        f"{sum(results)}/40 pairs within 5 SE, pinned={pinned}, rerun identical={identical}, {elapsed:.1f}s",
    )
