"""End-to-end acceptance checks.

Every test prints one [PASS]/[FAIL] line with its headline numbers and
elapsed time.  Oracles here are written independently of the library:
plain itertools enumeration for subset sums and a midpoint segment sum
for the influence-kernel integral.
"""

import itertools
import time
from math import comb, floor, sqrt

import numpy as np
import pytest

from glstat import (
    BandwidthPolicy,
    EstimatorConfig,
    ExperimentConfig,
    LrvConfig,
    ProcessConfig,
    a1_hat_all,
    builtin_kernel,
    egarch_scenario,
    estimator_c,
    estimator_gini,
    estimator_lms,
    estimator_q,
    eval_kernel,
    g1_hat_all,
    gini_gl_spec,
    gl_statistic,
    hoeffding_decompose_population,
    lrv_ustat,
    make_rng,
    q_gl_spec,
    run_experiment,
    simulate_path,
    write_report,
)

GINI = builtin_kernel("gini_abs_diff")
MINP3 = builtin_kernel("min_pairwise", {"m": 3})


def verdict(name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{name}: {detail}"


# --- independent oracles ----------------------------------------------------

def oracle_u(sample, kernel):
    vals = [eval_kernel(kernel, list(c))
            for c in itertools.combinations(np.asarray(sample, float),
                                            kernel.m)]
    return sum(vals) / len(vals)


def oracle_g1(sample, kernel, x):
    xs = np.asarray(sample, float)
    n, m = xs.size, kernel.m
    s1 = sum(eval_kernel(kernel, [x] + list(c))
             for c in itertools.combinations(xs, m - 1))
    s2 = sum(eval_kernel(kernel, list(c))
             for c in itertools.combinations(xs, m))
    return s1 / comb(n, m - 1) - s2 / comb(n, m)


def oracle_kernel_values(sample, kernel):
    return np.sort([eval_kernel(kernel, list(c))
                    for c in itertools.combinations(np.asarray(sample, float),
                                                    kernel.m)])


def oracle_quantile(w, p):
    return w[int(np.ceil(p * w.size)) - 1]


def oracle_influence(v, w, J, discrete, n):
    """A(v) by midpoint segment summation of the step-function integrand."""

    def hn(y):
        return np.sum(w <= y) / w.size

    out = 0.0
    pts = np.unique(np.concatenate([w, [v]]))
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        out -= ((v <= mid) - hn(mid)) * J(hn(mid)) * (hi - lo)
    for a, p in discrete:
        xi = oracle_quantile(w, p)
        iqr = oracle_quantile(w, 0.75) - oracle_quantile(w, 0.25)
        delta = 0.5 * iqr * n ** (-0.2)
        dens = (hn(xi + delta) - hn(xi - delta)) / (2.0 * delta)
        out += a * (p - (v <= xi)) / dens
    return out


def oracle_a1(sample, kernel, J, discrete, x):
    xs = np.asarray(sample, float)
    n, m = xs.size, kernel.m
    w = oracle_kernel_values(xs, kernel)

    def A(args):
        return oracle_influence(eval_kernel(kernel, args), w, J, discrete, n)

    s1 = sum(A([x] + list(c)) for c in itertools.combinations(xs, m - 1))
    s2 = sum(A(list(c)) for c in itertools.combinations(xs, m))
    return s1 / comb(n, m - 1) - s2 / comb(n, m)


# --- point-estimator and projection oracles ---------------------------------

def test_gini_gl_form_matches_pairwise_oracle():
    t0 = time.perf_counter()
    rng = make_rng(1001)
    worst = 0.0
    spec = gini_gl_spec()
    for _ in range(100):
        n = int(rng.integers(2, 40))
        x = rng.standard_normal(n) * float(rng.uniform(0.5, 3.0))
        worst = max(worst, abs(gl_statistic(x, spec) - oracle_u(x, GINI)))
    elapsed = time.perf_counter() - t0
    verdict("gini GL form vs pairwise oracle, 100 samples",
            worst <= 1e-12 and elapsed < 5.0,
            f"max |diff| = {worst:.2e}", elapsed)


def test_hoeffding_projections_match_enumeration_oracle():
    t0 = time.perf_counter()
    rng = make_rng(1002)
    worst_g1 = worst_a1 = 0.0
    cases = [
        (GINI, lambda t: 1.0, (), gini_gl_spec()),
        (MINP3, lambda t: 0.0, ((1.0, 0.5),), q_gl_spec()),
    ]
    for kernel, J, discrete, spec in cases:
        for n in (kernel.m + 1, 9, 12):
            x = rng.standard_normal(n)
            g1 = g1_hat_all(x, kernel)
            a1 = a1_hat_all(x, spec)
            for i in (0, n // 2, n - 1):
                worst_g1 = max(worst_g1, abs(
                    g1[i] - oracle_g1(x, kernel, x[i])))
                worst_a1 = max(worst_a1, abs(
                    a1[i] - oracle_a1(x, kernel, J, discrete, x[i])))
    elapsed = time.perf_counter() - t0
    verdict("empirical projections vs enumeration oracle, n <= 12",
            worst_g1 <= 1e-12 and worst_a1 <= 1e-12 and elapsed < 10.0,
            f"max |g1 diff| = {worst_g1:.2e}, max |A1 diff| = {worst_a1:.2e}",
            elapsed)


def test_population_decomposition_is_degenerate():
    t0 = time.perf_counter()
    rng = make_rng(1003)
    worst = 0.0
    for kernel in (GINI, MINP3):
        for n_atoms in (2, 3, 5):
            pts = np.sort(rng.standard_normal(n_atoms))
            probs = rng.dirichlet(np.ones(n_atoms))
            support = list(zip(pts.tolist(), probs.tolist()))
            dec = hoeffding_decompose_population(support, kernel)
            for j in range(1, kernel.m + 1):
                for fixed in itertools.combinations_with_replacement(
                        pts.tolist(), j - 1):
                    s = sum(q * dec.g(j, fixed + (y,))
                            for y, q in support)
                    worst = max(worst, abs(s))
    elapsed = time.perf_counter() - t0
    verdict("population decomposition degeneracy, <= 5 atoms, m in {2, 3}",
            worst <= 1e-12, f"max |conditional mean| = {worst:.2e}", elapsed)


def test_scale_equivariance_200_triples():
    t0 = time.perf_counter()
    rng = make_rng(1008)
    ests = [lambda s: estimator_gini(s),
            lambda s: estimator_q(s),
            lambda s: estimator_c(s, 0.25),
            estimator_lms]
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 40))
        x = rng.standard_normal(n)
        a = float(rng.uniform(-5.0, 5.0)) or 1.0
        b = float(rng.uniform(-10.0, 10.0))
        for est in ests:
            base = est(x)
            worst = max(worst, abs(est(a * x + b) - abs(a) * base))
    elapsed = time.perf_counter() - t0
    verdict("affine equivariance S(aX + b) = |a| S(X), 200 triples",
            worst <= 1e-12, f"max |diff| = {worst:.2e}", elapsed)


# --- sampling-distribution checks -------------------------------------------

def test_gini_sampling_distribution_iid_gaussian():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        process=ProcessConfig(kind="iid_gaussian"),
        estimators=(EstimatorConfig(name="gini"),),
        sample_sizes=(1000,),
        replications=2000,
        seed=20260826,
    )
    s = run_experiment(config).cells[("gini", 1000)].summary
    elapsed = time.perf_counter() - t0
    target = 2.0 / sqrt(np.pi)
    ok = (abs(s.mean - target) <= 0.01 and s.qq_correlation >= 0.995
          and abs(s.skewness) <= 0.15 and elapsed < 120.0)
    verdict("iid Gaussian Gini, n = 1000, R = 2000",
            ok,
            f"mean = {s.mean:.4f} (target {target:.4f}), "
            f"qq corr = {s.qq_correlation:.4f}, skew = {s.skewness:.3f}",
            elapsed)


def test_lrv_identity_kernel_iid_and_ar1():
    t0 = time.perf_counter()
    ident = builtin_kernel("identity")
    n, reps = 2000, 100
    iid_vals, ar_vals = [], []
    ar = ProcessConfig(kind="ar1", rho=0.5)
    for rep in range(reps):
        rng = make_rng(20260827, rep)
        iid_vals.append(lrv_ustat(rng.standard_normal(n), ident))
        ar_vals.append(lrv_ustat(simulate_path(ar, n, rng), ident))
    med_iid = float(np.median(iid_vals))
    med_ar = float(np.median(ar_vals))
    elapsed = time.perf_counter() - t0
    ok = (0.85 <= med_iid <= 1.15 and abs(med_ar - 3.0) <= 0.6
          and elapsed < 60.0)
    verdict("identity-kernel long-run variance, n = 2000, 100 reps",
            ok,
            f"iid median = {med_iid:.3f} (target 1), "
            f"AR(1) median = {med_ar:.3f} (target 3)",
            elapsed)


def test_gini_ci_coverage_iid_gaussian():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        process=ProcessConfig(kind="iid_gaussian"),
        estimators=(EstimatorConfig(name="gini"),),
        sample_sizes=(1000,),
        replications=500,
        seed=20260828,
        lrv=LrvConfig(),
        ci_level=0.95,
    )
    cell = run_experiment(config).cells[("gini", 1000)]
    elapsed = time.perf_counter() - t0
    cov = cell.coverage
    verdict("95% CI coverage for Gini, iid Gaussian, n = 1000, R = 500",
            cov is not None and 0.90 <= cov <= 0.99 and elapsed < 180.0,
            f"coverage = {cov:.3f}", elapsed)


# --- EGARCH normality study --------------------------------------------------

EGARCH_SEED = 20260829


def scenario1_config():
    return ExperimentConfig(
        process=egarch_scenario(1),
        estimators=(EstimatorConfig(name="gini"),
                    EstimatorConfig(name="lms"),
                    EstimatorConfig(name="q", m=3, alpha=0.5,
                                    subsample=2_000_000)),
        sample_sizes=(100, 1000),
        replications=500,
        seed=EGARCH_SEED,
    )


@pytest.fixture(scope="session")
def scenario1_run(tmp_path_factory):
    t0 = time.perf_counter()
    config = scenario1_config()
    report = run_experiment(config)
    out = tmp_path_factory.mktemp("egarch_s1")
    manifest = write_report(report, out)
    return report, manifest, time.perf_counter() - t0


@pytest.mark.slow
def test_egarch_normality_improves_with_n(scenario1_run):
    report, _, t_s1 = scenario1_run
    t0 = time.perf_counter()
    corr = {}
    for label in ("gini", "lms", "q_sub"):
        for n in (100, 1000):
            cell = report.cells[(label, n)]
            assert cell.error is None, cell.error
            corr[(label, n)] = cell.summary.qq_correlation
    ok = all(corr[(lab, 1000)] >= 0.99 and corr[(lab, 1000)] > corr[(lab, 100)]
             for lab in ("gini", "lms", "q_sub"))

    # gini is already close to normal at n = 2000 here, so the qq
    # correlation needs many replications before the n = 5000
    # improvement rises above the noise floor; gini cells are cheap
    config2 = ExperimentConfig(
        process=egarch_scenario(2),
        estimators=(EstimatorConfig(name="gini"),),
        sample_sizes=(2000, 5000),
        replications=10000,
        seed=EGARCH_SEED + 1,
    )
    cells2 = run_experiment(config2).cells
    c2000 = cells2[("gini", 2000)].summary.qq_correlation
    c5000 = cells2[("gini", 5000)].summary.qq_correlation
    ok = ok and c5000 > c2000
    elapsed = t_s1 + (time.perf_counter() - t0)
    detail = ", ".join(f"{lab}: {corr[(lab, 100)]:.4f} -> "
                       f"{corr[(lab, 1000)]:.4f}"
                       for lab in ("gini", "lms", "q_sub"))
    verdict("EGARCH normality study",
            ok and elapsed < 1200.0,
            f"scenario 1 qq corr {detail}; "
            f"scenario 2 gini {c2000:.4f} -> {c5000:.4f}",
            elapsed)


@pytest.mark.slow
def test_egarch_experiment_is_reproducible(scenario1_run, tmp_path):
    _, manifest_first, t_s1 = scenario1_run
    t0 = time.perf_counter()
    manifest_second = write_report(run_experiment(scenario1_config()),
                                   tmp_path / "rerun")
    elapsed = t_s1 + (time.perf_counter() - t0)
    verdict("byte-identical rerun of the EGARCH experiment",
            manifest_second == manifest_first,
            f"{len(manifest_first)} files, all sha256 equal" if
            manifest_second == manifest_first else "manifests differ",
            elapsed)
