import itertools
from functools import partial
from math import comb

import numpy as np
import pytest

from glstat import (
    CapacityError,
    GLSpec,
    InsufficientDataError,
    WeightFunctionJ,
    a1_hat_all,
    build_plugin,
    builtin_kernel,
    custom_kernel,
    empirical_cdf,
    empirical_u_cdf,
    eval_kernel,
    g1_hat_all,
    gini_gl_spec,
    hoeffding_decompose_population,
    kernel_values,
    q_gl_spec,
    u_quantile,
    u_statistic,
)
from glstat import ustat

GINI = builtin_kernel("gini_abs_diff")
IDENTITY = builtin_kernel("identity")
MINP3 = builtin_kernel("min_pairwise", {"m": 3})


def brute_u(sample, kernel):
    x = np.asarray(sample, dtype=float)
    vals = [eval_kernel(kernel, list(c))
            for c in itertools.combinations(x, kernel.m)]
    return float(np.mean(vals))


def test_u_statistic_examples():
    assert u_statistic([0.0, 1.0, 2.0], GINI) == pytest.approx(4.0 / 3.0, abs=1e-15)
    kvs = kernel_values([0.0, 1.0, 2.0], GINI)
    np.testing.assert_array_equal(kvs.sorted_values, [1.0, 1.0, 2.0])
    assert kvs.n == 3 and kvs.m == 2


def test_u_statistic_matches_brute_force():
    rng = np.random.default_rng(5)
    for kernel in (GINI, MINP3, builtin_kernel("range", {"m": 3})):
        for n in (kernel.m, 6, 9):
            x = rng.standard_normal(n)
            assert u_statistic(x, kernel) == pytest.approx(
                brute_u(x, kernel), rel=1e-13)


def test_gini_fast_path_matches_pairwise_enumeration():
    rng = np.random.default_rng(6)
    for n in (2, 3, 17, 200):
        x = rng.standard_normal(n)
        assert u_statistic(x, GINI) == pytest.approx(brute_u(x, GINI), rel=1e-12)


def test_u_statistic_ignores_kernel_name():
    # a custom kernel that reuses the Gini name is still averaged as itself
    rng = np.random.default_rng(7)
    x = rng.standard_normal(30)
    sq = custom_kernel("gini_abs_diff", 2, lambda a: (a[0] - a[1]) ** 2)
    assert u_statistic(x, sq) == pytest.approx(brute_u(x, sq), rel=1e-13)
    assert u_statistic(x, sq) == pytest.approx(2.0 * np.var(x, ddof=1),
                                               rel=1e-13)


def test_identity_kernel_is_sample_mean():
    x = np.array([3.0, -1.0, 4.0, 1.5])
    assert u_statistic(x, builtin_kernel("identity")) == pytest.approx(x.mean())


def test_u_cdf_is_step_distribution():
    x = np.array([0.0, 1.0, 2.0])
    # kernel values {1, 1, 2}
    assert empirical_u_cdf(x, GINI, 0.5) == 0.0
    assert empirical_u_cdf(x, GINI, 1.0) == pytest.approx(2.0 / 3.0)
    assert empirical_u_cdf(x, GINI, 1.5) == pytest.approx(2.0 / 3.0)
    assert empirical_u_cdf(x, GINI, 2.0) == 1.0
    assert empirical_u_cdf(x, GINI, 99.0) == 1.0


def test_u_quantile_conventions():
    x = [0.0, 1.0, 2.0]
    assert u_quantile(x, GINI, 0.5) == 1.0
    assert u_quantile(x, GINI, 0.5, convention="floor_bracket") == 1.0
    assert u_quantile(x, GINI, 1.0) == 2.0
    # floor_bracket clamps the index at one from below
    assert u_quantile(x, GINI, 0.1, convention="floor_bracket") == 1.0
    with pytest.raises(ValueError):
        u_quantile(x, GINI, 0.0)
    with pytest.raises(ValueError):
        u_quantile(x, GINI, 1.5)


def test_quantile_cdf_consistency():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(12)
    for p in (0.1, 0.25, 0.5, 0.9, 1.0):
        q = u_quantile(x, GINI, p)
        assert empirical_u_cdf(x, GINI, q) >= p - 1e-12


def test_empirical_cdf():
    x = [0.0, 1.0, 2.0, 2.0]
    assert empirical_cdf(x, -1.0) == 0.0
    assert empirical_cdf(x, 0.0) == 0.25
    assert empirical_cdf(x, 2.0) == 1.0
    assert empirical_cdf(x, 1.5) == 0.5


def test_g1_hat_examples():
    assert ustat.project([0.0, 1.0], GINI, at=[0.0])[0] == pytest.approx(
        -0.5, abs=1e-15)
    assert ustat.project([0.0, 1.0, 2.0], GINI, at=[2.0])[0] == pytest.approx(
        -1.0 / 3.0, abs=1e-15)


def brute_g1(sample, m, f, x, normalization):
    # projection of f (a function of an m-list); same subset sums either
    # way, only the divisors differ
    xs = np.asarray(sample, dtype=float)
    n = xs.size
    inner = sum(f([x] + list(c)) for c in itertools.combinations(xs, m - 1))
    total = sum(f(list(c)) for c in itertools.combinations(xs, m))
    if normalization == "paper_literal":
        return inner / n ** (m - 1) - total / n ** m
    return inner / comb(n, m - 1) - total / comb(n, m)


def test_g1_hat_matches_brute_force_small(monkeypatch):
    # a 20-row budget splits the points into chunks, the last one short
    monkeypatch.setattr(ustat, "_PROJECT_ROWS", 20)
    rng = np.random.default_rng(13)
    ties = np.array([0.5, -1.0, 0.5, 2.0, -1.0, 0.5, 3.0])
    norms = ("combinatorial", "paper_literal")
    # per dimension m: random, tied, and n = m (a single kernel value)
    inputs = {m: (rng.standard_normal(7), ties, rng.standard_normal(m))
              for m in (1, 2, 3)}
    for kernel in (IDENTITY, GINI, MINP3):
        h = partial(eval_kernel, kernel)
        for x in inputs[kernel.m]:
            for norm in norms:
                fast = g1_hat_all(x, kernel, normalization=norm)
                slow = [brute_g1(x, kernel.m, h, v, norm) for v in x]
                np.testing.assert_allclose(fast, slow, atol=1e-13)
    # the influence kernel of the m = 2 specs and of a linear m = 3 spec
    # (J == 2, whose two normalizations differ) on the same inputs; with a
    # single kernel value Q has no density, so n = m is Gini's only
    linear3 = GLSpec(kernel=MINP3, weight=WeightFunctionJ.constant(2.0))
    for spec in (gini_gl_spec(), q_gl_spec(m=2), linear3):
        for x in inputs[spec.kernel.m]:
            if spec.discrete and x.size == 2:
                continue
            plugin = build_plugin(x, spec)

            def A(args):
                v = eval_kernel(spec.kernel, args)
                return plugin.a_of_values(np.array([v]))[0]

            for norm in norms:
                fast = a1_hat_all(x, spec, plugin=plugin, normalization=norm)
                slow = [brute_g1(x, spec.kernel.m, A, v, norm) for v in x]
                np.testing.assert_allclose(fast, slow, atol=1e-13)


def test_g1_hat_all_consistent_with_pointwise():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(10)
    fast = g1_hat_all(x, MINP3)
    slow = np.array([ustat.project(x, MINP3, at=[v])[0] for v in x])
    np.testing.assert_allclose(fast, slow, atol=1e-13)


def test_g1_hat_identity_kernel_is_centering():
    # for m = 1 the projection is just x - mean(x)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(11)
    vals = g1_hat_all(x, builtin_kernel("identity"))
    np.testing.assert_allclose(vals, x - x.mean(), atol=1e-14)


def test_population_hoeffding_reconstruction():
    # h(x1..xm) = theta + sum_j sum_combos g_j on every argument tuple
    support = [(-1.0, 0.2), (0.0, 0.3), (0.5, 0.1), (2.0, 0.4)]
    for kernel in (GINI, MINP3):
        dec = hoeffding_decompose_population(support, kernel)
        pts = [s for s, _ in support]
        for args in itertools.combinations_with_replacement(pts, kernel.m):
            total = dec.theta
            for j in range(1, kernel.m + 1):
                for sub in itertools.combinations(args, j):
                    total += dec.g(j, sub)
            assert total == pytest.approx(eval_kernel(kernel, list(args)),
                                          abs=1e-12)


def test_population_hoeffding_degeneracy():
    # each g_j integrates to zero in any single coordinate
    support = [(0.0, 0.5), (1.0, 0.25), (3.0, 0.25)]
    probs = dict(support)
    dec = hoeffding_decompose_population(support, GINI)
    pts = list(probs)
    for j in (1, 2):
        for fixed in itertools.combinations_with_replacement(pts, j - 1):
            s = sum(probs[y] * dec.g(j, fixed + (y,)) for y in pts)
            assert abs(s) < 1e-13


def test_capacity_error():
    # C(845, 3) exceeds the enumeration bound of 10^8
    x = np.zeros(845)
    with pytest.raises(CapacityError):
        kernel_values(x, MINP3)
    # a projection by enumeration checks the bound before it enumerates
    # the C(n, m-1) tails: C(225, 4) exceeds it, C(225, 3) does not
    x = np.arange(225.0)
    with pytest.raises(CapacityError):
        g1_hat_all(x, builtin_kernel("min_pairwise", {"m": 4}))
    prod = custom_kernel("product", 3, lambda a: a[0] * a[1] * a[2])
    with pytest.raises(CapacityError):
        ustat.project(np.arange(845.0), prod, at=[0.0])


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        u_statistic([1.0], GINI)
    with pytest.raises(InsufficientDataError):
        u_statistic([1.0, 2.0], MINP3)
