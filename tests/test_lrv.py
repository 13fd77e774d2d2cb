import numpy as np
import pytest
from scipy.stats import norm

import glstat.ustat
from glstat import (
    BandwidthPolicy,
    DegenerateDensityError,
    GLSpec,
    LrvConfig,
    WeightFunctionJ,
    a1_hat_all,
    build_plugin,
    builtin_kernel,
    custom_kernel,
    default_bandwidth,
    density_at_uquantile,
    estimator_q,
    g1_hat_all,
    gini_gl_spec,
    gl_confidence_interval,
    gl_statistic,
    lrv_gl,
    lrv_ustat,
    q_gl_spec,
)
from glstat.lrv import normal_quantile

GINI = builtin_kernel("gini_abs_diff")


def test_default_bandwidth():
    assert default_bandwidth(1000) == 10
    assert default_bandwidth(8) == 2
    assert default_bandwidth(27) == 3
    assert default_bandwidth(26) == 2
    assert default_bandwidth(2) == 1


def test_bandwidth_policies():
    assert BandwidthPolicy.fixed(4.0).resolve(100) == 4.0
    assert BandwidthPolicy.auto().resolve(1000) == 10.0
    assert BandwidthPolicy.power_law(2.0, 0.25).resolve(16) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        BandwidthPolicy.power_law(1.0, 0.5)
    with pytest.raises(ValueError):
        BandwidthPolicy.fixed(0.0)
    # built directly (as from a config dict), the policy is checked on use
    for bad in (BandwidthPolicy(kind="fixed", b=-3.0),
                BandwidthPolicy(kind="fixed", b=float("nan")),
                BandwidthPolicy(kind="power_law", c=-1.0)):
        with pytest.raises(ValueError, match="bandwidth must be > 0"):
            bad.resolve(100)
    # and so are the power law's exponent and a finite b_n
    with pytest.raises(ValueError, match="0 < e < 1/2"):
        BandwidthPolicy(kind="power_law", c=1.0, e=0.9).resolve(1000)
    for bad in (BandwidthPolicy(kind="fixed", b=float("inf")),
                BandwidthPolicy.fixed(float("inf")),
                BandwidthPolicy(kind="power_law", c=float("inf"))):
        with pytest.raises(ValueError, match="bandwidth must be finite"):
            bad.resolve(1000)


def test_lrv_ustat_two_point_example():
    cfg = LrvConfig(bandwidth=BandwidthPolicy.fixed(1.0))
    assert lrv_ustat([0.0, 1.0], GINI, cfg) == pytest.approx(0.25, abs=1e-15)


def brute_lrv(sample, kernel, b):
    g = g1_hat_all(sample, kernel)
    n = g.size
    total = 0.0
    for r in range(-(n - 1), n):
        w = max(0.0, 1.0 - abs(r) / b)
        acc = sum(g[i] * g[i + abs(r)] for i in range(n - abs(r)))
        total += w * acc / n
    return total


def test_lrv_matches_brute_force():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(30)
    for b in (1.0, 3.0, 7.5):
        cfg = LrvConfig(bandwidth=BandwidthPolicy.fixed(b))
        assert lrv_ustat(x, GINI, cfg) == pytest.approx(
            brute_lrv(x, GINI, b), rel=1e-12)


def test_bartlett_lrv_nonnegative():
    # the Bartlett window is positive semidefinite, so the quadratic form
    # can never go negative
    rng = np.random.default_rng(43)
    for _ in range(500):
        n = int(rng.integers(5, 40))
        x = rng.standard_normal(n)
        assert lrv_ustat(x, GINI) >= -1e-14


def test_density_at_uquantile():
    rng = np.random.default_rng(53)
    x = rng.standard_normal(400)
    d = density_at_uquantile(x, GINI, 0.5)
    assert d > 0.0
    # constant sample: every kernel value is 0, H_n is flat
    with pytest.raises(DegenerateDensityError):
        density_at_uquantile(np.zeros(10), GINI, 0.5)


def test_influence_kernel_gini_identity():
    # with constant J and no discrete part, A(v) = v - mean(kernel values),
    # so Ahat_1 coincides with ghat_1 exactly
    rng = np.random.default_rng(59)
    x = rng.standard_normal(80)
    spec = gini_gl_spec()
    a1 = a1_hat_all(x, spec)
    g1 = g1_hat_all(x, GINI)
    np.testing.assert_allclose(a1, g1, atol=1e-12)


def test_a_kernel_hat_is_kernel_minus_mean_for_gini():
    rng = np.random.default_rng(61)
    x = rng.standard_normal(25)
    from glstat import kernel_values
    mean_kv = float(np.mean(kernel_values(x, GINI).sorted_values))
    plugin = build_plugin(x, gini_gl_spec())
    for pair in ([x[0], x[1]], [x[3], x[3]], [x[5], x[9]]):
        h = abs(pair[0] - pair[1])
        assert plugin.a_of_values(np.array([h]))[0] == pytest.approx(
            h - mean_kv, abs=1e-12)


def test_constant_j_with_discrete_term_matches_direct_sums():
    # J == c on [0, 1] plus one discrete term: A(h) = c (h - mean of the
    # kernel values) + a (p - 1[h <= xi_hat]) / hhat, projected by direct
    # sums over every pair, on the built-in Gini kernel and on an
    # enumerating copy
    enum_gini = custom_kernel("abs_diff", 2, lambda a: abs(a[0] - a[1]),
                              eval_rows=lambda r: np.abs(r[:, 0] - r[:, 1]))
    a, p = 0.7, 0.3
    rng = np.random.default_rng(83)
    samples = (rng.standard_normal(16), np.round(rng.standard_normal(20), 1))
    for x in samples:
        n = x.size
        h = np.abs(x[:, None] - x[None, :])  # h(x_i, x_j), j over all n
        w = np.sort(h[np.triu_indices(n, k=1)])
        N = w.size
        xi = w[int(np.ceil(p * N)) - 1]
        delta = 0.5 * (w[int(np.ceil(0.75 * N)) - 1]
                       - w[int(np.ceil(0.25 * N)) - 1]) * n ** (-0.2)
        F = np.searchsorted(w, [xi - delta, xi + delta], side="right") / N
        dens = (F[1] - F[0]) / (2.0 * delta)
        for c in (1.0, -2.5):
            def A(v):
                return c * (v - w.mean()) + a * (p - (v <= xi)) / dens
            total = A(w).sum()
            for norm_name, d1, d2 in (("combinatorial", n, N),
                                      ("paper_literal", n, n * n)):
                want = A(h).sum(axis=1) / d1 - total / d2
                for kernel in (GINI, enum_gini):
                    spec = GLSpec(kernel=kernel,
                                  weight=WeightFunctionJ.constant(c),
                                  discrete=((a, p),))
                    got = a1_hat_all(x, spec, normalization=norm_name)
                    np.testing.assert_allclose(
                        got, want, rtol=0,
                        atol=1e-12 * np.max(np.abs(want)))


def test_a1_hat_pointwise_matches_vectorized():
    rng = np.random.default_rng(67)
    x = rng.standard_normal(12)
    spec = q_gl_spec()
    fast = a1_hat_all(x, spec)
    slow = np.array([a1_hat_all(x, spec, at=[v])[0] for v in x])
    np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_plugin_centred_at_the_estimate_quantile():
    # alpha * C(31, 2) = 232.5 is not an integer, so the ceil and the
    # floor-bracket quantiles differ; xi_hat and the density must sit at
    # the floor-bracket estimate Q itself
    rng = np.random.default_rng(31)
    x = rng.standard_normal(31)
    spec = q_gl_spec(m=2)
    plugin = build_plugin(x, spec)
    kvs = plugin.kvs
    q = gl_statistic(x, spec)
    assert q == estimator_q(x, m=2)
    assert kvs.quantile(0.5) != q
    assert plugin.quantiles == (q,)
    delta = 0.5 * (kvs.quantile(0.75) - kvs.quantile(0.25)) * 31 ** (-0.2)
    dens = (kvs.cdf(q + delta) - kvs.cdf(q - delta)) / (2.0 * delta)
    assert plugin.densities == (pytest.approx(dens, rel=1e-15),)


def test_lrv_gl_scaling_for_gini():
    # A is linear in the kernel for Gini, so scaling the sample by a
    # scales sigma^2 by a^2
    rng = np.random.default_rng(71)
    x = rng.standard_normal(150)
    spec = gini_gl_spec()
    r1 = lrv_gl(x, spec)
    r3 = lrv_gl(3.0 * x, spec)
    assert r3.sigma2_gl == pytest.approx(9.0 * r1.sigma2_gl, rel=1e-10)
    assert r1.m2_sigma2_gl == pytest.approx(4.0 * r1.sigma2_gl, rel=0)
    assert not r1.clamped


def test_lrv_gl_matches_lrv_ustat_for_gini():
    rng = np.random.default_rng(73)
    x = rng.standard_normal(120)
    assert lrv_gl(x, gini_gl_spec()).sigma2_raw == pytest.approx(
        lrv_ustat(x, GINI), rel=1e-10)


def test_confidence_interval_basic_properties():
    rng = np.random.default_rng(79)
    x = rng.standard_normal(300)
    two_piece = GLSpec(kernel=GINI, weight=WeightFunctionJ.piecewise(
        [(0.0, 0.5, (1.0,)), (0.5, 1.0, (0.0, 2.0))]))
    for spec in (gini_gl_spec(), q_gl_spec(m=2), q_gl_spec(m=3), two_piece):
        lo, hi = gl_confidence_interval(x, spec, level=0.95)
        t = gl_statistic(x, spec)
        # the interval is centred at the plug-in's own T(H_n)
        assert build_plugin(x, spec).estimate == t
        assert lo < t < hi
        assert (hi - lo) == pytest.approx(
            2.0 * (t - lo), rel=1e-12)
        lo99, hi99 = gl_confidence_interval(x, spec, level=0.99)
        assert lo99 < lo and hi99 > hi
        with pytest.raises(ValueError):
            gl_confidence_interval(x, spec, level=1.0)


def test_normal_critical_value():
    assert norm.ppf(0.975) == pytest.approx(1.95996, abs=1e-4)
    for level in (0.9, 0.95, 0.99):
        p = 0.5 * (1.0 + level)
        assert float(normal_quantile(p)) == float(norm.ppf(p))


def test_influence_kernel_between_and_beyond_kernel_values():
    # h(x, y) = x + y on [0, 1, 2, 5]: the projection rows reach values
    # that are not kernel values of the sample, h(2, 2) = 4 between
    # them and h(5, 5) = 10 above the largest.  J == 1 split into two
    # pieces takes the tabulated route, whose A must equal the linear
    # route's A(v) = v - U_n there too.
    plus = custom_kernel("plus", 2, lambda a: a[0] + a[1],
                         eval_rows=lambda r: r[:, 0] + r[:, 1])
    split = GLSpec(kernel=plus, weight=WeightFunctionJ.piecewise(
        [(0.0, 0.5, (1.0,)), (0.5, 1.0, (1.0,))]))
    linear = GLSpec(kernel=plus, weight=WeightFunctionJ.constant(1.0))
    x = np.array([0.0, 1.0, 2.0, 5.0])
    np.testing.assert_allclose(a1_hat_all(x, split), [-2.0, -1.0, 0.0, 3.0],
                               atol=1e-15)
    np.testing.assert_allclose(a1_hat_all(x, linear), [-2.0, -1.0, 0.0, 3.0],
                               atol=1e-15)


def test_linear_interval_enumerates_u_n_once(monkeypatch):
    # an enumerating range kernel, J == 1: C(200, 2) = 19900 rows for U_n
    # and 200 x 200 projection rows, and no second U_n for the point
    # estimate; the built-in RANGE[2] has a closed form and enumerates none
    rows = []
    original = glstat.ustat.eval_kernel_rows

    def counting(kernel, r):
        rows.append(len(r))
        return original(kernel, r)

    monkeypatch.setattr(glstat.ustat, "eval_kernel_rows", counting)
    enum_range = custom_kernel("range", 2, lambda a: float(np.ptp(a)),
                               eval_rows=lambda r: np.ptp(r, axis=1))
    x = np.random.default_rng(5).standard_normal(200)
    for kernel, want in ((enum_range, 59900),
                         (builtin_kernel("range", {"m": 2}), 0)):
        rows.clear()
        spec = GLSpec(kernel=kernel, weight=WeightFunctionJ.constant(1.0))
        lo, hi = gl_confidence_interval(x, spec)
        assert sum(rows) == want
        assert 0.5 * (lo + hi) == pytest.approx(gl_statistic(x, spec),
                                                rel=1e-15)
