from math import comb, floor, sqrt

import numpy as np
import pytest
from scipy.stats import norm

from glstat import (
    GLSpec,
    InsufficientDataError,
    WeightFunctionJ,
    builtin_kernel,
    custom_kernel,
    estimator_c,
    estimator_gini,
    estimator_lms,
    estimator_q,
    gini_gl_spec,
    gl_confidence_interval,
    gl_statistic,
    lms_constant,
    q_gl_spec,
    u_statistic,
)

# |x - y| as a separate kernel object: it takes the enumerating path, so
# it checks the closed forms of the built-in Gini kernel
ENUM_ABS_DIFF = custom_kernel("abs_diff", 2, lambda a: abs(a[0] - a[1]),
                              eval_rows=lambda r: np.abs(r[:, 0] - r[:, 1]))


def j_integral(J, lo, hi):
    """Integral of J over [lo, hi] from its prefix integrals."""
    pre = J.integral_prefix(np.array([lo, hi]))
    return float(pre[1] - pre[0])


def test_weight_constructors_and_integrals():
    assert j_integral(WeightFunctionJ.constant(1.0), 0.0, 1.0) == pytest.approx(1.0)
    assert j_integral(WeightFunctionJ.constant(3.0), 0.25, 0.75) == pytest.approx(1.5)
    lin = WeightFunctionJ.piecewise([(0.0, 1.0, (0.0, 2.0))])  # J(t) = 2t
    assert j_integral(lin, 0.0, 1.0) == pytest.approx(1.0)
    assert lin(0.5) == pytest.approx(1.0)
    assert j_integral(WeightFunctionJ(), 0.0, 1.0) == 0.0


def test_piecewise_weight():
    J = WeightFunctionJ.piecewise([(0.0, 0.5, (1.0,)), (0.5, 1.0, (0.0, 2.0))])
    assert J(0.25) == 1.0
    assert J(0.75) == pytest.approx(1.5)
    assert j_integral(J, 0.0, 1.0) == pytest.approx(0.5 + 0.75)


def test_gl_statistic_gini_example():
    assert gl_statistic([0.0, 1.0, 2.0], gini_gl_spec()) == pytest.approx(
        4.0 / 3.0, abs=1e-15)


def test_gl_gini_equals_u_statistic_random():
    rng = np.random.default_rng(17)
    spec = gini_gl_spec()
    for n in (2, 5, 40):
        x = rng.standard_normal(n)
        assert gl_statistic(x, spec) == pytest.approx(
            u_statistic(x, ENUM_ABS_DIFF), rel=1e-13)


def test_gl_pure_quantile_spec_example():
    assert gl_statistic([0.0, 1.0, 3.0], q_gl_spec(m=3, alpha=0.5)) == 1.0


def test_gl_q_spec_matches_estimator_q():
    rng = np.random.default_rng(19)
    for n in (4, 8, 15):
        x = rng.standard_normal(n)
        assert gl_statistic(x, q_gl_spec()) == estimator_q(x)
    # J written as the constant 0 is J == 0: Q is counted, not
    # enumerated (C(900, 3) exceeds the enumeration bound)
    x = np.random.default_rng(1).standard_normal(900)
    q = q_gl_spec(m=3)
    zero_j = GLSpec(kernel=q.kernel, weight=WeightFunctionJ.constant(0.0),
                    discrete=q.discrete,
                    quantile_convention=q.quantile_convention)
    assert gl_statistic(x, zero_j) == estimator_q(x)
    assert gl_confidence_interval(x, zero_j) == gl_confidence_interval(x, q)


def test_gl_c_spec_matches_estimator_c_when_index_is_one():
    # the GL form selects the minimum gap; it agrees with the direct
    # order-statistic form exactly when [n/2] - [alpha n] == 1
    rng = np.random.default_rng(23)
    for n, alpha in ((6, 1.0 / 3.0), (8, 0.375)):
        assert floor(n / 2) - floor(alpha * n) == 1
        x = rng.standard_normal(n)
        # range kernel of dimension [alpha n] + 2, J == 0, d = 1, a_1 = 1,
        # p_1 = 1 / C(n, m): the smallest kernel value
        m = floor(alpha * n) + 2
        spec = GLSpec(kernel=builtin_kernel("range", {"m": m}),
                      discrete=((1.0, 1.0 / comb(n, m)),),
                      quantile_convention="floor_bracket")
        assert gl_statistic(x, spec) == pytest.approx(
            estimator_c(x, alpha), abs=1e-14)


def test_estimator_catalog_examples():
    assert estimator_gini([0.0, 1.0, 2.0]) == pytest.approx(4.0 / 3.0)
    assert estimator_q([0.0, 1.0, 2.0, 4.0]) == 1.0
    assert estimator_c([0.0, 1.0, 3.0], 0.2) == 1.0
    assert estimator_lms([0.0, 1.0, 3.0]) == pytest.approx(0.7413)
    assert lms_constant() == pytest.approx(0.741301, abs=5e-7)


def test_gini_forms_agree():
    rng = np.random.default_rng(29)
    for n in (2, 3, 50, 500):
        x = rng.standard_normal(n)
        assert estimator_gini(x) == pytest.approx(
            u_statistic(x, ENUM_ABS_DIFF), rel=1e-13)


def test_scale_equivariance():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(60)
    for est in (lambda s: estimator_gini(s),
                lambda s: estimator_q(s),
                lambda s: estimator_c(s, 0.25),
                estimator_lms):
        base = est(x)
        assert est(3.0 * x + 7.0) == pytest.approx(3.0 * base, rel=1e-13)
        assert est(-2.0 * x) == pytest.approx(2.0 * base, rel=1e-13)


def test_gini_population_value_for_standard_normal():
    # E|X - Y| = 2/sqrt(pi) for X, Y iid N(0, 1); a large iid sample
    # should land close
    rng = np.random.default_rng(37)
    x = rng.standard_normal(200_000)
    assert estimator_gini(x) == pytest.approx(2.0 / sqrt(np.pi), abs=0.01)


def test_lms_constant_matches_normal_quartile():
    assert lms_constant() == pytest.approx(1.0 / (2.0 * norm.ppf(0.75)), abs=0)


def test_input_validation():
    with pytest.raises(InsufficientDataError):
        estimator_gini([1.0])
    with pytest.raises(InsufficientDataError):
        estimator_lms([1.0])
    with pytest.raises(ValueError):
        estimator_q([0.0, 1.0, 2.0], alpha=1.5)
    with pytest.raises(ValueError):
        estimator_c([0.0, 1.0, 2.0], alpha=0.7)
    with pytest.raises(ValueError):
        GLSpec(kernel=builtin_kernel("gini_abs_diff"),
               discrete=((1.0, 1.5),))
