"""The O(n log n) Gini route against enumeration, as a property test.

The built-in Gini kernel is recognized by identity, so the oracle is a
separate |x - y| kernel object inside a spec whose J == c is split into
two pieces: that spec is not linear, so it takes the whole enumerating
route (H_n, the weight grid and the projection rows).  c = 1 is
``gini_gl_spec()``; c = 2.5 checks that the constant is applied.

The order-statistic identity rounds to within a few ulps of the sample's
magnitude rather than of U_n (a constant sample gives about 1e-16
max|x|, not 0), so every absolute tolerance below has a floor of 1e-12
max|x| (its square for sigma^2).
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glstat import (
    GLSpec,
    LrvConfig,
    WeightFunctionJ,
    a1_hat_all,
    MinPairwiseCounts,
    custom_kernel,
    g1_hat_all,
    gini_gl_spec,
    gl_confidence_interval,
    gl_statistic,
    lrv_gl,
    u_distribution,
    u_statistic,
)
from glstat.kernels import GINI_ABS_DIFF

ENUM_ABS_DIFF = custom_kernel("abs_diff", 2, lambda a: abs(a[0] - a[1]),
                              eval_rows=lambda r: np.abs(r[:, 0] - r[:, 1]))


def close(fast, slow, floor):
    slow = np.asarray(slow, dtype=float)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=floor)


def close_centred(fast, slow, floor):
    slow = np.asarray(slow, dtype=float)
    atol = max(1e-12 * float(np.max(np.abs(slow))), floor)
    np.testing.assert_allclose(fast, slow, rtol=0.0, atol=atol)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(raw=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=24),
       shape=st.sampled_from(["raw", "tied", "constant"]),
       c=st.sampled_from([1.0, 2.5]), seed=st.integers(0, 2 ** 32 - 1))
@example(raw=[0.0, 1.0], shape="raw", c=1.0, seed=0)
@example(raw=[-2.5, 3.25, 3.25], shape="tied", c=2.5, seed=1)
@example(raw=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], shape="constant",
         c=1.0, seed=2)
def test_gini_closed_forms_match_enumeration(raw, shape, c, seed):
    fast_spec = GLSpec(kernel=GINI_ABS_DIFF,
                       weight=WeightFunctionJ.constant(c))
    enum_spec = GLSpec(kernel=ENUM_ABS_DIFF,
                       weight=WeightFunctionJ(
                           pieces=((0.0, 0.5, (c,)), (0.5, 1.0, (c,)))))
    assert (fast_spec == gini_gl_spec()) == (c == 1.0)
    x = np.array(raw)
    if shape == "tied":
        x = np.round(x / 10.0)
    elif shape == "constant":
        x = np.full(x.size, x[-1])
    floor = 1e-12 * c * float(np.max(np.abs(x)))

    u = u_statistic(x, GINI_ABS_DIFF)
    close(u, u_statistic(x, ENUM_ABS_DIFF), floor)
    close(gl_statistic(x, fast_spec), gl_statistic(x, enum_spec), floor)
    cfg = LrvConfig()
    close_centred(g1_hat_all(x, GINI_ABS_DIFF), g1_hat_all(x, ENUM_ABS_DIFF),
                  floor)
    close_centred(a1_hat_all(x, fast_spec), a1_hat_all(x, enum_spec), floor)
    close(lrv_gl(x, fast_spec, cfg).sigma2_raw,
          lrv_gl(x, enum_spec, cfg).sigma2_raw, floor ** 2)
    close(gl_confidence_interval(x, fast_spec, cfg),
          gl_confidence_interval(x, enum_spec, cfg), floor)

    # permutation: U_n stays, the projections follow their points
    perm = np.random.default_rng(seed).permutation(x.size)
    close(u_statistic(x[perm], GINI_ABS_DIFF), u, floor)
    close_centred(g1_hat_all(x[perm], GINI_ABS_DIFF),
                  g1_hat_all(x, GINI_ABS_DIFF)[perm], floor)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(raw=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=24),
       tied=st.booleans(), p=st.floats(0.01, 0.99),
       conv=st.sampled_from(["ceil", "floor_bracket"]))
@example(raw=[0.0, -0.0, 1.5, 1.5, -0.0], tied=False, p=0.3, conv="ceil")
@example(raw=[3.0, 3.0], tied=False, p=0.5, conv="floor_bracket")
def test_gini_kernel_h_n_is_counted(raw, tied, p, conv):
    # |a - b| and the min-pairwise gap b - a (a < b) are the same double,
    # so H_n of the Gini kernel is counted, and every H_n(t), U-quantile
    # and quantile-type GL-statistic is the enumerated one
    x = np.array(raw)
    if tied:
        x = np.round(x / 10.0)
    fast = GLSpec(kernel=GINI_ABS_DIFF, discrete=((1.5, p), (-0.5, 0.9)),
                  quantile_convention=conv)
    slow = GLSpec(kernel=ENUM_ABS_DIFF, discrete=fast.discrete,
                  quantile_convention=conv)
    values = np.abs(x[:, None] - x[None, :]).ravel()
    ts = np.concatenate((values, values + 0.25, [-1.0]))
    want_cdf = [u_distribution(x, ENUM_ABS_DIFF).cdf(t) for t in ts]
    want_q = u_distribution(x, ENUM_ABS_DIFF).quantile(p, conv)
    want_gl = gl_statistic(x, slow)
    with mock.patch("glstat.ustat.eval_kernel_rows",
                    side_effect=AssertionError("kernel enumerated")):
        assert isinstance(u_distribution(x, GINI_ABS_DIFF), MinPairwiseCounts)
        assert ([u_distribution(x, GINI_ABS_DIFF).cdf(t) for t in ts]
                == want_cdf)
        assert u_distribution(x, GINI_ABS_DIFF).quantile(p, conv) == want_q
        assert gl_statistic(x, fast) == want_gl
