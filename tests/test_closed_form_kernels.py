"""The closed forms of the catalog kernels against enumeration, as a
property test.

Catalog kernels are recognized by identity, so each oracle is a separate
kernel object with the same formula, which takes the enumerating route:
all C(n, m - 1) tails per point and all C(n, m) subsets.  The closed
forms only change the summation order, so tail sums and U_n agree to
1e-12 relative; the centred projections to 1e-12 of their largest
value.  min_pairwise m = 2 takes the Gini prefix sums, which round to a
few ulps of the sample's magnitude rather than of the result, so its
tolerances have the floor 1e-12 max|x| of ``test_gini_fast_path.py``
(its square for sigma^2).  While the built-in kernels run, kernel
evaluation is made to fail: none of them may enumerate.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glstat.ustat
from glstat import (
    CapacityError,
    LrvConfig,
    builtin_kernel,
    custom_kernel,
    g1_hat_all,
    lrv_ustat,
    u_statistic,
)
from glstat.ustat import tail_sums

NORMS = ("combinatorial", "paper_literal")


def enumerating_min_pairwise(m):
    return custom_kernel(
        "min_pairwise", m, lambda a: float(np.min(np.diff(np.sort(a)))),
        eval_rows=lambda r: np.min(np.diff(np.sort(r, axis=1), axis=1),
                                   axis=1))


def enumerating_range(m):
    return custom_kernel("range", m, lambda a: float(np.ptp(a)),
                         eval_rows=lambda r: np.ptp(r, axis=1))


# (built-in kernel, enumerating copy, takes the Gini prefix sums)
CASES = (
    [(builtin_kernel("min_pairwise", {"m": m}), enumerating_min_pairwise(m),
      m == 2) for m in (2, 3)]
    + [(builtin_kernel("range", {"m": m}), enumerating_range(m), False)
       for m in (2, 3, 4)])


@contextmanager
def no_enumeration():
    with mock.patch.object(glstat.ustat, "eval_kernel_rows",
                           side_effect=AssertionError("kernel enumerated")):
        yield


def close(fast, slow, floor):
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=floor)


def close_centred(fast, slow, floor):
    atol = max(1e-12 * float(np.max(np.abs(slow))), floor)
    np.testing.assert_allclose(fast, slow, rtol=0.0, atol=atol)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(raw=st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=14),
       case=st.integers(0, len(CASES) - 1),
       shape=st.sampled_from(["raw", "tied", "constant", "n_eq_m"]),
       at=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(raw=[0.0, 1.0, 2.0, 4.0], case=1, shape="raw", at=[3.0], seed=0)
@example(raw=[-2.5, 3.25, 3.25, 7.0, 40.0, 41.0], case=1, shape="tied",
         at=[3.25, 40.5], seed=1)
@example(raw=[0.1, 0.2, 0.3, 0.4, 0.5], case=4, shape="constant",
         at=[0.5, -1.0], seed=2)
@example(raw=[0.1, 0.2, 0.3, 0.4, 0.5], case=0, shape="n_eq_m",
         at=[0.15], seed=3)
@example(raw=[0.0, 0.0, 1.0, 5.40848071913308e-307], case=1, shape="raw",
         at=[0.0], seed=0)
# samples within a few ulps of the point, where 1 + (1 - a) rounds: to 1,
# and to 1 + 2 ulp with a gap of 2 ulp below 1 - a
@example(raw=[1.0, 1.0, 1.0000000000000002, 1.0], case=1, shape="raw",
         at=[0.9999999999999999], seed=0)
@example(raw=[1.0, 1.0000000000000004, 1.0, 1.0000000000000009], case=1,
         shape="raw", at=[0.9999999999999994], seed=0)
def test_closed_forms_match_enumeration(raw, case, shape, at, seed):
    fast, enum, gini_route = CASES[case]
    m = fast.m
    x = np.array(raw)
    if shape == "tied":
        x = np.round(x / 10.0)
    elif shape == "constant":
        x = np.full(x.size, x[-1])
    elif shape == "n_eq_m":
        x = x[:m]
    # arbitrary points, and sample points (ties with the sample)
    pts = np.concatenate((at, x[:2]))
    floor = 1e-12 * float(np.max(np.abs(x))) if gini_route else 0.0

    slow_s = tail_sums(x, enum, None, x)
    slow_at = tail_sums(x, enum, None, pts)
    slow_u = u_statistic(x, enum)
    with no_enumeration():
        s = tail_sums(x, fast, None, x)
        close(s, slow_s, floor * x.size)
        close(tail_sums(x, fast, None, pts), slow_at, floor * x.size)
        u = u_statistic(x, fast, cap=0)
        close(u, slow_u, floor)
    for norm in NORMS:
        cfg = LrvConfig(normalization=norm)
        slow_g1 = g1_hat_all(x, enum, normalization=norm)
        slow_lrv = lrv_ustat(x, enum, cfg)
        with no_enumeration():
            close_centred(g1_hat_all(x, fast, normalization=norm, cap=0),
                          slow_g1, floor)
            close(lrv_ustat(x, fast, cfg, cap=0), slow_lrv, floor ** 2)

    # permutation: U_n stays, the tail sums and projections follow their
    # points
    perm = np.random.default_rng(seed).permutation(x.size)
    with no_enumeration():
        close(u_statistic(x[perm], fast), u, floor)
        close(tail_sums(x[perm], fast, None, x[perm]), s[perm],
              floor * x.size)
        for norm in NORMS:
            close_centred(g1_hat_all(x[perm], fast, normalization=norm),
                          g1_hat_all(x, fast, normalization=norm)[perm],
                          floor)


def test_range_is_one_shared_kernel_per_m():
    for m in (2, 3, 7):
        kernel = builtin_kernel("range", {"m": m})
        assert builtin_kernel("range", {"m": m}) is kernel
        assert kernel.m == m
    assert (builtin_kernel("range", {"m": 2})
            is not builtin_kernel("gini_abs_diff"))


def test_range_closed_form_at_larger_m():
    # m = 5, 6 against enumeration; beyond the enumeration cap while the
    # binomials stay exact floats; CapacityError once C(n, m) >= 2^53
    rng = np.random.default_rng(17)
    x = rng.standard_normal(10)
    for m in (5, 6):
        fast, enum = builtin_kernel("range", {"m": m}), enumerating_range(m)
        with no_enumeration():
            u = u_statistic(x, fast)
            s = tail_sums(x, fast, None, x)
        assert u == pytest.approx(u_statistic(x, enum), rel=1e-12)
        np.testing.assert_allclose(s, tail_sums(x, enum, None, x),
                                   rtol=1e-12)
    y = rng.standard_normal(300)
    six = builtin_kernel("range", {"m": 6})  # C(300, 6) ~ 1.1e12 subsets
    with no_enumeration():
        u = u_statistic(y, six)
        g1 = g1_hat_all(y, six)
    assert 0.0 < u < np.ptp(y)
    assert g1.shape == y.shape and np.all(np.isfinite(g1))
    twelve = builtin_kernel("range", {"m": 12})  # C(300, 12) ~ 3.7e19
    with pytest.raises(CapacityError):
        u_statistic(y, twelve)
    with pytest.raises(CapacityError):
        g1_hat_all(y, twelve)

