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
from math import comb
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
from glstat.kernels import GINI_ABS_DIFF
from glstat.ustat import tail_sums

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
       seed=st.integers(0, 2 ** 32 - 1))
@example(raw=[0.0, 1.0, 2.0, 4.0], case=1, shape="raw", seed=0)
@example(raw=[-2.5, 3.25, 3.25, 7.0, 40.0, 41.0], case=1, shape="tied",
         seed=1)
@example(raw=[0.1, 0.2, 0.3, 0.4, 0.5], case=4, shape="constant", seed=2)
@example(raw=[0.1, 0.2, 0.3, 0.4, 0.5], case=0, shape="n_eq_m", seed=3)
@example(raw=[0.0, 0.0, 1.0, 5.40848071913308e-307], case=1, shape="raw",
         seed=0)
# samples whose values lie within a few ulps of each other
@example(raw=[1.0, 1.0, 1.0000000000000002, 1.0], case=1, shape="raw",
         seed=0)
@example(raw=[1.0, 1.0000000000000004, 1.0, 1.0000000000000009], case=1,
         shape="raw", seed=0)
def test_closed_forms_match_enumeration(raw, case, shape, seed):
    fast, enum, gini_route = CASES[case]
    m = fast.m
    x = np.array(raw)
    if shape == "tied":
        x = np.round(x / 10.0)
    elif shape == "constant":
        x = np.full(x.size, x[-1])
    elif shape == "n_eq_m":
        x = x[:m]
    floor = 1e-12 * float(np.max(np.abs(x))) if gini_route else 0.0

    slow_s = tail_sums(x, enum, None)
    slow_u = u_statistic(x, enum)
    with no_enumeration():
        s = tail_sums(x, fast, None)
        close(s, slow_s, floor * x.size)
        u = u_statistic(x, fast)
        close(u, slow_u, floor)
    cfg = LrvConfig()
    slow_g1 = g1_hat_all(x, enum)
    slow_lrv = lrv_ustat(x, enum, cfg)
    with no_enumeration():
        close_centred(g1_hat_all(x, fast), slow_g1, floor)
        close(lrv_ustat(x, fast, cfg), slow_lrv, floor ** 2)

    # permutation: U_n stays, the tail sums and projections follow their
    # points
    perm = np.random.default_rng(seed).permutation(x.size)
    with no_enumeration():
        close(u_statistic(x[perm], fast), u, floor)
        close(tail_sums(x[perm], fast, None), s[perm],
              floor * x.size)
        close_centred(g1_hat_all(x[perm], fast), g1_hat_all(x, fast)[perm],
                      floor)


@pytest.mark.parametrize("budget", [20, 200])
def test_min3_tail_sums_on_split_grids(monkeypatch, budget):
    # a budget of 20 grid entries gives one middle per block, 200 gives
    # blocks of four and a last one of one; every block has its own
    # number of bottoms, and each block's column sums must reach them
    monkeypatch.setattr(glstat.ustat, "_GRID_ENTRIES", budget)
    rng = np.random.default_rng(41)
    x = np.round(rng.standard_normal(45) * 3.0)  # tied, also at the ends
    fast, enum = CASES[1][:2]
    slow_s, slow_u = tail_sums(x, enum, None), u_statistic(x, enum)
    with no_enumeration():
        close(tail_sums(x, fast, None), slow_s, 0.0)
        close(u_statistic(x, fast), slow_u, 0.0)


def unsorted_search_tails(x, kernel):
    """tail_sums of |x - y| (m = 2) or of the range kernel, with one
    searchsorted over the sample points in their given order."""
    xs = np.sort(x)
    n, m = xs.size, kernel.m
    ys, a = xs - xs[n // 2], x - xs[n // 2]
    k = np.searchsorted(ys, a, side="right")
    if kernel.name != "range":
        pre = np.concatenate(([0.0], np.cumsum(ys)))
        return a * (2 * k - n) + pre[n] - 2.0 * pre[k]
    c1 = np.array([comb(i, m - 1) for i in range(n + 1)], dtype=float)
    c2 = np.array([comb(i, m - 2) for i in range(n + 1)], dtype=float)
    top = np.append(np.cumsum((ys * c2[:n])[::-1])[::-1], 0.0)
    bottom = np.concatenate(([0.0], np.cumsum(ys * c2[n - 1::-1])))
    return a * (c1[k] - c1[n - k]) + top[k] - bottom[k]


@pytest.mark.parametrize("kernel", [
    GINI_ABS_DIFF, builtin_kernel("min_pairwise", {"m": 2}),
    builtin_kernel("range", {"m": 2}), builtin_kernel("range", {"m": 3})],
    ids=lambda k: f"{k.name}{k.m}")
def test_tail_sums_are_bit_identical_to_unsorted_search(kernel):
    # the sums over the sorted sample, scattered back to sample order,
    # give every point the sum that a search in the given order gives
    # it: same bits, ties and signed zeros included
    rng = np.random.default_rng(5)
    samples = [
        np.round(rng.standard_normal(60) * 3.0),  # tied
        np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.0, 1.5]),
        np.array([0.75, -1.25]),
        1e6 + rng.standard_normal(200),  # ties appear once centred
        rng.standard_normal(2500),
    ]
    for x in samples:
        got = tail_sums(x, kernel, None)
        want = unsorted_search_tails(x, kernel)
        assert got.tobytes() == want.tobytes()


def test_min_pairwise_m2_projection_is_the_gini_one():
    # min_pairwise m = 2 is |x - y|: its projection and LRV take the Gini
    # path, so they equal the Gini kernel's bit for bit, not to rounding
    minp2 = builtin_kernel("min_pairwise", {"m": 2})
    rng = np.random.default_rng(23)
    for n in rng.integers(5, 3000, 60):
        x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        if n % 3 == 0:
            x = np.round(x)  # tied
        assert np.array_equal(g1_hat_all(x, minp2),
                              g1_hat_all(x, GINI_ABS_DIFF))
        assert lrv_ustat(x, minp2) == lrv_ustat(x, GINI_ABS_DIFF)


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
            s = tail_sums(x, fast, None)
        assert u == pytest.approx(u_statistic(x, enum), rel=1e-12)
        np.testing.assert_allclose(s, tail_sums(x, enum, None),
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

