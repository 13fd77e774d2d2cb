"""The counted min-pairwise route against enumeration, as a property test.

The built-in min-pairwise kernel is recognized by identity, so the
oracle is a separate kernel object with the same name and formula: its
H_n is the sorted list of all C(n, m) values, and its Q spec takes the
whole enumerating route (kernel values, A on every projection row).
Quantiles and H_n(t) must agree exactly; densities, projections,
variances and intervals to 1e-12 relative, since the counted route sums
integer counts where enumeration sums floating-point terms.  Where the
exact value is 0 (a sample whose projections all vanish) enumeration
leaves rounding of the order of the summands, |A| <= a / hhat, so the
absolute tolerances have a floor of 1e-12 a / hhat (its square for
sigma^2).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from min_pairwise_oracle import Triples

from glstat import (
    DegenerateDensityError,
    GLSpec,
    KernelValueSet,
    LrvConfig,
    a1_hat_all,
    build_plugin,
    builtin_kernel,
    custom_kernel,
    estimator_q,
    gl_confidence_interval,
    gl_statistic,
    lrv_gl,
    q_gl_spec,
)
from glstat.ustat import (MinPairwiseCounts, _clear_below, _rank,
                          u_distribution)

ENUM = {m: custom_kernel(
    "min_pairwise", m, lambda a: float(np.min(np.diff(np.sort(a)))),
    eval_rows=lambda r: np.min(np.diff(np.sort(r, axis=1), axis=1), axis=1))
    for m in (2, 3, 4)}


def close(fast, slow, floor=0.0):
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=floor)


def close_centred(fast, slow, floor):
    atol = max(1e-12 * float(np.max(np.abs(slow))), floor)
    np.testing.assert_allclose(fast, slow, rtol=0.0, atol=atol)


def plugins(x, fast_spec, enum_spec):
    """Both plugins, or None after checking that both routes find H_n
    flat at the quantile."""
    try:
        fast = build_plugin(x, fast_spec)
    except DegenerateDensityError:
        with pytest.raises(DegenerateDensityError):
            build_plugin(x, enum_spec)
        return None
    return fast, build_plugin(x, enum_spec)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(raw=st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=16),
       m=st.sampled_from([2, 3, 4]),
       shape=st.sampled_from(["raw", "tied", "constant", "n_eq_m"]),
       alpha=st.sampled_from([0.25, 0.5, 0.8]),
       t=st.floats(-1.0, 250.0), seed=st.integers(0, 2 ** 32 - 1))
@example(raw=[0.0, 1.0, 2.0, 4.0], m=3, shape="raw", alpha=0.5, t=1.0,
         seed=0)
@example(raw=[-2.5, 3.25, 3.25, 7.0, 40.0, 41.0], m=4, shape="tied",
         alpha=0.5, t=0.0, seed=1)
@example(raw=[0.1, 0.2, 0.3, 0.4, 0.5], m=2, shape="constant", alpha=0.5,
         t=0.0, seed=2)
def test_counted_route_matches_enumeration(raw, m, shape, alpha, t, seed):
    kern = builtin_kernel("min_pairwise", {"m": m})
    x = np.array(raw)
    if shape == "tied":
        x = np.round(x / 10.0)
    elif shape == "constant":
        x = np.full(x.size, x[-1])
    elif shape == "n_eq_m":
        x = x[:m]
    H, kvs = u_distribution(x, kern), u_distribution(x, ENUM[m])
    assert isinstance(H, MinPairwiseCounts)
    assert isinstance(kvs, KernelValueSet)  # same name, other object

    fast_spec = q_gl_spec(m, alpha)
    enum_spec = GLSpec(kernel=ENUM[m], discrete=((1.0, alpha),),
                       quantile_convention="floor_bracket")
    assert estimator_q(x, m, alpha) == kvs.quantile(alpha, "floor_bracket")
    assert gl_statistic(x, fast_spec) == gl_statistic(x, enum_spec)
    for p in (alpha, 0.25, 0.75, 1.0):
        for conv in ("ceil", "floor_bracket"):
            assert (u_distribution(x, kern).quantile(p, conv)
                    == u_distribution(x, ENUM[m]).quantile(p, conv))
    for s in (t, -t, 0.0, *kvs.sorted_values[::7]):
        assert H.cdf(s) == kvs.cdf(s)
        assert (u_distribution(x, kern).cdf(s)
                == u_distribution(x, ENUM[m]).cdf(s))

    both = plugins(x, fast_spec, enum_spec)
    if shape in ("constant", "n_eq_m"):
        assert both is None  # a single kernel value, or all of them 0
    if both is None:
        return
    fast, enum = both
    assert fast.quantiles == enum.quantiles
    close(fast.densities, enum.densities)
    floor = 1e-12 / fast.densities[0]
    cfg = LrvConfig()
    close_centred(a1_hat_all(x, fast_spec), a1_hat_all(x, enum_spec), floor)
    close(lrv_gl(x, fast_spec, cfg).sigma2_raw,
          lrv_gl(x, enum_spec, cfg).sigma2_raw, floor ** 2)
    close(gl_confidence_interval(x, fast_spec, cfg),
          gl_confidence_interval(x, enum_spec, cfg), floor)

    # permutation: Q stays, the projections follow their points
    perm = np.random.default_rng(seed).permutation(x.size)
    assert estimator_q(x[perm], m, alpha) == estimator_q(x, m, alpha)
    close_centred(a1_hat_all(x[perm], fast_spec),
                  a1_hat_all(x, fast_spec)[perm], floor)


def gaps_and_neighbours(xs):
    """Every gap xs[b] - xs[a] (a < b) that is >= 0, and its neighbours
    one ulp away: thresholds where a rounded searchsorted bound misses."""
    d = np.unique(xs[None, :] - xs[:, None])
    t = np.concatenate((d, np.nextafter(d, -np.inf), np.nextafter(d, np.inf)))
    return np.unique(t[t >= 0])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(raw=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=40),
       decimals=st.sampled_from([1, 2]),
       outside=st.lists(st.floats(-30.0, 30.0), max_size=8))
@example(raw=[0.1, 0.2, 0.3, 0.3, 0.7, 1.1, 1.2], decimals=1,
         outside=[0.15, 5.0])
def test_checked_guess_on_rounded_samples(raw, decimals, outside):
    # decimal fractions are not binary ones, so the bound pts - t that
    # seeds each search rounds to the wrong side of many gaps; the
    # kernel's own subtraction must catch every such entry
    x = np.round(np.array(raw), decimals)
    xs = np.sort(x)
    pts = np.concatenate((xs, np.round(outside, decimals + 1)))
    for t in gaps_and_neighbours(xs):
        want = np.sum(pts[:, None] - xs[None, :] > t, axis=1)
        np.testing.assert_array_equal(_clear_below(xs, pts, t), want)
    H, oracle = MinPairwiseCounts(x, 3), Triples(x)
    for t in gaps_and_neighbours(xs)[::3]:
        assert H.count_le(t) == oracle.count_le(t)
        np.testing.assert_array_equal(H.per_point_le(t, x),
                                      oracle.per_point_le(t))
    for p in (1 / H.size, 0.25, 0.5, 0.75, 1.0):
        for conv in ("ceil", "floor_bracket"):
            k = _rank(p, H.size, conv)
            assert H.quantile(p, conv) == oracle.kth(k)


def enumerated(x, m):
    return u_distribution(x, ENUM[m]).sorted_values


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("shape", ["tied", "offset"])
def test_every_rank_equals_enumeration(m, shape):
    # a fresh instance per rank: the selection from the full bracket
    rng = np.random.default_rng(m)
    for n in range(m, 15):
        x = rng.standard_normal(n)
        x = np.round(2.0 * x) / 2.0 if shape == "tied" else 1e6 + x
        want = enumerated(x, m)
        got = [MinPairwiseCounts(x, m)._select(k)
               for k in range(1, want.size + 1)]
        assert got == want.tolist(), (n, x)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_one_instance_answers_every_rank_in_any_order(order, m):
    # later ranks start from the brackets the counts of earlier ones left
    rng = np.random.default_rng(10 + m)
    for x in (np.round(3.0 * rng.standard_normal(14)) / 3.0,
              1e6 + rng.standard_normal(14)):
        want = enumerated(x, m)
        ks = np.arange(1, want.size + 1)
        if order == "descending":
            ks = ks[::-1]
        elif order == "shuffled":
            ks = rng.permutation(ks)
        H = MinPairwiseCounts(x, m)
        for k in ks.tolist():
            assert H._select(k) == want[k - 1], (k, x)
        # the remembered counts are the enumerated ones
        for t, c in H._counts.items():
            assert c == np.searchsorted(want, t, side="right"), t


def test_zero_is_returned_as_positive_zero():
    # 0.0 - (-0.0) is 0.0 but -0.0 - 0.0 is -0.0: which sign of zero a
    # search meets depends on its path, so the answer is normalized
    x = np.array([0.0, 1.0, 0.0, 1.0, -1.5, 2.5, -0.0, -1.5, 2.5, -1.5,
                  0.0])
    for m in (2, 3):
        H = MinPairwiseCounts(x, m)
        zeros = int(np.sum(enumerated(x, m) == 0.0))
        for k in range(zeros, 0, -1):
            assert str(H._select(k)) == "0.0"
            assert str(MinPairwiseCounts(x, m)._select(k)) == "0.0"


def test_q_interval_ranks_take_few_count_passes():
    # the three ranks of a Q interval at n = 900: the estimate's
    # floor-bracket median and the ceil quartiles of the density's IQR;
    # weighted-median pivots and a bisected last phase took 56 counts
    x = np.random.default_rng(900).standard_normal(900)
    H = MinPairwiseCounts(x, 3)
    count_le, thresholds = H.count_le, []

    def counted(t):
        thresholds.append(t)
        return count_le(t)

    H.count_le = counted
    spec = q_gl_spec(3, 0.5)
    (_, p), = spec.discrete
    H.quantile(p, spec.quantile_convention)
    H.quantile(0.75)
    H.quantile(0.25)
    assert len(thresholds) <= 40
    assert len(set(thresholds)) == len(thresholds)
    assert H.quantile(0.5, "floor_bracket") == Triples(x).kth(
        _rank(0.5, H.size, "floor_bracket"))
