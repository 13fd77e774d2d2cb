"""U-statistics, the empirical U-distribution, U-quantiles and the
empirical first Hoeffding projection.

Operations enumerate the C(n, m) index subsets exactly, at most
``ENUM_CAP`` of them (else CapacityError), except where a catalog
kernel, recognized by identity, has a closed form over the sorted
sample:

    kernel                U_n, tail sums, g1_hat          H_n
    gini_abs_diff         prefix sums, O(n log n)         enumerated
    min_pairwise, m = 2   as gini_abs_diff                counted
    min_pairwise, m = 3   capped gap sums, O(n^2 log n)   counted
    min_pairwise, m >= 4  enumerated                      counted
    range, any m          binomial sums, O(n log n)       enumerated
    other kernels         enumerated                      enumerated

Tail sums of a transformed kernel (``tail_sums`` with a transform)
are enumerated.  Counted H_n (MinPairwiseCounts) gives
U-quantiles, H_n(t) and per-point tail counts in O(n log^2 n).
Subsampled variants live in :mod:`glstat.mc` where seeds are managed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, ceil
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import CapacityError, InsufficientDataError
from .kernels import (GINI_ABS_DIFF, MIN_PAIRWISE, RANGE, KernelSpec,
                      eval_kernel_rows)

ENUM_CAP = 10 ** 8


def as_sample(values) -> np.ndarray:
    """Validate and return a 1-d float array of finite observations."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise InsufficientDataError("empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample values must be finite")
    return x


def _require_n(x: np.ndarray, m: int) -> None:
    if x.size < m:
        raise InsufficientDataError(
            f"need at least m={m} observations, got n={x.size}"
        )


@dataclass(frozen=True)
class KernelValueSet:
    """All C(n, m) kernel evaluations of a sample, sorted ascending.

    This is the multiset behind the empirical U-distribution H_n and its
    generalized inverse.
    """

    sorted_values: np.ndarray
    n: int
    m: int

    @property
    def size(self) -> int:
        return self.sorted_values.size

    def cdf(self, t: float) -> float:
        """H_n(t): fraction of kernel values <= t (right-continuous)."""
        return float(
            np.searchsorted(self.sorted_values, t, side="right") / self.size
        )

    def quantile(self, p: float, convention: str = "ceil") -> float:
        """H_n^{-1}(p) as the k-th smallest kernel value; see _rank."""
        return float(self.sorted_values[_rank(p, self.size, convention) - 1])


def _rank(p: float, N: int, convention: str) -> int:
    """The 1-based rank k of H_n^{-1}(p) among N kernel values.

    ``ceil``: k = ceil(p * N) (generalized inverse, 0 < p <= 1).
    ``floor_bracket``: k = max(1, floor(p * N)), matching the
    floor-bracket index used for the Q estimator.
    """
    if convention not in ("ceil", "floor_bracket"):
        raise ValueError(f"unknown quantile convention {convention!r}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    k = ceil(p * N) if convention == "ceil" else int(np.floor(p * N))
    return min(max(k, 1), N)


def _first_false(pred: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 lo: np.ndarray, hi: np.ndarray,
                 guess: np.ndarray) -> np.ndarray:
    """Per entry e, the first index i in [lo[e], hi[e]) where pred is
    False (hi[e] if none), for a pred that is True on a prefix of each
    range.  pred(e, i) maps entries e (an index array, or a slice
    for all of them) and one index per entry to booleans.

    ``guess``, clipped to the range, stands for an entry where pred
    confirms it: True just before it and False at it.  Any other entry
    lies on one side of its guess, and only that side is searched, by
    binary lifting: all such entries take the same log2(max width)
    steps.  So a guess decides only how much work is done, never the
    result."""
    pos = np.minimum(np.maximum(guess, lo), hi)
    every = slice(None)
    # where an index is out of range its test is masked off
    over = ~pred(every, np.maximum(pos - 1, 0)) & (pos > lo)
    under = pred(every, np.minimum(pos, hi - 1)) & (pos < hi)
    e = np.flatnonzero(over | under)
    if e.size:
        below = over[e]  # the first False lies before the guess
        a = np.where(below, lo[e], pos[e] + 1)
        b = np.where(below, pos[e] - 1, hi[e])
        width = int((b - a).max())
        step = 1 << (width.bit_length() - 1) if width else 0
        while step:
            nxt = a + step
            ok = nxt <= b
            ok &= pred(e, np.minimum(nxt, b) - 1)
            a += step * ok
            step >>= 1
        pos[e] = a
    return pos


def _clear_below(xs: np.ndarray, pts: np.ndarray, t: float) -> np.ndarray:
    """#{p : pts - xs[p] > t} per point, for sorted xs and t >= 0: the
    p form a prefix, guessed by searchsorted on pts - t and confirmed
    with the kernel's subtraction."""
    return _first_false(lambda e, p: pts[e] - xs[p] > t,
                        np.zeros(pts.size, dtype=np.int64),
                        np.full(pts.size, xs.size, dtype=np.int64),
                        np.searchsorted(xs, pts - t))


def _chain_prefixes(xs: np.ndarray, m: int, t: float) -> np.ndarray:
    """pre[k, j] = number of k-chains of sorted positions, consecutive
    gaps > t, inside the first j positions of xs, for k = 1..m (row 0
    is unused).  The 2-chains ending at j are the ends[j] positions
    clear below it; each longer length comes from the last by one
    prefix sum."""
    n = xs.size
    ends = _clear_below(xs, xs, t)
    pre = np.zeros((m + 1, n + 1), dtype=np.int64)
    pre[1] = np.arange(n + 1)
    f = ends  # k-chains ending at each position, from k = 2
    for k in range(2, m + 1):
        np.cumsum(f, out=pre[k, 1:])
        f = pre[k][ends]
    return pre


class MinPairwiseCounts:
    """H_n of the built-in min-pairwise kernel of dimension m, by counting
    instead of enumerating its C(n, m) values.

    The kernel value of an m-subset is its smallest consecutive gap in
    sorted order, so h > t exactly when the subset is a chain of sorted
    positions a_1 < ... < a_m whose consecutive gaps xs[b] - xs[a] all
    exceed t.  Gaps are tested with that floating-point subtraction, the
    one the kernel performs, so every count, H_n(t) and U-quantile
    equals the enumerated one.  Each boundary (the last position clear
    below a point, a row's first column past a pivot) is guessed by
    searchsorted on a rounded bound such as pts - t, and the guess is
    kept only where that subtraction confirms it; the entries it misses
    are bisected (see _first_false).  Memory is O(n m); counts are exact
    int64, and samples whose counts could overflow raise CapacityError.
    ``cdf`` and ``quantile`` have the semantics of KernelValueSet's.
    """

    def __init__(self, x: np.ndarray, m: int):
        n = x.size
        _require_n(x, m)
        # chain counts of every length k <= m are at most C(n, k)
        if comb(n, min(m, n // 2)) >= 2 ** 63:
            raise CapacityError(
                f"min-pairwise counts for n={n}, m={m} would overflow int64")
        self.xs = np.sort(x)
        self.n, self.m = n, m
        self.size = comb(n, m)
        self._kth: Dict[int, float] = {}

    def count_le(self, t: float) -> int:
        """#{m-subsets with h <= t}: C(n, m) minus the clear m-chains.
        Every kernel value is >= 0, so t < 0 counts none."""
        if t < 0:
            return 0
        return self.size - int(_chain_prefixes(self.xs, self.m, t)[-1, -1])

    def cdf(self, t: float) -> float:
        """H_n(t): fraction of kernel values <= t (right-continuous)."""
        return self.count_le(t) / self.size

    def per_point_le(self, t: float, pts: np.ndarray) -> np.ndarray:
        """c(a) = #{(m-1)-subsets S of all n indices : h(a, S) <= t} for
        every a in ``pts``.

        A clear tail (h > t) splits into a j-chain below a, whose top
        gap to a exceeds t, and an (m-1-j)-chain above a, whose bottom
        gap does, so it is counted from forward and backward chain
        counts.  Tails holding a itself or a value equal to it have a
        zero gap and are never clear.
        """
        n, m = self.n, self.m
        if t < 0:
            return np.zeros(pts.size, dtype=np.int64)
        # the reversed, negated sample tests each gap xs[b] - xs[a] as
        # the same subtraction, so backward chains are its forward ones
        rev = -self.xs[::-1]
        fwd = _chain_prefixes(self.xs, m - 1, t)
        bwd = _chain_prefixes(rev, m - 1, t)
        lo = _clear_below(self.xs, pts, t)  # clear points below a
        hi = _clear_below(rev, -pts, t)     # clear points above a
        clear = np.zeros(pts.size, dtype=np.int64)
        for j in range(m):
            below = fwd[j][lo] if j else 1
            above = bwd[m - 1 - j][hi] if j < m - 1 else 1
            clear += below * above
        return comb(n, m - 1) - clear

    def quantile(self, p: float, convention: str = "ceil") -> float:
        """H_n^{-1}(p) as the k-th smallest kernel value; see _rank."""
        k = _rank(p, self.size, convention)
        if k not in self._kth:
            self._kth[k] = self._select(k)
        return self._kth[k]

    def _select(self, k: int) -> float:
        """The k-th smallest kernel value, in O(n) memory.

        Every kernel value is a gap D[a, b] = xs[b] - xs[a] (a < b),
        and the rows of this implicit matrix are sorted.  Each row keeps
        its candidate columns [lo, hi); a weighted median of the row
        medians (Croux & Rousseeuw 1992; Johnson & Mitchell 1978) is
        counted, and at least a quarter of the candidates drop out:
        those >= the pivot when count_le(pivot) >= k (the pivot becomes
        the best upper bound), else those <= it.  The answer, the
        smallest gap d with count_le(d) >= k, stays among the candidates
        and the bound; once O(n) candidates remain they are bisected.
        """
        xs, n = self.xs, self.n
        lo = np.arange(1, n + 1)
        hi = np.full(n, n)
        best = float(xs[-1] - xs[0])  # the largest gap: count_le == N
        while (hi - lo).sum() > n:
            rows = np.flatnonzero(hi > lo)
            cnt = hi[rows] - lo[rows]
            med = xs[lo[rows] + (cnt - 1) // 2] - xs[rows]
            order = np.argsort(med)
            cum = np.cumsum(cnt[order])
            pivot = float(med[order[np.searchsorted(cum, cum[-1] / 2)]])
            if self.count_le(pivot) >= k:
                best = pivot
                hi = _first_false(lambda a, b: xs[b] - xs[a] < pivot, lo, hi,
                                  np.searchsorted(xs, xs + pivot))
            else:
                lo = _first_false(lambda a, b: xs[b] - xs[a] <= pivot, lo, hi,
                                  np.searchsorted(xs, xs + pivot, "right"))
        cnt = hi - lo
        rows = np.repeat(np.arange(n), cnt)
        cols = np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
        cand = np.unique(np.append(xs[cols] - xs[rows], best))
        a, b = 0, cand.size - 1
        while a < b:
            mid = (a + b) // 2
            if self.count_le(float(cand[mid])) >= k:
                b = mid
            else:
                a = mid + 1
        return float(cand[a])


# --- closed forms of catalog kernels ----------------------------------------
#
# Each takes the sorted sample xs.

# grid entries per block of the min-pairwise closed form
_GRID_ENTRIES = 1 << 16


def _shifted(xs: np.ndarray, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """xs and pts less the sample median, so that prefix sums stay small
    when the sample sits far from zero."""
    c = xs[xs.size // 2]
    return xs - c, pts - c


def _abs_diff_tails(xs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """S(a) = sum_j |a - X_j| from prefix sums."""
    n = xs.size
    ys, a = _shifted(xs, pts)
    pre = np.concatenate(([0.0], np.cumsum(ys)))
    k = np.searchsorted(ys, a, side="right")  # #{j : X_j <= a}
    return a * (2 * k - n) + pre[n] - 2.0 * pre[k]


def _abs_diff_u(xs: np.ndarray) -> float:
    """2 / (n (n - 1)) * sum_i (2 i - n - 1) X_(i)."""
    n = xs.size
    i = np.arange(1, n + 1)
    return float(2.0 / (n * (n - 1)) * np.sum((2 * i - n - 1) * xs))


def _blocks(n: int, width: int):
    """Columns of consecutive indices 0..n-1, few enough that a block
    times ``width`` stays near _GRID_ENTRIES entries."""
    step = max(1, _GRID_ENTRIES // max(width, 1))
    for k0 in range(0, n, step):
        yield np.arange(k0, min(n, k0 + step))[:, None]


def _capped_sums(xs: np.ndarray, ref: np.ndarray,
                 limit: np.ndarray) -> np.ndarray:
    """sum over l of min(limit, max(xs[l] - ref, 0)), for one ref per row of
    the grid limit >= 0.  Each term is a gap the kernel computes itself.
    The gaps of a row, nondecreasing, are below limit up to a position p;
    the gaps before p are added up from their cumulative sums (all >= 0,
    so nothing cancels) and the n - p others score limit each."""
    n, w = xs.size, xs.size + 2
    # per row: gaps[l] at column l + 1, between -inf and +inf sentinels,
    # and the sum of the gaps before p at column p
    gaps = np.empty((ref.size, w))
    gaps[:, 0], gaps[:, -1] = -np.inf, np.inf
    np.maximum(xs - ref, 0.0, out=gaps[:, 1:-1])
    runs = np.zeros((ref.size, w))
    np.cumsum(gaps[:, 1:-1], axis=1, out=runs[:, 1:-1])
    # ref + limit rounds, so p is checked against the gaps themselves, and a
    # row where it is off (a value within rounding of the boundary) is
    # searched again; a gap equal to limit may fall on either side
    p = np.searchsorted(xs, ref + limit)
    at = np.arange(ref.size)[:, None] * w + p
    off = (np.take(gaps, at) > limit) | (np.take(gaps, at + 1) < limit)
    for r in np.flatnonzero(off.any(axis=1)):
        p[r] = np.searchsorted(gaps[r, 1:-1], limit[r])
        at[r] = r * w + p[r]
    return np.take(runs, at) + (n - p) * limit


def _pairs_above(xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum over positions j < l with xs[j] > a of
    min(xs[j] - a, xs[l] - xs[j]), for each of the ascending points a."""
    out = np.zeros(a.size)
    for j in _blocks(xs.size, max(xs.size, a.size)):
        y = xs[j]
        c = np.searchsorted(a, y[-1, 0])  # points below some y
        s = _capped_sums(xs, y, np.maximum(y - a[:c], 0.0))
        out[:c] += s.sum(axis=0)
    return out


def _pairs_around(xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum over positions j, l with xs[j] < a < xs[l] of
    min(a - xs[j], xs[l] - a), for each point a."""
    out = np.zeros(a.size)
    for k in _blocks(a.size, xs.size):
        b = a[k]
        y = xs[:np.searchsorted(xs, b.max())]  # values below some b
        out[k[:, 0]] = _capped_sums(xs, b, np.maximum(b - y, 0.0)).sum(axis=1)
    return out


def _min3_tails(xs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """S(a) = sum over pairs j < k of the min-pairwise kernel of
    (a, X_j, X_k): the smaller gap of the sorted triple.  A pair lies
    above a, below a or on both sides of it; a value equal to a scores
    0 with any partner.  Every term is a gap the kernel computes itself.
    O(n log n) time per point; memory O(n) per block of the grid."""
    order = np.argsort(pts, kind="stable")
    a = pts[order]
    # the pairs below a are the pairs above -a in the negated sample
    below = _pairs_above(-xs[::-1], -a[::-1])[::-1]
    out = np.empty(pts.size)
    out[order] = _pairs_above(xs, a) + below + _pairs_around(xs, a)
    return out


def _min3_u(xs: np.ndarray) -> float:
    """U_n of the m = 3 min-pairwise kernel: each triple counted once,
    around its middle value (a tied triple scores 0)."""
    return float(np.sum(_pairs_around(xs, xs)) / comb(xs.size, 3))


def _float_count(v: int) -> int:
    """A subset count v that a float holds exactly, else CapacityError."""
    if v >= 2 ** 53:
        raise CapacityError(f"{v} subsets exceed 2^53: a float binomial "
                            "would lose precision")
    return v


def _binomials(n: int, k: int) -> np.ndarray:
    """C(i, k) for i = 0..n as exact floats."""
    _float_count(comb(n, k))
    return np.array([comb(i, k) for i in range(n + 1)], dtype=float)


def _range_tails(xs: np.ndarray, pts: np.ndarray, m: int) -> np.ndarray:
    """S(a) = sum over (m-1)-subsets T of max(a, T) - min(a, T).  The
    C(r, m-1) subsets inside the r values <= a have max a; the others
    have their top value, X_(i) for C(i, m-2) of them.  The min is the
    same from below."""
    n = xs.size
    ys, b = _shifted(xs, pts)
    c1, c2 = _binomials(n, m - 1), _binomials(n, m - 2)
    top = np.append(np.cumsum((ys * c2[:n])[::-1])[::-1], 0.0)
    bottom = np.concatenate(([0.0], np.cumsum(ys * c2[n - 1::-1])))
    r = np.searchsorted(ys, b, side="right")
    return b * (c1[r] - c1[n - r]) + top[r] - bottom[r]


def _range_u(xs: np.ndarray, m: int) -> float:
    """U_n = sum_i X_(i) (C(i, m-1) - C(n-1-i, m-1)) / C(n, m)."""
    n = xs.size
    c1 = _binomials(n, m - 1)
    ys = xs - xs[n // 2]  # as in _shifted
    w = c1[:n] - c1[n - 1::-1]
    return float(np.dot(w, ys) / _float_count(comb(n, m)))


def _closed_form(kernel: KernelSpec):
    """(tails, u) of a catalog kernel with a closed form (see the module
    docstring), recognized by identity, or None: tails(xs, pts) is
    tail_sums and u(xs) the U-statistic, both of the sorted sample xs.
    min_pairwise m = 2 is |x - y| and shares the Gini forms."""
    m = kernel.m
    if kernel is GINI_ABS_DIFF or kernel is MIN_PAIRWISE.get(2):
        return _abs_diff_tails, _abs_diff_u
    if kernel is MIN_PAIRWISE.get(3):
        return _min3_tails, _min3_u
    if kernel is RANGE.get(m):
        return (lambda xs, pts: _range_tails(xs, pts, m),
                lambda xs: _range_u(xs, m))
    return None


def _enumerate(x: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """The C(n, m) kernel values of a validated sample, unsorted.

    Raises CapacityError when they would exceed ``ENUM_CAP``.
    """
    n, m = x.size, kernel.m
    _require_n(x, m)
    N = comb(n, m)
    if N > ENUM_CAP:
        raise CapacityError(
            f"C({n},{m}) = {N} kernel evaluations exceed the cap {ENUM_CAP}; "
            "use subsampling (glstat.mc) or a closed-form fast path"
        )
    if m == 1:
        return eval_kernel_rows(kernel, x[:, None])
    if m == 2:
        iu, ju = np.triu_indices(n, k=1)
        return eval_kernel_rows(kernel, np.column_stack((x[iu], x[ju])))
    rows = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(x, m)),
        dtype=float, count=N * m,
    ).reshape(N, m)
    return eval_kernel_rows(kernel, rows)


def kernel_values(sample, kernel: KernelSpec) -> KernelValueSet:
    """Materialize all C(n, m) kernel evaluations, sorted.

    Raises CapacityError when they would exceed ``ENUM_CAP``; for large
    n use the subsampled mode of the Monte Carlo harness instead.
    """
    x = as_sample(sample)
    return KernelValueSet(sorted_values=np.sort(_enumerate(x, kernel)),
                          n=x.size, m=kernel.m)


def u_statistic(sample, kernel: KernelSpec) -> float:
    """Mean of the kernel over all C(n, m) index subsets; from the sorted
    sample for a kernel with a closed form (see _closed_form), otherwise
    by enumeration.  For ``GINI_ABS_DIFF`` this is the order-statistic
    identity

        2 / (n (n - 1)) * sum_i (2 i - n - 1) X_(i).
    """
    x = as_sample(sample)
    _require_n(x, kernel.m)
    closed = _closed_form(kernel)
    if closed is not None:
        return closed[1](np.sort(x))
    return float(np.mean(_enumerate(x, kernel)))


# H_n as sorted kernel values or as counts; both have cdf and quantile
UDistribution = Union[KernelValueSet, MinPairwiseCounts]


def u_distribution(sample, kernel: KernelSpec) -> UDistribution:
    """H_n for ``cdf`` and ``quantile``: counted for a built-in
    min-pairwise kernel (by identity, not by name), otherwise the
    sorted kernel values."""
    x = as_sample(sample)
    if MIN_PAIRWISE.get(kernel.m) is kernel:
        return MinPairwiseCounts(x, kernel.m)
    return kernel_values(x, kernel)


def empirical_u_cdf(sample, kernel: KernelSpec, t: float) -> float:
    """H_n(t), the empirical U-distribution function."""
    return u_distribution(sample, kernel).cdf(t)


def u_quantile(sample, kernel: KernelSpec, p: float,
               convention: str = "ceil") -> float:
    """H_n^{-1}(p); see _rank for the conventions."""
    return u_distribution(sample, kernel).quantile(p, convention)


def empirical_cdf(sample, x: float) -> float:
    """F_n(x) = (1/n) #{i : X_i <= x}."""
    s = as_sample(sample)
    return float(np.searchsorted(np.sort(s), x, side="right") / s.size)


# --- empirical first Hoeffding projection ---------------------------------

def _g1_denominators(n: int, m: int, normalization: str) -> Tuple[float, float]:
    if normalization == "combinatorial":
        return float(comb(n, m - 1)) if m > 1 else 1.0, float(comb(n, m))
    if normalization == "paper_literal":
        return float(n ** (m - 1)), float(n ** m)
    raise ValueError(f"unknown normalization {normalization!r}")


# rows (point, tail...) evaluated per chunk of project()
_PROJECT_ROWS = 1 << 16


def tail_sums(x: np.ndarray, kernel: KernelSpec,
              transform: Optional[Callable[[np.ndarray], np.ndarray]],
              pts: np.ndarray) -> np.ndarray:
    """S(a) = sum over i_1<...<i_{m-1} of f(h(a, X_{i_1..i_{m-1}})) for
    every a in ``pts``, with f = transform (identity when None) and x a
    validated sample.

    Without a transform, a kernel with a closed form (see _closed_form)
    takes it; every other kernel enumerates the C(n, m-1) tails.
    """
    n, m = x.size, kernel.m
    closed = _closed_form(kernel) if transform is None else None
    if closed is not None:
        return closed[0](np.sort(x), pts)
    f = transform or (lambda v: v)
    # the C(n, m-1) tails, enumerated once in lexicographic index order;
    # m = 1 has one empty tail, and combinations() would still copy the
    # whole sample into a tuple of scalars to find it
    T = comb(n, m - 1)
    tails = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(x if m > 1 else (), m - 1)),
        dtype=float, count=T * (m - 1),
    ).reshape(T, m - 1)
    step = max(1, _PROJECT_ROWS // T)
    s1 = np.empty(pts.size)
    for lo in range(0, pts.size, step):
        chunk = pts[lo:lo + step]
        k = chunk.size
        rows = np.empty((k, T, m))
        rows[:, :, 0] = chunk[:, None]
        rows[:, :, 1:] = tails
        vals = f(eval_kernel_rows(kernel, rows.reshape(k * T, m)))
        s1[lo:lo + k] = vals.reshape(k, T).sum(axis=1)
    return s1


def project(sample, kernel: KernelSpec, at=None,
            normalization: str = "combinatorial") -> np.ndarray:
    """Empirical first Hoeffding projection of h at the points ``at``
    (default: every sample point).

    g_1(x) = (1/d1) sum over i_1<...<i_{m-1} of h(x, X_{i_1..i_{m-1}})
           - (1/d2) sum over i_1<...<i_m of h(X_{i_1..i_m})

    ``combinatorial`` divides by the true subset counts C(n, m-1) and
    C(n, m); ``paper_literal`` divides by n^{m-1} and n^m.  The inner
    sums run over the full sample and do not exclude any index whose
    value equals x.  The inner sums come from tail_sums and the outer
    sum is C(n, m) U_n, so a kernel with a closed form enumerates no
    kernel value.  For the closed-form min-pairwise kernels (m <= 3) at
    the sample points, a tail holding the point itself scores 0, so the
    tail sums count every m-subset once per member and the outer sum is
    their total over m.  Any other kernel takes U_n first, so one that
    enumerates raises CapacityError before its tails are enumerated.
    """
    x = as_sample(sample)
    n, m = x.size, kernel.m
    _require_n(x, m)
    d1, d2 = _g1_denominators(n, m, normalization)
    pts = x if at is None else as_sample(at)
    if at is None and m <= 3 and kernel is MIN_PAIRWISE.get(m):
        tails = tail_sums(x, kernel, None, pts)
        total = float(np.sum(tails)) / m
    else:
        total = comb(n, m) * u_statistic(x, kernel)
        tails = tail_sums(x, kernel, None, pts)
    return tails / d1 - total / d2


def g1_hat_all(sample, kernel: KernelSpec,
               normalization: str = "combinatorial") -> np.ndarray:
    """ghat_1 evaluated at every sample point; see project."""
    return project(sample, kernel, normalization=normalization)


# --- population Hoeffding decomposition (finite support, oracle) ----------

@dataclass(frozen=True)
class PopulationHoeffding:
    """Exact Hoeffding decomposition of a kernel under a finite-support
    product distribution; used as a test oracle.

    g_components[j-1] maps a sorted j-tuple of support values to g_j.
    """

    theta: float
    support: Tuple[float, ...]
    probabilities: Tuple[float, ...]
    m: int
    g_components: Tuple[Dict[Tuple[float, ...], float], ...]

    def g(self, j: int, args: Sequence[float]) -> float:
        if not 1 <= j <= self.m:
            raise ValueError(f"j must be in 1..{self.m}, got {j}")
        key = tuple(sorted(float(a) for a in args))
        if len(key) != j:
            raise ValueError(f"g_{j} takes {j} arguments, got {len(key)}")
        return self.g_components[j - 1][key]


def hoeffding_decompose_population(
    support_probs: Sequence[Tuple[float, float]],
    kernel: KernelSpec,
) -> PopulationHoeffding:
    """Exhaustive Hoeffding decomposition over a finite discrete law.

    Computes theta = E h(Y_1..Y_m), the conditional means h~_j, and the
    degenerate components g_1..g_m by enumeration over the product
    distribution.
    """
    support = tuple(float(v) for v, _ in support_probs)
    probs = np.array([p for _, p in support_probs], dtype=float)
    if np.any(probs <= 0):
        raise ValueError("probabilities must be positive")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
    if len(set(support)) != len(support):
        raise ValueError("support values must be distinct")
    m = kernel.m
    s = len(support)
    if s ** m > ENUM_CAP:
        raise CapacityError(f"{s}^{m} enumeration exceeds cap {ENUM_CAP}")

    def cond_mean(prefix: Tuple[float, ...]) -> float:
        """E h(prefix, Y_{k+1}, ..., Y_m)."""
        k = len(prefix)
        total = 0.0
        for tail in itertools.product(range(s), repeat=m - k):
            w = float(np.prod(probs[list(tail)])) if tail else 1.0
            args = np.array(prefix + tuple(support[t] for t in tail))
            total += w * float(kernel.eval_one(args))
        return total

    theta = cond_mean(())
    g_components: List[Dict[Tuple[float, ...], float]] = []
    for j in range(1, m + 1):
        gj: Dict[Tuple[float, ...], float] = {}
        for combo in itertools.combinations_with_replacement(support, j):
            key = tuple(sorted(combo))
            if key in gj:
                continue
            h_tilde = cond_mean(key) - theta
            lower = 0.0
            for k in range(1, j):
                for idx in itertools.combinations(range(j), k):
                    sub = tuple(sorted(key[i] for i in idx))
                    lower += g_components[k - 1][sub]
            gj[key] = h_tilde - lower
        g_components.append(gj)

    return PopulationHoeffding(
        theta=theta,
        support=support,
        probabilities=tuple(float(p) for p in probs),
        m=m,
        g_components=tuple(g_components),
    )
