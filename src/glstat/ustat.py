"""U-statistics, the empirical U-distribution, U-quantiles and the
empirical first Hoeffding projection.

Operations enumerate the C(n, m) index subsets exactly (subject to a
capacity cap), with two exceptions that work from the sorted sample:
the U-statistic and the projection of the built-in Gini kernel
(O(n log n)), and H_n of the built-in min-pairwise kernel, which
``u_distribution`` counts instead of enumerating (MinPairwiseCounts:
U-quantiles, H_n(t) and per-point tail counts in O(n log^2 n)).
Subsampled variants live in :mod:`glstat.mc` where seeds are managed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, ceil
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import CapacityError, InsufficientDataError
from .kernels import GINI_ABS_DIFF, MIN_PAIRWISE, KernelSpec, eval_kernel_rows

DEFAULT_ENUM_CAP = 10 ** 8


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


def _first_false(pred: Callable[[np.ndarray], np.ndarray],
                 lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per entry e, the first index i in [lo[e], hi[e]) where pred is
    False (hi[e] if none), for a pred that is True on a prefix of each
    range.  pred maps an array of one index per entry to booleans.
    Binary lifting: all entries take the same log2(max width) steps."""
    pos = lo.copy()
    width = int((hi - lo).max(initial=0))
    step = 1 << (width.bit_length() - 1) if width else 0
    while step:
        nxt = pos + step
        ok = nxt <= hi
        ok &= pred(np.minimum(nxt, hi) - 1)
        pos += step * ok
        step >>= 1
    return pos


def _clear_below(xs: np.ndarray, pts: np.ndarray, t: float) -> np.ndarray:
    """#{p : pts - xs[p] > t} per point, for sorted xs and t >= 0: the
    p form a prefix, found by bisection with the kernel's subtraction."""
    return _first_false(lambda p: pts - xs[p] > t,
                        np.zeros(pts.size, dtype=np.int64),
                        np.full(pts.size, xs.size, dtype=np.int64))


def _chain_prefixes(xs: np.ndarray, m: int, t: float) -> List[np.ndarray]:
    """pre[k][j] = number of k-chains of sorted positions, consecutive
    gaps > t, inside the first j positions of xs, for k = 1..m (pre[0]
    is unused).  Each length comes from the last by one prefix sum."""
    ends = _clear_below(xs, xs, t)
    pre = [None]
    f = np.ones(xs.size, dtype=np.int64)  # chains ending at each position
    for _ in range(m):
        pre.append(np.concatenate(([0], np.cumsum(f))))
        f = pre[-1][ends]
    return pre


class MinPairwiseCounts:
    """H_n of the built-in min-pairwise kernel of dimension m, by counting
    instead of enumerating its C(n, m) values.

    The kernel value of an m-subset is its smallest consecutive gap in
    sorted order, so h > t exactly when the subset is a chain of sorted
    positions a_1 < ... < a_m whose consecutive gaps xs[b] - xs[a] all
    exceed t.  Gaps are tested with that floating-point subtraction, the
    one the kernel performs, so every count, H_n(t) and U-quantile
    equals the enumerated one.  Memory is O(n m); counts are exact
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
        return self.size - int(_chain_prefixes(self.xs, self.m, t)[-1][-1])

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
                hi = _first_false(lambda b: xs[b] - xs < pivot, lo, hi)
            else:
                lo = _first_false(lambda b: xs[b] - xs <= pivot, lo, hi)
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


def _enumerate(x: np.ndarray, kernel: KernelSpec, cap: int) -> np.ndarray:
    """The C(n, m) kernel values of a validated sample, unsorted.

    Raises CapacityError when the enumeration would exceed ``cap``.
    """
    n, m = x.size, kernel.m
    _require_n(x, m)
    N = comb(n, m)
    if N > cap:
        raise CapacityError(
            f"C({n},{m}) = {N} kernel evaluations exceed the cap {cap}; "
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


def kernel_values(sample, kernel: KernelSpec,
                  cap: int = DEFAULT_ENUM_CAP) -> KernelValueSet:
    """Materialize all C(n, m) kernel evaluations, sorted.

    Raises CapacityError when the enumeration would exceed ``cap``; for
    large n use the subsampled mode of the Monte Carlo harness instead.
    """
    x = as_sample(sample)
    return KernelValueSet(sorted_values=np.sort(_enumerate(x, kernel, cap)),
                          n=x.size, m=kernel.m)


def u_statistic(sample, kernel: KernelSpec,
                cap: int = DEFAULT_ENUM_CAP) -> float:
    """Mean of the kernel over all C(n, m) index subsets.

    For ``GINI_ABS_DIFF`` (by identity, not by name) this is the
    O(n log n) order-statistic identity

        2 / (n (n - 1)) * sum_i (2 i - n - 1) X_(i).
    """
    x = as_sample(sample)
    _require_n(x, kernel.m)
    if kernel is GINI_ABS_DIFF:
        n = x.size
        i = np.arange(1, n + 1)
        return float(2.0 / (n * (n - 1))
                     * np.sum((2 * i - n - 1) * np.sort(x)))
    return float(np.mean(_enumerate(x, kernel, cap)))


# H_n as sorted kernel values or as counts; both have cdf and quantile
UDistribution = Union[KernelValueSet, MinPairwiseCounts]


def u_distribution(sample, kernel: KernelSpec,
                   cap: int = DEFAULT_ENUM_CAP) -> UDistribution:
    """H_n for ``cdf`` and ``quantile``: counted for a built-in
    min-pairwise kernel (by identity, not by name), otherwise the
    sorted kernel values.  ``cap`` bounds enumeration only."""
    x = as_sample(sample)
    if MIN_PAIRWISE.get(kernel.m) is kernel:
        return MinPairwiseCounts(x, kernel.m)
    return kernel_values(x, kernel, cap=cap)


def empirical_u_cdf(sample, kernel: KernelSpec, t: float,
                    cap: int = DEFAULT_ENUM_CAP) -> float:
    """H_n(t), the empirical U-distribution function."""
    return u_distribution(sample, kernel, cap=cap).cdf(t)


def u_quantile(sample, kernel: KernelSpec, p: float,
               convention: str = "ceil",
               cap: int = DEFAULT_ENUM_CAP) -> float:
    """H_n^{-1}(p); see _rank for the conventions."""
    return u_distribution(sample, kernel, cap=cap).quantile(p, convention)


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

    For ``GINI_ABS_DIFF`` without a transform, S(a) = sum_j |a - X_j|
    comes from prefix sums over the sorted sample.
    """
    n, m = x.size, kernel.m
    if kernel is GINI_ABS_DIFF and transform is None:
        xs = np.sort(x)
        # shifted by the median, so that the prefix sums stay small when
        # the sample sits far from zero
        ys = xs - xs[n // 2]
        a = pts - xs[n // 2]
        pre = np.concatenate(([0.0], np.cumsum(ys)))
        k = np.searchsorted(ys, a, side="right")  # #{j : X_j <= a}
        return a * (2 * k - n) + pre[n] - 2.0 * pre[k]
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


def project(sample, kernel: KernelSpec,
            transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
            at=None, normalization: str = "combinatorial",
            kvs: Optional[KernelValueSet] = None,
            cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Empirical first Hoeffding projection of f = transform(h) at the
    points ``at`` (default: every sample point).

    f_1(x) = (1/d1) sum over i_1<...<i_{m-1} of f(x, X_{i_1..i_{m-1}})
           - (1/d2) sum over i_1<...<i_m of f(X_{i_1..i_m})

    ``combinatorial`` divides by the true subset counts C(n, m-1) and
    C(n, m); ``paper_literal`` divides by n^{m-1} and n^m.  The inner
    sums run over the full sample and do not exclude any index whose
    value equals x.  ``kvs`` reuses the sample's sorted kernel values.

    For ``GINI_ABS_DIFF`` without a transform, the inner sums come from
    prefix sums (see tail_sums) and the outer sum is C(n, 2) U_n: no
    kernel value is enumerated.
    """
    x = as_sample(sample)
    n, m = x.size, kernel.m
    _require_n(x, m)
    d1, d2 = _g1_denominators(n, m, normalization)
    pts = x if at is None else as_sample(at)
    if kernel is GINI_ABS_DIFF and transform is None:
        total = comb(n, 2) * u_statistic(x, kernel)
    else:
        f = transform or (lambda v: v)
        total = np.sum(f(_enumerate(x, kernel, cap) if kvs is None
                         else kvs.sorted_values))
    return tail_sums(x, kernel, transform, pts) / d1 - total / d2


def hoeffding_g1_hat(sample, kernel: KernelSpec, x: float,
                     normalization: str = "combinatorial",
                     cap: int = DEFAULT_ENUM_CAP) -> float:
    """Empirical first Hoeffding kernel ghat_1 at ``x``; see project."""
    return float(project(sample, kernel, at=[x], normalization=normalization,
                         cap=cap)[0])


def g1_hat_all(sample, kernel: KernelSpec,
               normalization: str = "combinatorial",
               cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """ghat_1 evaluated at every sample point; see project."""
    return project(sample, kernel, normalization=normalization, cap=cap)


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
    cap: int = DEFAULT_ENUM_CAP,
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
    if s ** m > cap:
        raise CapacityError(f"{s}^{m} enumeration exceeds cap {cap}")

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
