"""U-statistics, the empirical U-distribution, U-quantiles and the
empirical first Hoeffding projection.

All operations enumerate the C(n, m) index subsets exactly (subject to a
capacity cap), except that the U-statistic and the projection of the
built-in Gini kernel come from the sorted sample in O(n log n);
subsampled variants live in :mod:`glstat.mc` where seeds are managed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, ceil
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, InsufficientDataError
from .kernels import GINI_ABS_DIFF, KernelSpec, eval_kernel_rows

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
        """H_n^{-1}(p) as the k-th smallest kernel value.

        ``ceil``: k = ceil(p * N) (generalized inverse, 0 < p <= 1).
        ``floor_bracket``: k = max(1, floor(p * N)), matching the
        floor-bracket index used for the Q estimator.
        """
        N = self.size
        if convention == "ceil":
            if not 0.0 < p <= 1.0:
                raise ValueError(f"p must be in (0, 1], got {p}")
            k = min(max(ceil(p * N), 1), N)
        elif convention == "floor_bracket":
            if not 0.0 < p <= 1.0:
                raise ValueError(f"p must be in (0, 1], got {p}")
            k = min(max(int(np.floor(p * N)), 1), N)
        else:
            raise ValueError(f"unknown quantile convention {convention!r}")
        return float(self.sorted_values[k - 1])


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


def empirical_u_cdf(sample, kernel: KernelSpec, t: float,
                    cap: int = DEFAULT_ENUM_CAP) -> float:
    """H_n(t), the empirical U-distribution function."""
    return kernel_values(sample, kernel, cap=cap).cdf(t)


def u_quantile(sample, kernel: KernelSpec, p: float,
               convention: str = "ceil",
               cap: int = DEFAULT_ENUM_CAP) -> float:
    """H_n^{-1}(p); see KernelValueSet.quantile for the conventions."""
    return kernel_values(sample, kernel, cap=cap).quantile(p, convention)


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
