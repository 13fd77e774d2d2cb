"""Reference computations the benchmark checks glstat against.

Nothing here imports glstat.  Each oracle follows the definition in the
paper or the README by a different route than the library takes:

* substreams keyed by (seed, label, n, rep) and plain-loop EGARCH and
  GARCH(1,1) recursions rebuild every simulated path;
* Gini, LMS and C come from sorted samples in plain Python;
* the Gini interval uses the closed form
  A1(x_i) = (1/n) sum_j |x_i - x_j| - U, a Bartlett sum at
  b = floor(n^(1/3)) and U +/- z * 2 * sigma / sqrt(n);
* the min-pairwise kernel (m = 2, 3) is counted, never enumerated:
  #{h <= t} over all m-subsets and, per point, over the (m-1)-subsets
  joined to it, in O(n^2) from the matrix of sorted differences.  This
  gives ranks, U-quantiles, the density estimate and the projection of
  the influence kernel of Q.
"""

from __future__ import annotations

import hashlib
from math import comb, exp, floor, pi, sqrt
from statistics import NormalDist

import numpy as np

MEAN_ABS_GAUSS = sqrt(2.0 / pi)


# --- random streams and paths ------------------------------------------------

def cell_stream(seed: int, label: str, n: int, rep: int) -> np.random.Generator:
    """Philox substream of replication ``rep`` of cell (label, n)."""
    tag = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, n, rep))
    return np.random.Generator(np.random.Philox(ss))


def seed_stream(seed: int) -> np.random.Generator:
    """Philox stream of a bare seed, as ``glstat simulate --seed`` uses."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def ar1_innovations(eps, rho: float) -> list:
    """Z_0 = eps_0, Z_t = rho Z_{t-1} + sqrt(1 - rho^2) eps_t."""
    s = sqrt(1.0 - rho * rho)
    z = [float(eps[0])]
    for e in eps[1:]:
        z.append(s * float(e) + rho * z[-1])
    return z


def egarch11_path(z, n: int, burn_in: int, alpha0: float, alpha1: float,
                  beta1: float, theta: float, lam: float) -> np.ndarray:
    """log s2_t = alpha0 + alpha1 f(Z_{t-1}) + beta1 log s2_{t-1},
    f(z) = theta z + lam (|z| - E|Z|), started at alpha0 / (1 - beta1);
    returns the last n values of X_t = s_t Z_t."""
    logv = alpha0 / (1.0 - beta1)
    x = [exp(0.5 * logv) * z[0]]
    for t in range(1, len(z)):
        zp = z[t - 1]
        f = theta * zp + lam * (abs(zp) - MEAN_ABS_GAUSS)
        logv = alpha0 + alpha1 * f + beta1 * logv
        x.append(exp(0.5 * logv) * z[t])
    return np.array(x[1 + burn_in:1 + burn_in + n])


def garch11_path(z, n: int, burn_in: int, alpha0: float, alpha1: float,
                 beta1: float) -> np.ndarray:
    """s2_t = alpha0 + alpha1 X_{t-1}^2 + beta1 s2_{t-1}, started at
    alpha0 / (1 - alpha1 - beta1); returns the last n values."""
    var = alpha0 / (1.0 - alpha1 - beta1)
    x = []
    for zt in z[:n + burn_in]:
        xt = sqrt(var) * float(zt)
        x.append(xt)
        var = alpha0 + alpha1 * xt * xt + beta1 * var
    return np.array(x[burn_in:])


# --- order-statistic estimators ------------------------------------------------

def gini(x) -> float:
    """Mean of |x_i - x_j| over pairs, from the sorted sample's prefix sums."""
    xs = sorted(float(v) for v in x)
    n = len(xs)
    total = prefix = 0.0
    for j, v in enumerate(xs):
        total += j * v - prefix
        prefix += v
    return total / comb(n, 2)


def lms(x) -> float:
    xs = sorted(float(v) for v in x)
    h = len(xs) // 2
    return 0.7413 * min(xs[i + h] - xs[i] for i in range(len(xs) - h))


def c_estimator(x, alpha: float, c_alpha: float = 1.0) -> float:
    xs = sorted(float(v) for v in x)
    n = len(xs)
    g = floor(alpha * n)
    gaps = sorted(xs[i + g + 1] - xs[i] for i in range(n - g - 1))
    return c_alpha * gaps[n // 2 - g - 1]


# --- long-run variance ----------------------------------------------------------

def bandwidth(n: int) -> int:
    """floor(n^(1/3)) in integer arithmetic, at least 1."""
    b = 1
    while (b + 1) ** 3 <= n:
        b += 1
    return b


def bartlett_lrv(g) -> float:
    """sum over |r| < b of (1 - |r|/b) (1/n) sum_i g_i g_{i+|r|}, b = bandwidth(n)."""
    g = np.asarray(g, dtype=float)
    n = g.size
    b = bandwidth(n)
    total = float(g @ g)
    for r in range(1, b):
        total += 2.0 * (1.0 - r / b) * float(g[:-r] @ g[r:])
    return total / n


def z_value(level: float) -> float:
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


def gini_interval(x, level: float = 0.95):
    """Closed-form CLT interval for Gini's mean difference."""
    x = np.asarray(x, dtype=float)
    n = x.size
    order = np.argsort(x, kind="stable")
    xs = x[order]
    csum = np.concatenate(([0.0], np.cumsum(xs)))
    j = np.arange(n)
    # sum_j |x_(s) - x_j| = (below) s x_(s) - S_s + (above) (S_n - S_{s+1}) - (n-1-s) x_(s)
    abs_sums = j * xs - csum[:-1] + (csum[-1] - csum[1:]) - (n - 1 - j) * xs
    u = gini(x)
    a1 = np.empty(n)
    a1[order] = abs_sums / n - u
    sigma2 = max(bartlett_lrv(a1), 0.0)
    half = z_value(level) * 2.0 * sqrt(sigma2) / sqrt(n)
    return u - half, u + half


# --- counting the min-pairwise kernel -----------------------------------------

class MinPairwiseCounts:
    """H_n of the min-pairwise kernel of dimension m in {2, 3} by counting.

    The kernel of a sorted subset is its smallest consecutive gap.  All
    gaps are entries D[a, b] = xs[b] - xs[a] (a < b) of the sorted
    sample, computed once with the same floating-point subtraction the
    kernel performs, so counts agree with enumeration exactly.
    """

    def __init__(self, x, m: int):
        if m not in (2, 3):
            raise ValueError("counting oracle covers m = 2 and m = 3")
        self.x = np.asarray(x, dtype=float)
        self.n = n = self.x.size
        self.m = m
        self.order = np.argsort(self.x, kind="stable")
        xs = self.x[self.order]
        self.D = xs[None, :] - xs[:, None]
        self.upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        self.N = comb(n, m)

    def _gt(self, t: float, strict: bool = True) -> np.ndarray:
        """upper-triangle mask of gaps > t (strict) or >= t."""
        return ((self.D > t) if strict else (self.D >= t)) & self.upper

    def count_le(self, t: float) -> int:
        """#{m-subsets with h <= t}."""
        return self.N - self._count_all_gaps(self._gt(t))

    def count_lt(self, t: float) -> int:
        """#{m-subsets with h < t}."""
        return self.N - self._count_all_gaps(self._gt(t, strict=False))

    def _count_all_gaps(self, G: np.ndarray) -> int:
        if self.m == 2:
            return int(G.sum())
        left = G.sum(axis=0).astype(np.int64)   # #{j < k : gap(j, k) ok}
        right = G.sum(axis=1).astype(np.int64)  # #{l > k : gap(k, l) ok}
        return int(left @ right)

    def quantile(self, k: int) -> float:
        """The k-th smallest kernel value (1 <= k <= N)."""
        cand = np.unique(self.D[self.upper])
        lo, hi = 0, cand.size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.count_le(float(cand[mid])) >= k:
                hi = mid
            else:
                lo = mid + 1
        return float(cand[lo])

    def per_point_le(self, t: float) -> np.ndarray:
        """c_i = #{(m-1)-subsets S of all n indices with h(x_i, S) <= t},
        in the original order of the sample."""
        n = self.n
        G = self._gt(t)
        # below[s]: points under x_(s) by more than t form a prefix of the
        # sorted sample; above[s]: points over it by more than t, a suffix
        below = G.sum(axis=0)
        above = G.sum(axis=1)
        if self.m == 2:
            c = n - below - above
        else:
            left = below.astype(np.int64)
            right = above.astype(np.int64)
            # pairs inside the prefix [0, a) and the suffix [b, n) whose gap
            # exceeds t
            pre = np.concatenate(([0], np.cumsum(left)))
            suf = np.concatenate((np.cumsum(right[::-1])[::-1], [0]))
            a = below
            b = n - above
            clear = pre[a] + suf[b] + a.astype(np.int64) * (n - b)
            c = comb(n, 2) - clear
        out = np.empty(n, dtype=np.int64)
        out[self.order] = c
        return out


def q_interval(x, m: int, alpha: float, level: float = 0.95,
               dens_c: float = 0.5):
    """Q_n^alpha and its CLT interval, with xi and the density centred at
    the floor-bracket quantile of the estimate itself.

    Returns (estimate, sigma2, (lo, hi)).
    """
    H = MinPairwiseCounts(x, m)
    n, N = H.n, H.N
    q = H.quantile(max(1, floor(alpha * N)))
    iqr = H.quantile(min(max(-(-3 * N // 4), 1), N)) - H.quantile(
        min(max(-(-N // 4), 1), N))
    delta = dens_c * iqr * n ** (-0.2)
    dens = (H.count_le(q + delta) - H.count_le(q - delta)) / N / (2.0 * delta)
    a1 = (H.count_le(q) / N - H.per_point_le(q) / comb(n, m - 1)) / dens
    sigma2 = max(bartlett_lrv(a1), 0.0)
    half = z_value(level) * m * sqrt(sigma2) / sqrt(n)
    return q, sigma2, (q - half, q + half)


def min_pairwise3_lrv(x) -> float:
    """Long-run variance of the U-statistic with the m = 3 min-pairwise
    kernel: g1(x_i) = mean over pairs {j < k} of h(x_i, x_j, x_k) - U,
    by direct vectorized evaluation over all index pairs."""
    x = np.asarray(x, dtype=float)
    n = x.size
    j, k = np.triu_indices(n, 1)
    a, b = x[j], x[k]
    dab = np.abs(a - b)
    sums = np.empty(n)
    for i in range(n):
        xi = x[i]
        sums[i] = np.minimum(dab, np.minimum(np.abs(xi - a),
                                             np.abs(xi - b))).sum()
    # every triple {i, j, k} appears once for each of its three points
    u = sums.sum() / (3.0 * comb(n, 3))
    # sums[i] also counts pairs containing i (kernel value 0)
    return bartlett_lrv(sums / comb(n, 2) - u)
