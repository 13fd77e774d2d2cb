"""Counting oracle for the min-pairwise kernel of dimension 3, built on
the O(n^2) matrix of sorted-sample differences and independent of
glstat, for the tests that check exact Q at sizes where enumerating the
C(n, 3) triples is out of reach.

The kernel of a triple is its smaller consecutive gap, so a triple has
h > t exactly when both of its gaps exceed t.  Every gap is an entry
D[a, b] = xs[b] - xs[a] (a < b), the subtraction the kernel performs.
"""

from math import ceil, comb, floor, sqrt
from statistics import NormalDist

import numpy as np


class Triples:
    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)
        self.n = n = self.x.size
        self.order = np.argsort(self.x, kind="stable")
        xs = self.x[self.order]
        self.D = xs[None, :] - xs[:, None]
        self.upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        self.N = comb(n, 3)

    def _clear(self, t, strict=True):
        """per sorted position: #{a below with gap > t}, #{b above ...}
        (>= t when not strict)"""
        G = ((self.D > t) if strict else (self.D >= t)) & self.upper
        return G.sum(axis=0).astype(np.int64), G.sum(axis=1).astype(np.int64)

    def count_le(self, t):
        below, above = self._clear(t)
        return self.N - int(below @ above)  # clear triples by middle point

    def count_lt(self, t):
        below, above = self._clear(t, strict=False)
        return self.N - int(below @ above)

    def kth(self, k):
        cand = np.unique(self.D[self.upper])
        lo, hi = 0, cand.size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.count_le(cand[mid]) >= k:
                hi = mid
            else:
                lo = mid + 1
        return float(cand[lo])

    def per_point_le(self, t):
        """#{pairs of all n indices S : h(x_i, S) <= t}, in time order."""
        n = self.n
        below, above = self._clear(t)
        # points clear below x_(s) form a prefix of length below[s], those
        # clear above a suffix of length above[s]; a clear pair lies in the
        # prefix, in the suffix, or straddles x_(s)
        pre = np.concatenate(([0], np.cumsum(below)))
        suf = np.concatenate((np.cumsum(above[::-1])[::-1], [0]))
        clear = pre[below] + suf[n - above] + below * above
        out = np.empty(n, dtype=np.int64)
        out[self.order] = comb(n, 2) - clear
        return out


def q_interval(x, alpha=0.5, level=0.95, dens_c=0.5):
    """(Q, sigma2, (lo, hi)) of the m = 3 Q interval with the CLI's
    defaults: floor-bracket Q, ceil-convention IQR, subset-count
    normalization, Bartlett weights at b = floor(n^(1/3))."""
    H = Triples(x)
    n, N = H.n, H.N
    q = H.kth(max(1, floor(alpha * N)))
    iqr = H.kth(ceil(0.75 * N)) - H.kth(ceil(0.25 * N))
    delta = dens_c * iqr * n ** -0.2
    dens = (H.count_le(q + delta) - H.count_le(q - delta)) / N / (2 * delta)
    a1 = (H.count_le(q) / N - H.per_point_le(q) / comb(n, 2)) / dens
    b = 1
    while (b + 1) ** 3 <= n:
        b += 1
    sigma2 = a1 @ a1 / n
    for r in range(1, b):
        sigma2 += 2.0 * (1.0 - r / b) * (a1[:-r] @ a1[r:]) / n
    half = NormalDist().inv_cdf(0.5 + level / 2) * 3 * sqrt(sigma2 / n)
    return q, sigma2, (q - half, q + half)
