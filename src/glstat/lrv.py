"""Long-run variance estimation for U-statistics and GL-statistics.

The U-statistic estimator is the Bartlett-weighted autocovariance sum
(Newey & West 1987; the only lag window)

    sigma2_hat = sum_{r=-(n-1)}^{n-1} (1 - |r|/b_n)_+ * rho_hat(r),
    rho_hat(r) = (1/n) sum_{i=1}^{n-|r|} ghat_1(X_i) ghat_1(X_{i+|r|}),

with the denominator 1/n at every lag.  The GL version replaces ghat_1
by Ahat_1, the empirical first Hoeffding projection of the plug-in
influence kernel

    A(x_1..x_m) = -integral (1[h <= y] - H_n(y)) J(H_n(y)) dy
                + sum_i a_i (p_i - 1[h <= xi_hat_{p_i}]) / hhat(xi_hat_{p_i}).

Because H_n is a step function, the integral term is a finite sum over
sorted kernel values and is computed exactly (no quadrature).  For a
linear spec (J == c, no discrete part) A(v) = c (v - U_n), so Ahat_1
needs only U_n and the kernel's own inner sums, and H_n is never built.
For J == 0 with a built-in min-pairwise or Gini kernel, A depends on h
only through 1[h <= xi_hat], so Ahat_1 comes from counts of H_n
(MinPairwiseCounts) and no kernel value is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, inf, isfinite, log, nan, sqrt
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateDensityError, InsufficientDataError, is_number
from .gl import GLSpec, gl_statistic
# eval_kernel_rows is unused here but stays a module attribute:
# perfbench/tracing.py counts kernel rows by rebinding lrv.eval_kernel_rows
from .kernels import KernelSpec, eval_kernel_rows  # noqa: F401
from .ustat import (
    MinPairwiseCounts,
    UDistribution,
    as_sample,
    g1_hat_all,
    kernel_values,
    tail_sums,
    u_distribution,
    u_statistic,
)


def default_bandwidth(n: int) -> int:
    """floor(n^(1/3)), >= 1; satisfies b_n -> inf, b_n/sqrt(n) -> 0."""
    if n < 2:
        raise InsufficientDataError(f"bandwidth needs n >= 2, got {n}")
    # the float cube root is within 1/2 of the true one, so rounding it
    # is floor(n^(1/3)) or one more
    b = round(n ** (1.0 / 3.0))
    return b - 1 if b ** 3 > n else b


def _check_positive(what: str, v) -> None:
    """ValueError unless v is a finite real number > 0."""
    if not (is_number(v) and v > 0):
        raise ValueError(f"{what} must be > 0, got {v}")
    if not isfinite(v):
        raise ValueError(f"{what} must be finite, got {v}")


@dataclass(frozen=True)
class BandwidthPolicy:
    """Produces the bandwidth b_n of kind ``fixed`` (b), ``power_law``
    (c * n^e, 0 < e < 1/2) or ``auto`` (floor(n^(1/3))), with b or c
    finite and > 0; checked when built, also from a config dict."""

    kind: str = "auto"
    b: float = 0.0
    c: float = 1.0
    e: float = 1.0 / 3.0

    def __post_init__(self):
        if self.kind == "fixed":
            _check_positive("bandwidth", self.b)
        elif self.kind == "power_law":
            if not (is_number(self.e) and 0 < self.e < 0.5):
                raise ValueError("power law needs c > 0 and 0 < e < 1/2")
            _check_positive("bandwidth", self.c)
        elif self.kind != "auto":
            raise ValueError(f"unknown bandwidth policy {self.kind!r}")

    def resolve(self, n: int) -> float:
        """b_n for sample size n."""
        if self.kind == "auto":
            return float(default_bandwidth(n))
        b = self.b if self.kind == "fixed" else self.c * n ** self.e
        if not isfinite(b):  # c * n^e can overflow
            raise ValueError(f"bandwidth must be finite, got {b}")
        return b


@dataclass(frozen=True)
class LrvConfig:
    """Configuration for long-run variance estimation, checked when built."""

    bandwidth: BandwidthPolicy = field(default_factory=BandwidthPolicy)
    density_halfwidth_c: float = 0.5

    def __post_init__(self):
        if not isinstance(self.bandwidth, BandwidthPolicy):
            raise ValueError(f"bandwidth must be of type BandwidthPolicy, "
                             f"got {self.bandwidth!r}")
        _check_positive("density half-width c", self.density_halfwidth_c)


def _weighted_autocov(g: np.ndarray, b: float) -> float:
    """sum_r (1 - |r|/b)_+ rho_hat(r) with rho_hat(r) = (1/n) sum g_i g_{i+r}.

    Summation order is lag-major with ascending index, so the result is
    independent of any internal parallelism.
    """
    n = g.size
    total = float(np.dot(g, g)) / n
    for r in range(1, n):
        if r / b >= 1.0:
            break
        total += 2.0 * (1.0 - r / b) * float(np.dot(g[:-r], g[r:])) / n
    return total


def lrv_ustat(sample, kernel: KernelSpec,
              cfg: Optional[LrvConfig] = None) -> float:
    """Long-run variance estimate for a U-statistic; the Bartlett window
    is positive semidefinite, so it is >= 0 up to rounding."""
    cfg = cfg or LrvConfig()
    x = as_sample(sample)
    g1 = g1_hat_all(x, kernel)
    b = cfg.bandwidth.resolve(x.size)
    return _weighted_autocov(g1, b)


def density_at_uquantile(sample, kernel: KernelSpec, p: float,
                         cfg: Optional[LrvConfig] = None,
                         kvs: Optional[UDistribution] = None,
                         convention: str = "ceil") -> float:
    """Finite-difference density of H_n at the empirical U-quantile:

        hhat(xi_p) = (H_n(xi_p + d) - H_n(xi_p - d)) / (2 d),
        d = c * IQR(kernel values) * n^(-1/5).

    xi_p is taken in the given quantile ``convention`` (that of the
    estimate); the IQR always uses the ceil convention.  H_n is
    ``kvs`` or else ``u_distribution`` (counted for min-pairwise, Gini).
    """
    cfg = cfg or LrvConfig()
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    x = as_sample(sample)
    if kvs is None:
        kvs = u_distribution(x, kernel)
    xi = kvs.quantile(p, convention)
    iqr = kvs.quantile(0.75) - kvs.quantile(0.25)
    delta = cfg.density_halfwidth_c * iqr * x.size ** (-0.2)
    if delta <= 0.0:
        raise DegenerateDensityError(
            "kernel-value interquartile range is zero; H_n is (locally) flat"
        )
    dens = (kvs.cdf(xi + delta) - kvs.cdf(xi - delta)) / (2.0 * delta)
    if dens <= 0.0 or not np.isfinite(dens):
        raise DegenerateDensityError(
            f"flat H_n around the {p}-quantile; widen the halfwidth "
            f"(got density {dens} with halfwidth {delta})"
        )
    return float(dens)


@dataclass(frozen=True)
class PluginContext:
    """Precomputed empirical surrogates for the influence kernel A:
    H_n (sorted kernel values, or counts for J == 0; None for a linear
    spec), plug-in quantiles xi_hat_{p_i}, density estimates there, and
    the tabulated integral term."""

    kvs: Optional[UDistribution]
    spec: GLSpec
    # T(H_n), the point estimate A is centred for
    estimate: float
    # U_n of a linear spec, where A(v) = c (v - U_n); None otherwise
    u_n: Optional[float]
    quantiles: Tuple[float, ...]
    densities: Tuple[float, ...]
    # suffix[r] = sum_{k >= r} (w_{k+1} - w_k) J(k/N), 1-based r
    _suffix: np.ndarray
    _k0: float
    # J(r/N) for r = 0..N, the weight on each step of H_n
    _j_steps: np.ndarray

    def a_of_values(self, v: np.ndarray) -> np.ndarray:
        """Plug-in influence kernel A as a function of the kernel value."""
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        if self.u_n is not None:
            out += self.spec.linear_constant * (v - self.u_n)
        elif self._suffix.size:
            w = self.kvs.sorted_values
            N = w.size
            r = np.searchsorted(w, v, side="left")  # kernel values < v
            # the steps of H_n above w_{r+1}, whole
            out -= self._suffix[np.minimum(r + 1, N)] - self._k0
            # the step that holds v, where H_n == r/N: its 1[v <= y] J
            # part on [v, w_{r+1}) (its -H_n J part is in k0); above
            # w_N, H_n == 1 and the integrand is -J(1) on [w_N, v)
            out -= self._j_steps[r] * (w[np.minimum(r, N - 1)] - v)
        for (a, p), xi, dens in zip(self.spec.discrete, self.quantiles,
                                    self.densities):
            out += a * (p - (v <= xi)) / dens
        return out


def build_plugin(sample, spec: GLSpec,
                 cfg: Optional[LrvConfig] = None) -> PluginContext:
    """Materialize every empirical surrogate A needs, and the estimate
    T(H_n) from the same H_n.  The estimate is always computed: for a
    non-linear spec that is one gl_statistic pass over H_n, even for
    callers that read only A.

    A linear spec (``spec.linear_constant``) needs only U_n, not H_n.
    A spec with J == 0 needs only quantiles and H_n(t)
    (``u_distribution``: counted for the min-pairwise and Gini kernels);
    other specs need the sorted kernel values.
    """
    cfg = cfg or LrvConfig()
    x = as_sample(sample)
    c = spec.linear_constant
    if c is not None:
        # A(v) = c (v - U_n) and T = c U_n: no H_n, quantiles or densities
        u = u_statistic(x, spec.kernel)
        return PluginContext(
            kvs=None, spec=spec, estimate=c * u, u_n=u, quantiles=(),
            densities=(), _suffix=np.zeros(0), _k0=0.0,
            _j_steps=np.zeros(0))
    kvs = (u_distribution(x, spec.kernel) if spec.weight.is_zero
           else kernel_values(x, spec.kernel))
    suffix = j_steps = np.zeros(0)
    k0 = 0.0
    if not spec.weight.is_zero:
        # N = 1 still gets a (zero) suffix, so that a_of_values keeps
        # the J(0) and J(1) terms outside the single kernel value
        w = kvs.sorted_values
        N = w.size
        j_steps = spec.weight.eval_many(np.arange(N + 1) / N)
        k = np.arange(1, N)
        c = np.diff(w) * j_steps[1:N]
        k0 = float(np.dot(k / N, c))
        # suffix[r] for r = 0..N: sum of c_k over k >= r (1-based k)
        suffix = np.zeros(N + 1)
        suffix[1:N] = np.cumsum(c[::-1])[::-1]
        suffix[0] = suffix[1]
    # xi_hat and the density sit at the estimate's own quantile convention
    conv = spec.quantile_convention
    qs, ds = [], []
    for _, p in spec.discrete:
        qs.append(kvs.quantile(p, conv))
        ds.append(density_at_uquantile(x, spec.kernel, p, cfg, kvs=kvs,
                                       convention=conv))
    return PluginContext(kvs=kvs, spec=spec,
                         estimate=gl_statistic(x, spec, kvs=kvs),
                         u_n=None, quantiles=tuple(qs), densities=tuple(ds),
                         _suffix=suffix, _k0=k0, _j_steps=j_steps)


def a1_hat_all(sample, spec: GLSpec,
               plugin: Optional[PluginContext] = None) -> np.ndarray:
    """Ahat_1, the empirical first Hoeffding projection of A o h, at every
    sample point, in sample order, with the subset-count denominators of
    glstat.ustat.g1_hat_all.  ``plugin`` defaults to
    ``build_plugin(sample, spec)``; pass one built with an LrvConfig for
    another density half-width."""
    if plugin is None:
        plugin = build_plugin(sample, spec)
    x = as_sample(sample)
    n, m = x.size, spec.kernel.m
    d1, d2 = float(comb(n, m - 1)), float(comb(n, m))
    if plugin.u_n is not None:
        # A = c (h - U_n), so the outer sum vanishes:
        # Ahat_1 = c (S - C(n, m-1) U_n) / d1
        return spec.linear_constant * (tail_sums(x, spec.kernel, None)
                                       - comb(n, m - 1) * plugin.u_n) / d1
    H = plugin.kvs
    if isinstance(H, MinPairwiseCounts):
        # J == 0: A(v) = sum_k a_k (p_k - 1[v <= xi_k]) / hhat_k, so the
        # inner and outer sums of A are counts of tails and of subsets
        tails = comb(n, m - 1)
        out = np.zeros(n)
        for (a, p), xi, dens in zip(spec.discrete, plugin.quantiles,
                                    plugin.densities):
            out += a * ((p * tails - H.per_point_le(xi, x)) / d1
                        - (p * H.size - H.count_le(xi)) / d2) / dens
        return out
    # inner sums of A o h over the enumerated tails, outer sum over H_n
    total = np.sum(plugin.a_of_values(H.sorted_values))
    return (tail_sums(x, spec.kernel, plugin.a_of_values) / d1
            - total / d2)


@dataclass(frozen=True)
class GLVarianceReport:
    """Long-run variance estimate for a GL-statistic, with diagnostics.

    ``sigma2_gl`` is the clamped estimate max(raw, 0); the CLT-scaled
    variance of sqrt(n) (T(H_n) - T(H_F)) is ``m2_sigma2_gl``.
    """

    sigma2_gl: float
    sigma2_raw: float
    m2_sigma2_gl: float
    bandwidth_used: float
    density_estimates: Tuple[Tuple[float, float], ...]
    clamped: bool


def lrv_gl(sample, spec: GLSpec, cfg: Optional[LrvConfig] = None,
           plugin: Optional[PluginContext] = None) -> GLVarianceReport:
    """Long-run variance of a GL-statistic via Ahat_1; a linear spec
    with the built-in Gini kernel runs in O(n log n) at any n."""
    cfg = cfg or LrvConfig()
    x = as_sample(sample)
    if plugin is None:
        plugin = build_plugin(x, spec, cfg)
    a1 = a1_hat_all(x, spec, plugin=plugin)
    b = cfg.bandwidth.resolve(x.size)
    raw = _weighted_autocov(a1, b)
    clamped = raw < 0.0
    s2 = max(raw, 0.0)
    m = spec.kernel.m
    dens = tuple((p, d) for (_, p), d in zip(spec.discrete, plugin.densities))
    return GLVarianceReport(
        sigma2_gl=s2,
        sigma2_raw=raw,
        m2_sigma2_gl=m * m * s2,
        bandwidth_used=b,
        density_estimates=dens,
        clamped=clamped,
    )


# Cephes ndtri (S. Moshier, Cephes Math Library), the routine behind
# scipy.special.ndtri and norm.ppf: a rational approximation in
# (y - 0.5)^2 on the centre, and in 1/x with x = sqrt(-2 log y) on each
# tail.  The steps are those of the C code, in Python floats with
# math.log and math.sqrt, so every result is the same double.  Each
# denominator starts with the leading 1 that Cephes' p1evl implies
# (1.0 * x + c is x + c exactly).
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tail with y > exp(-32), that is x < 8
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# tail with x >= 8, down to the smallest subnormal
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef) -> float:
    a = coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _ndtri(y0: float) -> float:
    if not 0.0 < y0 < 1.0:
        if y0 == 0.0:
            return -inf
        return inf if y0 == 1.0 else nan  # also NaN in, NaN out
    lower = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        lower = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = sqrt(-2.0 * log(y))
    x0 = x - log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if lower else x


def normal_quantile(p):
    """Phi^{-1}(p), elementwise, as float64: the same doubles, shape and
    type as scipy.special.ndtri (0 -> -inf, 1 -> +inf, NaN or p outside
    [0, 1] -> NaN).  A Python number or a 0-d input gives a numpy
    float64 scalar, any other input an array of its shape."""
    a = np.asarray(p, dtype=float)
    out = np.array([_ndtri(v) for v in a.ravel().tolist()], dtype=float)
    return out.reshape(a.shape)[()]


def gl_confidence_interval(sample, spec: GLSpec,
                           cfg: Optional[LrvConfig] = None,
                           level: float = 0.95,
                           plugin: Optional[PluginContext] = None
                           ) -> Tuple[float, float]:
    """CLT interval T(H_n) +/- z_{(1+level)/2} * m * sigma_hat_GL / sqrt(n);
    ``gini_gl_spec()`` runs in O(n log n) at any n.  ``plugin`` defaults
    to ``build_plugin(sample, spec, cfg)``; a caller that already read
    ``plugin.estimate`` passes it so that H_n is built once."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    cfg = cfg or LrvConfig()
    x = as_sample(sample)
    if plugin is None:
        plugin = build_plugin(x, spec, cfg)
    t = plugin.estimate
    report = lrv_gl(x, spec, cfg, plugin=plugin)
    z = float(normal_quantile(0.5 * (1.0 + level)))
    half = z * sqrt(report.m2_sigma2_gl / x.size)
    return (t - half, t + half)
