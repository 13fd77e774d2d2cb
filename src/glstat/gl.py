"""Generalized L-statistics: the functional T(H_n) and the named
scale-estimator catalog (Gini's mean difference, Q, C, LMS).

T(H_n) = sum_i [ integral of J over ((i-1)/N, i/N) ] * v_(i)
       + sum_i a_i * H_n^{-1}(p_i)

with v_(1) <= ... <= v_(N) the sorted kernel values, N = C(n, m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, floor
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InsufficientDataError
from .kernels import GINI_ABS_DIFF, KernelSpec, builtin_kernel
from .ustat import (
    UDistribution,
    as_sample,
    kernel_values,
    u_distribution,
    u_quantile,
    u_statistic,
)

# ascending polynomial coefficients per piece: (lo, hi, (c0, c1, ...))
Piece = Tuple[float, float, Tuple[float, ...]]


@dataclass(frozen=True)
class WeightFunctionJ:
    """Piecewise-polynomial weight function J on [0, 1], zero elsewhere.

    Pieces are half-open [lo, hi) except the last, which is closed.
    All integrals are evaluated from the closed-form antiderivative.
    """

    pieces: Tuple[Piece, ...] = ()

    @staticmethod
    def zero() -> "WeightFunctionJ":
        return WeightFunctionJ()

    @staticmethod
    def constant(c: float = 1.0,
                 support: Tuple[float, float] = (0.0, 1.0)) -> "WeightFunctionJ":
        lo, hi = support
        return WeightFunctionJ(pieces=((lo, hi, (c,)),))

    @staticmethod
    def linear(slope: float, intercept: float,
               support: Tuple[float, float] = (0.0, 1.0)) -> "WeightFunctionJ":
        lo, hi = support
        return WeightFunctionJ(pieces=((lo, hi, (intercept, slope)),))

    @staticmethod
    def piecewise(pieces: Sequence[Piece]) -> "WeightFunctionJ":
        return WeightFunctionJ(pieces=tuple(pieces))

    @staticmethod
    def gini_order_statistic(n: int) -> "WeightFunctionJ":
        """The n-dependent J pairing the identity kernel with Gini's
        order-statistic form: J(t) = (4n/(n-1)) t - 2n/(n-1)."""
        if n < 2:
            raise InsufficientDataError("Gini J requires n >= 2")
        return WeightFunctionJ.linear(4.0 * n / (n - 1), -2.0 * n / (n - 1))

    @property
    def is_zero(self) -> bool:
        """J == 0: every piece has only zero coefficients."""
        return not any(any(coeffs) for _, _, coeffs in self.pieces)

    @property
    def constant_value(self) -> Optional[float]:
        """The constant c if J == c on all of [0, 1], else None."""
        if len(self.pieces) != 1:
            return None
        lo, hi, coeffs = self.pieces[0]
        if lo == 0.0 and hi == 1.0 and len(coeffs) == 1:
            return float(coeffs[0])
        return None

    def __call__(self, t: float) -> float:
        return float(self.eval_many(np.array([t]))[0])

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for i, (lo, hi, coeffs) in enumerate(self.pieces):
            last = i == len(self.pieces) - 1
            mask = (t >= lo) & ((t < hi) | (last & (t == hi)))
            out[mask] = np.polyval(coeffs[::-1], t[mask])
        return out

    def integral_prefix(self, t: np.ndarray) -> np.ndarray:
        """Integral of J over [0, t] for each t, exactly."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for lo, hi, coeffs in self.pieces:
            anti = np.concatenate(([0.0], np.array(coeffs) /
                                   np.arange(1, len(coeffs) + 1)))
            upper = np.clip(t, lo, hi)
            out += np.polyval(anti[::-1], upper) - np.polyval(anti[::-1], lo)
        return out


def j_integral(J: WeightFunctionJ, lo: float, hi: float) -> float:
    """Exact integral of J over [lo, hi] in [0, 1]."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"integration bounds [{lo}, {hi}] outside [0, 1]")
    pre = J.integral_prefix(np.array([lo, hi]))
    return float(pre[1] - pre[0])


@dataclass(frozen=True)
class GLSpec:
    """Full GL parameterization: kernel h, weight J, discrete part
    (a_i, p_i) for i = 1..d, and the quantile convention used for the
    discrete part."""

    kernel: KernelSpec
    weight: WeightFunctionJ = field(default_factory=WeightFunctionJ.zero)
    discrete: Tuple[Tuple[float, float], ...] = ()
    quantile_convention: str = "ceil"

    def __post_init__(self):
        for a, p in self.discrete:
            if not 0.0 < p < 1.0:
                raise ValueError(f"discrete quantile level {p} not in (0, 1)")

    @property
    def linear_constant(self) -> Optional[float]:
        """c if the spec is linear, T(H_n) = c * U_n: J == c on all of
        [0, 1] and no discrete part.  Linear specs never need H_n."""
        return None if self.discrete else self.weight.constant_value


def gl_statistic(sample, spec: GLSpec,
                 kvs: Optional[UDistribution] = None) -> float:
    """Evaluate T(H_n) in its exact discretized form.

    A linear spec is c * u_statistic, without H_n.  A spec with J == 0
    needs only the quantiles of H_n (``u_distribution``: counted for the
    built-in min-pairwise kernel).  ``kvs`` may be supplied to reuse an
    already-built H_n.
    """
    x = as_sample(sample)
    c = spec.linear_constant
    if c is not None:
        return c * u_statistic(x, spec.kernel)
    if kvs is None:
        kvs = (u_distribution(x, spec.kernel) if spec.weight.is_zero
               else kernel_values(x, spec.kernel))
    total = 0.0
    if not spec.weight.is_zero:
        v = kvs.sorted_values
        N = v.size
        grid = np.arange(N + 1) / N
        weights = np.diff(spec.weight.integral_prefix(grid))
        total += float(np.dot(weights, v))
    for a, p in spec.discrete:
        total += a * kvs.quantile(p, spec.quantile_convention)
    return total


# --- named estimator catalog ----------------------------------------------

def estimator_gini(sample) -> float:
    """Gini's mean difference, the U-statistic of |x - y|, by the
    O(n log n) order-statistic identity of u_statistic."""
    x = as_sample(sample)
    if x.size < 2:
        raise InsufficientDataError("Gini's mean difference needs n >= 2")
    return u_statistic(x, GINI_ABS_DIFF)


def estimator_q(sample, m: int = 3, alpha: float = 0.5) -> float:
    """Q_n^alpha: the k-th smallest min-pairwise kernel value with
    k = max(1, floor(alpha * C(n, m))), selected by counting
    (MinPairwiseCounts) without enumerating the C(n, m) values."""
    x = as_sample(sample)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return u_quantile(x, builtin_kernel("min_pairwise", {"m": m}), alpha,
                      convention="floor_bracket")


def estimator_c(sample, alpha: float, c_alpha: float = 1.0) -> float:
    """C_n^alpha: c_alpha times the ([n/2] - [alpha n])-th order statistic
    of the gaps X_((i + [alpha n] + 1)) - X_((i)).

    Always computed from sorted-sample differences; the equivalent GL
    form with the range kernel of dimension [alpha n] + 2 is enumeration
    territory and only exercised in tests.
    """
    x = as_sample(sample)
    n = x.size
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")
    g = floor(alpha * n)
    if n < g + 2:
        raise InsufficientDataError(f"need n >= [alpha n] + 2 = {g + 2}")
    xs = np.sort(x)
    diffs = xs[g + 1:] - xs[: n - g - 1]
    k = floor(n / 2) - g
    if not 1 <= k <= diffs.size:
        raise InsufficientDataError(
            f"order-statistic index [n/2] - [alpha n] = {k} outside "
            f"1..{diffs.size}"
        )
    return float(c_alpha * np.sort(diffs)[k - 1])


def estimator_lms(sample) -> float:
    """Least-median-of-squares scale: 0.7413 * min_i (X_((i+[n/2])) - X_((i)))."""
    x = as_sample(sample)
    n = x.size
    half = floor(n / 2)
    if n < half + 1 or half < 1:
        raise InsufficientDataError("LMS needs n >= 2")
    xs = np.sort(x)
    return float(0.7413 * np.min(xs[half:] - xs[: n - half]))


def lms_constant() -> float:
    """1 / (2 * Phi^{-1}(0.75)), the Fisher-consistency constant ~0.7413."""
    # Phi^{-1}(0.75): the double that scipy's norm.ppf(0.75) returns
    return 1.0 / (2.0 * 0.6744897501960817)


def gini_gl_spec() -> GLSpec:
    """GL form of Gini's mean difference: |x - y| kernel, J == 1, d = 0."""
    return GLSpec(kernel=GINI_ABS_DIFF,
                  weight=WeightFunctionJ.constant(1.0))


def q_gl_spec(m: int = 3, alpha: float = 0.5) -> GLSpec:
    """GL form of Q_n^alpha: min-pairwise kernel, J == 0, d = 1, a_1 = 1,
    quantile index max(1, floor(alpha * C(n, m))) via the floor-bracket
    convention (exactly the printed [alpha C(n, m)] order statistic)."""
    return GLSpec(kernel=builtin_kernel("min_pairwise", {"m": m}),
                  discrete=((1.0, alpha),),
                  quantile_convention="floor_bracket")


def c_gl_spec(n: int, alpha: float, c_alpha: float = 1.0) -> GLSpec:
    """GL form of C_n^alpha: range kernel of dimension [alpha n] + 2,
    J == 0, d = 1, a_1 = c_alpha, p_1 = 1 / C(n, m).

    Agrees with estimator_c only when the displayed order-statistic
    index [n/2] - [alpha n] equals 1 (the minimum-gap case, e.g. LMS).
    """
    m = floor(alpha * n) + 2
    N = comb(n, m)
    return GLSpec(kernel=builtin_kernel("range", {"m": m}),
                  discrete=((c_alpha, 1.0 / N),),
                  quantile_convention="floor_bracket")
