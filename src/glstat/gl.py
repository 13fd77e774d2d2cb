"""Generalized L-statistics: the functional T(H_n) and the named
scale-estimator catalog (Gini's mean difference, Q, C, LMS).

T(H_n) = sum_i [ integral of J over ((i-1)/N, i/N) ] * v_(i)
       + sum_i a_i * H_n^{-1}(p_i)

with v_(1) <= ... <= v_(N) the sorted kernel values, N = C(n, m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InsufficientDataError
from .kernels import GINI_ABS_DIFF, KernelSpec, builtin_kernel
from .ustat import (
    QUANTILE_CONVENTIONS,
    UDistribution,
    as_sample,
    kernel_values,
    u_distribution,
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
    def constant(c: float) -> "WeightFunctionJ":
        return WeightFunctionJ(pieces=((0.0, 1.0, (c,)),))

    @property
    def is_zero(self) -> bool:
        """J == 0: every piece has only zero coefficients."""
        return not any(any(coeffs) for _, _, coeffs in self.pieces)

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


@dataclass(frozen=True)
class GLSpec:
    """Full GL parameterization: kernel h, weight J, discrete part
    (a_i, p_i) for i = 1..d, and the quantile convention used for the
    discrete part."""

    kernel: KernelSpec
    weight: WeightFunctionJ = field(default_factory=WeightFunctionJ)
    discrete: Tuple[Tuple[float, float], ...] = ()
    quantile_convention: str = "ceil"

    def __post_init__(self):
        for a, p in self.discrete:
            if not 0.0 < p < 1.0:
                raise ValueError(f"discrete quantile level {p} not in (0, 1)")
        if self.quantile_convention not in QUANTILE_CONVENTIONS:
            raise ValueError(f"unknown quantile convention "
                             f"{self.quantile_convention!r}")

    @property
    def linear_constant(self) -> Optional[float]:
        """c if the spec is linear, T(H_n) = c * U_n: J == c on all of
        [0, 1] and no discrete part.  Linear specs never need H_n."""
        pieces = self.weight.pieces
        if self.discrete or len(pieces) != 1:
            return None
        lo, hi, coeffs = pieces[0]
        if lo == 0.0 and hi == 1.0 and len(coeffs) == 1:
            return float(coeffs[0])
        return None


def gl_statistic(sample, spec: GLSpec,
                 kvs: Optional[UDistribution] = None) -> float:
    """Evaluate T(H_n) in its exact discretized form.

    A linear spec is c * u_statistic, without H_n.  A spec with J == 0
    needs only the quantiles of H_n (``u_distribution``: counted for the
    built-in min-pairwise and Gini kernels).  ``kvs`` may be supplied to
    reuse an already-built H_n.
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
    """Gini's mean difference, T(H_n) of ``gini_gl_spec()``: the
    U-statistic of |x - y| by the O(n log n) order-statistic identity
    of u_statistic."""
    return gl_statistic(sample, gini_gl_spec())


def estimator_q(sample, m: int = 3, alpha: float = 0.5) -> float:
    """Q_n^alpha, T(H_n) of ``q_gl_spec(m, alpha)``: the k-th smallest
    min-pairwise kernel value with k = max(1, floor(alpha * C(n, m))),
    selected by counting (MinPairwiseCounts) without enumerating the
    C(n, m) values."""
    return gl_statistic(sample, q_gl_spec(m, alpha))


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
    # Phi^{-1}(0.75): the double that lrv.normal_quantile(0.75), the
    # Cephes ndtri, returns (as does scipy's norm.ppf(0.75))
    return 1.0 / (2.0 * 0.6744897501960817)


def gini_gl_spec() -> GLSpec:
    """GL form of Gini's mean difference: |x - y| kernel, J == 1, d = 0."""
    return GLSpec(kernel=GINI_ABS_DIFF,
                  weight=WeightFunctionJ.constant(1.0))


def q_gl_spec(m: int = 3, alpha: float = 0.5) -> GLSpec:
    """GL form of Q_n^alpha: min-pairwise kernel, J == 0, d = 1, a_1 = 1,
    quantile index max(1, floor(alpha * C(n, m))) via the floor-bracket
    convention (exactly the printed [alpha C(n, m)] order statistic)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return GLSpec(kernel=builtin_kernel("min_pairwise", {"m": m}),
                  discrete=((1.0, alpha),),
                  quantile_convention="floor_bracket")


class CatalogEntry(NamedTuple):
    """One catalog estimator: the point estimator, the options among
    ``m``, ``alpha`` and ``c_alpha`` that it reads, and the builder of
    its GL spec from those same options, or None when it has none."""

    estimator: Callable[..., float]
    options: Tuple[str, ...]
    spec: Optional[Callable[..., GLSpec]]


# the one name -> computation table that the CLI and the Monte Carlo
# harness read, in the order the CLI lists the names
ESTIMATORS = {
    "gini": CatalogEntry(estimator_gini, (), gini_gl_spec),
    "q": CatalogEntry(estimator_q, ("m", "alpha"), q_gl_spec),
    "c": CatalogEntry(estimator_c, ("alpha", "c_alpha"), None),
    "lms": CatalogEntry(estimator_lms, (), None),
}

# the names with a GL variance form, so with an interval
GL_SPEC_NAMES = tuple(name for name, e in ESTIMATORS.items() if e.spec)


def _catalog(name: str, opts) -> Tuple[CatalogEntry, dict]:
    if name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}")
    entry = ESTIMATORS[name]
    return entry, {k: getattr(opts, k) for k in entry.options}


def point_estimate(name: str, sample, opts) -> float:
    """The catalog estimate ``name`` of ``sample``.  The options it reads
    are attributes of ``opts``: an argparse namespace or an
    EstimatorConfig."""
    entry, kwargs = _catalog(name, opts)
    return entry.estimator(sample, **kwargs)


def gl_spec(name: str, opts) -> Optional[GLSpec]:
    """The GL spec of the catalog estimator ``name``, built from the
    options it reads (attributes of ``opts``), or None if it has none."""
    entry, kwargs = _catalog(name, opts)
    return entry.spec(**kwargs) if entry.spec is not None else None
