"""Simulators for the data-generating processes of the normality study:
iid Gaussian and AR(1) innovations, GARCH(1,1), and EGARCH(p, q).

Determinism contract: every stream comes from numpy's counter-based
Philox generator seeded through SeedSequence.  Replication substreams
are derived as SeedSequence(entropy=seed, spawn_key=(replication,)), so
identical configuration means bit-identical output on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
from typing import Optional, Tuple

import numpy as np

from .errors import InsufficientDataError, StationarityError

GAUSSIAN_MEAN_ABS = sqrt(2.0 / pi)  # E|Z| for Z ~ N(0, 1)


def make_rng(seed: int, replication: Optional[int] = None) -> np.random.Generator:
    """Philox generator for (seed) or the (seed, replication) substream."""
    spawn_key = () if replication is None else (int(replication),)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class InnovationModel:
    """Driving noise: iid N(0,1), or an AR(1) scaled to unit marginal
    variance (Z_t = rho Z_{t-1} + sqrt(1 - rho^2) eps_t)."""

    kind: str = "iid_gaussian"
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iid_gaussian", "ar1"):
            raise ValueError(f"unknown innovation kind {self.kind!r}")
        if self.kind == "ar1" and not abs(self.rho) < 1.0:
            raise StationarityError(f"AR(1) requires |rho| < 1, got {self.rho}")

    @property
    def mean_abs(self) -> float:
        # both kinds have a standard-normal marginal
        return GAUSSIAN_MEAN_ABS


@dataclass(frozen=True)
class SimConfig:
    """Length and burn-in of one simulated path."""

    n: int
    burn_in: int = 500

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")


def simulate_innovations(model: InnovationModel, n_total: int,
                         rng_or_seed) -> np.ndarray:
    """Length-``n_total`` innovation stream with unit marginal variance.

    AR(1) starts stationary (Z_1 ~ N(0, 1)).
    """
    rng = (rng_or_seed if isinstance(rng_or_seed, np.random.Generator)
           else make_rng(int(rng_or_seed)))
    eps = rng.standard_normal(n_total)
    if model.kind == "iid_gaussian" or model.rho == 0.0:
        return eps
    rho = model.rho
    # Z_1 = eps_1 is the stationary initialization
    return _linear_recursion([eps[0]], eps[1:] * sqrt(1.0 - rho * rho),
                             (rho,))


def _linear_recursion(start, drive: np.ndarray, coefs) -> np.ndarray:
    """The path ``start`` continued by
    y_t = drive_t + coefs[0] y_{t-1} + ... + coefs[q-1] y_{t-q},
    summed left to right in Python floats (len(start) >= q).

    For q = 1 this is bit for bit scipy's ``lfilter([1], [1, -c], ...)``
    with the initial state c * start[-1], without importing scipy.  A
    step costs about 0.1 us, against 0.01 us in lfilter (2-core x86-64).
    """
    y = [float(v) for v in start]
    if len(coefs) == 1:
        # every AR(1) and EGARCH(p, 1) path; a comprehension runs this
        # about twice as fast as the general loop below
        c, prev = coefs[0], y[-1]
        y += [prev := d + c * prev for d in drive.tolist()]
    else:
        lags = tuple(enumerate(coefs, start=1))
        for acc in drive.tolist():
            for j, c in lags:
                acc += c * y[-j]
            y.append(acc)
    return np.fromiter(y, float, len(y))


@dataclass(frozen=True)
class EgarchParams:
    """EGARCH(p, q) parameters:

        X_t = sigma_t Z_t,
        log sigma_t^2 = alpha0 + sum_i alpha_i f(Z_{t-i})
                               + sum_j beta_j log sigma_{t-j}^2,
        f(z) = theta z + lam (|z| - mean_abs_z).
    """

    alpha0: float
    alpha: Tuple[float, ...]
    beta: Tuple[float, ...]
    theta: float
    lam: float
    mean_abs_z: float = GAUSSIAN_MEAN_ABS

    def __post_init__(self):
        if len(self.alpha) < 1 or len(self.beta) < 1:
            raise ValueError("EGARCH needs p >= 1 and q >= 1")

    @property
    def beta_sum(self) -> float:
        return float(sum(self.beta))

    @property
    def stationary_log_variance(self) -> float:
        return self.alpha0 / (1.0 - self.beta_sum)


def simulate_egarch(params: EgarchParams, innovations,
                    sim: SimConfig) -> np.ndarray:
    """Run the log-variance recursion and return X_t = sigma_t Z_t of
    length ``sim.n`` after discarding ``sim.burn_in`` values.

    log sigma^2 is initialized at its stationary mean alpha0/(1 - sum beta)
    for the first max(p, q) steps.
    """
    z = np.asarray(innovations, dtype=float)
    p, q = len(params.alpha), len(params.beta)
    if not abs(params.beta_sum) < 1.0:
        raise StationarityError(
            f"|sum(beta)| = {abs(params.beta_sum)} >= 1"
        )
    lag = max(p, q)
    total = sim.n + sim.burn_in + lag
    if z.size < total:
        raise InsufficientDataError(
            f"need at least {total} innovations, got {z.size}"
        )
    z = z[:total]
    f = params.theta * z + params.lam * (np.abs(z) - params.mean_abs_z)
    init = params.stationary_log_variance
    # drive[t] = alpha0 + sum_i alpha_i f(z_{t-i})
    drive = np.full(total, params.alpha0)
    for i, a in enumerate(params.alpha, start=1):
        drive[lag:] += a * f[lag - i: total - i]
    logv = _linear_recursion([init] * lag, drive[lag:], params.beta)
    x = np.exp(0.5 * logv) * z
    return x[lag + sim.burn_in:]


def simulate_garch11(alpha0: float, alpha1: float, beta1: float,
                     innovations, sim: SimConfig) -> np.ndarray:
    """GARCH(1,1): sigma_t^2 = alpha0 + alpha1 X_{t-1}^2 + beta1 sigma_{t-1}^2,
    started at the stationary variance alpha0 / (1 - alpha1 - beta1)."""
    if alpha0 <= 0 or alpha1 < 0 or beta1 < 0:
        raise ValueError("need alpha0 > 0, alpha1 >= 0, beta1 >= 0")
    if alpha1 + beta1 >= 1.0:
        raise StationarityError(
            f"alpha1 + beta1 = {alpha1 + beta1} >= 1"
        )
    z = np.asarray(innovations, dtype=float)
    total = sim.n + sim.burn_in
    if z.size < total:
        raise InsufficientDataError(
            f"need at least {total} innovations, got {z.size}"
        )
    var = alpha0 / (1.0 - alpha1 - beta1)
    x = np.empty(total)
    for t in range(total):
        x[t] = sqrt(var) * z[t]
        var = alpha0 + alpha1 * x[t] ** 2 + beta1 * var
    return x[sim.burn_in:]


@dataclass(frozen=True)
class EgarchDiagnostics:
    """Checkable pieces of the NED sufficient conditions."""

    beta_sum: float
    stationarity_ok: bool
    stationary_log_variance: float
    innovations_bounded: bool
    notes: Tuple[str, ...]


def check_egarch_conditions(params: EgarchParams,
                            model: InnovationModel) -> EgarchDiagnostics:
    """Diagnostics only; nothing here raises."""
    notes = []
    ok = abs(params.beta_sum) < 1.0
    if not ok:
        notes.append(
            f"|sum(beta)| = {abs(params.beta_sum):.6g} >= 1: the "
            "log-variance recursion has no stationary solution"
        )
    bounded = False
    notes.append(
        "Gaussian-marginal innovations are unbounded, so sup|Z_t| < inf "
        "fails strictly; the moment surrogate E|Z_t| <= 1 holds instead"
    )
    return EgarchDiagnostics(
        beta_sum=params.beta_sum,
        stationarity_ok=ok,
        stationary_log_variance=(params.stationary_log_variance if ok
                                 else float("nan")),
        innovations_bounded=bounded,
        notes=tuple(notes),
    )
