"""Simulators for the data-generating processes of the normality study:
iid Gaussian and AR(1) innovations, GARCH(1,1), and EGARCH(p, q).

Determinism contract: every stream comes from numpy's counter-based
Philox generator seeded through SeedSequence: ``make_rng(seed,
*spawn_key)`` is SeedSequence(entropy=seed, spawn_key=spawn_key).  A bare
seed is the ``glstat simulate --seed`` stream; an experiment keys each
replication by (seed, estimator label tag, n, replication).  Identical
configuration means bit-identical output on any platform.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from math import pi, sqrt
from typing import Tuple

import numpy as np

from .errors import InsufficientDataError, StationarityError

GAUSSIAN_MEAN_ABS = sqrt(2.0 / pi)  # E|Z| for Z ~ N(0, 1)


def make_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Philox generator for the (seed, *spawn_key) substream."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in spawn_key))
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
                         rng: np.random.Generator) -> np.ndarray:
    """Length-``n_total`` innovation stream with unit marginal variance,
    drawn from ``rng``.

    AR(1) starts stationary (Z_1 ~ N(0, 1)).
    """
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
        # a string would reach the recursion and fail inside numpy
        for f in fields(self):
            v = getattr(self, f.name)
            for a in v if f.name in ("alpha", "beta") else (v,):
                if not isinstance(a, numbers.Real):
                    raise ValueError(f"EGARCH {f.name} must be a real "
                                     f"number, got {a!r}")

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
