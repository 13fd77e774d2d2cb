"""Recursions of the data-generating processes of the normality study:
AR(1) innovations, GARCH(1,1) and EGARCH(p, q).  ``mc.simulate_path``,
the one simulator, draws the innovations and runs these on the
parameters of a ``mc.ProcessConfig``, checked when it was built.

Determinism contract: every stream comes from numpy's counter-based
Philox generator seeded through SeedSequence: ``make_rng(seed,
*spawn_key)`` is SeedSequence(entropy=seed, spawn_key=spawn_key).  A bare
seed is the ``glstat simulate --seed`` stream; an experiment keys each
replication by (seed, estimator label tag, n, replication).  Identical
configuration means bit-identical output on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import pi, sqrt
from typing import Tuple

import numpy as np

from .errors import StationarityError, is_number

GAUSSIAN_MEAN_ABS = sqrt(2.0 / pi)  # E|Z| for Z ~ N(0, 1)


def make_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Philox generator for the (seed, *spawn_key) substream."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in spawn_key))
    return np.random.Generator(np.random.Philox(ss))


def _ar1(eps: np.ndarray, rho: float) -> np.ndarray:
    """Innovations with unit marginal variance from the draws ``eps``:
    eps itself for rho = 0, else the AR(1) Z_t = rho Z_{t-1} +
    sqrt(1 - rho^2) eps_t, started stationary (Z_1 = eps_1)."""
    if rho == 0.0:
        return eps
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
        # a bare number would fail in len(), a string would reach the
        # recursion and fail inside numpy
        for f in fields(self):
            v = getattr(self, f.name)
            lags = f.name in ("alpha", "beta")
            if lags and not isinstance(v, (tuple, list)):
                raise ValueError(f"EGARCH {f.name} must be a list of real "
                                 f"numbers, got {v!r}")
            for a in v if lags else (v,):
                if not is_number(a):
                    raise ValueError(f"EGARCH {f.name} must be a real "
                                     f"number, got {a!r}")
            if lags:  # a list would leave the frozen params unhashable
                object.__setattr__(self, f.name, tuple(v))
        if len(self.alpha) < 1 or len(self.beta) < 1:
            raise ValueError("EGARCH needs p >= 1 and q >= 1")
        if not abs(self.beta_sum) < 1.0:
            raise StationarityError(
                f"|sum(beta)| = {abs(self.beta_sum)} >= 1"
            )

    @property
    def beta_sum(self) -> float:
        return float(sum(self.beta))

    @property
    def stationary_log_variance(self) -> float:
        return self.alpha0 / (1.0 - self.beta_sum)


def _egarch(params: EgarchParams, z: np.ndarray) -> np.ndarray:
    """Run the log-variance recursion over the innovations ``z`` and
    return X_t = sigma_t Z_t, of the length of ``z``.

    log sigma^2 is initialized at its stationary mean alpha0/(1 - sum beta)
    for the first max(p, q) steps.
    """
    total = z.size
    lag = max(len(params.alpha), len(params.beta))
    f = params.theta * z + params.lam * (np.abs(z) - params.mean_abs_z)
    init = params.stationary_log_variance
    # drive[t] = alpha0 + sum_i alpha_i f(z_{t-i})
    drive = np.full(total, params.alpha0)
    for i, a in enumerate(params.alpha, start=1):
        drive[lag:] += a * f[lag - i: total - i]
    logv = _linear_recursion([init] * lag, drive[lag:], params.beta)
    return np.exp(0.5 * logv) * z


def _garch11(alpha0: float, alpha1: float, beta1: float,
             z: np.ndarray) -> np.ndarray:
    """GARCH(1,1): sigma_t^2 = alpha0 + alpha1 X_{t-1}^2 + beta1 sigma_{t-1}^2,
    started at the stationary variance alpha0 / (1 - alpha1 - beta1)."""
    var = alpha0 / (1.0 - alpha1 - beta1)
    x = np.empty(z.size)
    for t in range(z.size):
        x[t] = sqrt(var) * z[t]
        var = alpha0 + alpha1 * x[t] ** 2 + beta1 * var
    return x
