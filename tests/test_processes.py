import re
from math import exp, sqrt

import numpy as np
import pytest

from glstat import (
    EgarchParams,
    GAUSSIAN_MEAN_ABS,
    ProcessConfig,
    StationarityError,
    make_rng,
    simulate_path,
)


def egarch(params, burn_in=500, **kw):
    return ProcessConfig(kind="egarch", egarch=params, burn_in=burn_in, **kw)


def test_gaussian_mean_abs():
    assert GAUSSIAN_MEAN_ABS == pytest.approx(sqrt(2.0 / np.pi), abs=0)


def test_make_rng_is_deterministic_and_substreamed():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = make_rng(123, 0).standard_normal(5)
    d = make_rng(123, 1).standard_normal(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(c, d)


def test_egarch_parameters_must_be_real_numbers():
    good = dict(alpha0=0.0, alpha=(0.2,), beta=(0.05,), theta=0.9, lam=0.1)
    EgarchParams(**good, mean_abs_z=np.float64(0.8))
    for key, value, shown in (("alpha0", "0", "'0'"), ("theta", "x", "'x'"),
                              ("lam", None, "None"),
                              ("mean_abs_z", [0.8], "[0.8]"),
                              ("alpha", (0.2, "x"), "'x'"),
                              ("beta", ("0.05",), "'0.05'"),
                              # JSON true is not the number 1
                              ("theta", True, "True"),
                              ("alpha", (True,), "True")):
        with pytest.raises(ValueError, match=f"EGARCH {key} must be a real "
                           f"number, got {re.escape(shown)}"):
            EgarchParams(**dict(good, **{key: value}))
    # and the lags are lists, not a bare number or a string of digits
    for key, value, shown in (("alpha", 0.2, "0.2"), ("beta", 0.05, "0.05"),
                              ("beta", "0.05", "'0.05'"),
                              ("alpha", None, "None")):
        with pytest.raises(ValueError, match=f"EGARCH {key} must be a list "
                           f"of real numbers, got {re.escape(shown)}"):
            EgarchParams(**dict(good, **{key: value}))
    assert EgarchParams(**dict(good, alpha=[0.2], beta=[0.05])).beta_sum \
        == 0.05


def test_iid_innovations_moments():
    z = simulate_path(ProcessConfig(kind="iid_gaussian"), 100_000,
                      make_rng(1))
    assert abs(z.mean()) < 0.02
    assert z.std() == pytest.approx(1.0, abs=0.02)


def test_ar1_innovations_autocorrelation_and_variance():
    z = simulate_path(ProcessConfig(kind="ar1", rho=0.8), 100_000,
                      make_rng(2))
    assert z.std() == pytest.approx(1.0, abs=0.02)
    r1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert r1 == pytest.approx(0.8, abs=0.02)


def test_recursions_equal_scipy_lfilter():
    # the AR(1) innovations and the q = 1 EGARCH log-variance, against
    # the lfilter forms they replace
    from scipy.signal import lfilter

    def ar1_reference(seed, rho, size):
        eps = make_rng(seed).standard_normal(size)
        u = eps * sqrt(1.0 - rho * rho)
        u[0] = eps[0]
        return lfilter([1.0], [1.0, -rho], u)

    rng = np.random.default_rng(109)
    for _ in range(120):
        rho = float(rng.uniform(-0.99, 0.99))
        total = int(rng.integers(1, 2500))
        seed = int(rng.integers(2**31))
        z = simulate_path(ProcessConfig(kind="ar1", rho=rho), total,
                          make_rng(seed))
        assert z.tolist() == ar1_reference(seed, rho, total).tolist()

        params = EgarchParams(alpha0=float(rng.normal()),
                              alpha=(float(rng.uniform(-1, 1)),),
                              beta=(float(rng.uniform(-0.99, 0.99)),),
                              theta=float(rng.normal()),
                              lam=float(rng.uniform(0, 1)))
        burn_in = int(rng.integers(0, total))
        process = egarch(params, burn_in, rho=rho, innovation_kind="ar1")
        x = simulate_path(process, total - burn_in, make_rng(seed))
        # one start-up step (q = 1) before the burn-in
        zz = ar1_reference(seed, rho, total + 1)
        b1, init = params.beta[0], params.stationary_log_variance
        f = params.theta * zz + params.lam * (np.abs(zz) - GAUSSIAN_MEAN_ABS)
        drive = params.alpha0 + params.alpha[0] * f[:-1]
        logv = np.concatenate(([init], lfilter(
            [1.0], [1.0, -b1], drive, zi=np.array([b1 * init]))[0]))
        ref = (np.exp(0.5 * logv) * zz)[1 + burn_in:]
        assert x.tolist() == ref.tolist()


def test_ar1_requires_stationarity():
    with pytest.raises(StationarityError,
                       match=re.escape("AR(1) requires |rho| < 1, got 1.0")):
        ProcessConfig(kind="ar1", rho=1.0)


def test_egarch_degenerates_to_constant_volatility():
    # alpha_1 = 0, beta_1 = 0: log sigma^2 == alpha0 exactly
    params = EgarchParams(alpha0=0.4, alpha=(0.0,), beta=(0.0,),
                          theta=0.9, lam=0.1)
    x = simulate_path(egarch(params), 1000, make_rng(3))
    z = make_rng(3).standard_normal(1501)
    np.testing.assert_allclose(x, exp(0.2) * z[501:1501], atol=1e-14)


def test_egarch_matches_naive_recursion():
    params = EgarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.05,),
                          theta=0.9, lam=0.1)
    x = simulate_path(egarch(params, burn_in=9), 50, make_rng(4))
    # reference: explicit loop
    total = 60
    z = make_rng(4).standard_normal(total)
    f = params.theta * z + params.lam * (np.abs(z) - GAUSSIAN_MEAN_ABS)
    logv = np.empty(total)
    logv[0] = params.alpha0 / (1.0 - 0.05)
    for t in range(1, total):
        logv[t] = params.alpha0 + 0.2 * f[t - 1] + 0.05 * logv[t - 1]
    ref = (np.exp(0.5 * logv) * z)[10:]
    np.testing.assert_allclose(x, ref, atol=1e-12)


def test_egarch_higher_order_loop_path():
    params = EgarchParams(alpha0=0.0, alpha=(0.1, 0.05), beta=(0.2, 0.1),
                          theta=0.5, lam=0.3)
    x = simulate_path(egarch(params, burn_in=100), 100, make_rng(5))
    assert x.shape == (100,)
    assert np.all(np.isfinite(x))
    # the recursion sums drive, then beta_1 term, then beta_2 term
    z = make_rng(5).standard_normal(202)
    f = params.theta * z + params.lam * (np.abs(z) - GAUSSIAN_MEAN_ABS)
    logv = np.zeros(202)
    for t in range(2, 202):
        acc = params.alpha0 + 0.1 * f[t - 1]
        acc += 0.05 * f[t - 2]
        acc += 0.2 * logv[t - 1]
        acc += 0.1 * logv[t - 2]
        logv[t] = acc
    assert x.tolist() == (np.exp(0.5 * logv) * z)[102:].tolist()


def test_egarch_stationarity_is_checked_when_built():
    for beta, shown in (((1.0,), "1.0"), ((0.7, 0.8), "1.5"),
                        ((-1.5,), "1.5")):
        with pytest.raises(StationarityError, match=re.escape(
                f"|sum(beta)| = {shown} >= 1")):
            EgarchParams(alpha0=0.0, alpha=(0.2,), beta=beta,
                         theta=0.9, lam=0.1)


def test_garch11_degenerates_to_iid():
    x = simulate_path(ProcessConfig(kind="garch11", garch=(2.0, 0.0, 0.0)),
                      1000, make_rng(6))
    z = make_rng(6).standard_normal(1500)
    np.testing.assert_allclose(x, sqrt(2.0) * z[500:], atol=1e-14)


def test_garch11_stationary_variance():
    process = ProcessConfig(kind="garch11", garch=(0.5, 0.1, 0.4))
    x = simulate_path(process, 200_000, make_rng(7))
    assert np.var(x) == pytest.approx(0.5 / (1 - 0.1 - 0.4), rel=0.1)


def test_garch11_parameter_validation():
    with pytest.raises(StationarityError,
                       match=re.escape("alpha1 + beta1 = 1.1 >= 1")):
        ProcessConfig(kind="garch11", garch=(0.5, 0.6, 0.5))
    for garch in ((0.0, 0.1, 0.1), (0.5, -0.1, 0.1), (0.5, 0.1, -0.1)):
        with pytest.raises(ValueError, match=re.escape(
                "need alpha0 > 0, alpha1 >= 0, beta1 >= 0")):
            ProcessConfig(kind="garch11", garch=garch)
