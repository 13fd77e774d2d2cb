from math import exp, sqrt

import numpy as np
import pytest

from glstat import (
    EgarchParams,
    GAUSSIAN_MEAN_ABS,
    InnovationModel,
    InsufficientDataError,
    SimConfig,
    StationarityError,
    check_egarch_conditions,
    make_rng,
    simulate_egarch,
    simulate_garch11,
    simulate_innovations,
)


def test_gaussian_mean_abs():
    assert GAUSSIAN_MEAN_ABS == pytest.approx(sqrt(2.0 / np.pi), abs=0)


def test_make_rng_is_deterministic_and_substreamed():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = make_rng(123, replication=0).standard_normal(5)
    d = make_rng(123, replication=1).standard_normal(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(c, d)


def test_iid_innovations_moments():
    z = simulate_innovations(InnovationModel(), 100_000, make_rng(1))
    assert abs(z.mean()) < 0.02
    assert z.std() == pytest.approx(1.0, abs=0.02)


def test_ar1_innovations_autocorrelation_and_variance():
    model = InnovationModel(kind="ar1", rho=0.8)
    z = simulate_innovations(model, 100_000, make_rng(2))
    assert z.std() == pytest.approx(1.0, abs=0.02)
    r1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert r1 == pytest.approx(0.8, abs=0.02)


def test_recursions_equal_scipy_lfilter():
    # the AR(1) innovations and the q = 1 EGARCH log-variance, against
    # the lfilter forms they replace
    from scipy.signal import lfilter
    rng = np.random.default_rng(109)
    for _ in range(120):
        rho = float(rng.uniform(-0.99, 0.99))
        total = int(rng.integers(1, 2500))
        seed = int(rng.integers(2**31))
        z = simulate_innovations(InnovationModel(kind="ar1", rho=rho),
                                 total, make_rng(seed))
        eps = make_rng(seed).standard_normal(total)
        u = eps * sqrt(1.0 - rho * rho)
        u[0] = eps[0]
        assert z.tolist() == lfilter([1.0], [1.0, -rho], u).tolist()

        params = EgarchParams(alpha0=float(rng.normal()),
                              alpha=(float(rng.uniform(-1, 1)),),
                              beta=(float(rng.uniform(-0.99, 0.99)),),
                              theta=float(rng.normal()),
                              lam=float(rng.uniform(0, 1)))
        burn_in = int(rng.integers(0, total))
        sim = SimConfig(n=total - burn_in, burn_in=burn_in)
        zz = np.concatenate(([float(rng.normal())], z))
        x = simulate_egarch(params, zz, sim)
        b1, init = params.beta[0], params.stationary_log_variance
        f = params.theta * zz + params.lam * (np.abs(zz) - GAUSSIAN_MEAN_ABS)
        drive = params.alpha0 + params.alpha[0] * f[:-1]
        logv = np.concatenate(([init], lfilter(
            [1.0], [1.0, -b1], drive, zi=np.array([b1 * init]))[0]))
        ref = (np.exp(0.5 * logv) * zz)[1 + burn_in:]
        assert x.tolist() == ref.tolist()


def test_ar1_requires_stationarity():
    with pytest.raises(StationarityError):
        InnovationModel(kind="ar1", rho=1.0)


def test_egarch_degenerates_to_constant_volatility():
    # alpha_1 = 0, beta_1 = 0: log sigma^2 == alpha0 exactly
    params = EgarchParams(alpha0=0.4, alpha=(0.0,), beta=(0.0,),
                          theta=0.9, lam=0.1)
    z = simulate_innovations(InnovationModel(), 2000, make_rng(3))
    x = simulate_egarch(params, z, SimConfig(n=1000, burn_in=500))
    np.testing.assert_allclose(x, exp(0.2) * z[501:1501], atol=1e-14)


def test_egarch_matches_naive_recursion():
    params = EgarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.05,),
                          theta=0.9, lam=0.1)
    z = simulate_innovations(InnovationModel(), 60, make_rng(4))
    sim = SimConfig(n=50, burn_in=9)
    x = simulate_egarch(params, z, sim)
    # reference: explicit loop
    total = 60
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
    z = simulate_innovations(InnovationModel(), 300, make_rng(5))
    x = simulate_egarch(params, z, SimConfig(n=100, burn_in=100))
    assert x.shape == (100,)
    assert np.all(np.isfinite(x))
    # the recursion sums drive, then beta_1 term, then beta_2 term
    f = params.theta * z + params.lam * (np.abs(z) - GAUSSIAN_MEAN_ABS)
    logv = np.zeros(202)
    for t in range(2, 202):
        acc = params.alpha0 + 0.1 * f[t - 1]
        acc += 0.05 * f[t - 2]
        acc += 0.2 * logv[t - 1]
        acc += 0.1 * logv[t - 2]
        logv[t] = acc
    assert x.tolist() == (np.exp(0.5 * logv) * z[:202])[102:].tolist()


def test_egarch_stationarity_and_length_checks():
    bad = EgarchParams(alpha0=0.0, alpha=(0.2,), beta=(1.0,),
                       theta=0.9, lam=0.1)
    z = np.zeros(2000)
    with pytest.raises(StationarityError):
        simulate_egarch(bad, z, SimConfig(n=100))
    ok = EgarchParams(alpha0=0.0, alpha=(0.2,), beta=(0.05,),
                      theta=0.9, lam=0.1)
    with pytest.raises(InsufficientDataError):
        simulate_egarch(ok, np.zeros(10), SimConfig(n=100, burn_in=500))


def test_garch11_degenerates_to_iid():
    z = simulate_innovations(InnovationModel(), 1500, make_rng(6))
    x = simulate_garch11(2.0, 0.0, 0.0, z, SimConfig(n=1000, burn_in=500))
    np.testing.assert_allclose(x, sqrt(2.0) * z[500:], atol=1e-14)


def test_garch11_stationary_variance():
    z = simulate_innovations(InnovationModel(), 200_500, make_rng(7))
    x = simulate_garch11(0.5, 0.1, 0.4, z, SimConfig(n=200_000, burn_in=500))
    assert np.var(x) == pytest.approx(0.5 / (1 - 0.1 - 0.4), rel=0.1)


def test_garch11_parameter_validation():
    z = np.zeros(100)
    with pytest.raises(StationarityError):
        simulate_garch11(0.5, 0.6, 0.5, z, SimConfig(n=10, burn_in=0))
    with pytest.raises(ValueError):
        simulate_garch11(0.0, 0.1, 0.1, z, SimConfig(n=10, burn_in=0))


def test_egarch_diagnostics():
    ok = EgarchParams(alpha0=0.0, alpha=(0.2,), beta=(0.05,),
                      theta=0.9, lam=0.1)
    diag = check_egarch_conditions(ok, InnovationModel(kind="ar1", rho=0.8))
    assert diag.stationarity_ok
    assert diag.beta_sum == pytest.approx(0.05)
    assert diag.stationary_log_variance == pytest.approx(0.0)
    assert not diag.innovations_bounded
    bad = EgarchParams(alpha0=0.0, alpha=(0.2,), beta=(0.6, 0.5),
                       theta=0.9, lam=0.1)
    diag = check_egarch_conditions(bad, InnovationModel())
    assert not diag.stationarity_ok
    assert any("stationary" in note for note in diag.notes)
