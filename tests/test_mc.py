import json
import os
from math import floor

import numpy as np
import pytest
from min_pairwise_oracle import Triples

from glstat import (
    BandwidthPolicy,
    EstimatorConfig,
    ExperimentConfig,
    LrvConfig,
    ProcessConfig,
    egarch_scenario,
    estimator_q,
    load_config,
    make_rng,
    normality_summary,
    qq_points,
    run_experiment,
    simulate_path,
    write_report,
)
from glstat.errors import DegenerateVarianceError
from glstat.mc import apply_estimator, q_subsampled


def small_config(**overrides):
    base = dict(
        process=ProcessConfig(kind="iid_gaussian"),
        estimators=(EstimatorConfig(name="gini"),
                    EstimatorConfig(name="lms")),
        sample_sizes=(30, 60),
        replications=20,
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_qq_points_identity_like():
    rng = np.random.default_rng(83)
    v = rng.standard_normal(500)
    qq = qq_points(v)
    assert qq.shape == (500, 2)
    # empirical column is sorted standardized data
    z = np.sort((v - v.mean()) / v.std(ddof=1))
    np.testing.assert_allclose(qq[:, 1], z)
    assert np.corrcoef(qq[:, 0], qq[:, 1])[0, 1] > 0.99


def test_qq_points_degenerate():
    with pytest.raises(DegenerateVarianceError):
        qq_points(np.ones(10))


def test_normality_summary_gaussian():
    rng = np.random.default_rng(89)
    s = normality_summary(rng.standard_normal(5000))
    assert abs(s.mean) < 0.05
    assert s.sd == pytest.approx(1.0, abs=0.05)
    assert abs(s.skewness) < 0.1
    assert abs(s.excess_kurtosis) < 0.2
    assert s.qq_correlation > 0.999


def test_normality_summary_heavy_tail_is_flagged():
    rng = np.random.default_rng(97)
    s = normality_summary(rng.standard_t(df=2, size=5000))
    assert s.excess_kurtosis > 1.0
    assert s.qq_correlation < 0.99


def test_q_subsampled_close_to_exact():
    rng = np.random.default_rng(101)
    x = rng.standard_normal(120)
    exact = estimator_q(x, m=3, alpha=0.5)
    sub = q_subsampled(x, 3, 0.5, 300_000, make_rng(7))
    assert sub == pytest.approx(exact, abs=0.02)


def test_q_subsampled_deterministic_given_rng():
    x = np.random.default_rng(103).standard_normal(50)
    a = q_subsampled(x, 3, 0.5, 10_000, make_rng(11))
    b = q_subsampled(x, 3, 0.5, 10_000, make_rng(11))
    assert a == b


def test_q_subsampled_generic_m_matches_fast_path_quantile():
    x = np.random.default_rng(105).standard_normal(40)
    v4 = q_subsampled(x, 4, 0.5, 50_000, make_rng(13))
    assert np.isfinite(v4) and v4 > 0


def test_apply_estimator_exact_q_at_study_size():
    # C(1000, 3) = 1.7e8 triples: exact Q counts them instead of
    # enumerating; its rank must bracket k = floor(alpha N)
    x = np.random.default_rng(1).standard_normal(1000)
    q = apply_estimator(EstimatorConfig(name="q", m=3, subsample=0), x)
    H = Triples(x)
    k = max(1, floor(0.5 * H.N))
    assert H.count_lt(q) < k <= H.count_le(q)


def test_simulate_path_kinds():
    rng = make_rng(17)
    assert simulate_path(ProcessConfig(kind="iid_gaussian"), 100,
                         rng).shape == (100,)
    assert simulate_path(ProcessConfig(kind="ar1", rho=0.5), 100,
                         make_rng(17)).shape == (100,)
    garch = ProcessConfig(kind="garch11", garch=(0.5, 0.1, 0.4))
    assert simulate_path(garch, 100, make_rng(17)).shape == (100,)
    assert simulate_path(egarch_scenario(1), 100, make_rng(17)).shape == (100,)
    with pytest.raises(ValueError):
        simulate_path(ProcessConfig(kind="nope"), 10, make_rng(0))


def test_egarch_scenarios():
    s1 = egarch_scenario(1)
    assert s1.egarch.alpha == (0.2,) and s1.egarch.beta == (0.05,)
    assert s1.rho == 0.8 and s1.innovation_kind == "ar1"
    s2 = egarch_scenario(2)
    assert s2.egarch.alpha == (0.8,) and s2.egarch.beta == (0.1,)
    with pytest.raises(ValueError):
        egarch_scenario(3)


def test_config_json_round_trip(tmp_path):
    cfg = small_config(
        process=egarch_scenario(2),
        estimators=(EstimatorConfig(name="q", subsample=1000),),
        lrv=LrvConfig(bandwidth=BandwidthPolicy.power_law(2.0, 0.25)),
    )
    text = cfg.to_json()
    again = ExperimentConfig.from_json(text)
    assert again.to_json() == text
    p = tmp_path / "config.json"
    p.write_text(text)
    assert load_config(p).to_json() == text


def test_config_with_output_dir_key_loads(tmp_path):
    # configs written before output_dir was dropped still load
    d = small_config().to_dict()
    assert "output_dir" not in d
    p = tmp_path / "config.json"
    p.write_text(json.dumps(dict(d, output_dir="old_reports")))
    assert load_config(p) == small_config()


def test_run_experiment_small():
    report = run_experiment(small_config())
    assert set(report.cells) == {("gini", 30), ("gini", 60),
                                 ("lms", 30), ("lms", 60)}
    for cell in report.cells.values():
        assert cell.error is None
        assert cell.estimates.shape == (20,)
        assert cell.summary is not None
        assert cell.qq.shape == (20, 2)
        assert np.all(cell.estimates > 0)


def test_run_experiment_deterministic():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    for key in a.cells:
        np.testing.assert_array_equal(a.cells[key].estimates,
                                      b.cells[key].estimates)


def test_cells_are_independent_of_other_cells():
    # dropping an estimator or a sample size leaves the shared cells
    # bit-identical
    full = run_experiment(small_config())
    only_gini = run_experiment(small_config(
        estimators=(EstimatorConfig(name="gini"),), sample_sizes=(60,)))
    np.testing.assert_array_equal(full.cells[("gini", 60)].estimates,
                                  only_gini.cells[("gini", 60)].estimates)


def test_invalid_estimator_option_is_a_cell_error():
    # C needs alpha < 0.5; the default 0.5 fails its own cell only
    report = run_experiment(small_config(
        estimators=(EstimatorConfig(name="gini"), EstimatorConfig(name="c")),
        sample_sizes=(40,), replications=5))
    gini, c = report.cells[("gini", 40)], report.cells[("c", 40)]
    assert gini.error is None and gini.estimates.shape == (5,)
    assert c.estimates is None
    assert c.error.startswith("ValueError: alpha must be in (0, 0.5)")


def test_coverage_computed_for_gini_with_lrv():
    cfg = small_config(estimators=(EstimatorConfig(name="gini"),),
                       sample_sizes=(50,), replications=10,
                       lrv=LrvConfig())
    report = run_experiment(cfg)
    cov = report.cells[("gini", 50)].coverage
    assert cov is not None and 0.0 <= cov <= 1.0


def test_degenerate_cell_is_recorded_not_raised():
    # n below the estimator minimum is a recorded per-cell error
    cfg = small_config(estimators=(EstimatorConfig(name="q", m=3),),
                       sample_sizes=(2,), replications=5)
    report = run_experiment(cfg)
    cell = report.cells[("q", 2)]
    assert cell.error is not None and "CapacityError" in cell.error
    assert cell.estimates is None


def test_write_report(tmp_path):
    report = run_experiment(small_config(sample_sizes=(30,)))
    out = tmp_path / "out"
    manifest = write_report(report, out)
    names = sorted(os.listdir(out))
    assert "summary.csv" in names
    assert "config.json" in names
    assert "manifest.json" in names
    assert "estimates_gini_30.csv" in names
    assert "qq_lms_30.csv" in names
    with open(out / "manifest.json") as fh:
        assert json.load(fh) == manifest
    text = (out / "estimates_gini_30.csv").read_text()
    assert text.splitlines()[0] == "replication,estimate"
    assert len(text.splitlines()) == 21
    # rewriting the same report reproduces identical hashes
    manifest2 = write_report(run_experiment(small_config(sample_sizes=(30,))),
                             tmp_path / "out2")
    assert manifest2 == manifest
