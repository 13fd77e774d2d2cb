import concurrent.futures
import json
import os
import threading
import warnings
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
from glstat import mc
from glstat.errors import DegenerateVarianceError, InsufficientDataError
from glstat.mc import (
    _Q_CHUNK_ROWS,
    apply_estimator,
    q_subsampled,
    skewness_and_excess_kurtosis,
)


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


def test_moments_equal_scipy_skew_and_kurtosis():
    from scipy.stats import kurtosis, skew
    rng = np.random.default_rng(101)
    for trial in range(300):
        size = int(rng.integers(4, 3000))
        v = rng.standard_t(df=int(rng.integers(3, 30)), size=size)
        v = v * rng.uniform(1e-3, 1e3) + rng.normal(scale=100.0)
        if trial % 3 == 0:
            v = np.round(v, 1)  # ties
        sk, ku = skewness_and_excess_kurtosis(v)
        assert sk == float(skew(v))
        assert ku == float(kurtosis(v, fisher=True))
        s = normality_summary(v)
        assert (s.skewness, s.excess_kurtosis) == (sk, ku)
    for c in (0.0, 1.0, -1e6):
        sk, ku = skewness_and_excess_kurtosis(np.full(50, c))
        assert np.isnan(sk) and np.isnan(ku)
    # a mean that rounds away from the constant leaves m2 above the
    # cut-off; scipy then returns the same numbers
    v = np.full(50, 3.7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # precision loss
        expected = (float(skew(v)), float(kurtosis(v)))
    assert skewness_and_excess_kurtosis(v) == expected


def test_qq_quantiles_equal_scipy_norm_ppf():
    from scipy.stats import norm
    rng = np.random.default_rng(103)
    for r in (4, 5, 200, 500, 1001):
        grid = (np.arange(1, r + 1) - 0.5) / r
        theo = qq_points(rng.standard_normal(r))[:, 0]
        assert theo.tolist() == norm.ppf(grid).tolist()


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


def _q_subsampled_two_branch(sample, m, alpha, n_subsets, rng):
    """Frozen copy of the compacting routine with an m == 3 branch that
    the streaming q_subsampled replaced."""
    x = np.asarray(sample, dtype=float)
    n = x.size
    idx = rng.integers(0, n, size=(int(n_subsets), m))
    if m == 3:
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        distinct = (i != j) & (i != k) & (j != k)
        a, b, c = x[i[distinct]], x[j[distinct]], x[k[distinct]]
        vals = np.minimum(np.abs(a - b),
                          np.minimum(np.abs(a - c), np.abs(b - c)))
    else:
        idx.sort(axis=1)
        distinct = np.all(np.diff(idx, axis=1) > 0, axis=1)
        rows = np.sort(x[idx[distinct]], axis=1)
        vals = np.min(np.diff(rows, axis=1), axis=1)
    if vals.size == 0:
        raise DegenerateVarianceError("no distinct index subsets drawn")
    k = max(1, floor(alpha * vals.size))
    return float(np.partition(vals, k - 1)[k - 1])


def rng_state(rng):
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist())


@pytest.mark.parametrize("m", [2, 3, 4])
def test_q_subsampled_bit_identical_to_two_branch_routine(m):
    # tied data (small integers), n = m where most rows repeat an index,
    # one partial chunk, a run that ends inside a chunk, a run long
    # enough to select from the first chunk's bracket, extreme alphas,
    # and an RNG whose Philox buffer holds half a word from an earlier
    # int32 draw
    tied = np.random.default_rng(107).integers(0, 6, size=40).astype(float)
    for x in (tied, tied[:m]):
        for n_subsets in (1000, 2 * _Q_CHUNK_ROWS + 77,
                          4 * _Q_CHUNK_ROWS + 77):
            for warm in (False, True):
                for alpha in (0.01, 0.2, 0.5, 0.99):
                    old, new = make_rng(m), make_rng(m)
                    if warm:
                        old.integers(0, 10, dtype=np.int32)
                        new.integers(0, 10, dtype=np.int32)
                    want = _q_subsampled_two_branch(x, m, alpha, n_subsets,
                                                    old)
                    assert q_subsampled(x, m, alpha, n_subsets, new) == want
                    assert rng_state(new) == rng_state(old)


def test_q_subsampled_replays_the_stream_when_the_bracket_misses(
        monkeypatch):
    # a zero-width bracket around the first chunk's quantile misses the
    # selected gap of a continuous sample, so the stream is replayed
    bracket, results = mc._q_in_bracket, []

    def in_bracket(*args):
        results.append(bracket(*args))
        return results[-1]

    monkeypatch.setattr(mc, "_q_in_bracket", in_bracket)
    monkeypatch.setattr(mc, "_Q_BRACKET_SD", 0)
    x = simulate_path(egarch_scenario(1), 1000, make_rng(5))
    for m in (2, 3):
        old, new = make_rng(m), make_rng(m)
        want = _q_subsampled_two_branch(x, m, 0.5, 4 * _Q_CHUNK_ROWS + 77,
                                        old)
        assert q_subsampled(x, m, 0.5, 4 * _Q_CHUNK_ROWS + 77, new) == want
        assert rng_state(new) == rng_state(old)
    assert results == [None, None]


def test_q_subsampled_draws_ahead_on_one_thread_only_past_one_chunk(
        monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingPool)
    x = np.arange(50.0)
    threads = threading.active_count()
    q_subsampled(x, 3, 0.5, _Q_CHUNK_ROWS, make_rng(1))
    assert pools == []
    q_subsampled(x, 3, 0.5, _Q_CHUNK_ROWS + 1, make_rng(1))
    assert pools == [1]
    assert threading.active_count() == threads


# float.hex of q_subsampled on numpy's standard normals from a fixed
# seed, computed by the routine that drew one chunk at a time on the
# calling thread and partitioned all n_subsets gaps
Q_SUBSAMPLED_GOLDEN = {
    (2, 300_000): "0x1.f3d884b075acdp-1",
    (2, 2_000_000): "0x1.f39ac255da266p-1",
    (3, 300_000): "0x1.7bad6c8360dd4p-2",
    (3, 2_000_000): "0x1.797b2d78f3267p-2",
    (4, 300_000): "0x1.8afd9b46a2d4cp-3",
    (4, 2_000_000): "0x1.8ca3afa72e2bcp-3",
}


@pytest.mark.parametrize("m, n_subsets", sorted(Q_SUBSAMPLED_GOLDEN))
def test_q_subsampled_golden_values(m, n_subsets):
    x = np.random.default_rng(2017).standard_normal(1000)
    got = q_subsampled(x, m, 0.5, n_subsets, make_rng(1234))
    assert float.hex(got) == Q_SUBSAMPLED_GOLDEN[m, n_subsets]


@pytest.mark.parametrize("m, alpha, n_subsets, sample", [
    (1, 0.5, 100, None),
    (3, 1.5, 100, None),
    (3, 0.0, 100, None),
    (3, 0.5, 0, None),
    (3, 0.5, -5, None),
    (3, 0.5, 100, [0.3, float("nan"), 1.2, 2.0]),
    (3, 0.5, 2.5, None),
])
def test_q_subsampled_rejects_bad_arguments_before_drawing(
        m, alpha, n_subsets, sample):
    x = np.arange(10.0) if sample is None else sample
    rng = make_rng(3)
    before = rng_state(rng)
    with pytest.raises(ValueError):
        q_subsampled(x, m, alpha, n_subsets, rng)
    assert rng_state(rng) == before


def test_q_subsampled_empty_or_too_short_sample():
    with pytest.raises(InsufficientDataError):
        q_subsampled([], 3, 0.5, 100, make_rng(3))
    # n < m: every row would repeat an index, so nothing is drawn
    rng = make_rng(3)
    before = rng_state(rng)
    with pytest.raises(DegenerateVarianceError,
                       match="no distinct index subsets drawn"):
        q_subsampled([1.0, 2.0], 3, 0.5, 100, rng)
    assert rng_state(rng) == before


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


def test_duplicate_estimator_labels_are_rejected():
    # both subsampled Q estimators are labelled q_sub and would share
    # one RNG substream and one report cell
    with pytest.raises(ValueError, match="duplicate estimator label 'q_sub'"):
        small_config(estimators=(
            EstimatorConfig(name="q", subsample=1000),
            EstimatorConfig(name="q", m=4, alpha=0.25, subsample=1000)))
    d = small_config().to_dict()
    d["estimators"].append(d["estimators"][0])
    with pytest.raises(ValueError, match="duplicate estimator label 'gini'"):
        ExperimentConfig.from_dict(d)


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


def test_coverage_computed_for_gini_with_lrv(tmp_path):
    cfg = small_config(estimators=(EstimatorConfig(name="gini"),),
                       sample_sizes=(50,), replications=10,
                       lrv=LrvConfig())
    report = run_experiment(cfg)
    cov = report.cells[("gini", 50)].coverage
    assert cov is not None and 0.0 <= cov <= 1.0
    # the lag window is Bartlett, and config.json says so
    write_report(report, tmp_path / "out")
    written = json.loads((tmp_path / "out" / "config.json").read_text())
    assert written["lrv"]["weight"] == "bartlett"


def test_degenerate_cell_is_recorded_not_raised():
    # n below the estimator minimum is a recorded per-cell error, the
    # estimator's own
    cfg = small_config(estimators=(EstimatorConfig(name="q", m=3),
                                   EstimatorConfig(name="q", m=3,
                                                   subsample=1000)),
                       sample_sizes=(2,), replications=5)
    report = run_experiment(cfg)
    cell = report.cells[("q", 2)]
    assert cell.error is not None and "InsufficientDataError" in cell.error
    assert cell.estimates is None
    cell = report.cells[("q_sub", 2)]
    assert cell.error == ("DegenerateVarianceError: no distinct index "
                          "subsets drawn")
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
