import concurrent.futures
import hashlib
import json
import os
import threading
import warnings
from math import floor
from unittest import mock

import numpy as np
import pytest
from min_pairwise_oracle import Triples

import glstat.lrv
from glstat import (
    BandwidthPolicy,
    EgarchParams,
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
from glstat.gl import point_estimate
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


# Philox, every experiment's generator, is the case named by m alone
@pytest.mark.parametrize("m, bit_generator", [
    pytest.param(m, bg, id=str(m) if bg == "Philox" else f"{m}-{bg}")
    for bg in ("Philox", "PCG64", "MT19937") for m in (2, 3, 4)])
def test_q_subsampled_bit_identical_to_two_branch_routine(m, bit_generator):
    # tied data (small integers), n = m where most rows repeat an index,
    # one partial chunk, a run that ends inside a chunk, a run long
    # enough to select from the first chunk's bracket, extreme alphas,
    # and an RNG whose buffer holds half a word from an earlier int32
    # draw; any numpy bit generator, MT19937 (32-bit words) among them
    tied = np.random.default_rng(107).integers(0, 6, size=40).astype(float)
    for x in (tied, tied[:m]):
        for n_subsets in (1000, 2 * _Q_CHUNK_ROWS + 77,
                          4 * _Q_CHUNK_ROWS + 77):
            for warm in (False, True):
                for alpha in (0.01, 0.2, 0.5, 0.99):
                    old, new = (np.random.Generator(getattr(
                        np.random, bit_generator)(np.random.SeedSequence(m)))
                        for _ in range(2))
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
    # selected gap of a continuous sample, so the stream is replayed once
    # through the same selection with an unbounded bracket
    bracket, calls = mc._q_in_bracket, []

    def in_bracket(*args):
        calls.append((args[-1], bracket(*args)))
        return calls[-1][1]

    monkeypatch.setattr(mc, "_q_in_bracket", in_bracket)
    monkeypatch.setattr(mc, "_Q_BRACKET_SD", 0)
    x = simulate_path(egarch_scenario(1), 1000, make_rng(5))
    for m in (2, 3):
        old, new = make_rng(m), make_rng(m)
        want = _q_subsampled_two_branch(x, m, 0.5, 4 * _Q_CHUNK_ROWS + 77,
                                        old)
        calls.clear()
        assert q_subsampled(x, m, 0.5, 4 * _Q_CHUNK_ROWS + 77, new) == want
        assert rng_state(new) == rng_state(old)
        assert calls == [(0, None), (float("inf"), want)]


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
    (3, 0.5, True, None),  # JSON true is not one subset
    (2.5, 0.5, 100, None),  # m is not truncated to 2
    (3, "0.5", 100, None),
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
    # n = m: the one row drawn from seed 0 repeats an index
    assert make_rng(0).integers(0, 2, size=(1, 2)).tolist() == [[0, 0]]
    with pytest.raises(DegenerateVarianceError,
                       match="no distinct index subsets drawn"):
        q_subsampled([1.0, 2.0], 2, 0.5, 1, make_rng(0))


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
    # an unknown kind fails when the process is built, not simulated
    with pytest.raises(ValueError, match="unknown process kind 'nope'"):
        ProcessConfig(kind="nope")
    # and so does a kind without the parameters simulate_path reads; an
    # egarch dict from Python is not EgarchParams
    for bad in ({"kind": "garch11"}, {"kind": "garch11", "garch": (1, 2)},
                {"kind": "garch11", "garch": (0.5, "0.1", 0.4)},
                {"kind": "egarch", "rho": 0.8},
                {"kind": "egarch", "egarch": {"alpha0": 0.0}},
                {"kind": "egarch",
                 "egarch": egarch_scenario(1).to_dict()["egarch"]}):
        with pytest.raises(ValueError, match=f"'{bad['kind']}' needs"):
            ProcessConfig(**bad)
    # n is checked for every kind before anything is drawn
    for process in (ProcessConfig(kind="iid_gaussian"),
                    ProcessConfig(kind="ar1", rho=0.5), garch,
                    egarch_scenario(1)):
        for n in (0, -3):
            with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
                simulate_path(process, n, rng)
    assert simulate_path(ProcessConfig(kind="iid_gaussian"), 1,
                         rng).shape == (1,)


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
        lrv=LrvConfig(bandwidth=BandwidthPolicy(kind="power_law", c=2.0,
                                                e=0.25)),
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
    # a name outside the catalog fails before any cell runs, too
    d["estimators"][-1] = {"name": "ginni"}
    with pytest.raises(ValueError, match="unknown estimator 'ginni'"):
        ExperimentConfig.from_dict(d)


def test_sample_sizes_below_one_are_rejected():
    for sizes in ((0,), (100, -3)):
        with pytest.raises(ValueError, match="sample sizes must be >= 1"):
            small_config(sample_sizes=sizes)
    d = dict(small_config().to_dict(), sample_sizes=[50, 0])
    with pytest.raises(ValueError, match="sample sizes must be >= 1, got 0"):
        ExperimentConfig.from_dict(d)


def test_cell_keys_are_unique_and_some_cell_runs():
    # (label, n) keys a cell: a repeated n would run one cell three times
    # and report one of them, and an empty list would write an empty report
    with pytest.raises(ValueError, match="duplicate sample size 50"):
        small_config(sample_sizes=(50, 50, 50))
    for name in ("estimators", "sample_sizes"):
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            small_config(**{name: ()})


@pytest.mark.parametrize("name", ["gini", "c", "lms"])
def test_subsample_is_read_by_q_only(name):
    # it would run the exact estimator under its own label, and write the
    # subsample into config.json
    with pytest.raises(ValueError, match="subsample is read by the q "
                                         "estimator only, got 1000"):
        EstimatorConfig(name=name, subsample=1000)
    assert EstimatorConfig(name=name, subsample=0).label == name
    assert EstimatorConfig(name="q", subsample=1000).label == "q_sub"


def test_non_integral_counts_are_rejected_not_truncated():
    base = small_config().to_dict()
    for key, value, what, shown in (
            ("sample_sizes", [100.7], "sample size", "100.7"),
            ("sample_sizes", [50, 60.0], "sample size", "60.0"),
            ("replications", 8.9, "replications", "8.9"),
            ("replications", 20.0, "replications", "20.0"),
            ("seed", 2.5, "seed", "2.5")):
        with pytest.raises(ValueError,
                           match=f"{what} must be an integer, got {shown}"):
            ExperimentConfig.from_dict(dict(base, **{key: value}))
    with pytest.raises(ValueError, match="seed must be an integer"):
        small_config(seed=1000.0)
    # numpy integers are integers
    assert small_config(sample_sizes=(np.int64(30), 60)) == small_config()


def test_estimator_option_types_are_checked_when_built():
    for key, value, err in (("m", 2.5, "m must be an integer, got 2.5"),
                            ("m", "3", "m must be an integer, got '3'"),
                            ("alpha", "0.5",
                             "alpha must be a real number, got '0.5'"),
                            ("c_alpha", None,
                             "c_alpha must be a real number, got None")):
        with pytest.raises(ValueError, match=err):
            EstimatorConfig(name="q", **{key: value})
        with pytest.raises(ValueError, match=err):
            ExperimentConfig.from_dict(dict(
                small_config().to_dict(),
                estimators=[{"name": "q", key: value}]))
    # numpy numbers are numbers
    assert EstimatorConfig(name="q", m=np.int64(3), alpha=np.float64(0.5)) \
        == EstimatorConfig(name="q")


def test_block_types_are_checked_when_built():
    # from Python, a dict in place of a block is an error when the config
    # is built, not an AttributeError inside a cell; from_dict builds the
    # blocks, so config files never reach these checks
    for key, value, err in (
            ("process", {"kind": "ar1"},
             "process must be of type ProcessConfig"),
            ("estimators", ({"name": "gini"},),
             "estimator must be of type EstimatorConfig"),
            ("lrv", {"weight": "bartlett"}, "lrv must be of type LrvConfig"),
            ("lrv", {}, "lrv must be of type LrvConfig")):
        with pytest.raises(ValueError, match=err):
            small_config(**{key: value})
    assert small_config(lrv=None).lrv is None


def test_config_containers_are_checked_and_stored_as_tuples():
    for key, value in (("sample_sizes", 30), ("sample_sizes", "30"),
                       ("estimators", EstimatorConfig(name="gini"))):
        with pytest.raises(ValueError, match=f"{key} must be a tuple or list"):
            small_config(**{key: value})
    cfg = small_config(sample_sizes=[50, 100],
                       estimators=[EstimatorConfig(name="gini")])
    assert cfg.sample_sizes == (50, 100)
    assert cfg.estimators == (EstimatorConfig(name="gini"),)
    assert hash(cfg) == hash(small_config(
        sample_sizes=(50, 100), estimators=(EstimatorConfig(name="gini"),)))


def test_lag_and_garch_lists_are_stored_as_tuples():
    # a list from Python would leave the frozen params unhashable
    eg = dict(alpha0=0.0, theta=0.9, lam=0.1)
    eg_list = EgarchParams(alpha=[0.2], beta=[0.05], **eg)
    eg_tuple = EgarchParams(alpha=(0.2,), beta=(0.05,), **eg)
    garch_list = ProcessConfig(kind="garch11", garch=[0.1, 0.1, 0.8])
    garch_tuple = ProcessConfig(kind="garch11", garch=(0.1, 0.1, 0.8))
    # a garch block that the kind does not read is kept, as a tuple too
    assert hash(ProcessConfig(kind="ar1", garch=[0.1, 0.1, 0.8])) == hash(
        ProcessConfig(kind="ar1", garch=(0.1, 0.1, 0.8)))
    egarch_list = ProcessConfig(kind="egarch", rho=0.8, egarch=eg_list,
                                innovation_kind="ar1")
    for built, want in ((eg_list, eg_tuple), (garch_list, garch_tuple),
                        (egarch_list, egarch_scenario(1))):
        assert built == want and hash(built) == hash(want)
    for built, want in ((garch_list, garch_tuple),
                        (egarch_list, egarch_scenario(1))):
        assert built.to_dict() == want.to_dict()
        assert (small_config(process=built).to_json()
                == small_config(process=want).to_json())
    assert garch_list.to_dict()["garch"] == [0.1, 0.1, 0.8]


def test_to_dict_values_are_pinned():
    cfg = ExperimentConfig(
        process=ProcessConfig(kind="garch11", garch=(0.1, 0.1, 0.8)),
        estimators=(EstimatorConfig(name="c", alpha=0.25),),
        sample_sizes=(30,), replications=4,
        lrv=LrvConfig(bandwidth=BandwidthPolicy(kind="fixed", b=3.0)))
    assert cfg.to_dict() == {
        "process": {"kind": "garch11", "rho": 0.0, "burn_in": 500,
                    "innovation_kind": "iid_gaussian",
                    "garch": [0.1, 0.1, 0.8]},
        "estimators": [{"name": "c", "m": 3, "alpha": 0.25,
                        "c_alpha": 1.0, "subsample": 0}],
        "sample_sizes": [30], "replications": 4, "seed": 0,
        "ci_level": 0.95,
        "lrv": {"weight": "bartlett",
                "bandwidth": {"kind": "fixed", "b": 3.0, "c": 1.0,
                              "e": 1.0 / 3.0},
                "density_halfwidth_c": 0.5,
                "normalization": "combinatorial"}}
    assert egarch_scenario(2).to_dict() == {
        "kind": "egarch", "rho": 0.8, "burn_in": 500,
        "innovation_kind": "ar1",
        "egarch": {"alpha0": 0.0, "alpha": (0.8,), "beta": (0.1,),
                   "theta": 0.9, "lam": 0.1,
                   "mean_abs_z": egarch_scenario(2).egarch.mean_abs_z}}
    assert "lrv" not in small_config().to_dict()


def test_config_with_output_dir_key_loads(tmp_path):
    # configs written before output_dir was dropped still load
    d = small_config().to_dict()
    assert "output_dir" not in d
    p = tmp_path / "config.json"
    p.write_text(json.dumps(dict(d, output_dir="old_reports")))
    assert load_config(p) == small_config()
    # a key that names no field is an error in every other case, in the
    # process, egarch, lrv and bandwidth blocks too
    d = json.loads(small_config(process=egarch_scenario(1),
                                lrv=LrvConfig()).to_json())
    for block, what in ((d["process"], "process"),
                        (d["process"]["egarch"], "egarch"),
                        (d["lrv"], "lrv"),
                        (d["lrv"]["bandwidth"], "bandwidth"),
                        (d, "experiment")):
        block["note"] = 1
        with pytest.raises(ValueError,
                           match=f"unknown {what} option 'note'"):
            ExperimentConfig.from_dict(d)
        del block["note"]


def test_lrv_block_normalization_key():
    # configs written while the projection had two normalizations carry
    # the key; its one remaining value loads, any other fails
    d = small_config(lrv=LrvConfig()).to_dict()
    assert d["lrv"]["normalization"] == "combinatorial"
    for lrv in ({"weight": "bartlett", "normalization": "combinatorial"},
                d["lrv"]):
        assert ExperimentConfig.from_dict(dict(d, lrv=lrv)).lrv == LrvConfig()
    for norm in ("paper_literal", None, "Combinatorial"):
        with pytest.raises(ValueError, match="normalization is combinatorial "
                           "only"):
            ExperimentConfig.from_dict(
                dict(d, lrv={"weight": "bartlett", "normalization": norm}))


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


def test_qq_points_are_computed_once_per_cell():
    # the cell's QQ points feed its normality summary too
    with mock.patch.object(mc, "qq_points", wraps=mc.qq_points) as qq:
        report = run_experiment(small_config())
    assert qq.call_count == len(report.cells) == 4
    for cell in report.cells.values():
        assert cell.summary == normality_summary(cell.estimates)


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


@pytest.mark.parametrize("name", ["gini", "q"])
def test_coverage_computed_with_lrv(tmp_path, name):
    # every estimator with a GL spec gets intervals; exact Q through
    # q_gl_spec, Gini through gini_gl_spec
    cfg = small_config(estimators=(EstimatorConfig(name=name),),
                       sample_sizes=(50,), replications=10,
                       lrv=LrvConfig())
    report = run_experiment(cfg)
    cell = report.cells[(name, 50)]
    assert cell.error is None
    assert cell.coverage is not None and 0.0 <= cell.coverage <= 1.0
    # the lag window is Bartlett, and config.json says so
    write_report(report, tmp_path / "out")
    written = json.loads((tmp_path / "out" / "config.json").read_text())
    assert written["lrv"]["weight"] == "bartlett"


def test_interval_cells_take_the_estimate_from_the_plugin():
    # one H_n per replication: the estimate is the interval's own
    # plug-in T(H_n), == the catalog estimator's on every path
    cfg = small_config(
        process=egarch_scenario(1),
        estimators=(EstimatorConfig(name="gini"),
                    EstimatorConfig(name="q", m=3)),
        sample_sizes=(50, 400), replications=5, lrv=LrvConfig())
    with mock.patch.object(mc, "build_plugin",
                           wraps=mc.build_plugin) as built, \
            mock.patch.object(mc, "point_estimate",
                              wraps=mc.point_estimate) as estimated, \
            mock.patch.object(glstat.lrv, "build_plugin",
                              side_effect=AssertionError("rebuilt")):
        report = run_experiment(cfg)
    assert built.call_count == 2 * 2 * 5 and estimated.call_count == 0
    for est in cfg.estimators:
        for n in cfg.sample_sizes:
            cell = report.cells[(est.label, n)]
            assert cell.error is None and cell.coverage is not None
            for rep in range(5):
                rng = mc._cell_rng(cfg.seed, est.label, n, rep)
                path = simulate_path(cfg.process, n, rng)
                assert cell.estimates[rep] == point_estimate(est.name, path,
                                                             est)
    # a sample too short for the estimator fails with the same error
    # with or without an lrv block
    for lrv in (LrvConfig(), None):
        short = run_experiment(small_config(
            estimators=(EstimatorConfig(name="q", m=3),
                        EstimatorConfig(name="gini")),
            sample_sizes=(1, 2), replications=4, lrv=lrv))
        assert short.cells[("q", 2)].error == (
            "InsufficientDataError: need at least m=3 observations, got n=2")
        assert short.cells[("gini", 1)].error == (
            "InsufficientDataError: need at least m=2 observations, got n=1")


def test_interval_cell_reraises_the_plugin_error():
    # at n = 3 exact Q has one kernel value: the estimator succeeds, the
    # plug-in's density fails, and the cell records the plug-in's error
    report = run_experiment(small_config(
        estimators=(EstimatorConfig(name="q", m=3),), sample_sizes=(3,),
        replications=4, lrv=LrvConfig()))
    cell = report.cells[("q", 3)]
    assert cell.estimates is None
    assert cell.error == ("DegenerateDensityError: kernel-value "
                          "interquartile range is zero; H_n is (locally) "
                          "flat")


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


@pytest.mark.parametrize("r", [4, 5])
def test_q_sub_cell_halves_equal_an_in_order_recomputation(r):
    # the two halves of the replications run on two threads; each
    # estimate is still that of its own substream, over several chunks
    est = EstimatorConfig(name="q", subsample=2 * _Q_CHUNK_ROWS + 77)
    cfg = small_config(process=egarch_scenario(1), estimators=(est,),
                       sample_sizes=(80,), replications=r)
    cell = run_experiment(cfg).cells[("q_sub", 80)]
    assert cell.error is None and cell.estimates.shape == (r,)
    for rep in range(r):
        rng = mc._cell_rng(cfg.seed, "q_sub", 80, rep)
        path = simulate_path(cfg.process, 80, rng)
        assert cell.estimates[rep] == apply_estimator(est, path, rng)


@pytest.mark.parametrize("failing, recorded", [((1, 3), 1), ((3,), 3),
                                               ((2, 3), 2)])
def test_q_sub_cell_records_the_first_failing_replication(
        monkeypatch, failing, recorded):
    # replications 0-1 run on this thread, 2-3 on the worker: the cell
    # records the error a loop in replication order would raise
    cell_rng, reps = mc._cell_rng, {}

    def keyed(seed, label, n, rep):
        rng = cell_rng(seed, label, n, rep)
        reps[id(rng)] = rep
        return rng

    def apply(est, path, rng):
        rep = reps[id(rng)]
        if rep in failing:
            raise DegenerateVarianceError(f"replication {rep}")
        return float(rep)

    monkeypatch.setattr(mc, "_cell_rng", keyed)
    monkeypatch.setattr(mc, "apply_estimator", apply)
    threads = threading.active_count()
    report = run_experiment(small_config(
        estimators=(EstimatorConfig(name="q", subsample=100),),
        sample_sizes=(30,), replications=4))
    cell = report.cells[("q_sub", 30)]
    assert cell.error == f"DegenerateVarianceError: replication {recorded}"
    assert cell.estimates is None
    assert threading.active_count() == threads


def test_one_worker_thread_per_q_sub_cell_only(monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingPool)
    threads = threading.active_count()
    serial = (EstimatorConfig(name="gini"), EstimatorConfig(name="lms"),
              EstimatorConfig(name="c", alpha=0.25), EstimatorConfig(name="q"))
    run_experiment(small_config(estimators=serial, replications=4))
    run_experiment(small_config(  # interval (spec) cells
        estimators=(EstimatorConfig(name="gini"), EstimatorConfig(name="q")),
        sample_sizes=(30,), replications=4, lrv=LrvConfig()))
    assert pools == []
    run_experiment(small_config(
        estimators=(*serial, EstimatorConfig(name="q", subsample=1000)),
        replications=4))
    assert pools == [1, 1]  # one pool of one worker per q_sub cell
    assert threading.active_count() == threads


def test_constant_cell_is_a_degenerate_variance(monkeypatch):
    # every replication gives the same estimate: the QQ points have no
    # scale, and the cell records qq_points' error
    monkeypatch.setattr(mc, "apply_estimator", lambda est, path, rng: 1.0)
    report = run_experiment(small_config(sample_sizes=(30,)))
    for label in ("gini", "lms"):
        cell = report.cells[(label, 30)]
        assert cell.error == ("DegenerateVarianceError: zero variance "
                              "across replications")
        assert cell.summary is None and cell.qq is None
        np.testing.assert_array_equal(cell.estimates, np.ones(20))


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


# sha256 of manifest.json for the config below: every catalog estimator,
# q_sub, interval cells and the failing n = 2 cells write into it, so a
# refactor that moves one bit of any report file fails here.  Change it
# only with a change of output that is meant.
REPORT_MANIFEST_SHA256 = (
    "9bcaf83c187ae5daad58a1284ab349e5b73447266d3bbf042e6931c3abe64739")


def test_report_manifest_is_pinned(tmp_path):
    config = ExperimentConfig(
        process=egarch_scenario(1),
        estimators=(EstimatorConfig(name="gini"),
                    EstimatorConfig(name="lms"),
                    EstimatorConfig(name="c", alpha=0.25),
                    EstimatorConfig(name="q"),
                    EstimatorConfig(name="q", subsample=20_000)),
        sample_sizes=(2, 50, 120), replications=6, lrv=LrvConfig(),
        ci_level=0.9)
    write_report(run_experiment(config), tmp_path)
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes())
    assert digest.hexdigest() == REPORT_MANIFEST_SHA256
