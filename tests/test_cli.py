import json
from math import comb

import numpy as np
import pytest
from min_pairwise_oracle import q_interval

from glstat import GlstatError, builtin_kernel
from glstat.cli import read_series, run_cli
from glstat.ustat import tail_sums


@pytest.fixture
def three_csv(tmp_path):
    p = tmp_path / "three.csv"
    p.write_text("x\n0.0\n1.0\n2.0\n")
    return str(p)


def test_read_series_with_and_without_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("x\n1.0\n2.5\n")
    np.testing.assert_array_equal(read_series(p), [1.0, 2.5])
    q = tmp_path / "b.csv"
    q.write_text("1.0\n2.5\n\n")
    np.testing.assert_array_equal(read_series(q), [1.0, 2.5])
    # the header is case-insensitive and stripped; blank rows and blank
    # first fields are skipped; quoted fields and extra columns go
    # through csv; float() parses each cell
    r = tmp_path / "c.csv"
    r.write_text(' X \n\n1e3, 7\n ,9\n"-0.5",a,b\n" 4 "\n')
    np.testing.assert_array_equal(read_series(r), [1000.0, -0.5, 4.0])
    # an x counts as the header only on the first row
    for text in ("1.0\nx\n", "\nx\n1.0\n"):
        r.write_text(text)
        with pytest.raises(ValueError):
            read_series(r)
    for text in ("", "x\n", "\n , \n"):
        r.write_text(text)
        with pytest.raises(GlstatError, match="no data"):
            read_series(r)


def test_estimate_gini(three_csv, capsys):
    assert run_cli(["estimate", "--estimator", "gini",
                    "--input", three_csv]) == 0
    assert capsys.readouterr().out.strip() == "1.3333333333333333"


@pytest.mark.parametrize("name", ["gini", "gini_os"])
def test_estimate_gini_at_study_size(tmp_path, capsys, name):
    # C(15000, 2) pairs would exceed the enumeration cap; estimate, lrv
    # and ci all take the O(n log n) route under both names
    n = 15000
    x = np.random.default_rng(113).standard_normal(n)
    p = tmp_path / "g.csv"
    p.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in x))
    assert run_cli(["estimate", "--estimator", name, "--input", str(p)]) == 0
    # prefix sums over the sorted sample: sum over j of
    # (j x_(j) - sum_{i<j} x_(i)), over the number of pairs
    xs = np.sort(x)
    below = np.concatenate(([0.0], np.cumsum(xs)[:-1]))
    want = np.sum(np.arange(n) * xs - below) / (n * (n - 1) / 2)
    assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-9)
    # A1(x_i) = (1/n) sum_j |x_i - x_j| - U, from the same prefix sums,
    # put back in time order
    j = np.arange(n)
    above = np.sum(xs) - below - xs
    a1 = np.empty(n)
    a1[np.argsort(x)] = (j * xs - below + above - (n - 1 - j) * xs) / n - want
    b = 24  # floor(15000^(1/3))
    sigma2 = np.dot(a1, a1) / n
    for r in range(1, b):
        sigma2 += 2.0 * (1.0 - r / b) * np.dot(a1[:-r], a1[r:]) / n
    assert run_cli(["lrv", "--estimator", name, "--input", str(p)]) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    assert float(fields["sigma2_gl"]) == pytest.approx(sigma2, rel=1e-9)
    assert float(fields["bandwidth"]) == b
    assert run_cli(["ci", "--estimator", name, "--input", str(p)]) == 0
    lo, hi = map(float, capsys.readouterr().out.split(","))
    half = 1.959963984540054 * 2.0 * np.sqrt(sigma2 / n)
    assert lo == pytest.approx(want - half, rel=1e-9)
    assert hi == pytest.approx(want + half, rel=1e-9)


def test_estimate_lms(tmp_path, capsys):
    p = tmp_path / "s.csv"
    p.write_text("0.0\n1.0\n3.0\n")
    assert run_cli(["estimate", "--estimator", "lms",
                    "--input", str(p)]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.7413


def test_estimate_q(tmp_path, capsys):
    p = tmp_path / "s.csv"
    p.write_text("0.0\n1.0\n2.0\n4.0\n")
    assert run_cli(["estimate", "--estimator", "q",
                    "--input", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("n", [900, 5000])
def test_q_commands_at_study_size(tmp_path, capsys, n):
    # C(n, 3) triples would exceed the enumeration cap; estimate, lrv and
    # ci count them instead.  At n = 900 they are held to a counting
    # oracle on the matrix of sorted-sample differences.
    x = np.random.default_rng(131).standard_normal(n)
    p = tmp_path / "q.csv"
    p.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in x))
    q = ["--estimator", "q", "--m", "3", "--input", str(p)]
    assert run_cli(["estimate"] + q) == 0
    est = float(capsys.readouterr().out)
    assert run_cli(["lrv"] + q) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    assert run_cli(["ci"] + q) == 0
    lo, hi = map(float, capsys.readouterr().out.split(","))
    assert lo < est < hi
    if n == 900:
        want, sigma2, (want_lo, want_hi) = q_interval(x)
        assert est == pytest.approx(want, rel=1e-9)
        assert float(fields["sigma2_gl"]) == pytest.approx(sigma2, rel=1e-9)
        assert lo == pytest.approx(want_lo, rel=1e-9)
        assert hi == pytest.approx(want_hi, rel=1e-9)


# kernels of (a, y, z), given lo = min(y, z), hi = max(y, z), gap = hi - lo
def min_pairwise3(a, lo, hi, gap):
    return np.minimum(np.minimum(np.abs(a - lo), np.abs(a - hi)), gap)


def range3(a, lo, hi, gap):
    return np.maximum(a, hi) - np.minimum(a, lo)


def pair_sums(x, pts, h, entries=1 << 18):
    """sum over index pairs j < k of the kernel of (a, x_j, x_k) for each
    a in pts, by direct evaluation, a block of rows j at a time."""
    n = x.size
    out = np.zeros(len(pts))
    rows = max(1, entries // n)
    for j0 in range(0, n, rows):
        j, k = np.nonzero(np.arange(j0, min(n, j0 + rows))[:, None]
                          < np.arange(n))
        lo = np.minimum(x[j + j0], x[k])
        hi = np.maximum(x[j + j0], x[k])
        gap = hi - lo
        for i, a in enumerate(pts):
            out[i] += h(a, lo, hi, gap).sum()
    return out


def bartlett_lrv(g):
    n = g.size
    b = 1
    while (b + 1) ** 3 <= n:
        b += 1
    sigma2 = g @ g / n
    for r in range(1, b):
        sigma2 += 2.0 * (1.0 - r / b) * (g[:-r] @ g[r:]) / n
    return sigma2


def ustat3_lrv(x, h):
    """lrv_ustat of an m = 3 kernel with the CLI's defaults, from all-pairs
    tail sums S(x_i): every triple of distinct indices appears in three
    of them, and S(x_i) also holds the pairs {i, k}, h(x_i, x_i, x_k)."""
    n = x.size
    s = pair_sums(x, x, h)
    # the pairs {i, k} in S(x_i); k = i adds h(v, v, v) = 0
    with_self = sum(h(v, np.minimum(v, x), np.maximum(v, x),
                      np.abs(v - x)).sum() for v in x)
    u = (s.sum() - with_self) / (3 * comb(n, 3))
    return bartlett_lrv(s / comb(n, 2) - u)


@pytest.mark.parametrize("name,h", [("min_pairwise", min_pairwise3),
                                    ("range", range3)])
@pytest.mark.parametrize("n", [900, 5000])
def test_lrv_kernel_commands_at_study_size(tmp_path, capsys, name, h, n):
    # C(n, 3) triples would exceed the enumeration cap; lrv --kernel takes
    # the closed form of the tail sums.  At n = 900 it is held to the
    # all-pairs oracle, at n = 5000 its tail sums at a few points.
    x = np.random.default_rng(137).standard_normal(n)
    p = tmp_path / "k.csv"
    p.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in x))
    assert run_cli(["lrv", "--kernel", name, "--m", "3",
                    "--input", str(p)]) == 0
    sigma2 = float(capsys.readouterr().out)
    if n == 900:
        assert sigma2 == pytest.approx(ustat3_lrv(x, h), rel=1e-9)
    else:
        assert sigma2 > 0.0
        pts = np.array([x.min(), np.median(x), x[17], x.max() + 0.5])
        kernel = builtin_kernel(name, {"m": 3})
        np.testing.assert_allclose(tail_sums(x, kernel, None, pts),
                                   pair_sums(x, pts, h), rtol=1e-9)


def test_lrv_identity_kernel(tmp_path, capsys):
    p = tmp_path / "s.csv"
    p.write_text("0.0\n1.0\n")
    assert run_cli(["lrv", "--kernel", "identity", "--input", str(p),
                    "--bandwidth", "1"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.25)


def test_ci_brackets_estimate(tmp_path, capsys):
    rng = np.random.default_rng(107)
    p = tmp_path / "s.csv"
    p.write_text("x\n" + "\n".join(str(v)
                                   for v in rng.standard_normal(200)) + "\n")
    assert run_cli(["ci", "--estimator", "gini", "--input", str(p)]) == 0
    lo, hi = map(float, capsys.readouterr().out.strip().split(","))
    assert run_cli(["estimate", "--estimator", "gini",
                    "--input", str(p)]) == 0
    t = float(capsys.readouterr().out.strip())
    assert lo < t < hi


def test_simulate_deterministic_and_round_trip(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--model", "egarch", "--n", "50", "--seed", "5"]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    x = read_series(out1)
    assert x.shape == (50,)
    # stdout mode emits the same text
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == out1.read_text()


def test_experiment_command(tmp_path, capsys):
    cfg = {
        "process": {"kind": "iid_gaussian"},
        "estimators": [{"name": "gini", "m": 3, "alpha": 0.5,
                        "c_alpha": 1.0, "subsample": 0}],
        "sample_sizes": [25],
        "replications": 8,
        "seed": 3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert "gini n=25" in capsys.readouterr().out


def test_experiment_command_rejects_duplicate_labels(tmp_path, capsys):
    q_sub = {"name": "q", "m": 3, "alpha": 0.5, "c_alpha": 1.0,
             "subsample": 1000}
    cfg = {
        "process": {"kind": "iid_gaussian"},
        "estimators": [q_sub, dict(q_sub, m=4)],
        "sample_sizes": [25],
        "replications": 8,
        "seed": 3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 1
    assert "duplicate estimator label 'q_sub'" in capsys.readouterr().err
    assert not out.exists()
    # every cell's normality summary needs 4 replications
    cfg.update(estimators=[q_sub], replications=3)
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 1
    assert "need at least 4 replications" in capsys.readouterr().err
    assert not out.exists()
    # a float or negative subsample fails when the config is built
    for subsample in (2.5, 1000.0, -5):
        cfg.update(estimators=[dict(q_sub, subsample=subsample)],
                   replications=8)
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["experiment", "--config", str(cfg_path),
                        "--out", str(out)]) == 1
        assert "subsample must be an integer" in capsys.readouterr().err
        assert not out.exists()


def test_exit_code_1_on_domain_error(tmp_path, three_csv, capsys):
    missing = str(tmp_path / "missing.csv")
    assert run_cli(["estimate", "--estimator", "gini",
                    "--input", missing]) == 1
    assert "error:" in capsys.readouterr().err
    short = tmp_path / "short.csv"
    short.write_text("1.0\n")
    assert run_cli(["estimate", "--estimator", "gini",
                    "--input", str(short)]) == 1
    # lrv --kernel min_pairwise --m 4 enumerates; C(225, 4) exceeds the cap
    wide = tmp_path / "wide.csv"
    wide.write_text("".join(f"{v}.0\n" for v in range(225)))
    assert run_cli(["lrv", "--kernel", "min_pairwise", "--m", "4",
                    "--input", str(wide)]) == 1
    assert "exceed the cap" in capsys.readouterr().err
    # Bartlett is the only lag window; a config asking for another fails
    cfg = {"process": {"kind": "iid_gaussian"},
           "estimators": [{"name": "gini"}], "sample_sizes": [25],
           "replications": 8, "lrv": {"weight": "parzen"}}
    cfg_path = tmp_path / "parzen.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")]) == 1
    assert "bartlett" in capsys.readouterr().err
    # a NaN bandwidth passes the flag parser but not BandwidthPolicy.resolve
    assert run_cli(["lrv", "--estimator", "gini", "--input", three_csv,
                    "--bandwidth", "nan"]) == 1
    assert "bandwidth must be > 0" in capsys.readouterr().err
    # nor an infinite one, which would weight every lag 1
    assert run_cli(["lrv", "--estimator", "gini", "--input", three_csv,
                    "--bandwidth", "inf"]) == 1
    assert "bandwidth must be finite" in capsys.readouterr().err
    # a config dict skips the policy constructors; the cells record the error
    cfg["lrv"] = {"weight": "bartlett", "bandwidth": {"kind": "fixed", "b": -3}}
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "neg")]) == 0
    assert ("gini n=25: ValueError: bandwidth must be > 0, got -3"
            in capsys.readouterr().out)
    for bw, err in (({"kind": "power_law", "c": 1, "e": 0.9},
                     "power law needs c > 0 and 0 < e < 1/2"),
                    ({"kind": "fixed", "b": float("inf")},
                     "bandwidth must be finite, got inf")):
        cfg["lrv"] = {"weight": "bartlett", "bandwidth": bw}
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["experiment", "--config", str(cfg_path),
                        "--out", str(tmp_path / bw["kind"])]) == 0
        assert f"gini n=25: ValueError: {err}" in capsys.readouterr().out


def test_exit_code_2_on_usage_error(three_csv):
    with pytest.raises(SystemExit) as exc:
        run_cli(["estimate", "--estimator", "bogus", "--input", three_csv])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2
    # the lag window is not a flag
    with pytest.raises(SystemExit) as exc:
        run_cli(["lrv", "--estimator", "gini", "--input", three_csv,
                 "--kernel-weight", "bartlett"])
    assert exc.value.code == 2
