import csv
import hashlib
import json
import re
from math import comb

import numpy as np
import pytest
from min_pairwise_oracle import q_interval

from glstat import (
    EstimatorConfig,
    GlstatError,
    ProcessConfig,
    builtin_kernel,
    egarch_scenario,
    estimator_c,
    estimator_gini,
    estimator_lms,
    estimator_q,
    gl_statistic,
)
from glstat.cli import _build_parser, read_series, run_cli
from glstat.gl import ESTIMATORS, gl_spec, point_estimate
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


def _read_series_generator(path):
    """Frozen copy of the per-row generator reader that read_series's
    single comprehension replaced."""
    def cells(rows):
        for i, row in enumerate(rows):
            if not row or not row[0].strip():
                continue
            cell = row[0].strip()
            if i == 0 and cell.lower() == "x":
                continue
            yield float(cell)

    with open(path, "r", encoding="utf-8") as fh:
        values = np.fromiter(cells(csv.reader(fh)), dtype=float)
    if not values.size:
        raise GlstatError(f"no data in {path}")
    return values


def _outcome(read, path):
    try:
        return read(path).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def test_read_series_matches_the_generator_reader(tmp_path):
    x = np.random.default_rng(149).standard_normal(15000)
    cases = [
        "x\r\n1.5\r\n-2\r\n",  # CRLF line endings
        "x\r1.5\r-2\r",  # old Mac line endings
        '"x"\n"1.5"\n" -2 "\n',  # quoted cells
        '"1,5"\n2\n',  # a quoted comma is part of the cell
        "\nx\n1.0\n",  # an x is the header only on the first row
        "1.0\nx\n",
        "x\n",  # header only
        "X\n\n",
        "",
        "\n , \n",
        " x \n\t3.25\t\n  4e-3  \n\n,\n",  # whitespace
        "nan\ninf\n-Infinity\n1_000\n-0.0\n",
        "x,y\n1,2,3\n4\n5,,\n,6\n",  # extra columns
        "x\n1.0\n2.0",  # no trailing newline
        "x\n1e999\n4.9e-324\n",  # overflow, subnormal
        "x\n1.0\n0x10\n",
        '"1.0\n',  # unterminated quote
        "x\n" + "".join(f"{float(v)!r}\n" for v in x),
    ]
    for k, text in enumerate(cases):
        p = tmp_path / f"case{k}.csv"
        p.write_bytes(text.encode())
        assert _outcome(read_series, p) == _outcome(_read_series_generator,
                                                    p), text[:40]
    assert read_series(p).tobytes() == x.tobytes()


def test_read_series_plain_path_matches_the_generator_reader(tmp_path,
                                                            monkeypatch):
    # texts without a quote, comma or NUL skip csv: with glstat.cli's csv
    # taken away they still read as the frozen csv reader reads them
    plain = [
        "x\n\t1.5\t\n2\t\n",  # tabs
        "x\n\x0b1.5\x0c\n\xa0-2\xa0\n",  # \v, \f and NBSP around a cell
        "x\n1 2\n",  # an inner space: float()'s ValueError
        "x\r\n1.5\x0b2\r\n",  # \v inside a cell is not a line break
        "x\n1.5\x1c2\n",  # nor is \x1c
        "\nx\n1.0\n",  # x after a leading blank line is not the header
        "x\n1.0\n-2.5",  # no trailing newline
        "\n\n  \n\t\n",  # blank lines only
        "1_000\n٣\n inf \n-0.0\n1e-320\n",  # what float() accepts
        "x\r1.5\r\n-2\n3\r",  # mixed line endings
    ]
    expected = []
    for k, text in enumerate(plain):
        p = tmp_path / f"plain{k}.csv"
        p.write_bytes(text.encode())
        expected.append((p, _outcome(_read_series_generator, p)))
    monkeypatch.setattr("glstat.cli.csv", None)
    for (p, want), text in zip(expected, plain):
        assert _outcome(read_series, p) == want, text
    monkeypatch.undo()
    # a NUL byte goes through csv, which rejects it on some Pythons
    p = tmp_path / "nul.csv"
    p.write_bytes(b"x\n1.5\x002\n3\n")
    assert _outcome(read_series, p) == _outcome(_read_series_generator, p)


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


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_estimator_catalog(name):
    # estimate takes every catalog name; lrv and ci take exactly those
    # with a GL spec, whose statistic is the point estimate itself
    has_spec = name in ("gini", "gini_os", "q")
    flags = ["--estimator", name, "--input", "s.csv", "--m", "4",
             "--alpha", "0.25"]
    parser = _build_parser()
    args = parser.parse_args(["estimate"] + flags + ["--c-alpha", "2"])
    for command in ("lrv", "ci"):
        if has_spec:
            assert parser.parse_args([command] + flags).estimator == name
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command] + flags)
            assert exc.value.code == 2
    # each estimator reads its own options, from the parsed flags and
    # from an experiment's config alike
    x = np.random.default_rng(163).standard_normal(30)
    want = {"gini": lambda: estimator_gini(x),
            "gini_os": lambda: estimator_gini(x),
            "q": lambda: estimator_q(x, m=4, alpha=0.25),
            "c": lambda: estimator_c(x, alpha=0.25, c_alpha=2.0),
            "lms": lambda: estimator_lms(x)}[name]()
    config = EstimatorConfig(name=name, m=4, alpha=0.25, c_alpha=2.0)
    assert point_estimate(name, x, args) == want
    assert point_estimate(name, x, config) == want
    spec = gl_spec(name, args)
    assert (spec is not None) == has_spec
    assert gl_spec(name, config) == spec
    if has_spec:
        assert gl_statistic(x, spec) == want
    with pytest.raises(ValueError, match="unknown estimator 'ginni'"):
        point_estimate("ginni", x, args)


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


def test_simulate_output_is_pinned(capsys):
    # the sha256 of this command's stdout before simulate formatted
    # path.tolist() instead of numpy scalars
    assert run_cli(["simulate", "--model", "egarch", "--n", "2000",
                    "--seed", "1"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "e724f65e61edbf805c5f212ddaae77760dee148a3c0d2032cecc87df999c432c")


def test_simulate_rejects_options_its_route_does_not_read(tmp_path,
                                                          capsys):
    cfg = tmp_path / "process.json"
    cfg.write_text(json.dumps({"kind": "ar1", "rho": 0.5}))
    half_burn = tmp_path / "half_burn.json"
    half_burn.write_text(json.dumps(dict(egarch_scenario(1).to_dict(),
                                         burn_in=500.5)))
    rh0 = tmp_path / "rh0.json"
    rh0.write_text(json.dumps({"kind": "ar1", "rh0": 0.5}))
    out = tmp_path / "sim.csv"
    for extra, err in (
            # garch11 reads no flag: its parameters come from a config
            (["--model", "garch11"], "model 'garch11' needs --config"),
            # a misspelled key is not read as rho = 0
            (["--model", "ar1", "--config", str(rh0)],
             "unknown process option 'rh0'"),
            (["--model", "iid", "--rho", "0.9"],
             "--rho is not read with --model iid"),
            (["--model", "iid", "--burn-in", "-5"],
             "--burn-in is not read with --model iid"),
            (["--model", "ar1", "--burn-in", "10"],
             "--burn-in is not read with --model ar1"),
            (["--model", "ar1", "--config", str(cfg), "--rho", "0.9"],
             "--rho is not read with --config"),
            (["--model", "egarch", "--config", str(cfg), "--burn-in", "9"],
             "--burn-in is not read with --config"),
            # --model and the config's kind must agree
            (["--model", "egarch", "--config", str(cfg)],
             "--model egarch simulates 'egarch', but the config's kind "
             "is 'ar1'"),
            (["--model", "egarch", "--config", str(half_burn)],
             "burn_in must be an integer >= 0, got 500.5")):
        assert run_cli(["simulate", "--n", "5", "--out", str(out)]
                       + extra) == 1
        assert err in capsys.readouterr().err
        assert not out.exists()
    # the config route alone still runs
    assert run_cli(["simulate", "--model", "ar1", "--config", str(cfg),
                    "--n", "5", "--out", str(out)]) == 0
    assert read_series(out).shape == (5,)


def test_simulate_defaults_equal_the_given_options(capsys):
    for model, given in (("ar1", ["--rho", "0.8"]),
                         ("egarch", ["--rho", "0.8", "--burn-in", "500"])):
        argv = ["simulate", "--model", model, "--n", "40", "--seed", "3"]
        assert run_cli(argv) == 0
        default = capsys.readouterr().out
        assert run_cli(argv + given) == 0
        assert capsys.readouterr().out == default
    # the options each route reads still change the path
    argv = ["simulate", "--model", "egarch", "--n", "40", "--seed", "3"]
    assert run_cli(argv + ["--burn-in", "0"]) == 0
    assert capsys.readouterr().out != default


def test_simulate_verbose_echoes_the_burn_in_it_reads(capsys):
    # a route that does not read --burn-in echoes None, not a default
    for model, burn_in in (("iid", "None"), ("ar1", "None"),
                           ("egarch", "500")):
        assert run_cli(["simulate", "--model", model, "--n", "2",
                        "--seed", "1", "--verbose"]) == 0
        assert capsys.readouterr().err == (
            "# estimator=None m=None alpha=None bandwidth=None "
            f"density_c=None burn_in={burn_in}\n")


@pytest.mark.parametrize("model", ["iid", "ar1", "egarch"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_simulate_rejects_n_below_one(tmp_path, capsys, model, n):
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--model", model, "--n", n,
                    "--out", str(out)]) == 1
    assert f"n must be >= 1, got {n}" in capsys.readouterr().err
    assert not out.exists()


def test_cached_parser_keeps_no_state_between_commands(tmp_path, capsys):
    p = tmp_path / "s.csv"
    x = np.random.default_rng(151).standard_normal(60)
    p.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in x))
    commands = [
        ["lrv", "--kernel", "min_pairwise", "--m", "3", "--input", str(p)],
        ["lrv", "--estimator", "gini", "--input", str(p)],
        # parses --m and --alpha, then misses the required --estimator
        ["ci", "--m", "4", "--alpha", "0.25", "--input", str(p)],
        ["ci", "--estimator", "q", "--m", "3", "--input", str(p)],
    ]

    def run(argv):
        try:
            code = run_cli(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    first = []
    for argv in commands:
        _build_parser.cache_clear()
        first.append(run(argv))
    assert [code for code, _ in first] == [0, 0, 2, 0]
    assert [run(argv) for argv in commands] == first
    assert _build_parser() is _build_parser()


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
    # a non-integral count fails too, instead of being truncated
    cfg.update(estimators=[q_sub], replications=8.9)
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 1
    assert "replications must be an integer, got 8.9" in (
        capsys.readouterr().err)
    assert not out.exists()
    # so do an unknown estimator name, a level outside (0, 1), and a
    # process of unknown kind or with a non-integral burn-in
    for key, value, err in (
            ("estimators", [{"name": "ginni"}], "unknown estimator 'ginni'"),
            ("ci_level", 1.5, "ci_level must be in (0, 1), got 1.5"),
            ("process", {"kind": "egarc"}, "unknown process kind 'egarc'"),
            ("process", dict(egarch_scenario(1).to_dict(), burn_in=500.5),
             "burn_in must be an integer >= 0, got 500.5")):
        bad = dict(cfg, replications=8, lrv={"weight": "bartlett"},
                   **{key: value})
        cfg_path.write_text(json.dumps(bad))
        assert run_cli(["experiment", "--config", str(cfg_path),
                        "--out", str(out)]) == 1
        assert err in capsys.readouterr().err
        assert not out.exists()


def test_malformed_configs_are_domain_errors(tmp_path, capsys):
    # each fails when the config is built: exit 1 with one error line,
    # no traceback and no report
    cfg = {"process": {"kind": "iid_gaussian"},
           "estimators": [{"name": "gini"}], "sample_sizes": [25],
           "replications": 8}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    for key, value, err in (
            ("process", {"kind": "garch11"},
             "process kind 'garch11' needs a garch block of 3 numbers"),
            ("process", {"kind": "garch11", "garch": [0.1, 0.1]},
             "process kind 'garch11' needs a garch block of 3 numbers"),
            ("process", {"kind": "egarch", "rho": 0.8},
             "process kind 'egarch' needs an egarch block"),
            ("process", {"kind": "egarch", "egarch": {"alpha0": 0.0}},
             "egarch block has no 'alpha'"),
            ("process", {"rho": 0.5}, "process config has no 'kind'"),
            ("process", "egarch", "process config must be a JSON object"),
            ("estimators", [{"name": "gini", "sub_sample": 5}],
             "unknown estimator option 'sub_sample'"),
            ("estimators", [{"m": 3}], "estimator config has no 'name'")):
        cfg_path.write_text(json.dumps(dict(cfg, **{key: value})))
        assert run_cli(["experiment", "--config", str(cfg_path),
                        "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {err}")
        assert not out.exists()
    cfg_path.write_text(json.dumps(
        {k: v for k, v in cfg.items() if k != "sample_sizes"}))
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: experiment config has no 'sample_sizes'\n")
    # an experiment-shaped file is not a process config
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["simulate", "--model", "garch11", "--config",
                    str(cfg_path), "--n", "5"]) == 1
    assert capsys.readouterr().err == "error: process config has no 'kind'\n"
    # while a complete garch11 block simulates
    cfg_path.write_text(json.dumps({"kind": "garch11",
                                    "garch": [0.5, 0.1, 0.4]}))
    assert run_cli(["simulate", "--model", "garch11", "--config",
                    str(cfg_path), "--n", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


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
    # a policy from a config dict is checked when the config is built,
    # before any cell runs
    for bw, err in (({"kind": "fixed", "b": -3},
                     "bandwidth must be > 0, got -3"),
                    ({"kind": "power_law", "c": 1, "e": 0.9},
                     "power law needs c > 0 and 0 < e < 1/2"),
                    ({"kind": "fixed", "b": float("inf")},
                     "bandwidth must be finite, got inf")):
        cfg["lrv"] = {"weight": "bartlett", "bandwidth": bw}
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / bw["kind"]
        assert run_cli(["experiment", "--config", str(cfg_path),
                        "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()
    # an older config may name the one projection normalization; another
    # value must fail, not run this estimator under its name
    cfg["lrv"] = {"weight": "bartlett", "normalization": "paper_literal"}
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "paper_literal"
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: the projection normalization "
                                       "is combinatorial only, got "
                                       "'paper_literal'\n")
    assert not out.exists()


def _egarch_with(**params):
    process = egarch_scenario(1).to_dict()
    process["egarch"].update(params)
    return process


def _misspelled(block, key):
    """An EGARCH config with an lrv block and ``key`` added to ``block``."""
    cfg = {"process": _egarch_with(), "estimators": [{"name": "gini"}],
           "sample_sizes": [25], "replications": 8,
           "lrv": {"weight": "bartlett", "bandwidth": {"kind": "auto"}}}
    target = {"process": cfg["process"],
              "egarch": cfg["process"]["egarch"],
              "estimator": cfg["estimators"][0], "lrv": cfg["lrv"],
              "bandwidth": cfg["lrv"]["bandwidth"], "experiment": cfg}[block]
    target[key] = 0.5
    return cfg


@pytest.mark.parametrize("block, key", [
    ("process", "rh0"), ("egarch", "thetta"), ("estimator", "alpah"),
    ("lrv", "bandwith"), ("bandwidth", "b_n"), ("experiment", "replicatons"),
])
def test_misspelled_config_keys_are_domain_errors(tmp_path, capsys, block,
                                                  key):
    # a key that names no field fails in every block, instead of loading
    # the field's default: one error line naming the block and the key,
    # and no report
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(_misspelled(block, key)))
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: unknown {block} option {key!r}\n")
    assert not out.exists()


def test_legacy_config_keys_still_load(tmp_path, capsys):
    # keys that name no field but that older configs carry: output_dir
    # at the top level, the lag window and the one normalization
    cfg = {"process": {"kind": "iid_gaussian"},
           "estimators": [{"name": "gini"}], "sample_sizes": [25],
           "replications": 8, "output_dir": "old_reports",
           "lrv": {"weight": "bartlett", "normalization": "combinatorial"}}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 0
    assert "gini n=25: qq_corr=" in capsys.readouterr().out
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("key, value", [
    ("lrv", {}),
    ("lrv", None),
    ("lrv", {"weight": "bartlett", "bandwidth": 5}),
    ("lrv", {"weight": "bartlett", "density_halfwidth_c": "x"}),
    ("estimators", 5),
    ("sample_sizes", 30),
    ("ci_level", [1]),
    ("process", _egarch_with(alpha=0.2)),
    # option types are checked when built, not inside a cell: a string
    # alpha would end in a TypeError, m = 2.5 would run m = 2
    ("estimators", [{"name": "q", "alpha": "0.5"}]),
    ("estimators", [{"name": "q", "m": 2.5}]),
    ("estimators", [{"name": "c", "alpha": 0.25, "c_alpha": "1"}]),
    ("process", _egarch_with(theta="x")),
    # JSON true and false are not the numbers 1 and 0
    ("seed", True),
    ("sample_sizes", [True]),
    ("estimators", [{"name": "q", "subsample": True}]),
    ("estimators", [{"name": "gini", "m": True}]),
    ("estimators", [{"name": "c", "alpha": 0.25, "c_alpha": True}]),
    ("process", {"kind": "iid_gaussian", "burn_in": True}),
    ("process", {"kind": "ar1", "rho": False}),
    ("process", {"kind": "garch11", "garch": [True, 0.1, 0.1]}),
    ("process", _egarch_with(lam=True)),
    ("lrv", {"weight": "bartlett", "density_halfwidth_c": True}),
    ("lrv", {"weight": "bartlett", "bandwidth": {"kind": "fixed", "b": True}}),
])
def test_malformed_config_values_are_domain_errors(tmp_path, capsys, key,
                                                   value):
    cfg = {"process": {"kind": "iid_gaussian"},
           "estimators": [{"name": "gini"}], "sample_sizes": [25],
           "replications": 8, "lrv": {"weight": "bartlett"}, key: value}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("process, err", [
    ({"kind": "ar1", "rho": 1.5}, "AR(1) requires |rho| < 1, got 1.5"),
    ({"kind": "ar1", "rho": "0.5"}, "rho must be a real number, got '0.5'"),
    ({"kind": "garch11", "garch": [0.1, 0.1, 0.8], "innovation_kind": "foo"},
     "unknown innovation kind 'foo'"),
    # checked whole: iid_gaussian reads no rho, but a bad one still fails
    ({"kind": "iid_gaussian", "rho": 1.5},
     "AR(1) requires |rho| < 1, got 1.5"),
    (_egarch_with(beta=[1.5]), "|sum(beta)| = 1.5 >= 1"),
    ({"kind": "garch11", "garch": [0.1, 0.5, 0.6]},
     "alpha1 + beta1 = 1.1 >= 1"),
    ({"kind": "garch11", "garch": [-1, 0.1, 0.1]},
     "need alpha0 > 0, alpha1 >= 0, beta1 >= 0"),
], ids=["ar1_rho", "rho_str", "innovation_kind", "unread_rho",
        "egarch_beta", "garch_sum", "garch_alpha0"])
def test_bad_process_parameters_fail_when_built(tmp_path, capsys, process,
                                                err):
    # not once per replication inside every cell, and not a traceback
    cfg = {"process": process, "estimators": [{"name": "gini"}],
           "sample_sizes": [25], "replications": 8}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises((GlstatError, ValueError), match=re.escape(err)):
        ProcessConfig.from_dict(json.loads(cfg_path.read_text())["process"])
    assert run_cli(["experiment", "--config", str(cfg_path),
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


def test_density_halfwidth_is_checked_when_built(three_csv, capsys):
    # Gini's interval reads no density, but a bad half-width still fails
    assert run_cli(["ci", "--estimator", "gini", "--input", three_csv,
                    "--density-c", "-1"]) == 1
    assert capsys.readouterr().err == (
        "error: density half-width c must be > 0, got -1.0\n")
    assert run_cli(["ci", "--estimator", "q", "--input", three_csv,
                    "--density-c", "0"]) == 1
    assert "density half-width c must be > 0" in capsys.readouterr().err


def test_csv_errors_are_domain_errors(tmp_path, capsys):
    # a quoted cell past csv's field limit (131072 characters) and a NUL
    # byte (csv rejects it on Python 3.10, float() after) exit through
    # error: instead of a csv traceback
    big = tmp_path / "big.csv"
    big.write_text('x\n"' + "1" * 140_000 + '"\n')
    nul = tmp_path / "nul.csv"
    nul.write_text('x\n"1"\n2\x003\n')
    for path in (big, nul):
        assert run_cli(["estimate", "--estimator", "gini",
                        "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(GlstatError, match="field larger than field limit"):
        read_series(big)


def test_lrv_needs_an_estimator_or_a_kernel(three_csv, capsys):
    assert run_cli(["lrv", "--input", three_csv]) == 1
    assert capsys.readouterr() == (
        "", "error: lrv needs either --estimator or --kernel\n")


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
    # nor is the projection normalization, which has one value
    with pytest.raises(SystemExit) as exc:
        run_cli(["ci", "--estimator", "gini", "--input", three_csv,
                 "--normalization", "paper_literal"])
    assert exc.value.code == 2

    # lrv reads --estimator or --kernel; given both, neither is dropped
    with pytest.raises(SystemExit) as exc:
        run_cli(["lrv", "--estimator", "gini", "--kernel", "identity",
                 "--input", three_csv])
    assert exc.value.code == 2
