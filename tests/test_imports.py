"""Start-up cost: glstat imports neither scipy.stats nor scipy.signal
nor concurrent.futures, and only the commands that need a normal
quantile load scipy.special.

Each check runs in a fresh interpreter, since the test process itself
has loaded scipy for other tests."""

import json
import os
import subprocess
import sys

import pytest

import glstat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(glstat.__file__)))


def modules_after(statement: str, tmp_path, package: str = "scipy") -> set:
    """The modules of ``package`` loaded by running ``statement`` in a
    fresh interpreter whose working directory is ``tmp_path``."""
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps([m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})]))")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("statement", ["import glstat", "import glstat.cli"])
def test_import_loads_no_scipy_stats_or_signal(statement, tmp_path):
    loaded = modules_after(statement, tmp_path)
    assert "scipy.stats" not in loaded
    assert "scipy.signal" not in loaded


def test_import_loads_no_thread_pool(tmp_path):
    # q_subsampled imports its draw-ahead executor when it first needs it
    assert modules_after("import glstat", tmp_path,
                         "concurrent.futures") == set()


@pytest.fixture
def series_csv(tmp_path):
    (tmp_path / "x.csv").write_text(
        "x\n" + "".join(f"{((7 * i) % 23) / 7.0}\n" for i in range(60)))
    return "x.csv"


@pytest.mark.parametrize("argv", [
    ["estimate", "--estimator", "q", "--m", "3", "--input", "x.csv"],
    ["estimate", "--estimator", "gini", "--input", "x.csv"],
    ["lrv", "--estimator", "q", "--m", "3", "--input", "x.csv"],
    ["simulate", "--model", "egarch", "--n", "200", "--out", "sim.csv"],
])
def test_commands_without_a_quantile_load_no_scipy(argv, series_csv,
                                                   tmp_path):
    statement = ("from glstat.cli import run_cli\n"
                 f"assert run_cli({argv!r}) == 0")
    assert modules_after(statement, tmp_path) == set()


def test_ci_loads_no_scipy_stats(series_csv, tmp_path):
    statement = ("from glstat.cli import run_cli\n"
                 "assert run_cli(['ci', '--estimator', 'gini', "
                 "'--input', 'x.csv']) == 0")
    loaded = modules_after(statement, tmp_path)
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
    assert "scipy.signal" not in loaded
