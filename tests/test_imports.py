"""Start-up cost: glstat loads no scipy module in any command and
imports no concurrent.futures, and every command runs with scipy
unavailable.

Each check runs in a fresh interpreter, since the test process itself
has loaded scipy for other tests."""

import json
import os
import subprocess
import sys

import pytest

import glstat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(glstat.__file__)))


def run_fresh(code: str, tmp_path) -> str:
    """Run ``code`` in a fresh interpreter whose working directory is
    ``tmp_path``; assert that it exits 0 and return its stdout."""
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def modules_after(statement: str, tmp_path, package: str = "scipy") -> set:
    """The modules of ``package`` loaded by running ``statement`` in a
    fresh interpreter whose working directory is ``tmp_path``."""
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps([m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})]))")
    return set(json.loads(run_fresh(code, tmp_path).splitlines()[-1]))


@pytest.mark.parametrize("statement", ["import glstat", "import glstat.cli"])
def test_import_loads_no_scipy_stats_or_signal(statement, tmp_path):
    loaded = modules_after(statement, tmp_path)
    assert "scipy.stats" not in loaded
    assert "scipy.signal" not in loaded


def test_import_loads_no_thread_pool(tmp_path):
    # run_experiment imports its executor only to run a q_sub cell
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


# ci and experiment (intervals and QQ points) take normal quantiles
QUANTILE_COMMANDS = (
    ["ci", "--estimator", "gini", "--input", "x.csv"],
    ["ci", "--estimator", "q", "--m", "3", "--input", "x.csv"],
    ["experiment", "--config", "config.json", "--out", "out"],
)


@pytest.fixture
def experiment_config(tmp_path):
    # lrv set, so each replication runs a Gini interval
    (tmp_path / "config.json").write_text(json.dumps({
        "process": {"kind": "iid_gaussian"},
        "estimators": [{"name": "gini"}],
        "sample_sizes": [30],
        "replications": 4,
        "seed": 7,
        "lrv": {"weight": "bartlett"},
    }))
    return "config.json"


def test_ci_and_experiment_load_no_scipy(series_csv, experiment_config,
                                         tmp_path):
    statement = "from glstat.cli import run_cli\n" + "".join(
        f"assert run_cli({argv!r}) == 0\n" for argv in QUANTILE_COMMANDS)
    assert modules_after(statement, tmp_path) == set()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_commands_run_without_scipy(series_csv, experiment_config,
                                    tmp_path):
    # a finder placed first refuses every scipy import, as if scipy were
    # not installed; the commands must still exit 0
    code = (
        "import importlib.abc, sys\n"
        "class NoScipy(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'no module named {name!r}')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from glstat.cli import run_cli\n" + "".join(
            f"assert run_cli({argv!r}) == 0\n" for argv in QUANTILE_COMMANDS))
    run_fresh(code, tmp_path)
    assert (tmp_path / "out" / "manifest.json").exists()
