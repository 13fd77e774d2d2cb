"""The four workloads: inputs from a seed, one round of operations, and
the checks of a round's outputs against the oracles.

A round is a fixed list of operations, so every run attempts whole
rounds and the share of failed operations does not depend on the seed or
the run length.  Operations are cell-replications for the two studies,
CI replications for gini_ci and commands for cli_commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from math import comb, floor

import numpy as np

import oracles
from glstat import cli, gl, lrv, mc, ustat
from glstat.lrv import LrvConfig
from glstat.mc import EstimatorConfig, ExperimentConfig, ProcessConfig

MODULES = {"cli": cli, "gl": gl, "lrv": lrv, "mc": mc, "ustat": ustat}

RTOL = 1e-9          # library vs oracle where only summation order differs
Q_SUB_RANK_TOL = 0.005  # 2M subsets put the rank within ~4e-4 of alpha (1 sd)
GARCH = (0.1, 0.1, 0.8)  # alpha0, alpha1, beta1


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def oracle_path(process: ProcessConfig, seed: int, label: str, n: int,
                rep: int) -> np.ndarray:
    """The path of replication ``rep`` of cell (label, n), rebuilt."""
    stream = oracles.cell_stream(seed, label, n, rep)
    if process.kind == "iid_gaussian":
        return stream.standard_normal(n)
    if process.kind == "garch11":
        return oracles.garch11_path(stream.standard_normal(n + process.burn_in),
                                    n, process.burn_in, *process.garch)
    e = process.egarch
    eps = stream.standard_normal(n + process.burn_in + 1)
    z = oracles.ar1_innovations(eps, process.rho)
    return oracles.egarch11_path(z, n, process.burn_in, e.alpha0, e.alpha[0],
                                 e.beta[0], e.theta, e.lam)


def oracle_estimate(est: EstimatorConfig, x) -> float:
    if est.name == "gini":
        return oracles.gini(x)
    if est.name == "lms":
        return oracles.lms(x)
    return oracles.c_estimator(x, est.alpha, est.c_alpha)


def manifest_matches_files(manifest: dict, out_dir: str) -> bool:
    for name, digest in manifest.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                return False
    return True


class Study:
    """run_experiment + write_report over fixed configs, checked by
    rebuilding paths with the plain recursions."""

    checked_reps = None  # replications checked per cell; None = all

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.configs = self.make_configs()
        self.out_dirs = [os.path.join(self.workdir, f"report{i}")
                         for i in range(len(self.configs))]
        warm = ExperimentConfig(
            process=self.configs[0].process,
            estimators=tuple(EstimatorConfig(name=e.name, m=e.m,
                                             alpha=e.alpha,
                                             subsample=min(e.subsample, 1000))
                             for e in self.configs[0].estimators),
            sample_sizes=(50,), replications=4, seed=self.seed)
        mc.write_report(mc.run_experiment(warm),
                        os.path.join(self.workdir, "warm"))

    def round(self):
        records = []
        for config, out_dir in zip(self.configs, self.out_dirs):
            report = mc.run_experiment(config)
            manifest = mc.write_report(report, out_dir)
            records.append((manifest, report))
        return self.ops_per_round(), records

    def ops_per_round(self) -> int:
        return sum(len(c.estimators) * len(c.sample_sizes) * c.replications
                   for c in self.configs)

    def check(self, rounds):
        """Returns (failed operations over all rounds, errors)."""
        errors, failed = [], 0
        first = rounds[0]
        for rec in rounds[1:]:
            if [m for m, _ in rec] != [m for m, _ in first]:
                errors.append("report manifest differs between rounds")
                break
        pick = np.random.default_rng([self.seed, 1])
        for (manifest, report), out_dir in zip(first, self.out_dirs):
            if not manifest_matches_files(manifest, out_dir):
                errors.append(f"{out_dir}: manifest does not hash the files")
            config = report.config
            for est in config.estimators:
                for n in config.sample_sizes:
                    cell = report.cells[(est.label, n)]
                    if cell.error:
                        failed += config.replications * len(rounds)
                        errors.append(f"{est.label} n={n}: {cell.error}")
                        continue
                    reps = range(config.replications)
                    if self.checked_reps is not None:
                        reps = sorted(pick.choice(config.replications,
                                                  self.checked_reps,
                                                  replace=False))
                    for rep in reps:
                        err = self.check_rep(config, est, n, int(rep),
                                             float(cell.estimates[rep]))
                        if err:
                            errors.append(err)
        return failed, errors

    def check_rep(self, config, est, n, rep, value):
        path = oracle_path(config.process, config.seed, est.label, n, rep)
        where = f"{est.label} n={n} rep={rep}"
        if est.label == "q_sub":
            counts = oracles.MinPairwiseCounts(path, est.m)
            lo = counts.count_lt(value) / counts.N
            hi = counts.count_le(value) / counts.N
            if not (lo <= est.alpha + Q_SUB_RANK_TOL
                    and hi >= est.alpha - Q_SUB_RANK_TOL):
                return f"{where}: q_sub rank [{lo}, {hi}] far from alpha"
            return None
        expected = oracle_estimate(est, path)
        if not close(value, expected):
            return f"{where}: {value!r} != oracle {expected!r}"
        return None


class EgarchStudy(Study):
    name = "egarch_study"

    def make_configs(self):
        # EGARCH scenario 1 of the acceptance study, 4 replications per cell
        return (ExperimentConfig(
            process=mc.egarch_scenario(1),
            estimators=(EstimatorConfig(name="gini"),
                        EstimatorConfig(name="lms"),
                        EstimatorConfig(name="q", m=3, alpha=0.5,
                                        subsample=2_000_000)),
            sample_sizes=(100, 1000), replications=4, seed=self.seed),)


class LongPaths(Study):
    name = "long_paths"
    checked_reps = 3

    def make_configs(self):
        ests = (EstimatorConfig(name="gini"), EstimatorConfig(name="lms"),
                EstimatorConfig(name="c", alpha=0.25))
        return tuple(ExperimentConfig(process=p, estimators=ests,
                                      sample_sizes=(2000, 5000),
                                      replications=40, seed=self.seed)
                     for p in (mc.egarch_scenario(2),
                               ProcessConfig(kind="garch11", garch=GARCH)))


class GiniCI(Study):
    """The Gini coverage cell; every interval is captured as
    run_experiment returns it and checked against the closed form."""

    name = "gini_ci"

    def make_configs(self):
        return (ExperimentConfig(
            process=ProcessConfig(kind="iid_gaussian"),
            estimators=(EstimatorConfig(name="gini"),),
            sample_sizes=(1000, 2500), replications=4, seed=self.seed,
            lrv=LrvConfig(), ci_level=0.95),)

    def setup(self) -> None:
        self.configs = self.make_configs()
        warm = ExperimentConfig(
            process=ProcessConfig(kind="iid_gaussian"),
            estimators=(EstimatorConfig(name="gini"),), sample_sizes=(50,),
            replications=4, seed=self.seed, lrv=LrvConfig())
        mc.run_experiment(warm)

    def round(self):
        intervals = []
        original = mc.gl_confidence_interval

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            intervals.append(result)
            return result

        mc.gl_confidence_interval = capture
        try:
            report = mc.run_experiment(self.configs[0])
        finally:
            mc.gl_confidence_interval = original
        return self.ops_per_round(), (report, intervals)

    def check(self, rounds):
        errors, failed = [], 0
        report, intervals = rounds[0]
        if any(iv != intervals for _, iv in rounds[1:]):
            errors.append("intervals differ between rounds")
        config = report.config
        r = config.replications
        for i, n in enumerate(config.sample_sizes):
            cell = report.cells[("gini", n)]
            if cell.error:
                failed += r * len(rounds)
                errors.append(f"gini n={n}: {cell.error}")
                continue
            ests, ivs = [], []
            for rep in range(r):
                path = oracle_path(config.process, config.seed, "gini", n, rep)
                ests.append(oracles.gini(path))
                ivs.append(oracles.gini_interval(path, config.ci_level))
                got = intervals[i * r + rep]
                if not (close(got[0], ivs[-1][0]) and close(got[1], ivs[-1][1])
                        and close(cell.estimates[rep], ests[-1])):
                    errors.append(f"gini n={n} rep={rep}: interval {got} "
                                  f"!= closed form {ivs[-1]}")
            grand = float(np.mean(ests))
            coverage = sum(lo <= grand <= hi for lo, hi in ivs) / r
            if cell.coverage != coverage:
                errors.append(f"gini n={n}: coverage {cell.coverage} != "
                              f"{coverage} recomputed from the intervals")
        return failed, errors


# --- CLI --------------------------------------------------------------------

FAULT_SEED = 20171017  # inputs of the known-fault commands never vary
KNOWN_FAULTS = {
    # the CLI's plain gini enumerates C(15000, 2) pairs: CapacityError
    "estimate_gini_15000",
    # C(900, 3) exceeds DEFAULT_ENUM_CAP: CapacityError
    "estimate_q_900", "ci_q_900",
    # C(1002, 2) is odd; build_plugin centres the influence kernel at the
    # ceil-convention quantile while the estimate takes floor_bracket
    "ci_q_m2_1002",
}
TIMED_COMMANDS = {"estimate_q": "cmd.estimate_q_s", "ci_q": "cmd.ci_q_s",
                  "estimate_gini": "cmd.estimate_gini_s",
                  "ci_gini": "cmd.ci_gini_s"}


def write_series(path: str, x) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x\n" + "".join(f"{float(v)!r}\n" for v in x))


class CliCommands:
    """Documented commands through glstat.cli.run_cli on CSV inputs."""

    name = "cli_commands"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def _inputs(self, sizes: dict) -> dict:
        rng = np.random.default_rng([self.seed, 2])
        fixed = np.random.default_rng(FAULT_SEED)
        return {
            "q": rng.standard_normal(sizes["q"]),
            "g": rng.standard_normal(sizes["g"]),
            "g15000": fixed.standard_normal(15000),
            "q900": fixed.standard_normal(900),
            "q1002": fixed.standard_normal(1002),
        }

    def commands(self, files: dict, sim_out: str):
        """(name, check, input, m, argv) of every command of a round; the
        check names the oracle comparison in ``output_ok``."""
        q = ["--estimator", "q", "--m", "3"]
        return [
            ("estimate_q", "estimate_q", "q", 3,
             ["estimate"] + q + ["--alpha", "0.5", "--input", files["q"]]),
            ("ci_q", "ci_q", "q", 3, ["ci"] + q + ["--input", files["q"]]),
            ("lrv_q", "lrv_q", "q", 3,
             ["lrv"] + q + ["--input", files["q"]]),
            ("lrv_min_pairwise", "lrv_min_pairwise", "q", 3,
             ["lrv", "--kernel", "min_pairwise", "--m", "3",
              "--input", files["q"]]),
            ("estimate_gini", "estimate_gini", "g", 2,
             ["estimate", "--estimator", "gini", "--input", files["g"]]),
            ("ci_gini", "ci_gini", "g", 2,
             ["ci", "--estimator", "gini", "--input", files["g"]]),
            ("simulate_egarch", "simulate", None, 0,
             ["simulate", "--model", "egarch", "--n", "2000",
              "--seed", str(self.seed), "--out", sim_out]),
            ("estimate_gini_15000", "estimate_gini", "g15000", 2,
             ["estimate", "--estimator", "gini", "--input", files["g15000"]]),
            ("estimate_q_900", "estimate_q", "q900", 3,
             ["estimate"] + q + ["--input", files["q900"]]),
            ("ci_q_900", "ci_q", "q900", 3,
             ["ci"] + q + ["--input", files["q900"]]),
            ("ci_q_m2_1002", "ci_q", "q1002", 2,
             ["ci", "--estimator", "q", "--m", "2", "--input", files["q1002"]]),
        ]

    def _write(self, tag: str, sizes: dict):
        series = self._inputs(sizes)
        files = {}
        for key, x in series.items():
            files[key] = os.path.join(self.workdir, f"{tag}_{key}.csv")
            write_series(files[key], x)
        return series, files

    def setup(self) -> None:
        self.series, files = self._write("in", {"q": 150, "g": 2000})
        self.sim_out = os.path.join(self.workdir, "sim.csv")
        self.cmds = self.commands(files, self.sim_out)
        # warm-up: every successful command once on 12-point inputs
        _, small = self._write("warm", {"q": 12, "g": 12})
        for *_, argv in self.commands(small, self.sim_out)[:7]:
            run_command(argv)

    def round(self):
        return len(self.cmds), [(cmd[0],) + run_command(cmd[-1])
                                for cmd in self.cmds]

    def check(self, rounds):
        errors, failed = [], 0
        outputs = [(name, code, out) for name, code, out, _ in rounds[0]]
        for rec in rounds[1:]:
            if [(n, c, o) for n, c, o, _ in rec] != outputs:
                errors.append("command output differs between rounds")
                break
        for (name, check, key, m, _), (_, code, out) in zip(self.cmds,
                                                            outputs):
            if code == 0 and self.output_ok(check, key, m, out):
                continue
            failed += len(rounds)
            if name not in KNOWN_FAULTS:
                errors.append(f"{name}: exit {code}, output {out!r}")
        return failed, errors

    def output_ok(self, check: str, key, m: int, out: str) -> bool:
        if check == "simulate":
            with open(self.sim_out, "r", encoding="utf-8") as fh:
                got = np.array([float(v) for v in fh.read().split()[1:]])
            eps = oracles.seed_stream(self.seed).standard_normal(2501)
            e = mc.egarch_scenario(1).egarch
            want = oracles.egarch11_path(oracles.ar1_innovations(eps, 0.8),
                                         2000, 500, e.alpha0, e.alpha[0],
                                         e.beta[0], e.theta, e.lam)
            return got.size == want.size and bool(
                np.all(np.abs(got - want) <= RTOL * np.abs(want)))
        x = self.series[key]
        if check == "estimate_gini":
            return close(float(out), oracles.gini(x))
        if check == "ci_gini":
            lo, hi = (float(v) for v in out.split(","))
            want = oracles.gini_interval(x)
            return close(lo, want[0]) and close(hi, want[1])
        if check == "lrv_min_pairwise":
            return close(float(out), oracles.min_pairwise3_lrv(x))
        if check == "estimate_q":
            # rank check: #{h < Q} < k <= #{h <= Q}
            counts = oracles.MinPairwiseCounts(x, m)
            q = float(out)
            k = max(1, floor(0.5 * comb(x.size, m)))
            return counts.count_lt(q) < k <= counts.count_le(q)
        q, sigma2, (lo_w, hi_w) = oracles.q_interval(x, m, 0.5)
        if check == "lrv_q":
            fields = dict(kv.split("=") for kv in out.split())
            return close(float(fields["sigma2_gl"]), sigma2)
        lo, hi = (float(v) for v in out.split(","))
        return close(0.5 * (lo + hi), q) and close(hi - lo, hi_w - lo_w)


def run_command(argv):
    """(exit code, stdout, seconds) of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_cli(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue().strip(), time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (EgarchStudy, LongPaths, GiniCI, CliCommands)}
