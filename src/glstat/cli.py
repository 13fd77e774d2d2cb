"""Command-line front end: estimate, lrv, ci, simulate, experiment.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import List, Optional

import numpy as np

from .errors import GlstatError
from .gl import (
    estimator_c,
    estimator_gini,
    estimator_lms,
    estimator_q,
    gini_gl_spec,
    q_gl_spec,
)
from .kernels import builtin_kernel
from .lrv import (
    BandwidthPolicy,
    LrvConfig,
    gl_confidence_interval,
    lrv_gl,
    lrv_ustat,
)
from .mc import (
    ProcessConfig,
    _fmt,
    load_config,
    run_experiment,
    simulate_path,
    write_report,
)
from .processes import make_rng


def _series_cells(rows):
    """The parsed first fields of read_series's rows."""
    for i, row in enumerate(rows):
        if not row or not row[0].strip():
            continue
        cell = row[0].strip()
        if i == 0 and cell.lower() == "x":
            continue
        yield float(cell)


def read_series(path) -> np.ndarray:
    """Single-column CSV, with or without an 'x' header on the first row.
    Blank rows and blank first fields are skipped; other columns are
    ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        values = np.fromiter(_series_cells(csv.reader(fh)), dtype=float)
    if not values.size:
        raise GlstatError(f"no data in {path}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="glstat",
                                description="GL-statistics toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_estimator_flags(sp):
        sp.add_argument("--estimator", required=True,
                        choices=["gini", "gini_os", "q", "c", "lms"])
        sp.add_argument("--input", required=True)
        sp.add_argument("--m", type=int, default=3)
        sp.add_argument("--alpha", type=float, default=0.5)
        sp.add_argument("--c-alpha", type=float, default=1.0)
        sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("estimate", help="print a point estimate")
    add_estimator_flags(sp)

    def add_lrv_flags(sp):
        sp.add_argument("--bandwidth", default="auto",
                        help="'auto' or a positive number")
        sp.add_argument("--normalization", default="combinatorial",
                        choices=["combinatorial", "paper_literal"])
        sp.add_argument("--density-c", type=float, default=0.5)

    sp = sub.add_parser("lrv", help="long-run variance estimate")
    sp.add_argument("--estimator", choices=["gini", "gini_os", "q"])
    sp.add_argument("--kernel",
                    choices=["gini_abs_diff", "min_pairwise", "range",
                             "identity"])
    sp.add_argument("--input", required=True)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--verbose", action="store_true")
    add_lrv_flags(sp)

    sp = sub.add_parser("ci", help="CLT confidence interval")
    sp.add_argument("--estimator", required=True,
                    choices=["gini", "gini_os", "q"])
    sp.add_argument("--input", required=True)
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--verbose", action="store_true")
    add_lrv_flags(sp)

    sp = sub.add_parser("simulate", help="simulate a process path")
    sp.add_argument("--model", required=True,
                    choices=["iid", "ar1", "garch11", "egarch"])
    sp.add_argument("--config", help="JSON process config (see docs)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="output CSV (default: stdout)")
    sp.add_argument("--rho", type=float, default=0.8)
    sp.add_argument("--burn-in", type=int, default=500)
    sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--verbose", action="store_true")
    return p


def _make_lrv_config(args) -> LrvConfig:
    if args.bandwidth == "auto":
        policy = BandwidthPolicy.auto()
    else:
        policy = BandwidthPolicy.fixed(float(args.bandwidth))
    return LrvConfig(bandwidth=policy,
                     density_halfwidth_c=args.density_c,
                     normalization=args.normalization)


def _gl_spec_for(name: str, args):
    if name in ("gini", "gini_os"):
        return gini_gl_spec()
    if name == "q":
        return q_gl_spec(m=args.m, alpha=args.alpha)
    raise GlstatError(f"no GL variance form available for {name!r}")


def _point_estimate(args, x) -> float:
    if args.estimator in ("gini", "gini_os"):
        return estimator_gini(x)
    if args.estimator == "q":
        return estimator_q(x, m=args.m, alpha=args.alpha)
    if args.estimator == "c":
        return estimator_c(x, alpha=args.alpha, c_alpha=args.c_alpha)
    if args.estimator == "lms":
        return estimator_lms(x)
    raise GlstatError(f"unknown estimator {args.estimator!r}")


def _echo_defaults(args) -> None:
    print(f"# estimator={getattr(args, 'estimator', None)} "
          f"m={getattr(args, 'm', None)} alpha={getattr(args, 'alpha', None)} "
          f"bandwidth={getattr(args, 'bandwidth', None)} "
          f"normalization={getattr(args, 'normalization', None)} "
          f"density_c={getattr(args, 'density_c', None)} "
          f"burn_in={getattr(args, 'burn_in', None)}",
          file=sys.stderr)


def _cmd_estimate(args) -> int:
    x = read_series(args.input)
    if args.verbose:
        _echo_defaults(args)
    print(_fmt(_point_estimate(args, x)))
    return 0


def _cmd_lrv(args) -> int:
    x = read_series(args.input)
    cfg = _make_lrv_config(args)
    if args.verbose:
        _echo_defaults(args)
    if args.kernel:
        kern = builtin_kernel(args.kernel,
                              {"m": args.m} if args.kernel in
                              ("min_pairwise", "range") else {})
        print(_fmt(lrv_ustat(x, kern, cfg)))
        return 0
    if not args.estimator:
        raise GlstatError("lrv needs either --estimator or --kernel")
    rep = lrv_gl(x, _gl_spec_for(args.estimator, args), cfg)
    print(f"sigma2_gl={_fmt(rep.sigma2_gl)} "
          f"m2_sigma2_gl={_fmt(rep.m2_sigma2_gl)} "
          f"raw={_fmt(rep.sigma2_raw)} bandwidth={_fmt(rep.bandwidth_used)} "
          f"clamped={str(rep.clamped).lower()}")
    return 0


def _cmd_ci(args) -> int:
    x = read_series(args.input)
    cfg = _make_lrv_config(args)
    if args.verbose:
        _echo_defaults(args)
    lo, hi = gl_confidence_interval(x, _gl_spec_for(args.estimator, args),
                                    cfg, level=args.level)
    print(f"{_fmt(lo)},{_fmt(hi)}")
    return 0


def _cmd_simulate(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            import json
            process = ProcessConfig.from_dict(json.load(fh))
    elif args.model == "iid":
        process = ProcessConfig(kind="iid_gaussian")
    elif args.model == "ar1":
        process = ProcessConfig(kind="ar1", rho=args.rho)
    elif args.model == "egarch":
        from .mc import egarch_scenario
        process = egarch_scenario(1)
        process = ProcessConfig(kind="egarch", rho=args.rho,
                                burn_in=args.burn_in, egarch=process.egarch,
                                innovation_kind="ar1")
    else:
        raise GlstatError(f"model {args.model!r} needs --config")
    if args.verbose:
        _echo_defaults(args)
    path = simulate_path(process, args.n, make_rng(args.seed))
    lines = ["x"] + [_fmt(v) for v in path]
    text = "\n".join(lines) + "\n"
    if args.out:
        tmp = args.out + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    write_report(report, args.out)
    for (label, n), cell in sorted(report.cells.items()):
        status = cell.error or (
            f"qq_corr={_fmt(cell.summary.qq_correlation)}" if cell.summary
            else "ok")
        print(f"{label} n={n}: {status}")
    return 0


def run_cli(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "lrv":
            return _cmd_lrv(args)
        if args.command == "ci":
            return _cmd_ci(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        parser.error(f"unknown command {args.command!r}")
    except (GlstatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
