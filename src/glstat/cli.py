"""Command-line front end: estimate, lrv, ci, simulate, experiment.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from .errors import GlstatError
from .gl import ESTIMATORS, GL_SPEC_NAMES, gl_spec, point_estimate
# estimator_* are unused here but stay module attributes:
# perfbench/tracing.py times the estimators by rebinding cli.estimator_*
from .gl import (estimator_c, estimator_gini,  # noqa: F401
                 estimator_lms, estimator_q)
from .kernels import BUILTIN_KERNEL_NAMES, builtin_kernel
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
    egarch_scenario,
    load_config,
    run_experiment,
    simulate_path,
    write_report,
)
from .processes import make_rng


def read_series(path) -> np.ndarray:
    """Single-column CSV, with or without an 'x' header on the first row.
    Blank rows and blank first fields are skipped; other columns are
    ignored.  Each cell is parsed by float().

    Universal newlines turn every line ending into \\n.  A text with no
    quote, comma or NUL then has one csv row per \\n-separated line (not
    splitlines, which also splits on \\v, \\f and \\x1c-\\x1e), so it
    skips the csv module; any other text goes through csv.reader."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if '"' in text or "," in text or "\x00" in text:
        rows = (row[0] if row else ""
                for row in csv.reader(io.StringIO(text)))
    else:
        rows = text.split("\n")
    try:
        cells = [cell for i, row in enumerate(rows)
                 if (cell := row.strip()) and (i or cell.lower() != "x")]
    except csv.Error as exc:  # a cell past the field limit; NUL on 3.10
        raise GlstatError(f"cannot read {path}: {exc}") from None
    if not cells:
        raise GlstatError(f"no data in {path}")
    # numpy casts each str with float(): the same doubles and errors
    return np.array(cells, dtype=float)


# the process kind of each --model; a --config must agree with it
_MODEL_KINDS = {"iid": "iid_gaussian", "ar1": "ar1", "garch11": "garch11",
                "egarch": "egarch"}
# the options each --model reads without --config, with their defaults
_SIMULATE_OPTIONS = {"iid": {}, "ar1": {"rho": 0.8},
                     "egarch": {"rho": 0.8, "burn_in": 500}}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    p = argparse.ArgumentParser(prog="glstat",
                                description="GL-statistics toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("estimate", help="print a point estimate")
    sp.set_defaults(run=_cmd_estimate)
    sp.add_argument("--estimator", required=True, choices=tuple(ESTIMATORS))
    sp.add_argument("--input", required=True)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--c-alpha", type=float, default=1.0)
    sp.add_argument("--verbose", action="store_true")

    def add_lrv_flags(sp):
        sp.add_argument("--bandwidth", default="auto",
                        help="'auto' or a positive number")
        sp.add_argument("--density-c", type=float, default=0.5)

    sp = sub.add_parser("lrv", help="long-run variance estimate")
    sp.set_defaults(run=_cmd_lrv)
    # one or the other: given both, a usage error, not one of them dropped
    which = sp.add_mutually_exclusive_group()
    which.add_argument("--estimator", choices=GL_SPEC_NAMES)
    which.add_argument("--kernel", choices=BUILTIN_KERNEL_NAMES)
    sp.add_argument("--input", required=True)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--verbose", action="store_true")
    add_lrv_flags(sp)

    sp = sub.add_parser("ci", help="CLT confidence interval")
    sp.set_defaults(run=_cmd_ci)
    sp.add_argument("--estimator", required=True, choices=GL_SPEC_NAMES)
    sp.add_argument("--input", required=True)
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--verbose", action="store_true")
    add_lrv_flags(sp)

    sp = sub.add_parser("simulate", help="simulate a process path")
    sp.set_defaults(run=_cmd_simulate)
    sp.add_argument("--model", required=True, choices=tuple(_MODEL_KINDS))
    sp.add_argument("--config", help="JSON process config (see docs)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="output CSV (default: stdout)")
    # None when not given: each route reads only its own options
    sp.add_argument("--rho", type=float)
    sp.add_argument("--burn-in", type=int)
    sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    sp.set_defaults(run=_cmd_experiment)
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--verbose", action="store_true")
    return p


def _make_lrv_config(args) -> LrvConfig:
    policy = (BandwidthPolicy() if args.bandwidth == "auto" else
              BandwidthPolicy(kind="fixed", b=float(args.bandwidth)))
    return LrvConfig(bandwidth=policy,
                     density_halfwidth_c=args.density_c)


def _echo_defaults(args) -> None:
    print(f"# estimator={getattr(args, 'estimator', None)} "
          f"m={getattr(args, 'm', None)} alpha={getattr(args, 'alpha', None)} "
          f"bandwidth={getattr(args, 'bandwidth', None)} "
          f"density_c={getattr(args, 'density_c', None)} "
          f"burn_in={getattr(args, 'burn_in', None)}",
          file=sys.stderr)


def _cmd_estimate(args) -> int:
    x = read_series(args.input)
    if args.verbose:
        _echo_defaults(args)
    print(_fmt(point_estimate(args.estimator, x, args)))
    return 0


def _cmd_lrv(args) -> int:
    x = read_series(args.input)
    cfg = _make_lrv_config(args)
    if args.verbose:
        _echo_defaults(args)
    if args.kernel:
        # only min_pairwise and range read m
        kern = builtin_kernel(args.kernel, {"m": args.m})
        print(_fmt(lrv_ustat(x, kern, cfg)))
        return 0
    if not args.estimator:
        raise GlstatError("lrv needs either --estimator or --kernel")
    rep = lrv_gl(x, gl_spec(args.estimator, args), cfg)
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
    lo, hi = gl_confidence_interval(x, gl_spec(args.estimator, args), cfg,
                                    level=args.level)
    print(f"{_fmt(lo)},{_fmt(hi)}")
    return 0


def _cmd_simulate(args) -> int:
    if args.config:
        route, reads = "--config", {}
    elif args.model in _SIMULATE_OPTIONS:
        route, reads = f"--model {args.model}", _SIMULATE_OPTIONS[args.model]
    else:
        raise GlstatError(f"model {args.model!r} needs --config")
    # an option the route does not read is an error, not ignored
    for name in ("rho", "burn_in"):
        if getattr(args, name) is None:
            setattr(args, name, reads.get(name))
        elif name not in reads:
            raise GlstatError(f"--{name.replace('_', '-')} is not read "
                              f"with {route}")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            import json
            process = ProcessConfig.from_dict(json.load(fh))
        kind = _MODEL_KINDS[args.model]
        if process.kind != kind:
            raise GlstatError(f"--model {args.model} simulates {kind!r}, "
                              f"but the config's kind is {process.kind!r}")
    else:  # the options read, over scenario 1 or the kind's defaults
        base = (egarch_scenario(1) if args.model == "egarch"
                else ProcessConfig(kind=_MODEL_KINDS[args.model]))
        process = replace(base, **{k: getattr(args, k) for k in reads})
    if args.verbose:
        _echo_defaults(args)
    path = simulate_path(process, args.n, make_rng(args.seed))
    lines = ["x"] + [_fmt(v) for v in path.tolist()]
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
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (GlstatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
