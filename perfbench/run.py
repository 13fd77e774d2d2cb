"""glstat benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--record FILE]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Run from the root of a source checkout; glstat is imported from its
``src`` directory.  The workload repeats whole rounds of its operations
until ``--seconds`` have passed, then checks every output against the
oracles in ``oracles.py``.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics; the time metric is
``round_ref``, each round's wall time over that of the fixed computation
in ``reference.py`` timed around it, and the raw seconds are printed on
the ``timing:`` line above the result.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer self times and counts
per traced round, the tracing overhead, and per-call medians; its spans
are written to ``perfbench/out/``.  ``--record`` appends the result with
the git sha, library versions, core count and source line count to a
JSON-lines file that ``--compare`` reads.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread: the load is this one process

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

import reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3


def median(values):
    return statistics.median(values) if values else 0.0


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    pkg = os.path.join(SRC, "glstat")
    loc = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                loc += sum(1 for _ in fh)
    return {"git_sha": git_sha(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "src_loc": loc}


IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import glstat; "
                "print(time.perf_counter() - t)")


def import_glstat() -> list:
    """Import glstat from this checkout's src.  Returns the seconds the
    import took here and in SETUP_REPEATS - 1 fresh interpreters."""
    if not os.path.isfile(os.path.join(SRC, "glstat", "__init__.py")):
        sys.exit(f"error: no glstat sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import glstat
    times = [time.perf_counter() - t0]
    if not os.path.abspath(glstat.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported glstat from {glstat.__file__}, not {SRC}")
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, SRC],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout))
    return times


def measure(workload, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed, with the reference
    timed before the first round and after every round.  With a tracer,
    every second round is traced, the timed rounds end on a traced one,
    and a last round measures allocation peaks."""
    rounds = []  # (kind, seconds, ops, record, reference seconds)
    reference.seconds()  # warm-up
    before = [reference.seconds()]

    def one(kind):
        if kind == "traced":
            tracer.install(len(rounds))
        elif kind == "memory":
            tracer.install_memory()
        t0 = time.perf_counter()
        try:
            ops, record = workload.round()
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.remove()
        after = reference.seconds()
        rounds.append((kind, t1 - t0, ops, record, (before[0] + after) / 2))
        before[0] = after

    start = time.perf_counter()
    while True:
        kind = "traced" if tracer and len(rounds) % 2 == 1 else "plain"
        one(kind)
        if time.perf_counter() - start >= seconds and (
                tracer is None or kind == "traced"):
            break
    if tracer is not None:
        one("memory")
    return rounds


def call_table(spans) -> list:
    """Median duration per (layer, function, n) over traced calls."""
    groups = {}
    for _, layer, fname, n, t0, t1, _ in spans:
        groups.setdefault((layer, fname, n if n is not None else -1),
                          []).append(t1 - t0)
    return [(layer, fname, n, len(d), median(d))
            for (layer, fname, n), d in sorted(groups.items())]


def run(args) -> int:
    imports = import_glstat()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: "
                 f"{sorted(workloads.WORKLOADS)}")
    env = environment()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        tracer = tracing.Tracer(workloads.MODULES) if args.trace else None
        rounds = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, errors = workload.check([r[3] for r in rounds])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r[2] for r in rounds)
    plain = [r for r in rounds if r[0] == "plain"]
    round_s = median([r[1] for r in plain])
    # the raw times, printed and recorded but not bounded: they move
    # with the host's speed (see reference.py)
    timing = {"round_s": round_s, "ops_per_s": rounds[0][2] / round_s,
              "reference_s": median([r[4] for r in plain]),
              "rounds": len(plain)}
    if tracer is None:
        metrics = {
            "setup_s": (median([i + s for i, s in zip(imports, setups)]),
                        "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            # each round in durations of the reference timed around it
            "round_ref": (median([r[1] / r[4] for r in plain]), "ref"),
        }
    else:
        traced = [r for r in rounds if r[0] == "traced"]
        traced_s = sum(r[1] for r in traced)
        # traced over untraced rounds, both in reference durations, so
        # that a slow stretch of the host is not read as overhead
        share = (median([r[1] / r[4] for r in traced])
                 / median([r[1] / r[4] for r in plain]) - 1)
        layer = tracer.layer_metrics(len(traced))
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
        metrics["trace.overhead_s"] = (share * round_s, "s")
        metrics["trace.overhead_share"] = (share, "ratio")
        metrics["trace.accounted_share"] = (tracer.self_total_s() / traced_s,
                                            "ratio")
        for name, metric in workloads.TIMED_COMMANDS.items():
            times = [t for r in plain if args.workload == "cli_commands"
                     for cmd, _, _, t in r[3] if cmd == name]
            metrics[metric] = (median(times), "s")
        # the top-level spans must cover the traced rounds: work outside
        # them would be invisible to the layer metrics
        if metrics["trace.accounted_share"][0] < 0.95:
            errors.append("traced spans cover under 95% of the traced rounds")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_file, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("round", "layer", "function", "n", "start", "end",
                     "parent"), s))) + "\n")
        print("per-call medians over traced calls (layer function n calls ms):")
        for layer_name, fname, n, count, med in call_table(tracer.spans):
            print(f"  {layer_name:22s} {fname:22s} {n:6d} {count:6d} "
                  f"{med * 1e3:10.3f}")

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("env: " + json.dumps(env, sort_keys=True))
    print("timing: " + json.dumps(timing))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "env": env,
                                 "rounds": [(r[0], r[1], r[4])
                                            for r in rounds],
                                 "timing": timing, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def compare(base_path: str, new_path: str) -> int:
    """Per workload and metric: each side's median and quartiles, and the
    ratio of the medians, new over base."""

    def load(path):
        table = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                values = {name: m["value"]
                          for name, m in rec["result"]["metrics"].items()}
                if not rec["trace"]:
                    values.update(rec.get("timing", {}))
                for name, value in values.items():
                    table.setdefault((rec["workload"], name), []).append(
                        value)
        return table

    def quartiles(v):
        if len(v) < 2:
            return v[0], v[0], v[0]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        return q1, statistics.median(v), q3

    base, new = load(base_path), load(new_path)
    print(f"{'workload':14s} {'metric':28s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s} {'new/base':>9s}")
    for key in sorted(set(base) & set(new)):
        b, n = quartiles(base[key]), quartiles(new[key])
        ratio = n[1] / b[1] if b[1] else float("nan")
        print(f"{key[0]:14s} {key[1]:28s} "
              f"{b[0]:10.4g} {b[1]:10.4g} {b[2]:10.4g} "
              f"{n[0]:10.4g} {n[1]:10.4g} {n[2]:10.4g} {ratio:9.4f}")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the result to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
