"""Monte Carlo harness: replicate a process, apply estimators across
sample sizes, standardize, summarize normality, and persist a report.

Every replication draws from an isolated Philox substream keyed by
(master seed, estimator label, sample size, replication index), so the
whole report is a pure function of its configuration and deleting one
(estimator, n) cell cannot change any other cell.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from itertools import chain, combinations
from math import ceil, floor, inf, sqrt
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (DegenerateVarianceError, GlstatError,
                     StationarityError, is_number)
from .gl import ESTIMATORS, gl_spec, point_estimate
# estimator_* are unused here but stay module attributes:
# perfbench/tracing.py times the estimators by rebinding mc.estimator_*
from .gl import (estimator_c, estimator_gini,  # noqa: F401
                 estimator_lms, estimator_q)
from .lrv import (
    BandwidthPolicy,
    LrvConfig,
    build_plugin,
    gl_confidence_interval,
    normal_quantile,
)
from .processes import EgarchParams, _ar1, _egarch, _garch11, make_rng
from .ustat import as_sample

DEFAULT_REPLICATIONS = 500
PROCESS_KINDS = ("iid_gaussian", "ar1", "garch11", "egarch")
_Q_CHUNK_ROWS = 1 << 15  # index rows drawn per chunk in q_subsampled
_Q_BRACKET_SD = 8  # half-width of q_subsampled's bracket, in binomial sd


# --- configuration ---------------------------------------------------------

def _read(cls, d, what: str, lists: Tuple[str, ...] = (),
          legacy: Tuple[str, ...] = ()) -> dict:
    """The keyword arguments of the dataclass ``cls`` that the config
    block ``d`` gives: ValueError unless ``d`` is a dict that holds every
    field without a default, those among ``lists`` as JSON lists (read as
    tuples), and no key that names no field other than those in
    ``legacy``, so that a malformed or misspelled key fails as a domain
    error naming it.  An absent field takes its default."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    for f in fields(cls):
        if f.name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{what} has no {f.name!r}")
        elif f.name in lists and not isinstance(d[f.name], list):
            raise ValueError(f"{what}'s {f.name!r} must be a JSON list, "
                             f"got {d[f.name]!r}")
    names = {f.name for f in fields(cls)}
    for key in d:
        if key not in names and key not in legacy:
            raise ValueError(f"unknown {what.split()[0]} option {key!r}")
    return {k: tuple(v) if k in lists else v
            for k, v in d.items() if k in names}


@dataclass(frozen=True)
class ProcessConfig:
    """Descriptor of the data-generating process for one experiment."""

    kind: str  # one of PROCESS_KINDS
    rho: float = 0.0  # AR(1) coefficient (process or EGARCH innovations)
    burn_in: int = 500
    egarch: Optional[EgarchParams] = None
    garch: Optional[Tuple[float, float, float]] = None  # alpha0, alpha1, beta1
    innovation_kind: str = "iid_gaussian"

    def __post_init__(self):
        # checked once, when built: simulate_path and the recursions it
        # runs read every field unchecked.  A float burn-in would reach
        # the generator as a length, a string rho would fail in abs()
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.innovation_kind not in ("iid_gaussian", "ar1"):
            raise ValueError(f"unknown innovation kind "
                             f"{self.innovation_kind!r}")
        if not (is_number(self.burn_in, integral=True) and self.burn_in >= 0):
            raise ValueError(f"burn_in must be an integer >= 0, "
                             f"got {self.burn_in!r}")
        if not is_number(self.rho):
            raise ValueError(f"rho must be a real number, got {self.rho!r}")
        if not abs(self.rho) < 1.0:
            raise StationarityError(
                f"AR(1) requires |rho| < 1, got {self.rho}")
        if self.kind == "garch11":
            ga = self.garch
            if not (isinstance(ga, (tuple, list)) and len(ga) == 3
                    and all(is_number(v) for v in ga)):
                raise ValueError(f"process kind 'garch11' needs a garch "
                                 f"block of 3 numbers (alpha0, alpha1, "
                                 f"beta1), got {ga!r}")
            a0, a1, b1 = ga
            if a0 <= 0 or a1 < 0 or b1 < 0:
                raise ValueError("need alpha0 > 0, alpha1 >= 0, beta1 >= 0")
            if a1 + b1 >= 1.0:
                raise StationarityError(f"alpha1 + beta1 = {a1 + b1} >= 1")
        if self.kind == "egarch" and not isinstance(self.egarch, EgarchParams):
            raise ValueError(f"process kind 'egarch' needs an egarch block "
                             f"(EgarchParams), got {self.egarch!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        garch = d.pop("garch")
        if d["egarch"] is None:
            del d["egarch"]
        if garch is not None:
            d["garch"] = list(garch)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ProcessConfig":
        kw = _read(ProcessConfig, d, "process config", lists=("garch",))
        if "egarch" in kw:
            kw["egarch"] = EgarchParams(**_read(
                EgarchParams, kw["egarch"], "egarch block",
                lists=("alpha", "beta")))
        return ProcessConfig(**kw)


def egarch_scenario(number: int) -> ProcessConfig:
    """The two EGARCH(1,1) simulation scenarios: AR(1) innovations with
    rho = 0.8, theta = 0.9, lambda = 0.1, and (alpha1, beta1) = (0.2, 0.05)
    for scenario 1 or (0.8, 0.1) for scenario 2."""
    if number == 1:
        a1, b1 = 0.2, 0.05
    elif number == 2:
        a1, b1 = 0.8, 0.1
    else:
        raise ValueError(f"scenario must be 1 or 2, got {number}")
    params = EgarchParams(alpha0=0.0, alpha=(a1,), beta=(b1,),
                          theta=0.9, lam=0.1)
    return ProcessConfig(kind="egarch", rho=0.8, egarch=params,
                         innovation_kind="ar1")


@dataclass(frozen=True)
class EstimatorConfig:
    """Catalog estimator with its options.  ``subsample``, an integer
    >= 0, switches the Q estimator when > 0 to a seeded
    incomplete-U-statistic mode with that many random index subsets per
    replication."""

    name: str  # a name in gl.ESTIMATORS
    m: int = 3
    alpha: float = 0.5
    c_alpha: float = 1.0
    subsample: int = 0

    def __post_init__(self):
        # checked when built, so that an experiment fails before any cell
        # runs: a negative subsample would silently run exact Q, a string
        # alpha would fail inside a cell
        if self.name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.name!r}")
        if not (is_number(self.subsample, integral=True)
                and self.subsample >= 0):
            raise ValueError(f"subsample must be an integer >= 0, "
                             f"got {self.subsample!r}")
        if not is_number(self.m, integral=True):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        for what in ("alpha", "c_alpha"):
            if not is_number(getattr(self, what)):
                raise ValueError(f"{what} must be a real number, "
                                 f"got {getattr(self, what)!r}")

    @property
    def label(self) -> str:
        if self.name == "q" and self.subsample > 0:
            return "q_sub"
        return self.name

    @staticmethod
    def from_dict(d: dict) -> "EstimatorConfig":
        return EstimatorConfig(**_read(EstimatorConfig, d,
                                       "estimator config"))


def _lrv_from_dict(d: dict) -> LrvConfig:
    kw = _read(LrvConfig, d, "lrv block", legacy=("weight", "normalization"))
    if "weight" not in d:
        raise ValueError("lrv block has no 'weight'")
    if d["weight"] != "bartlett":
        raise ValueError(
            f"the lag window is bartlett only, got {d['weight']!r}"
        )
    # older configs carry the key: another value must not run as this one
    norm = d.get("normalization", "combinatorial")
    if norm != "combinatorial":
        raise ValueError(f"the projection normalization is combinatorial "
                         f"only, got {norm!r}")
    if "bandwidth" in kw:
        kw["bandwidth"] = BandwidthPolicy(**_read(
            BandwidthPolicy, kw["bandwidth"], "bandwidth block"))
    return LrvConfig(**kw)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; serializes to JSON and round-trips
    to an identical resolved configuration."""

    process: ProcessConfig
    estimators: Tuple[EstimatorConfig, ...]
    sample_sizes: Tuple[int, ...]
    replications: int = DEFAULT_REPLICATIONS
    seed: int = 0
    lrv: Optional[LrvConfig] = None
    ci_level: float = 0.95

    def __post_init__(self):
        # not truncated with int(): a sample size of 100.7 must fail,
        # not run n = 100
        for what, v in (("replications", self.replications),
                        ("seed", self.seed),
                        *(("sample size", n) for n in self.sample_sizes)):
            if not is_number(v, integral=True):
                raise ValueError(f"{what} must be an integer, got {v!r}")
        # the normality summary of each cell needs 4 estimates
        if self.replications < 4:
            raise ValueError("need at least 4 replications")
        for n in self.sample_sizes:
            if n < 1:
                raise ValueError(f"sample sizes must be >= 1, got {n}")
        if not (is_number(self.ci_level)
                and 0.0 < self.ci_level < 1.0):
            raise ValueError(f"ci_level must be in (0, 1), "
                             f"got {self.ci_level!r}")
        # labels key the cells, the report file names and the RNG streams
        labels = [e.label for e in self.estimators]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"duplicate estimator label {label!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d.update(process=self.process.to_dict(),
                 estimators=list(d["estimators"]),
                 sample_sizes=list(self.sample_sizes))
        lrv = d.pop("lrv")
        if lrv is not None:  # the lag window and normalization are fixed
            d["lrv"] = {"weight": "bartlett",
                        "normalization": "combinatorial", **lrv}
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        # configs written before output_dir was dropped carry the key
        kw = _read(ExperimentConfig, d, "experiment config",
                   lists=("estimators", "sample_sizes"),
                   legacy=("output_dir",))
        kw.update(process=ProcessConfig.from_dict(kw["process"]),
                  estimators=tuple(EstimatorConfig.from_dict(e)
                                   for e in kw["estimators"]))
        if "lrv" in kw:
            kw["lrv"] = _lrv_from_dict(kw["lrv"])
        return ExperimentConfig(**kw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_json(fh.read())


# --- simulation and estimation --------------------------------------------

def _cell_rng(seed: int, label: str, n: int, rep: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return make_rng(seed, tag, n, rep)


def simulate_path(process: ProcessConfig, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The length-n path of ``process`` drawn from ``rng``.  GARCH and
    EGARCH drop their first ``lead`` values: the burn-in, and EGARCH's
    max(p, q) start-up steps."""
    if n < 1:  # for every kind, before any draw
        raise ValueError(f"n must be >= 1, got {n}")
    if process.kind == "iid_gaussian":
        return rng.standard_normal(n)
    if process.kind == "ar1":
        return _ar1(rng.standard_normal(n), process.rho)
    eg = process.egarch
    lead = process.burn_in + (max(len(eg.alpha), len(eg.beta))
                              if process.kind == "egarch" else 0)
    rho = process.rho if process.innovation_kind == "ar1" else 0.0
    z = _ar1(rng.standard_normal(n + lead), rho)
    if process.kind == "garch11":
        return _garch11(*process.garch, z)[lead:]
    return _egarch(eg, z)[lead:]  # egarch, the last of PROCESS_KINDS


def _gap_chunks(x: np.ndarray, m: int, n_subsets: int,
                rng: np.random.Generator):
    """Yield ``(gaps, repeated)`` for each chunk of _Q_CHUNK_ROWS index
    rows, in stream order: the min-pairwise gap of every row and the
    number of rows that repeat an index.  ``gaps`` is a buffer that the
    next chunk overwrites.

    While the caller reduces one chunk, one worker thread draws the next
    with the same ``rng.integers`` call.  Draws are submitted in stream
    order and at most one is in flight, so the generator is never used
    by two threads at once.  A single chunk starts no thread.
    """
    pairs = list(combinations(range(m), 2))
    rows = min(n_subsets, _Q_CHUNK_ROWS)
    sizes = [min(rows, n_subsets - s) for s in range(0, n_subsets, rows)]
    cols, gaps, diff = np.empty((rows, m)), np.empty(rows), np.empty(rows)

    def draw(size: int) -> np.ndarray:
        return rng.integers(0, x.size, size=(size, m))

    def reduce(idx: np.ndarray):
        size = idx.shape[0]
        c, g, d = cols[:size], gaps[:size], diff[:size]
        np.take(x, idx, out=c, mode="clip")  # every index is in range
        # the min over all pairs is the min gap of the sorted row bit
        # for bit: rounding is monotone and |a - b| == |b - a| exactly
        np.subtract(c[:, 0], c[:, 1], out=g)
        np.abs(g, out=g)
        for a, b in pairs[1:]:
            np.subtract(c[:, a], c[:, b], out=d)
            np.abs(d, out=d)
            np.minimum(g, d, out=g)
        # a row that repeats an index has gap 0: only those are checked
        zero = idx[g == 0.0]
        dup = np.zeros(zero.shape[0], dtype=bool)
        for a, b in pairs:
            dup |= zero[:, a] == zero[:, b]
        return g, int(np.count_nonzero(dup))

    if len(sizes) == 1:
        yield reduce(draw(rows))
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(draw, sizes[0])
        for size in sizes[1:]:
            idx = ahead.result()
            ahead = pool.submit(draw, size)
            yield reduce(idx)
        yield reduce(ahead.result())


def _q_rank(alpha: float, n_subsets: int, repeated: int) -> int:
    """0-based rank, among all drawn rows, of the k-th smallest gap of
    the distinct rows."""
    distinct = n_subsets - repeated
    if distinct == 0:
        raise DegenerateVarianceError("no distinct index subsets drawn")
    return repeated + max(1, floor(alpha * distinct)) - 1


def _q_in_bracket(x: np.ndarray, m: int, alpha: float, n_subsets: int,
                  rng: np.random.Generator, sd: float) -> Optional[float]:
    """q_subsampled's value from the gaps inside a bracket that the
    first chunk fixes, or None when the selected rank falls outside it.

    The bracket is the first chunk's order statistics at p +- ``sd``
    binomial sd, p the rank fraction that alpha and the chunk's repeated
    count give; with ``sd`` infinite it is unbounded and keeps every gap.
    Each chunk adds to the count of gaps below the bracket and keeps the
    gaps inside it, so only those are partitioned.
    """
    chunks = _gap_chunks(x, m, n_subsets, rng)
    first, first_repeated = next(chunks)
    lo, hi = -inf, inf
    if sd < inf:
        r = first.size
        p = (first_repeated + alpha * (r - first_repeated)) / r
        half = sd * sqrt(r * p * (1.0 - p))
        ranks = [min(max(int(r * p - half), 0), r - 1),
                 min(ceil(r * p + half), r - 1)]
        lo, hi = np.partition(first, ranks)[ranks]
    below = repeated = 0
    kept = []
    for gaps, rep in chain([(first, first_repeated)], chunks):
        inside = gaps >= lo
        below += gaps.size - int(np.count_nonzero(inside))
        inside &= gaps <= hi
        kept.append(gaps[inside])
        repeated += rep
    j = _q_rank(alpha, n_subsets, repeated) - below
    candidates = np.concatenate(kept)
    if not 0 <= j < candidates.size:
        return None
    candidates.partition(j)
    return float(candidates[j])


def q_subsampled(sample, m: int, alpha: float, n_subsets: int,
                 rng: np.random.Generator) -> float:
    """Incomplete-U-statistic Q estimator over random m-subsets.

    Stream contract: ``n_subsets`` rows of m indices are drawn uniformly
    from range(n) with replacement, row-major, from ``rng`` (in an
    experiment, the cell's Philox substream).  Rows with a repeated
    index are discarded; among the remaining #distinct rows the estimate
    is the k-th smallest min-pairwise gap, k = max(1, floor(alpha *
    #distinct)).  The draws are taken in chunks of _Q_CHUNK_ROWS rows,
    which consumes the same stream as one draw of all rows.  The next
    chunk is drawn on one worker thread while this one is reduced, so
    ``rng`` must not be used from another thread during the call.

    A repeated row's kernel value is exactly 0 on finite input, the
    smallest possible value, so the k-th smallest distinct value is the
    (#repeated + k)-th smallest of all rows and no row is ever removed.
    Only the gaps inside a bracket fixed by the first chunk are kept (a
    few percent of the rows at alpha = 0.5).  If the selected gap falls
    outside it, the generator state saved before the first draw is
    restored and the stream replayed through the same selection with an
    unbounded bracket, which keeps all n_subsets gaps.
    """
    x = as_sample(sample)
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if not is_number(n_subsets, integral=True):
        raise ValueError(f"n_subsets must be an integer, got {n_subsets!r}")
    if n_subsets < 1:
        raise ValueError(f"n_subsets must be at least 1, got {n_subsets}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if x.size < m:
        # every row would repeat an index; fail before touching the stream
        raise DegenerateVarianceError("no distinct index subsets drawn")
    n_subsets = int(n_subsets)
    state = rng.bit_generator.state
    value = _q_in_bracket(x, m, alpha, n_subsets, rng, _Q_BRACKET_SD)
    if value is None:
        rng.bit_generator.state = state
        value = _q_in_bracket(x, m, alpha, n_subsets, rng, inf)
    return value


def apply_estimator(est: EstimatorConfig, sample,
                    rng: Optional[np.random.Generator] = None) -> float:
    if est.label == "q_sub":
        if rng is None:
            raise ValueError("subsampled Q needs an RNG")
        return q_subsampled(sample, est.m, est.alpha, est.subsample, rng)
    return point_estimate(est.name, sample, est)


# --- summaries -------------------------------------------------------------

@dataclass(frozen=True)
class NormalitySummary:
    mean: float
    sd: float
    skewness: float
    excess_kurtosis: float
    qq_correlation: float


def qq_points(values) -> np.ndarray:
    """Normal QQ pairs (Phi^{-1}((i - 0.5)/R), v_(i)) of the standardized
    values; returns an (R, 2) array."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ValueError("need at least 2 values for QQ points")
    sd = v.std(ddof=1)
    if sd == 0.0:
        raise DegenerateVarianceError("zero variance across replications")
    z = np.sort((v - v.mean()) / sd)
    r = v.size
    theo = normal_quantile((np.arange(1, r + 1) - 0.5) / r)
    return np.column_stack((theo, z))


def skewness_and_excess_kurtosis(v: np.ndarray) -> Tuple[float, float]:
    """Biased sample skewness m3 / m2^1.5 and excess kurtosis
    m4 / m2^2 - 3, both NaN when m2 <= (eps * mean)^2 (a constant
    sample).  The operations are those of scipy's ``skew`` and
    ``kurtosis``, in the same order, so the values are the same doubles
    (without scipy's import)."""
    mean = v.mean(keepdims=True)
    d = v - mean
    d2 = d ** 2
    m2 = d2.mean()
    if m2 <= (np.finfo(float).eps * mean[0]) ** 2:
        return float("nan"), float("nan")
    m3 = (d2 * d).mean()
    m4 = (d2 ** 2).mean()
    return float(m3 / m2 ** 1.5), float(m4 / m2 ** 2.0 - 3)


def normality_summary(values, qq=None) -> NormalitySummary:
    """``qq``, if given, is ``qq_points(values)``, computed only once."""
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise ValueError("need at least 4 values for a normality summary")
    qq = qq_points(v) if qq is None else qq
    skewness, excess_kurtosis = skewness_and_excess_kurtosis(v)
    return NormalitySummary(
        mean=float(v.mean()),
        sd=float(v.std(ddof=1)),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        qq_correlation=float(np.corrcoef(qq[:, 0], qq[:, 1])[0, 1]),
    )


# --- experiment ------------------------------------------------------------

@dataclass
class CellResult:
    estimator: str
    n: int
    estimates: Optional[np.ndarray] = None
    summary: Optional[NormalitySummary] = None
    qq: Optional[np.ndarray] = None
    coverage: Optional[float] = None
    subsampled: bool = False
    error: Optional[str] = None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    cells: Dict[Tuple[str, int], CellResult] = field(default_factory=dict)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every (estimator, n) cell; per-cell failures (domain errors
    and invalid estimator options) are recorded in the report and do
    not abort the run."""
    report = ExperimentReport(config=config)
    for est in config.estimators:
        for n in config.sample_sizes:
            cell = CellResult(estimator=est.label, n=n,
                              subsampled=est.label == "q_sub")
            report.cells[(est.label, n)] = cell
            try:
                _run_cell(config, est, n, cell)
            except (GlstatError, ValueError) as exc:
                cell.error = f"{type(exc).__name__}: {exc}"
    return report


def _run_cell(config: ExperimentConfig, est: EstimatorConfig, n: int,
              cell: CellResult) -> None:
    r = config.replications
    estimates = np.empty(r)
    # an interval for every estimator with a GL spec; q_sub has none
    spec = (gl_spec(est.name, est)
            if config.lrv is not None and not cell.subsampled else None)
    intervals: List[Tuple[float, float]] = []
    for rep in range(r):
        rng = _cell_rng(config.seed, est.label, n, rep)
        path = simulate_path(config.process, n, rng)
        if spec is None:
            estimates[rep] = apply_estimator(est, path, rng)
            continue
        # the interval's own T(H_n) is the estimate (== the catalog
        # estimator's), so H_n is built once per replication
        try:
            plugin = build_plugin(path, spec, config.lrv)
        except (GlstatError, ValueError):
            apply_estimator(est, path, rng)  # its own error text first
            raise
        estimates[rep] = plugin.estimate
        intervals.append(gl_confidence_interval(
            path, spec, config.lrv, level=config.ci_level, plugin=plugin))
    cell.estimates = estimates
    cell.qq = qq_points(estimates)
    cell.summary = normality_summary(estimates, cell.qq)
    if spec is not None:
        grand_mean = float(estimates.mean())
        hits = sum(1 for lo, hi in intervals if lo <= grand_mean <= hi)
        cell.coverage = hits / r


# --- persistence -----------------------------------------------------------

def _fmt(x: float) -> str:
    return float.__format__(float(x), ".17g")


def write_report(report: ExperimentReport, out_dir) -> Dict[str, str]:
    """Write per-cell CSVs, summary.csv, the resolved config, and a
    manifest of file names to sha256 content hashes."""
    os.makedirs(out_dir, exist_ok=True)
    manifest: Dict[str, str] = {}

    def emit(name: str, text: str) -> None:
        data = text.encode("utf-8")
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        manifest[name] = hashlib.sha256(data).hexdigest()

    summary_rows = ["estimator,n,mean,sd,skewness,excess_kurtosis,"
                    "qq_correlation,coverage,subsampled,error"]
    for (label, n), cell in sorted(report.cells.items()):
        if cell.estimates is not None:
            lines = ["replication,estimate"]
            lines += [f"{i},{_fmt(v)}" for i, v in enumerate(cell.estimates)]
            emit(f"estimates_{label}_{n}.csv", "\n".join(lines) + "\n")
        if cell.qq is not None:
            lines = ["theoretical,empirical"]
            lines += [f"{_fmt(a)},{_fmt(b)}" for a, b in cell.qq]
            emit(f"qq_{label}_{n}.csv", "\n".join(lines) + "\n")
        # the summary's five fields, in column order, and the coverage
        stats = (*(astuple(cell.summary) if cell.summary else (None,) * 5),
                 cell.coverage)
        summary_rows.append(",".join([
            label, str(n), *("" if v is None else _fmt(v) for v in stats),
            str(cell.subsampled).lower(),
            cell.error or "",
        ]))
    emit("summary.csv", "\n".join(summary_rows) + "\n")
    emit("config.json", report.config.to_json() + "\n")

    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
