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
import numbers
import os
from dataclasses import asdict, dataclass, field
from itertools import chain, combinations
from math import ceil, floor, sqrt
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DegenerateVarianceError, GlstatError
from .gl import (
    estimator_c,
    estimator_gini,
    estimator_lms,
    estimator_q,
    gini_gl_spec,
)
from .lrv import (
    BandwidthPolicy,
    LrvConfig,
    gl_confidence_interval,
    normal_quantile,
)
from .processes import (
    EgarchParams,
    InnovationModel,
    SimConfig,
    simulate_egarch,
    simulate_garch11,
    simulate_innovations,
)
from .ustat import as_sample

DEFAULT_REPLICATIONS = 500
_Q_CHUNK_ROWS = 1 << 15  # index rows drawn per chunk in q_subsampled
_Q_BRACKET_SD = 8  # half-width of q_subsampled's bracket, in binomial sd


# --- configuration ---------------------------------------------------------

@dataclass(frozen=True)
class ProcessConfig:
    """Descriptor of the data-generating process for one experiment."""

    kind: str  # iid_gaussian | ar1 | garch11 | egarch
    rho: float = 0.0  # AR(1) coefficient (process or EGARCH innovations)
    burn_in: int = 500
    egarch: Optional[EgarchParams] = None
    garch: Optional[Tuple[float, float, float]] = None  # alpha0, alpha1, beta1
    innovation_kind: str = "iid_gaussian"

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "rho": self.rho, "burn_in": self.burn_in,
             "innovation_kind": self.innovation_kind}
        if self.egarch is not None:
            d["egarch"] = asdict(self.egarch)
        if self.garch is not None:
            d["garch"] = list(self.garch)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ProcessConfig":
        eg = d.get("egarch")
        if eg is not None:
            # an absent mean_abs_z takes the dataclass default
            extra = ({"mean_abs_z": eg["mean_abs_z"]} if "mean_abs_z" in eg
                     else {})
            eg = EgarchParams(alpha0=eg["alpha0"], alpha=tuple(eg["alpha"]),
                              beta=tuple(eg["beta"]), theta=eg["theta"],
                              lam=eg["lam"], **extra)
        ga = d.get("garch")
        return ProcessConfig(
            kind=d["kind"], rho=d.get("rho", 0.0),
            burn_in=d.get("burn_in", 500), egarch=eg,
            garch=tuple(ga) if ga is not None else None,
            innovation_kind=d.get("innovation_kind", "iid_gaussian"),
        )


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

    name: str  # gini | gini_os | q | c | lms
    m: int = 3
    alpha: float = 0.5
    c_alpha: float = 1.0
    subsample: int = 0

    def __post_init__(self):
        # checked when built, so that an experiment fails before any cell
        # runs: a negative subsample would silently run exact Q
        if (not isinstance(self.subsample, numbers.Integral)
                or self.subsample < 0):
            raise ValueError(f"subsample must be an integer >= 0, "
                             f"got {self.subsample!r}")

    @property
    def label(self) -> str:
        if self.name == "q" and self.subsample > 0:
            return "q_sub"
        return self.name

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "EstimatorConfig":
        return EstimatorConfig(**d)


def _lrv_to_dict(cfg: LrvConfig) -> dict:
    return {
        "weight": "bartlett",
        "bandwidth": {"kind": cfg.bandwidth.kind, "b": cfg.bandwidth.b,
                      "c": cfg.bandwidth.c, "e": cfg.bandwidth.e},
        "density_halfwidth_c": cfg.density_halfwidth_c,
        "normalization": cfg.normalization,
    }


def _lrv_from_dict(d: dict) -> LrvConfig:
    if d["weight"] != "bartlett":
        raise ValueError(
            f"the lag window is bartlett only, got {d['weight']!r}"
        )
    bw = d.get("bandwidth", {"kind": "auto"})
    return LrvConfig(
        bandwidth=BandwidthPolicy(kind=bw.get("kind", "auto"),
                                  b=bw.get("b", 0.0), c=bw.get("c", 1.0),
                                  e=bw.get("e", 1.0 / 3.0)),
        density_halfwidth_c=d.get("density_halfwidth_c", 0.5),
        normalization=d.get("normalization", "combinatorial"),
    )


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
        # the normality summary of each cell needs 4 estimates
        if self.replications < 4:
            raise ValueError("need at least 4 replications")
        # labels key the cells, the report file names and the RNG streams
        labels = [e.label for e in self.estimators]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"duplicate estimator label {label!r}")

    def to_dict(self) -> dict:
        d = {
            "process": self.process.to_dict(),
            "estimators": [e.to_dict() for e in self.estimators],
            "sample_sizes": list(self.sample_sizes),
            "replications": self.replications,
            "seed": self.seed,
            "ci_level": self.ci_level,
        }
        if self.lrv is not None:
            d["lrv"] = _lrv_to_dict(self.lrv)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            process=ProcessConfig.from_dict(d["process"]),
            estimators=tuple(EstimatorConfig.from_dict(e)
                             for e in d["estimators"]),
            sample_sizes=tuple(int(n) for n in d["sample_sizes"]),
            replications=int(d.get("replications", DEFAULT_REPLICATIONS)),
            seed=int(d.get("seed", 0)),
            lrv=_lrv_from_dict(d["lrv"]) if "lrv" in d else None,
            ci_level=float(d.get("ci_level", 0.95)),
        )

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
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(tag, int(n), int(rep)))
    return np.random.Generator(np.random.Philox(ss))


def simulate_path(process: ProcessConfig, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    if process.kind == "iid_gaussian":
        return rng.standard_normal(n)
    if process.kind == "ar1":
        model = InnovationModel(kind="ar1", rho=process.rho)
        return simulate_innovations(model, n, rng)
    sim = SimConfig(n=n, burn_in=process.burn_in)
    if process.kind == "garch11":
        model = InnovationModel(kind=process.innovation_kind, rho=process.rho)
        z = simulate_innovations(model, n + process.burn_in, rng)
        a0, a1, b1 = process.garch
        return simulate_garch11(a0, a1, b1, z, sim)
    if process.kind == "egarch":
        params = process.egarch
        lag = max(len(params.alpha), len(params.beta))
        model = InnovationModel(kind=process.innovation_kind, rho=process.rho)
        z = simulate_innovations(model, n + process.burn_in + lag, rng)
        return simulate_egarch(params, z, sim)
    raise ValueError(f"unknown process kind {process.kind!r}")


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
                  rng: np.random.Generator) -> Optional[float]:
    """q_subsampled's value from the gaps inside a bracket that the
    first chunk fixes, or None when the selected rank falls outside it.

    The bracket is the first chunk's order statistics at p +- _Q_BRACKET_SD
    binomial sd, p the rank fraction that alpha and the chunk's repeated
    count give.  Each chunk adds to the count of gaps below the bracket
    and keeps the gaps inside it, so only those are partitioned.
    """
    chunks = _gap_chunks(x, m, n_subsets, rng)
    first, first_repeated = next(chunks)
    r = first.size
    p = (first_repeated + alpha * (r - first_repeated)) / r
    half = _Q_BRACKET_SD * sqrt(r * p * (1.0 - p))
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
    With 4 chunks or more only the gaps inside a bracket fixed by the
    first chunk are kept (a few percent of the rows at alpha = 0.5).
    If the selected gap falls outside it, the generator state saved
    before the first draw is restored and the stream replayed into an
    array of all n_subsets gaps, the path that fewer chunks take.
    """
    x = as_sample(sample)
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if not isinstance(n_subsets, numbers.Integral):
        raise ValueError(f"n_subsets must be an integer, got {n_subsets!r}")
    if n_subsets < 1:
        raise ValueError(f"n_subsets must be at least 1, got {n_subsets}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if x.size < m:
        # every row would repeat an index; fail before touching the stream
        raise DegenerateVarianceError("no distinct index subsets drawn")
    n_subsets = int(n_subsets)
    if n_subsets > 3 * _Q_CHUNK_ROWS:
        state = rng.bit_generator.state
        value = _q_in_bracket(x, m, alpha, n_subsets, rng)
        if value is not None:
            return value
        rng.bit_generator.state = state
    vals = np.empty(n_subsets)
    start = repeated = 0
    for gaps, rep in _gap_chunks(x, m, n_subsets, rng):
        vals[start:start + gaps.size] = gaps
        start += gaps.size
        repeated += rep
    j = _q_rank(alpha, n_subsets, repeated)
    vals.partition(j)
    return float(vals[j])


def apply_estimator(est: EstimatorConfig, sample,
                    rng: Optional[np.random.Generator] = None) -> float:
    if est.name in ("gini", "gini_os"):
        return estimator_gini(sample)
    if est.name == "q":
        if est.subsample > 0:
            if rng is None:
                raise ValueError("subsampled Q needs an RNG")
            return q_subsampled(sample, est.m, est.alpha, est.subsample, rng)
        return estimator_q(sample, m=est.m, alpha=est.alpha)
    if est.name == "c":
        return estimator_c(sample, alpha=est.alpha, c_alpha=est.c_alpha)
    if est.name == "lms":
        return estimator_lms(sample)
    raise ValueError(f"unknown estimator {est.name!r}")


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


def normality_summary(values) -> NormalitySummary:
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise ValueError("need at least 4 values for a normality summary")
    qq = qq_points(v)
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
    standardized: Optional[np.ndarray] = None
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
                              subsampled=est.name == "q" and est.subsample > 0)
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
    want_ci = config.lrv is not None and est.name in ("gini", "gini_os")
    intervals: List[Tuple[float, float]] = []
    for rep in range(r):
        rng = _cell_rng(config.seed, est.label, n, rep)
        path = simulate_path(config.process, n, rng)
        estimates[rep] = apply_estimator(est, path, rng)
        if want_ci:
            intervals.append(gl_confidence_interval(
                path, gini_gl_spec(), config.lrv, level=config.ci_level))
    cell.estimates = estimates
    sd = estimates.std(ddof=1)
    if sd == 0.0:
        raise DegenerateVarianceError(
            "all replications produced the same estimate"
        )
    cell.standardized = (estimates - estimates.mean()) / sd
    cell.qq = qq_points(estimates)
    cell.summary = normality_summary(estimates)
    if want_ci:
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
    files: List[str] = []

    def emit(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        files.append(name)

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
        s = cell.summary
        summary_rows.append(",".join([
            label, str(n),
            _fmt(s.mean) if s else "", _fmt(s.sd) if s else "",
            _fmt(s.skewness) if s else "", _fmt(s.excess_kurtosis) if s else "",
            _fmt(s.qq_correlation) if s else "",
            _fmt(cell.coverage) if cell.coverage is not None else "",
            str(cell.subsampled).lower(),
            cell.error or "",
        ]))
    emit("summary.csv", "\n".join(summary_rows) + "\n")
    emit("config.json", report.config.to_json() + "\n")

    manifest = {}
    for name in sorted(files):
        with open(os.path.join(out_dir, name), "rb") as fh:
            manifest[name] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
