"""Symmetric kernels h(x_1, ..., x_m) and the built-in kernel catalog.

A kernel is a symmetric, measurable function of m real arguments.  Every
estimator in this package is parameterized by one.  Built-ins:

    gini_abs_diff   h(x, y) = |x - y|                       (m = 2)
    min_pairwise    h(x_1..x_m) = min_{i<j} |x_j - x_i|     (m >= 2)
    range           h(x_1..x_m) = max - min                 (m >= 2)
    identity        h(x) = x                                (m = 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from .errors import is_number

BUILTIN_KERNEL_NAMES = ("gini_abs_diff", "min_pairwise", "range", "identity")


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric kernel of dimension ``m``.

    ``eval_one`` maps a length-m array to a float.  ``eval_rows``, when
    present, maps an (N, m) array to a length-N array and must agree with
    ``eval_one`` row by row; it exists purely as a fast path.
    Instances are immutable and safe to share across threads.
    """

    name: str
    m: int
    eval_one: Callable[[np.ndarray], float] = None
    eval_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"kernel dimension must be >= 1, got {self.m}")


def eval_kernel(kernel: KernelSpec, args) -> float:
    """Evaluate ``kernel`` at an m-vector of finite reals.

    Raises ValueError on a dimension mismatch or non-finite input;
    NaN/inf are rejected here so downstream order statistics stay clean.
    """
    a = np.asarray(args, dtype=float)
    if a.shape != (kernel.m,):
        raise ValueError(
            f"kernel {kernel.name!r} has dimension {kernel.m}, "
            f"got argument of shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError("kernel arguments must be finite")
    return float(kernel.eval_one(a))


def eval_kernel_rows(kernel: KernelSpec, rows: np.ndarray) -> np.ndarray:
    """Evaluate the kernel on every row of an (N, m) array."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != kernel.m:
        raise ValueError(f"expected an (N, {kernel.m}) array, got {rows.shape}")
    if kernel.eval_rows is not None:
        return np.asarray(kernel.eval_rows(rows), dtype=float)
    return np.array([kernel.eval_one(r) for r in rows], dtype=float)


def _min_pairwise_rows(rows: np.ndarray) -> np.ndarray:
    # min over pairwise |differences| of a set == min consecutive gap
    # after sorting each row
    s = np.sort(rows, axis=1)
    return np.min(np.diff(s, axis=1), axis=1)


# one shared instance, so that closed forms can recognize it by identity
GINI_ABS_DIFF = KernelSpec(
    name="gini_abs_diff",
    m=2,
    eval_one=lambda a: abs(a[0] - a[1]),
    eval_rows=lambda r: np.abs(r[:, 0] - r[:, 1]),
)

# the shared min_pairwise and range instances of each dimension m, filled
# on first use
MIN_PAIRWISE: Dict[int, KernelSpec] = {}
RANGE: Dict[int, KernelSpec] = {}


def builtin_kernel(name: str, params: Optional[Mapping[str, float]] = None) -> KernelSpec:
    """Construct a built-in kernel by name.

    ``min_pairwise`` and ``range`` take the dimension via ``params['m']``,
    an integer >= 2 (default 3 for min_pairwise, 2 for range).
    ``gini_abs_diff`` always returns the shared ``GINI_ABS_DIFF``,
    ``min_pairwise`` the shared ``MIN_PAIRWISE[m]`` and ``range`` the
    shared ``RANGE[m]``.
    """
    params = dict(params or {})
    # not truncated with int(): m = 2.5 must fail, not run m = 2
    m = params.get("m", 3 if name == "min_pairwise" else 2)
    if name in ("min_pairwise", "range") and not is_number(m, integral=True):
        raise ValueError(f"{name} requires an integer m, got {m!r}")
    if name == "gini_abs_diff":
        return GINI_ABS_DIFF
    if name == "identity":
        return KernelSpec(
            name=name,
            m=1,
            eval_one=lambda a: a[0],
            eval_rows=lambda r: r[:, 0].copy(),
        )
    if name == "min_pairwise":
        m = int(m)
        if m < 2:
            raise ValueError(f"min_pairwise requires m >= 2, got {m}")
        return MIN_PAIRWISE.setdefault(m, KernelSpec(
            name=name,
            m=m,
            eval_one=lambda a: float(np.min(np.diff(np.sort(a)))),
            eval_rows=_min_pairwise_rows,
        ))
    if name == "range":
        m = int(m)
        if m < 2:
            raise ValueError(f"range kernel requires m >= 2, got {m}")
        return RANGE.setdefault(m, KernelSpec(
            name=name,
            m=m,
            eval_one=lambda a: float(np.max(a) - np.min(a)),
            eval_rows=lambda r: np.ptp(r, axis=1),
        ))
    raise ValueError(f"unknown kernel {name!r}; known: {BUILTIN_KERNEL_NAMES}")


def custom_kernel(
    name: str,
    m: int,
    eval_one: Callable[[np.ndarray], float],
    eval_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> KernelSpec:
    """Wrap a user-supplied symmetric function as a KernelSpec.

    Symmetry is the caller's obligation; the test suite spot-checks it
    for the built-ins only.
    """
    return KernelSpec(name=name, m=m, eval_one=eval_one, eval_rows=eval_rows)
