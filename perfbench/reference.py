"""A fixed reference computation, timed next to every round.

The machine the benchmark was written on runs the same code up to 35%
slower for stretches of seconds to minutes (see README.md, "Noise").
A whole run can fall into a slow stretch, so the median round of the
same program moved by more than any bound a metric may have.  The
reference is timed immediately before and after each round, in the same
process, and the end-to-end time metric is the round's wall time over
the reference's.  A slow stretch lengthens both; a slower program
lengthens only the round.

The reference sorts fixed arrays that do not depend on the seed: one of
2,000,000 doubles (16 MB, beyond the caches, like the large arrays of
``q_subsampled`` and the n x n grids) and four of 200,000 doubles
(1.6 MB).  It does not import glstat, so no change to the program moves
it.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20171017)
_LARGE = _rng.standard_normal(2_000_000)
_MEDIUM = _rng.standard_normal(200_000)


def _work() -> None:
    np.sort(_LARGE)
    for _ in range(4):
        np.sort(_MEDIUM)


def seconds() -> float:
    """Wall time of one reference computation."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
