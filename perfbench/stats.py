"""Small statistics helpers: tail percentiles, spreads, the cost fit."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that the tail estimate is one or two outliers.
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count - math.ceil(count * q / 100.0)


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile, refused when the tail is too thin.

    Raises ValueError unless at least ``min_beyond`` samples lie beyond
    the percentile (p95 needs 200 samples, p50 needs 20).
    """
    beyond = samples_beyond(len(samples), q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has {beyond} beyond it; "
            f"need {min_beyond}")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def highest_supported_percentile(
        count: int, candidates: Sequence[float] = (50, 90, 95, 99, 99.9),
        min_beyond: int = MIN_BEYOND) -> float:
    """The highest candidate percentile ``count`` samples support (0 if
    none does)."""
    supported = [q for q in candidates
                 if samples_beyond(count, q) >= min_beyond]
    return max(supported, default=0.0)


def fit_linear(sizes: Sequence[float],
               costs: Sequence[float]) -> Tuple[float, float]:
    """Least-squares ``cost ≈ a + b·size``; returns ``(a, b)``."""
    x = np.asarray(sizes, dtype=np.float64)
    y = np.asarray(costs, dtype=np.float64)
    if x.size < 2 or np.ptp(x) == 0:
        raise ValueError("need at least two distinct sizes to fit a + b*N")
    design = np.column_stack([np.ones_like(x), x])
    (a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(a), float(b)
