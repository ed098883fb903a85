"""Output checks for every job the benchmark serves.

histo and hll must equal the kernel's golden reference exactly; dp
partitions must match golden as multisets.  hhd is checked against its
documented windowed-sketch semantics
(``HeavyHitterKernel.combine_results``): every key with at least
``threshold`` tuples inside one event-time window must be reported with
an estimate no smaller than that window count, and nothing outside the
stream may be reported.  Recall against the whole-stream exact heavy
hitters is measured (:func:`hhd_recall_counts`), not gated on.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.apps.heavy_hitter import golden_heavy_hitters
from repro.service.jobs import kernel_for

#: PriPEs of the service's default pipeline shape.
PRIPES = 16


def window_index(timestamps: np.ndarray, window_seconds: float) -> np.ndarray:
    """Event-time window of each tuple, as ``WindowManager`` documents it:
    floor of ``t / window``, except that a quotient within 4 ulp of an
    integer is that integer."""
    quotient = np.asarray(timestamps, dtype=np.float64) / window_seconds
    indices = np.floor(quotient).astype(np.int64)
    nearest = np.rint(quotient)
    snapped = np.abs(quotient - nearest) <= 4.0 * np.spacing(np.abs(quotient))
    indices[snapped] = nearest[snapped].astype(np.int64)
    return indices


def check_exact(app: str, result: Any, keys: np.ndarray, values: np.ndarray,
                params: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """histo/hll: equal to golden element by element (None when it is)."""
    golden = kernel_for(app, PRIPES, params).golden(keys, values)
    result = np.asarray(result)
    if result.shape != golden.shape or not np.array_equal(result, golden):
        return f"{app} result differs from golden"
    return None


def check_partitions(result: Dict[int, list], keys: np.ndarray,
                     params: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """dp: the same partitions as golden, each the same multiset of keys."""
    golden = kernel_for("dp", PRIPES, params).golden(keys, np.zeros(0))
    if set(result) != set(golden):
        return "dp partition ids differ from golden"
    for part, expected in golden.items():
        got = np.sort(np.asarray(result[part], dtype=np.uint64))
        if not np.array_equal(got, np.sort(np.asarray(expected,
                                                      dtype=np.uint64))):
            return f"dp partition {part} differs from golden as a multiset"
    return None


def check_heavy_hitters(result: Dict[int, int], keys: np.ndarray,
                        timestamps: np.ndarray, window_seconds: float,
                        threshold: int) -> Optional[str]:
    """hhd: windowed-sketch semantics (see module docstring)."""
    keys = np.asarray(keys, dtype=np.uint64)
    present = set(np.unique(keys).tolist())
    stray = [key for key in result if key not in present]
    if stray:
        return f"hhd reported {len(stray)} keys absent from the stream"
    windows = window_index(timestamps, window_seconds)
    pairs = np.stack([windows.astype(np.uint64), keys], axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    heavy = counts >= threshold
    for key, count in zip(uniq[heavy, 1].tolist(), counts[heavy].tolist()):
        estimate = result.get(key)
        if estimate is None:
            return (f"hhd missed key {key} with {count} tuples in one "
                    "window")
        if estimate < count:
            return (f"hhd estimate {estimate} for key {key} is below its "
                    f"window count {count}")
    return None


def hhd_threshold(params: Optional[Dict[str, Any]] = None) -> int:
    """Heavy-hitter threshold of an hhd job submitted with ``params``."""
    return kernel_for("hhd", PRIPES, params).threshold


def hhd_recall_counts(result: Dict[int, int], keys: np.ndarray,
                      threshold: int) -> Tuple[int, int]:
    """(reported exact heavy hitters, exact heavy hitters) over the whole
    stream."""
    exact = golden_heavy_hitters(keys, threshold)
    return sum(1 for key in exact if key in result), len(exact)


def check_job(app: str, result: Any, keys: np.ndarray, values: np.ndarray,
              timestamps: np.ndarray, window_seconds: float,
              params: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """Dispatch to the app's checker; None when the output is correct."""
    if app in ("histo", "hll"):
        return check_exact(app, result, keys, values, params)
    if app == "dp":
        return check_partitions(result, keys, params)
    if app == "hhd":
        return check_heavy_hitters(result, keys, timestamps,
                                   window_seconds, hhd_threshold(params))
    raise ValueError(f"no output check for app {app!r}")
