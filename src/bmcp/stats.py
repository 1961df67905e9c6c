"""Paired-sample statistics for comparing solver policies.

The signed-rank test here is two-sided. The differences stay exact and
rank by doubled tie-averaged ranks, which are integers: a tie group of c
magnitudes ending at rank e doubles to 2e - c + 1. With at most 20 nonzero
differences the p-value is exact: the null distribution of the doubled
positive rank sum is built by dynamic programming over the doubled ranks,
which counts exactly the 2^k equiprobable sign assignments. Larger samples
use the normal approximation with tie and continuity corrections.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

EXACT_LIMIT = 20


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> float:
    """Two-sided signed-rank p-value for paired samples.

    Zero differences are dropped; if every difference is zero the test is
    degenerate and the p-value is 1.
    """
    if len(pairs) == 0:
        raise ValueError("empty paired sample")
    # Exact differences in an object array: a float cast would tie
    # integers that differ only past 2^53.
    diffs = np.array([a - b for a, b in pairs], dtype=object)
    diffs = diffs[diffs != 0]
    k = diffs.size
    if k == 0:
        return 1.0
    _, group, ties = np.unique(np.abs(diffs), return_inverse=True, return_counts=True)
    doubled = (2 * np.cumsum(ties) - ties + 1)[group]
    w2 = int(doubled[diffs > 0].sum())
    if k <= EXACT_LIMIT:
        return _exact_p(doubled, w2, k)
    return _approx_p(ties, w2, k)


def _exact_p(doubled: np.ndarray, w2: int, k: int) -> float:
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        shifted = counts[: counts.size - r]
        counts[r:] = counts[r:] + shifted
    at_most = int(counts[: w2 + 1].sum())
    at_least = int(counts[w2:].sum())
    p = 2.0 * min(at_most, at_least) / float(2**k)
    return min(1.0, p)


def _approx_p(ties: np.ndarray, w2: int, k: int) -> float:
    mean = k * (k + 1) / 4.0
    variance = k * (k + 1) * (2 * k + 1) / 24.0
    variance -= float((ties**3 - ties).sum()) / 48.0
    if variance <= 0.0:
        return 1.0
    z = max(0.0, abs(w2 / 2.0 - mean) - 0.5) / math.sqrt(variance)
    return math.erfc(z / math.sqrt(2.0))
