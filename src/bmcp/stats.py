"""Paired-sample statistics for comparing solver policies.

The signed-rank test here is two-sided. With at most 20 nonzero
differences the p-value is exact: the null distribution of the positive
rank sum is built by dynamic programming over doubled ranks (doubling
makes tie-averaged ranks integral), which counts exactly the 2^k
equiprobable sign assignments. Larger samples use the normal
approximation with tie and continuity corrections.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

EXACT_LIMIT = 20


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> float:
    """Two-sided signed-rank p-value for paired samples.

    Zero differences are dropped; if every difference is zero the test is
    degenerate and the p-value is 1.
    """
    if len(pairs) == 0:
        raise ValueError("empty paired sample")
    # The difference before the float: equal integer differences stay tied.
    diffs = np.array([float(a - b) for a, b in pairs])
    diffs = diffs[diffs != 0.0]
    k = diffs.size
    if k == 0:
        return 1.0
    magnitudes = np.abs(diffs)
    ranks = rankdata(magnitudes)
    w_plus = float(ranks[diffs > 0].sum())
    if k <= EXACT_LIMIT:
        return _exact_p(ranks, w_plus, k)
    return _approx_p(magnitudes, w_plus, k)


def _exact_p(ranks: np.ndarray, w_plus: float, k: int) -> float:
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        shifted = counts[: counts.size - r]
        counts[r:] = counts[r:] + shifted
    w2 = int(round(2.0 * w_plus))
    at_most = int(counts[: w2 + 1].sum())
    at_least = int(counts[w2:].sum())
    p = 2.0 * min(at_most, at_least) / float(2**k)
    return min(1.0, p)


def _approx_p(magnitudes: np.ndarray, w_plus: float, k: int) -> float:
    mean = k * (k + 1) / 4.0
    variance = k * (k + 1) * (2 * k + 1) / 24.0
    _, tie_sizes = np.unique(magnitudes, return_counts=True)
    variance -= float((tie_sizes**3 - tie_sizes).sum()) / 48.0
    if variance <= 0.0:
        return 1.0
    z = max(0.0, abs(w_plus - mean) - 0.5) / math.sqrt(variance)
    return math.erfc(z / math.sqrt(2.0))
