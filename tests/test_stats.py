import itertools
import math

import numpy as np
import pytest
import scipy.stats

import bmcp


def enumerated_p(diffs):
    """Literal two-sided signed-rank p over all 2^k sign assignments."""
    diffs = [d for d in diffs if d != 0]
    k = len(diffs)
    ranks = scipy.stats.rankdata([abs(d) for d in diffs])
    observed = sum(r for d, r in zip(diffs, ranks) if d > 0)
    at_most = at_least = 0
    for signs in itertools.product((0, 1), repeat=k):
        w = sum(r for s, r in zip(signs, ranks) if s)
        at_most += w <= observed + 1e-9
        at_least += w >= observed - 1e-9
    return min(1.0, 2.0 * min(at_most, at_least) / 2**k)


def test_pinned_uniformly_positive():
    pairs = [(3.0, 1.0), (5.0, 1.0), (8.0, 1.0), (12.0, 1.0), (20.0, 1.0)]
    assert bmcp.wilcoxon_signed_rank(pairs) == 0.0625


def test_matches_enumeration_with_ties_and_zeros():
    rng = np.random.default_rng(0)
    for _ in range(40):
        k = int(rng.integers(3, 11))
        diffs = rng.integers(-4, 5, size=k).tolist()
        if not any(d != 0 for d in diffs):
            continue
        pairs = [(float(d), 0.0) for d in diffs]
        assert bmcp.wilcoxon_signed_rank(pairs) == pytest.approx(
            enumerated_p(diffs), abs=1e-12
        )


def test_matches_scipy_exact_without_ties():
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = int(rng.integers(5, 18))
        diffs = rng.normal(size=k)
        pairs = [(float(d), 0.0) for d in diffs]
        expected = scipy.stats.wilcoxon(
            diffs, method="exact", alternative="two-sided"
        ).pvalue
        assert bmcp.wilcoxon_signed_rank(pairs) == pytest.approx(expected, abs=1e-12)


def test_large_sample_matches_scipy_approx():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = int(rng.integers(25, 60))
        diffs = rng.normal(loc=0.3, size=k)
        pairs = [(float(d), 0.0) for d in diffs]
        expected = scipy.stats.wilcoxon(
            diffs, method="approx", correction=True, alternative="two-sided"
        ).pvalue
        assert bmcp.wilcoxon_signed_rank(pairs) == pytest.approx(expected, rel=1e-9)


def test_ranks_exact_integer_differences_past_2_53():
    # Shifting every magnitude by 2^60 keeps the order of the differences
    # and their ties, so the p-value stays; in floats they all tied.
    shift = 2**60
    rng = np.random.default_rng(5)
    samples = [[1, 2, 3, 4, -5]] + [
        [d for d in rng.integers(-5, 6, size=int(rng.integers(2, 12))).tolist() if d]
        for _ in range(40)
    ]
    for diffs in filter(None, samples):
        shifted = [d + shift if d > 0 else d - shift for d in diffs]
        assert bmcp.wilcoxon_signed_rank([(d, 0) for d in shifted]) == (
            bmcp.wilcoxon_signed_rank([(d, 0) for d in diffs])
        ), diffs


def test_two_sided_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    forward = bmcp.wilcoxon_signed_rank(list(zip(a, b)))
    backward = bmcp.wilcoxon_signed_rank(list(zip(b, a)))
    assert forward == pytest.approx(backward, abs=1e-14)


def test_zero_differences_dropped():
    pairs = [(2.0, 2.0), (5.0, 1.0), (7.0, 1.0), (1.0, 4.0)]
    kept = [(5.0, 1.0), (7.0, 1.0), (1.0, 4.0)]
    assert bmcp.wilcoxon_signed_rank(pairs) == bmcp.wilcoxon_signed_rank(kept)


def test_degenerate_all_zero():
    assert bmcp.wilcoxon_signed_rank([(1.0, 1.0), (2.0, 2.0)]) == 1.0


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        bmcp.wilcoxon_signed_rank([])


def test_p_value_bounds():
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(2, 40))
        pairs = [(float(x), 0.0) for x in rng.integers(-3, 4, size=k)]
        p = bmcp.wilcoxon_signed_rank(pairs)
        assert 0.0 <= p <= 1.0
        assert math.isfinite(p)
