import itertools

import numpy as np
import pytest

import bmcp
from bmcp import ConfigError
from conftest import brute_force_value, csr, make_instance


def test_tiny_optimum(tiny):
    objective, selection = bmcp.exact_optimum(tiny)
    assert objective == 12
    # {1,2} and {1,3} both score 12; the lexicographically smaller wins.
    assert selection.tolist() == [True, True, False]


def test_matches_plain_enumeration():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inst = make_instance(
            int(rng.integers(8, 14)),
            int(rng.integers(10, 20)),
            0.2,
            0.45,
            seed=100 + seed,
        )
        objective, selection = bmcp.exact_optimum(inst)
        assert objective == brute_force_value(inst)
        assert bmcp.full_objective(inst, selection) == objective
        assert bmcp.total_weight(inst, selection) <= inst.capacity


def test_reports_lexicographically_smallest_maximizer():
    inst = make_instance(10, 12, 0.25, 0.5, seed=77)
    objective, selection = bmcp.exact_optimum(inst)
    weights = inst.weights.tolist()
    maximizers = []
    for size in range(inst.m + 1):
        for combo in itertools.combinations(range(inst.m), size):
            if sum(weights[i] for i in combo) > inst.capacity:
                continue
            sel = bmcp.selection_from_items(inst.m, combo)
            if bmcp.full_objective(inst, sel) == objective:
                maximizers.append(combo)
    assert tuple(np.flatnonzero(selection).tolist()) == min(maximizers)


def test_degenerate_capacity():
    inst = bmcp.Instance(
        weights=np.array([5, 6]),
        profits=np.array([3, 4]),
        capacity=4,
        **csr([[0], [1]]),
    )
    objective, selection = bmcp.exact_optimum(inst)
    assert objective == 0
    assert not selection.any()


def test_size_cap():
    inst = bmcp.generate_instance(
        bmcp.GeneratorSpec(m=26, n=10, density=0.2, capacity=50, seed=0)
    )
    with pytest.raises(ConfigError):
        bmcp.exact_optimum(inst)
