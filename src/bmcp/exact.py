"""Exhaustive oracle for small instances.

Depth-first enumeration of all feasible selections in lexicographic order
of item index tuples, with coverage counts updated incrementally along the
tree. Subtrees whose next item already breaks the capacity are pruned;
weights are positive, so pruning is sound. Strict improvement updates the
incumbent, which makes the reported maximizer the lexicographically
smallest among all optima.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .instance import Instance, selection_from_items

# 2^25 nodes is already minutes of work; anything larger needs the solver.
MAX_ITEMS = 25


def exact_optimum(inst: Instance) -> tuple[int, np.ndarray]:
    """Optimal objective and its lexicographically smallest selection."""
    if inst.m > MAX_ITEMS:
        raise ConfigError(
            f"exhaustive search capped at {MAX_ITEMS} items, instance has {inst.m}"
        )
    m = inst.m
    capacity = inst.capacity
    weights = inst.weights.tolist()
    profits = inst.profits.tolist()
    indices = inst.indices.tolist()
    bounds = inst.indptr.tolist()
    rows = [indices[a:b] for a, b in zip(bounds, bounds[1:])]
    counts = [0] * inst.n

    best_objective = -1
    best_items: tuple[int, ...] = ()
    chosen: list[int] = []

    def descend(start: int, weight: int, objective: int) -> None:
        nonlocal best_objective, best_items
        if objective > best_objective:
            best_objective = objective
            best_items = tuple(chosen)
        for i in range(start, m):
            if weight + weights[i] > capacity:
                continue
            gained = 0
            for j in rows[i]:
                if counts[j] == 0:
                    gained += profits[j]
                counts[j] += 1
            chosen.append(i)
            descend(i + 1, weight + weights[i], objective + gained)
            chosen.pop()
            for j in rows[i]:
                counts[j] -= 1

    descend(0, 0, 0)
    return best_objective, selection_from_items(m, best_items)
