"""Per-item selection probabilities and the two perturbation policies.

Each item carries a probability reflecting how often tabu phases kept it
selected. Entering items are rewarded, leaving items punished, and the
vector then biases the perturbation that seeds the next phase: likely-bad
items are dropped, likely-good ones re-enter.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .state import SearchState
from .tabu import random_fill


def _open_uniform(rng: np.random.Generator) -> float:
    """Uniform draw on (0, 1); rng.random() can return exactly 0."""
    while True:
        u = rng.random()
        if u > 0.0:
            return u


class ProbabilityVector:
    """Selection probabilities with multiplicative reward/punish updates.

    reward:  p <- reward_factor + (1 - reward_factor) * p
    punish:  p <- (1 - punish_factor) * p

    Both factors must lie strictly inside (0, 1), which keeps every
    probability inside (0, 1) forever once it starts there.
    """

    __slots__ = ("probs", "reward_factor", "punish_factor")

    def __init__(self, probs: np.ndarray, reward_factor: float, punish_factor: float):
        if not 0.0 < reward_factor < 1.0:
            raise ConfigError("reward factor must lie strictly between 0 and 1")
        if not 0.0 < punish_factor < 1.0:
            raise ConfigError("punish factor must lie strictly between 0 and 1")
        self.probs = np.asarray(probs, dtype=np.float64)
        self.reward_factor = float(reward_factor)
        self.punish_factor = float(punish_factor)

    @classmethod
    def initial(
        cls, item_count: int, reward_factor: float = 0.5, punish_factor: float = 0.5
    ) -> "ProbabilityVector":
        """All probabilities start at the indifferent 0.50."""
        return cls(np.full(item_count, 0.5), reward_factor, punish_factor)

    def reward(self, item: int) -> None:
        self.probs[item] = self.reward_factor + (1.0 - self.reward_factor) * self.probs[item]

    def punish(self, item: int) -> None:
        self.probs[item] = (1.0 - self.punish_factor) * self.probs[item]


def probability_perturbation(
    best: SearchState, prob: ProbabilityVector, rng: np.random.Generator
) -> np.ndarray:
    """Probability-guided restart point; returns a feasible selection vector.

    Drop phase: each selected item leaves when a uniform draw lands at or
    below its probability of being a poor keeper, i.e. u <= p means drop
    for selected items, in ascending item order. Refill phase: unselected
    items (dropped ones included) are visited in random order; each one
    that fits enters when its draw exceeds its probability, and the first
    misfit ends the phase.
    """
    inst = best.instance
    weights = inst.weights
    sel = best.selection.copy()
    weight = best.total_weight
    for i in np.flatnonzero(sel):
        if _open_uniform(rng) <= prob.probs[i]:
            sel[i] = False
            weight -= int(weights[i])
    for j in rng.permutation(np.flatnonzero(~sel)):
        if weight + weights[j] > inst.capacity:
            break
        if _open_uniform(rng) > prob.probs[j]:
            sel[j] = True
            weight += int(weights[j])
    return sel


def random_perturbation(best: SearchState, rng: np.random.Generator) -> np.ndarray:
    """Learning-free baseline: drop half the selection, refill at random.

    Removes a uniformly random subset of floor(k/2) of the k selected
    items, then adds random fitting items until the first misfit.
    """
    sel = best.selection.copy()
    sel_idx = np.flatnonzero(sel)
    drop = rng.choice(sel_idx, size=sel_idx.size // 2, replace=False)
    sel[drop] = False
    return random_fill(best.instance, rng, sel)
