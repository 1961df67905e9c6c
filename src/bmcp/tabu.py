"""Tabu search over the flip and swap neighborhoods.

One search phase starts from a feasible state, repeatedly applies the best
admissible move (worsening moves included), and stops after ``depth``
consecutive non-improving iterations or when no admissible move exists.
Both items touched by a move become tabu for ``tenure`` iterations;
a tabu move is still admitted when it would beat the best objective seen
so far in the phase (aspiration). Exact ties in the integer move deltas
are broken uniformly at random.

Every move delta is computed in int64 from the instance's incidence, with
no float step. Each pick is one pass of the compiled scan in ``_scan.c``,
which :mod:`bmcp._native` builds on first use. The scan reads the move
values the :class:`~bmcp.state.SearchState` keeps, and for each leaving
item walks only the entering items light enough to fit.
:data:`bmcp.instance.MAX_TOTAL` bounds the instance totals so that no
intermediate can overflow.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from . import _native
from .errors import ConfigError
from .instance import MAX_TOTAL, Instance
from .state import Flip, Move, SearchState, Swap

if TYPE_CHECKING:
    from .learning import ProbabilityVector

def tabu_tenure(m: int, n: int) -> int:
    """Tenure grows with instance size: 4 + floor(max(m, n) / 100)."""
    return 4 + max(m, n) // 100


def tabu_depth(m: int) -> int:
    """Default cutoff for consecutive non-improving iterations: (1100 - m) * 20.

    The formula shrinks as instances grow and turns nonpositive at
    m >= 1100; such instances must set an explicit depth.
    """
    if m >= 1100:
        raise ConfigError(
            f"default depth formula is nonpositive for m={m}; set depth explicitly"
        )
    return (1100 - m) * 20


class TabuList:
    """Per-item tabu expiry, advanced once per search iteration.

    An item marked at iteration t stays tabu through iteration t + tenure
    and is admissible again from t + tenure + 1. Iterations start at 1 so a
    fresh list (expiry all zero) marks nothing tabu.

    Each search owns its list, so the list also holds the scan's reused tie
    buffer. ``expiry`` is fixed for the list's life: the scan reads it
    through the list's ``core`` struct.
    """

    __slots__ = ("_expiry", "tenure", "iteration", "_ties", "core")

    def __init__(self, item_count: int, tenure: int):
        self._expiry = np.zeros(item_count, dtype=np.int64)
        # The expiry is int64. No phase runs MAX_TOTAL iterations, so
        # clamping there changes no move.
        self.tenure = min(tenure, MAX_TOTAL)
        self.iteration = 1
        self._reserve(item_count)

    @property
    def expiry(self) -> np.ndarray:
        """Iteration through which each item stays tabu, int64 (m,)."""
        return self._expiry

    def _reserve(self, capacity: int) -> None:
        """A tie buffer with room for ``capacity`` moves."""
        self._ties = np.empty(capacity, dtype=np.int64)
        self.core = _native.Tabu(expiry=self._expiry, ties=self._ties, capacity=capacity)

    def advance(self) -> None:
        self.iteration += 1

    def mark(self, *items: int) -> None:
        self._expiry[list(items)] = self.iteration + self.tenure


def _compiled_candidates(
    state: SearchState, tabu: TabuList, threshold: int, swaps_only: bool
) -> tuple[np.ndarray, int]:
    """Every admissible move at the best delta, in scan order, and that delta.

    One pass of ``bmcp_scan`` from :data:`bmcp._native.lib`; ``_scan.c``
    documents the scan order and the item codes the moves come as, which
    :func:`_move` decodes. Admissible: feasible and either non-tabu or past
    the aspiration bar, ``delta > threshold``. ``swaps_only`` leaves the
    flips out. When the ties overflow the tabu list's buffer, it grows and
    the scan runs again.
    """
    inst = state.instance
    # ctypes wraps ints to int64 silently. No weight difference or delta
    # reaches MAX_TOTAL, so clamping there changes no comparison.
    headroom = min(inst.capacity - state.total_weight, MAX_TOTAL)
    threshold = max(-MAX_TOTAL, min(threshold, MAX_TOTAL))
    if tabu.expiry.size != inst.m:
        raise ValueError(f"tabu list of {tabu.expiry.size} items for {inst.m} items")
    while True:
        count = _native.lib.bmcp_scan(
            state.core, tabu.core, tabu.iteration, headroom, threshold, swaps_only
        )
        if count <= tabu._ties.size:
            return tabu._ties[:count].copy(), tabu.core.best
        tabu._reserve(max(count, 2 * tabu._ties.size))


def _move(m: int, code: int) -> Move:
    """The move a scan code stands for on ``m`` items."""
    return Flip(code) if code < m else Swap(*divmod(code - m, m))


def select_move(
    state: SearchState,
    tabu: TabuList,
    best_so_far: int,
    rng: np.random.Generator,
) -> Move | None:
    """Best admissible move at the tabu list's current iteration, or None.

    Admissible: feasible and either non-tabu or past the aspiration bar,
    that is pushing the objective strictly past ``best_so_far``. The best
    may worsen the objective; ties break uniformly via ``rng`` over the
    candidates in order: flip-ins, flip-outs, then swaps by (leaving,
    entering) item. One tie draws nothing.
    """
    ties, _ = _compiled_candidates(state, tabu, best_so_far - state.objective, False)
    if not ties.size:
        return None
    pick = ties[0] if ties.size == 1 else ties[rng.integers(ties.size)]
    return _move(state.instance.m, int(pick))


def random_fill(
    inst: Instance,
    rng: np.random.Generator,
    selection: np.ndarray | None = None,
) -> np.ndarray:
    """Add uniformly random items until the first one that does not fit.

    Starts from the given selection (empty by default) and returns the
    completed boolean vector. The first drawn misfit ends the fill, so the
    result is not necessarily maximal.
    """
    sel = (
        np.zeros(inst.m, dtype=bool) if selection is None else selection.copy()
    )
    weight = int(inst.weights[sel].sum())
    pool = np.flatnonzero(~sel).tolist()
    while pool:
        k = int(rng.integers(len(pool)))
        item = pool[k]
        if weight + inst.weights[item] > inst.capacity:
            break
        sel[item] = True
        weight += int(inst.weights[item])
        pool[k] = pool[-1]
        pool.pop()
    return sel


def descent_local_search(
    state: SearchState, rng: np.random.Generator
) -> SearchState:
    """Apply best improving swaps until none exists; mutates and returns state.

    Each step draws its tie-break from ``rng``, even with a single tie.
    """
    no_tabu = TabuList(state.instance.m, tenure=1)
    while True:
        ties, best = _compiled_candidates(state, no_tabu, 0, True)
        if not ties.size or best <= 0:
            return state
        pick = ties[rng.integers(ties.size)]
        state.apply(_move(state.instance.m, int(pick)))


def initial_solution(inst: Instance, rng: np.random.Generator) -> SearchState:
    """Random fill followed by swap descent."""
    state = SearchState.from_selection(inst, random_fill(inst, rng))
    return descent_local_search(state, rng)


def tabu_search(
    state: SearchState,
    prob: ProbabilityVector,
    depth: int,
    tenure: int,
    rng: np.random.Generator,
    observer=None,
    deadline: float | None = None,
) -> SearchState:
    """Run one tabu phase from ``state``; returns a copy of its best state.

    ``state`` is mutated as the walk proceeds. The probability vector is
    updated in place on every applied move: entering items are rewarded,
    leaving items punished. ``observer``, when given, is called with the
    state after every applied move. ``deadline`` (a perf_counter value)
    cuts the phase short once the wall clock passes it.
    """
    tabu = TabuList(state.instance.m, tenure)
    best = state.copy()
    non_improving = 0
    while non_improving < depth:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        move = select_move(state, tabu, best.objective, rng)
        if move is None:
            break
        state.apply(move)
        if observer is not None:
            observer(state)
        if isinstance(move, Flip):
            if state.selection[move.item]:
                prob.reward(move.item)
            else:
                prob.punish(move.item)
            tabu.mark(move.item)
        else:
            prob.punish(move.out_item)
            prob.reward(move.in_item)
            tabu.mark(move.out_item, move.in_item)
        if state.objective > best.objective:
            best = state.copy()
            non_improving = 0
        else:
            non_improving += 1
        tabu.advance()
    return best
