"""Tabu search over the flip and swap neighborhoods.

One search phase starts from a feasible state, repeatedly applies the best
admissible move (worsening moves included), and stops after ``depth``
consecutive non-improving iterations or when no admissible move exists.
Both items touched by a move become tabu for ``tenure`` iterations;
a tabu move is still admitted when it would beat the best objective seen
so far in the phase (aspiration). Exact ties in the integer move deltas
are broken uniformly at random.

Every move delta is formed in int64, with no float step, from the move
values that the flips of a :class:`~bmcp.state.SearchState` keep. Each
pick is one pass of the compiled scan in ``_scan.c``, which
:mod:`bmcp._native` builds on first use. The scan reads the state's move
values and tabu ``expiry``, and for each leaving item walks only the
entering items light enough to fit. :data:`bmcp.instance.MAX_TOTAL`
bounds the instance totals so that no intermediate can overflow.
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


def _compiled_candidates(
    state: SearchState, iteration: int, threshold: int, swaps_only: bool
) -> tuple[np.ndarray, int]:
    """Every admissible move at the best delta, in scan order, and that delta.

    One pass of ``bmcp_scan`` from :data:`bmcp._native.lib`; ``_scan.c``
    documents the scan order and the item codes the moves come as, which
    :func:`_move` decodes. Admissible: feasible and either free at
    ``iteration`` (``state.expiry`` below it) or past the aspiration bar,
    ``delta > threshold``. ``swaps_only`` leaves the flips out. When the
    ties overflow the state's buffer, it grows and the scan runs again.
    """
    inst = state.instance
    # ctypes wraps ints to int64 silently. No weight difference or delta
    # reaches MAX_TOTAL, so clamping there changes no comparison.
    headroom = min(inst.capacity - state.total_weight, MAX_TOTAL)
    threshold = max(-MAX_TOTAL, min(threshold, MAX_TOTAL))
    core = state.core
    while True:
        count = _native.lib.bmcp_scan(core, iteration, headroom, threshold, swaps_only)
        if count <= core.capacity:
            return core.arrays["ties"][:count].copy(), core.best
        state._reserve(max(count, 2 * core.capacity))


def _move(m: int, code: int) -> Move:
    """The move a scan code stands for on ``m`` items."""
    return Flip(code) if code < m else Swap(*divmod(code - m, m))


def select_move(
    state: SearchState,
    iteration: int,
    best_so_far: int,
    rng: np.random.Generator,
) -> Move | None:
    """Best admissible move at ``iteration`` of the state's tabu expiry, or None.

    Admissible: feasible and either non-tabu or past the aspiration bar,
    that is pushing the objective strictly past ``best_so_far``. The best
    may worsen the objective; ties break uniformly via ``rng`` over the
    candidates in order: flip-ins, flip-outs, then swaps by (leaving,
    entering) item. One tie draws nothing.
    """
    ties, _ = _compiled_candidates(state, iteration, best_so_far - state.objective, False)
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
    Tabu marks are ignored: no swap loses MAX_TOTAL (the profit total is
    below it), so every feasible swap passes the aspiration bar.
    """
    while True:
        ties, best = _compiled_candidates(state, 0, -MAX_TOTAL, True)
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
    """Run one tabu phase from ``state``, then flip it back to the best
    selection the phase saw; returns ``state``.

    The probability vector is updated in place on every applied move:
    entering items are rewarded, leaving items punished. ``observer``,
    when given, is called with the state after every applied move.
    ``deadline`` (a perf_counter value) cuts the phase short once the wall
    clock passes it.

    An item marked at iteration t stays tabu through iteration t + tenure
    and is admissible again from t + tenure + 1. The phase clears
    ``state.expiry`` and counts iterations from 1, so it starts with
    nothing tabu; it leaves the marks of its last move.
    """
    # The expiry is int64. No phase runs MAX_TOTAL iterations, so clamping
    # there changes no move.
    tenure = min(tenure, MAX_TOTAL)
    expiry = state.expiry
    expiry[:] = 0
    best_selection, best_objective = state.selection.copy(), state.objective
    non_improving = 0
    iteration = 1
    while non_improving < depth:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        move = select_move(state, iteration, best_objective, rng)
        if move is None:
            break
        state.apply(move)
        if observer is not None:
            observer(state)
        for item in (move.item,) if isinstance(move, Flip) else (move.out_item, move.in_item):
            if state.selection[item]:
                prob.reward(item)
            else:
                prob.punish(item)
            expiry[item] = iteration + tenure
        if state.objective > best_objective:
            best_selection[:] = state.selection
            best_objective = state.objective
            non_improving = 0
        else:
            non_improving += 1
        iteration += 1
    state._walk_to(best_selection)
    return state
