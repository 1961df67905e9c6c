"""Tabu search over the flip and swap neighborhoods.

One search phase starts from a feasible state, repeatedly applies the best
admissible move (worsening moves included), and stops after ``depth``
consecutive non-improving iterations or when no admissible move exists.
Both items touched by a move become tabu for ``tenure`` iterations;
a tabu move is still admitted when it would beat the best objective seen
so far in the phase (aspiration). Exact ties in the integer move deltas
are broken uniformly at random, with the draw ``rng.integers(ties)`` makes.

Every move delta is formed in int64, with no float step, from the move
values that the flips of a :class:`~bmcp.state.SearchState` keep. A move
is two calls of the compiled core in ``_scan.c``, which
:mod:`bmcp._native` builds on first use: ``bmcp_pick`` scans and draws the
tie-break from the run's bit generator, and ``bmcp_move`` (through
:meth:`~bmcp.state.SearchState.apply`) checks and applies the move. The
scan reads the state's move values and tabu ``expiry``, and for each
leaving item walks only the entering items light enough to fit.
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


def _move(m: int, code: int) -> Move:
    """The move a scan code stands for on ``m`` items."""
    return Flip(code) if code < m else Swap(*divmod(code - m, m))


def _pick(
    state: SearchState, iteration: int, best_so_far: int, swaps_only: bool,
    rng: np.random.Generator,
) -> int:
    """The code of the move ``bmcp_pick`` makes, or -1 for none.

    One pass of the compiled scan, then the tie-break drawn from ``rng``'s
    bit generator under its lock; ``_scan.c`` documents the scan order and
    the item codes, which :func:`_move` decodes. An iteration past int64 is
    past every mark, and a best past ``MAX_TOTAL`` beyond every objective:
    the call saturates both. When the ties overflow the state's buffer, it
    grows and the pick runs again. A tie set above 2^32 moves, which numpy
    would draw from with its 64-bit draw, raises :class:`ValueError`.
    """
    core, bits = state.core, rng.bit_generator
    while True:
        code = _native.lib.bmcp_pick(core, iteration, best_so_far, swaps_only, bits)
        if core.count > 2**32:
            raise ValueError(f"{core.count} tied moves exceed the 2^32 the pick draws from")
        if code >= 0 or core.count <= core.capacity:
            return code
        state._reserve(max(core.count, 2 * core.capacity))


def select_move(
    state: SearchState,
    iteration: int,
    best_so_far: int,
    rng: np.random.Generator,
) -> Move | None:
    """Best admissible move at ``iteration`` of the state's tabu expiry, or None.

    Admissible: feasible and either non-tabu or past the aspiration bar,
    that is pushing the objective strictly past ``best_so_far``. The best
    may worsen the objective; ties break uniformly, drawn from ``rng``
    exactly as ``rng.integers(ties)`` would, over the candidates in order:
    flip-ins, flip-outs, then swaps by (leaving, entering) item. One tie
    draws nothing.
    """
    code = _pick(state, iteration, best_so_far, False, rng)
    return None if code < 0 else _move(state.instance.m, code)


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

    Each step breaks ties as :func:`select_move` does, and draws nothing
    when no swap improves. Tabu marks are ignored: no swap loses MAX_TOTAL
    (the profit total is below it), so every feasible swap passes the
    aspiration bar.
    """
    m = state.instance.m
    while (code := _pick(state, 0, -MAX_TOTAL, True, rng)) >= 0:
        state.apply(_move(m, code))
    return state


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
    m, core, selection, expiry = state.instance.m, state.core, state.selection, state.expiry
    expiry[:] = 0
    best_selection, best_objective = selection.copy(), core.objective
    # The pick of _pick with its arguments read once per phase and the two
    # kinds of move written out: each took ~4% off the time per move in an
    # interleaved A/B. A pick that finds ties but makes no move found too
    # many for the buffer or the draw; _pick then grows the buffer or
    # refuses.
    pick, bits = _native.lib.bmcp_pick, rng.bit_generator
    non_improving = 0
    iteration = 1
    while non_improving < depth:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        code = pick(core, iteration, best_objective, False, bits)
        if code < 0 and core.count:
            code = _pick(state, iteration, best_objective, False, rng)
        if code < 0:
            break
        if code < m:
            state.apply(Flip(code))
            if observer is not None:
                observer(state)
            if selection[code]:
                prob.reward(code)
            else:
                prob.punish(code)
            expiry[code] = iteration + tenure
        else:
            out_item, in_item = divmod(code - m, m)
            state.apply(Swap(out_item, in_item))
            if observer is not None:
                observer(state)
            prob.punish(out_item)
            prob.reward(in_item)
            expiry[out_item] = expiry[in_item] = iteration + tenure
        if core.objective > best_objective:
            best_selection[:] = selection
            best_objective = core.objective
            non_improving = 0
        else:
            non_improving += 1
        iteration += 1
    state._walk_to(best_selection)
    return state
