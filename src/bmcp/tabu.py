"""Tabu search over the flip and swap neighborhoods.

One search phase starts from a feasible state, repeatedly applies the best
admissible move (worsening moves included), and stops after ``depth``
consecutive non-improving iterations or when no admissible move exists.
Both items touched by a move become tabu for ``tenure`` iterations;
a tabu move is still admitted when it would beat the best objective seen
so far in the phase (aspiration). Exact ties in the integer move deltas
are broken uniformly at random.

Every move delta is computed in int64 from the instance's incidence, with
no float step. Each pick is one pass of the compiled scan in ``_scan.c``
when :mod:`bmcp._native` could load it; otherwise the numpy scan runs, in
which flip gains and losses are two CSR matvecs and the swap correction is
an integer scatter over the uniquely covered elements. Both return the
same tie set, so the same ``rng`` draws pick the same move.
:data:`bmcp.instance.MAX_TOTAL` bounds the instance totals so that no
intermediate can overflow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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


@dataclass(frozen=True)
class TsParams:
    depth: int
    tenure: int

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError("depth must be positive")
        if self.tenure < 1:
            raise ConfigError("tenure must be positive")


class TabuList:
    """Per-item tabu expiry, advanced once per search iteration.

    An item marked at iteration t stays tabu through iteration t + tenure
    and is admissible again from t + tenure + 1. Iterations start at 1 so a
    fresh list (expiry all zero) marks nothing tabu.
    """

    __slots__ = ("expiry", "tenure", "iteration")

    def __init__(self, item_count: int, tenure: int):
        self.expiry = np.zeros(item_count, dtype=np.int64)
        self.tenure = tenure
        self.iteration = 1

    def advance(self) -> None:
        self.iteration += 1

    def mark(self, *items: int) -> None:
        self.expiry[list(items)] = self.iteration + self.tenure

    def mask(self) -> np.ndarray:
        """Boolean vector of currently tabu items."""
        return self.expiry >= self.iteration


def _flip_deltas(state: SearchState) -> tuple[np.ndarray, np.ndarray]:
    """Per-item objective gain of flipping in and loss of flipping out.

    ``gain`` is meaningful where the item is unselected, ``loss`` where it
    is selected: one int64 matvec each, against the profits of uncovered
    and of uniquely covered elements.
    """
    inst = state.instance
    cov = state.coverage
    gain = inst.incidence @ np.where(cov == 0, inst.profits, 0)
    loss = inst.incidence @ np.where(cov == 1, inst.profits, 0)
    return gain, loss


def _swap_deltas(
    state: SearchState,
    sel_idx: np.ndarray,
    unsel_idx: np.ndarray,
    gain: np.ndarray,
    loss: np.ndarray,
) -> np.ndarray:
    """Objective deltas for every (selected, unselected) exchange.

    Swapping a out for b gains ``gain[b] - loss[a]`` plus the profit of
    elements that a covers alone and b covers too: b keeps those covered.
    Each uniquely covered element has exactly one selected owner, so the
    correction is a scatter of its profit onto (owner, b) for every
    unselected b covering it.
    """
    inst = state.instance
    # Incidence entries (item, element) whose element is covered once.
    hit = np.flatnonzero((state.coverage == 1)[inst.incidence.indices])
    items = inst.incidence_items[hit]
    elems = inst.incidence.indices[hit]
    owned = state.selection[items]
    owner = np.empty(inst.n, dtype=np.int64)
    owner[elems[owned]] = items[owned]
    entering, elems = items[~owned], elems[~owned]
    rank = np.empty(inst.m, dtype=np.int64)
    rank[sel_idx] = np.arange(sel_idx.size)
    rank[unsel_idx] = np.arange(unsel_idx.size)
    # Flat indices take numpy's fast path for integer scatter-add.
    corr = np.zeros(sel_idx.size * unsel_idx.size, dtype=np.int64)
    np.add.at(
        corr,
        rank[owner[elems]] * unsel_idx.size + rank[entering],
        inst.profits[elems],
    )
    corr = corr.reshape(sel_idx.size, unsel_idx.size)
    return gain[unsel_idx][None, :] - loss[sel_idx][:, None] + corr


def _numpy_candidates(
    state: SearchState, tabu: TabuList, threshold: int, swaps_only: bool
) -> tuple[np.ndarray, int]:
    """Every admissible candidate at the best delta, ascending, and that delta.

    Candidates are numbered flip-ins by unselected rank (0..u-1), flip-outs
    by selected rank (u..u+s-1), then swaps as u + s + i*u + j for the i-th
    selected and the j-th unselected item. Admissible: feasible and either
    non-tabu or past the aspiration bar, ``delta > threshold``. With
    ``swaps_only`` the flips are not candidates. This numpy scan is the
    reference for the compiled one and runs when none is loaded.
    """
    inst = state.instance
    weights = inst.weights
    headroom = inst.capacity - state.total_weight
    sel_idx = np.flatnonzero(state.selection)
    unsel_idx = np.flatnonzero(~state.selection)
    gain, loss = _flip_deltas(state)
    tabu_now = tabu.mask()
    free_sel = ~tabu_now[sel_idx]
    free_unsel = ~tabu_now[unsel_idx]

    if swaps_only:
        deltas = [np.zeros(inst.m, dtype=np.int64)]
        admissible = [np.zeros(inst.m, dtype=bool)]
    else:
        d_in, d_out = gain[unsel_idx], -loss[sel_idx]
        deltas = [d_in, d_out]
        admissible = [
            (weights[unsel_idx] <= headroom) & (free_unsel | (d_in > threshold)),
            free_sel | (d_out > threshold),
        ]
    if sel_idx.size and unsel_idx.size:
        d = _swap_deltas(state, sel_idx, unsel_idx, gain, loss)
        dw = weights[unsel_idx][None, :] - weights[sel_idx][:, None]
        ok = (dw <= headroom) & (
            (free_sel[:, None] & free_unsel[None, :]) | (d > threshold)
        )
        deltas.append(d.ravel())
        admissible.append(ok.ravel())

    flat_d = np.concatenate(deltas)
    flat_ok = np.concatenate(admissible)
    if not flat_ok.any():
        return np.flatnonzero(flat_ok), 0
    best = flat_d[flat_ok].max()
    return np.flatnonzero(flat_ok & (flat_d == best)), int(best)


def _compiled_candidates(
    kernel, state: SearchState, tabu: TabuList, threshold: int, swaps_only: bool
) -> tuple[np.ndarray, int]:
    """:func:`_numpy_candidates` in one pass of the compiled ``kernel``."""
    inst = state.instance
    sel, cov, expiry = state.selection, state.coverage, tabu.expiry
    # The kernel reads raw buffers, so their types and sizes are checked.
    for arr, dtype, size in (
        (sel, np.bool_, inst.m), (cov, np.int64, inst.n), (expiry, np.int64, inst.m)
    ):
        if arr.dtype != dtype or arr.size != size or not arr.flags.c_contiguous:
            raise ValueError(
                f"scan input {arr.dtype} {arr.shape} is not contiguous {dtype} ({size},)"
            )
    # ctypes wraps ints to int64 silently. No weight difference or delta
    # reaches MAX_TOTAL, so clamping there changes no comparison.
    headroom = min(inst.capacity - state.total_weight, MAX_TOTAL)
    threshold = max(-MAX_TOTAL, min(threshold, MAX_TOTAL))
    s = int(np.count_nonzero(sel))
    # The best delta, then room for every candidate.
    buf = np.empty(1 + inst.m + s * (inst.m - s), dtype=np.int64)
    best = buf.ctypes.data
    count = kernel(
        inst.m, *inst.scan_addresses, sel.ctypes.data, cov.ctypes.data,
        expiry.ctypes.data, tabu.iteration, headroom, threshold, swaps_only,
        best + 8, best,
    )
    if count < 0:
        raise MemoryError("move scan could not allocate its scratch space")
    return buf[1 : 1 + count], int(buf[0])


def _best_candidates(state, tabu, threshold, swaps_only):
    """The compiled scan when it is loaded, else the numpy one."""
    kernel = _native.kernel
    if kernel is None:
        return _numpy_candidates(state, tabu, threshold, swaps_only)
    return _compiled_candidates(kernel, state, tabu, threshold, swaps_only)


def _candidate_move(selection: np.ndarray, number: int) -> Move:
    """The move a candidate number stands for in ``selection``."""
    sel_idx = np.flatnonzero(selection)
    unsel_idx = np.flatnonzero(~selection)
    n_in = unsel_idx.size
    n_out = sel_idx.size
    if number < n_in:
        return Flip(int(unsel_idx[number]))
    number -= n_in
    if number < n_out:
        return Flip(int(sel_idx[number]))
    number -= n_out
    return Swap(int(sel_idx[number // n_in]), int(unsel_idx[number % n_in]))


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
    ties, _ = _best_candidates(state, tabu, best_so_far - state.objective, False)
    if not ties.size:
        return None
    pick = ties[0] if ties.size == 1 else ties[rng.integers(ties.size)]
    return _candidate_move(state.selection, int(pick))


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
        ties, best = _best_candidates(state, no_tabu, 0, True)
        if not ties.size or best <= 0:
            return state
        pick = ties[rng.integers(ties.size)]
        state.apply(_candidate_move(state.selection, int(pick)))


def initial_solution(inst: Instance, rng: np.random.Generator) -> SearchState:
    """Random fill followed by swap descent."""
    state = SearchState.from_selection(inst, random_fill(inst, rng))
    return descent_local_search(state, rng)


def tabu_search(
    state: SearchState,
    prob: ProbabilityVector,
    params: TsParams,
    rng: np.random.Generator,
    observer=None,
    deadline: float | None = None,
):
    """Run one tabu phase from ``state``; returns (best state copy, prob).

    ``state`` is mutated as the walk proceeds. The probability vector is
    updated in place on every applied move: entering items are rewarded,
    leaving items punished. ``observer``, when given, is called with the
    state after every applied move. ``deadline`` (a perf_counter value)
    cuts the phase short once the wall clock passes it.
    """
    tabu = TabuList(state.instance.m, params.tenure)
    best = state.copy()
    non_improving = 0
    while non_improving < params.depth:
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
    return best, prob
