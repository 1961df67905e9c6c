"""Search state with coverage counts and move values maintained per move.

The invariant the whole search leans on: for a selection S, ``coverage[j]``
is the number of selected items covering element j, ``objective`` is the
summed profit over elements with positive coverage, and ``total_weight``
never exceeds the capacity. ``value[i]`` is what flipping item i changes the
objective by, in magnitude: the gain of an unselected item (the profit of
its uncovered elements) or the loss of a selected one (the profit of the
elements it covers alone). Every change is a flip by ``bmcp_flip`` in
``_scan.c``, which touches the flipped item's elements and the columns of
those whose coverage crosses 0<->1 or 1<->2, and keeps the weight and the
objective in the state's struct; a swap is two flips.
:meth:`SearchState.apply` checks and applies a move in one call of
``bmcp_move``. A state starts as the empty selection, whose values are the
row profit sums, a copy of the instance's cached ``row_profits``, and
reaches any other selection in one call of ``bmcp_walk``: by flipping out
the items it leaves, then flipping in the items it gains.

A state searched by the compiled core also owns what its picks read and
write besides: the per-item tabu ``expiry`` and the scan's tie buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import InfeasibleError
from .instance import MAX_TOTAL, Instance, as_selection


@dataclass(frozen=True)
class Flip:
    """Toggle one item in or out of the selection."""

    item: int


@dataclass(frozen=True)
class Swap:
    """Replace a selected item by an unselected one."""

    out_item: int
    in_item: int


Move = Flip | Swap


class SearchState:
    """Mutable selection plus derived quantities, one owner at a time.

    ``selection``, ``coverage`` and ``value`` are the state's own arrays,
    fixed for its life and owned, like every array of the state, by
    ``core.arrays``: the compiled core writes to them, and to the weight
    and objective, through the ``core`` struct. Every change is a flip.
    """

    __slots__ = ("instance", "core")

    def __init__(self, instance: Instance):
        """The empty selection of ``instance``, with its move values."""
        inst = self.instance = instance
        colptr, colitems = inst.csc
        self.core = _native.State(
            m=inst.m, indptr=inst.indptr, indices=inst.indices, colptr=colptr,
            colitems=colitems, profits=inst.profits, weights=inst.weights,
            order=inst.order, selection=np.zeros(inst.m, dtype=bool),
            coverage=np.zeros(inst.n, dtype=np.int64),
            value=inst.row_profits.copy(), corr=np.zeros(inst.m, dtype=np.int64),
            expiry=np.zeros(inst.m, dtype=np.int64),
            ties=np.empty(inst.m, dtype=np.int64), capacity=inst.m,
            # The budget is an int64 field. No feasible weight reaches
            # MAX_TOTAL, so clamping there changes no check.
            budget=min(inst.capacity, MAX_TOTAL),
        )

    def _reserve(self, capacity: int) -> None:
        """A tie buffer with room for ``capacity`` moves."""
        core = self.core
        ties = core.arrays["ties"] = np.empty(capacity, dtype=np.int64)
        core.ties, core.capacity = ties.ctypes.data, capacity

    @property
    def selection(self) -> np.ndarray:
        """Which items are selected, bool (m,)."""
        return self.core.arrays["selection"]

    @property
    def coverage(self) -> np.ndarray:
        """How many selected items cover each element, int64 (n,)."""
        return self.core.arrays["coverage"]

    @property
    def value(self) -> np.ndarray:
        """Gain of flipping each unselected item in, loss of flipping each
        selected one out, int64 (m,)."""
        return self.core.arrays["value"]

    @property
    def total_weight(self) -> int:
        """Summed weight of the selected items."""
        return self.core.weight

    @property
    def objective(self) -> int:
        """Summed profit of the covered elements."""
        return self.core.objective

    @property
    def expiry(self) -> np.ndarray:
        """Iteration through which each item stays tabu, int64 (m,); the
        scan admits item i at iteration t freely when ``expiry[i] < t``."""
        return self.core.arrays["expiry"]

    @classmethod
    def from_selection(cls, instance: Instance, selection) -> "SearchState":
        """A new state of ``selection``, in arrays of its own; see :meth:`refill`."""
        state = cls(instance)
        state.refill(selection)
        return state

    def refill(self, selection) -> None:
        """Move to ``selection`` in place, with nothing tabu. Over capacity,
        it raises :class:`InfeasibleError` and changes nothing."""
        inst = self.instance
        sel = as_selection(inst.m, selection)
        weight = int(inst.weights[sel].sum())
        if weight > inst.capacity:
            raise InfeasibleError(f"selection weight {weight} exceeds capacity {inst.capacity}")
        self._walk_to(sel)
        self.expiry[:] = 0

    def _walk_to(self, selection: np.ndarray) -> None:
        """Flip out the selected items not in the feasible bool ``selection``,
        then flip in the rest of it."""
        _native.lib.bmcp_walk(self.core, np.ascontiguousarray(selection))

    def copy(self) -> "SearchState":
        """A new state of this one's selection, with nothing tabu."""
        return SearchState.from_selection(self.instance, self.selection)

    def apply(self, move: Move) -> None:
        """Apply in place; raises :class:`InfeasibleError` on a misfit, and
        :class:`ValueError` on an item out of range or a swap of an
        unselected item or for a selected one, changing nothing."""
        core, lib = self.core, _native.lib
        if isinstance(move, Flip):
            a, b = move.item, -1
            status = lib.bmcp_move(core, a)
        else:
            a, b = move.out_item, move.in_item
            status = lib.bmcp_move(core, a, b)
        if status == 1:
            raise ValueError(f"out_item {a} is not selected")
        if status == 2:
            raise ValueError(f"in_item {b} is already selected")
        if status == 3:
            what = f"flip of item {a}" if b < 0 else f"swap {a}->{b}"
            raise InfeasibleError(f"{what} exceeds capacity")
        if status == 4:
            m = core.m
            raise ValueError(f"item {a if not 0 <= a < m else b} out of range 0..{m - 1}")
