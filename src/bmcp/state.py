"""Search state with coverage counts and move values maintained per move.

The invariant the whole search leans on: for a selection S, ``coverage[j]``
is the number of selected items covering element j, ``objective`` is the
summed profit over elements with positive coverage, and ``total_weight``
never exceeds the capacity. ``value[i]`` is what flipping item i changes the
objective by, in magnitude: the gain of an unselected item (the profit of
its uncovered elements) or the loss of a selected one (the profit of the
elements it covers alone). Each flip is one call of ``bmcp_flip`` in
``_scan.c``, which touches the flipped item's elements and the columns of
those whose coverage crosses 0<->1 or 1<->2; a swap is two flips. A state
is built the same way: from the empty selection, whose values are the row
profit sums, by flipping each selected item in.

A state searched by the compiled core also owns what its scans read and
write besides: the per-item tabu ``expiry`` and the scan's tie buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import InfeasibleError
from .instance import Instance, as_selection


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
    fixed for its life: the compiled core writes to them through the
    state's ``core`` struct. A run refills one state at each restart.
    """

    __slots__ = (
        "instance", "_selection", "_coverage", "_value", "total_weight", "objective", "_core",
    )

    def __init__(self, instance: Instance):
        """Zeroed arrays for ``instance``, which :meth:`refill` fills."""
        self.instance = instance
        self._selection = np.zeros(instance.m, dtype=bool)
        self._coverage = np.zeros(instance.n, dtype=np.int64)
        self._value = np.zeros(instance.m, dtype=np.int64)
        self.total_weight = self.objective = 0
        self._core = None

    @property
    def core(self) -> _native.State:
        """The compiled core's struct, filled when first used: at once for a
        built state, never for a copy kept only as a record."""
        if self._core is None:
            inst = self.instance
            colptr, colitems = inst.csc
            self._core = _native.State(
                m=inst.m, indptr=inst.indptr, indices=inst.indices, colptr=colptr,
                colitems=colitems, profits=inst.profits, weights=inst.weights,
                order=inst.order, selection=self._selection, coverage=self._coverage,
                value=self._value, corr=np.zeros(inst.m, dtype=np.int64),
                expiry=np.zeros(inst.m, dtype=np.int64),
                ties=np.empty(inst.m, dtype=np.int64), capacity=inst.m,
            )
        return self._core

    def _reserve(self, capacity: int) -> None:
        """A tie buffer with room for ``capacity`` moves."""
        core = self.core
        ties = core.arrays["ties"] = np.empty(capacity, dtype=np.int64)
        core.ties, core.capacity = ties.ctypes.data, capacity

    @property
    def selection(self) -> np.ndarray:
        """Which items are selected, bool (m,)."""
        return self._selection

    @property
    def coverage(self) -> np.ndarray:
        """How many selected items cover each element, int64 (n,)."""
        return self._coverage

    @property
    def value(self) -> np.ndarray:
        """Gain of flipping each unselected item in, loss of flipping each
        selected one out, int64 (m,)."""
        return self._value

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
        """Load ``selection`` in place, with nothing tabu. Over capacity, it
        raises :class:`InfeasibleError` and changes nothing."""
        inst = self.instance
        sel = as_selection(inst.m, selection)
        weight = int(inst.weights[sel].sum())
        if weight > inst.capacity:
            raise InfeasibleError(f"selection weight {weight} exceeds capacity {inst.capacity}")
        # Taken before the reset, since ``selection`` may be this state's own.
        items = np.flatnonzero(sel).tolist()
        self._selection[:] = False
        self._coverage[:] = 0
        # Each row sums distinct elements' profits, so none reaches MAX_TOTAL.
        self._value[:] = inst.incidence @ inst.profits
        self.total_weight = self.objective = 0
        self.expiry[:] = 0
        for item in items:
            self._flip(item)

    def copy(self) -> "SearchState":
        """A record of this state: its own arrays, its struct not yet filled."""
        twin = SearchState.__new__(SearchState)
        twin.instance = self.instance
        twin._selection = self._selection.copy()
        twin._coverage = self._coverage.copy()
        twin._value = self._value.copy()
        twin.total_weight, twin.objective = self.total_weight, self.objective
        twin._core = None
        return twin

    def _flip(self, item: int) -> None:
        delta = _native.lib.bmcp_flip(self.core, item)
        weight = int(self.instance.weights[item])
        # Selected now means the item went in.
        self.total_weight += weight if self._selection[item] else -weight
        self.objective += delta

    def apply(self, move: Move) -> None:
        """Apply in place; raises :class:`InfeasibleError` on a misfit."""
        inst = self.instance
        items = (move.item,) if isinstance(move, Flip) else (move.out_item, move.in_item)
        for item in items:
            if not 0 <= item < inst.m:
                raise ValueError(f"item {item} out of range 0..{inst.m - 1}")
        if isinstance(move, Flip):
            if (
                not self._selection[move.item]
                and self.total_weight + inst.weights[move.item] > inst.capacity
            ):
                raise InfeasibleError(f"flip of item {move.item} exceeds capacity")
            self._flip(move.item)
            return
        if not self._selection[move.out_item]:
            raise ValueError(f"out_item {move.out_item} is not selected")
        if self._selection[move.in_item]:
            raise ValueError(f"in_item {move.in_item} is already selected")
        dw = inst.weights[move.in_item] - inst.weights[move.out_item]
        if self.total_weight + dw > inst.capacity:
            raise InfeasibleError(
                f"swap {move.out_item}->{move.in_item} exceeds capacity"
            )
        self._flip(move.out_item)
        self._flip(move.in_item)
