"""Search state with coverage counts and move values maintained per move.

The invariant the whole search leans on: for a selection S, ``coverage[j]``
is the number of selected items covering element j, ``objective`` is the
summed profit over elements with positive coverage, and ``total_weight``
never exceeds the capacity. ``value[i]`` is what flipping item i changes the
objective by, in magnitude: the gain of an unselected item (the profit of
its uncovered elements) or the loss of a selected one (the profit of the
elements it covers alone). Each flip is one call of ``bmcp_flip`` in
``_scan.c``, which touches the flipped item's elements and the columns of
those whose coverage crosses 0<->1 or 1<->2; a swap is two flips.

A state searched by the compiled core also owns what its scans read and
write besides: the per-item tabu ``expiry`` and the scan's tie buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import InfeasibleError
from .instance import Instance, as_selection, coverage_counts


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

    ``selection``, ``coverage`` and ``value`` are fixed for the state's
    life: the compiled core writes to them through the state's ``core``
    struct, filled once, on its first use of the state.
    """

    __slots__ = (
        "instance", "_selection", "_coverage", "_value", "total_weight", "objective", "_core",
    )

    def __init__(self, instance, selection, coverage, value, total_weight, objective):
        self.instance = instance
        self._selection = selection
        self._coverage = coverage
        self._value = value
        self.total_weight = total_weight
        self.objective = objective
        self._core = None

    @property
    def core(self) -> _native.State:
        """The compiled core's struct, checked and filled on first use (a
        copy kept as a record never pays for it), with nothing tabu."""
        if self._core is None:
            inst = self.instance
            arrays = (self._selection, self._coverage, self._value)
            expected = zip((np.bool_, np.int64, np.int64), (inst.m, inst.n, inst.m))
            for arr, (dtype, size) in zip(arrays, expected):
                if (
                    arr.dtype != dtype or arr.shape != (size,)
                    or not arr.flags.c_contiguous or not arr.flags.writeable
                ):
                    raise ValueError(
                        f"state array {arr.dtype} {arr.shape} is not a writeable"
                        f" contiguous {np.dtype(dtype)} ({size},)"
                    )
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
        """Build coverage, move values, weight, and objective from scratch.

        Raises :class:`InfeasibleError` if the selection exceeds capacity.
        """
        sel = as_selection(instance.m, selection).copy()
        coverage = coverage_counts(instance, sel)
        weight = int(instance.weights[sel].sum())
        if weight > instance.capacity:
            raise InfeasibleError(
                f"selection weight {weight} exceeds capacity {instance.capacity}"
            )
        objective = int(instance.profits[coverage > 0].sum())
        # Integer matvecs over the incidence: each row sums distinct
        # elements' profits, so no sum reaches MAX_TOTAL.
        gain = instance.incidence @ np.where(coverage == 0, instance.profits, 0)
        loss = instance.incidence @ np.where(coverage == 1, instance.profits, 0)
        value = np.where(sel, loss, gain)
        return cls(instance, sel, coverage, value, weight, objective)

    def copy(self) -> "SearchState":
        return SearchState(
            self.instance,
            self._selection.copy(),
            self._coverage.copy(),
            self._value.copy(),
            self.total_weight,
            self.objective,
        )

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
