"""Search state with coverage counts maintained incrementally per move.

The invariant the whole search leans on: for a selection S, ``coverage[j]``
is the number of selected items covering element j, ``objective`` is the
summed profit over elements with positive coverage, and ``total_weight``
never exceeds the capacity. Applying a flip touches exactly the flipped
item's elements; a swap touches the two rows involved.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Mutable selection plus derived quantities, one owner at a time."""

    __slots__ = ("instance", "selection", "coverage", "total_weight", "objective")

    def __init__(self, instance, selection, coverage, total_weight, objective):
        self.instance = instance
        self.selection = selection
        self.coverage = coverage
        self.total_weight = total_weight
        self.objective = objective

    @classmethod
    def from_selection(cls, instance: Instance, selection) -> "SearchState":
        """Build coverage, weight, and objective from scratch.

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
        return cls(instance, sel, coverage, weight, objective)

    def copy(self) -> "SearchState":
        return SearchState(
            self.instance,
            self.selection.copy(),
            self.coverage.copy(),
            self.total_weight,
            self.objective,
        )

    def _flip_in(self, item: int) -> None:
        inst = self.instance
        row = inst.rows[item]
        counts = self.coverage[row]
        self.objective += int(inst.profits[row][counts == 0].sum())
        self.coverage[row] = counts + 1
        self.selection[item] = True
        self.total_weight += int(inst.weights[item])

    def _flip_out(self, item: int) -> None:
        inst = self.instance
        row = inst.rows[item]
        counts = self.coverage[row]
        self.objective -= int(inst.profits[row][counts == 1].sum())
        self.coverage[row] = counts - 1
        self.selection[item] = False
        self.total_weight -= int(inst.weights[item])

    def apply(self, move: Move) -> None:
        """Apply in place; raises :class:`InfeasibleError` on a misfit."""
        inst = self.instance
        if isinstance(move, Flip):
            if self.selection[move.item]:
                self._flip_out(move.item)
            else:
                if self.total_weight + inst.weights[move.item] > inst.capacity:
                    raise InfeasibleError(f"flip of item {move.item} exceeds capacity")
                self._flip_in(move.item)
            return
        if not self.selection[move.out_item]:
            raise ValueError(f"out_item {move.out_item} is not selected")
        if self.selection[move.in_item]:
            raise ValueError(f"in_item {move.in_item} is already selected")
        dw = inst.weights[move.in_item] - inst.weights[move.out_item]
        if self.total_weight + dw > inst.capacity:
            raise InfeasibleError(
                f"swap {move.out_item}->{move.in_item} exceeds capacity"
            )
        self._flip_out(move.out_item)
        self._flip_in(move.in_item)
