import numpy as np
import pytest

import bmcp
from bmcp import Flip, InfeasibleError, SearchState, Swap
from conftest import flip_delta, make_instance, move_delta, rebuild, swap_delta


def state_of(inst, items):
    return SearchState.from_selection(
        inst, bmcp.selection_from_items(inst.m, items)
    )


def test_from_selection_builds_invariants(tiny):
    s = state_of(tiny, [0, 1])
    assert s.coverage.tolist() == [1, 2, 1]
    assert s.total_weight == 9
    assert s.objective == 12
    assert np.flatnonzero(s.selection).tolist() == [0, 1]


def test_from_selection_rejects_overweight(tiny):
    with pytest.raises(InfeasibleError):
        state_of(tiny, [1, 2])


def test_empty_state(tiny):
    s = SearchState.from_selection(tiny, np.zeros(tiny.m, dtype=bool))
    assert s.objective == 0 and s.total_weight == 0
    assert not s.selection.any()


# (state items, move, expected delta) pinned by hand on the tiny fixture.
DELTA_CASES = [
    ([0], Flip(1), (2, 5, True)),
    ([0], Flip(0), (-10, -4, True)),
    ([0, 2], Flip(1), (0, 5, False)),
    ([0, 1], Swap(1, 2), (0, 1, True)),
    ([0, 1], Swap(0, 2), (0, 2, False)),
    ([2], Swap(2, 0), (5, -2, True)),
]


@pytest.mark.parametrize("items,move,expected", DELTA_CASES)
def test_move_deltas(tiny, items, move, expected):
    delta = move_delta(state_of(tiny, items), move)
    assert (delta.objective, delta.weight, delta.feasible) == expected


def test_swap_preconditions(tiny):
    s = state_of(tiny, [0])
    with pytest.raises(ValueError):
        swap_delta(s, 1, 2)
    with pytest.raises(ValueError):
        swap_delta(s, 0, 0)
    with pytest.raises(ValueError):
        s.apply(Swap(1, 2))


@pytest.mark.parametrize("move", [Flip(3), Flip(-1), Swap(0, 3), Swap(-3, 1)])
def test_apply_rejects_items_out_of_range(tiny, move):
    s = state_of(tiny, [0])
    with pytest.raises(ValueError, match="out of range"):
        s.apply(move)
    assert s.coverage.tolist() == [1, 1, 0] and s.objective == 10


def test_state_arrays_cannot_be_rebound(tiny):
    # The compiled core holds their addresses for the state's life.
    s = state_of(tiny, [0])
    for name in ("selection", "coverage", "value"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name).copy())
    bad = SearchState(tiny, s.selection.copy(), s.coverage.astype(np.int32), s.value.copy(), 4, 10)
    with pytest.raises(ValueError, match="int64"):
        bad.apply(Flip(1))
    assert bad.selection.tolist() == [True, False, False] and bad.total_weight == 4


def test_apply_flip_and_swap(tiny):
    s = state_of(tiny, [0])
    s.apply(Flip(1))
    assert s.objective == 12 and s.total_weight == 9
    s.apply(Swap(1, 2))
    assert s.objective == 12 and s.total_weight == 10
    assert np.flatnonzero(s.selection).tolist() == [0, 2]


def test_apply_infeasible_leaves_state_intact(tiny):
    s = state_of(tiny, [0, 2])
    with pytest.raises(InfeasibleError):
        s.apply(Flip(1))
    with pytest.raises(InfeasibleError):
        state_of(tiny, [0, 1]).apply(Swap(0, 2))
    assert s.objective == 12 and s.total_weight == 10
    assert s.coverage.tolist() == [2, 1, 1]


def test_copy_is_independent(tiny):
    s = state_of(tiny, [0])
    c = s.copy()
    s.apply(Flip(1))
    assert c.objective == 10 and np.flatnonzero(c.selection).tolist() == [0]


def rebuilt_values(state):
    """Each item's move value from its scalar flip delta."""
    return [abs(flip_delta(state, i).objective) for i in range(state.instance.m)]


def test_random_walk_matches_rebuild():
    inst = make_instance(30, 40, 0.12, 0.45, seed=3)
    rng = np.random.default_rng(17)
    state = SearchState.from_selection(inst, np.zeros(inst.m, dtype=bool))
    copies = []
    applied = 0
    while applied < 400:
        if rng.random() < 0.6:
            move = Flip(int(rng.integers(inst.m)))
        else:
            sel = np.flatnonzero(state.selection)
            unsel = np.flatnonzero(~state.selection)
            if not sel.size or not unsel.size:
                continue
            move = Swap(
                int(sel[rng.integers(sel.size)]),
                int(unsel[rng.integers(unsel.size)]),
            )
        delta = move_delta(state, move)
        if not delta.feasible:
            continue
        before = state.objective
        state.apply(move)
        applied += 1
        counts, weight, objective = rebuild(inst, state.selection)
        assert np.array_equal(state.coverage, counts)
        assert state.total_weight == weight
        assert state.objective == objective
        assert state.objective == before + delta.objective
        assert state.total_weight <= inst.capacity
        assert state.value.tolist() == rebuilt_values(state)
        if applied % 50 == 0:
            copies.append((state.copy(), rebuilt_values(state)))
    for copied, values in copies:
        assert not np.shares_memory(copied.value, state.value)
        assert copied.value.tolist() == values == rebuilt_values(copied)
