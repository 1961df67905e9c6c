import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmcp
from bmcp import Flip, InfeasibleError, SearchState, Swap
from bmcp.instance import MAX_TOTAL
from bmcp.tabu import _pick, select_move
from conftest import (
    compiled_candidates, csr, flip_delta, make_instance, move_delta, rebuild,
    reference_candidates, reference_moves, swap_delta,
)


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


@pytest.mark.parametrize(
    "move,item",
    [(Flip(2**64 + 1), 2**64 + 1), (Flip(-(2**70)), -(2**70)), (Swap(0, 2**64), 2**64),
     (Swap(2**63, 1), 2**63), (Swap(0, -1), -1)],
)
def test_apply_rejects_items_past_int64(tiny, move, item):
    # The core takes any int: one past int64 is out of range, not wrapped
    # onto an item.
    s = state_of(tiny, [0])
    before = fields(s)
    with pytest.raises(ValueError, match=f"^item {item} out of range 0..2$"):
        s.apply(move)
    assert fields(s) == before


def test_state_arrays_cannot_be_rebound(tiny):
    # The compiled core holds their addresses for the state's life.
    s = state_of(tiny, [0])
    for name in ("selection", "coverage", "value", "expiry"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name).copy())


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


def fields(state):
    """Everything a state holds besides its instance and tie buffer."""
    return (
        state.selection.tolist(), state.coverage.tolist(), state.value.tolist(),
        state.objective, state.total_weight, state.expiry.tolist(),
    )


def test_refill_after_a_phase_equals_a_fresh_state():
    # The small_compare benchmark family, which the replay pins leave out.
    inst = bmcp.generate_instance(
        bmcp.GeneratorSpec(m=100, n=300, density=0.03, capacity=300, seed=4)
    )
    rng = np.random.default_rng(9)
    state = SearchState.from_selection(inst, bmcp.random_fill(inst, rng))
    for _ in range(4):
        bmcp.tabu_search(state, bmcp.ProbabilityVector.initial(inst.m), 20, 5, rng)
        assert state.expiry.any()  # marks left by the phase
        state._reserve(3 * inst.m)  # a grown tie buffer
        sel = bmcp.random_fill(inst, rng)
        state.refill(sel)
        fresh = SearchState.from_selection(inst, sel)
        assert fields(state) == fields(fresh)
        marks = rng.integers(0, 4, size=inst.m)
        state.expiry[:] = fresh.expiry[:] = marks
        for threshold in (-50, -1, 0, 1, 50):
            for swaps_only in (False, True):
                got = compiled_candidates(state, 2, threshold, swaps_only)
                want = compiled_candidates(fresh, 2, threshold, swaps_only)
                assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])


def test_refill_over_capacity_changes_nothing(tiny):
    s = state_of(tiny, [0])
    s.expiry[:] = [3, 1, 2]
    before = fields(s)
    with pytest.raises(InfeasibleError):
        s.refill(bmcp.selection_from_items(tiny.m, [1, 2]))
    with pytest.raises(ValueError, match="shape"):
        s.refill(np.ones(tiny.m + 1, dtype=bool))
    assert fields(s) == before


def test_refill_of_its_own_selection_rebuilds_the_state():
    inst = make_instance(30, 40, 0.12, 0.45, seed=3)
    sel = bmcp.random_fill(inst, np.random.default_rng(5))
    s = SearchState.from_selection(inst, sel)
    assert not np.shares_memory(s.selection, sel)
    sel[:] = False  # the caller's array stays the caller's
    want = fields(s)
    s.refill(s.selection)
    assert fields(s) == want and s.selection.any()


def test_rounds_mode_solve_builds_one_core_struct(monkeypatch):
    built = []

    class Counted(bmcp._native.State):
        def __init__(self, **kw):
            built.append(kw["m"])
            super().__init__(**kw)

    monkeypatch.setattr(bmcp._native, "State", Counted)
    inst = make_instance(30, 40, 0.12, 0.45, seed=3)
    result = bmcp.solve(inst, bmcp.SolverConfig(seed=1, max_rounds=5, depth=20))
    assert result.rounds == 5
    assert built == [inst.m]


def test_constructor_builds_the_empty_state():
    inst = bmcp.generate_instance(
        bmcp.GeneratorSpec(m=20, n=40, density=0.1, capacity=300, seed=1)
    )
    built = SearchState(inst)
    refilled = SearchState.from_selection(inst, np.zeros(inst.m, dtype=bool))
    assert fields(built) == fields(refilled)
    assert built.value.tolist() == rebuilt_values(built)
    for threshold in (-50, -1, 0, 1, 50):
        for swaps_only in (False, True):
            got = compiled_candidates(built, 1, threshold, swaps_only)
            want = compiled_candidates(refilled, 1, threshold, swaps_only)
            assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])
    picks = [select_move(s, 1, 0, np.random.default_rng(0)) for s in (built, refilled)]
    assert picks == [Flip(11), Flip(11)]


class RecordedWalks:
    """The compiled core, recording each ``bmcp_walk``'s selection before
    and after it."""

    def __init__(self, lib):
        self.lib, self.walks = lib, []

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def bmcp_walk(self, core, target):
        selection = core.arrays["selection"]
        before = selection.copy()
        self.lib.bmcp_walk(core, target)
        self.walks.append(np.flatnonzero(before != selection).tolist())


def test_refill_flips_only_the_differing_items():
    inst = make_instance(30, 40, 0.12, 0.45, seed=3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = bmcp.random_fill(inst, rng)
        b = bmcp.random_fill(inst, rng, a & (rng.random(inst.m) < 0.5))
        state = SearchState.from_selection(inst, a)
        state.expiry[:] = 7
        with pytest.MonkeyPatch.context() as patch:
            recorded = RecordedWalks(bmcp._native.lib)
            patch.setattr(bmcp._native, "lib", recorded)
            state.refill(b)
        assert recorded.walks == [np.flatnonzero(a != b).tolist()]
        assert fields(state) == fields(SearchState.from_selection(inst, b))


@st.composite
def two_feasible_selections(draw):
    """A small instance, often degenerate (empty rows, uncovered elements,
    tied weights, capacity 0), and two feasible selections of it. Profits
    are small or near MAX_TOTAL // n, so the profit total reaches close to
    MAX_TOTAL and ties stay possible at both ends."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n), min_size=m, max_size=m))
    weights = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    top = MAX_TOTAL // n - 1
    profit = st.one_of(st.integers(1, 4), st.integers(top - 3, top))
    profits = draw(st.lists(profit, min_size=n, max_size=n))
    inst = bmcp.Instance(
        weights=np.array(weights), profits=np.array(profits),
        capacity=draw(st.integers(0, sum(weights))), **csr(rows),
    )

    def feasible():
        # The drawn items in order, each kept while it fits.
        sel = np.zeros(m, dtype=bool)
        weight = 0
        for item, wanted in enumerate(draw(st.lists(st.booleans(), min_size=m, max_size=m))):
            if wanted and weight + weights[item] <= inst.capacity:
                sel[item] = True
                weight += weights[item]
        return sel

    return inst, feasible(), feasible()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(two_feasible_selections())
def test_refill_between_feasible_selections_matches_rebuild(case):
    inst, a, b = case
    state = SearchState.from_selection(inst, a)
    state.refill(b)
    counts, weight, objective = rebuild(inst, b)
    assert state.selection.tolist() == b.tolist()
    assert state.coverage.tolist() == counts.tolist()
    assert (state.total_weight, state.objective) == (weight, objective)
    assert state.value.tolist() == rebuilt_values(state)
    assert not state.expiry.any()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(two_feasible_selections(), st.data())
def test_random_moves_and_picks_match_the_reference(case, data):
    # Random feasible moves through apply, each state under random tabu
    # marks, iteration and best so far (far ones included, which the pick
    # must clamp): the state equals a rebuild, and the compiled pick equals
    # the scalar reference's ties broken by rng.integers, in both modes.
    inst, start, _ = case
    state = SearchState.from_selection(inst, start)
    for _ in range(data.draw(st.integers(0, 6))):
        state.expiry[:] = data.draw(st.lists(st.integers(0, 4), min_size=inst.m, max_size=inst.m))
        iteration = data.draw(st.integers(1, 4))
        slack = data.draw(st.one_of(st.integers(-4, 4), st.sampled_from([-(2**64), 2**64])))
        best_so_far = state.objective + slack
        answers = reference_candidates(state, iteration, [slack])
        seed = data.draw(st.integers(0, 2**32))
        for swaps_only in (False, True):
            ties, best = answers[slack, swaps_only]
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            no_move = not ties or (swaps_only and best <= 0)
            want = -1 if no_move else ties[ref.integers(len(ties))]
            assert _pick(state, iteration, best_so_far, swaps_only, rng) == want
            assert rng.bit_generator.state == ref.bit_generator.state
        feasible = [mv for mv in reference_moves(state) if move_delta(state, mv).feasible]
        if not feasible:
            break
        state.apply(data.draw(st.sampled_from(feasible)))
        counts, weight, objective = rebuild(inst, state.selection)
        assert state.coverage.tolist() == counts.tolist()
        assert (state.total_weight, state.objective) == (weight, objective)
        assert state.value.tolist() == rebuilt_values(state)
