import numpy as np
import pytest

import bmcp
from bmcp import ConfigError, Flip, SearchState, Swap, TabuList
from bmcp.tabu import (
    TsParams,
    _compiled_candidates,
    _flip_deltas,
    _numpy_candidates,
    _swap_deltas,
)
from conftest import TINY_TEXT, flip_delta, make_instance, move_delta, swap_delta


def state_of(inst, items):
    return SearchState.from_selection(inst, bmcp.selection_from_items(inst.m, items))


def test_tenure_formula():
    assert bmcp.tabu_tenure(585, 600) == 10
    assert bmcp.tabu_tenure(1000, 985) == 14
    assert bmcp.tabu_tenure(1, 1) == 4
    assert bmcp.tabu_tenure(100, 99) == 5
    assert bmcp.tabu_tenure(99, 99) == 4


def test_depth_formula():
    assert bmcp.tabu_depth(600) == 10000
    assert bmcp.tabu_depth(100) == 20000
    assert bmcp.tabu_depth(1099) == 20
    for m in (1100, 1500):
        with pytest.raises(ConfigError):
            bmcp.tabu_depth(m)


def test_params_validation():
    with pytest.raises(ConfigError):
        TsParams(depth=0, tenure=3)
    with pytest.raises(ConfigError):
        TsParams(depth=10, tenure=0)


def test_tabu_window():
    tabu = TabuList(4, tenure=3)
    assert not tabu.mask().any()
    tabu.mark(2)
    marked_at = tabu.iteration
    for offset in (1, 2, 3):
        tabu.advance()
        assert tabu.iteration == marked_at + offset
        assert tabu.mask()[2]
        assert not tabu.mask()[0]
    tabu.advance()
    assert not tabu.mask()[2]
    assert tabu.mask().tolist() == [False] * 4


def test_mark_both_swap_items():
    tabu = TabuList(5, tenure=2)
    tabu.mark(1, 4)
    tabu.advance()
    assert tabu.mask()[1] and tabu.mask()[4]
    assert tabu.mask().tolist() == [False, True, False, False, True]


class TestSelectMove:
    """Hand-checked neighborhood of the selection {item 1} on the tiny
    fixture: flipping in item 2 or item 3 both gain 2 (the unique best),
    every other move loses."""

    def test_best_move_is_a_gaining_flip(self, tiny):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(60):
            state = state_of(tiny, [0])
            move = bmcp.select_move(state, TabuList(3, 4), state.objective, rng)
            assert move in (Flip(1), Flip(2))
            state.apply(move)
            assert state.objective == 12
            seen.add(move)
        assert seen == {Flip(1), Flip(2)}

    def test_tabu_item_is_skipped(self, tiny):
        state = state_of(tiny, [0])
        tabu = TabuList(3, 4)
        tabu.mark(1)
        tabu.advance()
        move = bmcp.select_move(state, tabu, 12, np.random.default_rng(0))
        assert move == Flip(2)

    def test_aspiration_overrides_tabu(self, tiny):
        state = state_of(tiny, [0])
        tabu = TabuList(3, 4)
        tabu.mark(1)
        tabu.advance()
        seen = set()
        for k in range(40):
            move = bmcp.select_move(state, tabu, 11, np.random.default_rng(k))
            assert move in (Flip(1), Flip(2))
            seen.add(move)
        assert Flip(1) in seen

    def test_no_admissible_move(self, tiny):
        state = state_of(tiny, [0])
        tabu = TabuList(3, 4)
        tabu.mark(0, 1, 2)
        tabu.advance()
        assert bmcp.select_move(state, tabu, 13, np.random.default_rng(0)) is None

    def test_worsening_move_accepted_when_forced(self, tiny):
        # With the gaining flips tabu and no aspiration, the best
        # admissible move worsens the objective.
        state = state_of(tiny, [0])
        tabu = TabuList(3, 4)
        tabu.mark(1, 2)
        tabu.advance()
        move = bmcp.select_move(state, tabu, 13, np.random.default_rng(0))
        assert move is not None
        delta = move_delta(state, move)
        assert delta.objective < 0


@pytest.mark.usefixtures("numpy_scan")
class TestSelectMoveNumpyScan(TestSelectMove):
    """The same hand-checked picks on the numpy scan."""


def test_random_fill_fills_everything_when_it_fits(tiny):
    roomy = bmcp.parse_instance(
        bmcp.write_instance(tiny).replace("3 3 10", "3 3 15")
    )
    sel = bmcp.random_fill(roomy, np.random.default_rng(0))
    assert sel.all()


def test_random_fill_respects_capacity():
    inst = make_instance(40, 30, 0.1, 0.3, seed=9)
    for seed in range(20):
        sel = bmcp.random_fill(inst, np.random.default_rng(seed))
        assert bmcp.total_weight(inst, sel) <= inst.capacity
    a = bmcp.random_fill(inst, np.random.default_rng(4))
    b = bmcp.random_fill(inst, np.random.default_rng(4))
    assert np.array_equal(a, b)


def test_random_fill_empty_when_nothing_fits(tiny):
    cramped = bmcp.parse_instance(
        bmcp.write_instance(tiny).replace("3 3 10", "3 3 3")
    )
    assert not bmcp.random_fill(cramped, np.random.default_rng(0)).any()


def test_descent_reaches_swap_local_optimum(tiny):
    # {3} -> swap in item 1 (+5, the unique best); {1} admits no
    # improving swap, so descent stops there.
    state = bmcp.descent_local_search(state_of(tiny, [2]), np.random.default_rng(1))
    assert np.flatnonzero(state.selection).tolist() == [0]
    assert state.objective == 10


def test_descent_fixpoint(tiny):
    state = bmcp.descent_local_search(state_of(tiny, [0, 1]), np.random.default_rng(1))
    assert np.flatnonzero(state.selection).tolist() == [0, 1]


def test_descent_output_has_no_improving_swap():
    inst = make_instance(25, 30, 0.15, 0.4, seed=21)
    state = bmcp.initial_solution(inst, np.random.default_rng(2))
    assert state.total_weight <= inst.capacity
    for out_item in np.flatnonzero(state.selection):
        for in_item in np.flatnonzero(~state.selection):
            delta = swap_delta(state, int(out_item), int(in_item))
            assert not (delta.feasible and delta.objective > 0)


@pytest.mark.usefixtures("numpy_scan")
def test_descent_checks_on_numpy_scan(tiny):
    test_descent_reaches_swap_local_optimum(tiny)
    test_descent_fixpoint(tiny)
    test_descent_output_has_no_improving_swap()


def test_tabu_search_finds_tiny_optimum(tiny):
    visited = []
    state = state_of(tiny, [2])
    best, _ = bmcp.tabu_search(
        state,
        bmcp.ProbabilityVector.initial(3),
        TsParams(depth=40, tenure=1),
        np.random.default_rng(5),
        observer=lambda s: visited.append((s.objective, s.total_weight)),
    )
    assert best.objective == 12
    assert best.total_weight <= 10
    assert all(w <= 10 for _, w in visited)
    # The walk keeps moving after the optimum, so worsening steps appear.
    objectives = [f for f, _ in visited]
    assert any(b < a for a, b in zip(objectives, objectives[1:]))


def test_tabu_search_halts_when_everything_is_tabu(tiny):
    # Tenure 2 on three items locks the whole neighborhood within a few
    # marks, so the phase ends before the depth cutoff.
    visited = []
    best, _ = bmcp.tabu_search(
        state_of(tiny, [2]),
        bmcp.ProbabilityVector.initial(3),
        TsParams(depth=40, tenure=2),
        np.random.default_rng(5),
        observer=lambda s: visited.append(s.objective),
    )
    assert best.objective == 12
    assert len(visited) < 40


def test_tabu_search_updates_probabilities(tiny):
    prob = bmcp.ProbabilityVector.initial(3)
    bmcp.tabu_search(
        state_of(tiny, [2]),
        prob,
        TsParams(depth=10, tenure=2),
        np.random.default_rng(5),
    )
    assert (prob.probs != 0.5).any()
    assert ((prob.probs > 0) & (prob.probs < 1)).all()


def test_tabu_search_halts_without_moves():
    inst = bmcp.Instance(
        weights=np.array([5]), profits=np.array([1]), capacity=4,
        rows=(np.array([0]),),
    )
    best, _ = bmcp.tabu_search(
        SearchState.from_selection(inst, np.zeros(inst.m, dtype=bool)),
        bmcp.ProbabilityVector.initial(1),
        TsParams(depth=100, tenure=1),
        np.random.default_rng(0),
    )
    assert best.objective == 0


def _instance_with_gaps():
    # Items 1 and 4 cover nothing; elements 5 and 6 are covered by no item.
    return bmcp.Instance(
        weights=np.array([3, 2, 4, 1, 5, 2]),
        profits=np.array([5, 7, 1, 9, 4, 6, 8]),
        capacity=9,
        rows=([0, 1], [], [1, 2, 3], [3], [], [0, 2, 4]),
    )


def _instance_near_2_58():
    # Profit gaps of a few units at 2^58, where float64 resolves only
    # multiples of 64; 15 elements keep the total below 2^62.
    base = make_instance(20, 15, 0.2, 0.5, seed=17)
    rng = np.random.default_rng(17)
    return bmcp.Instance(
        weights=base.weights,
        profits=(1 << 58) + rng.integers(0, 50, size=base.n),
        capacity=base.capacity,
        rows=base.rows,
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_instance(40, 50, 0.1, 0.4, seed=15),
        _instance_with_gaps,
        _instance_near_2_58,
    ],
    ids=["generated", "gaps", "near_2_58"],
)
def test_evaluator_matches_scalar_reference(build):
    inst = build()
    rng = np.random.default_rng(23)
    for _ in range(25):
        sel = bmcp.random_fill(inst, rng)
        sel &= rng.random(inst.m) < 0.8
        state = SearchState.from_selection(inst, sel)
        sel_idx = np.flatnonzero(sel)
        unsel_idx = np.flatnonzero(~sel)
        gain, loss = _flip_deltas(state)
        assert gain.dtype == loss.dtype == np.int64
        for i in unsel_idx:
            assert gain[i] == flip_delta(state, int(i)).objective
        for i in sel_idx:
            assert -loss[i] == flip_delta(state, int(i)).objective
        swaps = _swap_deltas(state, sel_idx, unsel_idx, gain, loss)
        assert swaps.dtype == np.int64
        assert swaps.shape == (sel_idx.size, unsel_idx.size)
        for r, a in enumerate(sel_idx):
            for c, b in enumerate(unsel_idx):
                assert swaps[r, c] == swap_delta(state, int(a), int(b)).objective


def _tabu(m, expiry, iteration):
    tabu = TabuList(m, 1)
    tabu.expiry[:], tabu.iteration = expiry, iteration
    return tabu


def _random_cases(inst):
    """(state, tabu list, best so far) on random feasible states."""
    rng = np.random.default_rng(31)
    for _ in range(25):
        sel = bmcp.random_fill(inst, rng)
        sel &= rng.random(inst.m) < 0.8
        state = SearchState.from_selection(inst, sel)
        expiry = rng.integers(0, 8, size=inst.m) * (rng.random(inst.m) < 0.3)
        tabu = _tabu(inst.m, expiry, int(rng.integers(1, 6)))
        for slack in (-3, 0, 3, 10**6):
            yield state, tabu, state.objective + slack


def _edge_cases():
    """Named (state, tabu list, best so far, tie set) cases on the tiny
    fixture; ties are candidate numbers (flip-ins, flip-outs, swaps)."""
    tiny = bmcp.parse_instance(TINY_TEXT)
    roomy = bmcp.parse_instance(TINY_TEXT.replace("3 3 10", "3 3 15"))
    # Headroom and threshold beyond int64, which must not wrap.
    vast = bmcp.parse_instance(TINY_TEXT.replace("3 3 10", f"3 3 {2**64 + 3}"))
    free = np.zeros(3, dtype=np.int64)
    return {
        "s=0": (state_of(tiny, []), _tabu(3, free, 1), 0, [0]),
        "u=0": (state_of(roomy, [0, 1, 2]), _tabu(3, free, 1), 12, [0, 1, 2]),
        "none admissible": (state_of(tiny, [0]), _tabu(3, [5, 5, 5], 2), 13, []),
        "two ties": (state_of(tiny, [0]), _tabu(3, free, 1), 10, [0, 1]),
        # Flip-in 0 is the tabu item 1, admitted by aspiration.
        "aspiration": (state_of(tiny, [0]), _tabu(3, [0, 5, 0], 2), 11, [0, 1]),
        "vast capacity": (state_of(vast, [0]), _tabu(3, free, 1), 10, [0, 1]),
        "far best": (state_of(tiny, [0]), _tabu(3, [0, 5, 0], 2), 2**64 + 10, [1]),
    }


@pytest.mark.parametrize(
    "cases",
    [
        lambda: _random_cases(make_instance(40, 50, 0.1, 0.4, seed=15)),
        lambda: _random_cases(_instance_with_gaps()),
        lambda: _random_cases(_instance_near_2_58()),
        lambda: [case[:3] for case in _edge_cases().values()],
    ],
    ids=["generated", "gaps", "near_2_58", "edges"],
)
def test_compiled_scan_matches_numpy(cases, compiled_scan, monkeypatch):
    for state, tabu, best_so_far in cases():
        threshold = best_so_far - state.objective
        for swaps_only in (False, True):
            want = _numpy_candidates(state, tabu, threshold, swaps_only)
            got = _compiled_candidates(compiled_scan, state, tabu, threshold, swaps_only)
            assert got[0].tolist() == want[0].tolist()
            if want[0].size:
                assert got[1] == want[1]
        picks = []
        for kernel in (compiled_scan, None):
            monkeypatch.setattr(bmcp._native, "kernel", kernel)
            rng = np.random.default_rng(tabu.iteration)
            move = bmcp.select_move(state, tabu, best_so_far, rng)
            descended = bmcp.descent_local_search(state.copy(), rng)
            picks.append((move, descended.selection.tolist(), rng.bit_generator.state))
        assert picks[0] == picks[1]


def test_edge_cases_have_the_named_tie_sets():
    for name, (state, tabu, best_so_far, ties) in _edge_cases().items():
        got, _ = _numpy_candidates(state, tabu, best_so_far - state.objective, False)
        assert got.tolist() == ties, name


def test_tabu_search_respects_deadline():
    import time

    inst = make_instance(80, 80, 0.08, 0.4, seed=30)
    state = SearchState.from_selection(
        inst, bmcp.random_fill(inst, np.random.default_rng(0))
    )
    started = time.perf_counter()
    bmcp.tabu_search(
        state,
        bmcp.ProbabilityVector.initial(inst.m),
        TsParams(depth=10**6, tenure=4),
        np.random.default_rng(0),
        deadline=started + 0.2,
    )
    assert time.perf_counter() - started < 2.0


def test_tabu_search_best_is_a_copy(tiny):
    state = state_of(tiny, [0])
    best, _ = bmcp.tabu_search(
        state,
        bmcp.ProbabilityVector.initial(3),
        TsParams(depth=5, tenure=2),
        np.random.default_rng(3),
    )
    assert best is not state
    frozen = (best.objective, best.selection.copy())
    selected = np.flatnonzero(state.selection)
    assert selected.size
    state.apply(Flip(int(selected[0])))
    assert best.objective == frozen[0]
    assert np.array_equal(best.selection, frozen[1])
