import threading

import numpy as np
import pytest

import bmcp
from bmcp import ConfigError, Flip, SearchState, Swap
from bmcp.instance import MAX_TOTAL
from bmcp.tabu import _pick
from conftest import (
    TINY_TEXT,
    bit_state,
    compiled_candidates,
    csr,
    make_instance,
    move_delta,
    move_of,
    picked,
    reference_candidates,
    reference_descent,
    reference_phase,
    swap_delta,
    tabu_items,
)


def state_of(inst, items):
    return SearchState.from_selection(inst, bmcp.selection_from_items(inst.m, items))


def marked(state, expiry):
    """``state`` with its tabu expiry set to ``expiry``."""
    state.expiry[:] = expiry
    return state


def phase_marks(state, depth, tenure, seed=5):
    """Run one tabu phase from ``state``; for each move, the items it
    changed and the expiry after the phase marked them. The observer sees
    each state after its move, before that move's marks."""
    selections, expiries = [state.selection.copy()], []

    def observe(s):
        selections.append(s.selection.copy())
        expiries.append(s.expiry.copy())

    bmcp.tabu_search(
        state, bmcp.ProbabilityVector.initial(state.instance.m), depth, tenure,
        np.random.default_rng(seed), observer=observe,
    )
    expiries = [*expiries[1:], state.expiry.copy()]
    return [
        (np.flatnonzero(before != after).tolist(), expiry)
        for before, after, expiry in zip(selections, selections[1:], expiries)
    ]


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


def test_tabu_window(tiny):
    # From {item 1}, flipping in item 2 or item 3 gains 2. Item 2, marked at
    # iteration 1 with tenure 3, is left out of the scan through iteration
    # 4 (no threshold admits it) and is admissible again from 5.
    state = marked(state_of(tiny, [0]), [0, 1 + 3, 0])
    for iteration in (2, 3, 4, 5):
        ties, _ = compiled_candidates(state, iteration, MAX_TOTAL, False)
        assert ties.tolist() == ([1, 2] if iteration == 5 else [2])
        assert tabu_items(state, iteration).tolist() == [False, iteration < 5, False]


def test_tenure_beyond_int64_keeps_the_item_tabu(tiny):
    marks = phase_marks(state_of(tiny, [2]), depth=40, tenure=2**70)
    assert marks
    for iteration, (items, expiry) in enumerate(marks, start=1):
        assert expiry[items].tolist() == [iteration + MAX_TOTAL] * len(items)


def test_mark_both_swap_items():
    # From {item 0}, nothing else fits, and swapping 0 for 1 or for 2 gains 4.
    inst = _one_element_each([5, 4, 3], [1, 5, 5], capacity=5)
    marks = phase_marks(state_of(inst, [0]), depth=6, tenure=2)
    items, expiry = marks[0]
    assert len(items) == 2 and 0 in items
    assert expiry.tolist() == [3 if i in items else 0 for i in range(3)]
    for iteration, (items, expiry) in enumerate(marks, start=1):
        assert expiry[items].tolist() == [iteration + 2] * len(items)


class TestSelectMove:
    """Hand-checked neighborhood of the selection {item 1} on the tiny
    fixture: flipping in item 2 or item 3 both gain 2 (the unique best),
    every other move loses."""

    def test_best_move_is_a_gaining_flip(self, tiny):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(60):
            state = state_of(tiny, [0])
            move = bmcp.select_move(state, 1, state.objective, rng)
            assert move in (Flip(1), Flip(2))
            state.apply(move)
            assert state.objective == 12
            seen.add(move)
        assert seen == {Flip(1), Flip(2)}

    def test_tabu_item_is_skipped(self, tiny):
        state = marked(state_of(tiny, [0]), [0, 5, 0])
        move = bmcp.select_move(state, 2, 12, np.random.default_rng(0))
        assert move == Flip(2)

    def test_aspiration_overrides_tabu(self, tiny):
        state = marked(state_of(tiny, [0]), [0, 5, 0])
        seen = set()
        for k in range(40):
            move = bmcp.select_move(state, 2, 11, np.random.default_rng(k))
            assert move in (Flip(1), Flip(2))
            seen.add(move)
        assert Flip(1) in seen

    def test_no_admissible_move(self, tiny):
        state = marked(state_of(tiny, [0]), [5, 5, 5])
        assert bmcp.select_move(state, 2, 13, np.random.default_rng(0)) is None

    def test_worsening_move_accepted_when_forced(self, tiny):
        # With the gaining flips tabu and no aspiration, the best
        # admissible move worsens the objective.
        state = marked(state_of(tiny, [0]), [0, 5, 5])
        move = bmcp.select_move(state, 2, 13, np.random.default_rng(0))
        assert move is not None
        delta = move_delta(state, move)
        assert delta.objective < 0


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


def test_descent_ignores_tabu_marks():
    inst = make_instance(40, 50, 0.1, 0.4, seed=15)
    rng = np.random.default_rng(8)
    moved = 0
    for seed in range(30):
        state = SearchState.from_selection(inst, bmcp.random_fill(inst, rng))
        start = state.selection.copy()
        unmarked = state.copy()
        marked(state, MAX_TOTAL)
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        bmcp.descent_local_search(state, rngs[0])
        bmcp.descent_local_search(unmarked, rngs[1])
        assert state.selection.tolist() == unmarked.selection.tolist()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        moved += not np.array_equal(state.selection, start)
    assert moved


def test_second_phase_on_one_state_starts_with_nothing_tabu():
    inst = make_instance(40, 50, 0.1, 0.4, seed=15)
    state = SearchState.from_selection(
        inst, bmcp.random_fill(inst, np.random.default_rng(4))
    )
    bmcp.tabu_search(
        state, bmcp.ProbabilityVector.initial(inst.m), 30, 5, np.random.default_rng(3)
    )
    assert state.expiry.max() > 5  # the first phase leaves its marks
    runs = []
    for searched in (state, state.copy()):
        prob = bmcp.ProbabilityVector.initial(inst.m)
        rng = np.random.default_rng(7)
        best = bmcp.tabu_search(searched, prob, 30, 5, rng)
        runs.append((
            best.selection.tolist(), searched.selection.tolist(),
            prob.probs.tolist(), rng.bit_generator.state,
        ))
    assert runs[0] == runs[1]


def test_tabu_search_finds_tiny_optimum(tiny):
    visited = []
    state = state_of(tiny, [2])
    best = bmcp.tabu_search(
        state,
        bmcp.ProbabilityVector.initial(3),
        40, 1,
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
    best = bmcp.tabu_search(
        state_of(tiny, [2]),
        bmcp.ProbabilityVector.initial(3),
        40, 2,
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
        10, 2,
        np.random.default_rng(5),
    )
    assert (prob.probs != 0.5).any()
    assert ((prob.probs > 0) & (prob.probs < 1)).all()


def test_tabu_search_halts_without_moves():
    inst = bmcp.Instance(
        weights=np.array([5]), profits=np.array([1]), capacity=4,
        **csr([[0]]),
    )
    best = bmcp.tabu_search(
        SearchState.from_selection(inst, np.zeros(inst.m, dtype=bool)),
        bmcp.ProbabilityVector.initial(1),
        100, 1,
        np.random.default_rng(0),
    )
    assert best.objective == 0


def _instance_with_gaps():
    # Items 1 and 4 cover nothing; elements 5 and 6 are covered by no item.
    return bmcp.Instance(
        weights=np.array([3, 2, 4, 1, 5, 2]),
        profits=np.array([5, 7, 1, 9, 4, 6, 8]),
        capacity=9,
        **csr([[0, 1], [], [1, 2, 3], [3], [], [0, 2, 4]]),
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
        indptr=base.indptr,
        indices=base.indices,
    )


def _random_cases(inst):
    """(marked state, iteration, best-so-far values) on random feasible states."""
    rng = np.random.default_rng(31)
    for _ in range(25):
        sel = bmcp.random_fill(inst, rng)
        sel &= rng.random(inst.m) < 0.8
        state = SearchState.from_selection(inst, sel)
        marked(state, rng.integers(0, 8, size=inst.m) * (rng.random(inst.m) < 0.3))
        iteration = int(rng.integers(1, 6))
        yield state, iteration, [state.objective + slack for slack in (-3, 0, 3, 10**6)]


def _one_element_each(weights, profits, capacity):
    """Instance where item i alone covers element i."""
    return bmcp.Instance(
        weights=np.array(weights), profits=np.array(profits), capacity=capacity,
        **csr([[i] for i in range(len(weights))]),
    )


def _edge_cases():
    """Named (marked state, iteration, best so far, tie set) cases; ties are the
    scan's move codes: a flip's item, or m + m*a + b for the swap of a for b
    (on three items, 3 + 3a + b)."""
    tiny = bmcp.parse_instance(TINY_TEXT)
    roomy = bmcp.parse_instance(TINY_TEXT.replace("3 3 10", "3 3 15"))
    # Headroom and threshold beyond int64, which must not wrap.
    vast = bmcp.parse_instance(TINY_TEXT.replace("3 3 10", f"3 3 {2**64 + 3}"))
    # Swapping 0 for 1 or for 2 gains 4; the lighter item 2 comes second.
    lighter_later = _one_element_each([5, 4, 3], [1, 5, 5], capacity=5)
    # Swapping 0 or 1 for 2 gains 4.
    two_leaving = _one_element_each([2, 2, 2], [1, 1, 5], capacity=4)
    # Flipping 1 in and swapping 0 for 2 both gain 3.
    flip_and_swap = _one_element_each([1, 1, 2], [2, 3, 5], capacity=2)
    return {
        "swaps tied, lighter item later": (state_of(lighter_later, [0]), 1, 1, [4, 5]),
        "swaps tied, two leaving items": (state_of(two_leaving, [0, 1]), 1, 2, [5, 8]),
        "flip tied with swap": (state_of(flip_and_swap, [0]), 1, 2, [1, 5]),
        "s=0": (state_of(tiny, []), 1, 0, [0]),
        "u=0": (state_of(roomy, [0, 1, 2]), 1, 12, [0, 1, 2]),
        "none admissible": (marked(state_of(tiny, [0]), [5, 5, 5]), 2, 13, []),
        "two ties": (state_of(tiny, [0]), 1, 10, [1, 2]),
        # The flip-in of the tabu item 1 is admitted by aspiration.
        "aspiration": (marked(state_of(tiny, [0]), [0, 5, 0]), 2, 11, [1, 2]),
        "vast capacity": (state_of(vast, [0]), 1, 10, [1, 2]),
        "far best": (marked(state_of(tiny, [0]), [0, 5, 0]), 2, 2**64 + 10, [2]),
    }


def _reference_descent(state, rng):
    """:func:`bmcp.descent_local_search` on the scalar reference, with
    nothing tabu."""
    state.expiry[:] = 0
    while True:
        ties, best = reference_candidates(state, 1, [0])[0, True]
        if best is None or best <= 0:
            return state
        state.apply(move_of(state.instance.m, ties[rng.integers(len(ties))]))


@pytest.mark.parametrize(
    "cases",
    [
        lambda: _random_cases(make_instance(40, 50, 0.1, 0.4, seed=15)),
        lambda: _random_cases(_instance_with_gaps()),
        lambda: _random_cases(_instance_near_2_58()),
        lambda: [(s, it, [best]) for s, it, best, _ in _edge_cases().values()],
    ],
    ids=["generated", "gaps", "near_2_58", "edges"],
)
def test_scan_matches_scalar_reference(cases):
    for state, iteration, bests in cases():
        thresholds = [best - state.objective for best in bests]
        want = reference_candidates(state, iteration, thresholds)
        for (threshold, swaps_only), (ties, best) in want.items():
            got, got_best = compiled_candidates(state, iteration, threshold, swaps_only)
            assert got.tolist() == ties
            assert not state.core.arrays["corr"].any()  # the scratch is left zero
            if ties:
                assert got_best == best
        for best_so_far, threshold in zip(bests, thresholds):
            rng = np.random.default_rng(iteration)
            ref_rng = np.random.default_rng(iteration)
            move = bmcp.select_move(state, iteration, best_so_far, rng)
            ties, _ = want[threshold, False]
            if len(ties) > 1:
                ties = [ties[ref_rng.integers(len(ties))]]
            assert move == (move_of(state.instance.m, ties[0]) if ties else None)
        # The descent continues from the last pick's draws.
        descended = bmcp.descent_local_search(state.copy(), rng)
        ref_descended = _reference_descent(state.copy(), ref_rng)
        assert descended.selection.tolist() == ref_descended.selection.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_edge_cases_have_the_named_tie_sets():
    for name, (state, iteration, best_so_far, ties) in _edge_cases().items():
        threshold = best_so_far - state.objective
        got, _ = compiled_candidates(state, iteration, threshold, False)
        want, _ = reference_candidates(state, iteration, [threshold])[threshold, False]
        assert got.tolist() == want == ties, name


def test_ties_beyond_the_buffer_are_all_returned():
    # Equal profits and weights on disjoint rows, no room to flip in: all
    # 6 * 6 swaps tie at 0, more than the 12 moves the buffer starts with.
    inst = _one_element_each([1] * 12, [7] * 12, capacity=6)
    for swaps_only in (False, True):
        state = state_of(inst, range(6))
        want = reference_candidates(state, 1, [0])[0, swaps_only]
        assert len(want[0]) == 36
        for _ in range(2):  # grown, then reused
            got, best = compiled_candidates(state, 1, 0, swaps_only)
            assert (got.tolist(), best) == want
        assert state.core.capacity >= 36


BIT_GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]


def _twin_rngs(name, seed):
    """Two generators on equal, fresh ``name`` bit generators."""
    return [np.random.Generator(getattr(np.random, name)(seed)) for _ in range(2)]


def _tied_instance():
    """Unit profits and weights 1..3: most picks tie."""
    base = make_instance(30, 40, 0.1, 0.4, seed=3)
    return bmcp.Instance(
        weights=base.weights % 3 + 1, profits=np.ones(base.n, dtype=np.int64),
        capacity=12, indptr=base.indptr, indices=base.indices,
    )


@pytest.mark.parametrize("name", BIT_GENERATORS)
def test_compiled_picks_draw_as_generator_integers(name):
    # select_move, the descent and a phase against picked(), whose
    # tie-break is rng.integers: equal moves and equal generator states.
    inst = _tied_instance()
    draws = 0
    for seed in range(4):
        rng, ref = _twin_rngs(name, seed)
        start = bmcp.random_fill(inst, rng)
        bmcp.random_fill(inst, ref)
        state, twin = (SearchState.from_selection(inst, start) for _ in range(2))
        marks = (np.arange(inst.m) % 4) * 2
        for iteration, slack in [(1, 0), (3, -1), (5, 2), (2, 2**64)]:
            state.expiry[:] = twin.expiry[:] = marks
            best = state.objective + slack
            code = picked(twin, iteration, best, False, ref)
            want = None if code is None else move_of(inst.m, code)
            assert bmcp.select_move(state, iteration, best, rng) == want
            assert bit_state(rng) == bit_state(ref)
        bmcp.descent_local_search(state, rng)
        reference_descent(twin, ref)
        assert state.selection.tolist() == twin.selection.tolist()
        assert bit_state(rng) == bit_state(ref)
        probs = [bmcp.ProbabilityVector.initial(inst.m) for _ in range(2)]
        seen = [], []
        bmcp.tabu_search(state, probs[0], 30, 3, rng, observer=lambda s: seen[0].append(
            s.selection.tolist()))
        draws += reference_phase(twin, probs[1], 30, 3, ref, observer=lambda s: seen[1].append(
            s.selection.tolist()))
        assert seen[0] == seen[1] and len(seen[0]) >= 30
        assert state.selection.tolist() == twin.selection.tolist()
        assert state.expiry.tolist() == twin.expiry.tolist()
        assert probs[0].probs.tolist() == probs[1].probs.tolist()
        assert bit_state(rng) == bit_state(ref)
    assert draws >= 20  # the phases broke real ties


def test_an_observer_may_draw_from_the_run_rng():
    # The generator's lock is held for each pick only, so an observer that
    # draws from the same generator neither blocks nor desyncs the picks.
    inst = _tied_instance()
    ended = []

    def run(rng, phase):
        state = SearchState.from_selection(inst, bmcp.random_fill(inst, rng))
        prob = bmcp.ProbabilityVector.initial(inst.m)
        seen = []

        def observe(s):
            seen.append((s.selection.tolist(), rng.random()))

        phase(state, prob, 30, 3, rng, observer=observe)
        ended.append((seen, state.selection.tolist(), bit_state(rng)))

    for phase in (bmcp.tabu_search, reference_phase):
        worker = threading.Thread(target=run, args=(np.random.default_rng(6), phase), daemon=True)
        worker.start()
        worker.join(60)
        assert not worker.is_alive()
    assert len(ended) == 2 and ended[0] == ended[1]
    assert len(ended[0][0]) >= 30


def test_a_pick_waits_for_the_generator_lock():
    inst = _tied_instance()
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    state = SearchState.from_selection(inst, bmcp.random_fill(inst, np.random.default_rng(3)))
    want = move_of(inst.m, picked(state.copy(), 1, state.objective, False, ref))
    done = []
    worker = threading.Thread(
        target=lambda: done.append(bmcp.select_move(state, 1, state.objective, rng)),
        daemon=True,
    )
    with rng.bit_generator.lock:
        worker.start()
        worker.join(0.2)
        assert worker.is_alive() and not done
    worker.join(60)
    assert done == [want]
    assert bit_state(rng) == bit_state(ref)


def test_overflowing_ties_are_picked_after_the_buffer_grows():
    # 36 swaps tie at 0, more than the 12 moves the buffer starts with; the
    # pick grows it, scans again and draws once.
    inst = _one_element_each([1] * 12, [7] * 12, capacity=6)
    state = state_of(inst, range(6))
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    ties, _ = reference_candidates(state, 1, [0])[0, False]
    assert len(ties) == 36
    assert _pick(state, 1, state.objective, False, rng) == ties[ref.integers(36)]
    assert bit_state(rng) == bit_state(ref)
    assert state.core.capacity >= 36


def test_an_iteration_past_int64_is_past_every_mark():
    # Item 1 is tabu through iteration 5. Passed as it is, 2^64 + 2 would
    # wrap to 2 in ctypes, where item 1 is still tabu and the bar of best
    # 12 keeps its flip-in (gain 2) out.
    tiny = bmcp.parse_instance(TINY_TEXT)
    seen = set()
    for seed in range(12):
        late, far = (
            bmcp.select_move(marked(state_of(tiny, [0]), [0, 5, 0]), it, 12,
                             np.random.default_rng(seed))
            for it in (6, 2**64 + 2)
        )
        assert far == late
        seen.add(late)
    assert seen == {Flip(1), Flip(2)}


def test_a_tie_set_past_2_32_is_refused(monkeypatch):
    # numpy draws from such a set with its 64-bit draw, which the core does
    # not make. The set needs m >= 65 536 and a 32 GiB tie buffer, so the
    # core's count is set by a stand-in.
    class VastTies:
        def bmcp_pick(self, core, *args):
            core.count = 2**32 + 1
            return -1

    state = state_of(bmcp.parse_instance(TINY_TEXT), [0])
    monkeypatch.setattr(bmcp._native, "lib", VastTies())
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="exceed the 2\\^32"):
        bmcp.select_move(state, 1, 0, rng)
    with pytest.raises(ValueError, match="exceed the 2\\^32"):
        bmcp.tabu_search(state, bmcp.ProbabilityVector.initial(3), 5, 1, rng)


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
        10**6, 4,
        np.random.default_rng(0),
        deadline=started + 0.2,
    )
    assert time.perf_counter() - started < 2.0


def test_tabu_search_ends_at_its_best():
    inst = make_instance(40, 50, 0.1, 0.4, seed=15)
    state = SearchState.from_selection(
        inst, bmcp.random_fill(inst, np.random.default_rng(4))
    )
    start = state.objective
    seen = []
    tenure = 5
    ended = bmcp.tabu_search(
        state, bmcp.ProbabilityVector.initial(inst.m), 30, tenure,
        np.random.default_rng(3),
        observer=lambda s: seen.append((s.objective, s.selection.copy())),
    )
    assert ended is state
    assert state.objective == max(start, *(f for f, _ in seen)) > start
    # The walk went on past its best, so the phase flipped back to it.
    assert not np.array_equal(seen[-1][1], state.selection)
    rebuilt = SearchState.from_selection(inst, state.selection)
    for name in ("selection", "coverage", "value"):
        assert getattr(state, name).tolist() == getattr(rebuilt, name).tolist()
    assert (state.total_weight, state.objective) == (rebuilt.total_weight, rebuilt.objective)
    # Move t marks its items through t + tenure; the last move is move len(seen).
    last = np.flatnonzero(seen[-2][1] != seen[-1][1]).tolist()
    assert np.flatnonzero(state.expiry == len(seen) + tenure).tolist() == last
    assert state.expiry.max() == len(seen) + tenure
