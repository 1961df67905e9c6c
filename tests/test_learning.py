import numpy as np
import pytest

import bmcp
from bmcp import ConfigError, ProbabilityVector, SearchState
from conftest import make_instance


def test_initial_vector_is_indifferent():
    prob = ProbabilityVector.initial(7)
    assert prob.probs.size == 7
    assert (prob.probs == 0.5).all()


def test_update_rules_pinned():
    prob = ProbabilityVector.initial(2)
    prob.reward(0)
    prob.punish(1)
    assert prob.probs[0] == 0.75
    assert prob.probs[1] == 0.25
    prob.reward(0)
    assert prob.probs[0] == 0.875
    prob.punish(1)
    assert prob.probs[1] == 0.125


def test_asymmetric_factors():
    prob = ProbabilityVector.initial(1, reward_factor=0.2, punish_factor=0.6)
    prob.reward(0)
    assert prob.probs[0] == pytest.approx(0.2 + 0.8 * 0.5)
    prob.punish(0)
    assert prob.probs[0] == pytest.approx(0.4 * (0.2 + 0.8 * 0.5))


@pytest.mark.parametrize("factor", [0.0, 1.0, -0.1, 1.7])
def test_factor_bounds(factor):
    with pytest.raises(ConfigError):
        ProbabilityVector.initial(3, reward_factor=factor)
    with pytest.raises(ConfigError):
        ProbabilityVector.initial(3, punish_factor=factor)


def test_updates_stay_in_open_interval():
    rng = np.random.default_rng(8)
    prob = ProbabilityVector.initial(10, reward_factor=0.9, punish_factor=0.9)
    for _ in range(100_000):
        item = int(rng.integers(10))
        if rng.random() < 0.5:
            prob.reward(item)
        else:
            prob.punish(item)
        value = prob.probs[item]
        assert 0.0 < value < 1.0


def state_of(inst, items):
    return SearchState.from_selection(inst, bmcp.selection_from_items(inst.m, items))


def test_probability_perturbation_feasible_fuzz():
    inst = make_instance(40, 50, 0.1, 0.4, seed=13)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        state = bmcp.initial_solution(inst, rng)
        prob = ProbabilityVector(rng.random(inst.m) * 0.98 + 0.01, 0.5, 0.5)
        sel = bmcp.probability_perturbation(state, prob, rng)
        assert bmcp.total_weight(inst, sel) <= inst.capacity


def test_probability_perturbation_deterministic():
    inst = make_instance(30, 30, 0.1, 0.4, seed=2)
    state = bmcp.initial_solution(inst, np.random.default_rng(0))
    prob = ProbabilityVector.initial(inst.m)
    a = bmcp.probability_perturbation(state, prob, np.random.default_rng(42))
    b = bmcp.probability_perturbation(state, prob, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_drop_rate_follows_probability():
    # Item 0 at probability 0.9 leaves in the drop phase 90% of the time
    # and stays out through the refill draw with the same odds, so it
    # ends unselected at a rate near 0.81. Capacity blocks nothing here.
    inst = bmcp.Instance(
        weights=np.ones(20, dtype=np.int64),
        profits=np.ones(30, dtype=np.int64),
        capacity=5,
        rows=tuple(np.array([j % 30]) for j in range(20)),
    )
    state = state_of(inst, [0, 1, 2])
    probs = np.full(20, 0.999)
    probs[0] = 0.9
    prob = ProbabilityVector(probs, 0.5, 0.5)
    rng = np.random.default_rng(99)
    ended_out = sum(
        not bmcp.probability_perturbation(state, prob, rng)[0]
        for _ in range(3000)
    )
    assert 0.77 < ended_out / 3000 < 0.85


def test_low_probability_items_refill():
    # Near-zero probabilities mean almost every fitting item re-enters.
    inst = bmcp.Instance(
        weights=np.ones(10, dtype=np.int64),
        profits=np.ones(10, dtype=np.int64),
        capacity=10,
        rows=tuple(np.array([j]) for j in range(10)),
    )
    state = state_of(inst, [0])
    prob = ProbabilityVector(np.full(10, 0.001), 0.5, 0.5)
    sel = bmcp.probability_perturbation(state, prob, np.random.default_rng(1))
    assert sel.sum() >= 9


def test_random_perturbation_feasible_and_moves():
    inst = make_instance(30, 40, 0.1, 0.35, seed=6)
    state = bmcp.initial_solution(inst, np.random.default_rng(3))
    changed = 0
    for seed in range(25):
        sel = bmcp.random_perturbation(state, np.random.default_rng(seed))
        assert bmcp.total_weight(inst, sel) <= inst.capacity
        if not np.array_equal(sel, state.selection):
            changed += 1
    assert changed > 0


def test_random_perturbation_refills_roomy_instance(tiny):
    roomy = bmcp.parse_instance(
        bmcp.write_instance(tiny).replace("3 3 10", "3 3 15")
    )
    state = state_of(roomy, [0, 1, 2])
    sel = bmcp.random_perturbation(state, np.random.default_rng(0))
    assert sel.all()


def test_random_perturbation_empty_selection(tiny):
    state = SearchState.from_selection(tiny, np.zeros(tiny.m, dtype=bool))
    sel = bmcp.random_perturbation(state, np.random.default_rng(0))
    assert bmcp.total_weight(tiny, sel) <= tiny.capacity
