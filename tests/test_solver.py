import dataclasses
import hashlib
import os
import time

import numpy as np
import pytest

import bmcp
from bmcp import ConfigError, RunResult, SolverConfig
from conftest import make_instance


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.time_limit == 600.0
    assert cfg.reward_factor == 0.5 and cfg.punish_factor == 0.5
    assert cfg.perturbation == "probability"
    assert not cfg.carry_probability


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(time_limit=-1.0),
        dict(time_limit=float("nan")),
        dict(reward_factor=0.0),
        dict(reward_factor=1.0),
        dict(punish_factor=-0.2),
        dict(depth=0),
        dict(tenure=0),
        dict(perturbation="annealing"),
        dict(seed=-3),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(**kwargs)


def test_solve_tiny_reaches_optimum(tiny):
    result = bmcp.solve(tiny, SolverConfig(seed=7, max_rounds=2))
    assert result.best_objective == 12
    assert result.best_weight <= tiny.capacity
    assert result.rounds == 2
    assert result.seed == 7
    assert bmcp.full_objective(tiny, result.best_selection) == 12


def test_solve_rounds_mode_deterministic():
    inst = make_instance(40, 50, 0.1, 0.4, seed=1)
    cfg = SolverConfig(seed=3, max_rounds=3, depth=50)
    a = bmcp.solve(inst, cfg)
    b = bmcp.solve(inst, cfg)
    assert a.best_objective == b.best_objective
    assert np.array_equal(a.best_selection, b.best_selection)
    assert a.rounds == b.rounds == 3


def test_solve_zero_rounds_clamped(tiny):
    result = bmcp.solve(tiny, SolverConfig(seed=0, max_rounds=0))
    assert result.rounds == 1


def test_solve_time_budget_stops():
    inst = make_instance(60, 60, 0.08, 0.4, seed=4)
    started = time.perf_counter()
    result = bmcp.solve(inst, SolverConfig(time_limit=0.3, seed=0, depth=200))
    elapsed = time.perf_counter() - started
    assert result.rounds >= 1
    assert elapsed < 10.0
    assert result.time_to_best <= elapsed


def test_solve_observer_sees_feasible_states_only(tiny):
    weights = []
    bmcp.solve(
        tiny,
        SolverConfig(seed=1, max_rounds=3),
        observer=lambda s: weights.append(s.total_weight),
    )
    assert weights
    assert all(w <= tiny.capacity for w in weights)


def test_solve_random_policy_and_carry(tiny):
    cfg = SolverConfig(seed=5, max_rounds=3, perturbation="random", carry_probability=True)
    result = bmcp.solve(tiny, cfg)
    assert result.best_objective == 12


@pytest.mark.parametrize("carry", [False, True])
def test_carry_probability_keeps_the_vector_across_phases(carry, monkeypatch):
    phases = []
    search = bmcp.solver.tabu_search

    def recording(state, prob, *args, **kwargs):
        entry = prob.probs.copy()
        best = search(state, prob, *args, **kwargs)
        phases.append((entry, prob.probs.copy()))
        return best

    monkeypatch.setattr(bmcp.solver, "tabu_search", recording)
    inst = make_instance(40, 50, 0.1, 0.4, seed=2)
    bmcp.solve(inst, SolverConfig(seed=2, max_rounds=3, carry_probability=carry))
    assert len(phases) == 3
    assert all((left != 0.5).any() for _, left in phases)
    fresh = [bool((entry == 0.5).all()) for entry, _ in phases]
    assert fresh == ([True] * 3 if not carry else [True, False, False])
    if carry:
        for (_, left), (entry, _) in zip(phases, phases[1:]):
            assert np.array_equal(entry, left)


def test_policies_diverge_on_same_seed():
    inst = make_instance(50, 60, 0.08, 0.35, seed=8)
    base = SolverConfig(seed=2, max_rounds=4, depth=60)
    a = bmcp.solve(inst, base)
    b = bmcp.solve(inst, dataclasses.replace(base, perturbation="random"))
    assert a.best_weight <= inst.capacity and b.best_weight <= inst.capacity
    # Same rng seed, different restart rule: the search trajectories split.
    assert a.rounds == b.rounds == 4


def test_batch_seeds_and_order(tiny):
    results = bmcp.batch(tiny, SolverConfig(seed=5, max_rounds=1), runs=4)
    assert [r.seed for r in results] == [5, 6, 7, 8]
    assert all(r.best_objective == 12 for r in results)


def test_batch_parallel_matches_serial():
    inst = make_instance(30, 30, 0.12, 0.4, seed=10)
    cfg = SolverConfig(seed=1, max_rounds=2, depth=40)
    serial = bmcp.batch(inst, cfg, runs=4, workers=1)
    parallel = bmcp.batch(inst, cfg, runs=4, workers=2)
    for a, b in zip(serial, parallel):
        assert a.seed == b.seed
        assert a.best_objective == b.best_objective
        assert np.array_equal(a.best_selection, b.best_selection)


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
def test_batch_workers_are_bounded_by_usable_cpus(tiny, affinity, monkeypatch):
    sizes = []

    class Recorder:
        """Stands in for ``ProcessPoolExecutor``: records ``max_workers``
        and runs the jobs in this process, starting none."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    def usable(count):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: count)

    monkeypatch.setattr(bmcp.solver, "ProcessPoolExecutor", Recorder)
    cfg = SolverConfig(seed=5, max_rounds=1)
    usable(3)
    results = bmcp.batch(tiny, cfg, runs=8, workers=4096)
    assert [r.seed for r in results] == list(range(5, 13))
    bmcp.batch(tiny, cfg, runs=2, workers=4096)
    usable(1)
    assert len(bmcp.batch(tiny, cfg, runs=4, workers=4)) == 4  # serial, no pool
    assert sizes == [3, 2]


def test_batch_validation(tiny):
    with pytest.raises(ConfigError):
        bmcp.batch(tiny, SolverConfig(), runs=0)
    with pytest.raises(ConfigError):
        bmcp.batch(tiny, SolverConfig(), runs=2, workers=0)


def _result(value, t=0.5):
    return RunResult(
        best_selection=np.zeros(1, dtype=bool),
        best_objective=value,
        best_weight=0,
        time_to_best=t,
        rounds=1,
        seed=0,
    )


def test_summarize_basic():
    summary = bmcp.summarize([_result(10, 1.0), _result(14, 3.0)])
    assert summary.f_best == 14
    assert summary.f_avg == 12.0
    assert summary.std == 2.0
    assert summary.t_avg == 2.0
    assert summary.runs == 2


def test_summarize_constant_values():
    summary = bmcp.summarize([_result(70677)] * 30)
    assert summary.f_avg == 70677.0
    assert summary.std == 0.0


def test_summarize_empty():
    with pytest.raises(ValueError):
        bmcp.summarize([])


# Rounds-mode replay pins, recorded before the move evaluator was rewritten:
# (generator spec, rounds, depth, policy, best objective, observed states,
# digest of the observed objective sequence, best items 1-based). A change
# to any move, tie-break draw or restart shows up here.
REPLAY_PINS = [
    (
        dict(m=100, n=100, density=0.075, capacity=350, seed=5), 4, 60,
        "probability", 5236, 441, "1a5e45da764d7bc0",
        [3, 4, 15, 16, 17, 18, 24, 27, 45, 48, 51, 54, 60, 64, 65, 78, 83,
         87, 88, 96],
    ),
    (
        dict(m=100, n=100, density=0.075, capacity=350, seed=5), 4, 60,
        "random", 5236, 357, "947614ba16563192",
        [3, 4, 15, 16, 17, 18, 24, 27, 45, 48, 51, 54, 60, 64, 65, 78, 83,
         87, 88, 96],
    ),
    (
        dict(m=300, n=320, density=0.04, capacity=900, seed=6), 3, 40,
        "probability", 15943, 457, "58cca523bf751562",
        [3, 6, 20, 22, 33, 34, 41, 53, 57, 58, 70, 86, 94, 96, 102, 105, 110,
         112, 116, 133, 134, 135, 139, 153, 163, 168, 175, 187, 188, 191, 199,
         210, 220, 223, 226, 230, 231, 234, 239, 255, 256, 258, 259, 271, 272,
         281, 284, 294],
    ),
    (
        dict(m=300, n=320, density=0.04, capacity=900, seed=6), 3, 40,
        "random", 15925, 426, "d9f529c380845497",
        [3, 6, 20, 22, 34, 53, 54, 70, 86, 90, 94, 96, 102, 105, 123, 133,
         134, 135, 147, 153, 158, 161, 167, 168, 169, 175, 187, 192, 194, 200,
         206, 208, 210, 220, 223, 231, 234, 239, 255, 256, 258, 259, 281, 284,
         294, 298],
    ),
]


@pytest.mark.parametrize(
    "spec,rounds,depth,policy,best,visits,digest,items",
    REPLAY_PINS,
    ids=[f"m{p[0]['m']}-{p[3]}" for p in REPLAY_PINS],
)
def test_rounds_mode_replays_pinned_moves(
    spec, rounds, depth, policy, best, visits, digest, items
):
    inst = bmcp.generate_instance(bmcp.GeneratorSpec(**spec))
    seen = []
    result = bmcp.solve(
        inst,
        SolverConfig(max_rounds=rounds, depth=depth, seed=3, perturbation=policy),
        observer=lambda s: seen.append(s.objective),
    )
    trail = hashlib.sha256(np.asarray(seen, dtype=np.int64).tobytes())
    assert result.best_objective == best
    assert (np.flatnonzero(result.best_selection) + 1).tolist() == items
    assert len(seen) == visits
    assert trail.hexdigest()[:16] == digest
