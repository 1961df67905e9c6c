"""Outer search loop and the multi-run batch harness.

One run: build an initial solution, then alternate tabu phases with
perturbation restarts until the wall-clock budget runs out (or a fixed
round count in deterministic test mode). A run searches one state: each
tabu phase leaves it at the phase's best, and each restart refills it in
place. The run's best is kept as a selection with its objective and
weight. Each run owns a single rng seeded from the config, so a (config,
instance) pair replays exactly in rounds mode.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .instance import Instance
from .learning import (
    ProbabilityVector,
    probability_perturbation,
    random_perturbation,
)
from .tabu import initial_solution, tabu_depth, tabu_search, tabu_tenure

PERTURBATIONS = ("probability", "random")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one run.

    :param time_limit: wall-clock budget in seconds; a new round starts
        only while elapsed time is within it.
    :param reward_factor: probability pulled toward 1 for items that enter.
    :param punish_factor: probability pulled toward 0 for items that leave.
    :param depth: override for the non-improving cutoff; default derives
        from the instance size.
    :param tenure: override for the tabu tenure; same default rule.
    :param perturbation: "probability" (learned restarts) or "random"
        (drop half, refill at random; the ablation baseline).
    :param carry_probability: keep the learned vector across rounds instead
        of resetting it to 0.50 at each tabu phase.
    :param seed: rng seed; batch runs use seed + run index.
    :param max_rounds: when set, run exactly this many tabu phases and
        ignore the clock (values below 1 are clamped to 1). Deterministic;
        meant for tests.
    """

    time_limit: float = 600.0
    reward_factor: float = 0.5
    punish_factor: float = 0.5
    depth: int | None = None
    tenure: int | None = None
    perturbation: str = "probability"
    carry_probability: bool = False
    seed: int = 0
    max_rounds: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.time_limit) or self.time_limit < 0:
            raise ConfigError("time limit must be a finite nonnegative number")
        for label, f in (
            ("reward", self.reward_factor),
            ("punish", self.punish_factor),
        ):
            if not 0.0 < f < 1.0:
                raise ConfigError(f"{label} factor must lie strictly between 0 and 1")
        if self.depth is not None and self.depth < 1:
            raise ConfigError("depth must be positive")
        if self.tenure is not None and self.tenure < 1:
            raise ConfigError("tenure must be positive")
        if self.perturbation not in PERTURBATIONS:
            raise ConfigError(
                f"unknown perturbation {self.perturbation!r}, expected one of {PERTURBATIONS}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")


@dataclass(frozen=True)
class RunResult:
    best_selection: np.ndarray
    best_objective: int
    best_weight: int
    time_to_best: float
    rounds: int
    seed: int


@dataclass(frozen=True)
class BatchSummary:
    f_best: int
    f_avg: float
    std: float
    t_avg: float
    runs: int


def solve(inst: Instance, cfg: SolverConfig, observer=None) -> RunResult:
    """One full run; ``observer`` sees every state the search visits."""
    rng = np.random.default_rng(cfg.seed)
    depth = cfg.depth if cfg.depth is not None else tabu_depth(inst.m)
    tenure = cfg.tenure if cfg.tenure is not None else tabu_tenure(inst.m, inst.n)
    started = time.perf_counter()

    state = initial_solution(inst, rng)
    if observer is not None:
        observer(state)
    best_selection = state.selection.copy()
    best_objective, best_weight = state.objective, state.total_weight
    time_to_best = time.perf_counter() - started

    prob = ProbabilityVector.initial(inst.m, cfg.reward_factor, cfg.punish_factor)
    target = max(1, cfg.max_rounds) if cfg.max_rounds is not None else None
    # In clock mode a phase also stops at the deadline, so the budget
    # holds even when one phase outlasts it; rounds mode stays untimed
    # for reproducibility.
    deadline = None if target is not None else started + cfg.time_limit
    rounds = 0
    while True:
        if target is not None:
            if rounds >= target:
                break
        elif time.perf_counter() - started > cfg.time_limit:
            break
        if not cfg.carry_probability:
            prob = ProbabilityVector.initial(
                inst.m, cfg.reward_factor, cfg.punish_factor
            )
        tabu_search(state, prob, depth, tenure, rng, observer, deadline=deadline)
        rounds += 1
        if state.objective > best_objective:
            best_selection[:] = state.selection
            best_objective, best_weight = state.objective, state.total_weight
            time_to_best = time.perf_counter() - started
        if cfg.perturbation == "probability":
            restart = probability_perturbation(state, prob, rng)
        else:
            restart = random_perturbation(state, rng)
        state.refill(restart)
        if observer is not None:
            observer(state)
    return RunResult(
        best_selection=best_selection,
        best_objective=best_objective,
        best_weight=best_weight,
        time_to_best=time_to_best,
        rounds=rounds,
        seed=cfg.seed,
    )


def _run_one(args) -> RunResult:
    inst, cfg = args
    return solve(inst, cfg)


def batch(
    inst: Instance, cfg: SolverConfig, runs: int, workers: int = 1
) -> list[RunResult]:
    """Independent runs seeded seed, seed+1, ..., in run order; one process per CPU at most."""
    if runs < 1:
        raise ConfigError("runs must be positive")
    if workers < 1:
        raise ConfigError("workers must be positive")
    jobs = [(inst, replace(cfg, seed=cfg.seed + i)) for i in range(runs)]
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(workers, runs, len(affinity(0)) if affinity else os.cpu_count() or 1)
    if workers == 1:
        return [_run_one(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs))


def summarize(results: Sequence[RunResult]) -> BatchSummary:
    """Best, mean, population standard deviation, and mean time-to-best."""
    if not results:
        raise ValueError("no runs to summarize")
    objectives = np.array([r.best_objective for r in results], dtype=np.float64)
    times = np.array([r.time_to_best for r in results], dtype=np.float64)
    return BatchSummary(
        f_best=max(r.best_objective for r in results),
        f_avg=float(objectives.mean()),
        std=float(objectives.std()),
        t_avg=float(times.mean()),
        runs=len(results),
    )
