"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``acceptance N (<label>): PASS/FAIL`` line
(visible under ``pytest -s``) and then asserts, so a red run names the
criterion that broke.  Budgets: the ablation harness honours
``BMCP_ACCEPTANCE=full`` (10 s per run); the default is a smoke pass
with 1 s budgets and the same win gate.
"""

import os
import time

import numpy as np
from conftest import make_instance, solve_lp_text

from bmcp import (
    Flip,
    GeneratorSpec,
    InfeasibleError,
    ProbabilityVector,
    RunResult,
    SearchState,
    SolverConfig,
    Swap,
    exact_optimum,
    generate_instance,
    random_fill,
    save_instance,
    solve,
    summarize,
    tabu_depth,
    tabu_tenure,
    wilcoxon_signed_rank,
    write_instance,
)
from bmcp.cli import format_row, main
from bmcp.lpexport import export_lp


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_1_formula_conformance():
    started = time.perf_counter()
    tenure_a = tabu_tenure(585, 600)
    tenure_b = tabu_tenure(1000, 985)
    depth = tabu_depth(600)
    pv = ProbabilityVector.initial(8, 0.5, 0.5)
    fresh = pv.probs.copy()
    pv.reward(3)
    pv.punish(5)
    elapsed = time.perf_counter() - started
    ok = (
        tenure_a == 10
        and tenure_b == 14
        and depth == 10000
        and np.all(fresh == 0.5)
        and pv.probs[3] == 0.75
        and pv.probs[5] == 0.25
        and elapsed < 1.0
    )
    report(
        1,
        "formula conformance",
        ok,
        f"tenure {tenure_a}/{tenure_b}, depth {depth}, "
        f"reward {pv.probs[3]}, punish {pv.probs[5]}, {elapsed:.3f}s",
    )


def _fuzz_one(seed: int, steps: int) -> int:
    """Random feasible walk; returns the number of steps that disagreed
    with a from-scratch recomputation (so 0 means clean)."""
    inst = generate_instance(
        GeneratorSpec(m=100, n=100, density=0.075, capacity=1500, seed=seed)
    )
    transpose = inst.incidence.T.toarray().astype(np.float64)
    weights = inst.weights.astype(np.float64)
    profits = inst.profits.astype(np.float64)
    rng = np.random.default_rng(9000 + seed)
    state = SearchState.from_selection(inst, random_fill(inst, rng))
    applied = 0
    while applied < steps:
        kinds = rng.integers(0, 3, size=4096)
        picks = rng.random((4096, 2))
        for kind, (u, v) in zip(kinds, picks):
            if applied == steps:
                break
            sel = np.flatnonzero(state.selection)
            unsel = np.flatnonzero(~state.selection)
            if kind == 0 and unsel.size:
                move = Flip(int(unsel[int(u * unsel.size)]))
            elif kind == 1 and sel.size:
                move = Flip(int(sel[int(u * sel.size)]))
            elif sel.size and unsel.size:
                move = Swap(
                    int(sel[int(u * sel.size)]), int(unsel[int(v * unsel.size)])
                )
            else:
                continue
            try:
                state.apply(move)
            except InfeasibleError:
                continue
            applied += 1
            counts = transpose @ state.selection.astype(np.float64)
            if (
                not np.array_equal(state.coverage, counts)
                or state.total_weight != weights @ state.selection
                or state.objective != profits @ (counts > 0.0)
            ):
                return 1
    return 0


def test_2_incremental_evaluation_fuzz():
    started = time.perf_counter()
    bad = sum(_fuzz_one(seed, 100_000) for seed in range(10))
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < 60.0
    report(
        2,
        "incremental evaluation fuzz",
        ok,
        f"{bad} mismatching instances over 10x1e5 moves, {elapsed:.1f}s",
    )


def test_3_oracle_equivalence():
    started = time.perf_counter()
    hits = 0
    exceeded = 0
    for k in range(20):
        dims = np.random.default_rng(300 + k)
        m = int(dims.integers(12, 19))
        n = int(dims.integers(15, 26))
        inst = make_instance(m, n, 0.25, 0.4, seed=310 + k)
        optimum, _ = exact_optimum(inst)
        result = solve(inst, SolverConfig(time_limit=2.0, seed=42))
        hits += result.best_objective == optimum
        exceeded += result.best_objective > optimum
    elapsed = time.perf_counter() - started
    ok = hits >= 18 and exceeded == 0 and elapsed < 60.0
    report(
        3,
        "oracle equivalence",
        ok,
        f"{hits}/20 optimal, {exceeded} above optimum, {elapsed:.1f}s",
    )


def test_4_feasibility_invariant():
    seen = []
    violations = []

    for k in range(5):
        inst = generate_instance(
            GeneratorSpec(m=200, n=200, density=0.05, capacity=1500, seed=400 + k)
        )

        def watch(state):
            seen.append(state.total_weight)
            if state.total_weight > inst.capacity:
                violations.append((k, state.total_weight))

        solve(inst, SolverConfig(max_rounds=2, depth=3000, seed=7), observer=watch)
    ok = len(violations) == 0 and len(seen) > 0
    report(
        4,
        "feasibility invariant",
        ok,
        f"{len(violations)} violations over {len(seen)} visited states",
    )


def test_5_ablation_harness(tmp_path):
    full = os.environ.get("BMCP_ACCEPTANCE", "").lower() == "full"
    budget, depth_args, bound = (
        (10.0, [], 2100.0) if full else (1.0, ["--depth", "2000"], 300.0)
    )
    paths = []
    for seed in range(10):
        spec = GeneratorSpec(m=100, n=100, density=0.05, capacity=700, seed=seed)
        path = tmp_path / f"case{seed}.bmcp"
        save_instance(generate_instance(spec), path)
        paths.append(str(path))
    out = tmp_path / "compare.csv"
    started = time.perf_counter()
    rc = main(
        ["compare", *paths, "--runs", "10", "--time-limit", str(budget)]
        + depth_args
        + ["--seed", "1000", "--output", str(out)]
    )
    elapsed = time.perf_counter() - started
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    f_avg = {
        (row[0], row[header.index("policy")]): float(row[header.index("f_avg")])
        for row in rows
    }
    p_values = {row[header.index("p_value")] for row in rows}
    p_value = float(next(iter(p_values)))
    wins = sum(
        f_avg[(row[0], "probability")] >= f_avg[(row[0], "random")]
        for row in rows
        if row[1] == "probability"
    )
    ok = (
        rc == 0
        and wins >= 5
        and len(p_values) == 1
        and 0.0 <= p_value <= 1.0
        and elapsed < bound
    )
    report(
        5,
        "ablation harness",
        ok,
        f"{'full' if full else 'smoke'} mode, probability wins {wins}/10, "
        f"p={p_value:.4g}, {elapsed:.0f}s",
    )


def test_6_generator_statistics():
    started = time.perf_counter()
    worst = 0.0
    identical = True
    for side in (585, 600):
        for density in (0.05, 0.075):
            for seed in range(20):
                spec = GeneratorSpec(
                    m=side, n=side, density=density, capacity=1500, seed=seed
                )
                inst = generate_instance(spec)
                realized = inst.indices.size / (inst.m * inst.n)
                worst = max(worst, abs(realized - density) / density)
            rerun = GeneratorSpec(
                m=side, n=side, density=density, capacity=1500, seed=0
            )
            identical &= write_instance(generate_instance(rerun)) == write_instance(
                generate_instance(rerun)
            )
    elapsed = time.perf_counter() - started
    ok = worst <= 0.10 and identical and elapsed < 10.0
    report(
        6,
        "generator statistics",
        ok,
        f"worst relative density error {worst:.4f}, "
        f"bit-identical reruns {identical}, {elapsed:.1f}s",
    )


def test_7_lp_export_fidelity():
    started = time.perf_counter()
    agreements = 0
    for k in range(10):
        dims = np.random.default_rng(500 + k)
        m = int(dims.integers(10, 16))
        n = int(dims.integers(12, 21))
        inst = make_instance(m, n, 0.2, 0.45, seed=520 + k)
        text = export_lp(inst)
        agreements += solve_lp_text(text) == exact_optimum(inst)[0]
    elapsed = time.perf_counter() - started
    ok = agreements == 10 and elapsed < 30.0
    report(
        7,
        "lp export fidelity",
        ok,
        f"{agreements}/10 brute-forced models match the oracle, {elapsed:.1f}s",
    )


def test_8_statistics():
    selection = np.zeros(4, dtype=bool)
    results = [
        RunResult(selection, 70677, 1200, 0.0, 1, seed) for seed in range(30)
    ]
    summary = summarize(results)
    row = format_row("x", "probability", 30, summary)
    p_value = wilcoxon_signed_rank([(d, 0.0) for d in (1.0, 2.0, 3.0, 4.0, 5.0)])
    ok = (
        summary.f_avg == 70677.0
        and summary.std == 0.0
        and row == "x,probability,30,70677,70677.00,0.00,0.000"
        and p_value == 0.0625
    )
    report(
        8,
        "statistics",
        ok,
        f"f_avg {summary.f_avg}, std {summary.std}, signed-rank p {p_value}",
    )
