#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bmcp tabu solver.

    python3 perfbench/run.py --workload dense585 --seed 0 --seconds 48 --trace 0

Every workload is a closed loop with one client in one process: the next
solver call starts when the previous one has returned. Inputs come from
``--seed`` only, and the solver runs in rounds mode (``max_rounds`` plus
an explicit depth), so one seed always replays the same moves. The
benchmark repeats the workload's solver calls ("passes") for
``--seconds`` and reports medians.

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, plus the tracing overhead; spans
go to ``perfbench/out/<workload>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every check passed, 1 when one failed, 2 when the ``src/bmcp``
sources are missing and 3 when a workload instance has no headroom.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    """One workload: what it generates and how it calls the solver.

    The seed draws ``pool`` groups of ``group`` instances each; pass i
    uses group i mod ``pool`` and the i-th solver seed, so the medians
    over passes average over instances as well as search paths.
    ``runs == 0`` means one ``solve`` per instance of the group;
    otherwise a pass is one in-process ``bmcp compare`` over the group
    with ``runs`` runs per policy. ``blas_threads`` sets numpy's OpenBLAS
    thread count; None keeps the library's default.
    """

    spec: dict
    group: int
    rounds: int
    depth: int
    target: float
    runs: int = 0
    pool: int = 8
    blas_threads: int | None = None


# Sizes are chosen so the LP bound stays below the total profit (real
# headroom) and each one stresses a different layer; see README.md.
# small_compare runs on one BLAS thread: its matrices are too small for a
# second thread to pay off, which only spins the other core.
WORKLOADS = {
    "dense585": Workload(
        spec=dict(m=585, n=1500, density=0.02, capacity=1000),
        group=1, rounds=3, depth=25, target=0.90, pool=24,
    ),
    "sparse3k": Workload(
        spec=dict(m=3000, n=3000, density=0.004, capacity=800),
        group=1, rounds=1, depth=30, target=0.70,
    ),
    "small_compare": Workload(
        spec=dict(m=100, n=300, density=0.03, capacity=300),
        group=3, rounds=12, depth=20, target=0.92, runs=2, pool=48, blas_threads=1,
    ),
}

# Toy sizes of the same workloads, for the smoke test.
SMOKE = {
    "dense585": Workload(
        spec=dict(m=40, n=120, density=0.06, capacity=150),
        group=1, rounds=2, depth=5, target=0.5,
    ),
    "sparse3k": Workload(
        spec=dict(m=60, n=60, density=0.05, capacity=100),
        group=1, rounds=2, depth=5, target=0.5,
    ),
    "small_compare": Workload(
        spec=dict(m=30, n=60, density=0.06, capacity=100),
        group=2, rounds=2, depth=5, target=0.5, runs=2, blas_threads=1,
    ),
}

# The exact-oracle check: small enough for exact_optimum's exhaustive search.
ORACLE = dict(m=12, n=30, density=0.15, capacity=120)
ORACLE_INSTANCES = 2

EXPORT_REPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "moves_per_s": "1/s",
    "time_to_target_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "instance.generate_s": "s",
    "instance.write_s": "s",
    "instance.parse_s": "s",
    "instance.incidence_s": "s",
    "tabu.scan_s": "s",
    "tabu.scan_us_per_move": "us",
    "tabu.phase_s": "s",
    "tabu.initial_s": "s",
    "tabu.descent_s": "s",
    "tabu.phases": "count",
    "tabu.moves": "count",
    "tabu.flips_in": "count",
    "tabu.flips_out": "count",
    "tabu.swaps": "count",
    "state.apply_s": "s",
    "state.apply_calls": "count",
    "state.copy_s": "s",
    "state.copy_calls": "count",
    "state.from_selection_s": "s",
    "state.from_selection_calls": "count",
    "learning.perturb_s": "s",
    "learning.perturbations": "count",
    "learning.update_s": "s",
    "learning.updates": "count",
    "learning.restart_hamming": "items",
    "solver.solve_self_s": "s",
    "solver.rounds": "count",
    "stats.wilcoxon_s": "s",
    "cli.compare_self_s": "s",
    "lpexport.export_s": "s",
    "gap_pct": "%",
    "trace.overhead_ratio": "ratio",
}


def load_bmcp():
    """Import bmcp from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bmcp" / "__init__.py").is_file():
        print(f"perfbench: no bmcp sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import bmcp
    import bmcp.cli

    if Path(bmcp.__file__).resolve().parent != src / "bmcp":
        print(f"perfbench: imported bmcp from {bmcp.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return bmcp


def make_observer(target: int):
    """Observer counting calls and the first time a state reaches ``target``."""
    box = [0, None]
    clock = time.perf_counter

    def observe(state):
        box[0] += 1
        if box[1] is None and state.objective >= target:
            box[1] = clock()

    return observe, box


@dataclass
class SolveRecord:
    name: str
    policy: str
    result: object
    moves: int
    to_target: float | None


class Bench:
    def __init__(self, bmcp, name: str, workload: Workload, seed: int, trace: bool, tmp: Path):
        self.bmcp = bmcp
        self.name = name
        self.wl = workload
        self.seed = seed
        self.trace = trace
        self.tmp = tmp
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.instances = {}
        self.groups: list[list[str]] = []
        self.bounds = {}
        self.targets = {}
        self.setup_times: list[dict] = []
        self.passes: list[dict] = []
        self.oracle_span = (0, 0)

    # -- accounting ----------------------------------------------------
    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    # -- setup ---------------------------------------------------------
    def build_group(self, g: int) -> tuple[list, list[str]]:
        """Generate, write, parse and index group ``g``: one ``setup_s`` sample.

        A sample is the cost paid before the first move of a pass.
        """
        bmcp, wl = self.bmcp, self.wl
        steps = dict.fromkeys(("generate", "write", "parse", "incidence"), 0.0)

        def timed(step, fn, *args, **kwargs):
            with self.tracer.span(f"instance.{step}") as s:
                out = fn(*args, **kwargs)
            steps[step] += s[2] - s[1]
            return out

        built, problems = [], []
        for k in range(wl.group):
            spec = bmcp.GeneratorSpec(seed=(self.seed << 8) + g * wl.group + k, **wl.spec)
            made = timed("generate", bmcp.generate_instance, spec)
            text = timed("write", bmcp.write_instance, made)
            inst = timed("parse", bmcp.parse_instance, text, name=f"{self.name}-{g}-{k}")
            timed("incidence", getattr, inst, "incidence")
            if inst != made:
                problems.append(f"{inst.name}: parse(write(instance)) differs")
            built.append((inst, text))
        steps["total"] = sum(steps.values())
        self.setup_times.append(steps)
        return built, problems

    def setup(self) -> None:
        for g in range(self.wl.pool):
            built, problems = self.build_group(g)
            for inst, text in built:
                (self.tmp / f"{inst.name}.bmcp").write_text(text)
                self.instances[inst.name] = inst
            self.groups.append([inst.name for inst, _ in built])
            self.op(problems)

    def resetup(self, g: int) -> None:
        """Set group ``g`` up again, so ``setup_s`` samples span the run."""
        built, problems = self.build_group(g)
        for inst, _ in built:
            if inst != self.instances[inst.name]:
                problems.append(f"{inst.name}: a second generation differs")
        self.op(problems)

    def bound_status(self) -> bool:
        """LP bound per instance; False when one has no headroom."""
        ok = True
        for name, inst in self.instances.items():
            bound = checks.lp_bound(inst)
            total = int(inst.profits.sum())
            self.bounds[name] = bound
            self.targets[name] = math.ceil(self.wl.target * bound)
            print(
                f"instance {name} m={inst.m} n={inst.n} C={inst.capacity} "
                f"lp_bound {bound:.3f} profits_total {total} target {self.targets[name]}"
            )
            if bound >= total - 1e-6:
                print(f"perfbench: {name}: LP bound equals profits.sum(); refusing", file=sys.stderr)
                ok = False
        return ok

    # -- oracle --------------------------------------------------------
    def oracle_check(self) -> None:
        """bmcp compare on tiny instances must find exact_optimum's value."""
        bmcp = self.bmcp
        files, exact = [], {}
        for k in range(ORACLE_INSTANCES):
            inst = bmcp.generate_instance(
                bmcp.GeneratorSpec(seed=self.seed * 8 + k, **ORACLE)
            )
            path = self.tmp / f"oracle-{k}.bmcp"
            path.write_text(bmcp.write_instance(inst))
            files.append(str(path))
            exact[path.stem] = bmcp.exact_optimum(inst)[0]
        csv = self.tmp / "oracle.csv"
        # Tabu phases can cycle on 12 items (tenure 4), so restarts must find
        # the optimum: at 6 rounds of depth 20 about 8% of instances were
        # missed, at 100 rounds of depth 30 none of 500.
        argv = ["compare", *files, "--runs", "2", "--workers", "1", "--rounds", "100",
                "--depth", "30", "--seed", str(self.seed), "--output", str(csv)]
        with contextlib.ExitStack() as stack:
            if self.trace:
                stack.enter_context(self.tracer.installed(bmcp))
            with self.tracer.span("oracle"):
                root = len(self.tracer.spans) - 1
                code, err = self.cli(argv)
            self.oracle_span = (root, len(self.tracer.spans))
        if code != 0:
            self.op([f"oracle compare exited {code}: {err}"])
            return
        rows = checks.read_compare_csv(csv)
        for name, value in exact.items():
            found = {int(r["f_best"]) for r in rows if r["instance"] == name}
            self.op(
                [] if found == {value}
                else [f"{name}: compare f_best {sorted(found)} != exact optimum {value}"]
            )

    def cli(self, argv) -> tuple[int, str]:
        err = io.StringIO()
        with self.tracer.span("cli.compare"), contextlib.redirect_stderr(err):
            code = self.bmcp.cli.main(argv)
        return code, err.getvalue().strip()

    # -- passes --------------------------------------------------------
    @contextlib.contextmanager
    def probe(self, records: list):
        """Route every solve through an observer that times the target."""
        solver = self.bmcp.solver
        inner = solver.solve
        clock = time.perf_counter

        def solve(inst, cfg, observer=None):
            observe, box = make_observer(self.targets[inst.name])
            start = clock()
            result = inner(inst, cfg, observer=observe)
            hit = None if box[1] is None else box[1] - start
            records.append(
                SolveRecord(inst.name, cfg.perturbation, result, box[0] - 1 - result.rounds, hit)
            )
            return result

        solver.solve = solve
        try:
            yield
        finally:
            solver.solve = inner

    def run_pass(self, index: int, traced: bool) -> dict | None:
        """One pass of the workload with the ``index``-th solver seed.

        Returns None, counting a failed operation, when the pass raised.
        """
        bmcp, wl = self.bmcp, self.wl
        seed = (self.seed << 20) + index * max(1, wl.runs)
        group = self.groups[index % wl.pool]
        records: list[SolveRecord] = []
        code, err = 0, ""
        csv = self.tmp / "compare.csv"
        try:
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(self.tracer.installed(bmcp))
                stack.enter_context(self.probe(records))
                with self.tracer.span("pass", tag=traced) as rec:
                    root = len(self.tracer.spans) - 1
                    if wl.runs:
                        files = [str(self.tmp / f"{name}.bmcp") for name in group]
                        code, err = self.cli(
                            ["compare", *files, "--runs", str(wl.runs), "--workers", "1",
                             "--rounds", str(wl.rounds), "--depth", str(wl.depth),
                             "--seed", str(seed), "--output", str(csv)]
                        )
                    else:
                        cfg = bmcp.SolverConfig(max_rounds=wl.rounds, depth=wl.depth, seed=seed)
                        for name in group:
                            bmcp.solver.solve(self.instances[name], cfg)
        except Exception as exc:  # a crash in the program is a failed operation
            traceback.print_exc()
            self.op([f"pass {index} raised {exc!r}"])
            return None
        done = dict(index=index, traced=traced, seconds=rec[2] - rec[1], records=records,
                    span=(root, len(self.tracer.spans)))
        self.passes.append(done)
        self.check_pass(records, code, err, csv)
        return done

    def check_pass(self, records, code, err, csv) -> None:
        for r in records:
            problems = checks.verify_run(self.bmcp, self.instances[r.name], r.result, self.bounds[r.name])
            if r.to_target is None:
                problems.append(f"{r.name}: target {self.targets[r.name]} never reached")
            self.op(problems)
        if self.wl.runs:
            problems = [] if code == 0 else [f"compare exited {code}: {err}"]
            if code == 0:
                for row in checks.read_compare_csv(csv):
                    runs = [r.result.best_objective for r in records
                            if r.name == row["instance"] and r.policy == row["policy"]]
                    if not runs or int(row["f_best"]) != max(runs):
                        problems.append(f"compare row {row} disagrees with its runs {runs}")
            self.op(problems)
        expected = self.wl.group * (2 * self.wl.runs if self.wl.runs else 1)
        if len(records) != expected:
            self.op([f"pass made {len(records)} solves, expected {expected}"])

    def measure(self, seconds: float) -> None:
        """Passes until ``seconds`` have gone, at least three.

        Each solver seed is preceded by a fresh set-up of its group, whose
        time is only a ``setup_s`` sample. With tracing, each solver seed runs twice, untraced and traced, in
        alternating order; both must give the same results.
        """
        deadline = time.perf_counter() + seconds
        index = 0
        while index < 3 or time.perf_counter() < deadline:
            self.resetup(index % self.wl.pool)
            if not self.trace:
                self.run_pass(index, traced=False)
            else:
                order = (False, True) if index % 2 == 0 else (True, False)
                a, b = [self.run_pass(index, traced) for traced in order]
                if a and b:
                    self.op(
                        [] if signature(a) == signature(b)
                        else [f"solver seed {index}: traced and untraced passes differ: "
                              f"{signature(a)} vs {signature(b)}"]
                    )
            index += 1

    # -- metrics -------------------------------------------------------
    def worst_gap(self) -> float:
        """Worst gap to the LP bound over the first solver seed's solves."""
        first = [p for p in self.passes if p["index"] == 0][:1]
        return max(
            (100.0 * (self.bounds[r.name] - r.result.best_objective) / self.bounds[r.name]
             for p in first for r in p["records"]),
            default=0.0,
        )

    def end_to_end(self) -> dict:
        plain = [p for p in self.passes if not p["traced"]]
        hits = [r.to_target for p in plain for r in p["records"] if r.to_target is not None]
        return {
            "setup_s": median([s["total"] for s in self.setup_times]),
            "run_s": median([p["seconds"] for p in plain]),
            "moves_per_s": median([moves_per_s(p) for p in plain]),
            "time_to_target_s": median(hits),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        bmcp, spans = self.bmcp, self.tracer.spans
        traced = [p for p in self.passes if p["traced"]]
        plain = [p for p in self.passes if not p["traced"]]
        layers = [layer_metrics(spans, *p["span"]) for p in traced]
        if not layers:
            return dict.fromkeys(LAYER_UNITS, 0.0)
        # Counts come from the first solver seed; times are medians.
        out = {
            key: layers[0][key] if isinstance(layers[0][key], int)
            else median([layer[key] for layer in layers])
            for key in layers[0]
        }
        if not self.wl.runs:
            # No compare in these passes: report the oracle check's one.
            oracle = layer_metrics(spans, *self.oracle_span)
            for key in ("stats.wilcoxon_s", "cli.compare_self_s"):
                out[key] = oracle[key]
        moves = sum(r.moves for r in traced[0]["records"])
        rounds = sum(r.result.rounds for r in traced[0]["records"])
        out["solver.rounds"] = rounds
        out["gap_pct"] = self.worst_gap()
        problems = []
        if out["tabu.moves"] != moves:
            problems.append(f"traced apply count {out['tabu.moves']} != observed moves {moves}")
        if out["tabu.phases"] != rounds:
            problems.append(f"traced phases {out['tabu.phases']} != solver rounds {rounds}")
        self.op(problems)
        for step in ("generate", "write", "parse", "incidence"):
            out[f"instance.{step}_s"] = statistics.median(s[step] for s in self.setup_times)
        exports = []
        for _ in range(EXPORT_REPS):
            with self.tracer.span("lpexport.export") as s:
                for name in self.groups[0]:
                    bmcp.lpexport.export_lp(self.instances[name])
            exports.append(s[2] - s[1])
        out["lpexport.export_s"] = statistics.median(exports)
        out["trace.overhead_ratio"] = median([p["seconds"] for p in traced]) / (
            median([p["seconds"] for p in plain]) or 1.0
        )
        return out


def median(values: list) -> float:
    """Median, or 0 when a failure left no samples (the run is then incorrect)."""
    return statistics.median(values) if values else 0.0


def signature(done: dict) -> list[tuple]:
    """What a replay of the same solver seed must reproduce exactly."""
    return [(r.name, r.policy, r.result.best_objective, r.result.rounds, r.moves)
            for r in done["records"]]


def moves_per_s(done: dict) -> float:
    return sum(r.moves for r in done["records"]) / done["seconds"]


def spread_line(name, values, unit) -> str:
    values = list(values)
    if len(values) < 2:
        return f"{name} {median(values):.6g} {unit} n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{name} median {median(values):.6g} {unit} "
            f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="toy-size instances")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("seed must lie in [0, 2^40)")

    bmcp = load_bmcp()
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    if workload.blas_threads is not None:
        checks.set_blas_threads(workload.blas_threads)
    print("env " + json.dumps(checks.environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''} {workload}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bench = Bench(bmcp, args.workload, workload, args.seed, bool(args.trace), Path(tmp))
        bench.setup()
        if not bench.bound_status():
            return 3
        bench.oracle_check()
        bench.measure(args.seconds)
        e2e = bench.end_to_end()
        layers = bench.per_layer() if args.trace else {}

    for p in bench.passes:
        hits = [r.to_target for r in p["records"] if r.to_target is not None]
        print(f"pass {p['index']} traced {int(p['traced'])} seconds {p['seconds']:.4f} "
              f"moves {sum(r.moves for r in p['records'])} "
              f"time_to_target {median(hits):.4f}")
    plain = [p for p in bench.passes if not p["traced"]]
    print(spread_line("setup_s", (s["total"] for s in bench.setup_times), "s"))
    print(spread_line("run_s", (p["seconds"] for p in plain), "s"))
    print(spread_line("moves_per_s", (moves_per_s(p) for p in plain), "1/s"))
    for name in ("time_to_target_s", "peak_rss_mb"):
        print(f"{name} {e2e[name]:.6g} {E2E_UNITS[name]}")
    if not args.trace:
        print(f"gap_pct {bench.worst_gap():.6g} % (worst over the first solver seed's solves)")
    for name, value in layers.items():
        print(f"{name} {value:.6g} {LAYER_UNITS[name]}")
    fail_ratio = bench.failed / bench.attempted
    print(f"fail_ratio {fail_ratio:.6g} fraction ({bench.failed}/{bench.attempted})")
    for problem in bench.problems[:20]:
        print(f"FAIL {problem}")
    if args.trace:
        bench.tracer.dump(OUT / f"{args.workload}.spans.jsonl")

    chosen, units = (layers, LAYER_UNITS) if args.trace else (e2e, E2E_UNITS)
    metrics = {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()}
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
