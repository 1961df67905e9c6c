"""Command-line front end.

Subcommands: ``generate`` (write a random instance), ``solve`` (one run),
``batch`` (repeated runs, CSV summary), ``exact`` (exhaustive oracle),
``export-lp`` (integer-program text), ``compare`` (both perturbation
policies over an instance set with a signed-rank p-value).

CSV columns: instance, policy, runs, f_best, f_avg, std, t_avg and, for
compare, p_value. Means are over the runs of one row; f_avg and std carry
two decimals, t_avg three. Solution files hold one line: the instance
name followed by the selected item indices, 1-based ascending.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InfeasibleError
from .exact import exact_optimum
from .instance import (
    GeneratorSpec,
    generate_instance,
    load_instance,
    save_instance,
)
from .lpexport import export_lp
from .solver import BatchSummary, SolverConfig, batch, summarize
from .stats import wilcoxon_signed_rank

CSV_HEADER = "instance,policy,runs,f_best,f_avg,std,t_avg"


def format_row(
    instance_name: str,
    policy: str,
    runs: int,
    summary: BatchSummary,
    p_value: float | None = None,
) -> str:
    if any(c in instance_name for c in ',"\r\n'):
        # RFC 4180 quoting; every other name is written as it is.
        instance_name = '"' + instance_name.replace('"', '""') + '"'
    row = (
        f"{instance_name},{policy},{runs},{summary.f_best},"
        f"{summary.f_avg:.2f},{summary.std:.2f},{summary.t_avg:.3f}"
    )
    if p_value is not None:
        row += f",{p_value:.4g}"
    return row


def write_solution(path, instance_name: str, selection: np.ndarray) -> None:
    items = " ".join(str(int(i) + 1) for i in np.flatnonzero(selection))
    line = f"{instance_name} {items}".rstrip()
    Path(path).write_text(line + "\n")


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--time-limit", type=float, default=600.0, metavar="SECONDS")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--reward-factor", type=float, default=0.5)
    sub.add_argument("--punish-factor", type=float, default=0.5)
    sub.add_argument("--depth", type=int, default=None, help="non-improving cutoff override")
    sub.add_argument("--tenure", type=int, default=None, help="tabu tenure override")
    sub.add_argument(
        "--perturbation",
        choices=("probability", "random"),
        default="probability",
    )
    sub.add_argument(
        "--carry-probability",
        action="store_true",
        help="keep learned probabilities across rounds instead of resetting",
    )
    sub.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="run exactly this many tabu phases, ignoring the clock",
    )


def _config_from(args: argparse.Namespace, perturbation: str | None = None) -> SolverConfig:
    return SolverConfig(
        time_limit=args.time_limit,
        reward_factor=args.reward_factor,
        punish_factor=args.punish_factor,
        depth=args.depth,
        tenure=args.tenure,
        perturbation=perturbation or args.perturbation,
        carry_probability=args.carry_probability,
        seed=args.seed,
        max_rounds=args.rounds,
    )


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        m=args.m,
        n=args.n,
        density=args.density,
        capacity=args.capacity,
        weight_range=tuple(args.weight_range),
        profit_range=tuple(args.profit_range),
        seed=args.seed,
    )
    inst = generate_instance(spec)
    path = Path(args.out_dir) / f"{inst.name}.bmcp"
    save_instance(inst, path)
    print(path)
    return 0


def _cmd_batch(args) -> int:
    inst = load_instance(args.instance)
    cfg = _config_from(args)
    results = batch(inst, cfg, runs=args.runs, workers=args.workers)
    text = "\n".join(
        [
            CSV_HEADER,
            format_row(inst.name, cfg.perturbation, args.runs, summarize(results)),
        ]
    )
    _emit(text, args.output)
    best = max(results, key=lambda r: r.best_objective)
    solution_path = args.solution or f"{Path(args.instance).stem}.sol"
    write_solution(solution_path, inst.name, best.best_selection)
    return 0


def _cmd_exact(args) -> int:
    inst = load_instance(args.instance)
    objective, selection = exact_optimum(inst)
    items = " ".join(str(int(i) + 1) for i in np.flatnonzero(selection))
    print(f"objective {objective}")
    print(f"items {items}".rstrip())
    return 0


def _cmd_export_lp(args) -> int:
    inst = load_instance(args.instance)
    text = export_lp(inst)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compare(args) -> int:
    instances = [load_instance(p) for p in args.instances]
    rows = []
    pairs = []
    for inst in instances:
        per_policy = {}
        for policy in ("probability", "random"):
            cfg = _config_from(args, perturbation=policy)
            results = batch(inst, cfg, runs=args.runs, workers=args.workers)
            per_policy[policy] = summarize(results)
        pairs.append((per_policy["probability"].f_avg, per_policy["random"].f_avg))
        rows.append((inst.name, per_policy))
    p_value = wilcoxon_signed_rank(pairs)
    lines = [CSV_HEADER + ",p_value"]
    for name, per_policy in rows:
        for policy in ("probability", "random"):
            lines.append(
                format_row(name, policy, args.runs, per_policy[policy], p_value)
            )
    _emit("\n".join(lines), args.output)
    print(
        f"signed-rank p over {len(pairs)} paired f_avg values: {p_value:.4g}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmcp",
        description="Budgeted maximum coverage: generate, solve, compare.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a random instance file")
    gen.add_argument("--m", type=int, required=True, help="number of items")
    gen.add_argument("--n", type=int, required=True, help="number of elements")
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--capacity", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weight-range", type=int, nargs=2, default=(1, 100), metavar=("LO", "HI"))
    gen.add_argument("--profit-range", type=int, nargs=2, default=(1, 100), metavar=("LO", "HI"))
    gen.add_argument("--out-dir", default=".")
    gen.set_defaults(func=_cmd_generate)

    solve_p = commands.add_parser("solve", help="single run, CSV row plus solution file")
    solve_p.add_argument("--instance", required=True)
    _add_solver_flags(solve_p)
    solve_p.add_argument("--output", default=None, help="CSV path (default stdout)")
    solve_p.add_argument("--solution", default=None, help="solution file path")
    solve_p.set_defaults(func=_cmd_batch, runs=1, workers=1)

    batch_p = commands.add_parser("batch", help="independent runs, summarized CSV")
    batch_p.add_argument("--instance", required=True)
    batch_p.add_argument("--runs", type=int, required=True)
    batch_p.add_argument("--workers", type=int, default=1)
    _add_solver_flags(batch_p)
    batch_p.add_argument("--output", default=None)
    batch_p.add_argument("--solution", default=None)
    batch_p.set_defaults(func=_cmd_batch)

    exact_p = commands.add_parser("exact", help="exhaustive optimum (small instances)")
    exact_p.add_argument("--instance", required=True)
    exact_p.set_defaults(func=_cmd_exact)

    lp = commands.add_parser("export-lp", help="write the integer program as LP text")
    lp.add_argument("--instance", required=True)
    lp.add_argument("--output", default=None)
    lp.set_defaults(func=_cmd_export_lp)

    cmp_p = commands.add_parser(
        "compare", help="both perturbation policies over an instance set"
    )
    cmp_p.add_argument("instances", nargs="+", metavar="INSTANCE")
    cmp_p.add_argument("--runs", type=int, required=True)
    cmp_p.add_argument("--workers", type=int, default=1)
    _add_solver_flags(cmp_p)
    cmp_p.add_argument("--output", default=None)
    cmp_p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
    return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
