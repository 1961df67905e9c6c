import csv
import io
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import bmcp
from bmcp import _native
from bmcp.cli import format_row, main
from conftest import TINY_TEXT


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny1.bmcp"
    path.write_text(TINY_TEXT)
    return path


def test_generate_writes_canonical_file(tmp_path, capsys):
    code = main(
        [
            "generate", "--m", "20", "--n", "25", "--density", "0.1",
            "--capacity", "300", "--seed", "4", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    path = tmp_path / "bmcp_20_25_0.1_300.bmcp"
    assert str(path) in capsys.readouterr().out
    assert path.exists()
    inst = bmcp.load_instance(path)
    assert (inst.m, inst.n, inst.capacity) == (20, 25, 300)
    spec = bmcp.GeneratorSpec(m=20, n=25, density=0.1, capacity=300, seed=4)
    assert inst == bmcp.generate_instance(spec)


def test_solve_emits_csv_and_solution(tiny_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["solve", "--instance", str(tiny_file), "--rounds", "1", "--seed", "7"]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "instance,policy,runs,f_best,f_avg,std,t_avg"
    fields = out[1].split(",")
    assert fields[:6] == ["tiny1", "probability", "1", "12", "12.00", "0.00"]
    float(fields[6])
    name, *items = (tmp_path / "tiny1.sol").read_text().split()
    assert name == "tiny1"
    solution = bmcp.selection_from_items(3, [int(i) - 1 for i in items])
    assert bmcp.full_objective(bmcp.load_instance(tiny_file), solution) == 12


def test_solve_takes_a_tenure_beyond_int64(tiny_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["solve", "--instance", str(tiny_file), "--rounds", "1", "--tenure", str(10**19)]
    )
    assert code == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1].startswith("tiny1,probability,1,12,")
    assert err == ""


def test_solve_writes_output_files(tiny_file, tmp_path):
    csv_path = tmp_path / "result.csv"
    sol_path = tmp_path / "result.sol"
    code = main(
        [
            "solve", "--instance", str(tiny_file), "--rounds", "1",
            "--seed", "3", "--output", str(csv_path), "--solution", str(sol_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("instance,")
    assert sol_path.read_text().startswith("tiny1 ")


def test_batch_row_shape(tiny_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "batch", "--instance", str(tiny_file), "--runs", "3",
            "--rounds", "1", "--seed", "0",
        ]
    )
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[2] == "3"
    assert row[3] == "12" and row[4] == "12.00" and row[5] == "0.00"


def test_exact_output(tiny_file, capsys):
    assert main(["exact", "--instance", str(tiny_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "objective 12"
    assert out[1] == "items 1 2"


def test_export_lp_stdout(tiny_file, capsys):
    assert main(["export-lp", "--instance", str(tiny_file)]) == 0
    out = capsys.readouterr().out
    assert out == bmcp.export_lp(bmcp.load_instance(tiny_file))


def test_export_lp_to_file(tiny_file, tmp_path):
    out_path = tmp_path / "tiny.lp"
    assert main(
        ["export-lp", "--instance", str(tiny_file), "--output", str(out_path)]
    ) == 0
    assert out_path.read_text().startswith("Maximize")


def test_compare_emits_paired_rows(tiny_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    other = tmp_path / "other.bmcp"
    bmcp.save_instance(
        bmcp.generate_instance(
            bmcp.GeneratorSpec(m=15, n=15, density=0.2, capacity=200, seed=9)
        ),
        other,
    )
    code = main(
        [
            "compare", str(tiny_file), str(other),
            "--runs", "2", "--rounds", "1", "--seed", "1",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "instance,policy,runs,f_best,f_avg,std,t_avg,p_value"
    assert len(lines) == 5
    policies = [line.split(",")[1] for line in lines[1:]]
    assert policies == ["probability", "random", "probability", "random"]
    p_values = {line.split(",")[7] for line in lines[1:]}
    assert len(p_values) == 1
    assert 0.0 <= float(p_values.pop()) <= 1.0
    assert "signed-rank p" in captured.err


def test_compare_keeps_tied_differences_tied(tiny_file, capsys, monkeypatch):
    # Per-instance (probability, random) totals over 10 runs: five
    # differences of 21 in size tie exactly, and the exact p-value is 1.
    # Averaged in floats, the differences split in the last bit and rank
    # apart, which read 0.7188.
    totals = iter([
        58273, 58252, 40126, 40105, 50016, 49995,
        56403, 56424, 42607, 42628, 55935, 55941,
    ])

    def batch(inst, cfg, runs, workers):
        q, r = divmod(next(totals), runs)
        return [
            bmcp.RunResult(np.zeros(inst.m, dtype=bool), q + (i < r), 0, 0.0, 1, cfg.seed)
            for i in range(runs)
        ]

    monkeypatch.setattr(bmcp.cli, "batch", batch)
    assert main(["compare", *[str(tiny_file)] * 6, "--runs", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert all(line.endswith(",1") for line in lines[1:])


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(["solve", "--instance", str(tmp_path / "nope.bmcp")])
    assert code == 1
    assert "i/o error" in capsys.readouterr().err


def test_malformed_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.bmcp"
    bad.write_text("BMCP 9\n")
    code = main(["exact", "--instance", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "parse error" in err and "line 1" in err


def test_bad_config_is_config_error(tiny_file, capsys):
    code = main(
        [
            "solve", "--instance", str(tiny_file), "--rounds", "1",
            "--reward-factor", "1.5",
        ]
    )
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_generate_rejects_bad_density(tmp_path, capsys):
    code = main(
        [
            "generate", "--m", "5", "--n", "5", "--density", "1.5",
            "--capacity", "10", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "profits",
    ["4000000000000000000 4000000000000000000 4000000000000000000",
     "9300000000000000000 1 1"],
    ids=["wrapping_total", "beyond_int64"],
)
def test_oversized_profits_are_one_line_parse_error(tmp_path, capsys, profits):
    path = tmp_path / "big.bmcp"
    path.write_text(f"BMCP 1\n3 3 100\n1 1 1\n{profits}\n1 1\n1 2\n1 3\n")
    code = main(
        ["solve", "--instance", str(path), "--rounds", "2",
         "--solution", str(tmp_path / "big.sol")]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("parse error: line 4: profit total")


def test_solve_is_exact_just_below_the_total_bound(tmp_path, capsys):
    # Five elements whose profits sum to the largest accepted total; any
    # float step on the way to f_best would round these values.
    limit = bmcp.instance.MAX_TOTAL - 1
    profits = [limit // 5 - k for k in range(4)]
    profits.append(limit - sum(profits))
    path = tmp_path / "edge.bmcp"
    path.write_text(
        "BMCP 1\n4 5 5\n2 3 2 3\n" + " ".join(map(str, profits)) + "\n"
        "2 1 2\n2 2 3\n2 4 5\n3 1 3 5\n"
    )
    inst = bmcp.load_instance(path)
    optimum, _ = bmcp.exact_optimum(inst)
    result = bmcp.solve(inst, bmcp.SolverConfig(max_rounds=3, depth=20, seed=1))
    assert result.best_objective == optimum
    assert main(
        ["solve", "--instance", str(path), "--rounds", "3", "--depth", "20",
         "--solution", str(tmp_path / "edge.sol")]
    ) == 0
    assert main(["exact", "--instance", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert int(out[1].split(",")[3]) == optimum
    assert out[2] == f"objective {optimum}"


def test_unknown_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def _cli_argv(command, path, tmp_path):
    if command == "solve":
        return ["solve", "--instance", str(path), "--rounds", "1",
                "--solution", str(tmp_path / "out.sol")]
    if command == "compare":
        return ["compare", str(path), "--runs", "1", "--rounds", "1"]
    if command == "generate":
        return ["generate", "--m", "5", "--n", "4", "--density", "0.5",
                "--capacity", "9", "--out-dir", str(tmp_path)]
    return [command, "--instance", str(path)]


@pytest.mark.parametrize(
    "old,new,line",
    [(b"2 2 3\n", b"2 2 3 \xff\n", 6), (b"4 5 6\n", "4 5 \uff16\n".encode(), 3)],
    ids=["byte_0xff", "full_width_digit"],
)
@pytest.mark.parametrize("command", ["solve", "exact", "compare"])
def test_non_ascii_file_is_one_line_parse_error(tmp_path, capsys, command, old, new, line):
    path = tmp_path / "odd.bmcp"
    path.write_bytes(TINY_TEXT.encode().replace(old, new))
    assert main(_cli_argv(command, path, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"parse error: line {line}: non-ASCII byte 0x")


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_instance_name_with_comma_reads_back(tmp_path, capsys, command):
    path = tmp_path / "a,b.bmcp"
    path.write_text(TINY_TEXT)
    assert main(_cli_argv(command, path, tmp_path)) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows and all(row["instance"] == "a,b" for row in rows)
    assert all(row["policy"] in ("probability", "random") for row in rows)


def test_format_row_quotes_only_names_that_need_it():
    summary = bmcp.BatchSummary(f_best=12, f_avg=12.0, std=0.0, t_avg=0.0, runs=1)
    assert format_row("tiny1", "random", 1, summary).startswith("tiny1,random,")
    row = format_row('say "hi"\n', "random", 1, summary)
    assert row.startswith('"say ""hi""\n",random,')
    (parsed,) = csv.reader(io.StringIO(row))
    assert parsed[0] == 'say "hi"\n'


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """No library loaded yet, an empty cache and a compiler that is missing."""
    monkeypatch.delattr(_native, "lib", raising=False)
    monkeypatch.setattr(_native, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_native, "_compiler", lambda: ["bmcp-no-such-compiler"])


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_solving_without_compiler_is_one_line_build_error(
    tiny_file, tmp_path, capsys, no_compiler, command
):
    assert main(_cli_argv(command, tiny_file, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "build error: cannot build the move scan with "
        "'bmcp-no-such-compiler': not found\n"
    )


def test_solving_without_headers_is_one_line_build_error(
    tiny_file, tmp_path, capsys, monkeypatch
):
    include = tmp_path / "include"
    include.mkdir()
    monkeypatch.delattr(_native, "lib", raising=False)
    monkeypatch.setattr(_native, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_native, "_include", lambda: str(include))
    assert main(_cli_argv("solve", tiny_file, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("build error: cannot build the move scan with ")
    assert "Python.h" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["generate", "exact", "export-lp"])
def test_other_commands_need_no_compiler(tiny_file, tmp_path, no_compiler, command):
    assert main(_cli_argv(command, tiny_file, tmp_path)) == 0


WITHOUT_SCIPY = """
    import sys

    sys.modules["scipy"] = None  # every scipy import now raises ImportError
    import bmcp
    from bmcp.cli import main

    path, out = sys.argv[1:]
    inst = bmcp.load_instance(path)
    result = bmcp.solve(inst, bmcp.SolverConfig(max_rounds=2, seed=0))
    assert result.best_objective == bmcp.full_objective(inst, result.best_selection)
    for argv in [
        ["generate", "--m", "5", "--n", "4", "--density", "0.5", "--capacity", "9",
         "--out-dir", out],
        ["solve", "--instance", path, "--rounds", "1", "--solution", out + "/out.sol"],
        ["exact", "--instance", path],
        ["export-lp", "--instance", path],
        ["compare", path, path, "--runs", "2", "--rounds", "1"],
    ]:
        assert main(argv) == 0, argv
"""


def test_package_runs_without_scipy(tiny_file, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(WITHOUT_SCIPY),
         str(tiny_file), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
