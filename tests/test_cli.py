import numpy as np
import pytest

import bmcp
from bmcp.cli import main, read_solution
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
    solution = read_solution(tmp_path / "tiny1.sol", bmcp.load_instance(tiny_file))
    assert bmcp.full_objective(bmcp.load_instance(tiny_file), solution) == 12


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


def test_solution_file_validation(tiny_file, tmp_path):
    inst = bmcp.load_instance(tiny_file)
    overweight = tmp_path / "bad.sol"
    overweight.write_text("tiny1 2 3\n")
    with pytest.raises(bmcp.InfeasibleError):
        read_solution(overweight, inst)
    empty = tmp_path / "empty.sol"
    empty.write_text("")
    with pytest.raises(bmcp.FormatError):
        read_solution(empty, inst)
    for line in ("tiny1 x", "tiny1 1.5", "tiny1 0", "tiny1 4"):
        bad = tmp_path / "bad_token.sol"
        bad.write_text(line + "\n")
        with pytest.raises(bmcp.FormatError) as err:
            read_solution(bad, inst)
        assert err.value.line == 1
