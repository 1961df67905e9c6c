import ctypes
import os
import subprocess
import sys
import textwrap

import pytest

from bmcp import BuildError, _native


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory for the loader."""
    monkeypatch.setattr(_native, "CACHE_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "cc,reason",
    [
        (["bmcp-no-such-compiler"], "not found"),
        ([sys.executable, "-c", "raise SystemExit(1)"], "exit 1"),
    ],
    ids=["missing", "failing"],
)
def test_no_working_compiler_is_a_build_error(cc, reason, cache, monkeypatch):
    monkeypatch.setattr(_native, "_compiler", lambda: cc)
    with pytest.raises(BuildError) as info:
        _native.load()
    named = " ".join(cc)
    assert str(info.value) == f"cannot build the move scan with '{named}': {reason}"
    assert list(cache.iterdir()) == []


def test_second_load_reuses_the_cached_library(cache, monkeypatch):
    _native.load()
    built = list(cache.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"

    def no_compile(*args):
        raise AssertionError("compiled again")

    monkeypatch.setattr(_native, "_compile", no_compile)
    _native.load()
    assert list(cache.iterdir()) == built


def test_unwritable_cache_builds_privately(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    # A cache path below a regular file can be neither made nor written.
    monkeypatch.setattr(_native, "CACHE_DIR", blocker / "__pycache__")
    _native.load()
    assert list(tmp_path.iterdir()) == [blocker]


def test_kernel_source_compiles_without_warnings(tmp_path):
    strict = [
        "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Wconversion",
        "-Wsign-conversion", "-Wshadow", "-Wpadded", "-Werror", "-c",
    ]
    done = subprocess.run(
        [*_native._compiler(), *strict, "-o", str(tmp_path / "scan.o"), str(_native.SOURCE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_structs_match_the_kernel_layout(tmp_path):
    want = {"bmcp_state": ctypes.sizeof(_native.State)}
    prints = ['printf("bmcp_state %zu\\n", sizeof(bmcp_state));']
    for field, _ in _native.State._fields_:
        want[f"bmcp_state.{field}"] = getattr(_native.State, field).offset
        prints.append(f'printf("bmcp_state.{field} %zu\\n", offsetof(bmcp_state, {field}));')
    source = tmp_path / "layout.c"
    source.write_text(
        f'#include <stddef.h>\n#include <stdio.h>\n#include "{_native.SOURCE}"\n'
        "int main(void)\n{\n" + "\n".join(prints) + "\nreturn 0;\n}\n"
    )
    binary = tmp_path / "layout"
    build = subprocess.run(
        [*_native._compiler(), "-std=c99", "-o", str(binary), str(source)],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    shown = subprocess.run([str(binary)], capture_output=True, text=True, check=True).stdout
    got = {key: int(size) for key, size in (line.split() for line in shown.splitlines())}
    assert got == want


# Runs in a fresh interpreter with the sanitized library as the compiled core.
UNDER_SANITIZER = """
    import sys
    from pathlib import Path

    from bmcp import _native

    _native.lib = _native._open(Path(sys.argv[1]))

    import test_solver
    import test_state
    import test_tabu

    test_tabu.test_scan_matches_scalar_reference(
        lambda: test_tabu._random_cases(test_tabu._instance_near_2_58())
    )
    test_tabu.test_scan_matches_scalar_reference(
        lambda: [(s, t, [best]) for s, t, best, _ in test_tabu._edge_cases().values()]
    )
    test_tabu.test_edge_cases_have_the_named_tie_sets()
    test_tabu.test_ties_beyond_the_buffer_are_all_returned()
    # Python writes the expiry the kernel reads, and a phase reuses a state.
    test_tabu.test_descent_ignores_tabu_marks()
    test_tabu.test_second_phase_on_one_state_starts_with_nothing_tabu()
    test_state.test_random_walk_matches_rebuild()
    # A refill rewrites the arrays the struct points at, under a grown buffer.
    test_state.test_refill_after_a_phase_equals_a_fresh_state()
    # A state built whole, refills by its differing items, and a phase that
    # flips back to its best.
    test_state.test_constructor_builds_the_empty_state()
    test_state.test_refill_flips_only_the_differing_items()
    test_state.test_refill_between_feasible_selections_matches_rebuild()
    test_tabu.test_tabu_search_ends_at_its_best()
    test_solver.test_rounds_mode_replays_pinned_moves(*test_solver.REPLAY_PINS[0])
    # One state refilled every round: a write past its arrays or its tie
    # buffer, or a struct left on a dead copy's arrays, shows.
    test_solver.test_rounds_mode_replays_pinned_moves(*test_solver.REPLAY_PINS[1])
"""


def _run_sanitized(tmp_path, sanitizer, env=()):
    """Build ``_scan.c`` with ``-fsanitize=<sanitizer>`` and run the harness."""
    library = tmp_path / f"scan_{sanitizer}.so"
    flags = ["-O1", "-g", "-shared", "-fPIC", "-std=c99", f"-fsanitize={sanitizer}"]
    build = subprocess.run(
        [*_native._compiler(), *flags, "-o", str(library), str(_native.SOURCE)],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        pytest.skip(f"no {sanitizer} build: {build.stderr.strip()[:200]}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p), **dict(env))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(UNDER_SANITIZER), str(library)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_kernel_runs_clean_under_ubsan(tmp_path):
    done = _run_sanitized(tmp_path, "undefined")
    assert done.returncode == 0, done.stderr
    assert "runtime error" not in done.stderr, done.stderr


def test_kernel_runs_clean_under_asan(tmp_path):
    # The interpreter is not built with ASan, so the runtime is preloaded.
    runtime = subprocess.run(
        [*_native._compiler(), "-print-file-name=libasan.so"],
        capture_output=True, text=True,
    ).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("no libasan")
    done = _run_sanitized(
        tmp_path, "address", {"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
    )
    assert done.returncode == 0, done.stderr
    assert "AddressSanitizer" not in done.stderr, done.stderr
