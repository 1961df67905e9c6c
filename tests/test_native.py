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
        "-Wsign-conversion", "-Wshadow", "-Werror", "-c",
    ]
    done = subprocess.run(
        [*_native._compiler(), *strict, "-o", str(tmp_path / "scan.o"), str(_native.SOURCE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


# Runs in a fresh interpreter with the sanitized library as the kernel.
UNDER_UBSAN = """
    import sys
    from pathlib import Path

    from bmcp import _native

    _native.kernel = _native._open(Path(sys.argv[1]))

    import test_solver
    import test_tabu

    test_tabu.test_scan_matches_scalar_reference(
        lambda: test_tabu._random_cases(test_tabu._instance_near_2_58())
    )
    test_tabu.test_scan_matches_scalar_reference(
        lambda: [(s, t, [best]) for s, t, best, _ in test_tabu._edge_cases().values()]
    )
    test_solver.test_rounds_mode_replays_pinned_moves(*test_solver.REPLAY_PINS[0])
"""


def test_kernel_runs_clean_under_ubsan(tmp_path):
    library = tmp_path / "scan_ubsan.so"
    flags = ["-O1", "-g", "-shared", "-fPIC", "-std=c99", "-fsanitize=undefined"]
    build = subprocess.run(
        [*_native._compiler(), *flags, "-o", str(library), str(_native.SOURCE)],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        pytest.skip(f"no UBSan build: {build.stderr.strip()[:200]}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(UNDER_UBSAN), str(library)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "runtime error" not in done.stderr, done.stderr
