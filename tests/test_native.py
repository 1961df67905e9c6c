import ctypes
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from bmcp import BuildError, _native
from conftest import bit_state


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


def _kernel_functions():
    """(return type, name, parameter count) of each non-static function
    defined in ``_scan.c``."""
    found = []
    for ret, name, params in re.findall(
        r"^(?!static\b)(\w+)\s+(\w+)\((.*?)\)\n\{", _native.SOURCE.read_text(), re.M | re.S
    ):
        depth, count = 0, 1
        for char in params:  # commas outside a function pointer's own list
            depth += (char == "(") - (char == ")")
            count += char == "," and depth == 0
        found.append((ret, name, count))
    return found


def test_every_kernel_function_has_its_ctypes_signature():
    # ctypes' default restype is a 32-bit int, which silently truncates an
    # int64 result such as a swap code past 2^31 (m >= 46 341).
    found = _kernel_functions()
    exported = {name for _, name, _ in found}
    assert exported == {"bmcp_pick", "bmcp_move", "bmcp_walk"}
    # The kernel exports only what the package calls, not what tests alone use.
    callers = [p.read_text() for p in _native.SOURCE.parent.glob("*.py") if p.name != "_native.py"]
    for name in exported:
        assert any(f"lib.{name}" in text for text in callers), name
    lib = _native._open(Path(_native.lib._name))  # fresh function objects
    declared = {k for k, v in vars(lib).items() if isinstance(v, ctypes._CFuncPtr)}
    assert declared == exported
    restypes = {"int64_t": ctypes.c_int64, "void": None}
    for ret, name, count in found:
        fn = getattr(lib, name)
        assert fn.restype is restypes[ret], name
        assert fn.argtypes is not None and len(fn.argtypes) == count, name


@pytest.fixture(scope="module")
def kernel_draw(tmp_path_factory):
    """The kernel's static tie-break draw, built into a library of its own."""
    where = tmp_path_factory.mktemp("draw")
    source = where / "draw.c"
    source.write_text(
        f'#include "{_native.SOURCE}"\n'
        "uint32_t draw_of(void *rng, uint32_t (*next_uint32)(void *), uint64_t bound)\n"
        "{\n    return draw(rng, next_uint32, bound);\n}\n"
    )
    library = where / "draw.so"
    subprocess.run(
        [*_native._compiler(), *_native.FLAGS, "-o", str(library), str(source)],
        check=True, capture_output=True,
    )
    fn = ctypes.CDLL(str(library)).draw_of
    fn.argtypes = [ctypes.c_void_p, _native.NEXT_UINT32, ctypes.c_uint64]
    fn.restype = ctypes.c_uint32
    return fn


@pytest.mark.parametrize("name", ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"])
def test_kernel_draw_is_generator_integers(name, kernel_draw):
    # Bounds past 2^31 reject about a third to a half of their words, so the
    # rejection loop runs; 2^32 takes the raw word. A change to numpy's
    # bounded draw fails here.
    bounds = [2, 3, 7, 10, 100, 585, 65_537, 2**31 - 1, 2**31, 2**31 + 5, 3 * 10**9,
              2**32 - 1, 2**32]
    for seed in range(20):
        rng, ref = (np.random.Generator(getattr(np.random, name)(seed)) for _ in range(2))
        words = rng.bit_generator.ctypes
        got = [kernel_draw(words.state_address, words.next_uint32, b) for b in bounds * 3]
        assert got == [int(ref.integers(b)) for b in bounds * 3]
        assert bit_state(rng) == bit_state(ref)


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
    # Picks that draw through the bit generator's next_uint32, a buffer
    # grown by a pick, and checked moves among random marks, iterations and
    # far bests.
    test_tabu.test_compiled_picks_draw_as_generator_integers("MT19937")
    test_tabu.test_overflowing_ties_are_picked_after_the_buffer_grows()
    test_state.test_random_moves_and_picks_match_the_reference()
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
        [sys.executable, "-W", "error", "-c", textwrap.dedent(UNDER_SANITIZER), str(library)],
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
