import ctypes
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import bmcp
from bmcp import BuildError, SearchState, _native
from conftest import TINY_TEXT, bit_state


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


def test_library_name_follows_every_source_and_the_suffix(tmp_path, monkeypatch):
    # Two interpreters sharing a checkout, or an edit to the kernel alone,
    # must never load each other's module.
    copies = []
    for source in _native.SOURCES:
        copy = tmp_path / source.name
        copy.write_bytes(source.read_bytes())
        copies.append(copy)
    monkeypatch.setattr(_native, "SOURCES", tuple(copies))
    cc, include = _native._compiler(), _native._include()
    seen = {_native._library_name(cc, include)}
    for copy in copies:
        copy.write_text(copy.read_text() + "\n")
        seen.add(_native._library_name(cc, include))
    seen.add(_native._library_name(cc, str(tmp_path)))
    config = _native.sysconfig.get_config_var
    monkeypatch.setattr(
        _native.sysconfig, "get_config_var",
        lambda name: ".other-abi.so" if name == "EXT_SUFFIX" else config(name),
    )
    other = _native._library_name(cc, include)
    seen.add(other)
    assert len(seen) == len(copies) + 3
    assert other.endswith(".other-abi.so")


def test_every_compiled_source_ships():
    # A plain text check: tomllib is not in Python 3.10.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    shipped = re.search(r"^bmcp = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert set(re.findall(r'"([^"]+)"', shipped)) >= {p.name for p in _native.SOURCES}
    # The sources include nothing of the package besides each other.
    for source in _native.SOURCES:
        for included in re.findall(r'^#include "([^"]+)"', source.read_text(), re.M):
            assert included in {p.name for p in _native.SOURCES}, (source.name, included)


def test_missing_headers_are_a_build_error(cache, monkeypatch, tmp_path):
    include = tmp_path / "include"
    include.mkdir()
    monkeypatch.setattr(_native, "_include", lambda: str(include))
    with pytest.raises(BuildError, match="Python.h") as info:
        _native.load()
    assert "\n" not in str(info.value)
    assert [p for p in cache.iterdir() if p.is_file()] == []


STRICT = (
    "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Wconversion",
    "-Wsign-conversion", "-Wshadow", "-Wpadded", "-Werror", "-c",
)


def test_kernel_source_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        [*_native._compiler(), *STRICT, "-o", str(tmp_path / "scan.o"), str(_native.SOURCE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_module_source_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        [*_native._compiler(), *STRICT, "-isystem", _native._include(),
         "-o", str(tmp_path / "core.o"), str(_native.MODULE_SOURCE)],
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


def test_the_module_exports_exactly_the_kernel_functions():
    exported = {name for name in vars(_native.lib) if not name.startswith("__")}
    assert exported == {"bmcp_pick", "bmcp_move", "bmcp_walk"}
    # They are the kernel's non-static functions, of the same names.
    kernel = set(re.findall(r"^(?!static\b)\w+\s+(\w+)\(", _native.SOURCE.read_text(), re.M))
    assert kernel == exported
    # The module exports only what the package calls, not what tests alone use.
    callers = [p.read_text() for p in _native.SOURCE.parent.glob("*.py") if p.name != "_native.py"]
    for name in exported:
        assert any(f"lib.{name}" in text for text in callers), name


def test_a_buffer_of_another_size_is_refused():
    # A struct laid out unlike bmcp_state fails the call, not the memory.
    inst = bmcp.parse_instance(TINY_TEXT)
    state = SearchState(inst)
    lib = _native.lib
    rng = np.random.default_rng(0)
    for wrong in (bytearray(ctypes.sizeof(_native.State) - 8), bytearray(8)):
        with pytest.raises(TypeError, match="bmcp_state"):
            lib.bmcp_move(wrong, 0)
        with pytest.raises(TypeError, match="bmcp_state"):
            lib.bmcp_pick(wrong, 1, 0, False, rng.bit_generator)
        with pytest.raises(TypeError, match="bmcp_state"):
            lib.bmcp_walk(wrong, state.selection)
    # A read-only buffer of the right size is refused too.
    with pytest.raises(BufferError):
        lib.bmcp_move(bytes(ctypes.sizeof(_native.State)), 0)
    with pytest.raises(ValueError, match="walk target of 2 bytes for 3 items"):
        lib.bmcp_walk(state.core, np.zeros(2, dtype=bool))
    with pytest.raises(TypeError, match="takes 2 to 3 arguments"):
        lib.bmcp_move(state.core)
    with pytest.raises(TypeError, match="takes 5 arguments"):
        lib.bmcp_pick(state.core, 1, 0, False)
    assert not state.selection.any() and state.objective == 0


def build_draw(where, source):
    """The static tie-break draw of the kernel at ``source``, built into a
    library of its own in ``where``."""
    harness = where / "draw.c"
    harness.write_text(
        f'#include "{source}"\n'
        "uint32_t draw_of(void *rng, uint32_t (*next_uint32)(void *), uint64_t bound)\n"
        "{\n    return draw(rng, next_uint32, bound);\n}\n"
    )
    library = where / "draw.so"
    subprocess.run(
        [*_native._compiler(), *_native.FLAGS, "-o", str(library), str(harness)],
        check=True, capture_output=True,
    )
    fn = ctypes.CDLL(str(library)).draw_of
    # The type of a numpy bit generator's ``ctypes.next_uint32``.
    next_uint32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
    fn.argtypes = [ctypes.c_void_p, next_uint32, ctypes.c_uint64]
    fn.restype = ctypes.c_uint32
    return fn


@pytest.fixture(scope="module")
def kernel_draw(tmp_path_factory):
    """The kernel's static tie-break draw, built into a library of its own."""
    return build_draw(tmp_path_factory.mktemp("draw"), _native.SOURCE)


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


# Runs in a fresh interpreter with the sanitized module as the compiled core.
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
    """Build ``_core.c`` with ``-fsanitize=<sanitizer>`` and run the harness."""
    library = tmp_path / f"scan_{sanitizer}.so"
    flags = ["-O1", "-g", "-shared", "-fPIC", "-std=c99", f"-fsanitize={sanitizer}"]
    build = subprocess.run(
        [*_native._compiler(), *flags, "-isystem", _native._include(),
         "-o", str(library), str(_native.MODULE_SOURCE)],
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
