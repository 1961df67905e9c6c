import shutil
import subprocess
import sys

import pytest

from bmcp import _native


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory for the loader."""
    monkeypatch.setattr(_native, "CACHE_DIR", tmp_path)
    return tmp_path


def _require_compiler():
    if shutil.which(_native._compiler()[0]) is None:
        pytest.skip("no C compiler")


@pytest.mark.parametrize(
    "cc",
    [["bmcp-no-such-compiler"], [sys.executable, "-c", "raise SystemExit(1)"]],
    ids=["missing", "failing"],
)
def test_no_working_compiler_selects_numpy(cc, cache, monkeypatch):
    monkeypatch.setattr(_native, "_compiler", lambda: cc)
    assert _native.load() is None
    assert list(cache.iterdir()) == []


def test_second_load_reuses_the_cached_library(cache, monkeypatch):
    _require_compiler()
    assert _native.load() is not None
    built = list(cache.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"

    def no_compile(*args):
        raise AssertionError("compiled again")

    monkeypatch.setattr(_native, "_compile", no_compile)
    assert _native.load() is not None
    assert list(cache.iterdir()) == built


def test_unwritable_cache_builds_privately(tmp_path, monkeypatch):
    _require_compiler()
    blocker = tmp_path / "file"
    blocker.write_text("")
    # A cache path below a regular file can be neither made nor written.
    monkeypatch.setattr(_native, "CACHE_DIR", blocker / "__pycache__")
    assert _native.load() is not None
    assert list(tmp_path.iterdir()) == [blocker]


def test_kernel_source_compiles_without_warnings(tmp_path):
    _require_compiler()
    strict = ["-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", "-c"]
    done = subprocess.run(
        [*_native._compiler(), *strict, "-o", str(tmp_path / "scan.o"), str(_native.SOURCE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
