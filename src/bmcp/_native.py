"""Loader of the compiled search core in ``_scan.c``, and its struct.

``lib`` is the loaded library: ``lib.bmcp_scan`` is the only move scan of
:mod:`bmcp.tabu`, and ``lib.bmcp_flip`` applies every flip of
:class:`bmcp.state.SearchState`. Both take a :class:`State` (``bmcp_state``,
one per search state, with the state's tabu expiry, a scratch ``corr`` that
the scan leaves all zero, and the scan's tie buffer). This mirror is the one
place in Python that lays out the core's memory.

The first read of ``lib`` builds ``_scan.c`` with the interpreter's C
compiler (``sysconfig``'s ``CC``) into the package's ``__pycache__``, named
after a hash of the source, the compiler command, the flags and the
platform, so a later process loads the cached library without compiling.
No compiler, a failed compile or a library that does not load raise
:class:`bmcp.errors.BuildError`; the next read tries again.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

from .errors import BuildError

SOURCE = Path(__file__).with_name("_scan.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
FLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")
COMPILE_TIMEOUT_S = 120


class State(ctypes.Structure):
    """``bmcp_state``: the instance's arrays, one search state's, its tabu
    expiry, and the scan's scratch and tie buffer. Filled from keyword
    fields, an int as it is and an array as its address; ``arrays`` keeps
    each array alive for the struct's life."""

    _fields_ = [("m", ctypes.c_int64), *((name, ctypes.c_void_p) for name in (
        "indptr", "indices", "colptr", "colitems", "profits", "weights", "order",
        "selection", "coverage", "value", "corr", "expiry", "ties",
    )), ("capacity", ctypes.c_int64), ("best", ctypes.c_int64)]

    def __init__(self, **fields):
        self.arrays = {k: v for k, v in fields.items() if not isinstance(v, int)}
        super().__init__(**{k: v.ctypes.data if k in self.arrays else v
                            for k, v in fields.items()})


def _compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _library_name(cc: list[str]) -> str:
    digest = hashlib.sha256(SOURCE.read_bytes())
    for part in (*cc, "\0", *FLAGS, "\0", sysconfig.get_platform()):
        digest.update(part.encode() + b"\0")
    return f"_scan.{digest.hexdigest()[:16]}.so"


def _compile(cc: list[str], target: Path) -> None:
    """Build into a private file beside ``target``, then rename it into place."""
    fd, tmp = tempfile.mkstemp(prefix="_scan.", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*cc, *FLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=COMPILE_TIMEOUT_S,
        )
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _open(path: Path):
    lib = ctypes.CDLL(str(path))
    i64 = ctypes.c_int64
    # Then iteration, headroom, threshold and swaps_only.
    lib.bmcp_scan.argtypes = [ctypes.POINTER(State), i64, i64, i64, i64]
    lib.bmcp_flip.argtypes = [ctypes.POINTER(State), i64]
    for fn in (lib.bmcp_scan, lib.bmcp_flip):
        fn.restype = i64
    return lib


def load():
    """The compiled library, built if needed; :class:`BuildError` if not."""
    cc = [sysconfig.get_config_var("CC") or "cc"]
    try:
        cc = _compiler()
        name = _library_name(cc)
        cached = CACHE_DIR / name
        if not cached.exists():
            with contextlib.suppress(OSError):
                CACHE_DIR.mkdir(exist_ok=True)
            if not os.access(CACHE_DIR, os.W_OK):
                return _load_private(cc, name)
            _compile(cc, cached)
        return _open(cached)
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        reason = str(exc)  # a library that does not load, or a CC that does not parse
        if isinstance(exc, FileNotFoundError) and exc.filename == cc[0]:
            reason = "not found"
        elif isinstance(exc, subprocess.CalledProcessError):
            first = exc.stderr.decode(errors="replace").strip().partition("\n")[0].rstrip()
            reason = f"exit {exc.returncode}" + (f": {first}" if first else "")
        elif isinstance(exc, subprocess.TimeoutExpired):
            reason = f"timed out after {COMPILE_TIMEOUT_S} s"
        shown = " ".join(cc)
        raise BuildError(f"cannot build the move scan with '{shown}': {reason}") from exc


def _load_private(cc: list[str], name: str):
    """Build in a fresh private directory, load, and remove the directory."""
    private = Path(tempfile.mkdtemp(prefix="bmcp-scan-"))
    try:
        _compile(cc, private / name)
        # A loaded library stays mapped after its file is gone.
        return _open(private / name)
    finally:
        shutil.rmtree(private, ignore_errors=True)


def __getattr__(name: str):
    if name == "lib":
        globals()["lib"] = lib = load()
        return lib
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
