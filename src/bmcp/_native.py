"""Loader of the compiled search core in ``_scan.c``, and its struct.

``lib`` is the loaded library. A tabu move is two of its calls:
``lib.bmcp_pick`` scans the flip and swap neighbourhoods and draws the
tie-break from the run's bit generator, through the generator's ctypes
``state_address`` and ``next_uint32``, exactly as ``Generator.integers``
would; ``lib.bmcp_move`` checks and applies the picked flip or swap.
``lib.bmcp_walk`` flips a state to another selection; the three are the
library's whole surface, so the scan is reached only through the pick.
Every flip keeps the state's weight and objective in the struct. All take
a :class:`State` (``bmcp_state``, one per search state, with its tabu
expiry, weight, objective and clamped capacity, a scratch ``corr`` the
scan leaves all zero, and the scan's tie buffer): the one place in Python
that lays out the core's memory, whose ``arrays`` own what it points at.

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
# The type of a numpy bit generator's ``ctypes.next_uint32``.
NEXT_UINT32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)


class State(ctypes.Structure):
    """``bmcp_state``: the instance's arrays, one search state's, its tabu
    expiry, the scan's scratch and tie buffer, and the state's scalars.
    Filled from keyword fields, an int as it is and an array as its
    address; ``arrays`` keeps each array alive for the struct's life."""

    _fields_ = [("m", ctypes.c_int64), *((name, ctypes.c_void_p) for name in (
        "indptr", "indices", "colptr", "colitems", "profits", "weights", "order",
        "selection", "coverage", "value", "corr", "expiry", "ties",
    )), *((name, ctypes.c_int64) for name in (
        "capacity", "best", "budget", "weight", "objective", "count",
    ))]

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
    i64, state = ctypes.c_int64, ctypes.POINTER(State)
    # Then iteration, best_so_far, swaps_only, and the bit generator's
    # state address and next_uint32.
    lib.bmcp_pick.argtypes = [state, i64, i64, i64, ctypes.c_void_p, NEXT_UINT32]
    lib.bmcp_move.argtypes = [state, i64, i64]
    lib.bmcp_walk.argtypes = [state, ctypes.c_void_p]
    lib.bmcp_pick.restype = lib.bmcp_move.restype = i64
    lib.bmcp_walk.restype = None
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
