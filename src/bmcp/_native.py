"""Loader of the compiled search core, and its struct.

``lib`` is the extension module that ``_core.c`` makes of the C99 kernel in
``_scan.c``. A tabu move is two of its calls: ``lib.bmcp_pick`` scans the
flip and swap neighbourhoods and draws the tie-break from the run's bit
generator, which it takes whole: it holds the generator's ``lock`` and
draws through numpy's ``bitgen_t`` from the generator's ``capsule``,
exactly as ``Generator.integers`` would; ``lib.bmcp_move`` checks and
applies the picked flip or swap. ``lib.bmcp_walk`` flips a state to
another selection; the three are the module's whole surface, so the scan
is reached only through the pick. Every flip keeps the state's weight and
objective in the struct. All take a :class:`State` (``bmcp_state``, one
per search state, with its tabu expiry, weight, objective and clamped
capacity, a scratch ``corr`` the scan leaves all zero, and the scan's tie
buffer): the one place in Python that lays out the core's memory, whose
``arrays`` own what it points at.

The first read of ``lib`` builds ``_core.c`` with the interpreter's C
compiler (``sysconfig``'s ``CC``) against the interpreter's C headers into
the package's ``__pycache__``, named after a hash of the sources, the
compiler command, the flags, the header directory, the platform and the
extension suffix, so a later process of the same interpreter imports the
cached module without compiling. No compiler, a failed compile (no
``Python.h`` among them) or a module that does not import raise
:class:`bmcp.errors.BuildError`; the next read tries again.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

from .errors import BuildError

SOURCE = Path(__file__).with_name("_scan.c")
MODULE_SOURCE = SOURCE.with_name("_core.c")
# Every file the build reads: the module's source and the kernel it includes.
SOURCES = (MODULE_SOURCE, SOURCE)
MODULE_NAME = "bmcp._core"
CACHE_DIR = SOURCE.parent / "__pycache__"
FLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")
COMPILE_TIMEOUT_S = 120


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


def _include() -> str:
    """The directory of the interpreter's ``Python.h``."""
    return sysconfig.get_path("include")


def _library_name(cc: list[str], include: str) -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    digest = hashlib.sha256()
    for part in (*(hashlib.sha256(p.read_bytes()).hexdigest() for p in SOURCES), "\0",
                 *cc, "\0", *FLAGS, "\0", include, sysconfig.get_platform(), suffix):
        digest.update(part.encode() + b"\0")
    return f"_scan.{digest.hexdigest()[:16]}{suffix}"


def _compile(cc: list[str], include: str, target: Path) -> None:
    """Build into a private file beside ``target``, then rename it into place."""
    fd, tmp = tempfile.mkstemp(prefix="_scan.", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*cc, *FLAGS, "-isystem", include, "-o", tmp, str(MODULE_SOURCE)],
            check=True, capture_output=True, timeout=COMPILE_TIMEOUT_S,
        )
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _open(path: Path):
    """The extension module built at ``path``, imported."""
    loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(MODULE_NAME, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def load():
    """The compiled module, built if needed; :class:`BuildError` if not."""
    cc = [sysconfig.get_config_var("CC") or "cc"]
    try:
        cc, include = _compiler(), _include()
        name = _library_name(cc, include)
        cached = CACHE_DIR / name
        if not cached.exists():
            with contextlib.suppress(OSError):
                CACHE_DIR.mkdir(exist_ok=True)
            if not os.access(CACHE_DIR, os.W_OK):
                return _load_private(cc, include, name)
            _compile(cc, include, cached)
        return _open(cached)
    except (OSError, ImportError, ValueError, subprocess.SubprocessError) as exc:
        reason = str(exc)  # a module that does not import, or a CC that does not parse
        if isinstance(exc, FileNotFoundError) and exc.filename == cc[0]:
            reason = "not found"
        elif isinstance(exc, subprocess.CalledProcessError):
            first = exc.stderr.decode(errors="replace").strip().partition("\n")[0].rstrip()
            reason = f"exit {exc.returncode}" + (f": {first}" if first else "")
        elif isinstance(exc, subprocess.TimeoutExpired):
            reason = f"timed out after {COMPILE_TIMEOUT_S} s"
        shown = " ".join(cc)
        raise BuildError(f"cannot build the move scan with '{shown}': {reason}") from exc


def _load_private(cc: list[str], include: str, name: str):
    """Build in a fresh private directory, import, and remove the directory."""
    private = Path(tempfile.mkdtemp(prefix="bmcp-scan-"))
    try:
        _compile(cc, include, private / name)
        # An imported module stays mapped after its file is gone.
        return _open(private / name)
    finally:
        shutil.rmtree(private, ignore_errors=True)


def __getattr__(name: str):
    if name == "lib":
        globals()["lib"] = lib = load()
        return lib
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
