"""Loader of the compiled search core in ``_scan.c``.

``lib`` is the loaded library: ``lib.bmcp_scan`` is the only move scan of
:mod:`bmcp.tabu`, and ``lib.bmcp_flip`` applies every flip of
:class:`bmcp.state.SearchState`. The first read of ``lib`` builds
``_scan.c`` with the interpreter's C compiler (``sysconfig``'s ``CC``) into
the package's ``__pycache__``, named after a hash of the source, the
compiler command, the flags and the platform, so a later process loads the
cached library without compiling. No compiler, a failed compile or a library that does not
load raise :class:`bmcp.errors.BuildError`; the next read tries again.
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
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    # m; the instance's 7 arrays; selection, coverage, value, expiry;
    # iteration, headroom, threshold, swaps_only; the tie buffer, its
    # capacity and the best-delta output.
    lib.bmcp_scan.argtypes = [i64, *[ptr] * 11, i64, i64, i64, i64, ptr, i64, ptr]
    # item; indptr, indices, colptr, colitems, profits; selection, coverage, value.
    lib.bmcp_flip.argtypes = [i64, *[ptr] * 8]
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
