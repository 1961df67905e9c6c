"""Loader of the compiled move scan in ``_scan.c``.

``kernel`` is the C function ``bmcp_scan`` once the library is loaded, or
None when the numpy scan in :mod:`bmcp.tabu` is in use. The first read of
``kernel`` decides: it builds ``_scan.c`` with the interpreter's C compiler
(``sysconfig``'s ``CC``) into the package's ``__pycache__``, named after a
hash of the source, the compiler command, the flags and the platform, so a
later process loads the cached library without compiling. No compiler, a
failed compile or a library that does not load all give None.
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
    fn = ctypes.CDLL(str(path)).bmcp_scan
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [i64, *[ptr] * 9, i64, i64, i64, i64, ptr, ptr]
    fn.restype = i64
    return fn


def load():
    """The compiled ``bmcp_scan``, built if needed, or None to use numpy."""
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
    except (OSError, ValueError, subprocess.SubprocessError):
        # No compiler, a failed build, a library that does not load, or a
        # CC that does not parse.
        return None


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
    if name == "kernel":
        globals()["kernel"] = kernel = load()
        return kernel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
