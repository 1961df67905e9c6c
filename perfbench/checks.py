"""Output checks, the LP-relaxation bound and the environment record.

Nothing here is timed: the benchmark calls these before or after its
measured passes.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.optimize import linprog

# An objective may not exceed the LP bound; the slack absorbs HiGHS'
# floating-point tolerance on bounds near 10^5.
LP_SLACK = 1e-6


def lp_bound(inst) -> float:
    """Optimum of the LP relaxation of the coverage program.

    Variables y (items) then x (elements), all in [0, 1]; maximize p.x
    subject to w.y <= C and x_j - sum of the y_i covering j <= 0.
    """
    m, n = inst.m, inst.n
    a = inst.incidence.tocoo()
    rows = np.concatenate([np.zeros(m, dtype=np.int64), 1 + a.col, 1 + np.arange(n)])
    cols = np.concatenate([np.arange(m), a.row, m + np.arange(n)])
    vals = np.concatenate(
        [inst.weights.astype(np.float64), -np.ones(a.nnz), np.ones(n)]
    )
    a_ub = sp.csr_array((vals, (rows, cols)), shape=(n + 1, m + n))
    b_ub = np.zeros(n + 1)
    b_ub[0] = inst.capacity
    c = np.concatenate([np.zeros(m), -inst.profits.astype(np.float64)])
    # Interior point with crossover gives the same vertex as simplex here,
    # about 3x faster on the dense585 instances.
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"LP relaxation of {inst.name} failed: {res.message}")
    return float(-res.fun)


def verify_run(bmcp, inst, result, bound: float) -> list[str]:
    """Re-check one solver result from scratch; returns the problems found."""
    try:
        objective = bmcp.full_objective(inst, result.best_selection)
        weight = bmcp.total_weight(inst, result.best_selection)
    except ValueError as exc:
        return [f"{inst.name}: unusable selection: {exc}"]
    problems = []
    if objective != result.best_objective:
        problems.append(
            f"{inst.name}: reported objective {result.best_objective}, recomputed {objective}"
        )
    if weight != result.best_weight:
        problems.append(
            f"{inst.name}: reported weight {result.best_weight}, recomputed {weight}"
        )
    if weight > inst.capacity:
        problems.append(f"{inst.name}: weight {weight} exceeds capacity {inst.capacity}")
    if objective > bound + LP_SLACK:
        problems.append(f"{inst.name}: objective {objective} exceeds LP bound {bound:.3f}")
    return problems


def read_compare_csv(path) -> list[dict]:
    """Rows of a ``bmcp compare`` CSV as dicts keyed by the header."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _openblas(action: str):
    """``openblas_<action>_num_threads`` of the OpenBLAS bundled with numpy, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            f"scipy_openblas_{action}_num_threads64_",
            f"openblas_{action}_num_threads64_",
            f"openblas_{action}_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    fn = _openblas("get")
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def set_blas_threads(count: int) -> None:
    """Make numpy's OpenBLAS use ``count`` threads from now on."""
    fn = _openblas("set")
    if fn is None:
        raise RuntimeError("numpy's BLAS is not an OpenBLAS whose thread count can be set")
    fn.argtypes = [ctypes.c_int]
    fn.restype = None
    fn(count)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
