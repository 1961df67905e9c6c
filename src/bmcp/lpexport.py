"""Integer-program export in LP text format.

Variables: y_i = 1 iff item i is selected, x_j = 1 iff element j counts as
covered. Maximize sum p_j x_j subject to the knapsack row over the y_i and,
per element, x_j <= sum of the y_i covering it. All variables binary. An
element no item covers gets the row ``x_j <= 0``.

The rendering is canonical: fixed section order, one named row per
constraint, terms wrapped at a fixed count per line. Output parses with
CPLEX-LP readers (and the bundled brute-force checker in the tests).
"""

from __future__ import annotations

from .instance import Instance

_TERMS_PER_LINE = 8
_NAMES_PER_LINE = 12


def _wrap_row(name: str, terms: list[str], bound: str | None = None) -> list[str]:
    """One named row; every term after the first carries its sign."""
    lines = []
    for k in range(0, len(terms), _TERMS_PER_LINE):
        chunk = " ".join(terms[k : k + _TERMS_PER_LINE])
        lines.append(f" {name}: {chunk}" if k == 0 else f"   {chunk}")
    if bound is not None:
        lines[-1] += f" {bound}"
    return lines


def _sum_terms(coefficients: list[int], var: str) -> list[str]:
    """The terms ``c1 v1``, ``+ c2 v2``, ... of a sum, signed for :func:`_wrap_row`."""
    return [f"{'+ ' if k else ''}{c} {var}{k + 1}" for k, c in enumerate(coefficients)]


def export_lp(inst: Instance) -> str:
    """The program of ``inst`` as LP text, rendered from its arrays and ``csc``."""
    colptr, colitems = inst.csc
    bounds = colptr.tolist()
    covering = (colitems + 1).tolist()
    lines = ["Maximize"]
    lines.extend(_wrap_row("obj", _sum_terms(inst.profits.tolist(), "x")))
    lines.append("Subject To")
    cap_terms = _sum_terms(inst.weights.tolist(), "y")
    lines.extend(_wrap_row("capacity", cap_terms, f"<= {inst.capacity}"))
    for j in range(inst.n):
        terms = [f"x{j + 1}"] + [f"- y{i}" for i in covering[bounds[j] : bounds[j + 1]]]
        lines.extend(_wrap_row(f"cover_{j + 1}", terms, "<= 0"))
    lines.append("Binary")
    names = [f"y{i + 1}" for i in range(inst.m)]
    names += [f"x{j + 1}" for j in range(inst.n)]
    for k in range(0, len(names), _NAMES_PER_LINE):
        lines.append(" " + " ".join(names[k : k + _NAMES_PER_LINE]))
    lines.append("End")
    return "\n".join(lines) + "\n"
