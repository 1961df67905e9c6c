"""Shared fixtures and independent reference implementations.

The reference routines here deliberately avoid the package's incremental
code paths: rebuilds go through a single sparse matvec, move deltas
through one item row at a time, optima through plain subset enumeration,
and LP values through a from-scratch parse of the rendered text. Tests
compare the fast paths against these.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

import bmcp
from bmcp.instance import MAX_TOTAL
from bmcp.tabu import _pick

TINY_TEXT = """\
BMCP 1
3 3 10
4 5 6
3 7 2
2 1 2
2 2 3
2 1 3
"""


@pytest.fixture
def tiny():
    return bmcp.parse_instance(TINY_TEXT, name="tiny1")


def make_instance(m, n, density, capacity_fraction, seed):
    """Generated instance whose capacity is a fraction of the total weight.

    The generator draws weights first, so probing with a placeholder
    capacity yields the same weights as the final call.
    """
    probe = bmcp.generate_instance(
        bmcp.GeneratorSpec(m=m, n=n, density=density, capacity=1, seed=seed)
    )
    capacity = max(1, int(round(float(probe.weights.sum()) * capacity_fraction)))
    return bmcp.generate_instance(
        bmcp.GeneratorSpec(m=m, n=n, density=density, capacity=capacity, seed=seed)
    )


def csr(rows):
    """``indptr`` and ``indices`` keywords of :class:`bmcp.Instance` for
    ragged ``rows`` of 0-based elements; empty rows keep ``indices`` int64."""
    return dict(
        indptr=np.cumsum([0, *map(len, rows)]),
        indices=np.array([e for row in rows for e in row], dtype=np.int64),
    )


def row_of(inst, item):
    """Elements covered by ``item``: its slice of the instance's CSR pair."""
    return inst.indices[inst.indptr[item] : inst.indptr[item + 1]]


def rebuild(inst, selection):
    """Coverage, weight, objective from scratch via the incidence matvec."""
    counts = inst.incidence.T @ selection.astype(np.int64)
    weight = int(inst.weights[selection].sum())
    objective = int(inst.profits[counts > 0].sum())
    return counts, weight, objective


@dataclass(frozen=True)
class MoveDelta:
    """Effect of a move: objective change, weight change, feasibility after."""

    objective: int
    weight: int
    feasible: bool


def flip_delta(state, item):
    """Scalar effect of toggling ``item``; the state is not mutated."""
    inst = state.instance
    row = row_of(inst, item)
    counts = state.coverage[row]
    prof = inst.profits[row]
    if state.selection[item]:
        dobj = -int(prof[counts == 1].sum())
        dw = -int(inst.weights[item])
    else:
        dobj = int(prof[counts == 0].sum())
        dw = int(inst.weights[item])
    return MoveDelta(dobj, dw, state.total_weight + dw <= inst.capacity)


def swap_delta(state, out_item, in_item):
    """Scalar effect of exchanging a selected item for an unselected one."""
    if not state.selection[out_item]:
        raise ValueError(f"out_item {out_item} is not selected")
    if state.selection[in_item]:
        raise ValueError(f"in_item {in_item} is already selected")
    inst = state.instance
    row_out = row_of(inst, out_item)
    row_in = row_of(inst, in_item)
    lost = int(inst.profits[row_out][state.coverage[row_out] == 1].sum())
    leaving = set(row_out.tolist())
    gained = sum(
        int(inst.profits[e])
        for e in row_in.tolist()
        if state.coverage[e] - (e in leaving) == 0
    )
    dw = int(inst.weights[in_item]) - int(inst.weights[out_item])
    return MoveDelta(gained - lost, dw, state.total_weight + dw <= inst.capacity)


def move_delta(state, move):
    if isinstance(move, bmcp.Flip):
        return flip_delta(state, move.item)
    return swap_delta(state, move.out_item, move.in_item)


def tabu_items(state, iteration):
    """Boolean vector of the items tabu at ``iteration`` of the state's expiry."""
    return state.expiry >= iteration


def reference_moves(state):
    """Every flip and swap of ``state`` in the scan's order: flip-ins,
    flip-outs, then swaps by (leaving, entering) item."""
    sel = np.flatnonzero(state.selection).tolist()
    unsel = np.flatnonzero(~state.selection).tolist()
    return (
        [bmcp.Flip(b) for b in unsel]
        + [bmcp.Flip(a) for a in sel]
        + [bmcp.Swap(a, b) for a in sel for b in unsel]
    )


def move_code(m, move):
    """The scan's code for ``move`` on ``m`` items: a flip's item, or
    m + m*a + b for the swap of selected a for unselected b."""
    if isinstance(move, bmcp.Swap):
        return m + m * move.out_item + move.in_item
    return move.item


def compiled_candidates(state, iteration, threshold, swaps_only):
    """Every admissible move at the best delta, in scan order, and that delta.

    The tie set and best delta that one :func:`bmcp.tabu._pick` at
    ``best_so_far = state.objective + threshold`` leaves in the state's
    struct, scanned at the struct's headroom ``budget - weight``;
    ``_scan.c`` documents the scan order and the move codes. The pick's
    tie-break comes from a throwaway generator. Admissible: feasible and
    either free at ``iteration`` (``state.expiry`` below it) or past the
    aspiration bar, ``delta > threshold``. ``swaps_only`` leaves the flips
    out.
    """
    _pick(state, iteration, state.objective + threshold, swaps_only, np.random.default_rng(0))
    core = state.core
    return core.arrays["ties"][: core.count].copy(), core.best


def move_of(m, code):
    """The move a scan code stands for on ``m`` items; see :func:`move_code`."""
    return bmcp.Flip(code) if code < m else bmcp.Swap(*divmod(code - m, m))


def bit_state(rng):
    """The state of ``rng``'s bit generator, comparable with ``==`` (an
    MT19937 key array becomes a list)."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def picked(state, iteration, best_so_far, swaps_only, rng):
    """The code of the move ``bmcp_pick`` makes, or None, from
    :func:`compiled_candidates` and ``rng.integers`` over the ties; with
    ``swaps_only`` (the descent's pick) only a swap that improves."""
    threshold = best_so_far - state.objective
    ties, best = compiled_candidates(state, iteration, threshold, swaps_only)
    if not ties.size or (swaps_only and best <= 0):
        return None
    return int(ties[rng.integers(ties.size)])


def reference_descent(state, rng):
    """:func:`bmcp.descent_local_search` with :func:`picked` for each step."""
    while (code := picked(state, 0, -MAX_TOTAL, True, rng)) is not None:
        state.apply(move_of(state.instance.m, code))
    return state


def reference_phase(state, prob, depth, tenure, rng, observer=None):
    """:func:`bmcp.tabu_search` with :func:`picked` for each move and no
    deadline; returns how many picks drew a tie-break."""
    m = state.instance.m
    state.expiry[:] = 0
    best_selection, best_objective = state.selection.copy(), state.objective
    non_improving, iteration, draws = 0, 1, 0
    while non_improving < depth:
        before = bit_state(rng)
        code = picked(state, iteration, best_objective, False, rng)
        if code is None:
            break
        draws += bit_state(rng) != before
        move = move_of(m, code)
        state.apply(move)
        if observer is not None:
            observer(state)
        for item in (move.item,) if code < m else (move.out_item, move.in_item):
            if state.selection[item]:
                prob.reward(item)
            else:
                prob.punish(item)
            state.expiry[item] = iteration + min(tenure, MAX_TOTAL)
        if state.objective > best_objective:
            best_selection[:] = state.selection
            best_objective = state.objective
            non_improving = 0
        else:
            non_improving += 1
        iteration += 1
    state._walk_to(best_selection)
    return draws


def reference_candidates(state, iteration, thresholds):
    """The move scan's answer, from the scalar deltas, for each threshold.

    Maps (threshold, swaps_only) to the codes of the admissible moves at
    the best delta, in the scan's order, and that delta (None when there is
    none). Admissible: feasible, and either every touched item free at
    ``iteration`` or ``delta > threshold``. Each move's delta is computed
    once.
    """
    tabu_now = tabu_items(state, iteration)
    scored = []
    for move in reference_moves(state):
        delta = move_delta(state, move)
        swap = isinstance(move, bmcp.Swap)
        touched = (move.out_item, move.in_item) if swap else (move.item,)
        free = not any(tabu_now[i] for i in touched)
        code = move_code(state.instance.m, move)
        scored.append((code, delta.objective, delta.feasible, free, swap))
    answers = {}
    for threshold in thresholds:
        for swaps_only in (False, True):
            admissible = [
                (d, code) for code, d, feasible, free, swap in scored
                if feasible and (swap or not swaps_only) and (free or d > threshold)
            ]
            best = max((d for d, _ in admissible), default=None)
            ties = [code for d, code in admissible if d == best]
            answers[threshold, swaps_only] = ties, best
    return answers


def brute_force_value(inst):
    """Optimal objective by plain subset enumeration; m up to ~15."""
    rows = [frozenset(row_of(inst, i).tolist()) for i in range(inst.m)]
    weights = inst.weights.tolist()
    profits = inst.profits.tolist()
    best = 0
    for size in range(1, inst.m + 1):
        for combo in itertools.combinations(range(inst.m), size):
            if sum(weights[i] for i in combo) > inst.capacity:
                continue
            covered = frozenset().union(*(rows[i] for i in combo))
            value = sum(profits[j] for j in covered)
            if value > best:
                best = value
    return best


def _parse_terms(tokens):
    """Signed (coefficient, variable) pairs from LP expression tokens."""
    terms = []
    sign = 1
    pending = None
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif tok.lstrip("-").isdigit():
            pending = int(tok)
        else:
            coeff = sign * (1 if pending is None else pending)
            terms.append((coeff, tok))
            sign = 1
            pending = None
    return terms


def solve_lp_text(text):
    """Brute-force optimum of a rendered LP, parsed from the text alone."""
    lines = text.splitlines()
    i_max = lines.index("Maximize")
    i_sub = lines.index("Subject To")
    i_bin = lines.index("Binary")
    lines.index("End")

    def rows_between(first, last):
        rows = []
        for line in lines[first:last]:
            if ":" in line:
                rows.append(line)
            else:
                rows[-1] += " " + line
        return rows

    (objective_row,) = rows_between(i_max + 1, i_sub)
    obj_terms = _parse_terms(objective_row.split(":", 1)[1].split())
    profits = {var: coeff for coeff, var in obj_terms}

    weights = {}
    capacity = None
    covering = {}
    for row in rows_between(i_sub + 1, i_bin):
        name, rest = row.split(":", 1)
        lhs, rhs = rest.split("<=")
        terms = _parse_terms(lhs.split())
        if name.strip() == "capacity":
            capacity = int(rhs)
            weights = {var: coeff for coeff, var in terms}
        else:
            (x_var,) = [var for coeff, var in terms if coeff > 0]
            items = [var for coeff, var in terms if coeff < 0]
            assert int(rhs) == 0
            covering[x_var] = items

    m = len(weights)
    n = len(profits)
    binary_names = " ".join(lines[i_bin + 1 : lines.index("End")]).split()
    assert len(binary_names) == m + n

    y_names = [f"y{i + 1}" for i in range(m)]
    w = np.array([weights[name] for name in y_names], dtype=np.int64)
    masks = ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1).astype(bool)
    total = masks @ w
    feasible = total <= capacity
    value = np.zeros(2**m, dtype=np.int64)
    for j in range(n):
        x_var = f"x{j + 1}"
        items = [int(name[1:]) - 1 for name in covering[x_var]]
        if items:
            value += profits[x_var] * masks[:, items].any(axis=1)
    return int(value[feasible].max())
