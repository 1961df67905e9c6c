"""Spans recorded from outside the program.

A span is ``[name, start, end, parent, tag]``; ``parent`` is the index of
the enclosing span or -1. The benchmark opens root spans itself (a setup
step, a measured pass); :meth:`Tracer.installed` additionally wraps the
public functions of the ``bmcp`` layers at the place each one is looked
up, so calls made inside the program become child spans. Nothing in
``src/`` is touched, and the wrappers draw no randomness, so a traced
run replays the same moves as an untraced one.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, tag=None):
        """Open a span around a block; yields its record."""
        rec = [name, 0.0, 0.0, self._stack[-1], tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, tag_before=None, tag_after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            tag = tag_before(*args) if tag_before is not None else None
            rec = [name, 0.0, 0.0, stack[-1], tag]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tag_after is not None:
                rec[4] = tag_after(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, **tags):
        # Classes: take the raw attribute so classmethods stay classmethods.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, **tags))
        else:
            wrapped = self._wrap(name, original, **tags)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    @contextmanager
    def installed(self, bmcp):
        """Wrap every traced entry point for the duration of the block."""
        try:
            self._install(bmcp)
            yield
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _install(self, bmcp) -> None:
        solver, tabu, cli = bmcp.solver, bmcp.tabu, bmcp.cli
        state_cls, prob_cls = bmcp.SearchState, bmcp.ProbabilityVector
        flip = bmcp.Flip

        def hamming(args, restart):
            return int(np.count_nonzero(args[0].selection != restart))

        self._patch(solver, "solve", "solver.solve")
        self._patch(solver, "initial_solution", "tabu.initial")
        self._patch(tabu, "descent_local_search", "tabu.descent")
        self._patch(solver, "tabu_search", "tabu.phase")
        self._patch(solver, "probability_perturbation", "learning.perturb", tag_after=hamming)
        self._patch(solver, "random_perturbation", "learning.perturb", tag_after=hamming)
        self._patch(cli, "wilcoxon_signed_rank", "stats.wilcoxon")

        def move_kind(state, move):
            if type(move) is not flip:
                return "swap"
            return "out" if state.selection[move.item] else "in"

        self._patch(state_cls, "apply", "state.apply", tag_before=move_kind)
        self._patch(state_cls, "copy", "state.copy")
        self._patch(state_cls, "from_selection", "state.from_selection")
        self._patch(prob_cls, "reward", "learning.update")
        self._patch(prob_cls, "punish", "learning.update")

    def dump(self, path) -> None:
        """One JSON array per span: name, start and end (s), parent, tag."""
        with open(path, "w") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, tag]) + "\n")


def layer_metrics(spans: list[list], root: int, end: int) -> dict:
    """Per-layer figures of one pass: the spans ``root + 1 .. end - 1``.

    Times are totals over the pass, except ``tabu.phase_s`` (median phase
    span). Self time is a span's duration minus that of its direct
    children.
    """
    dur = {}
    child = {}
    by_name: dict[str, list[int]] = {}
    for i in range(root + 1, end):
        name, start, stop, parent, _ = spans[i]
        dur[i] = stop - start
        child[parent] = child.get(parent, 0.0) + dur[i]
        by_name.setdefault(name, []).append(i)

    def of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in of(name))

    def self_time(name):
        return sum(dur[i] - child.get(i, 0.0) for i in of(name))

    phases = of("tabu.phase")
    phase_set = set(phases)
    tabu_moves = [spans[i][4] for i in of("state.apply") if spans[i][3] in phase_set]
    perturbs = of("learning.perturb")
    scan = self_time("tabu.phase")
    return {
        "tabu.scan_s": scan,
        "tabu.scan_us_per_move": 1e6 * scan / max(1, len(tabu_moves)),
        "tabu.phase_s": statistics.median(dur[i] for i in phases) if phases else 0.0,
        "tabu.initial_s": total("tabu.initial"),
        "tabu.descent_s": total("tabu.descent"),
        "tabu.phases": len(phases),
        "tabu.moves": len(tabu_moves),
        "tabu.flips_in": tabu_moves.count("in"),
        "tabu.flips_out": tabu_moves.count("out"),
        "tabu.swaps": tabu_moves.count("swap"),
        "state.apply_s": total("state.apply"),
        "state.apply_calls": len(of("state.apply")),
        "state.copy_s": total("state.copy"),
        "state.copy_calls": len(of("state.copy")),
        "state.from_selection_s": total("state.from_selection"),
        "state.from_selection_calls": len(of("state.from_selection")),
        "learning.perturb_s": total("learning.perturb"),
        "learning.perturbations": len(perturbs),
        "learning.update_s": total("learning.update"),
        "learning.updates": len(of("learning.update")),
        "learning.restart_hamming": (
            statistics.fmean(spans[i][4] for i in perturbs) if perturbs else 0.0
        ),
        "solver.solve_self_s": self_time("solver.solve"),
        "stats.wilcoxon_s": total("stats.wilcoxon"),
        "cli.compare_self_s": self_time("cli.compare"),
    }
