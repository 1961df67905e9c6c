"""Problem data, text-file I/O, and the random instance generator.

An instance of the budgeted maximum coverage problem consists of m items and
n elements. Item i has a positive integer weight w_i and covers a fixed
subset of elements; element j carries a positive integer profit p_j. A
selection of items is feasible when its total weight stays within the
knapsack capacity C, and its value is the summed profit of all elements
covered at least once (each element counts once no matter how often it is
covered).

The text format, one instance per file::

    BMCP 1
    m n C
    w_1 ... w_m
    p_1 ... p_n
    k e_1 ... e_k      (m of these rows, element indices 1-based ascending)

Element and item indices are 1-based in files and 0-based everywhere in
memory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, FormatError

HEADER = "BMCP 1"

# Dense Bernoulli sampling in the generator; beyond this the index space is
# rejected rather than silently thrashing memory.
MAX_CELLS = 1 << 27

# Weight and profit totals stay below this, so every sum the search forms
# is exact in int64: a swap delta can reach twice the profit total.
MAX_TOTAL = 1 << 62


class InstanceWarning(UserWarning):
    """Degenerate but legal instance data (empty rows, uncovered elements)."""


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem data.

    :param weights: per-item weights, shape (m,), positive int64 with a
        total below :data:`MAX_TOTAL`.
    :param profits: per-element profits, shape (n,), positive int64 with a
        total below :data:`MAX_TOTAL`.
    :param capacity: knapsack capacity C >= 0.
    :param rows: per-item covered elements, each a sorted unique int64 array
        of 0-based element indices.
    :param name: presentation label used in file names and CSV rows; not
        part of equality.
    """

    weights: np.ndarray
    profits: np.ndarray
    capacity: int
    rows: tuple[np.ndarray, ...]
    name: str = ""

    def __post_init__(self):
        try:
            weights = np.asarray(self.weights, dtype=np.int64)
            profits = np.asarray(self.profits, dtype=np.int64)
        except OverflowError:
            raise ValueError("weight or profit does not fit in int64") from None
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if profits.ndim != 1 or profits.size == 0:
            raise ValueError("profits must be a nonempty 1-d array")
        if (weights <= 0).any():
            raise ValueError("nonpositive weight")
        if (profits <= 0).any():
            raise ValueError("nonpositive profit")
        for label, values in (("weight", weights), ("profit", profits)):
            if sum(values.tolist()) >= MAX_TOTAL:
                raise ValueError(_total_message(label))
        if int(self.capacity) < 0:
            raise ValueError("negative capacity")
        if len(self.rows) != weights.size:
            raise ValueError(
                f"row count mismatch: {len(self.rows)} rows for {weights.size} items"
            )
        rows = []
        for i, row in enumerate(self.rows):
            arr = np.unique(np.asarray(row, dtype=np.int64))
            if arr.size and (arr[0] < 0 or arr[-1] >= profits.size):
                raise ValueError(f"item {i}: element index out of range")
            arr.flags.writeable = False
            rows.append(arr)
        weights.flags.writeable = False
        profits.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "profits", profits)
        object.__setattr__(self, "capacity", int(self.capacity))
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def m(self) -> int:
        """Number of items."""
        return self.weights.size

    @property
    def n(self) -> int:
        """Number of elements."""
        return self.profits.size

    @property
    def density(self) -> float:
        """Fraction of nonzero cells in the m-by-n incidence matrix."""
        return sum(r.size for r in self.rows) / (self.m * self.n)

    @cached_property
    def incidence(self) -> sp.csr_array:
        """0/1 incidence matrix, items by elements, int64 CSR."""
        indptr = np.zeros(self.m + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([r.size for r in self.rows])
        indices = (
            np.concatenate(self.rows)
            if indptr[-1]
            else np.empty(0, dtype=np.int64)
        )
        data = np.ones(indices.size, dtype=np.int64)
        return sp.csr_array((data, indices, indptr), shape=(self.m, self.n))

    @cached_property
    def incidence_items(self) -> np.ndarray:
        """Item of every entry of ``incidence.indices``, in CSR order."""
        return np.repeat(np.arange(self.m), [r.size for r in self.rows])

    def __eq__(self, other) -> bool:
        """Data equality; the name label is ignored."""
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.capacity == other.capacity
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.profits, other.profits)
            and len(self.rows) == len(other.rows)
            and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows))
        )

    __hash__ = None


def _total_message(label: str) -> str:
    return f"{label} total must stay below 2^62 = {MAX_TOTAL}"


def as_selection(m: int, selection) -> np.ndarray:
    """Coerce to a length-m boolean vector, validating shape."""
    sel = np.asarray(selection)
    if sel.shape != (m,):
        raise ValueError(f"selection shape {sel.shape} != ({m},)")
    if sel.dtype != np.bool_:
        sel = sel.astype(bool)
    return sel


def selection_from_items(m: int, items: Iterable[int]) -> np.ndarray:
    """Boolean selection vector with the given 0-based items set."""
    sel = np.zeros(m, dtype=bool)
    for i in items:
        if not 0 <= i < m:
            raise ValueError(f"item index {i} out of range 0..{m - 1}")
        sel[i] = True
    return sel


def total_weight(inst: Instance, selection) -> int:
    sel = as_selection(inst.m, selection)
    return int(inst.weights[sel].sum())


def full_objective(inst: Instance, selection) -> int:
    """Objective recomputed from scratch: profit of all covered elements."""
    sel = as_selection(inst.m, selection)
    covered = np.zeros(inst.n, dtype=bool)
    for i in np.flatnonzero(sel):
        covered[inst.rows[i]] = True
    return int(inst.profits[covered].sum())


def coverage_counts(inst: Instance, selection) -> np.ndarray:
    """Per-element count of selected items covering it, from scratch."""
    sel = as_selection(inst.m, selection)
    counts = np.zeros(inst.n, dtype=np.int64)
    for i in np.flatnonzero(sel):
        counts[inst.rows[i]] += 1
    return counts


def _tokens_of(line: str) -> list[str]:
    return line.split()


def _ints(tokens: Sequence[str], lineno: int) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise FormatError(f"invalid integer {tok!r}", lineno) from None
    return out


def parse_instance(text: str, name: str = "") -> Instance:
    """Parse the text format; raises :class:`FormatError` with line numbers.

    Empty coverage rows and elements covered by no item are legal but
    trigger an :class:`InstanceWarning`.
    """
    lines = text.splitlines()

    def line_at(idx: int, what: str) -> tuple[str, int]:
        if idx >= len(lines):
            raise FormatError(f"unexpected end of file, expected {what}", len(lines) + 1)
        return lines[idx], idx + 1

    raw, lineno = line_at(0, "header")
    if _tokens_of(raw) != HEADER.split():
        raise FormatError(f"malformed header, expected {HEADER!r}", lineno)

    raw, lineno = line_at(1, "dimensions 'm n C'")
    dims = _tokens_of(raw)
    if len(dims) != 3:
        raise FormatError("dimension count mismatch: expected 'm n C'", lineno)
    m, n, capacity = _ints(dims, lineno)
    if m < 1 or n < 1:
        raise FormatError("m and n must be positive", lineno)
    if capacity < 0:
        raise FormatError("negative capacity", lineno)

    raw, lineno = line_at(2, "weights")
    wtok = _tokens_of(raw)
    if len(wtok) != m:
        raise FormatError(f"weight count mismatch: expected {m}, got {len(wtok)}", lineno)
    weights = _ints(wtok, lineno)
    if any(w <= 0 for w in weights):
        raise FormatError("nonpositive weight", lineno)
    if sum(weights) >= MAX_TOTAL:
        raise FormatError(_total_message("weight"), lineno)

    raw, lineno = line_at(3, "profits")
    ptok = _tokens_of(raw)
    if len(ptok) != n:
        raise FormatError(f"profit count mismatch: expected {n}, got {len(ptok)}", lineno)
    profits = _ints(ptok, lineno)
    if any(p <= 0 for p in profits):
        raise FormatError("nonpositive profit", lineno)
    if sum(profits) >= MAX_TOTAL:
        raise FormatError(_total_message("profit"), lineno)

    rows = []
    for i in range(m):
        raw, lineno = line_at(4 + i, f"coverage row {i + 1} of {m}")
        rtok = _tokens_of(raw)
        if not rtok:
            raise FormatError(
                "coverage row count mismatch: expected 'k e_1 ... e_k', got blank line",
                lineno,
            )
        values = _ints(rtok, lineno)
        k, elems = values[0], values[1:]
        if k < 0:
            raise FormatError(f"negative element count {k}", lineno)
        if len(elems) != k:
            raise FormatError(
                f"element count mismatch: row declares {k}, got {len(elems)}", lineno
            )
        for e in elems:
            if not 1 <= e <= n:
                raise FormatError(f"element index {e} out of 1..{n}", lineno)
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise FormatError("element indices not strictly ascending", lineno)
        rows.append(np.asarray(elems, dtype=np.int64) - 1)

    for extra in range(4 + m, len(lines)):
        if lines[extra].strip():
            raise FormatError("trailing content after last coverage row", extra + 1)

    empty = [i + 1 for i, r in enumerate(rows) if r.size == 0]
    if empty:
        warnings.warn(f"items with empty coverage: {empty}", InstanceWarning, stacklevel=2)
    covered = np.zeros(n, dtype=bool)
    for r in rows:
        covered[r] = True
    if not covered.all():
        uncovered = (np.flatnonzero(~covered) + 1).tolist()
        warnings.warn(f"elements covered by no item: {uncovered}", InstanceWarning, stacklevel=2)

    return Instance(
        weights=np.asarray(weights, dtype=np.int64),
        profits=np.asarray(profits, dtype=np.int64),
        capacity=capacity,
        rows=tuple(rows),
        name=name,
    )


def load_instance(path) -> Instance:
    """Read an instance file; the name defaults to the file stem."""
    from pathlib import Path

    path = Path(path)
    return parse_instance(path.read_text(), name=path.stem)


def write_instance(inst: Instance) -> str:
    """Render the canonical text form (round-trips through parse_instance)."""
    out = [HEADER, f"{inst.m} {inst.n} {inst.capacity}"]
    out.append(" ".join(str(int(w)) for w in inst.weights))
    out.append(" ".join(str(int(p)) for p in inst.profits))
    for row in inst.rows:
        out.append(" ".join([str(row.size)] + [str(int(e) + 1) for e in row]))
    return "\n".join(out) + "\n"


def save_instance(inst: Instance, path) -> None:
    from pathlib import Path

    Path(path).write_text(write_instance(inst))


def instance_name(m: int, n: int, density: float, capacity: int) -> str:
    return f"bmcp_{m}_{n}_{density:g}_{capacity}"


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for the random generator.

    Incidence cells are independent Bernoulli(density) draws; weights and
    profits are uniform integers over closed ranges. Items left with no
    elements and elements left with no item are each repaired with a single
    uniformly placed incidence, so generated instances never warn.
    """

    m: int
    n: int
    density: float
    capacity: int
    weight_range: tuple[int, int] = (1, 100)
    profit_range: tuple[int, int] = (1, 100)
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ConfigError("m and n must be positive")
        if not 0.0 < self.density < 1.0:
            raise ConfigError("density must lie strictly between 0 and 1")
        if self.m * self.n > MAX_CELLS:
            raise ConfigError(f"index space m*n exceeds {MAX_CELLS}")
        if self.capacity < 1:
            raise ConfigError("capacity must be positive")
        for label, (lo, hi), draws in (
            ("weight", self.weight_range, self.m),
            ("profit", self.profit_range, self.n),
        ):
            if lo < 1 or hi < lo:
                raise ConfigError(f"bad range [{lo}, {hi}]")
            if hi * draws >= MAX_TOTAL:
                raise ConfigError(
                    f"{label} range [{lo}, {hi}] over {draws} draws: "
                    + _total_message(label)
                )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")


def generate_instance(spec: GeneratorSpec) -> Instance:
    """Draw an instance; identical spec (seed included) gives identical bits.

    Draw order is fixed: weights, profits, incidence matrix, empty-row
    repairs in ascending item order, uncovered-element repairs in ascending
    element order.
    """
    rng = np.random.default_rng(spec.seed)
    wlo, whi = spec.weight_range
    plo, phi = spec.profit_range
    weights = rng.integers(wlo, whi, size=spec.m, endpoint=True, dtype=np.int64)
    profits = rng.integers(plo, phi, size=spec.n, endpoint=True, dtype=np.int64)
    cells = rng.random((spec.m, spec.n)) < spec.density
    for i in np.flatnonzero(~cells.any(axis=1)):
        cells[i, rng.integers(spec.n)] = True
    for j in np.flatnonzero(~cells.any(axis=0)):
        cells[rng.integers(spec.m), j] = True
    rows = tuple(np.flatnonzero(cells[i]).astype(np.int64) for i in range(spec.m))
    return Instance(
        weights=weights,
        profits=profits,
        capacity=spec.capacity,
        rows=rows,
        name=instance_name(spec.m, spec.n, spec.density, spec.capacity),
    )
