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
memory. Files are ASCII; :func:`load_instance` rejects any other byte.

In memory the incidence is one CSR pair, ``indptr`` and ``indices``: the
form :class:`Instance` is built from and the only one it keeps. Parsing,
writing and generating work on that pair as whole arrays.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, FormatError

HEADER = "BMCP 1"

# Dense Bernoulli sampling in the generator; beyond this the index space is
# rejected rather than silently thrashing memory.
MAX_CELLS = 1 << 27
_DRAW_CELLS = 1 << 20  # cells per rng.random call; chunking changes no bit

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
    :param indptr: CSR row pointer of the incidence, shape (m + 1,),
        nondecreasing from 0 to ``indices.size``.
    :param indices: 0-based element indices of every row back to back:
        item i covers ``indices[indptr[i]:indptr[i + 1]]``. Rows may come in
        any order and with repeats; they are stored sorted and unique.
    :param name: presentation label used in file names and CSV rows; not
        part of equality.

    The instance owns a read-only copy of every array it is given. A pickled
    or deep-copied instance is rebuilt through this constructor.
    """

    weights: np.ndarray
    profits: np.ndarray
    capacity: int
    indptr: np.ndarray
    indices: np.ndarray
    name: str = ""

    def __post_init__(self):
        weights = _int64_array(self.weights, "weights")
        profits = _int64_array(self.profits, "profits")
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
        try:
            capacity = operator.index(self.capacity)
        except TypeError:
            raise ValueError(f"capacity must be an integer, got {self.capacity!r}") from None
        if capacity < 0:
            raise ValueError("negative capacity")
        indptr = _int64_array(self.indptr, "indptr")
        indices = _int64_array(self.indices, "indices")
        indptr, indices = _canonical_csr(indptr, indices, weights.size, profits.size)
        for arr in (weights, profits, indptr, indices):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "profits", profits)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    @property
    def m(self) -> int:
        """Number of items."""
        return self.weights.size

    @property
    def n(self) -> int:
        """Number of elements."""
        return self.profits.size

    @cached_property
    def incidence(self):
        """0/1 incidence matrix, items by elements, scipy int64 CSR on ``indices``."""
        import scipy.sparse as sp

        data = np.ones(self.indices.size, dtype=np.int64)
        return sp.csr_array((data, self.indices, self.indptr), shape=(self.m, self.n))

    @cached_property
    def row_profits(self) -> np.ndarray:
        """Summed profit of each item's elements, int64 (m,), read-only."""
        # The running sum may wrap past 2^63, but a row sums distinct
        # elements, so its true sum is below MAX_TOTAL and the wrapped
        # difference of two running sums is exact.
        running = np.cumsum(np.append(0, self.profits[self.indices]))
        sums = np.diff(running[self.indptr])
        sums.flags.writeable = False
        return sums

    @cached_property
    def order(self) -> np.ndarray:
        """The items sorted by (weight, item), read-only."""
        order = np.argsort(self.weights, kind="stable")
        order.flags.writeable = False
        return order

    @cached_property
    def csc(self) -> tuple[np.ndarray, np.ndarray]:
        """Column form ``(colptr, colitems)`` of the incidence, read-only.

        Element j is covered by the items ``colitems[colptr[j]:colptr[j + 1]]``,
        sorted by (weight, item) as in :attr:`order`, so the compiled scan
        can stop at the first item too heavy to fit. The compiled search
        core and :func:`bmcp.lpexport.export_lp` read it.
        """
        colptr = _indptr(np.bincount(self.indices, minlength=self.n))
        rank = np.empty(self.m, dtype=np.int64)
        rank[self.order] = np.arange(self.m)
        ranks = np.repeat(rank, np.diff(self.indptr))
        colitems = self.order[ranks[np.lexsort((ranks, self.indices))]]
        for arr in (colptr, colitems):
            arr.flags.writeable = False
        return colptr, colitems

    def __reduce__(self):
        # Only the six fields travel: the copy is validated and read-only
        # again, and builds its own caches, so the states built on it point
        # the compiled core at the copy's arrays.
        return type(self), (
            self.weights, self.profits, self.capacity, self.indptr, self.indices, self.name
        )

    def __eq__(self, other) -> bool:
        """Data equality; the name label is ignored."""
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.capacity == other.capacity
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.profits, other.profits)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    __hash__ = None


def _int64_array(values, label: str) -> np.ndarray:
    """New contiguous int64 array of integer ``values``; ValueError otherwise.

    A plain cast would truncate floats and bools and wrap large unsigned
    values without a word. The result is always a copy, so the caller's
    array stays writeable and cannot change the instance afterwards.
    """
    arr = np.asarray(values)
    if arr.size and (
        arr.dtype.kind not in "iu"
        or (arr.dtype.kind == "u" and arr.max() > np.iinfo(np.int64).max)
    ):
        raise ValueError(f"{label} must be integers that fit in int64, got {arr.dtype}")
    return np.array(arr, dtype=np.int64, order="C")


def _canonical_csr(indptr, indices, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Shape- and range-checked CSR pair with each row sorted and unique."""
    if indptr.shape != (m + 1,):
        raise ValueError(f"indptr must have shape ({m + 1},), got {indptr.shape}")
    if indices.ndim != 1:
        raise ValueError(f"indices must be 1-d, got shape {indices.shape}")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError(f"indptr must run from 0 to indices.size = {indices.size}")
    if (np.diff(indptr) < 0).any():
        raise ValueError("indptr decreases")
    bad = (indices < 0) | (indices >= n)
    if bad.any():
        item = np.searchsorted(indptr, np.argmax(bad), side="right") - 1
        raise ValueError(f"item {item}: element index out of range")
    # Rows that are already strictly ascending (every parsed or generated
    # instance) need no sort: a step across a row boundary does not count.
    ascending = np.diff(indices) > 0
    starts = indptr[1:-1]
    ascending[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    if not ascending.all():
        items = np.repeat(np.arange(m), np.diff(indptr))
        order = np.lexsort((indices, items))
        indices, items = indices[order], items[order]
        keep = np.ones(indices.size, dtype=bool)
        keep[1:] = (indices[1:] != indices[:-1]) | (items[1:] != items[:-1])
        indices = indices[keep]
        indptr = _indptr(np.bincount(items[keep], minlength=m))
    return indptr, indices


def _indptr(counts) -> np.ndarray:
    """CSR row pointer of the given per-row entry counts."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


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
    return int(inst.profits[coverage_counts(inst, selection) > 0].sum())


def coverage_counts(inst: Instance, selection) -> np.ndarray:
    """Per-element count of selected items covering it, from scratch."""
    sel = as_selection(inst.m, selection)
    return np.bincount(inst.indices[np.repeat(sel, np.diff(inst.indptr))], minlength=inst.n)


def _ints(tokens: Sequence[str], lineno: int) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        for tok in tokens:
            try:
                int(tok)
            except ValueError:
                raise FormatError(f"invalid integer {tok!r}", lineno) from None
        raise


def parse_instance(text: str, name: str = "") -> Instance:
    """Parse the text format; raises :class:`FormatError` with line numbers.

    Empty coverage rows and elements covered by no item are legal but
    trigger an :class:`InstanceWarning`.
    """
    # Not splitlines(): it also breaks at \v, \f and \x1c-\x1e.
    lines = text.removesuffix("\n").split("\n") if text else []

    def line_at(idx: int, what: str) -> tuple[str, int]:
        if idx >= len(lines):
            raise FormatError(f"unexpected end of file, expected {what}", len(lines) + 1)
        return lines[idx], idx + 1

    raw, lineno = line_at(0, "header")
    if raw.split() != HEADER.split():
        raise FormatError(f"malformed header, expected {HEADER!r}", lineno)

    raw, lineno = line_at(1, "dimensions 'm n C'")
    dims = raw.split()
    if len(dims) != 3:
        raise FormatError("dimension count mismatch: expected 'm n C'", lineno)
    m, n, capacity = _ints(dims, lineno)
    if m < 1 or n < 1:
        raise FormatError("m and n must be positive", lineno)
    if capacity < 0:
        raise FormatError("negative capacity", lineno)

    raw, lineno = line_at(2, "weights")
    wtok = raw.split()
    if len(wtok) != m:
        raise FormatError(f"weight count mismatch: expected {m}, got {len(wtok)}", lineno)
    weights = _ints(wtok, lineno)
    if min(weights) <= 0:
        raise FormatError("nonpositive weight", lineno)
    if sum(weights) >= MAX_TOTAL:
        raise FormatError(_total_message("weight"), lineno)

    raw, lineno = line_at(3, "profits")
    ptok = raw.split()
    if len(ptok) != n:
        raise FormatError(f"profit count mismatch: expected {n}, got {len(ptok)}", lineno)
    profits = _ints(ptok, lineno)
    if min(profits) <= 0:
        raise FormatError("nonpositive profit", lineno)
    if sum(profits) >= MAX_TOTAL:
        raise FormatError(_total_message("profit"), lineno)

    row_lines = lines[4 : 4 + m]
    counts, elems = _coverage_rows(row_lines, 5, n)
    if len(row_lines) < m:
        line_at(4 + len(row_lines), f"coverage row {len(row_lines) + 1} of {m}")

    for extra in range(4 + m, len(lines)):
        if lines[extra].strip():
            raise FormatError("trailing content after last coverage row", extra + 1)

    empty = (np.flatnonzero(counts == 0) + 1).tolist()
    if empty:
        warnings.warn(f"items with empty coverage: {empty}", InstanceWarning, stacklevel=2)
    indices = elems - 1
    covered = np.zeros(n, dtype=bool)
    covered[indices] = True
    if not covered.all():
        uncovered = (np.flatnonzero(~covered) + 1).tolist()
        warnings.warn(f"elements covered by no item: {uncovered}", InstanceWarning, stacklevel=2)

    return Instance(
        weights=weights,
        profits=profits,
        capacity=capacity,
        indptr=_indptr(counts),
        indices=indices,
        name=name,
    )


def _coverage_rows(lines: list[str], first_lineno: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Element count of each coverage row and all their 1-based elements.

    Every token goes through one ``int`` pass and the rows are checked as
    arrays. The first row that fails is then checked again on its own by
    :func:`_check_row`, so the error and its line are those a row-by-row
    parse reports.
    """
    sizes = []

    def split_rows():
        for line in lines:
            tokens = line.split()
            sizes.append(len(tokens))
            yield tokens

    try:
        values = np.fromiter(map(int, chain.from_iterable(split_rows())), dtype=np.int64)
    except (ValueError, OverflowError):
        # A token that is no int64 fails the check of the row holding it.
        for i, line in enumerate(lines):
            _check_row(line, first_lineno + i, n)
        raise
    sizes = np.asarray(sizes, dtype=np.int64)
    counts = sizes - 1
    filled = sizes > 0
    heads = (np.cumsum(sizes) - sizes)[filled]
    is_elem = np.ones(values.size, dtype=bool)
    is_elem[heads] = False
    elems = values[is_elem]
    owner = np.repeat(np.arange(len(lines)), np.maximum(counts, 0))
    bad = ~filled
    bad[filled] |= values[heads] != counts[filled]
    bad[owner[(elems < 1) | (elems > n)]] = True
    bad[owner[1:][(elems[1:] <= elems[:-1]) & (owner[1:] == owner[:-1])]] = True
    for i in np.flatnonzero(bad).tolist():
        _check_row(lines[i], first_lineno + i, n)
    return counts, elems


def _check_row(line: str, lineno: int, n: int) -> None:
    """Raise the first error of one coverage row, if it has one.

    The checks run in this order: blank line, invalid integer, negative
    count, count mismatch, index range, ascending order.
    """
    tokens = line.split()
    if not tokens:
        raise FormatError(
            "coverage row count mismatch: expected 'k e_1 ... e_k', got blank line",
            lineno,
        )
    values = _ints(tokens, lineno)
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


def load_instance(path) -> Instance:
    """Read an instance file; the name defaults to the file stem.

    The format holds only ASCII, so the bytes are decoded as ASCII whatever
    the locale, and any other byte is a :class:`FormatError` on its line.
    """
    from pathlib import Path

    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"non-ASCII byte 0x{data[exc.start]:02x}", line) from None
    return parse_instance(text, name=path.stem)


def write_instance(inst: Instance) -> str:
    """Render the canonical text form (round-trips through parse_instance)."""
    out = [
        HEADER,
        f"{inst.m} {inst.n} {inst.capacity}",
        " ".join(map(str, inst.weights.tolist())),
        " ".join(map(str, inst.profits.tolist())),
    ]
    elems = list(map(str, (inst.indices + 1).tolist()))
    bounds = inst.indptr.tolist()
    out.extend(" ".join([str(b - a), *elems[a:b]]) for a, b in zip(bounds, bounds[1:]))
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
    cells = np.empty((spec.m, spec.n), dtype=bool)
    flat = cells.reshape(-1)
    for start in range(0, flat.size, _DRAW_CELLS):
        chunk = flat[start : start + _DRAW_CELLS]
        np.less(rng.random(chunk.size), spec.density, out=chunk)
    for i in np.flatnonzero(~cells.any(axis=1)):
        cells[i, rng.integers(spec.n)] = True
    for j in np.flatnonzero(~cells.any(axis=0)):
        cells[rng.integers(spec.m), j] = True
    # Flat row-major cell numbers: row i starts at the first one >= i * n.
    flat = np.flatnonzero(cells)
    return Instance(
        weights=weights,
        profits=profits,
        capacity=spec.capacity,
        indptr=np.searchsorted(flat, np.arange(spec.m + 1) * spec.n),
        indices=flat % spec.n,
        name=instance_name(spec.m, spec.n, spec.density, spec.capacity),
    )
