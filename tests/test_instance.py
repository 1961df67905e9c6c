import copy
import hashlib
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmcp
from bmcp import ConfigError, Flip, FormatError, InstanceWarning, SearchState
from bmcp.instance import MAX_TOTAL
from conftest import TINY_TEXT, compiled_candidates, csr, make_instance, row_of


def test_parse_tiny_fields(tiny):
    assert (tiny.m, tiny.n, tiny.capacity) == (3, 3, 10)
    assert tiny.weights.tolist() == [4, 5, 6]
    assert tiny.profits.tolist() == [3, 7, 2]
    assert [row_of(tiny, i).tolist() for i in range(3)] == [[0, 1], [1, 2], [0, 2]]
    assert tiny.name == "tiny1"


def test_write_roundtrip(tiny):
    text = bmcp.write_instance(tiny)
    assert text == TINY_TEXT
    again = bmcp.parse_instance(text)
    assert again == tiny


def test_equality_ignores_name(tiny):
    other = bmcp.parse_instance(TINY_TEXT, name="renamed")
    assert other == tiny
    assert other != bmcp.parse_instance(TINY_TEXT.replace("4 5 6", "4 5 7"))


def test_save_load_roundtrip(tiny, tmp_path):
    path = tmp_path / "tiny1.bmcp"
    bmcp.save_instance(tiny, path)
    loaded = bmcp.load_instance(path)
    assert loaded == tiny
    assert loaded.name == "tiny1"


H = "BMCP 1\n3 3 10\n4 5 6\n3 7 2\n"

BAD_FILES = [
    ("BMXP 1\n3 3 10\n", "header", 1),
    ("BMCP 2\n3 3 10\n", "header", 1),
    ("BMCP 1\n3 3\n", "count mismatch", 2),
    ("BMCP 1\n0 3 10\n", "positive", 2),
    ("BMCP 1\n3 3 -1\n", "capacity", 2),
    ("BMCP 1\n3 3 10\n4 5\n", "count mismatch", 3),
    ("BMCP 1\n3 3 10\n4 5 6 7\n", "count mismatch", 3),
    ("BMCP 1\n3 3 10\n4 0 6\n", "nonpositive weight", 3),
    ("BMCP 1\n3 3 10\n4 5 6\n3 7\n", "count mismatch", 4),
    ("BMCP 1\n3 3 10\n4 5 6\n3 -7 2\n", "nonpositive profit", 4),
    ("BMCP 1\n3 3 10\n4 5 6\n3 x 2\n", "invalid integer", 4),
    ("BMCP 1\n3 3 10\n4 5 6\n3 7 2\n2 1 2\n2 2 4\n2 1 3\n", "out of 1..3", 6),
    ("BMCP 1\n3 3 10\n4 5 6\n3 7 2\n2 1 2\n2 0 3\n2 1 3\n", "out of 1..3", 6),
    ("BMCP 1\n3 3 10\n4 5 6\n3 7 2\n2 2 1\n2 2 3\n2 1 3\n", "ascending", 5),
    ("BMCP 1\n3 3 10\n4 5 6\n3 7 2\n2 1 1\n2 2 3\n2 1 3\n", "ascending", 5),
    ("BMCP 1\n3 3 10\n4 5 6\n3 7 2\n2 1 2 3\n2 2 3\n2 1 3\n", "count mismatch", 5),
    ("BMCP 1\n3 3 10\n4 5 6\n3 7 2\n2 1\n2 2 3\n2 1 3\n", "count mismatch", 5),
    ("BMCP 1\n3 3 10\n4 5 6\n3 7 2\n2 1 2\n\n2 1 3\n", "count mismatch", 6),
    ("BMCP 1\n3 3 10\n4 5 6\n3 7 2\n2 1 2\n2 2 3\n", "end of file", 7),
    (TINY_TEXT + "stray\n", "trailing content", 8),
    ("BMCP 1\n2 3 10\n4611686018427387903 1\n", "weight total", 3),
    ("BMCP 1\n3 3 10\n4 5 6\n" + "4000000000000000000 " * 3, "profit total", 4),
    ("BMCP 1\n3 3 10\n4 5 6\n9300000000000000000 1 1\n", "profit total", 4),
    # Several bad coverage rows: the first offending row wins, and within a
    # row the first failing check (blank, integer, count, range, ascending).
    (H + "2 1 x\n2 2 3\n\n", "invalid integer", 5),
    (H + "2 1 9\n2 2 y\n2 1 3\n", "out of 1..3", 5),
    (H + "2 1 2\n2 3 2\n", "ascending", 6),
    (H + "3 1 2\n2 1 9\n2 1 3\n", "count mismatch", 5),
    (H + "2 1 2\n\n2 1 z\n", "count mismatch", 6),
    (H + "2 2 1\n2 1 2\n-1\n", "ascending", 5),
    (H + "2 1 99999999999999999999\n2 2 x\n", "index 99999999999999999999 out of", 5),
    (H + "-1\n2 2 x\n", "negative element count -1", 5),
]


@pytest.mark.parametrize("text,fragment,lineno", BAD_FILES)
def test_parse_errors_carry_line_numbers(text, fragment, lineno):
    with pytest.raises(FormatError) as err:
        bmcp.parse_instance(text)
    assert fragment in str(err.value)
    assert f"line {lineno}:" in str(err.value)
    assert err.value.line == lineno


# Breaks that str.splitlines() makes but a line count by "\n" does not.
SPLITLINES_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("char", SPLITLINES_BREAKS, ids=repr)
@pytest.mark.parametrize("where", ["inside", "line_end"])
def test_only_newline_ends_a_line(char, where):
    if where == "inside":
        text = TINY_TEXT.replace("4 5 6\n", f"4 5{char}6\n")
    else:
        text = TINY_TEXT.replace("2 1 2\n", f"2 1 2{char}\n")
    assert bmcp.parse_instance(text) == bmcp.parse_instance(TINY_TEXT)


def test_crlf_still_parses():
    text = TINY_TEXT.replace("\n", "\r\n")
    assert bmcp.parse_instance(text) == bmcp.parse_instance(TINY_TEXT)


def test_line_numbers_count_newlines_only():
    text = TINY_TEXT.replace("2 1 2\n", "2 1 2\v\n").replace("2 1 3\n", "2 1 x\n")
    with pytest.raises(FormatError) as err:
        bmcp.parse_instance(text)
    assert str(err.value) == "line 7: invalid integer 'x'"


def test_empty_row_warns():
    text = "BMCP 1\n2 2 10\n1 1\n1 1\n0\n2 1 2\n"
    with pytest.warns(InstanceWarning, match="empty coverage"):
        inst = bmcp.parse_instance(text)
    assert row_of(inst, 0).size == 0


def test_uncovered_element_warns():
    text = "BMCP 1\n2 3 10\n1 1\n1 1 1\n1 1\n1 2\n"
    with pytest.warns(InstanceWarning, match="no item"):
        bmcp.parse_instance(text)


def test_constructor_bounds_totals():
    rows = csr([[0], [1]])
    # Just below the bound is accepted.
    bmcp.Instance(
        weights=np.array([1, bmcp.instance.MAX_TOTAL - 2]),
        profits=np.array([bmcp.instance.MAX_TOTAL - 2, 1]),
        capacity=1, **rows,
    )
    for weights, profits in [
        ([1 << 61, 1 << 61], [1, 1]),
        ([1, 1], [1 << 61, 1 << 61]),
        ([1, 1], [1, 1 << 63]),
    ]:
        with pytest.raises(ValueError, match="total|int64"):
            bmcp.Instance(weights=weights, profits=profits, capacity=1, **rows)


@pytest.mark.parametrize(
    "message,kwargs",
    [
        ("weights must be integers", dict(weights=[1.5, 2.7])),
        ("weights must be integers", dict(weights=np.array([True, True]))),
        ("profits must be integers", dict(profits=[3.9])),
        ("capacity must be an integer", dict(capacity=1.9)),
        ("indices must be integers", dict(indices=[0.9, 0])),
        ("indptr must be integers", dict(indptr=[0.0, 1.0, 2.0])),
        (r"indptr must have shape \(3,\)", dict(indptr=[0, 2])),
        (r"indptr must have shape \(3,\)", dict(indptr=[[0, 1, 2]])),
        ("indptr must run from 0", dict(indptr=[1, 1, 2])),
        ("indptr must run from 0 to indices.size = 2", dict(indptr=[0, 1, 1])),
        ("indptr decreases", dict(indptr=[0, 3, 2])),
        ("indices must be 1-d", dict(indices=[[0], [0]])),
    ],
    ids=[
        "float_weights", "bool_weights", "float_profits", "float_capacity", "float_row",
        "float_indptr", "short_indptr", "2d_indptr", "indptr_start", "indptr_end",
        "indptr_decrease", "2d_indices",
    ],
)
def test_constructor_rejects_non_integers(message, kwargs):
    """Non-integer data and malformed CSR shapes are rejected."""
    data = dict(weights=[1, 2], profits=[3], capacity=1, **csr([[0], [0]]))
    with pytest.raises(ValueError, match=message):
        bmcp.Instance(**{**data, **kwargs})
    # An empty incidence reads as float64 and stays legal.
    bmcp.Instance(**{**data, "indptr": [0, 0, 0], "indices": []})


def test_constructor_owns_its_arrays(tiny):
    given = dict(
        weights=np.array([4, 5, 6]),
        profits=np.array([3, 7, 2]),
        **csr([[0, 1], [1, 2], [0, 2]]),
    )
    views = [arr[:] for arr in given.values()]
    inst = bmcp.Instance(capacity=10, **given)
    for arr, view in zip(given.values(), views):
        assert arr.flags.writeable
        view[0] = 1000
    assert inst == tiny


def test_density(tiny):
    assert tiny.indices.size / (tiny.m * tiny.n) == pytest.approx(6 / 9)


def test_incidence_matches_rows(tiny):
    dense = tiny.incidence.toarray()
    assert dense.tolist() == [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert tiny.incidence.dtype == np.int64


def test_row_profits_are_exact_past_the_int64_wrap():
    # Each of the 4 rows sums to 2^62 - 3, so the running sum over all
    # rows passes 2^63 and wraps.
    profits = [2**61 - 1, 2**61 - 2]
    inst = bmcp.Instance(
        weights=[1, 1, 1, 1], profits=profits, capacity=4, **csr([[0, 1]] * 4)
    )
    assert inst.row_profits.tolist() == [sum(profits)] * 4
    assert not inst.row_profits.flags.writeable
    value = SearchState(inst).value
    assert np.array_equal(value, inst.row_profits)
    assert value.flags.writeable and not np.shares_memory(value, inst.row_profits)
    assert pickle.loads(pickle.dumps(inst)).row_profits.tolist() == [sum(profits)] * 4


def test_states_on_copies_point_at_the_copies_arrays():
    inst = make_instance(30, 40, 0.1, 0.3, seed=2)
    sel = bmcp.random_fill(inst, np.random.default_rng(2))
    original = SearchState.from_selection(inst, sel)
    fields = ("indptr", "indices", "colptr", "colitems", "profits", "weights", "order")
    ours = {getattr(original.core, f) for f in fields}
    sizes = (inst.weights, inst.profits, inst.indptr, inst.indices)
    assert len(pickle.dumps(inst)) <= sum(a.nbytes for a in sizes) + 1024
    for other in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert other == inst and other.name == inst.name
        arrays = (
            other.indptr, other.indices, *other.csc, other.profits, other.weights, other.order
        )
        assert not any(a.flags.writeable for a in arrays)
        state = SearchState.from_selection(other, sel)
        core = [getattr(state.core, f) for f in fields]
        assert core == [a.ctypes.data for a in arrays]
        assert ours.isdisjoint(core)
        scans = [
            compiled_candidates(s, 1, 0, False)[0].tolist()
            for s in (original, state)
        ]
        assert scans[0] == scans[1] and scans[0]
        twin = original.copy()
        for s in (twin, state):
            s.apply(Flip(int(np.flatnonzero(sel)[0])))
        assert state.objective == twin.objective
        assert np.array_equal(state.value, twin.value)
        assert np.array_equal(state.coverage, twin.coverage)


def test_arrays_read_only(tiny):
    for arr in (tiny.weights, tiny.profits, tiny.indptr, tiny.indices):
        with pytest.raises(ValueError):
            arr[0] = 9


def test_selection_helpers(tiny):
    sel = bmcp.selection_from_items(3, [0, 2])
    assert sel.tolist() == [True, False, True]
    assert bmcp.total_weight(tiny, sel) == 10
    assert bmcp.full_objective(tiny, sel) == 12
    with pytest.raises(ValueError):
        bmcp.selection_from_items(3, [3])
    with pytest.raises(ValueError):
        bmcp.full_objective(tiny, np.zeros(4, dtype=bool))


def test_objective_values_from_fixture(tiny):
    cases = {(0,): 10, (1,): 9, (2,): 5, (0, 1): 12, (0, 2): 12, (1, 2): 12}
    for items, expected in cases.items():
        sel = bmcp.selection_from_items(3, items)
        assert bmcp.full_objective(tiny, sel) == expected
    assert bmcp.total_weight(tiny, bmcp.selection_from_items(3, (1, 2))) == 11


def test_instance_name_format():
    assert bmcp.instance_name(585, 600, 0.05, 2000) == "bmcp_585_600_0.05_2000"
    assert bmcp.instance_name(100, 100, 0.075, 1500) == "bmcp_100_100_0.075_1500"


class TestGenerator:
    SPEC = bmcp.GeneratorSpec(m=60, n=80, density=0.1, capacity=500, seed=11)

    def test_same_seed_bit_identical(self):
        a = bmcp.generate_instance(self.SPEC)
        b = bmcp.generate_instance(self.SPEC)
        assert a == b
        assert bmcp.write_instance(a) == bmcp.write_instance(b)

    def test_seed_changes_instance(self):
        import dataclasses

        a = bmcp.generate_instance(self.SPEC)
        b = bmcp.generate_instance(dataclasses.replace(self.SPEC, seed=12))
        assert a != b

    def test_ranges_and_name(self):
        inst = bmcp.generate_instance(self.SPEC)
        assert inst.name == "bmcp_60_80_0.1_500"
        assert inst.weights.min() >= 1 and inst.weights.max() <= 100
        assert inst.profits.min() >= 1 and inst.profits.max() <= 100
        narrow = bmcp.GeneratorSpec(
            m=20, n=20, density=0.2, capacity=50,
            weight_range=(5, 7), profit_range=(30, 30), seed=0,
        )
        inst = bmcp.generate_instance(narrow)
        assert inst.weights.min() >= 5 and inst.weights.max() <= 7
        assert (inst.profits == 30).all()

    def test_repair_leaves_no_degenerate_rows(self):
        # Density this low leaves most rows and columns empty before repair.
        spec = bmcp.GeneratorSpec(m=50, n=50, density=0.002, capacity=100, seed=3)
        inst = bmcp.generate_instance(spec)
        assert all(row_of(inst, i).size >= 1 for i in range(inst.m))
        covered = np.zeros(inst.n, dtype=bool)
        for i in range(inst.m):
            covered[row_of(inst, i)] = True
        assert covered.all()

    def test_chunked_draws_keep_the_one_call_bits(self):
        # 1.1M cells span two draw chunks; the digest was recorded when the
        # generator drew every cell in one rng.random call.
        spec = bmcp.GeneratorSpec(m=1100, n=1000, density=0.005, capacity=500, seed=8)
        text = bmcp.write_instance(bmcp.generate_instance(spec))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "fad72e2f7b529b58"

    def test_generator_memory_stays_near_the_cell_matrix(self):
        # 4096 x 4096 cells are a 16 MiB bool matrix; one float64 draw of
        # them all would be 128 MiB.
        spec = bmcp.GeneratorSpec(m=4096, n=4096, density=0.01, capacity=100, seed=1)
        tracemalloc.start()
        try:
            bmcp.generate_instance(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_realized_density_tracks_request(self):
        spec = bmcp.GeneratorSpec(m=200, n=200, density=0.08, capacity=100, seed=5)
        inst = bmcp.generate_instance(spec)
        realized = inst.indices.size / (inst.m * inst.n)
        assert abs(realized - 0.08) / 0.08 < 0.15

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0, n=5, density=0.1, capacity=10),
            dict(m=5, n=0, density=0.1, capacity=10),
            dict(m=5, n=5, density=0.0, capacity=10),
            dict(m=5, n=5, density=1.0, capacity=10),
            dict(m=5, n=5, density=0.1, capacity=0),
            dict(m=5, n=5, density=0.1, capacity=10, weight_range=(0, 10)),
            dict(m=5, n=5, density=0.1, capacity=10, profit_range=(9, 3)),
            dict(m=1 << 14, n=1 << 14, density=0.1, capacity=10),
            dict(m=5, n=5, density=0.1, capacity=10, seed=-1),
            dict(m=4, n=5, density=0.1, capacity=10, weight_range=(1, 1 << 60)),
            dict(m=5, n=4, density=0.1, capacity=10, profit_range=(1, 1 << 60)),
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ConfigError):
            bmcp.GeneratorSpec(**kwargs)


# Property tests: few small examples each, since the tier-1 run is long.
PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def raw_rows(draw, m, n):
    """Coverage rows in any order, with repeats and empty rows."""
    return tuple(
        draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) for _ in range(m)
    )


@st.composite
def instances(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return bmcp.Instance(
        weights=draw(st.lists(st.integers(1, 100), min_size=m, max_size=m)),
        profits=draw(st.lists(st.integers(1, 100), min_size=n, max_size=n)),
        capacity=draw(st.integers(0, 300)),
        **csr(draw(raw_rows(m, n))),
    )


@st.composite
def split_total(draw, total):
    """1 to 4 positive integers summing to ``total``."""
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=3)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@PROPERTY
@given(instances())
def test_text_roundtrip_property(inst):
    text = bmcp.write_instance(inst)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InstanceWarning)
        again = bmcp.parse_instance(text)
    assert again == inst
    assert bmcp.write_instance(again) == text


@PROPERTY
@given(st.data())
def test_constructor_canonicalises_rows_property(data):
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    rows = data.draw(raw_rows(m, n))
    inst = bmcp.Instance(weights=[1] * m, profits=[1] * n, capacity=1, **csr(rows))
    expected = bmcp.Instance(
        weights=[1] * m, profits=[1] * n, capacity=1,
        **csr([np.unique(np.asarray(r, dtype=np.int64)) for r in rows]),
    )
    assert inst == expected
    for i, want in enumerate(rows):
        row = row_of(inst, i)
        assert row.tolist() == sorted(set(want))
        assert not row.flags.writeable
    assert inst.indptr.tolist() == [0, *np.cumsum([len(set(r)) for r in rows])]


def _bound_case(label, values):
    """Instance data and text with ``values`` as the weights or profits."""
    weights = values if label == "weight" else [1]
    profits = values if label == "profit" else [1]
    text = (
        f"BMCP 1\n{len(weights)} {len(profits)} 1\n"
        + " ".join(map(str, weights)) + "\n"
        + " ".join(map(str, profits)) + "\n"
        + "1 1\n" * len(weights)
    )
    return dict(weights=weights, profits=profits, capacity=1, **csr([[0]] * len(weights))), text


@PROPERTY
@given(st.sampled_from(["weight", "profit"]), split_total(MAX_TOTAL - 1))
def test_totals_below_bound_accepted_property(label, values):
    data, text = _bound_case(label, values)
    inst = bmcp.Instance(**data)
    assert int(getattr(inst, f"{label}s").sum()) == MAX_TOTAL - 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InstanceWarning)
        assert bmcp.parse_instance(text) == inst


@PROPERTY
@given(st.sampled_from(["weight", "profit"]), split_total(MAX_TOTAL))
def test_totals_at_bound_rejected_property(label, values):
    data, text = _bound_case(label, values)
    with pytest.raises(ValueError, match=f"{label} total"):
        bmcp.Instance(**data)
    with pytest.raises(FormatError, match=f"{label} total") as err:
        bmcp.parse_instance(text)
    assert err.value.line == (3 if label == "weight" else 4)
