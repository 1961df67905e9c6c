import numpy as np

import bmcp
from conftest import csr, make_instance, solve_lp_text

TINY_LP = """\
Maximize
 obj: 3 x1 + 7 x2 + 2 x3
Subject To
 capacity: 4 y1 + 5 y2 + 6 y3 <= 10
 cover_1: x1 - y1 - y3 <= 0
 cover_2: x2 - y1 - y2 <= 0
 cover_3: x3 - y2 - y3 <= 0
Binary
 y1 y2 y3 x1 x2 x3
End
"""


def test_tiny_rendering_is_canonical(tiny):
    assert bmcp.export_lp(tiny) == TINY_LP


def test_structure_counts():
    inst = make_instance(30, 40, 0.1, 0.4, seed=5)
    text = bmcp.export_lp(inst)
    lines = text.splitlines()
    assert lines[0] == "Maximize"
    assert lines[-1] == "End"
    cover_rows = [l for l in lines if l.lstrip().startswith("cover_")]
    assert len(cover_rows) == inst.n
    assert sum(l.lstrip().startswith("capacity:") for l in lines) == 1
    binary_names = " ".join(
        lines[lines.index("Binary") + 1 : lines.index("End")]
    ).split()
    assert len(binary_names) == inst.m + inst.n
    assert len(set(binary_names)) == inst.m + inst.n


def test_long_rows_wrap():
    inst = make_instance(30, 40, 0.1, 0.4, seed=5)
    lines = bmcp.export_lp(inst).splitlines()
    continuations = [l for l in lines if l.startswith("   + ")]
    # 30 capacity terms and 40 objective terms wrap at 8 per line.
    assert len(continuations) >= 7
    assert max(len(l) for l in lines) < 120


def test_uncovered_element_row():
    inst = bmcp.Instance(
        weights=np.array([2]),
        profits=np.array([5, 9]),
        capacity=4,
        **csr([[0]]),
    )
    text = bmcp.export_lp(inst)
    assert " cover_2: x2 <= 0" in text.splitlines()
    assert solve_lp_text(text) == 5


def test_brute_force_of_rendered_text_matches_oracle():
    for seed in (1, 2, 3):
        inst = make_instance(12, 15, 0.2, 0.45, seed=seed)
        assert solve_lp_text(bmcp.export_lp(inst)) == bmcp.exact_optimum(inst)[0]
