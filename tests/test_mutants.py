"""Mutation gate for the compiled kernel.

Each edit in ``MUTANTS`` changes ``_scan.c`` in one place. The package's
own loader builds the kernel it makes, with a copy of the module source,
into a directory of its own, and the module is set as ``bmcp._native.lib``;
then the two ``hypothesis`` properties of ``test_state``, run fail-fast,
must fail on it. A mutant of the tie-break ``draw`` fails the draw test instead, on a
draw library built from the mutated source. The unedited kernel must pass
the same harness.
"""

import shutil

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import test_native
import test_state
from bmcp import _native

# (name, old text, new text); each old text occurs in _scan.c exactly once.
MUTANTS = [
    ("flip: the 1<->2 update takes the flipped item",
     "if (s->selection[b] & (b != item)) {", "if (s->selection[b]) {"),
    ("scan: the feasible prefix stops at an exact fit",
     "if (s->weights[b] > limit)\n                break;\n            int64_t d",
     "if (s->weights[b] >= limit)\n                break;\n            int64_t d"),
    ("scan: the ties are not sorted back",
     "qsort(s->ties + nin, (size_t)(count - nin), sizeof *s->ties, by_code);", ";"),
    ("scan: a flip-in aspirates at an equal delta",
     "| (d > threshold)), b);", "| (d >= threshold)), b);"),
    ("move: a swap to an exact fit exceeds the budget",
     "if (s->weight + (w[b] - w[a]) > s->budget)", "if (s->weight + (w[b] - w[a]) >= s->budget)"),
    ("draw: no rejection loop",
     "while (leftover < threshold) {", "while (0) {"),
]

# Stop at the first failing example: no shrinking, no second bug.
FAIL_FAST = dict(phases=[Phase.explicit, Phase.generate], report_multiple_bugs=False,
                 deadline=None, derandomize=True, database=None)


def _property(test, *strategies, max_examples):
    """``test``'s own body under ``strategies``, run fail-fast."""
    inner = test.hypothesis.inner_test
    return settings(max_examples=max_examples, **FAIL_FAST)(given(*strategies)(inner))


PROPERTIES = {
    "moves and picks": _property(
        test_state.test_random_moves_and_picks_match_the_reference,
        test_state.two_feasible_selections(), st.data(), max_examples=150,
    ),
    "refill": _property(
        test_state.test_refill_between_feasible_selections_matches_rebuild,
        test_state.two_feasible_selections(), max_examples=300,
    ),
}
GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]


def _mutated(old, new):
    text = _native.SOURCE.read_text()
    assert text.count(old) == 1, old
    return text.replace(old, new)


def _build(where, kernel, monkeypatch):
    """The extension module of the ``_scan.c`` at ``kernel``, built and
    imported by the package's own loader from a copy of its module source
    beside ``kernel``, cached in ``where``."""
    module_source = where / _native.MODULE_SOURCE.name
    shutil.copyfile(_native.MODULE_SOURCE, module_source)
    monkeypatch.setattr(_native, "MODULE_SOURCE", module_source)
    monkeypatch.setattr(_native, "SOURCES", (module_source, kernel))
    monkeypatch.setattr(_native, "CACHE_DIR", where)
    return _native.load()


def _first_failure(where, kernel, draws, monkeypatch):
    """The name of the first check that fails on ``kernel``, the text of a
    ``_scan.c``, or None: the properties, or with ``draws`` the draw test
    per generator."""
    source = where / _native.SOURCE.name
    source.write_text(kernel)
    if draws:
        draw_of = test_native.build_draw(where, source)
        checks = {
            name: lambda name=name: test_native.test_kernel_draw_is_generator_integers(
                name, draw_of)
            for name in GENERATORS
        }
    else:
        monkeypatch.setattr(_native, "lib", _build(where, source, monkeypatch))
        checks = PROPERTIES
    for name, check in checks.items():
        try:
            check()
        except Exception:  # any failure kills the mutant
            return name
    return None


@pytest.mark.parametrize("draws", [False, True], ids=["properties", "draw"])
def test_the_unedited_kernel_passes_the_gate(draws, tmp_path, monkeypatch):
    assert _first_failure(tmp_path, _native.SOURCE.read_text(), draws, monkeypatch) is None


@pytest.mark.parametrize("name,old,new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_every_mutant_fails_the_gate(name, old, new, tmp_path, monkeypatch):
    draws = name.startswith("draw:")
    assert _first_failure(tmp_path, _mutated(old, new), draws, monkeypatch) is not None
