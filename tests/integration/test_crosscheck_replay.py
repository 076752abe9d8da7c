"""Cross-backend replay of the golden bounds (the differential suite).

Re-derives the catalog and golden-snapshot bounds with
``--bounds-backend=cross`` semantics: every ``bound_le`` the analyzer and
checker discharge runs through the agree-or-fail comparator in
``repro.logic.smt``.  Any :class:`ComparatorDisagreement` fails the test
outright, and the resulting bounds must still match the golden JSON —
the cross-check is a check, never an answer-changer.

Without z3 installed this exercises the FM-plus-audits degradation; the
``bounds-crosscheck`` CI job runs the same tests with z3 for the full
differential.
"""

import json
import os

import pytest

from repro.driver import verify_stack_bounds
from repro.logic import bexpr
from repro.logic.bexpr import param_names
from repro.programs.catalog import FUNCPTR, RECURSIVE, TABLE1
from repro.programs.loader import load_source

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "golden",
                      "inferred_bounds.json")

#: Mirrors test_golden_bounds.INFERRED_AT (kept local: the integration
#: test directory is not a package, so there is nothing to import from).
INFERRED_AT = 100


@pytest.fixture(autouse=True)
def cross_backend():
    bexpr.set_default_backend("cross")
    try:
        yield
    finally:
        bexpr.set_default_backend("fm")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


class TestGoldenReplayUnderCross:
    """The inferred-bounds snapshot reproduces under the cross backend."""

    @pytest.mark.parametrize("path", RECURSIVE + FUNCPTR)
    def test_inferred_bounds_reproduce(self, path, golden):
        assert path in golden, f"{path} missing from {GOLDEN}"
        bounds = verify_stack_bounds(load_source(path), filename=path)
        expected = golden[path]
        for name in sorted(bounds.analysis.functions):
            expr = bounds.symbolic(name)
            assert repr(expr) == expected["symbolic"][name], name
            params = {p: INFERRED_AT for p in param_names(expr)}
            assert int(bounds.bytes(name, params or None)) == \
                expected[f"bytes_at_{INFERRED_AT}"][name], name
        assert int(bounds.stack_requirement()) == \
            expected["stack_requirement"]


class TestCatalogReplayUnderCross:
    """Every catalog derivation re-checks with the cross comparator."""

    @pytest.mark.parametrize("entry", TABLE1, ids=lambda e: e.path)
    def test_catalog_program_checks(self, entry):
        bounds = verify_stack_bounds(load_source(entry.path),
                                     filename=entry.path,
                                     macros=entry.macros)
        report = bounds.analysis.check(bounds_backend="cross")
        assert report.nodes > 0
        assert int(bounds.stack_requirement()) >= 0

    def test_paper_example_sampled_verdicts_match_the_reference(self):
        # Under cross, every sampled verdict is re-decided point by point
        # (the sample oracle); with the RECURSIVE replay above this covers
        # every sampled query the catalog makes.
        bounds = verify_stack_bounds(load_source("paper_example.c"),
                                     filename="paper_example.c")
        report = bounds.analysis.check(bounds_backend="cross")
        assert report.sampled_conditions > 0
