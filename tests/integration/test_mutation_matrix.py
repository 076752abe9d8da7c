"""The fault-injection matrix end to end: every operator must be caught.

This is the PR's central claim made executable: for each registered
mutation operator — across the metric, derivation, certificate,
refinement, analysis, serving and codegen trust layers — some checker
or oracle demonstrably rejects the mutant.  A surviving operator is a
soundness gap in a checker, so this test failing is never noise.
"""

import pytest

from repro.testing.campaign import CampaignConfig, run_campaign
from repro.testing.faults import (UnknownFaultError, operators,
                                  run_mutation_matrix)
from repro.testing.oracles import SeedVerdict
from repro.testing.shrink import shrink_failure

#: A small corpus with every kind of site the operators need — plain
#: loops, a linear and a logarithmic recursion (parametric certificates
#: for the recursion operators), and a devirtualized dispatch program —
#: while keeping the test inside CI budgets.
CATALOG = ("mibench/bitcount.c", "mibench/crc32.c", "recursive/recid.c",
           "recursive/bsearch.c", "funcptr/dispatch.c")
SEEDS = range(0, 3)


@pytest.fixture(scope="module")
def report():
    return run_mutation_matrix(catalog=CATALOG, seeds=SEEDS)


class TestMatrix:
    def test_every_operator_is_detected(self, report):
        gaps = [f"{o.operator} ({o.layer}): {o.diagnostic}"
                for o in report.undetected]
        assert not gaps, "undetected mutation operators:\n" + "\n".join(gaps)

    def test_matrix_covers_the_whole_registry(self, report):
        assert {o.operator for o in report.outcomes} == \
            {op.name for op in operators()}
        assert len(report.outcomes) >= 12  # the issue's floor

    def test_report_names_the_catching_checker(self, report):
        for outcome in report.outcomes:
            assert outcome.caught_by, outcome.operator
            assert outcome.detected_on, outcome.operator
            assert outcome.diagnostic, outcome.operator

    def test_layer_detection_routes(self, report):
        by_name = {o.operator: o for o in report.outcomes}
        # Metric corruption is observable only where weights meet the
        # machine: the bound oracles.
        for o in report.outcomes:
            if o.layer == "metric":
                assert o.caught_by in ("bound-soundness", "bound-tightness",
                                       "weight-monotonicity"), o.operator
            elif o.layer in ("derivation", "certificate"):
                assert o.caught_by == "check-cert", o.operator
        # The dropped trailing ret is the operator that *forced* the
        # converged-trace emptiness check; pin its route.
        assert by_name["ret-drop"].caught_by == "well-bracketing"
        assert by_name["io-drop"].caught_by == "pruned-trace"
        # The recursion operators must land on the parametric corpus
        # entries, and the widened candidate set is only observable
        # differentially (the widened analysis still checks).
        assert by_name["rec-depth-off-by-one"].detected_on.startswith(
            "recursive/")
        assert by_name["rec-base-guard-drop"].detected_on == \
            "recursive/bsearch.c"
        assert by_name["values-candidate-widen"].caught_by == \
            "values-differential"
        # The vector comparator's reference oracle needs no z3.
        assert by_name["sampled-grid-truncate"].caught_by == "sample-oracle"

    def test_report_serializes(self, report):
        import json

        data = json.loads(json.dumps(report.as_json()))
        assert data["operators"] == len(report.outcomes)
        assert data["undetected"] == []


class TestPlantFailFast:
    """An unknown plant name must fail before any seed runs (satellite)."""

    def test_campaign_rejects_unknown_plant_up_front(self):
        config = CampaignConfig(seeds=5, plant="drop-sp", cache_dir=None)
        with pytest.raises(UnknownFaultError, match="drop-sp"):
            run_campaign(config)

    def test_shrink_rejects_unknown_plant_up_front(self):
        failing = SeedVerdict(seed=0, ok=False, oracle="bound-soundness",
                              ablation="default", detail="synthetic")
        with pytest.raises(UnknownFaultError, match="known plants"):
            shrink_failure(failing, plant="drop-sp")
