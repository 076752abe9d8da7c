"""Fault injection for the certificate checker and the campaign oracles.

A self-certifying analyzer is only as trustworthy as the faults its
checker has been *demonstrated* to reject.  This module generalizes the
campaign's one-off ``--plant drop-ra`` self-test into a registry of
mutation operators, one per way an artifact in the trust chain can lie,
organized by the layer it attacks:

``metric``
    The compiler-produced cost metric ``M(f) = SF(f) + 4`` is corrupted
    (return-address bytes dropped, a frame shrunk or mis-aligned).  The
    mutant metric flows through ``check_seed``'s ``plant`` hook exactly
    like the historical ``drop-ra`` plant and must be flagged by the
    bound oracles.
``derivation``
    The quantitative-logic derivation inside a certificate is corrupted
    (a constant potential decremented, postcondition slots swapped
    between rule applications, a Q:FRAME premise dropped, a Q:CALL
    retargeted).  ``load_certificate`` must reject the mutant.
``certificate``
    The wire format itself is corrupted (``total_bound``/``frame``/
    ``spec`` fields, truncated rule tree, version skew, malformed JSON,
    certificate replayed against the wrong program).  ``load_certificate``
    must reject the mutant with a diagnostic — never a crash.
``refinement``
    The event trace the refinement oracles consume is corrupted
    (``call(f)``/``ret(f)`` dropped or duplicated, an I/O event
    dropped).  The bracketing / pruned-trace / all-metrics-domination
    oracles must reject the mutant.
``analysis``
    The analyzer front half lies (``repro.analyzer``): the value
    analysis widens a function pointer's candidate set beyond what the
    program can express.  The widened analysis is still *sound* — more
    candidates only raise the max — so no checker can reject it; only a
    differential against an independent analysis of the same source
    (golden snapshots, the Table 2 manual specs) observes the inflated
    bound.  Self-contained scenario, like the serving layer.
``serving``
    The serving path lies (``repro.serve``): a content-addressed store
    entry is substituted with another key's bytes, a response JSON is
    truncated on the wire, a worker dies mid-request.  The store's
    integrity check, the response schema validator, and the pool's
    per-request timeout respectively must turn each into a diagnosed
    failure — a stale entry is never served, a truncated response is
    never consumed, a dead worker never hangs or drops a request.
    These operators are self-contained scenarios: ``apply()`` takes no
    arguments and returns ``(detected, caught_by, diagnostic)``.
``codegen``
    The generated-Python execution tier miscompiles (``repro.asm.codegen``):
    a fused cmp+branch jumps to the wrong arm, a fused push+call drops
    the ESP adjustment, a superinstruction folds a stale constant.  Each
    operator flips the tier's ``_MISCOMPILE`` knob on a hand-built
    program that is guaranteed to contain the fusion site and the
    decoded differential oracle must observe the divergence (return
    code, trace, watermark or failure reason).  Self-contained
    scenarios, like the serving layer.
``comparator``
    The bound-order decision procedure lies (``repro.logic.bexpr``):
    Fourier-Motzkin builds a wrong failure region, or the sampled
    procedure drops the last point of its grid.  The ``cross`` backend
    (``repro.logic.smt``) must flag the flipped verdict.  Self-contained
    scenarios, like the serving layer.

``run_mutation_matrix`` applies every registered operator to artifacts
produced from catalog programs and generated seeds and reports, per
operator, whether a checker caught it, which one did, and after how many
attempts.  An operator that survives undetected is a soundness gap in
the checker — the matrix exists to keep that set empty.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.events.metrics import StackMetric
from repro.events.trace import (CallEvent, Event, IOEvent, ReturnEvent,
                                is_well_bracketed, prune)
from repro.logic.bexpr import (BConst, BFrameDiff, BMetric, BMul, BParam,
                               BScale, CompareResult, badd, bmax)

LAYERS = ("metric", "derivation", "certificate", "refinement", "analysis",
          "serving", "codegen", "comparator")


class UnknownFaultError(ValueError):
    """An operator (or ``--plant``) name that is not in the registry."""


@dataclass(frozen=True)
class FaultOperator:
    """One registered mutation operator.

    ``apply``'s signature depends on the layer: metric operators map a
    ``Compilation`` to a corrupted :class:`StackMetric`; derivation and
    certificate operators map certificate JSON text to mutated text (or
    ``None`` when the certificate has no applicable site); refinement
    operators map an event trace to a mutated trace (or ``None``).
    """

    name: str
    layer: str
    description: str
    apply: Callable
    #: Certificate operators only: the (unmutated) certificate must be
    #: rejected when checked against a *different* program.
    cross_program: bool = False


_REGISTRY: dict[str, FaultOperator] = {}


def _register(name: str, layer: str, description: str,
              cross_program: bool = False):
    if layer not in LAYERS:
        raise ValueError(f"unknown fault layer {layer!r}")

    def decorator(function: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"duplicate fault operator {name!r}")
        _REGISTRY[name] = FaultOperator(name, layer, description, function,
                                        cross_program=cross_program)
        return function

    return decorator


def operators(layer: Optional[str] = None) -> list[FaultOperator]:
    """All registered operators, optionally restricted to one layer."""
    ops = list(_REGISTRY.values())
    if layer is not None:
        ops = [op for op in ops if op.layer == layer]
    return ops


def get_operator(name: str) -> FaultOperator:
    op = _REGISTRY.get(name)
    if op is None:
        raise UnknownFaultError(
            f"unknown fault operator {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}")
    return op


def metric_fault_names() -> list[str]:
    """The operator names valid as campaign ``plant`` values."""
    return [op.name for op in operators("metric")]


def validate_plant(plant: Optional[str]) -> None:
    """Fail fast on a bad ``--plant`` name (before any seed runs).

    The campaign and the shrinker call this up front so a typo surfaces
    as an immediate :class:`UnknownFaultError` instead of blowing up a
    worker mid-seed.
    """
    if plant is None:
        return
    op = _REGISTRY.get(plant)
    if op is None or op.layer != "metric":
        raise UnknownFaultError(
            f"unknown planted bug {plant!r}; known plants: "
            f"{', '.join(metric_fault_names())}")


def apply_metric_fault(plant: str, compilation) -> StackMetric:
    """The corrupted metric for one plant name (validates the name)."""
    validate_plant(plant)
    return _REGISTRY[plant].apply(compilation)


# ---------------------------------------------------------------------------
# Metric operators: M(f) = SF(f) + 4 corrupted at the compiler boundary
# ---------------------------------------------------------------------------


@_register("drop-ra", "metric",
           "forget the 4 return-address bytes: M(f) = SF(f)")
def _drop_ra(compilation) -> StackMetric:
    return StackMetric(dict(compilation.frame_sizes))


@_register("shrink-frame", "metric",
           "under-report main's frame by 8 bytes in the metric")
def _shrink_frame(compilation) -> StackMetric:
    costs = compilation.metric.as_dict()
    main = compilation.asm.main
    costs[main] = max(0, costs[main] - 8)
    return StackMetric(costs)


@_register("misalign-frame", "metric",
           "mis-align main's frame: its metric cost loses 2 bytes")
def _misalign_frame(compilation) -> StackMetric:
    costs = compilation.metric.as_dict()
    main = compilation.asm.main
    costs[main] = max(0, costs[main] - 2)
    return StackMetric(costs)


# ---------------------------------------------------------------------------
# Certificate JSON helpers
# ---------------------------------------------------------------------------


def _walk_nodes(node: dict):
    """All derivation nodes of one tree, preorder."""
    yield node
    for child in node.get("children", ()):
        yield from _walk_nodes(child)


def _walk_with_parent(node: dict, parent: Optional[dict] = None,
                      index: int = 0):
    yield node, parent, index
    for i, child in enumerate(node.get("children", ())):
        yield from _walk_with_parent(child, node, i)


def _all_nodes(data: dict):
    for entry in data["functions"].values():
        yield from _walk_nodes(entry["derivation"])


def _mutate_json(text: str, mutate: Callable[[dict], bool]) -> Optional[str]:
    """Parse, apply ``mutate`` (returns applicability), re-serialize."""
    data = json.loads(text)
    if not mutate(data):
        return None
    return json.dumps(data, indent=1)


# ---------------------------------------------------------------------------
# Derivation operators: the proof tree lies
# ---------------------------------------------------------------------------


@_register("const-decrement", "derivation",
           "decrement a constant potential in a function spec")
def _const_decrement(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        for entry in data["functions"].values():
            pre = entry["spec"]["pre"]
            if pre.get("k") == "const" and pre["v"] != "inf":
                pre["v"] -= 1
                return True
        return False

    return _mutate_json(text, mutate)


@_register("post-slot-swap", "derivation",
           "swap the return postcondition slot between two rule "
           "applications")
def _post_slot_swap(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        roots = [entry["derivation"] for entry in data["functions"].values()]
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                if json.dumps(a["post"][2]) != json.dumps(b["post"][2]):
                    a["post"][2], b["post"][2] = b["post"][2], a["post"][2]
                    return True
        return False

    return _mutate_json(text, mutate)


@_register("frame-premise-drop", "derivation",
           "delete a Q:FRAME application, splicing in its premise")
def _frame_premise_drop(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        for entry in data["functions"].values():
            for node, parent, index in _walk_with_parent(entry["derivation"]):
                if node.get("rule") == "Q:FRAME" and node.get("children"):
                    child = node["children"][0]
                    if parent is None:
                        entry["derivation"] = child
                    else:
                        parent["children"][index] = child
                    return True
        return False

    return _mutate_json(text, mutate)


@_register("call-retarget", "derivation",
           "retarget a Q:CALL node at a different callee spec")
def _call_retarget(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        names = sorted(data["functions"])
        for node in _all_nodes(data):
            if node.get("rule") == "Q:CALL":
                others = [n for n in names if n != node["callee"]]
                node["callee"] = (others[0] if others
                                  else node["callee"] + "__ghost")
                return True
        return False

    return _mutate_json(text, mutate)


@_register("rec-depth-off-by-one", "derivation",
           "bump a recursive call's measure argument by one, so the "
           "callee is entered one level deeper than accounted")
def _rec_depth_off_by_one(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        for node in _all_nodes(data):
            if node.get("rule") == "Q:CALL" and node.get("spec_args"):
                name = sorted(node["spec_args"])[0]
                node["spec_args"][name] = {
                    "k": "add",
                    "items": [node["spec_args"][name],
                              {"k": "const", "v": 1}]}
                return True
        return False

    return _mutate_json(text, mutate)


# ---------------------------------------------------------------------------
# Certificate operators: the wire format lies
# ---------------------------------------------------------------------------


@_register("total-bound-corrupt", "certificate",
           "replace a total_bound field with the zero bound")
def _total_bound_corrupt(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        for entry in data["functions"].values():
            total = entry["total_bound"]
            if not (total.get("k") == "const" and total.get("v") == 0):
                entry["total_bound"] = {"k": "const", "v": 0}
                return True
        return False

    return _mutate_json(text, mutate)


@_register("frame-negative", "certificate",
           "replace a Q:FRAME frame constant with a negative constant")
def _frame_negative(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        for node in _all_nodes(data):
            if node.get("rule") == "Q:FRAME":
                node["frame"] = {"k": "const", "v": -4}
                return True
        return False

    return _mutate_json(text, mutate)


@_register("spec-corrupt", "certificate",
           "rewrite a function spec to claim zero stack need")
def _spec_corrupt(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        for entry in data["functions"].values():
            spec = entry["spec"]
            if spec["pre"].get("k") != "const" or spec["pre"].get("v") != 0:
                spec["pre"] = {"k": "const", "v": 0}
                spec["post"] = {"k": "const", "v": 0}
                return True
        return False

    return _mutate_json(text, mutate)


@_register("rule-tree-truncate", "certificate",
           "delete the last premise of a rule application")
def _rule_tree_truncate(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        for node in _all_nodes(data):
            if node.get("children"):
                node["children"] = node["children"][:-1]
                if not node["children"]:
                    del node["children"]
                return True
        return False

    return _mutate_json(text, mutate)


@_register("version-skew", "certificate",
           "bump the certificate format version past the checker's")
def _version_skew(text: str) -> Optional[str]:
    def mutate(data: dict) -> bool:
        data["version"] = data.get("version", 0) + 1
        return True

    return _mutate_json(text, mutate)


@_register("json-malform", "certificate",
           "truncate the certificate text mid-JSON")
def _json_malform(text: str) -> Optional[str]:
    return text[:len(text) // 2]


@_register("wrong-program", "certificate",
           "replay an intact certificate against a different program",
           cross_program=True)
def _wrong_program(text: str) -> Optional[str]:
    return text  # the harness swaps the program, not the certificate


@_register("rec-base-guard-drop", "certificate",
           "widen a verification domain below the recursion's "
           "base-case guard")
def _rec_base_guard_drop(text: str) -> Optional[str]:
    # Only domains whose minimum is >= 2 encode a base-case guard worth
    # dropping (log-shaped recursions stop at n <= 1); below that point
    # the claimed potential no longer covers the recursive branch, so
    # the checker's Q:FRAME domination re-check must fail at the
    # inserted instance.
    def mutate(data: dict) -> bool:
        domains = data.get("param_domains")
        if not domains:
            return False
        for name in sorted(domains):
            values = domains[name]
            if values and min(values) >= 2:
                domains[name] = [min(values) - 1] + values
                return True
        return False

    return _mutate_json(text, mutate)


# ---------------------------------------------------------------------------
# Refinement operators: the event trace lies
# ---------------------------------------------------------------------------


def _drop_at(trace: Sequence[Event], index: int) -> tuple:
    return tuple(trace[:index]) + tuple(trace[index + 1:])


def _dup_at(trace: Sequence[Event], index: int) -> tuple:
    return tuple(trace[:index + 1]) + tuple(trace[index:])


def _first_index(trace: Sequence[Event], kind: type) -> Optional[int]:
    for index, event in enumerate(trace):
        if isinstance(event, kind):
            return index
    return None


def _last_index(trace: Sequence[Event], kind: type) -> Optional[int]:
    for index in range(len(trace) - 1, -1, -1):
        if isinstance(trace[index], kind):
            return index
    return None


@_register("call-drop", "refinement",
           "delete a call(f) event, orphaning its ret(f)")
def _call_drop(trace: Sequence[Event]) -> Optional[tuple]:
    index = _first_index(trace, CallEvent)
    return None if index is None else _drop_at(trace, index)


@_register("ret-drop", "refinement",
           "delete the final ret(f) event, leaving a frame open at exit")
def _ret_drop(trace: Sequence[Event]) -> Optional[tuple]:
    index = _last_index(trace, ReturnEvent)
    return None if index is None else _drop_at(trace, index)


@_register("call-duplicate", "refinement",
           "duplicate a call(f) event, opening a phantom frame")
def _call_duplicate(trace: Sequence[Event]) -> Optional[tuple]:
    index = _first_index(trace, CallEvent)
    return None if index is None else _dup_at(trace, index)


@_register("ret-duplicate", "refinement",
           "duplicate a ret(f) event, popping a frame twice")
def _ret_duplicate(trace: Sequence[Event]) -> Optional[tuple]:
    index = _last_index(trace, ReturnEvent)
    return None if index is None else _dup_at(trace, index)


@_register("io-drop", "refinement",
           "delete an observable I/O event from the trace")
def _io_drop(trace: Sequence[Event]) -> Optional[tuple]:
    index = _first_index(trace, IOEvent)
    return None if index is None else _drop_at(trace, index)


def refinement_oracles_reject(mutant: Sequence[Event],
                              reference: Sequence[Event]
                              ) -> tuple[bool, str, str]:
    """Run a mutated trace through the oracles a converged execution must
    satisfy against its reference; returns ``(rejected, oracle, detail)``.

    The checks mirror the campaign's trace oracles: full well-bracketing
    (a converged behavior closes every frame), the pruned I/O-trace
    equality of classic refinement, and the all-metrics structural
    domination of the quantitative refinement.
    """
    from repro.events.refinement import dominates_for_all_metrics

    mutant = tuple(mutant)
    reference = tuple(reference)
    if not is_well_bracketed(mutant, require_empty=True):
        return True, "well-bracketing", "call/ret events do not nest"
    if prune(mutant) != prune(reference):
        return True, "pruned-trace", "pruned I/O traces differ"
    if not dominates_for_all_metrics(mutant, reference):
        return (True, "all-metrics-domination",
                "trace not pointwise dominated for all metrics")
    return False, "", ""


# ---------------------------------------------------------------------------
# Analysis operators: the analyzer front half lies (see repro.analyzer)
# ---------------------------------------------------------------------------

#: Dispatch program where value analysis precision is load-bearing: only
#: ``light`` flows into ``pick``'s function pointer, so a widened
#: candidate set (adding ``heavy``, address-taken elsewhere) inflates
#: ``pick``'s bound by ``heavy``'s much larger frame.
_VALUES_SOURCE = (
    "int light(int x) { return x + 1; }\n"
    "int heavy(int x) { int a[32]; a[x & 31] = x; return a[0]; }\n"
    "int pick(int x) { int (*f)(int) = light; return f(x); }\n"
    "int main(void) { int (*g)(int) = heavy; return g(pick(3)); }\n")


@_register("values-candidate-widen", "analysis",
           "widen a function pointer's candidate set to every "
           "address-taken function")
def _values_candidate_widen() -> tuple[bool, str, str]:
    from repro.analyzer import values
    from repro.driver import verify_stack_bounds

    baseline = verify_stack_bounds(_VALUES_SOURCE,
                                   filename="values-fault-base.c")
    base = baseline.bytes("pick")
    previous = values._FAULT
    values._FAULT = "widen"
    try:
        # A distinct filename keeps the widened run out of the frontend
        # cache slot of the baseline source.
        widened = verify_stack_bounds(_VALUES_SOURCE,
                                      filename="values-fault-widened.c")
    finally:
        values._FAULT = previous
    inflated = widened.bytes("pick")
    if inflated <= base:
        return False, "", (f"widened candidate set left pick's bound at "
                           f"{inflated} (baseline {base})")
    # The widened analysis still carries a checkable derivation (it is
    # sound, just imprecise), so detection is necessarily differential.
    clean = verify_stack_bounds(_VALUES_SOURCE,
                                filename="values-fault-base.c")
    if clean.bytes("pick") != base:
        return False, "", "widening leaked into a clean re-analysis"
    return (True, "values-differential",
            f"pick bound inflated {base} -> {inflated} bytes against the "
            "reference analysis")


# ---------------------------------------------------------------------------
# Comparator operators: the bound-order decision procedure lies
# (see repro.logic.bexpr and the cross-check in repro.logic.smt)
# ---------------------------------------------------------------------------


def _comparator_fault(knob: str, small, large, param_domains=None,
                      expected=CompareResult(True, True)
                      ) -> tuple[bool, str, str]:
    """Self-contained comparator scenario shared by the operators.

    ``expected`` is the clean verdict (default: holds exactly) and the
    knob must flip it.  The FM knobs corrupt the failure-region
    construction in ``_term_covered`` so Fourier-Motzkin wrongly
    *refuses* a valid inequality — the quiet direction: nothing
    downstream crashes, the analyzer just reports looser bounds and
    derivation re-checks start failing.  Only the cross-check backend
    notices: with z3 installed the differential disagrees outright, and
    without it the witness audit flags an exact refusal that
    ``find_violation_metric`` (whose own constraint construction is
    intact) cannot certify.
    """
    from repro.logic import bexpr, smt

    clean = bexpr.fm_bound_le(small, large, param_domains)
    if clean != expected:
        return False, "", (f"scenario query must give {expected!r} on a "
                           f"clean comparator, got {clean!r}")
    previous = bexpr._FAULT
    bexpr._FAULT = knob
    try:
        lied = bexpr.fm_bound_le(small, large, param_domains)
        if lied.holds == clean.holds:
            return False, "", ("knobbed comparator gives the clean verdict; "
                               "the fault has no effect here")
        try:
            smt.crosscheck_bound_le(small, large, param_domains)
        except smt.ComparatorDisagreement as disagreement:
            caught_by, diagnostic = disagreement.caught_by, str(disagreement)
        else:
            return False, "", ("cross-check accepted the lying verdict "
                               "(comparator gap)")
    finally:
        bexpr._FAULT = previous
    if smt.crosscheck_bound_le(small, large, param_domains) != expected:
        return False, "", "fault leaked: clean comparator verdict changed"
    return True, caught_by, diagnostic


@_register("fm-strict-gap-drop", "comparator",
           "build the FM failure region with const_l - const_s instead "
           "of the integer gap + 1")
def _fm_strict_gap_drop() -> tuple[bool, str, str]:
    # M(f) + 1 <= max(2*M(f), 1) holds (1 covers M(f) = 0, 2*M(f) covers
    # the rest) but needs the case split: without the integer gap the
    # failure region keeps the boundary points M(f) in [0, 1] and FM
    # refuses.
    f = BMetric("f")
    return _comparator_fault("fm-strict-gap-drop",
                             badd(f, BConst(1)),
                             bmax(BScale(2, f), BConst(1)))


@_register("fm-nonneg-drop", "comparator",
           "omit the var >= 0 rows from the FM failure region")
def _fm_nonneg_drop() -> tuple[bool, str, str]:
    # M(f) + M(g) <= max(2*M(f), 3*M(g)) holds on nonnegative metrics
    # but fails at (f, g) = (-3, -2): dropping the nonnegativity rows
    # makes the failure region feasible and FM refuses.
    f, g = BMetric("f"), BMetric("g")
    return _comparator_fault("fm-nonneg-drop",
                             badd(f, g),
                             bmax(BScale(2, f), BScale(3, g)))


@_register("sampled-grid-truncate", "comparator",
           "decide sampled comparisons on value vectors without the last "
           "grid point")
def _sampled_grid_truncate() -> tuple[bool, str, str]:
    # n + max(0, 1 - M(f)) * max(0, n - 7) exceeds n only at n = 8 under
    # M(f) = 0: the last parameter value of the last default metric
    # sample, i.e. the last grid point.  The truncated vector comparison
    # affirms; only the cross-check's point-by-point sample oracle sees
    # the violation (z3 is not needed).
    n, f = BParam("n"), BMetric("f")
    planted = BMul(BFrameDiff(BConst(1), f), BFrameDiff(n, BConst(7)))
    return _comparator_fault("sampled-grid-truncate", badd(n, planted), n,
                             param_domains={"n": range(0, 9)},
                             expected=CompareResult(False, False))


# ---------------------------------------------------------------------------
# Serving operators: the serving path lies (see repro.serve)
# ---------------------------------------------------------------------------

#: Tiny program the serving scenarios verify (cheap, auto-analyzable).
_SERVE_SOURCE = ("int leaf(int x) { int a[4]; a[x & 3] = x; return a[0]; }\n"
                 "int main(void) { return leaf(3); }\n")


@_register("stale-cache-entry", "serving",
           "substitute one store entry's bytes into another key's slot")
def _stale_cache_entry() -> tuple[bool, str, str]:
    from repro.serve.pipeline import ServeRequest, run_pipeline
    from repro.serve.store import ResultStore

    store = ResultStore(root=None)
    request = ServeRequest(_SERVE_SOURCE, filename="serve-fault.c")
    other = ServeRequest("int main(void) { return 7; }",
                         filename="serve-other.c")
    run_pipeline(request, store)
    run_pipeline(other, store)
    key = request.keys()["analyze"]
    stale = store.raw_read(other.keys()["analyze"])
    store.raw_write(key, stale)
    if store.get(key) is not None:
        return False, "", "stale substituted entry was served"
    # The poisoned entry must also be *recomputed*, not just refused.
    response = run_pipeline(request, store)
    if response["stages"]["analyze"] != "miss":
        return False, "", "poisoned entry not recomputed"
    return (True, "store-integrity",
            "cross-key substitution rejected and recomputed")


@_register("response-truncate", "serving",
           "truncate the serving response JSON mid-document")
def _response_truncate() -> tuple[bool, str, str]:
    from repro.serve.pipeline import (ServeRequest, run_pipeline,
                                      validate_response_text)
    from repro.serve.store import ResultStore

    response = run_pipeline(ServeRequest(_SERVE_SOURCE,
                                         filename="serve-fault.c"),
                            ResultStore(root=None))
    text = json.dumps(response)
    try:
        validate_response_text(text[:len(text) // 2])
    except ValueError as error:
        return True, "response-schema", str(error)
    return False, "", "truncated response accepted by the validator"


def _poisoned_codegen_artifact(mutate) -> tuple[bool, str, str]:
    """Shared scaffold for the stored-codegen-artifact operators.

    Serve a probe request (persisting the generated source), let
    ``mutate`` corrupt the stored artifact payload (re-hashed at the
    store's wire level, so only the *payload-level* checks stand between
    the poison and ``exec``), simulate a daemon restart, and re-serve:
    the poisoned artifact must be dropped and regenerated — probed
    execution still converging at the served bound — never executed.
    """
    from repro.asm.codegen import CODEGEN_VERSION
    from repro.serve.pipeline import ServeRequest, reset_warm, run_pipeline
    from repro.serve.store import ResultStore

    store = ResultStore(root=None)
    request = ServeRequest(_SERVE_SOURCE, filename="serve-fault.c",
                           probe=True)
    baseline = run_pipeline(request, store)
    key = request.keys()["codegen"]
    artifact = store.get(key)
    if not isinstance(artifact, dict):
        return False, "", "no codegen artifact was persisted"
    store.put(key, mutate(dict(artifact)))
    reset_warm()   # a restarted daemon has no warm programs
    response = run_pipeline(request, store)
    probe = response["probe"]
    if probe.get("codegen") != "generated":
        return False, "", (f"poisoned artifact was served "
                           f"(codegen={probe.get('codegen')!r})")
    if not probe.get("converged") \
            or probe.get("measured_bytes") \
            != baseline["probe"]["measured_bytes"]:
        return False, "", "regenerated probe diverged from the baseline"
    replacement = store.get(key)
    if not isinstance(replacement, dict) \
            or replacement.get("codegen_version") != CODEGEN_VERSION:
        return False, "", "poisoned artifact was not replaced in the store"
    return (True, "codegen-artifact-check",
            "poisoned artifact dropped, regenerated and re-persisted")


@_register("codegen-version-skew", "serving",
           "rewrite a stored codegen artifact with a stale "
           "CODEGEN_VERSION tag")
def _codegen_version_skew() -> tuple[bool, str, str]:
    def mutate(artifact: dict) -> dict:
        artifact["codegen_version"] = artifact["codegen_version"] + 1
        return artifact

    return _poisoned_codegen_artifact(mutate)


@_register("codegen-source-truncate", "serving",
           "truncate a stored codegen artifact's source mid-text")
def _codegen_source_truncate() -> tuple[bool, str, str]:
    def mutate(artifact: dict) -> dict:
        # Keep the recorded hash: the wire re-hash is consistent, so
        # only the payload's own source digest can catch the cut.
        artifact["source"] = artifact["source"][:len(artifact["source"])
                                                // 2]
        return artifact

    return _poisoned_codegen_artifact(mutate)


@_register("worker-death", "serving",
           "kill the worker process mid-request")
def _worker_death() -> tuple[bool, str, str]:
    from repro.serve.pool import ServePool

    pool = ServePool(jobs=1, queue_depth=2, timeout_s=3.0, store_root=None)
    try:
        status, body = pool.submit(_SERVE_SOURCE, filename="serve-fault.c",
                                   chaos="die")
    finally:
        pool.close()
    if status >= 500 and body.get("verdict") == "error":
        return True, "request-timeout", body["error"]
    return False, "", (f"lost worker produced status {status}: "
                       f"{body.get('verdict')!r}")


# ---------------------------------------------------------------------------
# Codegen operators: the generated-Python tier miscompiles
# ---------------------------------------------------------------------------

#: Behavior fingerprint the codegen differential oracle compares.
def _codegen_fingerprint(program, engine):
    from repro.asm.machine import run_program

    output: list = []
    behavior, machine = run_program(program, stack_bytes=1 << 16,
                                    output=output, fuel=100_000,
                                    engine=engine)
    return (type(behavior).__name__,
            getattr(behavior, "return_code", None),
            getattr(behavior, "reason", None), tuple(behavior.trace),
            tuple(output), machine.measured_stack_usage, machine.steps)


def _codegen_miscompile(knob: str, program) -> tuple[bool, str, str]:
    """Run ``program`` with the miscompile knob on; diff against decoded."""
    from repro.asm import codegen

    decoded = _codegen_fingerprint(program, "decoded")
    previous = codegen._MISCOMPILE
    codegen._MISCOMPILE = knob
    try:
        mutant = _codegen_fingerprint(program, "codegen")
    finally:
        codegen._MISCOMPILE = previous
    # The knob must not leak into the per-program cache: a clean rerun
    # has to match the oracle again.
    clean = _codegen_fingerprint(program, "codegen")
    if clean != decoded:
        return False, "", "miscompile leaked into the codegen cache"
    if mutant == decoded:
        return False, "", ("miscompiled execution matched the decoded "
                           "oracle (fusion site not exercised)")
    return (True, "codegen-differential",
            f"decoded={decoded[:3]} codegen={mutant[:3]}")


def _asm_program(functions: dict, globals_=()) -> "asm_ast.AsmProgram":
    from repro.asm import ast as asm_ast

    return asm_ast.AsmProgram(
        list(globals_),
        {name: asm_ast.AsmFunction(name, body, frame_size=0)
         for name, body in functions.items()},
        externals=set(), main="main")


@_register("fused-branch-swap", "codegen",
           "swap the taken/untaken arms of a fused cmp+branch")
def _fused_branch_swap() -> tuple[bool, str, str]:
    from repro.asm import ast as a

    # The cmp feeds the jcc directly, so the block terminator is the
    # fused superinstruction; 5 > 3 must reach the taken arm (222).
    program = _asm_program({"main": [
        a.Pmovimm("eax", 5),
        a.Pmovimm("ecx", 3),
        a.Pbinop("cmp_gtu", "eax", "ecx"),
        a.Pjcc("eax", 1),
        a.Pmovimm("eax", 111),
        a.Pret(),
        a.Plabel(1),
        a.Pmovimm("eax", 222),
        a.Pret(),
    ]})
    return _codegen_miscompile("swap-branch", program)


@_register("fused-call-esp-drop", "codegen",
           "drop the ESP adjustment folded into a fused push+call")
def _fused_call_esp_drop() -> tuple[bool, str, str]:
    from repro.asm import ast as a

    # Pespadd(-16) immediately before an internal call is fused into
    # one combined stack check; dropping the adjustment shifts the
    # watermark (and the post-call Pespadd unbalances ESP).
    program = _asm_program({
        "main": [
            a.Pespadd(-16),
            a.Pcall("leaf"),
            a.Pespadd(16),
            a.Pret(),
        ],
        "leaf": [
            a.Pmovimm("eax", 7),
            a.Pret(),
        ],
    })
    return _codegen_miscompile("drop-espadjust", program)


@_register("fused-load-stale-const", "codegen",
           "fold a stale constant into a fused load+op superinstruction")
def _fused_load_stale_const() -> tuple[bool, str, str]:
    from repro.asm import ast as a
    from repro.clight.ast import GlobalVar
    from repro.memory.chunks import Chunk

    # The int32 load feeds the add, so the pair fuses; a stale folded
    # constant turns 1 + 42 into 1 + 0.
    program = _asm_program(
        {"main": [
            a.Pmovimm("eax", 1),
            a.Pload(Chunk.INT32, "ecx", a.AGlobal("g")),
            a.Pbinop("add", "eax", "ecx"),
            a.Pret(),
        ]},
        globals_=[GlobalVar("g", 4, 4, (42).to_bytes(4, "little"))])
    return _codegen_miscompile("stale-const", program)


# ---------------------------------------------------------------------------
# The mutation matrix
# ---------------------------------------------------------------------------

#: Catalog programs the matrix derives certificates and traces from (kept
#: small, fast and auto-analyzable; generated seeds extend the corpus).
#: The recursive pair gives the recursion operators their parametric
#: sites (linear and logarithmic shapes), and the dispatch program keeps
#: a devirtualized call graph in the corpus.
DEFAULT_CATALOG = ("mibench/bitcount.c", "mibench/crc32.c",
                   "mibench/dijkstra.c", "recursive/recid.c",
                   "recursive/bsearch.c", "funcptr/dispatch.c")

#: Generated seeds added to the corpus.
DEFAULT_SEEDS = range(0, 6)

#: Per-operator cap on corpus items tried before declaring the operator
#: undetected (each detection normally lands on the first applicable item).
DEFAULT_MAX_ATTEMPTS = 8


@dataclass
class OperatorOutcome:
    """Detection record for one operator across the corpus."""

    operator: str
    layer: str
    description: str
    detected: bool = False
    caught_by: str = ""            #: which checker/oracle rejected the mutant
    attempts: int = 0              #: corpus items tried (seeds-to-detection)
    inapplicable: int = 0          #: corpus items with no applicable site
    detected_on: str = ""          #: corpus label of the first detection
    diagnostic: str = ""           #: sample rejection diagnostic (or gap note)

    def as_json(self) -> dict:
        return {
            "operator": self.operator, "layer": self.layer,
            "description": self.description, "detected": self.detected,
            "caught_by": self.caught_by, "attempts": self.attempts,
            "inapplicable": self.inapplicable, "detected_on": self.detected_on,
            "diagnostic": self.diagnostic,
        }


@dataclass
class MatrixReport:
    """Aggregate result of one mutation-matrix run."""

    outcomes: list[OperatorOutcome] = field(default_factory=list)
    elapsed: float = 0.0
    corpus: list[str] = field(default_factory=list)

    @property
    def undetected(self) -> list[OperatorOutcome]:
        return [o for o in self.outcomes if not o.detected]

    @property
    def ok(self) -> bool:
        return not self.undetected

    def as_json(self) -> dict:
        return {
            "operators": len(self.outcomes),
            "undetected": [o.operator for o in self.undetected],
            "elapsed_s": round(self.elapsed, 3),
            "corpus": self.corpus,
            "outcomes": [o.as_json() for o in self.outcomes],
        }


def _certificate_corpus(catalog: Iterable[str], seeds: Iterable[int]):
    """Lazily yield ``(label, clight_program, certificate_text)``."""
    from repro.analyzer import StackAnalyzer
    from repro.driver import compile_frontend
    from repro.logic.certificate import export_certificate
    from repro.programs.loader import load_source
    from repro.testing.progen import generate_program

    for path in catalog:
        program = compile_frontend(load_source(path), filename=path)
        yield path, program, export_certificate(
            StackAnalyzer(program).analyze())
    for seed in seeds:
        program = compile_frontend(generate_program(seed),
                                   filename=f"seed{seed}.c")
        yield f"seed{seed}", program, export_certificate(
            StackAnalyzer(program).analyze())


def _trace_corpus(catalog: Iterable[str], seeds: Iterable[int]):
    """Lazily yield ``(label, converged_clight_trace)``."""
    from repro.clight.semantics import run_program
    from repro.driver import compile_frontend
    from repro.events.trace import Converges
    from repro.programs.loader import load_source
    from repro.testing.progen import generate_program

    sources = [(path, load_source(path)) for path in catalog]
    sources += [(f"seed{seed}", generate_program(seed)) for seed in seeds]
    for label, source in sources:
        program = compile_frontend(source, filename=label)
        behavior = run_program(program, fuel=3_000_000)
        if isinstance(behavior, Converges):
            yield label, behavior.trace


def _check_certificate_mutant(outcome: OperatorOutcome, label: str,
                              program, mutated: str) -> bool:
    """Feed one mutant to ``load_certificate``; True once detected."""
    from repro.errors import DerivationError
    from repro.logic.certificate import load_certificate

    outcome.attempts += 1
    try:
        load_certificate(mutated, program)
    except DerivationError as error:
        outcome.detected = True
        outcome.caught_by = "check-cert"
        outcome.detected_on = label
        outcome.diagnostic = str(error)
        return True
    except Exception as error:  # a crash is not a diagnostic
        outcome.detected = False
        outcome.diagnostic = (f"checker crashed on {label}: "
                              f"{type(error).__name__}: {error}")
        return True  # stop trying: crashing is itself the finding
    outcome.diagnostic = f"mutant accepted on {label} (soundness gap)"
    return False


def run_mutation_matrix(catalog: Iterable[str] = DEFAULT_CATALOG,
                        seeds: Iterable[int] = DEFAULT_SEEDS,
                        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                        progress: Optional[Callable] = None) -> MatrixReport:
    """Apply every registered operator and record who catches it.

    Each operator is applied to successive corpus items (catalog programs
    first, then generated seeds) until a checker rejects the mutant or
    ``max_attempts`` items have been tried.  Metric operators run through
    ``check_seed``'s ``plant`` hook on generated seeds only (they corrupt
    a compilation artifact, not a serialized one).
    """
    from repro.testing.oracles import check_seed

    started = time.perf_counter()
    catalog = list(catalog)
    seeds = list(seeds)
    report = MatrixReport(corpus=catalog + [f"seed{s}" for s in seeds])

    cert_corpus: list = []          # materialized lazily, shared by layers
    trace_corpus: list = []

    def certs():
        if not cert_corpus:
            cert_corpus.extend(_certificate_corpus(catalog, seeds))
        return cert_corpus

    def traces():
        if not trace_corpus:
            trace_corpus.extend(_trace_corpus(catalog, seeds))
        return trace_corpus

    for op in operators():
        outcome = OperatorOutcome(op.name, op.layer, op.description)
        report.outcomes.append(outcome)

        if op.layer == "metric":
            for seed in seeds[:max_attempts]:
                outcome.attempts += 1
                verdict = check_seed(seed, plant=op.name,
                                     ablations=["default"], probes=False)
                if not verdict.ok:
                    outcome.detected = True
                    outcome.caught_by = verdict.oracle or ""
                    outcome.detected_on = f"seed{seed}"
                    outcome.diagnostic = verdict.detail or ""
                    break
            if not outcome.detected and not outcome.diagnostic:
                outcome.diagnostic = (
                    f"planted metric survived {outcome.attempts} seed(s)")

        elif op.cross_program:
            corpus = certs()
            if len(corpus) >= 2:
                label_a, _program_a, text_a = corpus[0]
                label_b, program_b, _text_b = corpus[1]
                if _check_certificate_mutant(
                        outcome, f"{label_a} vs {label_b}", program_b, text_a):
                    pass
            else:
                outcome.diagnostic = "corpus too small for a program swap"

        elif op.layer in ("derivation", "certificate"):
            for label, program, text in certs()[:max_attempts]:
                mutated = op.apply(text)
                if mutated is None or mutated == text:
                    outcome.inapplicable += 1
                    continue
                if _check_certificate_mutant(outcome, label, program,
                                             mutated):
                    break
            if not outcome.detected and not outcome.diagnostic:
                outcome.diagnostic = "no applicable site in the corpus"

        elif op.layer in ("analysis", "serving", "codegen", "comparator"):
            # Self-contained scenario: the operator injects its fault
            # into a private store/pool (or a private analyzer/comparator
            # knob or miscompiled engine) and reports who caught it.
            outcome.attempts += 1
            outcome.detected_on = {"serving": "serve-harness",
                                   "codegen": "codegen-harness",
                                   "analysis": "analysis-harness",
                                   "comparator": "comparator-harness"}[
                                       op.layer]
            try:
                detected, caught_by, diagnostic = op.apply()
            except Exception as error:  # a crash is not a diagnostic
                detected, caught_by = False, ""
                diagnostic = (f"{op.layer} harness crashed: "
                              f"{type(error).__name__}: {error}")
            outcome.detected = detected
            outcome.caught_by = caught_by
            outcome.diagnostic = diagnostic

        elif op.layer == "refinement":
            for label, trace in traces()[:max_attempts]:
                mutated = op.apply(trace)
                if mutated is None or tuple(mutated) == tuple(trace):
                    outcome.inapplicable += 1
                    continue
                outcome.attempts += 1
                rejected, oracle, detail = refinement_oracles_reject(
                    mutated, trace)
                if rejected:
                    outcome.detected = True
                    outcome.caught_by = oracle
                    outcome.detected_on = label
                    outcome.diagnostic = detail
                    break
                outcome.diagnostic = (
                    f"mutated trace accepted on {label} (oracle gap)")
            if not outcome.detected and not outcome.diagnostic:
                outcome.diagnostic = "no applicable site in the corpus"

        if progress:
            progress(outcome)

    report.elapsed = time.perf_counter() - started
    return report
