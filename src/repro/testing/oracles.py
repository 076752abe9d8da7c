"""The differential-testing oracle hierarchy (campaign engine core).

Every oracle is one clause of the paper's metatheory, checked on a real
execution of one generated program:

``compile``
    The program compiles at the requested ablation point (generated
    programs are well-typed by construction, so any front-end or pass
    failure is a bug).
``generator-safety``
    The Clight interpreter converges (programs are safe by construction)
    and its trace is well bracketed.
``trace-equality``
    CompCert's classic refinement between ASMsz and Clight: identical
    pruned (I/O) traces, outputs and return codes.  In ``deep`` mode the
    RTL and Mach interpreters run too, and their *memory-event* traces
    must equal Clight's exactly (the passes up to Mach preserve events);
    with the tail-call pass enabled that strengthens check is replaced by
    the structural all-metrics domination of ``repro.events.refinement``.
``weight-monotonicity``
    The quantitative refinement made concrete on the machine: the ASMsz
    ESP high-water mark never exceeds ``W_M(clight) - 4`` under the
    compiler's metric (the -4 is main's return address, already pushed at
    the baseline).  In ``deep`` mode the per-level trace weights are also
    checked to be non-increasing under the selected metric.
``bound-soundness``
    Theorem 2/3: the analyzer's bound for ``main`` dominates the observed
    Clight trace weight under the oracle metric, and its byte value
    dominates the ASMsz high-water mark by the paper's 4 bytes.
``bound-tightness``
    Theorem 1 exercised on the finite-stack machine: a stack block of
    ``bound + 4`` bytes never overflows, while an underprovisioned block
    (4 bytes below the measured requirement) must overflow — so the
    overflow detector itself cannot silently pass.
``derivation-check``
    The emitted quantitative-logic derivations re-check exactly.

``check_seed`` runs the hierarchy for one seed across a set of compiler
ablation points and reports the first violation (plus stage timings).
The Clight execution, the automatic analysis and the derivation re-check
are ablation-independent, so they run once per seed; each ablation point
adds one ASMsz execution plus the differential comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.analyzer import StackAnalyzer
from repro.clight.semantics import run_streamed as stream_clight
from repro.driver import (Compilation, CompilerOptions, compile_clight,
                          compile_frontend)
from repro.errors import ReproError
from repro.events.metrics import StackMetric
from repro.events.refinement import (RefinementFailure, check_refinement,
                                     dominates_for_all_metrics)
from repro.events.trace import Converges, is_well_bracketed, weight_of_trace
from repro.testing.progen import generate_program

#: Bump when oracle semantics change: invalidates the on-disk corpus cache.
ORACLE_VERSION = "3"  # 3: recursion/function-pointer seeds run the full
                      #    analyzer oracles (ranking-function inference +
                      #    value analysis), not just the compiler ones

#: Structural all-metrics domination is O(n^2) in the trace length, so it
#: only runs on traces up to this many events (the metric-specific check
#: runs unconditionally and is linear).
ALL_METRICS_TRACE_CAP = 600

CLIGHT_FUEL = 3_000_000
INTERP_FUEL = 30_000_000

ASM_FUEL = 100_000_000

#: The ablation points of the campaign, by name (order = check order).
ABLATIONS: dict[str, CompilerOptions] = {
    "default": CompilerOptions(),
    "O0": CompilerOptions(constprop=False, deadcode=False),
    "cse": CompilerOptions(cse=True),
    "tailcall": CompilerOptions(tailcall=True),
    "spill": CompilerOptions(spill_everything=True),
}


class OracleViolation(ReproError):
    """A differential oracle failed for one (seed, ablation) point."""

    def __init__(self, oracle: str, ablation: str, detail: str) -> None:
        self.oracle = oracle
        self.ablation = ablation
        self.detail = detail
        super().__init__(f"[{oracle}@{ablation}] {detail}")


@dataclass
class SeedVerdict:
    """The outcome of checking one seed (picklable, JSON-friendly)."""

    seed: int
    ok: bool
    oracle: Optional[str] = None
    ablation: Optional[str] = None
    detail: Optional[str] = None
    gen_kwargs: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    events: int = 0
    configs_checked: int = 0
    cached: bool = False
    source: Optional[str] = None
    #: Worker-side observability payloads (repro.obs): the per-seed
    #: metrics delta and finished span records.  The campaign parent
    #: merges and clears them on arrival; they never enter the JSONL
    #: report (the merged campaign-wide snapshot does, via --metrics-out).
    obs_metrics: Optional[dict] = None
    obs_spans: Optional[list] = None

    def as_json(self) -> dict:
        record = {
            "seed": self.seed, "ok": self.ok, "cached": self.cached,
            "events": self.events, "configs_checked": self.configs_checked,
            "gen_kwargs": self.gen_kwargs,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        if not self.ok:
            record.update(oracle=self.oracle, ablation=self.ablation,
                          detail=self.detail)
        return record


def metric_for(compilation: Compilation, metric_name: str,
               plant: Optional[str] = None) -> StackMetric:
    """The stack metric used by the weight/bound oracles.

    ``plant`` names a metric-layer operator from the fault registry
    (:mod:`repro.testing.faults`) and injects its corrupted metric for
    the campaign's self-test — e.g. ``"drop-ra"`` reproduces a compiler
    that forgets the 4 return-address bytes (``M(f) = SF(f)`` instead of
    ``SF(f) + 4``), the four-byte gap of
    ``tests/integration/test_four_byte_gap.py`` made into a fault.
    Campaign entry points validate the plant name up front
    (:func:`repro.testing.faults.validate_plant`), so an unknown name
    fails before any seed runs rather than here, mid-seed.
    """
    if plant is not None:
        from repro.testing.faults import apply_metric_fault

        return apply_metric_fault(plant, compilation)
    if metric_name == "compiler":
        return compilation.metric
    if metric_name == "uniform":
        return StackMetric.uniform(compilation.frame_sizes, 8)
    if metric_name == "zero":
        return StackMetric.zero()
    raise ValueError(f"unknown metric {metric_name!r}")


def _tick(timings: dict, key: str, start: float) -> float:
    now = time.perf_counter()
    timings[key] = timings.get(key, 0.0) + (now - start)
    return now


def check_seed(seed: int,
               gen_kwargs: Optional[dict] = None,
               ablations: Optional[list[str]] = None,
               metric_name: str = "compiler",
               plant: Optional[str] = None,
               probes: bool = True,
               deep: bool = False,
               source: Optional[str] = None) -> SeedVerdict:
    """Run the oracle hierarchy for one seed; never raises on violations.

    ``source`` overrides generation (used when re-checking a shrunk
    repro); otherwise the program is generated from ``seed`` and
    ``gen_kwargs``.  The first violated oracle aborts the seed.
    """
    gen_kwargs = dict(gen_kwargs or {})
    names = list(ablations or ABLATIONS)
    verdict = SeedVerdict(seed=seed, ok=True, gen_kwargs=gen_kwargs)
    try:
        _check_seed(verdict, names, metric_name, plant, probes, deep, source)
    except OracleViolation as violation:
        verdict.ok = False
        verdict.oracle = violation.oracle
        verdict.ablation = violation.ablation
        verdict.detail = violation.detail
    except ReproError as error:
        # Any other library error surfacing on a well-formed generated
        # program is itself a finding.
        verdict.ok = False
        verdict.oracle = "internal-error"
        verdict.ablation = "-"
        verdict.detail = f"{type(error).__name__}: {error}"
    return verdict


def _check_seed(verdict: SeedVerdict, names: list[str], metric_name: str,
                plant: Optional[str], probes: bool, deep: bool,
                source: Optional[str]) -> None:
    seed = verdict.seed
    timings = verdict.timings

    start = time.perf_counter()
    if source is None:
        source = generate_program(seed, **verdict.gen_kwargs)
    verdict.source = source
    start = _tick(timings, "generate", start)

    # The frontend depends only on the source, so parse/typecheck/Clight
    # run once and every ablation shares the result through the backend.
    try:
        clight = compile_frontend(source, filename=f"seed{seed}.c")
    except ReproError as error:
        raise OracleViolation("compile", names[0],
                              f"{type(error).__name__}: {error}")
    compilations: dict[str, Compilation] = {}
    for name in names:
        try:
            compilations[name] = compile_clight(clight,
                                                options=ABLATIONS[name])
        except ReproError as error:
            raise OracleViolation("compile", name,
                                  f"{type(error).__name__}: {error}")
    start = _tick(timings, "compile", start)

    # One Clight execution serves every ablation point: the front end does
    # not depend on the backend pass configuration.
    first = compilations[names[0]]
    clight_output: list = []
    clight_trace: list = []
    clight_outcome = stream_clight(first.clight, clight_trace.append,
                                   fuel=CLIGHT_FUEL, output=clight_output)
    b_clight = clight_outcome.to_behavior(clight_trace)
    if not isinstance(b_clight, Converges):
        raise OracleViolation("generator-safety", names[0],
                              f"Clight behavior: {type(b_clight).__name__} "
                              f"({getattr(b_clight, 'reason', '')})")
    # A converged execution must close every frame it opens, so the
    # stricter require_empty form applies (a dropped trailing ret(f)
    # passes plain nesting — every prefix of a bracketed trace is
    # bracketed — but not this).
    if not is_well_bracketed(b_clight.trace, require_empty=True):
        raise OracleViolation("generator-safety", names[0],
                              "Clight trace is not well bracketed")
    verdict.events = len(b_clight.trace)
    start = _tick(timings, "clight", start)

    # Since the ranking-function inference landed, recursion-enabled
    # seeds analyze too (with parametric specs); main's bound is always
    # ground because the call plans instantiate every spec parameter.
    analysis = StackAnalyzer(first.clight).analyze()
    start = _tick(timings, "analyze", start)

    for index, name in enumerate(names):
        with obs.span("campaign.ablation", ablation=name):
            _check_ablation(verdict, name, compilations[name], b_clight,
                            clight_output, analysis, metric_name, plant,
                            probes=probes and index == 0, deep=deep)
        verdict.configs_checked += 1

    start = time.perf_counter()
    report = analysis.check()
    # Sampled side conditions are legitimate exactly when the analysis
    # carries verification domains (inferred recursive specs check their
    # induction step per domain instance); otherwise exactness required.
    if not report.fully_exact and not analysis.param_domains:
        raise OracleViolation("derivation-check", names[0],
                              f"re-check not exact: {report!r}")
    _tick(timings, "derivation", start)


def _check_ablation(verdict: SeedVerdict, name: str, compilation: Compilation,
                    b_clight, clight_output: list, analysis,
                    metric_name: str, plant: Optional[str],
                    probes: bool, deep: bool) -> None:
    timings = verdict.timings

    start = time.perf_counter()
    asm_output: list = []
    b_asm, machine = compilation.run(output=asm_output, fuel=ASM_FUEL)
    start = _tick(timings, "asm", start)

    # -- trace/output equality (classic refinement) --------------------------
    try:
        check_refinement(b_asm, b_clight)
    except RefinementFailure as failure:
        raise OracleViolation("trace-equality", name, str(failure))
    if asm_output != clight_output:
        raise OracleViolation("trace-equality", name,
                              f"outputs differ: asm {asm_output[:8]!r} "
                              f"vs clight {clight_output[:8]!r}")

    # -- weight monotonicity on the machine ----------------------------------
    # ASMsz has no memory events; its stack consumption is the observable.
    # For the compiler metric, each open call contributes SF(f) + 4 to the
    # Clight trace weight while the machine charges SF(f) plus a 4-byte
    # return address — except main's, which is pushed above the baseline.
    compiler_weight = weight_of_trace(compilation.metric, b_clight.trace)
    if machine.measured_stack_usage > compiler_weight - 4:
        raise OracleViolation(
            "weight-monotonicity", name,
            f"ESP high-water mark {machine.measured_stack_usage} exceeds "
            f"W_M(clight) - 4 = {compiler_weight - 4}")
    start = _tick(timings, "refinement", start)

    # -- deep mode: interpret the intermediate levels ------------------------
    # The RTL and Mach runs stream their events into incremental
    # comparators (one pass, no materialized trace): the pruned-trace
    # refinement, the exact memory-event equality and the trace weight
    # are all folded as the interpreter emits.  Only a violation — the
    # rare path — re-runs the level with a collected trace so the
    # verdict detail stays byte-identical to the materialized checks.
    if deep:
        from repro.events.stream import ExactMatcher, PrunedMatcher, Tee
        from repro.events.trace import WeightFold, prune
        from repro.mach.semantics import run_streamed as stream_mach
        from repro.rtl.semantics import run_streamed as stream_rtl

        # Deep mode always folds with the *clean* metric: a planted
        # metric bug corrupts source and target weights identically, so
        # it cancels in the cross-level monotonicity comparison — the
        # plant is only observable where a weight meets the machine or
        # the analyzer's bound (the bound-soundness oracle below).
        metric = metric_for(compilation, metric_name, plant=None)
        source_trace = b_clight.trace
        source_pruned = prune(source_trace)
        source_weight = weight_of_trace(metric, source_trace)
        exact_wanted = not compilation.options.tailcall
        need_collect = (compilation.options.tailcall
                        and len(source_trace) <= ALL_METRICS_TRACE_CAP)
        for level, stream, program in (("rtl", stream_rtl, compilation.rtl),
                                       ("mach", stream_mach,
                                        compilation.mach)):
            pruned = PrunedMatcher(source_pruned)
            fold = WeightFold(metric)
            consumers = [pruned, fold]
            exact = None
            if exact_wanted:
                exact = ExactMatcher(source_trace)
                consumers.append(exact)
            collected: list = []
            if need_collect:
                consumers.append(collected.append)
            outcome = stream(program, Tee(*consumers), fuel=INTERP_FUEL)
            refinement_ok = (outcome.converged and pruned.matched()
                             and outcome.return_code == b_clight.return_code)
            if not refinement_ok:
                trace: list = []
                behavior = stream(program, trace.append,
                                  fuel=INTERP_FUEL).to_behavior(trace)
                try:
                    check_refinement(behavior, b_clight)
                except RefinementFailure as failure:
                    raise OracleViolation("trace-equality", f"{name}/{level}",
                                          str(failure))
            if fold.peak > source_weight:
                raise OracleViolation(
                    "weight-monotonicity", f"{name}/{level}",
                    "trace weight increased under the oracle metric")
            if exact is not None:
                if not exact.matched():
                    raise OracleViolation(
                        "trace-equality", f"{name}/{level}",
                        "memory-event traces differ without the tail-call "
                        "pass enabled")
            elif need_collect and \
                    not dominates_for_all_metrics(collected, source_trace):
                raise OracleViolation(
                    "weight-monotonicity", f"{name}/{level}",
                    "trace not pointwise dominated (all-metrics "
                    "refinement fails)")
        start = _tick(timings, "deep", start)

    if analysis is None:
        return

    # -- bound soundness ------------------------------------------------------
    # Here the plant *is* applied: the corrupted metric prices the bound
    # the analyzer reports, and the byte comparison against the machine's
    # high-water mark below is what must expose it.
    oracle_metric = metric_for(compilation, metric_name, plant)
    bound = analysis.bound_bytes("main", oracle_metric)
    observed = weight_of_trace(oracle_metric, b_clight.trace)
    if observed > bound:
        raise OracleViolation(
            "bound-soundness", name,
            f"observed trace weight {observed} exceeds the verified "
            f"bound {bound}")
    if plant is None:
        # Byte comparisons against the machine are only meaningful under
        # the compiler's own metric (not uniform/zero study metrics).
        byte_bound = analysis.bound_bytes("main", compilation.metric)
    else:
        # A planted metric bug must reach the byte comparison to be caught.
        byte_bound = bound
    if machine.measured_stack_usage > byte_bound - 4:
        raise OracleViolation(
            "bound-soundness", name,
            f"measured high-water mark {machine.measured_stack_usage} "
            f"exceeds bound - 4 = {byte_bound - 4}")
    start = _tick(timings, "bound", start)

    # -- bound tightness probes (Theorem 1 on the finite-stack machine) ------
    if probes:
        from repro.measure.monitor import probe_bound_tightness

        probe = probe_bound_tightness(compilation, byte_bound, fuel=ASM_FUEL)
        if not probe.sound:
            raise OracleViolation(
                "bound-tightness", name,
                f"bound-sized stack ({byte_bound} + 4 bytes): "
                f"{probe.at_bound!r}")
        if not probe.overflow_detected:
            raise OracleViolation(
                "bound-tightness", name,
                "underprovisioned stack (4 bytes under the measured "
                f"requirement of {probe.at_bound.measured_bytes + 4}) "
                "did not overflow")
        _tick(timings, "probes", start)
