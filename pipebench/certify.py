"""Workloads ``certify-flat`` and ``certify-recursive``: direct calls.

One *pass* certifies every program of the workload's set through the
driver's public stages and probes the certified bound on the finite
ASMsz stack.  Each pass runs in a freshly spawned interpreter, so no
pass inherits the normal-form memo, the frontend cache or the codegen
caches of the one before — every pass is the unit "certify one C
program", cold, as a user of the CLI would run it.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import statistics
import sys
import time

import common

FLAT_SMOKE = ["mibench/crc32.c", "funcptr/dispatch.c"]
RECURSIVE_SMOKE = ["recursive/recid.c", "compcert/binarytrees.c"]
#: Programs whose known answer is a refusal (``AnalysisError``).
REFUSED = {"compcert/binarytrees.c"}
#: The paper's §6 mark: the analysis needs under a second per file.
VERDICT_MARK_MS = 1000.0


def program_set(workload: str, smoke: bool) -> list[str]:
    from repro.programs.catalog import AUTO_ANALYZABLE, RECURSIVE

    if workload == "certify-flat":
        return list(FLAT_SMOKE if smoke else AUTO_ANALYZABLE)
    return list(RECURSIVE_SMOKE if smoke else
                ["paper_example.c", *RECURSIVE, "compcert/binarytrees.c"])


def _known_answer_error(path: str, bounds, golden: dict,
                        bound: int) -> str | None:
    """Compare one certified program against its golden snapshot."""
    from repro.logic.bexpr import param_names

    entry = golden.get(path)
    if entry is None:
        return None   # no snapshot (paper_example.c): the probe decides
    if bound != entry["stack_requirement"]:
        return (f"stack requirement {bound} != golden "
                f"{entry['stack_requirement']}")
    expected = common.golden_functions(entry)
    got = {}
    for name in bounds.analysis.functions:
        expr = bounds.symbolic(name)
        params = {p: 100 for p in param_names(expr)}
        got[name] = int(bounds.bytes(name, params or None))
        if "symbolic" in entry and repr(expr) != entry["symbolic"].get(name):
            return f"symbolic bound of {name} changed: {expr!r}"
    if got != expected:
        return f"function bounds {got} != golden {expected}"
    return None


class StageClock:
    """Times consecutive stages, each also at the reference speed.

    A short speed probe runs between stages (outside their times); a
    stage is rescaled by the median of the probes at its two ends and
    the sampler's readings taken while it ran.
    """

    PROBE_LOOPS = common.SpeedSampler.LOOPS

    def __init__(self, sampler: common.SpeedSampler) -> None:
        self.sampler = sampler
        self.probe = common.speed_probe(self.PROBE_LOOPS)
        sampler.take()
        self.mark = time.perf_counter()
        self.raw_ms: dict = {}
        self.ref_ms: dict = {}

    def lap(self, stage: str) -> None:
        seconds = time.perf_counter() - self.mark
        readings = self.sampler.take()
        probe = common.speed_probe(self.PROBE_LOOPS)
        speed = statistics.median([self.probe, probe, *readings])
        self.raw_ms[stage] = seconds * 1e3
        self.ref_ms[stage] = common.at_reference(seconds, speed) * 1e3
        self.probe = probe
        self.sampler.take()   # readings taken during the probe itself
        self.mark = time.perf_counter()


def certify_one(path: str, golden: dict, plant: str | None,
                sampler: common.SpeedSampler) -> dict:
    """Certify and probe one program; returns its row.

    A ``ReproError`` is a verdict (a refusal).  Any other exception is
    an undiagnosed failure: the row records it and the pass goes on.
    ``plant`` is the self-test's planted fault: ``"wrong-answer"``
    reports every bound 4 bytes low, ``"crash"`` raises a ``KeyError``
    in the analyzer stage.
    """
    from repro import driver, obs
    from repro.errors import ReproError
    from repro.measure.monitor import probe_bound_tightness
    from repro.programs.loader import load_source

    source = load_source(path)
    row = {"program": path, "error": None, "refused": False,
           "undiagnosed": False, "gap_bytes": 0, "asm_instrs": 0,
           "frame_bytes": 0, "nodes": 0, "exact": 0, "sampled": 0}
    clock = StageClock(sampler)
    stage = "frontend"
    try:
        with obs.span("layer.frontend", program=path):
            clight = driver.compile_frontend(source, path)
        clock.lap(stage)
        stage = "backend"
        with obs.span("layer.backend", program=path):
            compilation = driver.compile_clight(clight)
        clock.lap(stage)
        row["asm_instrs"] = sum(len(fn.body) for fn in
                                compilation.asm.functions.values())
        row["frame_bytes"] = sum(compilation.frame_sizes.values())
        stage = "analyzer"
        with obs.span("layer.analyzer", program=path):
            if plant == "crash":
                raise KeyError(f"planted crash in {path}")
            analysis = driver.analyze_clight(clight)
        clock.lap(stage)
        stage = "logic"
        with obs.span("layer.logic", program=path):
            report = driver.check_analysis(analysis)
            bounds = driver.VerifiedBounds(compilation, analysis)
            bound = bounds.stack_requirement()
        clock.lap(stage)
        row.update(nodes=report.nodes, exact=report.exact_conditions,
                   sampled=report.sampled_conditions)
    except ReproError as error:
        clock.lap(stage)
        row["refused"] = True
        if path not in REFUSED:
            row["error"] = f"refused: {type(error).__name__}: {error}"
        return _timed(row, clock)
    except Exception as error:
        clock.lap(stage)
        row.update(undiagnosed=True, error=f"exception in {stage}: "
                   f"{type(error).__name__}: {error}")
        return _timed(row, clock)
    if path in REFUSED:
        row["error"] = f"certified a program that must be refused ({bound})"
    if plant == "wrong-answer" and row["error"] is None:
        bound -= 4   # the planted wrong answer the self-test expects caught
    row["bound"] = bound
    row["error"] = row["error"] or _known_answer_error(path, bounds,
                                                       golden, bound)
    try:
        with obs.span("layer.measure", program=path):
            probe = probe_bound_tightness(compilation, bound)
    except Exception as error:
        clock.lap("probe")
        if row["error"] is None:   # a wrong bound stays a wrong answer
            row.update(undiagnosed=True, error=f"exception in probe: "
                       f"{type(error).__name__}: {error}")
        return _timed(row, clock)
    clock.lap("probe")
    row["watermark"] = probe.at_bound.measured_bytes
    row["gap_bytes"] = bound - probe.at_bound.measured_bytes
    if not (probe.sound and probe.overflow_detected):
        row["error"] = row["error"] or (
            f"probe refutes bound {bound}: converged="
            f"{probe.at_bound.converged}, watermark="
            f"{probe.at_bound.measured_bytes}, overflow_detected="
            f"{probe.overflow_detected}")
    return _timed(row, clock)


def _timed(row: dict, clock: StageClock) -> dict:
    """Stage times, time to verdict (the probe excluded) and total."""
    for stage in ("frontend", "backend", "analyzer", "logic", "probe"):
        row[f"{stage}_ms"] = clock.raw_ms.get(stage, 0.0)
    for prefix, times in (("", clock.raw_ms), ("ref_", clock.ref_ms)):
        row[f"{prefix}total_ms"] = sum(times.values())
        row[f"{prefix}verdict_ms"] = (row[f"{prefix}total_ms"]
                                      - times.get("probe", 0.0))
    return row


def certify_pass(programs: list[str], traced: bool,
                 plant: str | None) -> dict:
    """One pass over ``programs`` (runs in a fresh spawned process)."""
    from repro import obs
    from repro.logic.bexpr import fm_blowup_count, nf_cache_stats

    golden = common.load_golden()
    if traced:
        obs.enable()
    sampler = common.SpeedSampler()
    started = time.perf_counter()
    try:
        with obs.span("layer.pass"):
            rows = [certify_one(path, golden, plant, sampler)
                    for path in programs]
    finally:
        sampler.stop()
    result = {"rows": rows, "wall_s": time.perf_counter() - started,
              "pass_s": sum(row["ref_total_ms"] for row in rows) / 1e3,
              "rss_mb": common.peak_rss_mb(),
              "nf_hit_rate": nf_cache_stats()["hit_rate"],
              "fm_blowups": fm_blowup_count()}
    if traced:
        counters = obs.snapshot()["counters"]
        seconds = counters.get("interp.asm.seconds", 0.0)
        result["steps_per_s"] = (counters.get("interp.asm.steps", 0)
                                 / seconds if seconds else 0.0)
        result["spans"] = obs.drain_spans()
    return result


def _run_pass(context, programs, traced, plant) -> dict:
    with context.Pool(1) as pool:
        return pool.apply(certify_pass, (programs, traced, plant))


def _layer_values(result: dict) -> dict:
    rows = result["rows"]

    def total(key):
        return sum(row.get(key, 0) for row in rows)

    return {
        "frontend.ms": total("frontend_ms"),
        "backend.ms": total("backend_ms"),
        "backend.asm_instrs": total("asm_instrs"),
        "backend.frame_bytes": total("frame_bytes"),
        "analyzer.ms": total("analyzer_ms"),
        "analyzer.refusal_ms": sum(row["verdict_ms"] for row in rows
                                   if row["refused"]),
        "logic.check_ms": total("logic_ms"),
        "logic.nodes": total("nodes"),
        "logic.exact_conditions": total("exact"),
        "logic.sampled_conditions": total("sampled"),
        "logic.nf_hit_rate": result["nf_hit_rate"],
        "logic.fm_blowups": result["fm_blowups"],
        "measure.probe_ms": total("probe_ms"),
        "measure.gap_bytes": total("gap_bytes"),
        "asm.steps_per_s": result.get("steps_per_s", 0.0),
    }


def _print_rows(workload: str, results: list[dict], baseline: dict,
                out=sys.stdout) -> None:
    """Per-program rows: median time to verdict (as measured and at the
    reference speed), the < 1 s mark, the bound and its gap to the
    watermark, and the reference-speed ratio to ``baseline`` (a map of
    program to reference-speed verdict milliseconds)."""
    by_program: dict = {}
    for result in results:
        for row in result["rows"]:
            by_program.setdefault(row["program"], []).append(row)
    print(f"# {workload}: per-program rows (median over {len(results)} "
          f"pass(es); informational)", file=out)
    print(f"# {'program':26s} {'verdict ms':>10s} {'ref ms':>8s} "
          f"{'<1s':>4s} {'bound':>6s} {'gap B':>6s} {'x base':>7s}",
          file=out)
    ratios = []
    for program in sorted(by_program):
        rows = by_program[program]
        verdict = statistics.median(row["verdict_ms"] for row in rows)
        ref = statistics.median(row["ref_verdict_ms"] for row in rows)
        last = rows[-1]
        base = baseline.get(program)
        ratio = ref / base if base else None
        if ratio:
            ratios.append(ratio)
        bound = "refuse" if last["refused"] else str(last.get("bound", "-"))
        gap = "-" if last["refused"] or "watermark" not in last \
            else str(last["gap_bytes"])
        print(f"# {program:26s} {verdict:10.1f} {ref:8.1f} "
              f"{'yes' if verdict < VERDICT_MARK_MS else 'no':>4s} "
              f"{bound:>6s} {gap:>6s} "
              f"{f'{ratio:.2f}' if ratio else '-':>7s}", file=out)
    if ratios:
        print(f"# geomean reference-speed verdict time vs baseline: "
              f"{common.geomean(ratios):.3f}x over {len(ratios)} programs",
              file=out)


def run(workload: str, seed: int, seconds: float, traced: bool,
        smoke: bool, plant: str | None) -> tuple:
    programs = program_set(workload, smoke)
    rng = random.Random(seed)
    context = multiprocessing.get_context("spawn")
    setup_s = common.time_fresh_import()

    untraced: list[dict] = []
    traced_results: list[dict] = []
    started = time.perf_counter()
    while True:
        # Alternating untraced/traced passes gives the tracing overhead
        # without the ordering bias of running one kind first.
        for kind in ((False, True) if traced else (False,)):
            order = programs[:]
            rng.shuffle(order)
            result = _run_pass(context, order, kind, plant)
            (traced_results if kind else untraced).append(result)
        if time.perf_counter() - started >= seconds:
            break

    outcome = common.Outcome()
    for result in untraced + traced_results:
        for row in result["rows"]:
            if row["error"]:
                outcome.fail(f"{row['program']}: {row['error']}",
                             wrong=not row["undiagnosed"])
            else:
                outcome.ok()
    with open(common.ROOT / "pipebench" / "baseline.json") as handle:
        baseline = json.load(handle)
    _print_rows(workload, untraced, baseline)
    for failure in outcome.failures[:10]:
        print(f"# failed: {failure}")

    rows = [row for result in untraced for row in result["rows"]]
    pass_times = [result["pass_s"] for result in untraced]
    print("# passes: wall s " + " ".join(
        f"{result['wall_s']:.3f}" for result in untraced)
        + "; at the reference speed s " + " ".join(
            f"{seconds:.3f}" for seconds in pass_times))
    metrics = common.end_to_end_metrics(
        setup_s=setup_s, outcome=outcome,
        rss_mb=max(result["rss_mb"] for result in untraced),
        pass_times=pass_times,
        verdict_ms=[row["ref_verdict_ms"] for row in rows],
        latency_ms=[row["ref_total_ms"] for row in rows],
        pass_operations=len(programs))
    if traced:
        metrics.update(_traced_metrics(workload, traced_results,
                                       statistics.median(pass_times)))
    return outcome, metrics


def _traced_metrics(workload: str, results: list[dict],
                    untraced_pass_s: float) -> dict:
    per_pass = [_layer_values(result) for result in results]
    metrics = {name: statistics.median(values[name] for values in per_pass)
               for name in per_pass[0]}
    spans = [record for result in results for record in result["spans"]]
    path = common.write_spans(workload, spans)
    self_s, names = common.layer_self_times(spans)
    wall = sum(result["wall_s"] for result in results)
    traced_pass_s = statistics.median(result["pass_s"] for result in results)
    overhead = traced_pass_s / untraced_pass_s - 1.0
    common.print_layer_table(self_s, wall, names, overhead)
    print(f"# spans: {path}")
    metrics.update(common.layer_metrics(
        {layer: seconds / len(results) for layer, seconds in self_s.items()},
        wall / len(results)))
    metrics["trace.overhead"] = overhead
    return metrics
