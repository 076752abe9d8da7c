"""Differential suite: the pre-decoded Clight/RTL/Mach interpreters vs.
the legacy ``step()`` machines.

Each decoded engine (`repro.clight.decode`, `repro.rtl.decode`,
`repro.mach.decode`) must be observationally identical to its legacy
loop: same traces, same outputs, same return codes, same outcome
classification and step counts — on the full catalog and on generated
seeds at every ablation point.  The streaming entry points must also
agree with themselves: feeding a sink and materializing a trace are the
same computation.
"""

from __future__ import annotations

import gc

import pytest

from repro import obs
from repro.clight import semantics as clight_sem
from repro.driver import compile_c
from repro.events.stream import (BracketChecker, CountingSink, ExactMatcher,
                                 PrunedMatcher, Tee, null_sink)
from repro.events.trace import WeightFold, prune
from repro.mach import semantics as mach_sem
from repro.programs.catalog import ALL_RUNNABLE
from repro.programs.loader import load_source
from repro.rtl import semantics as rtl_sem
from repro.testing.oracles import ABLATIONS, check_seed
from repro.testing.progen import generate_program

CLIGHT_FUEL = 5_000_000
INTERP_FUEL = 50_000_000

#: (name, semantics module, Compilation attribute, fuel) per level.
LEVELS = [
    ("clight", clight_sem, "clight", CLIGHT_FUEL),
    ("rtl", rtl_sem, "rtl", INTERP_FUEL),
    ("mach", mach_sem, "mach", INTERP_FUEL),
]


def _stream_fingerprint(sem, program, fuel, engine):
    trace: list = []
    output: list = []
    outcome = sem.run_streamed(program, trace.append, fuel=fuel,
                               output=output, engine=engine)
    return (outcome.kind, outcome.return_code, outcome.reason,
            outcome.events, outcome.steps, tuple(trace), tuple(output))


def _assert_levels_agree(compilation, context=""):
    for name, sem, attr, fuel in LEVELS:
        program = getattr(compilation, attr)
        legacy = _stream_fingerprint(sem, program, fuel, "legacy")
        decoded = _stream_fingerprint(sem, program, fuel, "decoded")
        assert legacy == decoded, f"{name} disagrees {context}"


@pytest.mark.parametrize("path", ALL_RUNNABLE)
def test_catalog_program_agrees(path):
    compilation = compile_c(load_source(path), filename=path)
    _assert_levels_agree(compilation, context=f"on {path}")


@pytest.mark.parametrize("seed", range(0, 30, 5))
def test_generated_seed_agrees_at_every_ablation(seed):
    source = generate_program(seed)
    for name, options in ABLATIONS.items():
        compilation = compile_c(source, filename=f"seed{seed}.c",
                                options=options)
        _assert_levels_agree(compilation, context=f"under ablation {name!r}")


@pytest.mark.parametrize("engine", ["legacy", "decoded"])
def test_run_program_matches_run_streamed(engine):
    """`run_program` is the materialized view of `run_streamed`."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    for name, sem, attr, fuel in LEVELS:
        program = getattr(compilation, attr)
        behavior = sem.run_program(program, fuel=fuel, engine=engine)
        trace: list = []
        outcome = sem.run_streamed(program, trace.append, fuel=fuel,
                                   engine=engine)
        assert type(behavior).__name__ == "Converges"
        assert outcome.converged
        assert tuple(behavior.trace) == tuple(trace)
        assert behavior.return_code == outcome.return_code


@pytest.mark.parametrize("fuel", [0, 1, 7, 10_000])
def test_fuel_exhaustion_agrees(fuel):
    """Tiny fuels probe the done-at-exactly-fuel boundary on all levels."""
    compilation = compile_c(load_source("compcert/mandelbrot.c"),
                            filename="compcert/mandelbrot.c")
    for name, sem, attr, _fuel in LEVELS:
        program = getattr(compilation, attr)
        legacy = _stream_fingerprint(sem, program, fuel, "legacy")
        decoded = _stream_fingerprint(sem, program, fuel, "decoded")
        assert legacy == decoded, f"{name} disagrees at fuel {fuel}"
        assert legacy[0] == "diverges"


@pytest.mark.parametrize("fuel", [10_000, INTERP_FUEL])
def test_decoded_runs_leave_no_cyclic_garbage(fuel):
    """RTL and Mach decode afresh for every run.  A finished run (fuel
    exhausted or converged) must be freed by reference counting: a
    decode left to the cyclic GC makes deep campaigns pay extra full
    collections."""
    compilation = compile_c(load_source("recursive/fib.c"),
                            filename="recursive/fib.c")
    for name, sem, attr, _fuel in LEVELS[1:]:
        gc.collect()
        gc.disable()
        try:
            sem.run_streamed(getattr(compilation, attr), null_sink,
                             fuel=fuel, engine="decoded")
            assert gc.collect() == 0, f"{name} left cyclic garbage"
        finally:
            gc.enable()


def test_streaming_consumers_see_the_materialized_trace():
    """One streamed pass feeds matcher+fold+bracket identically to the
    post-hoc folds over the materialized trace."""
    compilation = compile_c(load_source("recursive/fib.c"),
                            filename="recursive/fib.c")
    behavior = clight_sem.run_program(compilation.clight, fuel=CLIGHT_FUEL)
    metric = compilation.metric
    exact = ExactMatcher(behavior.trace)
    pruned = PrunedMatcher(prune(behavior.trace))
    fold = WeightFold(metric)
    bracket = BracketChecker()
    counting = CountingSink(Tee(exact, pruned, fold, bracket))
    outcome = clight_sem.run_streamed(compilation.clight, counting,
                                      fuel=CLIGHT_FUEL)
    assert outcome.converged
    assert counting.count == len(behavior.trace) == outcome.events
    assert exact.matched()
    assert pruned.matched()
    assert bracket.ok and not bracket.stack
    post_hoc = WeightFold(metric)
    for event in behavior.trace:
        post_hoc(event)
    assert (fold.total, fold.peak) == (post_hoc.total, post_hoc.peak)


def test_deep_verdicts_identical_between_engines(monkeypatch):
    """The deep campaign mode must produce identical verdicts (timings
    aside) whichever engine runs underneath — and each arm must really
    run every level on its engine, as the ``exec.*`` spans record."""
    verdicts = {}
    for engine in ("legacy", "decoded"):
        for _name, sem, _attr, _fuel in LEVELS:
            monkeypatch.setattr(sem, "DEFAULT_ENGINE", engine)
        obs.reset()
        obs.enable()
        try:
            verdicts[engine] = [
                check_seed(seed, deep=True, probes=False).as_json()
                for seed in range(6)]
            spans = [record for record in obs.span_records()
                     if record["name"] in ("exec.clight", "exec.rtl",
                                           "exec.mach")]
        finally:
            obs.disable()
            obs.reset()
        assert {record["name"] for record in spans} == {
            "exec.clight", "exec.rtl", "exec.mach"}
        assert {dict(record["attrs"])["engine"] for record in spans} == {
            engine}
    for old, new in zip(verdicts["legacy"], verdicts["decoded"]):
        old.pop("timings")
        new.pop("timings")
        assert old == new


def test_engine_knob_per_level():
    """Each level names exactly its two tiers; anything else is refused."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    for name, sem, attr, fuel in LEVELS:
        assert sem.ENGINES == ("legacy", "decoded")
        assert sem.DEFAULT_ENGINE == "decoded"
        with pytest.raises(ValueError):
            sem.run_program(getattr(compilation, attr), fuel=fuel,
                            engine="codegen")


def test_legacy_engines_stay_selectable():
    """`engine="legacy"` must keep exercising the original machines (the
    differential oracle depends on them remaining live code paths)."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    for name, sem, attr, fuel in LEVELS:
        behavior = sem.run_program(getattr(compilation, attr), fuel=fuel,
                                   engine="legacy")
        assert type(behavior).__name__ == "Converges"
