"""One selector per execution entry point: ``engine=``.

Every entry point that runs a program — the three semantics modules'
``run_program``/``run_streamed``, ``AsmMachine``, ASMsz ``run_program``,
``Compilation.run`` and the ``measure_*`` runners — takes exactly one
tier selector, ``engine=``, resolved against its module's ``ENGINES``
tuple and ``DEFAULT_ENGINE`` constant.  These tests hold each entry
point to that contract: every named tier is the tier that really runs
(as the ``exec.*`` span records it), the module default is read at call
time, unknown tiers are refused with ``ValueError`` naming the choices,
and the retired ``decoded=`` switch is no longer accepted.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.asm import machine as asm_machine
from repro.clight import semantics as clight_sem
from repro.driver import compile_c
from repro.events.stream import null_sink
from repro.mach import semantics as mach_sem
from repro.measure.monitor import measure_c_program, measure_compilation
from repro.programs.loader import load_source
from repro.rtl import semantics as rtl_sem

FUEL = 5_000_000

#: level name -> (module holding ENGINES/DEFAULT_ENGINE, Compilation attr)
LEVELS = {
    "clight": (clight_sem, "clight"),
    "rtl": (rtl_sem, "rtl"),
    "mach": (mach_sem, "mach"),
    "asm": (asm_machine, "asm"),
}

#: Every (level, tier) pair the tower offers.
TIERS = [(level, engine) for level, (module, _attr) in LEVELS.items()
         for engine in module.ENGINES]


@pytest.fixture(scope="module")
def compilation():
    return compile_c(load_source("paper_example.c"),
                     filename="paper_example.c")


def _run(level, compilation, **kwargs):
    """Run the paper example at ``level`` through its main entry point."""
    module, attr = LEVELS[level]
    program = getattr(compilation, attr)
    if level == "asm":
        behavior, _machine = module.run_program(program, fuel=FUEL, **kwargs)
        return behavior
    return module.run_program(program, fuel=FUEL, **kwargs)


def _engines_recorded(level, run):
    """The ``engine`` attrs of the ``exec.<level>`` spans ``run()`` opens."""
    obs.reset()
    obs.enable()
    try:
        result = run()
        engines = [dict(record["attrs"])["engine"]
                   for record in obs.span_records()
                   if record["name"] == f"exec.{level}"]
    finally:
        obs.disable()
        obs.reset()
    return result, engines


def test_tier_tables():
    """Clight, RTL and Mach run on the legacy oracle or the decoded fast
    path; ASMsz alone keeps a generated-code tier."""
    for level in ("clight", "rtl", "mach"):
        module, _attr = LEVELS[level]
        assert module.ENGINES == ("legacy", "decoded")
        assert module.DEFAULT_ENGINE == "decoded"
    assert asm_machine.ENGINES == ("legacy", "decoded", "codegen")
    assert asm_machine.DEFAULT_ENGINE == "codegen"


@pytest.mark.parametrize("level,engine", TIERS)
def test_named_tier_is_the_tier_that_runs(level, engine, compilation):
    behavior, recorded = _engines_recorded(
        level, lambda: _run(level, compilation, engine=engine))
    assert type(behavior).__name__ == "Converges"
    assert recorded == [engine]


@pytest.mark.parametrize("level,engine", TIERS)
def test_default_engine_is_read_at_call_time(level, engine, compilation,
                                             monkeypatch):
    module, _attr = LEVELS[level]
    monkeypatch.setattr(module, "DEFAULT_ENGINE", engine)
    behavior, recorded = _engines_recorded(
        level, lambda: _run(level, compilation))
    assert type(behavior).__name__ == "Converges"
    assert recorded == [engine]


def _entry_points(compilation):
    """name -> callable(**selector) for every execution entry point."""
    entries = {}
    for level in ("clight", "rtl", "mach"):
        module, attr = LEVELS[level]
        program = getattr(compilation, attr)
        entries[f"{level}.run_program"] = (
            lambda m=module, p=program, **kw: m.run_program(p, fuel=FUEL,
                                                            **kw))
        entries[f"{level}.run_streamed"] = (
            lambda m=module, p=program, **kw: m.run_streamed(
                p, null_sink, fuel=FUEL, **kw))
    entries["asm.run_program"] = lambda **kw: asm_machine.run_program(
        compilation.asm, fuel=FUEL, **kw)
    entries["AsmMachine"] = lambda **kw: asm_machine.AsmMachine(
        compilation.asm, **kw)
    entries["Compilation.run"] = lambda **kw: compilation.run(fuel=FUEL,
                                                              **kw)
    entries["measure_compilation"] = lambda **kw: measure_compilation(
        compilation, fuel=FUEL, **kw)
    entries["measure_c_program"] = lambda **kw: measure_c_program(
        load_source("paper_example.c"), **kw)
    return entries


ENTRY_POINTS = ["clight.run_program", "clight.run_streamed",
                "rtl.run_program", "rtl.run_streamed",
                "mach.run_program", "mach.run_streamed",
                "asm.run_program", "AsmMachine", "Compilation.run",
                "measure_compilation", "measure_c_program"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_unknown_engine_refused(entry, compilation):
    """Clight/RTL/Mach refuse the retired ``codegen`` tier; every entry
    point refuses a name no level knows.  The message lists the
    choices."""
    call = _entry_points(compilation)[entry]
    bad = ["jit"]
    if entry.split(".")[0] in ("clight", "rtl", "mach"):
        bad.append("codegen")
    for engine in bad:
        with pytest.raises(ValueError, match="expected one of"):
            call(engine=engine)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_decoded_switch_is_gone(entry, compilation):
    """``engine=`` is the only selector: the boolean ``decoded=`` switch
    it replaced is an unexpected keyword everywhere."""
    call = _entry_points(compilation)[entry]
    for value in (False, True):
        with pytest.raises(TypeError, match="decoded"):
            call(decoded=value)
