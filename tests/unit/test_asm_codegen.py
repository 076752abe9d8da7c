"""Differential suite: the codegen tier vs. the decoded/legacy oracles.

The generated-Python engine (`repro.asm.codegen`) must be observationally
identical to the decoded closure interpreter (which `test_asm_decode.py`
already holds to the legacy loop): same traces, same outputs, same ESP
watermark, same step counts, and the same `GoesWrong` reason at the same
point when the stack is undersized.  Superinstruction fusion and
constant folding make this the tier with the most room for silent
divergence, so the sweep covers the full catalog, undersized stacks,
generated seeds at every ablation, and the fuel edge the trampoline's
unrolled accounting has to get exactly right.
"""

from __future__ import annotations

import pytest

from repro import engines
from repro.asm import codegen
from repro.asm import machine as machine_mod
from repro.asm.machine import AsmMachine, run_program
from repro.driver import compile_c
from repro.programs.catalog import ALL_RUNNABLE
from repro.programs.loader import load_source
from repro.testing.oracles import ABLATIONS
from repro.testing.progen import generate_program

# Generous enough for every catalog program at the default stack.
FUEL = 150_000_000


def _behavior_fingerprint(behavior, machine, output):
    return (
        type(behavior).__name__,
        tuple(behavior.trace),
        getattr(behavior, "return_code", None),
        getattr(behavior, "reason", None),
        tuple(output),
        machine.measured_stack_usage,
        machine.steps,
    )


def _run_engine(asm, engine, stack_bytes=1 << 20, fuel=FUEL):
    output: list = []
    behavior, machine = run_program(asm, stack_bytes=stack_bytes,
                                    output=output, fuel=fuel, engine=engine)
    return _behavior_fingerprint(behavior, machine, output)


@pytest.mark.parametrize("path", ALL_RUNNABLE)
def test_catalog_program_agrees(path):
    compilation = compile_c(load_source(path), filename=path)
    decoded = _run_engine(compilation.asm, "decoded")
    generated = _run_engine(compilation.asm, "codegen")
    assert decoded == generated
    assert decoded[0] == "Converges"


@pytest.mark.parametrize("path", ["paper_example.c", "mibench/dijkstra.c",
                                  "recursive/fib.c", "certikos/proc.c"])
def test_all_three_tiers_agree(path):
    """The full triple, including legacy, on a catalog cross-section."""
    compilation = compile_c(load_source(path), filename=path)
    legacy = _run_engine(compilation.asm, "legacy")
    decoded = _run_engine(compilation.asm, "decoded")
    generated = _run_engine(compilation.asm, "codegen")
    assert legacy == decoded == generated


@pytest.mark.parametrize("path", ["paper_example.c", "mibench/dijkstra.c",
                                  "recursive/fib.c", "certikos/proc.c"])
def test_stack_overflow_behavior_agrees(path):
    """Overflow at the same point with the same reason — fused push+call
    and espadd+call superinstructions must not shift the failure."""
    compilation = compile_c(load_source(path), filename=path)
    _behavior, machine = run_program(compilation.asm, fuel=FUEL,
                                     engine="codegen")
    needed = machine.measured_stack_usage
    for stack_bytes in {needed - 4, needed // 2, 8}:
        if stack_bytes < 4:
            continue
        decoded = _run_engine(compilation.asm, "decoded",
                              stack_bytes=stack_bytes)
        generated = _run_engine(compilation.asm, "codegen",
                                stack_bytes=stack_bytes)
        assert decoded == generated
        assert decoded[0] == "GoesWrong"
        if stack_bytes == needed - 4:
            assert "stack overflow" in decoded[3]


@pytest.mark.parametrize("seed", range(0, 40, 5))
def test_generated_seed_agrees(seed):
    source = generate_program(seed)
    for name, options in ABLATIONS.items():
        compilation = compile_c(source, filename=f"seed{seed}.c",
                                options=options)
        decoded = _run_engine(compilation.asm, "decoded")
        generated = _run_engine(compilation.asm, "codegen")
        assert decoded == generated, f"disagreement under ablation {name!r}"


@pytest.mark.parametrize("fuel", [0, 1, 7, 16, 17, 10_000])
def test_fuel_edges_agree(fuel):
    """The unrolled trampoline charges exactly one step per op — every
    batch boundary and the deopt tail must match the decoded count."""
    compilation = compile_c(load_source("compcert/mandelbrot.c"),
                            filename="compcert/mandelbrot.c")
    decoded = _run_engine(compilation.asm, "decoded", fuel=fuel)
    generated = _run_engine(compilation.asm, "codegen", fuel=fuel)
    assert decoded == generated
    if fuel:
        assert decoded[0] == "Diverges"
        assert decoded[6] == fuel


def test_compiled_program_is_cached():
    """compile() runs once per program; reruns reuse the code object."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    first = codegen.codegen_program(compilation.asm)
    again = codegen.codegen_program(compilation.asm)
    assert first is again
    # A fresh (equal) program object is a different cache key.
    other = compile_c(load_source("paper_example.c"),
                      filename="paper_example.c")
    assert codegen.codegen_program(other.asm) is not first


def test_codegen_source_is_python():
    """The dumped source (the CI repro artifact) must be compilable."""
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    source = codegen.codegen_source(compilation.asm)
    compile(source, "<check>", "exec")
    assert "def B" in source


def test_engine_resolution():
    """engine= wins; None defers to the module default; unknown names
    are refused."""
    choices = machine_mod.ENGINES
    assert choices == ("legacy", "decoded", "codegen")
    assert engines.resolve(None, "codegen", choices) == "codegen"
    assert engines.resolve("legacy", "codegen", choices) == "legacy"
    assert engines.resolve(None, "legacy", choices) == "legacy"
    with pytest.raises(ValueError):
        engines.resolve("jit", "codegen", choices)


def test_engine_attribute_on_machine(monkeypatch):
    compilation = compile_c(load_source("paper_example.c"),
                            filename="paper_example.c")
    assert AsmMachine(compilation.asm).engine == "codegen"
    assert AsmMachine(compilation.asm, engine="legacy").engine == "legacy"
    assert AsmMachine(compilation.asm, engine="decoded").engine == "decoded"
    # The module default is read per call: benchmarks set it module-wide.
    monkeypatch.setattr(machine_mod, "DEFAULT_ENGINE", "legacy")
    assert AsmMachine(compilation.asm).engine == "legacy"


def test_install_source_skips_generation():
    """The persistent-artifact path: stored source, same observables.

    Generation is deterministic — two independent compilations of the
    same C source generate identical Python — so installing one
    compilation's source onto the other's program is exactly what a
    restarted daemon does when it replays the store, and every
    observable must match a from-scratch generation.
    """
    source_c = load_source("paper_example.c")
    first = compile_c(source_c, filename="paper_example.c")
    second = compile_c(source_c, filename="paper_example.c")
    assert first.asm is not second.asm
    generated = codegen.codegen_source(first.asm)
    assert codegen.cached_program(second.asm) is None
    installed = codegen.install_source(second.asm, generated)
    assert codegen.cached_program(second.asm) is installed
    # codegen_program now reuses the installed object: no regeneration.
    assert codegen.codegen_program(second.asm) is installed
    assert installed.source == codegen.codegen_source(second.asm)
    fresh = run_program(first.asm, fuel=100_000, engine="codegen")
    replayed = run_program(second.asm, fuel=100_000, engine="codegen")
    assert type(fresh[0]) is type(replayed[0])
    assert fresh[0].return_code == replayed[0].return_code
    assert fresh[1].steps == replayed[1].steps
    assert fresh[1].measured_stack_usage == replayed[1].measured_stack_usage


def test_install_source_rejects_unloadable_text():
    """Poisoned artifacts never reach the cache.

    Loadability is the *last* line of defense — the serving layer's
    payload hash catches subtler corruption (a truncated source can
    still be syntactically valid Python) before it gets here.
    """
    fresh = compile_c(load_source("paper_example.c"),
                      filename="paper_example.c")
    with pytest.raises(ValueError):
        codegen.install_source(fresh.asm, "def B0(:\n")  # syntax error
    with pytest.raises(ValueError):
        codegen.install_source(fresh.asm, "x = 1\n")     # no bind()
    with pytest.raises(ValueError):
        codegen.install_source(fresh.asm, "bind = 7\n")  # not callable
    assert codegen.cached_program(fresh.asm) is None
