"""Benchmark for the paper's §6 performance claim.

"The automatic stack-bound analysis runs very efficiently and needs less
than a second for every example file."  Here we time just the analyzer
(call-graph + auto_bound + recursion inference + derivation
construction) on the pre-lowered Clight programs — every auto-analyzable
program, the paper's example and every recursive program — and also the
full derivation re-check.

    pytest benchmarks/bench_analyzer_speed.py --benchmark-only
    pytest benchmarks/bench_analyzer_speed.py --benchmark-disable  # gate only
"""

import pytest

from repro.analyzer import StackAnalyzer
from repro.c.parser import parse
from repro.c.typecheck import typecheck
from repro.clight.from_c import clight_of_program
from repro.programs.catalog import AUTO_ANALYZABLE, RECURSIVE
from repro.programs.loader import load_source


def lowered(path):
    program = parse(load_source(path), path)
    env = typecheck(program)
    return clight_of_program(program, env)


@pytest.mark.parametrize("path",
                         AUTO_ANALYZABLE + ["paper_example.c"] + RECURSIVE)
def test_analyzer_under_one_second(benchmark, path):
    clight = lowered(path)
    result = benchmark(lambda: StackAnalyzer(clight).analyze())
    assert result.elapsed_seconds < 1.0  # the paper's claim
    benchmark.extra_info["functions"] = len(result.functions)


@pytest.mark.parametrize("path", ["certikos/proc.c", "mibench/md5.c",
                                  "recursive/filter_find.c"])
def test_derivation_check_speed(benchmark, path):
    clight = lowered(path)
    analysis = StackAnalyzer(clight).analyze()

    def recheck():
        return analysis.check()

    report = benchmark(recheck)
    # Parametric specs are checked over their verification domains, so a
    # recursive program's check has sampled conditions; the rest are exact.
    assert report.fully_exact or path in RECURSIVE


def test_frontend_speed(benchmark):
    source = load_source("certikos/vmm.c")

    def frontend():
        program = parse(source, "vmm.c")
        env = typecheck(program)
        return clight_of_program(program, env)

    clight = benchmark(frontend)
    assert clight.functions
