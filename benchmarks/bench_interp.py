"""Interpreter / frontend / bounds-algebra performance benchmarks.

Measures the three hot paths the execution-engine overhaul targets:

* ``interpreter``: steps/sec of all three execution tiers — the legacy
  isinstance-chain step loop, the pre-decoded closure engine and the
  per-program generated-Python (codegen) tier — per catalog program;
* ``frontend``: compiling one generated seed at every campaign ablation
  point with and without frontend sharing, plus the constprop, deadcode
  and linear (register allocation) milliseconds of a traced shared
  compile, read from the ``repro.obs`` spans;
* ``nf_memo``: normal-form memoization hit rate and the bound_le-heavy
  derivation re-check with the memo on/off;
* ``campaign``: cold 8-seed differential campaign wall-clock, old
  configuration (legacy interpreter, per-ablation frontend, no memo) vs.
  new.

Run standalone to refresh the committed baseline::

    PYTHONPATH=src python benchmarks/bench_interp.py [-o BENCH_interp.json]

CI runs the cheap regression gates only (decoded throughput on
``mibench/crc32.c`` at least half the committed figure; the shared-frontend
compile of seed 1 at most twice the committed ``frontend.shared_s``)::

    PYTHONPATH=src python benchmarks/bench_interp.py --check-floor
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.asm import machine as machine_mod
from repro.asm.machine import run_program
from repro import driver, obs
from repro.driver import compile_c, compile_clight, compile_frontend
from repro.events.trace import Converges
from repro.logic import bexpr
from repro.programs.loader import load_source
from repro.rtl import constprop
from repro.testing import oracles
from repro.testing.progen import generate_program

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "BENCH_interp.json")

#: Program for the CI floor check: small enough to compile in seconds,
#: long-running enough (~220k steps) for a stable steps/sec figure.
FLOOR_PROGRAM = "mibench/crc32.c"

INTERP_PROGRAMS = [
    "mibench/crc32.c",
    "mibench/dijkstra.c",
    "recursive/fib.c",
    "compcert/mandelbrot.c",   # the catalog's longest-running program
]

FUEL = 150_000_000


def _run_steps_per_s(asm, engine: str) -> tuple[float, int]:
    start = time.perf_counter()
    behavior, machine = run_program(asm, fuel=FUEL, engine=engine)
    elapsed = time.perf_counter() - start
    assert isinstance(behavior, Converges), behavior
    return machine.steps / elapsed, machine.steps


def bench_interpreter() -> dict:
    from repro.asm import codegen as asm_codegen

    out = {}
    for path in INTERP_PROGRAMS:
        compilation = compile_c(load_source(path), filename=path)
        # Warm the per-program compile so the codegen column measures the
        # steady state (the serving daemon's and campaign's hot path).
        asm_codegen.codegen_program(compilation.asm)
        legacy, steps = _run_steps_per_s(compilation.asm, "legacy")
        decoded, _ = _run_steps_per_s(compilation.asm, "decoded")
        codegen, _ = _run_steps_per_s(compilation.asm, "codegen")
        out[path] = {
            "steps": steps,
            "legacy_steps_per_s": round(legacy),
            "decoded_steps_per_s": round(decoded),
            "codegen_steps_per_s": round(codegen),
            "speedup": round(decoded / legacy, 2),
            "codegen_vs_decoded": round(codegen / decoded, 2),
            "codegen_vs_legacy": round(codegen / legacy, 2),
        }
        print(f"  {path:28s} {steps:>9d} steps  "
              f"legacy {legacy:>10,.0f}/s  decoded {decoded:>10,.0f}/s  "
              f"codegen {codegen:>10,.0f}/s  "
              f"({codegen / decoded:.1f}x/{codegen / legacy:.1f}x)")
    return out


#: The backend passes the ``frontend`` row breaks out, by obs span name.
FRONTEND_PASS_SPANS = ("compile.rtl.constprop", "compile.rtl.deadcode",
                       "compile.linear")


def _shared_compile(source: str, options: list) -> float:
    """Seconds to compile ``source`` once per option set, sharing the
    frontend (the campaign's per-seed compile)."""
    start = time.perf_counter()
    clight = compile_frontend(source, filename="seed1.c")
    for opts in options:
        compile_clight(clight, options=opts)
    return time.perf_counter() - start


def _pass_ms(source: str, options: list) -> dict:
    """Per-pass milliseconds of one traced shared compile, from the spans."""
    obs.enable()
    obs.reset()
    try:
        _shared_compile(source, options)
        records = obs.drain_spans()
    finally:
        obs.disable()
        obs.reset()
    return {f"{name.rsplit('.', 1)[1]}_ms":
            round(sum(r["dur"] for r in records if r["name"] == name) * 1000,
                  2)
            for name in FRONTEND_PASS_SPANS}


def bench_frontend() -> dict:
    source = generate_program(1)
    options = list(oracles.ABLATIONS.values())
    driver.configure_frontend_cache(False)

    def unshared_compile() -> float:
        start = time.perf_counter()
        for opts in options:
            compile_c(source, filename="seed1.c", options=opts)
        return time.perf_counter() - start

    # Best of three, like the --check-floor gate that reads shared_s.
    unshared = min(unshared_compile() for _ in range(3))
    shared = min(_shared_compile(source, options) for _ in range(3))
    passes = _pass_ms(source, options)
    driver.configure_frontend_cache(True)

    print(f"  {len(options)} ablations: unshared {unshared * 1000:.0f} ms, "
          f"shared frontend {shared * 1000:.0f} ms "
          f"({unshared / shared:.1f}x); traced passes: "
          + ", ".join(f"{name} {ms:.0f} ms" for name, ms in passes.items()))
    return {
        "ablations": len(options),
        "unshared_s": round(unshared, 4),
        "shared_s": round(shared, 4),
        "speedup": round(unshared / shared, 2),
        **passes,
    }


def _analyze_and_check(path: str) -> None:
    from repro.analyzer import StackAnalyzer

    compilation = compile_c(load_source(path), filename=path)
    analysis = StackAnalyzer(compilation.clight).analyze()
    report = analysis.check()
    assert report.fully_exact


def bench_nf_memo() -> dict:
    path = "certikos/vmm.c"
    bexpr.configure_memoization(False)
    start = time.perf_counter()
    _analyze_and_check(path)
    unmemoized = time.perf_counter() - start

    bexpr.configure_memoization(True)
    bexpr.reset_nf_cache_stats()
    start = time.perf_counter()
    _analyze_and_check(path)
    memoized = time.perf_counter() - start
    stats = bexpr.nf_cache_stats()

    print(f"  {path}: analyze+check {unmemoized * 1000:.0f} ms unmemoized, "
          f"{memoized * 1000:.0f} ms memoized "
          f"(hit rate {stats['hit_rate']:.0%})")
    return {
        "program": path,
        "unmemoized_s": round(unmemoized, 4),
        "memoized_s": round(memoized, 4),
        "speedup": round(unmemoized / memoized, 2),
        "nf_hits": stats["hits"],
        "nf_misses": stats["misses"],
        "hit_rate": round(stats["hit_rate"], 4),
    }


def _campaign(seeds: range) -> float:
    start = time.perf_counter()
    for seed in seeds:
        verdict = oracles.check_seed(seed)
        assert verdict.ok, f"seed {seed}: {verdict.detail}"
    return time.perf_counter() - start


def bench_campaign(seeds: range = range(8)) -> dict:
    # "Old" configuration: legacy step loop, reference dataflow solver,
    # no bounds memoization, and a frontend re-run per ablation point
    # (what compile_c-per-ablation did before the shared frontend).
    saved_engine = machine_mod.DEFAULT_ENGINE
    machine_mod.DEFAULT_ENGINE = "legacy"
    constprop.FUSED_MERGE = False
    bexpr.configure_memoization(False)
    driver.configure_frontend_cache(False)
    saved_frontend = oracles.compile_frontend
    saved_backend = oracles.compile_clight
    oracles.compile_frontend = lambda source, filename="<string>": \
        (source, filename)
    oracles.compile_clight = lambda pair, options=None: \
        compile_c(pair[0], filename=pair[1], options=options)
    try:
        old = _campaign(seeds)
    finally:
        oracles.compile_frontend = saved_frontend
        oracles.compile_clight = saved_backend
        machine_mod.DEFAULT_ENGINE = saved_engine
        constprop.FUSED_MERGE = True
        bexpr.configure_memoization(True)
        driver.configure_frontend_cache(True)

    new = _campaign(seeds)
    print(f"  {len(seeds)} cold seeds: old {old:.1f} s, new {new:.1f} s "
          f"({old / new:.1f}x)")
    return {
        "seeds": len(seeds),
        "old_s": round(old, 2),
        "new_s": round(new, 2),
        "speedup": round(old / new, 2),
    }


def check_floor() -> int:
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    floor = baseline["floor_steps_per_s"]
    compilation = compile_c(load_source(FLOOR_PROGRAM),
                            filename=FLOOR_PROGRAM)
    # Best of three: CI machines are noisy and the gates only need to
    # catch real regressions (both have 2x headroom).
    best = max(_run_steps_per_s(compilation.asm, "decoded")[0]
               for _ in range(3))
    print(f"decoded throughput on {FLOOR_PROGRAM}: {best:,.0f} steps/s "
          f"(floor {floor:,} steps/s)")
    failed = 0
    if best < floor:
        print("FAIL: decoded interpreter throughput regressed below the "
              "checked-in floor", file=sys.stderr)
        failed = 1

    source = generate_program(1)
    options = list(oracles.ABLATIONS.values())
    driver.configure_frontend_cache(False)
    try:
        compile_s = min(_shared_compile(source, options) for _ in range(3))
    finally:
        driver.configure_frontend_cache(True)
    ceiling = 2 * baseline["frontend"]["shared_s"]
    print(f"shared-frontend compile of seed 1 at {len(options)} ablations: "
          f"{compile_s * 1000:.0f} ms (ceiling {ceiling * 1000:.0f} ms)")
    if compile_s > ceiling:
        print("FAIL: compiling a campaign seed regressed above twice the "
              "checked-in frontend.shared_s", file=sys.stderr)
        failed = 1
    if not failed:
        print("OK")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default=BASELINE_PATH,
                        help="where to write the JSON baseline")
    parser.add_argument("--check-floor", action="store_true",
                        help="only verify decoded throughput and seed "
                             "compile time against the committed "
                             "baseline (CI mode)")
    parser.add_argument("--seeds", type=int, default=8,
                        help="campaign size for the cold-campaign bench")
    args = parser.parse_args(argv)

    if args.check_floor:
        return check_floor()

    results = {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    print("interpreter: decoded vs legacy steps/sec")
    results["interpreter"] = bench_interpreter()
    print("frontend: shared vs per-ablation compilation")
    results["frontend"] = bench_frontend()
    print("bounds algebra: normal-form memoization")
    results["nf_memo"] = bench_nf_memo()
    print("campaign: cold seeds, old vs new configuration")
    results["campaign"] = bench_campaign(range(args.seeds))

    # CI floor: half the decoded throughput measured on the floor program
    # (the "generous 2x headroom" of the perf-smoke gate).
    decoded = results["interpreter"][FLOOR_PROGRAM]["decoded_steps_per_s"]
    results["floor_program"] = FLOOR_PROGRAM
    results["floor_steps_per_s"] = decoded // 2

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
