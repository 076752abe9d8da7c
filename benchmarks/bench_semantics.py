"""Whole-tower semantics benchmarks: both execution tiers per level.

Measures steps/sec of the pre-decoded threaded-code engines against the
legacy ``step()`` machines for each semantic level the tower interprets
(only ASMsz has a codegen tier; ``bench_codegen.py`` measures it):

* ``clight``: the full runnable catalog, interleaved best-of-N per
  engine, with the geometric-mean speedup (the acceptance number for
  the execution-engine overhaul);
* ``rtl`` / ``mach``: a representative subset (the deep campaign mode's
  per-ablation cost is dominated by these two).

Run standalone to refresh the committed baseline::

    PYTHONPATH=src python benchmarks/bench_semantics.py [-o BENCH_semantics.json]

CI runs the cheap regression gate only (decoded Clight throughput on one
program against a floor recorded with 2x headroom)::

    PYTHONPATH=src python benchmarks/bench_semantics.py --check-floor
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.clight import semantics as clight_sem
from repro.driver import compile_c
from repro.events.stream import null_sink
from repro.mach import semantics as mach_sem
from repro.programs.catalog import ALL_RUNNABLE
from repro.programs.loader import load_source
from repro.rtl import semantics as rtl_sem

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "BENCH_semantics.json")

#: Program for the CI floor check: compiles in seconds, runs long enough
#: (~1M Clight steps) for a stable steps/sec figure.
FLOOR_PROGRAM = "mibench/crc32.c"

#: Subset for the (slower) RTL and Mach comparisons.
DEEP_PROGRAMS = [
    "paper_example.c",
    "mibench/crc32.c",
    "mibench/dijkstra.c",
    "recursive/fib.c",
    "compcert/mandelbrot.c",
]

CLIGHT_FUEL = 5_000_000
INTERP_FUEL = 50_000_000

LEVELS = {
    "clight": (clight_sem, "clight", CLIGHT_FUEL),
    "rtl": (rtl_sem, "rtl", INTERP_FUEL),
    "mach": (mach_sem, "mach", INTERP_FUEL),
}


def _steps_per_s(sem, program, fuel, engine):
    start = time.perf_counter()
    outcome = sem.run_streamed(program, null_sink, fuel=fuel,
                               engine=engine)
    elapsed = time.perf_counter() - start
    assert outcome.converged, outcome
    return outcome.steps / elapsed, outcome.steps


def _bench_level(level, programs, repeats):
    sem, attr, fuel = LEVELS[level]
    out = {}
    ratios = []
    for path in programs:
        compilation = compile_c(load_source(path), filename=path)
        program = getattr(compilation, attr)
        # Interleave the engines so cache/frequency drift hits both.
        best_legacy = best_decoded = 0.0
        steps = 0
        for _ in range(repeats):
            legacy, steps = _steps_per_s(sem, program, fuel, "legacy")
            decoded, _ = _steps_per_s(sem, program, fuel, "decoded")
            best_legacy = max(best_legacy, legacy)
            best_decoded = max(best_decoded, decoded)
        speedup = best_decoded / best_legacy
        ratios.append(speedup)
        out[path] = {
            "steps": steps,
            "legacy_steps_per_s": round(best_legacy),
            "decoded_steps_per_s": round(best_decoded),
            "speedup": round(speedup, 2),
        }
        print(f"  {path:28s} {steps:>9d} steps  "
              f"legacy {best_legacy:>10,.0f}/s  "
              f"decoded {best_decoded:>10,.0f}/s  {speedup:.2f}x")
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    out["geomean_speedup"] = round(geomean, 2)
    print(f"  {level} geomean speedup: {geomean:.2f}x "
          f"(min {min(ratios):.2f}x, max {max(ratios):.2f}x)")
    return out


def check_floor() -> int:
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    floor = baseline["floor_clight_steps_per_s"]
    compilation = compile_c(load_source(FLOOR_PROGRAM),
                            filename=FLOOR_PROGRAM)
    # Best of three: CI machines are noisy and the gate only needs to
    # catch real regressions (the floor already has 2x headroom).
    best = max(_steps_per_s(clight_sem, compilation.clight, CLIGHT_FUEL,
                            "decoded")[0]
               for _ in range(3))
    print(f"decoded Clight throughput on {FLOOR_PROGRAM}: "
          f"{best:,.0f} steps/s (floor {floor:,} steps/s)")
    if best < floor:
        print("FAIL: decoded Clight interpreter throughput regressed "
              "below the checked-in floor", file=sys.stderr)
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default=BASELINE_PATH,
                        help="where to write the JSON baseline")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved best-of-N per engine")
    parser.add_argument("--check-floor", action="store_true",
                        help="only verify decoded Clight throughput "
                             "against the committed floor (CI mode)")
    args = parser.parse_args(argv)

    if args.check_floor:
        return check_floor()

    results = {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    print("clight: decoded vs legacy steps/sec (full catalog)")
    results["clight"] = _bench_level("clight", ALL_RUNNABLE, args.repeats)
    print("rtl: decoded vs legacy steps/sec")
    results["rtl"] = _bench_level("rtl", DEEP_PROGRAMS, args.repeats)
    print("mach: decoded vs legacy steps/sec")
    results["mach"] = _bench_level("mach", DEEP_PROGRAMS, args.repeats)

    # The floor is recorded once (decoded throughput with 2x headroom)
    # and carried over on refresh, so re-running on a slower host never
    # loosens the CI gate; delete the key to re-record it deliberately.
    floor = results["clight"][FLOOR_PROGRAM]["decoded_steps_per_s"] // 2
    if os.path.exists(args.output):
        with open(args.output) as handle:
            floor = json.load(handle).get("floor_clight_steps_per_s", floor)
    results["floor_program"] = FLOOR_PROGRAM
    results["floor_clight_steps_per_s"] = floor

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
