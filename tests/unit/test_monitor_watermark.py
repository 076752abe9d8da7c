"""Watermark accounting of the stack monitor (``repro.measure.monitor``).

Three properties the campaign's probes lean on:

* overflow accounting — an overflowing run still reports a meaningful
  watermark (the deepest *successful* ESP position; the decrement that
  would cross the stack base raises before it is recorded);
* the exact ``--stack`` boundary — a block of exactly the verified
  bound converges, four bytes fewer overflows (Theorem 1's 4-byte gap);
* engine equivalence — the decoded and legacy ASMsz engines share the
  monitor and must report identical watermarks program by program.
"""

import pytest

from repro.driver import compile_c, verify_stack_bounds
from repro.measure.monitor import measure_c_program, measure_compilation
from repro.programs.loader import load_source

SOURCE = ("int helper(int x) { return x + 1; } "
          "int main() { print_int(helper(41)); return 0; }")

DEEP = ("int f(int n) { if (n == 0) { return 0; } return f(n - 1) + 1; } "
        "int main() { return f(200); }")


class TestOverflowAccounting:
    def test_overflow_watermark_stays_within_provision(self):
        """The failed decrement is not part of the watermark: an
        overflowing run reports at most the provisioned block."""
        run = measure_c_program(DEEP, stack_bytes=64)
        assert not run.converged
        assert 0 < run.measured_bytes <= 64

    def test_overflow_watermark_grows_with_provision(self):
        """More stack lets the recursion get deeper before it overflows,
        and the watermark tracks that."""
        small = measure_c_program(DEEP, stack_bytes=64)
        large = measure_c_program(DEEP, stack_bytes=256)
        assert not small.converged and not large.converged
        assert large.measured_bytes > small.measured_bytes

    def test_converged_watermark_is_stack_size_independent(self):
        """The watermark measures the program, not the provision."""
        compilation = compile_c(SOURCE)
        lean = measure_compilation(compilation, stack_bytes=256)
        lavish = measure_compilation(compilation, stack_bytes=1 << 20)
        assert lean.converged and lavish.converged
        assert lean.measured_bytes == lavish.measured_bytes


class TestExactStackBoundary:
    def test_bound_is_exactly_sufficient(self):
        """``--stack B`` (the hint ``repro bounds`` prints) converges and
        measures ``B - 4``; ``--stack B-4`` overflows."""
        bounds = verify_stack_bounds(SOURCE)
        compilation = bounds.compilation
        b = bounds.stack_requirement()
        at_bound = measure_compilation(compilation, stack_bytes=b)
        assert at_bound.converged
        assert at_bound.measured_bytes == b - 4
        under = measure_compilation(compilation, stack_bytes=b - 4)
        assert not under.converged

    def test_minimal_block_from_measurement(self):
        """A block of ``measured + 4`` (main's return-address slot) is the
        smallest that converges."""
        compilation = compile_c(SOURCE)
        measured = measure_compilation(compilation).measured_bytes
        assert measure_compilation(compilation,
                                   stack_bytes=measured + 4).converged
        assert not measure_compilation(compilation,
                                       stack_bytes=measured).converged


# A cross-section of the packaged catalog: straight-line, table-driven,
# call-heavy and recursive programs (the full-catalog sweep lives in the
# integration suite; these keep the unit tier fast).
CATALOG_SAMPLE = [
    "paper_example.c",
    "mibench/crc32.c",
    "mibench/bitcount.c",
    "mibench/dijkstra.c",
    "recursive/fib.c",
    "recursive/qsort.c",
    "recursive/sum.c",
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("path", CATALOG_SAMPLE)
    def test_decoded_and_legacy_watermarks_match(self, path):
        compilation = compile_c(load_source(path), filename=path)
        decoded = measure_compilation(compilation, engine="decoded")
        legacy = measure_compilation(compilation, engine="legacy")
        assert decoded.converged and legacy.converged
        assert decoded.measured_bytes == legacy.measured_bytes
        assert decoded.return_code == legacy.return_code
        assert decoded.output == legacy.output

    def test_engines_agree_on_overflow_watermark(self):
        compilation = compile_c(DEEP)
        decoded = measure_compilation(compilation, stack_bytes=128,
                                      engine="decoded")
        legacy = measure_compilation(compilation, stack_bytes=128,
                                     engine="legacy")
        assert not decoded.converged and not legacy.converged
        assert decoded.measured_bytes == legacy.measured_bytes
