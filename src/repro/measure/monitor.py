"""The stack monitor and bound-vs-measured experiment runners."""

from __future__ import annotations

from typing import Optional

from repro.asm.machine import DEFAULT_FUEL
from repro.driver import Compilation, CompilerOptions, compile_c
from repro.errors import DynamicError
from repro.events.trace import Converges, weight_fold


class MeasuredRun:
    """One monitored execution of a compiled program."""

    def __init__(self, behavior, measured_bytes: int,
                 return_code: Optional[int], output: list) -> None:
        self.behavior = behavior
        self.measured_bytes = measured_bytes
        self.return_code = return_code
        self.output = output

    @property
    def converged(self) -> bool:
        return isinstance(self.behavior, Converges)

    def trace_weight(self, metric) -> int:
        """``W_M`` of the observed trace (the shared streaming fold)."""
        return weight_fold(metric, self.behavior.trace).peak

    def __repr__(self) -> str:
        return (f"MeasuredRun({type(self.behavior).__name__}, "
                f"{self.measured_bytes} bytes)")


def measure_compilation(compilation: Compilation,
                        stack_bytes: int = 1 << 20,
                        fuel: int = DEFAULT_FUEL,
                        engine: Optional[str] = None) -> MeasuredRun:
    """Run the compiled program under the monitor.

    ``engine`` picks the ASMsz tier (None = the default);
    the measured watermark must not depend on it — all engines share
    the monitor, and ``tests/unit/test_monitor_watermark.py`` holds
    them to identical accounting.
    """
    output: list = []
    behavior, machine = compilation.run(stack_bytes=stack_bytes,
                                        output=output, fuel=fuel,
                                        engine=engine)
    return MeasuredRun(behavior, machine.measured_stack_usage,
                       getattr(behavior, "return_code", None), output)


def measure_c_program(source: str, macros: Optional[dict[str, str]] = None,
                      options: Optional[CompilerOptions] = None,
                      stack_bytes: int = 1 << 20,
                      engine: Optional[str] = None) -> MeasuredRun:
    """Compile a C program and measure one execution."""
    compilation = compile_c(source, macros=macros, options=options)
    return measure_compilation(compilation, stack_bytes=stack_bytes,
                               engine=engine)


class TightnessProbe:
    """Result of probing a verified bound on the finite-stack machine."""

    def __init__(self, bound: int, at_bound: MeasuredRun,
                 underprovisioned: Optional[MeasuredRun]) -> None:
        self.bound = bound
        self.at_bound = at_bound
        self.underprovisioned = underprovisioned

    @property
    def sound(self) -> bool:
        """The bound-sized stack converged within the bound."""
        return (self.at_bound.converged
                and self.at_bound.measured_bytes <= self.bound)

    @property
    def overflow_detected(self) -> bool:
        """The underprovisioned stack did *not* converge (so the machine's
        overflow detection is live, not silently disabled)."""
        return (self.underprovisioned is not None
                and not self.underprovisioned.converged)


def probe_bound_tightness(compilation: Compilation, bound: int,
                          fuel: int = DEFAULT_FUEL) -> TightnessProbe:
    """Theorem 1, run twice: once at the verified bound and once 4 bytes
    below the measured requirement.

    A stack block of ``bound + 4`` total bytes (the +4 for main's pushed
    return address) must converge with usage at most ``bound``; rerunning
    with 4 bytes fewer than the measured requirement must overflow.  The
    differential campaign uses this to reject bounds that only "hold"
    because overflow was never going to trigger.
    """
    at_bound = measure_compilation(compilation, stack_bytes=bound + 4,
                                   fuel=fuel)
    underprovisioned = None
    if at_bound.converged:
        needed = at_bound.measured_bytes + 4
        underprovisioned = measure_compilation(
            compilation, stack_bytes=needed - 4, fuel=fuel)
    return TightnessProbe(bound, at_bound, underprovisioned)


def minimal_stack(compilation: Compilation, upper_bound: int,
                  fuel: int = DEFAULT_FUEL) -> int:
    """The smallest stack block (in bytes) on which the program converges.

    Binary search between 4 and ``upper_bound + 4`` total stack bytes;
    used by the Theorem 1 benchmark to show the verified bound is tight
    to within the paper's 4 bytes.  ``upper_bound`` is in "sz" terms, so
    the total preallocated block is ``sz + 4``.

    The search is quantized to word multiples: a stack block whose top is
    not 4-aligned leaves ESP misaligned (a real loader would never do
    that), so only word-aligned sizes are meaningful.
    """
    def runs_at(sz: int) -> bool:
        behavior, _machine = compilation.run(stack_bytes=sz + 4, fuel=fuel)
        return isinstance(behavior, Converges)

    if upper_bound % 4:
        upper_bound += 4 - upper_bound % 4
    if not runs_at(upper_bound):
        raise DynamicError(
            f"program does not converge even with {upper_bound} stack bytes")
    low, high = 0, upper_bound // 4
    while low < high:
        mid = (low + high) // 2
        if runs_at(mid * 4):
            high = mid
        else:
            low = mid + 1
    return low * 4
