"""Quantitative CompCert, end to end: the user-facing driver.

``compile_c`` runs the full pipeline

    C → Clight → Cminor → RTL (constprop, optional CSE and tail calls,
      deadcode) → allocated RTL → Linear → Mach → ASMsz

and returns every intermediate program together with the compilation
artifacts the paper's Theorem 1 needs: the Mach frame-size map ``SF`` and
the cost metric ``M(f) = SF(f) + 4``.

``verify_stack_bounds`` then runs the automatic stack analyzer at the
Clight level, re-checks the emitted logic derivations, and instantiates
the symbolic bounds with the compiler's metric — producing the verified
per-function byte bounds of the paper's Table 1.

The pipeline is deliberately exposed as *composable stages* —

    compile_frontend → compile_clight → analyze_clight → check_analysis

— each a pure function of its inputs, so callers can insert caching at
any boundary.  ``verify_stack_bounds`` is the in-process composition;
``repro.serve.pipeline`` is the same composition with a
content-addressed result store between every stage (the daemon behind
``python -m repro serve``).
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.analyzer import AnalysisResult, StackAnalyzer
from repro.asm import asm_of_mach
from repro.asm import ast as asm_ast
from repro.asm.machine import AsmMachine, DEFAULT_FUEL, run_program as run_asm
from repro.c.parser import parse
from repro.c.typecheck import typecheck
from repro.clight import ast as cl
from repro.clight.from_c import clight_of_program
from repro.cminor import CminorProgram, cminor_of_clight
from repro.errors import AnalysisError, UnsupportedFeatureError
from repro.events.metrics import StackMetric
from repro.events.trace import Behavior
from repro.linear import LinearProgram, linear_of_rtl
from repro.logic.bexpr import BExpr, evaluate
from repro.mach import MachProgram, mach_of_linear
from repro.rtl import RTLProgram, rtl_of_cminor
from repro.rtl.constprop import constprop_program
from repro.rtl.cse import cse_program
from repro.rtl.deadcode import deadcode_program
from repro.rtl.tailcall import tailcall_program


class CompilerOptions:
    """Pass toggles (the ablation benchmark flips these)."""

    def __init__(self, constprop: bool = True, deadcode: bool = True,
                 cse: bool = False, tailcall: bool = False,
                 spill_everything: bool = False) -> None:
        self.constprop = constprop
        self.deadcode = deadcode
        # CSE is opt-in: with an all-caller-saved register file, the
        # longer live ranges it creates must be spilled across calls,
        # which *inflates* frames and hence the verified bounds (see the
        # ablation bench).  Fewer instructions, bigger frames — the
        # bounds-centric default favors tight frames.
        self.cse = cse
        # Also off by default, like in the paper's Quantitative CompCert:
        # the pass deletes call events, so plain trace equality across
        # levels no longer holds (the quantitative refinement still does).
        self.tailcall = tailcall
        self.spill_everything = spill_everything

    def key(self) -> tuple:
        """Structural identity, for caches and campaign reports.

        Derived from the instance dict rather than a hand-maintained
        tuple: a pass toggle added to ``__init__`` (and to the CLI's
        ``add_common``) is automatically part of the key, so a cache
        keyed on options can never serve a compilation from a different
        option set because someone forgot to extend this list
        (``tests/unit/test_compiler_options.py`` locks the audit in).
        """
        return tuple(sorted(vars(self).items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompilerOptions):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (f"CompilerOptions(constprop={self.constprop}, "
                f"deadcode={self.deadcode}, cse={self.cse}, "
                f"tailcall={self.tailcall}, "
                f"spill_everything={self.spill_everything})")


class Compilation:
    """Everything the pipeline produced for one translation unit."""

    def __init__(self, clight: cl.Program, cminor: CminorProgram,
                 rtl: RTLProgram, linear: LinearProgram, mach: MachProgram,
                 asm: asm_ast.AsmProgram, options: CompilerOptions) -> None:
        self.clight = clight
        self.cminor = cminor
        self.rtl = rtl
        self.linear = linear
        self.mach = mach
        self.asm = asm
        self.options = options

    @property
    def frame_sizes(self) -> dict[str, int]:
        """The Mach ``SF`` map (Theorem 1, item 2)."""
        return self.mach.frame_sizes()

    @property
    def metric(self) -> StackMetric:
        """The compiler-produced cost metric ``M(f) = SF(f) + 4``."""
        return self.mach.cost_metric()

    def run(self, stack_bytes: int = 1 << 20,
            output: Optional[list] = None,
            fuel: int = DEFAULT_FUEL,
            engine: Optional[str] = None) -> tuple[Behavior, AsmMachine]:
        """Execute the compiled program on ASMsz.

        ``engine`` selects the execution tier (None = the default of
        :mod:`repro.asm.machine`).
        """
        return run_asm(self.asm, stack_bytes=stack_bytes, output=output,
                       fuel=fuel, engine=engine)


def compile_clight(clight: cl.Program,
                   options: Optional[CompilerOptions] = None) -> Compilation:
    """Run the backend pipeline from a Clight program."""
    options = options or CompilerOptions()
    with obs.span("compile.backend", options=repr(options.key())):
        with obs.span("compile.cminor"):
            cminor = cminor_of_clight(clight)
        with obs.span("compile.rtl"):
            rtl = rtl_of_cminor(cminor)
        if options.constprop:
            with obs.span("compile.rtl.constprop"):
                constprop_program(rtl)
        if options.cse:
            with obs.span("compile.rtl.cse"):
                cse_program(rtl)
        if options.tailcall:
            with obs.span("compile.rtl.tailcall"):
                tailcall_program(rtl)
        if options.deadcode:
            with obs.span("compile.rtl.deadcode"):
                deadcode_program(rtl)
        with obs.span("compile.linear"):
            linear = linear_of_rtl(
                rtl, spill_everything=options.spill_everything)
        with obs.span("compile.mach"):
            mach = mach_of_linear(linear)
        with obs.span("compile.asm"):
            asm = asm_of_mach(mach)
    return Compilation(clight, cminor, rtl, linear, mach, asm, options)


# The frontend (parse + typecheck + Clight generation) depends only on the
# source text, never on ``CompilerOptions``, and the backend never mutates
# the Clight program it is handed (``cminor_of_clight`` rebuilds every node
# it lowers).  So one frontend result can be shared across every ablation
# point of a seed.  The cache is deliberately tiny: campaigns compile the
# same seed under ~5 option sets back to back, then move on.
_FRONTEND_CACHE_SIZE = 8
_frontend_cache: dict[tuple, cl.Program] = {}
_frontend_cache_enabled = True


def configure_frontend_cache(enabled: bool) -> None:
    """Enable/disable frontend sharing (benchmarks flip this)."""
    global _frontend_cache_enabled
    _frontend_cache_enabled = enabled
    _frontend_cache.clear()


def compile_frontend(source: str, filename: str = "<string>",
                     macros: Optional[dict[str, str]] = None) -> cl.Program:
    """Parse, type-check and lower a C translation unit to Clight.

    The result is cached by ``(source, filename, macros)`` and must be
    treated as immutable by callers; pass it to :func:`compile_clight` any
    number of times with different options.
    """
    key = (source, filename,
           tuple(sorted(macros.items())) if macros else None)
    if _frontend_cache_enabled:
        cached = _frontend_cache.get(key)
        if cached is not None:
            obs.add("frontend.cache.hits")
            return cached
    with obs.span("compile.frontend", filename=filename) as sp:
        obs.add("frontend.cache.misses")
        try:
            with obs.span("compile.parse"):
                program = parse(source, filename, macros)
            with obs.span("compile.typecheck"):
                env = typecheck(program)
            with obs.span("compile.clight"):
                clight = clight_of_program(program, env)
        except RecursionError:
            # Every front-end pass recurses over the syntax tree, so
            # nesting past the interpreter's recursion limit (deeply
            # parenthesized or very long binary expressions) is outside
            # the supported subset: one diagnosis here covers them all.
            raise UnsupportedFeatureError(
                f"{filename}: expression or statement nesting too deep "
                "for the front end") from None
        sp.set(functions=len(clight.functions))
    if _frontend_cache_enabled:
        if len(_frontend_cache) >= _FRONTEND_CACHE_SIZE:
            _frontend_cache.pop(next(iter(_frontend_cache)))
        _frontend_cache[key] = clight
    return clight


def compile_c(source: str, filename: str = "<string>",
              macros: Optional[dict[str, str]] = None,
              options: Optional[CompilerOptions] = None) -> Compilation:
    """Parse, type-check and compile a C translation unit."""
    return compile_clight(compile_frontend(source, filename, macros), options)


def analyze_clight(clight: cl.Program) -> AnalysisResult:
    """Pipeline stage: the certified automatic stack analyzer (paper §5).

    Depends only on the Clight program — never on ``CompilerOptions`` —
    so its result (symbolic bounds plus one logic derivation per
    function) is shared across every backend ablation of a source.
    """
    return StackAnalyzer(clight).analyze()


def check_analysis(analysis: AnalysisResult):
    """Pipeline stage: re-check every emitted derivation exactly.

    Raises :class:`AnalysisError` if any side condition was only
    sampled; returns the :class:`~repro.logic.checker.CheckReport`
    otherwise.  This is the trust root of the whole story — a cached or
    served bound is only as good as the derivation re-check behind it.
    """
    report = analysis.check()
    # Not an assert: the guarantee must survive ``python -O``.  Sampled
    # side conditions are legitimate exactly when the analysis carries
    # verification domains (inferred recursive specs check their
    # induction step per domain instance); a recursion-free analysis must
    # still discharge everything exactly.
    if not report.fully_exact and not analysis.param_domains:
        raise AnalysisError(
            "analyzer emitted a sampled side condition; the derivation "
            f"re-check is not exact ({report!r})")
    return report


class VerifiedBounds:
    """Verified stack bounds: symbolic (paper Table 2 style) and in bytes
    under the compiler's metric (paper Table 1 style)."""

    def __init__(self, compilation: Compilation,
                 analysis: AnalysisResult) -> None:
        self.compilation = compilation
        self.analysis = analysis
        self.metric = compilation.metric

    def symbolic(self, function: str) -> BExpr:
        return self.analysis.bound_expr(function)

    def bytes(self, function: str,
              params: Optional[dict[str, int]] = None) -> int:
        return self.analysis.bound_bytes(function, self.metric, params)

    def parametric(self) -> list[str]:
        """Functions whose bound depends on their arguments (recursion)."""
        from repro.logic.bexpr import param_names

        return sorted(name for name in self.analysis.functions
                      if param_names(self.analysis.bound_expr(name)))

    def all_bytes(self) -> dict[str, int]:
        """Concrete bounds for every non-parametric function."""
        parametric = set(self.parametric())
        return {name: self.bytes(name) for name in self.analysis.functions
                if name not in parametric}

    def stack_requirement(self) -> int:
        """``sz`` of Theorem 1: the verified bound for ``main``.

        Running the compiled program on ASMsz with a stack block of
        ``stack_requirement() + 4`` bytes (the +4 for main's pushed return
        address) cannot overflow.
        """
        main = self.compilation.asm.main
        if main not in self.analysis.functions:
            raise AnalysisError("program has no analyzed main function")
        return self.bytes(main)


def verify_stack_bounds(source: str, filename: str = "<string>",
                        macros: Optional[dict[str, str]] = None,
                        options: Optional[CompilerOptions] = None,
                        check_derivations: bool = True) -> VerifiedBounds:
    """The paper's end-to-end workflow in one call.

    Compiles ``source``, runs the certified automatic stack analyzer on
    the Clight program, optionally re-checks every emitted derivation in
    the quantitative logic, and returns the bounds instantiated with the
    compiler's cost metric.
    """
    compilation = compile_c(source, filename, macros, options)
    analysis = analyze_clight(compilation.clight)
    if check_derivations:
        check_analysis(analysis)
    return VerifiedBounds(compilation, analysis)
