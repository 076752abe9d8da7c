"""The derivation checker: executable validation of logic proofs.

Every rule application in a derivation tree is re-checked against the
side conditions of Fig. 4 (plus the loop/block/continue extensions).  Side
conditions are inequalities between bound expressions; they are discharged

* **exactly**, by max-plus normalization, whenever both sides are ground
  (everything the automatic analyzer emits), or
* **on a finite verification domain**, by exhaustive evaluation over the
  parameter ranges registered in the :class:`CheckerContext`, for the
  parametric assertions of manual recursive proofs.

The report distinguishes the two, so a caller can see exactly which parts
of a proof carry Coq-grade certainty and which rest on domain exhaustion
(the documented substitution for the paper's mechanized proofs).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro import obs
from repro.clight import ast as cl
from repro.errors import DerivationError
from repro.logic import derivation as dv
from repro.logic.assertions import FunContext, Post
from repro.logic.bexpr import (BExpr, SampleMemo, ZERO, badd, bmetric,
                               bound_equal, bound_le, frame_diffs)


class CheckReport:
    """Statistics of a successful check."""

    def __init__(self) -> None:
        self.nodes = 0
        self.exact_conditions = 0
        self.sampled_conditions = 0

    @property
    def fully_exact(self) -> bool:
        return self.sampled_conditions == 0

    def __repr__(self) -> str:
        return (f"CheckReport(nodes={self.nodes}, "
                f"exact={self.exact_conditions}, "
                f"sampled={self.sampled_conditions})")


class CheckerContext:
    """Everything a check needs: Γ, externals, verification domains."""

    def __init__(self, gamma: FunContext,
                 externals: Optional[Iterable[str]] = None,
                 param_domains: Optional[Mapping[str, Iterable[int]]] = None,
                 metric_samples: Optional[Iterable[Mapping[str, int]]] = None,
                 bounds_backend: Optional[str] = None) -> None:
        self.gamma = gamma
        self.externals = set(externals or ())
        self.param_domains = dict(param_domains or {})
        self.metric_samples = list(metric_samples) if metric_samples else None
        # None defers to bexpr's module default ("fm" unless the CLI set a
        # --bounds-backend); "cross" makes every side condition of this
        # check — including Q:FRAME domination — run agree-or-fail against
        # the SMT backend.
        self.bounds_backend = bounds_backend
        # Value vectors of the sampled side conditions; filled during one
        # check and emptied when it returns (see check_function_spec).
        self.sample_memo = SampleMemo()


def check_derivation(derivation: dv.Derivation, ctx: CheckerContext
                     ) -> CheckReport:
    """Validate a derivation; raises :class:`DerivationError` on failure."""
    report = CheckReport()
    try:
        with obs.span("checker.derivation") as sp:
            _check(derivation, ctx, report)
            sp.set(nodes=report.nodes)
    finally:
        ctx.sample_memo.clear()
    obs.observe("checker.derivation_seconds", sp.dur)
    return report


def check_function_spec(function: cl.Function, derivation: dv.Derivation,
                        ctx: CheckerContext, report: Optional[CheckReport] = None
                        ) -> CheckReport:
    """Check that ``derivation`` proves Γ(f)'s spec for ``function``'s body.

    The derivation's conclusion must be ``{P_f} body {(Q_f, ⊤, Q_f, ⊤)}``
    with break/continue exits unreachable at function top level (their
    slots are unconstrained), and the return exit restoring ``Q_f``.
    The sampled side conditions share ``ctx.sample_memo`` while the check
    runs; it is empty again when this returns or raises.
    """
    if report is None:
        report = CheckReport()
    try:
        _check_function_spec(function, derivation, ctx, report)
    finally:
        ctx.sample_memo.clear()
    return report


def _check_function_spec(function: cl.Function, derivation: dv.Derivation,
                         ctx: CheckerContext, report: CheckReport) -> None:
    spec = ctx.gamma[function.name]
    identity = {name: _param(name) for name in spec.params}
    pre, post = spec.instantiate(identity)
    conclusion = derivation.conclusion
    if conclusion.stmt is not function.body:
        raise DerivationError(
            f"{function.name}: derivation is not about the function body")
    _require_eq(conclusion.pre, pre, ctx, report,
                f"{function.name}: precondition differs from Γ spec")
    _require_eq(conclusion.post.ret, post, ctx, report,
                f"{function.name}: return postcondition differs from Γ spec")
    # Falling through the end of the body also ends the call.
    _require_eq(conclusion.post.skip, post, ctx, report,
                f"{function.name}: fall-through postcondition differs from Γ spec")
    with obs.span("checker.function", function=function.name) as sp:
        before = report.nodes
        _check(derivation, ctx, report)
        sp.set(nodes=report.nodes - before)
    obs.observe("checker.derivation_seconds", sp.dur)


def _param(name: str) -> BExpr:
    from repro.logic.bexpr import bparam

    return bparam(name)


# ---------------------------------------------------------------------------
# Node dispatch
# ---------------------------------------------------------------------------


def _check(node: dv.Derivation, ctx: CheckerContext, report: CheckReport) -> None:
    report.nodes += 1
    conclusion = node.conclusion
    stmt = conclusion.stmt

    if isinstance(node, dv.DSkip):
        _require_type(stmt, cl.SSkip, node)
        _require_eq(conclusion.pre, conclusion.post.skip, ctx, report,
                    "Q:SKIP: precondition must equal the skip postcondition")
        return
    if isinstance(node, dv.DSet):
        _require_type(stmt, cl.SSet, node)
        _require_eq(conclusion.pre, conclusion.post.skip, ctx, report,
                    "Q:SET: assignments cost no stack")
        return
    if isinstance(node, dv.DStore):
        _require_type(stmt, cl.SStore, node)
        _require_eq(conclusion.pre, conclusion.post.skip, ctx, report,
                    "Q:STORE: stores cost no stack")
        return
    if isinstance(node, dv.DBreak):
        _require_type(stmt, cl.SBreak, node)
        _require_eq(conclusion.pre, conclusion.post.brk, ctx, report,
                    "Q:BREAK: precondition must equal the break postcondition")
        return
    if isinstance(node, dv.DContinue):
        _require_type(stmt, cl.SContinue, node)
        _require_eq(conclusion.pre, conclusion.post.cont, ctx, report,
                    "Q:CONTINUE: precondition must equal the continue "
                    "postcondition")
        return
    if isinstance(node, dv.DReturn):
        _require_type(stmt, cl.SReturn, node)
        _require_eq(conclusion.pre, conclusion.post.ret, ctx, report,
                    "Q:RETURN: precondition must equal the return "
                    "postcondition")
        return
    if isinstance(node, dv.DSeq):
        _check_seq(node, ctx, report)
        return
    if isinstance(node, dv.DIf):
        _check_if(node, ctx, report)
        return
    if isinstance(node, dv.DLoop):
        _check_loop(node, ctx, report)
        return
    if isinstance(node, dv.DBlock):
        _check_block(node, ctx, report)
        return
    if isinstance(node, dv.DCall):
        _check_call(node, ctx, report)
        return
    if isinstance(node, dv.DExternal):
        _check_external(node, ctx, report)
        return
    if isinstance(node, dv.DFrame):
        _check_frame(node, ctx, report)
        return
    if isinstance(node, dv.DConseq):
        _check_conseq(node, ctx, report)
        return
    raise DerivationError(f"unknown derivation node {type(node).__name__}")


def _check_seq(node: dv.DSeq, ctx: CheckerContext, report: CheckReport) -> None:
    stmt = node.conclusion.stmt
    _require_type(stmt, cl.SSeq, node)
    assert isinstance(stmt, cl.SSeq)
    _require_same_stmt(node.first.conclusion.stmt, stmt.first, "Q:SEQ (first)")
    _require_same_stmt(node.second.conclusion.stmt, stmt.second, "Q:SEQ (second)")
    post = node.conclusion.post
    first_post = node.first.conclusion.post
    _require_eq(node.conclusion.pre, node.first.conclusion.pre, ctx, report,
                "Q:SEQ: precondition mismatch with S1")
    _require_eq(first_post.skip, node.second.conclusion.pre, ctx, report,
                "Q:SEQ: S1 fall-through must match S2 precondition")
    _require_eq(first_post.brk, post.brk, ctx, report,
                "Q:SEQ: S1 break exit must match the conclusion")
    _require_eq(first_post.ret, post.ret, ctx, report,
                "Q:SEQ: S1 return exit must match the conclusion")
    _require_eq(first_post.cont, post.cont, ctx, report,
                "Q:SEQ: S1 continue exit must match the conclusion")
    _require_post_eq(node.second.conclusion.post, post, ctx, report, "Q:SEQ: S2")
    _check(node.first, ctx, report)
    _check(node.second, ctx, report)


def _check_if(node: dv.DIf, ctx: CheckerContext, report: CheckReport) -> None:
    stmt = node.conclusion.stmt
    _require_type(stmt, cl.SIf, node)
    assert isinstance(stmt, cl.SIf)
    _require_same_stmt(node.then.conclusion.stmt, stmt.then, "Q:IF (then)")
    _require_same_stmt(node.otherwise.conclusion.stmt, stmt.otherwise,
                       "Q:IF (else)")
    for branch, label in ((node.then, "then"), (node.otherwise, "else")):
        _require_eq(node.conclusion.pre, branch.conclusion.pre, ctx, report,
                    f"Q:IF: {label}-branch precondition mismatch")
        _require_post_eq(branch.conclusion.post, node.conclusion.post, ctx,
                         report, f"Q:IF ({label})")
        _check(branch, ctx, report)


def _check_loop(node: dv.DLoop, ctx: CheckerContext, report: CheckReport) -> None:
    stmt = node.conclusion.stmt
    _require_type(stmt, cl.SLoop, node)
    assert isinstance(stmt, cl.SLoop)
    _require_same_stmt(node.body.conclusion.stmt, stmt.body, "Q:LOOP (body)")
    _require_same_stmt(node.post_stmt.conclusion.stmt, stmt.post,
                       "Q:LOOP (post)")
    invariant = node.conclusion.pre
    body = node.body.conclusion
    post_stmt = node.post_stmt.conclusion
    _require_eq(body.pre, invariant, ctx, report,
                "Q:LOOP: body precondition must be the loop invariant")
    _require_eq(body.post.skip, body.post.cont, ctx, report,
                "Q:LOOP: body fall-through and continue must agree "
                "(both enter the post statement)")
    _require_eq(post_stmt.pre, body.post.skip, ctx, report,
                "Q:LOOP: post-statement precondition mismatch")
    _require_eq(post_stmt.post.skip, invariant, ctx, report,
                "Q:LOOP: post statement must re-establish the invariant")
    _require_eq(post_stmt.post.brk, body.post.brk, ctx, report,
                "Q:LOOP: break exits of body and post must agree")
    _require_eq(post_stmt.post.ret, body.post.ret, ctx, report,
                "Q:LOOP: return exits of body and post must agree")
    _require_eq(node.conclusion.post.skip, body.post.brk, ctx, report,
                "Q:LOOP: the loop exits by break")
    _require_eq(node.conclusion.post.ret, body.post.ret, ctx, report,
                "Q:LOOP: return exit mismatch")
    _check(node.body, ctx, report)
    _check(node.post_stmt, ctx, report)


def _check_block(node: dv.DBlock, ctx: CheckerContext, report: CheckReport) -> None:
    stmt = node.conclusion.stmt
    _require_type(stmt, cl.SBlock, node)
    assert isinstance(stmt, cl.SBlock)
    _require_same_stmt(node.body.conclusion.stmt, stmt.body, "Q:BLOCK")
    body = node.body.conclusion
    _require_eq(node.conclusion.pre, body.pre, ctx, report,
                "Q:BLOCK: precondition mismatch")
    _require_eq(body.post.skip, node.conclusion.post.skip, ctx, report,
                "Q:BLOCK: fall-through mismatch")
    _require_eq(body.post.brk, node.conclusion.post.skip, ctx, report,
                "Q:BLOCK: break must exit to the block's fall-through")
    _require_eq(body.post.ret, node.conclusion.post.ret, ctx, report,
                "Q:BLOCK: return exit mismatch")
    _require_eq(body.post.cont, node.conclusion.post.cont, ctx, report,
                "Q:BLOCK: continue passes through the block")
    _check(node.body, ctx, report)


def _check_call(node: dv.DCall, ctx: CheckerContext, report: CheckReport) -> None:
    stmt = node.conclusion.stmt
    _require_type(stmt, cl.SCall, node)
    assert isinstance(stmt, cl.SCall)
    if stmt.callee != node.callee:
        raise DerivationError(
            f"Q:CALL: node names {node.callee!r} but statement calls "
            f"{stmt.callee!r}")
    if node.callee not in ctx.gamma:
        raise DerivationError(
            f"Q:CALL: no specification for {node.callee!r} in Γ")
    spec = ctx.gamma[node.callee]
    pre_inst, post_inst = spec.instantiate(node.spec_args)
    cost = bmetric(node.callee)
    _require_eq(node.conclusion.pre, badd(pre_inst, cost), ctx, report,
                f"Q:CALL {node.callee}: precondition must be "
                f"P_f(args) + M({node.callee})")
    _require_eq(node.conclusion.post.skip, badd(post_inst, cost), ctx, report,
                f"Q:CALL {node.callee}: postcondition must be "
                f"Q_f(args) + M({node.callee})")


def _check_external(node: dv.DExternal, ctx: CheckerContext,
                    report: CheckReport) -> None:
    stmt = node.conclusion.stmt
    _require_type(stmt, cl.SCall, node)
    assert isinstance(stmt, cl.SCall)
    if stmt.callee in ctx.gamma:
        raise DerivationError(
            f"Q:EXTERNAL: {stmt.callee!r} is an internal function; "
            "use Q:CALL")
    if ctx.externals and stmt.callee not in ctx.externals:
        raise DerivationError(
            f"Q:EXTERNAL: {stmt.callee!r} is not a declared external")
    _require_eq(node.conclusion.pre, node.conclusion.post.skip, ctx, report,
                "Q:EXTERNAL: external calls cost no stack")


def _check_frame(node: dv.DFrame, ctx: CheckerContext, report: CheckReport) -> None:
    _require_same_stmt(node.body.conclusion.stmt, node.conclusion.stmt,
                       "Q:FRAME")
    _require_le(ZERO, node.frame, ctx, report,
                "Q:FRAME: the frame constant must be non-negative")
    # A difference ``total - part`` inside the frame constant is only an
    # actual difference when ``part <= total`` (evaluation clamps at 0,
    # and the comparators rewrite ``part + (total - part)`` to ``total``
    # assuming exactly this).  Without the check a derivation could frame
    # a body needing T up to any smaller P — the induction step of a
    # recursive spec would pass vacuously on domain points below the
    # base-case guard.
    for diff in frame_diffs(node.frame):
        _require_le(diff.part, diff.total, ctx, report,
                    "Q:FRAME: the framed difference must dominate its "
                    "subtrahend over the verification domain")
    body = node.body.conclusion
    _require_eq(node.conclusion.pre, badd(body.pre, node.frame), ctx, report,
                "Q:FRAME: precondition must be P + c")
    for ours, theirs, label in zip(node.conclusion.post.parts(),
                                   body.post.parts(),
                                   ("skip", "break", "return", "continue")):
        _require_eq(ours, badd(theirs, node.frame), ctx, report,
                    f"Q:FRAME: {label} postcondition must be Q + c")
    _check(node.body, ctx, report)


def _check_conseq(node: dv.DConseq, ctx: CheckerContext, report: CheckReport) -> None:
    _require_same_stmt(node.body.conclusion.stmt, node.conclusion.stmt,
                       "Q:CONSEQ")
    body = node.body.conclusion
    _require_le(body.pre, node.conclusion.pre, ctx, report,
                "Q:CONSEQ: P must dominate P1")
    for ours, theirs, label in zip(node.conclusion.post.parts(),
                                   body.post.parts(),
                                   ("skip", "break", "return", "continue")):
        _require_le(ours, theirs, ctx, report,
                    f"Q:CONSEQ: derived {label} postcondition must "
                    "dominate the conclusion")
    _check(node.body, ctx, report)


# ---------------------------------------------------------------------------
# Side-condition plumbing
# ---------------------------------------------------------------------------


def _require_post_eq(actual: Post, expected: Post, ctx: CheckerContext,
                     report: CheckReport, where: str) -> None:
    for ours, theirs, label in zip(actual.parts(), expected.parts(),
                                   ("skip", "break", "return", "continue")):
        _require_eq(ours, theirs, ctx, report,
                    f"{where}: {label} postcondition mismatch")


def _require_type(stmt: cl.Stmt, expected: type, node: dv.Derivation) -> None:
    if not isinstance(stmt, expected):
        raise DerivationError(
            f"{node.rule}: expected a {expected.__name__}, "
            f"got {type(stmt).__name__}")


def _require_same_stmt(actual: cl.Stmt, expected: cl.Stmt, where: str) -> None:
    if actual is not expected:
        raise DerivationError(f"{where}: sub-derivation proves a different "
                              "statement than the conclusion mentions")


def _require_eq(a: BExpr, b: BExpr, ctx: CheckerContext, report: CheckReport,
                message: str) -> None:
    if a is b:
        report.exact_conditions += 1
        return
    result = bound_equal(a, b, param_domains=ctx.param_domains,
                         metric_samples=ctx.metric_samples,
                         backend=ctx.bounds_backend, memo=ctx.sample_memo)
    _record(result, report)
    if not result.holds:
        raise DerivationError(f"{message}: {a!r} != {b!r}")


def _require_le(small: BExpr, large: BExpr, ctx: CheckerContext,
                report: CheckReport, message: str) -> None:
    result = bound_le(small, large, param_domains=ctx.param_domains,
                      metric_samples=ctx.metric_samples,
                      backend=ctx.bounds_backend, memo=ctx.sample_memo)
    _record(result, report)
    if not result.holds:
        raise DerivationError(f"{message}: {small!r} > {large!r}")


def _record(result, report: CheckReport) -> None:
    if result.exact:
        report.exact_conditions += 1
    else:
        report.sampled_conditions += 1
