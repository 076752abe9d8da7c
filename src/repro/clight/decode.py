"""Pre-decoded (threaded-code) execution engine for Clight.

The legacy interpreter in :mod:`repro.clight.semantics` re-walks the
statement tree on every small step: an ``isinstance`` chain over the
current statement, a recursive ``isinstance``-dispatched ``eval_expr``
per expression, and string-keyed dicts for temporaries and stack blocks.
This module compiles each :class:`~repro.clight.ast.Program` *once* into
per-statement closures (classic threaded code):

* every statement becomes a closure ``op(m) -> next_op | None`` — the
  hot loop is just ``code = code(m)``; ``None`` means the program is
  done;
* every expression becomes a closure ``ev(m) -> Value`` with constants,
  temp slots, global addresses and operator strings resolved at decode
  time;
* temporaries and stack blocks move from name-keyed dicts to per-frame
  lists with indices assigned at decode time;
* continuations are flat tuples ``(tag, ...)`` with integer tags instead
  of ``Kont`` class instances.

Decoding is cached per program in a ``WeakKeyDictionary`` and is fully
machine-independent: closures receive the machine as their argument, so
one decode serves every execution (the campaign runs each seed's Clight
program once, but golden-suite programs and benchmarks re-run).

The engine is observably equivalent to the legacy step loop by
construction: same events in the same order, the same one step per
legacy ``step()`` call, the same memory-allocation order (hence
identical block ids inside error messages), and byte-identical error
messages.  ``tests/unit/test_sem_decode.py`` checks agreement on traces,
outputs, return codes, failure reasons and step counts over the program
catalog and generated seeds at every ablation; the legacy loop stays
available behind ``run_program(..., engine="legacy")`` as the oracle.
"""

from __future__ import annotations

from typing import Callable, Optional
from weakref import WeakKeyDictionary

from repro import obs
from repro.clight import ast as cl
from repro.errors import (DynamicError, FuelExhaustedError, MemoryError_,
                          UndefinedBehaviorError)
from repro.events.stream import Consumer, StreamOutcome
from repro.events.trace import CallEvent, ReturnEvent
from repro import ints
from repro.memory import Memory
from repro.memory.chunks import Chunk
from repro.memory.values import VFloat, VInt, VPtr, VUndef
from repro.ops import (_FLOAT_BINOPS, _FLOAT_COMPARES, _INT_BINOPS,
                       _INT_COMPARES, eval_binop, eval_unop)
from repro.runtime import call_external

#: Shared "no value yet" instance — ``VUndef`` compares by type only, so
#: one instance is indistinguishable from the fresh ones the legacy
#: interpreter creates.
UNDEF = VUndef()
_VINT0 = VInt(0)

# Continuation tags.  Layouts (``next`` is always the last element):
#   (KSTOP,)
#   (KSEQ, stmt_op, next)
#   (KLOOP1, post_op, loop_op, next)    running the loop body
#   (KLOOP2, loop_op, next)             running the post statement
#   (KBLOCK, next)
#   (KCALL, dest_slot, caller_rec, caller_temps, caller_blocks, next)
KSTOP, KSEQ, KLOOP1, KLOOP2, KBLOCK, KCALL = range(6)
K_STOP = (KSTOP,)

#: Shared frame-block list for functions without stack variables; it is
#: written once at call entry and only read afterwards, so one instance
#: can serve every frame.
_NO_BLOCKS: list = []


class DecodedFunction:
    """Per-function decode result (two-phase: created, then filled)."""

    __slots__ = ("name", "entry", "n_params", "n_temps", "param_slots",
                 "block_spec", "call_event", "ret_event")

    def __init__(self, function: cl.Function) -> None:
        self.name = function.name
        self.n_params = len(function.params)
        # One shared event instance per function: events are immutable
        # and structurally compared, so re-emitting the same object is
        # indistinguishable from the fresh ones the legacy machine makes.
        self.call_event = CallEvent(function.name)
        self.ret_event = ReturnEvent(function.name)
        self.entry: Callable = None  # filled by decode_program
        self.n_temps = 0
        self.param_slots: tuple[int, ...] = ()
        #: ``(size, tag)`` per stack variable, in declaration order (the
        #: allocation — and hence free — order of the legacy machine).
        self.block_spec: tuple[tuple[int, str], ...] = ()


class DecodedProgram:
    __slots__ = ("functions", "main", "globals_index")

    def __init__(self, program: cl.Program) -> None:
        self.functions = {name: DecodedFunction(fn)
                          for name, fn in program.functions.items()}
        self.main = program.main
        self.globals_index = {var.name: index
                              for index, var in enumerate(program.globals)}


class _FunctionContext:
    """Decode-time state for one function."""

    def __init__(self, program: cl.Program, dprog: DecodedProgram,
                 function: cl.Function) -> None:
        self.program = program
        self.dprog = dprog
        self.name = function.name
        self.temp_slots: dict[str, int] = {}
        for temp in function.temps:
            self.temp_slot(temp)
        for param in function.params:
            self.temp_slot(param)
        self.stack_slots = {var.name: index
                            for index, var in enumerate(function.stackvars)}

    def temp_slot(self, name: str) -> int:
        slot = self.temp_slots.get(name)
        if slot is None:
            slot = len(self.temp_slots)
            self.temp_slots[name] = slot
        return slot


# ---------------------------------------------------------------------------
# Expression decoding: closures ``ev(m) -> Value``
# ---------------------------------------------------------------------------


def _decode_expr(expr: cl.Expr, ctx: _FunctionContext):
    if isinstance(expr, cl.EConstInt):
        value = VInt(expr.value)
        return lambda m: value
    if isinstance(expr, cl.EConstFloat):
        value = VFloat(expr.value)
        return lambda m: value
    if isinstance(expr, cl.ETemp):
        slot = ctx.temp_slot(expr.name)
        return lambda m: m.temps[slot]
    if isinstance(expr, cl.EAddrGlobal):
        index = ctx.dprog.globals_index.get(expr.name)
        if index is None:
            name = expr.name

            def ev(m):
                raise UndefinedBehaviorError(f"unknown global {name!r}")
            return ev
        return lambda m: m.gptrs[index]
    if isinstance(expr, cl.EAddrStack):
        slot = ctx.stack_slots.get(expr.name)
        if slot is None:
            name = expr.name

            def ev(m):
                raise UndefinedBehaviorError(
                    f"unknown stack variable {name!r}")
            return ev
        return lambda m: m.blocks[slot]
    if isinstance(expr, cl.ELoad):
        return _decode_load(expr, ctx)
    if isinstance(expr, cl.EUnop):
        return _decode_unop(expr.op, _decode_expr(expr.arg, ctx))
    if isinstance(expr, cl.EBinop):
        return _decode_binop(expr.op, expr.left, expr.right, ctx)
    type_name = type(expr).__name__

    def ev(m):
        raise DynamicError(f"unknown expression {type_name}")
    return ev


# Operator specialization: resolve the operator function at decode time
# and inline the common monomorphic case (all-int / all-float operands).
# Every other case — pointers, undef, type errors, unknown operators —
# falls back to the legacy ``eval_unop``/``eval_binop``, which raises the
# exact same errors the legacy interpreter would.

_VFALSE = VInt(0)
_VTRUE = VInt(1)

# Direct formulas for the pure-bitwise/arithmetic binops: operands are
# already in unsigned 32-bit representation, so the only mask needed is
# the one VInt.__init__ applies to the result.  (Division and modulo
# stay on the checked ints.* helpers: they can go wrong.)
_DIRECT_INT_BINOPS = {
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 31),
    "shru": lambda a, b: a >> (b & 31),
    "shrs": lambda a, b:
        (a - 0x100000000 if a > 0x7FFFFFFF else a) >> (b & 31),
}

_FAST_INT_UNOPS = {
    "neg": ints.neg,
    "notint": ints.not_,
    "cast8signed": ints.sign_extend8,
    "cast8unsigned": ints.wrap8,
    "cast16signed": ints.sign_extend16,
    "cast16unsigned": ints.wrap16,
}


def _decode_unop(op, arg_ev):
    fn = _FAST_INT_UNOPS.get(op)
    if fn is not None:
        def ev(m):
            value = arg_ev(m)
            if type(value) is VInt:
                return VInt(fn(value.value))
            return eval_unop(op, value)
        return ev
    if op == "notbool":
        def ev(m):
            value = arg_ev(m)
            if type(value) is VInt:
                return _VFALSE if value.value != 0 else _VTRUE
            return eval_unop(op, value)
        return ev
    return lambda m: eval_unop(op, arg_ev(m))


def _atom(expr, ctx):
    """Inlinable operand: ``(temp_slot, const)`` — at most one is set."""
    if isinstance(expr, cl.ETemp):
        return ctx.temp_slot(expr.name), None
    if isinstance(expr, cl.EConstInt):
        return None, VInt(expr.value)
    return None, None


def _flatten_addr(addr, ctx):
    """Flatten an address tree into ``base + temps[slot]*scale + const``.

    The frontend lowers every array/struct access into left-nested
    ``add`` chains whose leftmost leaf is the base pointer (a temp, a
    stack variable or a global) and whose right operands are constants,
    plain index temps, or ``mul(temp, size)`` scaled indices.  Returns
    ``(kind, base_index, slot, scale, const)`` with ``kind`` one of
    ``"temp" | "stack" | "global"`` and ``slot`` possibly ``None``, or
    ``None`` when the shape is anything else.
    """
    const = 0
    slot = None
    scale = 1
    e = addr
    while isinstance(e, cl.EBinop) and e.op == "add":
        r = e.right
        if isinstance(r, cl.EConstInt):
            const += r.value
        elif isinstance(r, cl.ETemp) and slot is None:
            slot = ctx.temp_slot(r.name)
        elif (slot is None and isinstance(r, cl.EBinop) and r.op == "mul"
                and isinstance(r.left, cl.ETemp)
                and isinstance(r.right, cl.EConstInt)):
            slot = ctx.temp_slot(r.left.name)
            scale = r.right.value
        else:
            return None
        e = e.left
    if isinstance(e, cl.ETemp):
        return "temp", ctx.temp_slot(e.name), slot, scale, const
    if isinstance(e, cl.EAddrStack):
        index = ctx.stack_slots.get(e.name)
        if index is None:
            return None
        return "stack", index, slot, scale, const
    if isinstance(e, cl.EAddrGlobal):
        index = ctx.dprog.globals_index.get(e.name)
        if index is None:
            return None
        return "global", index, slot, scale, const
    return None


def _addr_fallback_load(chunk, addr, ctx):
    """Legacy-ordered load used when a fused address guard fails."""
    addr_ev = _decode_expr(addr, ctx)

    def ev(m):
        value = addr_ev(m)
        if not isinstance(value, VPtr):
            raise MemoryError_(f"load through non-pointer {value!r}")
        return m.memory.load_at(chunk, value.block, value.offset)
    return ev


def _decode_load(expr, ctx):
    """A load closure with the address computation fused in.

    Any address of the shape ``base + index*scale + const`` (the output
    of the frontend's array and struct lowering) goes through
    :meth:`Memory.load_at` without materializing the scaled index or the
    address ``VPtr``.  Stack and global bases are known pointers at
    offset 0, so their fused form is a plain table lookup.  Whenever a
    runtime guard fails (non-pointer base, non-integer index) the
    address is re-evaluated through the generic expression closures, so
    every error is byte-identical to the legacy evaluation.
    """
    chunk = expr.chunk
    addr = expr.addr
    parts = _flatten_addr(addr, ctx)
    if parts is not None:
        kind, bi, slot, scale, const = parts
        if kind == "temp":
            fb = _addr_fallback_load(chunk, addr, ctx)
            if slot is None:
                if const == 0:
                    def ev(m):
                        base = m.temps[bi]
                        if type(base) is VPtr:
                            return m.memory.load_at(
                                chunk, base.block, base.offset)
                        return fb(m)
                    return ev

                def ev(m):
                    base = m.temps[bi]
                    if type(base) is VPtr:
                        return m.memory.load_at(
                            chunk, base.block,
                            (base.offset + const) & 0xFFFFFFFF)
                    return fb(m)
                return ev

            def ev(m):
                temps = m.temps
                base = temps[bi]
                off = temps[slot]
                if type(base) is VPtr and type(off) is VInt:
                    return m.memory.load_at(
                        chunk, base.block,
                        (base.offset + off.value * scale + const)
                        & 0xFFFFFFFF)
                return fb(m)
            return ev
        # Stack and global bases are always block pointers at offset 0.
        if slot is None:
            offset = const & 0xFFFFFFFF
            if kind == "stack":
                return lambda m: m.memory.load_at(
                    chunk, m.blocks[bi].block, offset)
            return lambda m: m.memory.load_at(
                chunk, m.gptrs[bi].block, offset)
        fb = _addr_fallback_load(chunk, addr, ctx)
        if kind == "stack":
            def ev(m):
                off = m.temps[slot]
                if type(off) is VInt:
                    return m.memory.load_at(
                        chunk, m.blocks[bi].block,
                        (off.value * scale + const) & 0xFFFFFFFF)
                return fb(m)
            return ev

        def ev(m):
            off = m.temps[slot]
            if type(off) is VInt:
                return m.memory.load_at(
                    chunk, m.gptrs[bi].block,
                    (off.value * scale + const) & 0xFFFFFFFF)
            return fb(m)
        return ev
    return _addr_fallback_load(chunk, addr, ctx)


def _decode_binop(op, left_x, right_x, ctx):
    """Specialized binop closure.

    Operand fetches for temporaries and integer constants are inlined
    (no per-operand closure call); the monomorphic int/int and common
    pointer cases run without touching ``eval_binop``.  Everything else
    falls back to it for the legacy result or error.
    """
    ls, lc = _atom(left_x, ctx)
    rs, rc = _atom(right_x, ctx)
    left_ev = _decode_expr(left_x, ctx)
    right_ev = _decode_expr(right_x, ctx)
    rcv = rc.value if rc is not None else None

    if op == "add":
        if ls is not None and rc is not None:
            def ev(m):
                left = m.temps[ls]
                tl = type(left)
                if tl is VInt:
                    return VInt(left.value + rcv)
                if tl is VPtr:
                    return left.add(rcv)
                return eval_binop(op, left, rc)
            return ev
        if ls is not None and rs is not None:
            def ev(m):
                temps = m.temps
                left = temps[ls]
                right = temps[rs]
                tl = type(left)
                if tl is VInt:
                    if type(right) is VInt:
                        return VInt(left.value + right.value)
                    if type(right) is VPtr:
                        return right.add(left.value)
                elif tl is VPtr and type(right) is VInt:
                    return left.add(right.value)
                return eval_binop(op, left, right)
            return ev

        def ev(m):
            left = left_ev(m)
            right = right_ev(m)
            tl = type(left)
            if tl is VInt:
                if type(right) is VInt:
                    return VInt(left.value + right.value)
                if type(right) is VPtr:
                    return right.add(left.value)
            elif tl is VPtr and type(right) is VInt:
                return left.add(right.value)
            return eval_binop(op, left, right)
        return ev
    if op == "sub":
        def ev(m):
            left = left_ev(m)
            right = right_ev(m)
            tl = type(left)
            if tl is VInt and type(right) is VInt:
                return VInt(left.value - right.value)
            if tl is VPtr:
                if type(right) is VInt:
                    return left.add(-right.value)
                if type(right) is VPtr and left.block == right.block:
                    return VInt(left.offset - right.offset)
            return eval_binop(op, left, right)
        return ev
    fn = _DIRECT_INT_BINOPS.get(op) or _INT_BINOPS.get(op)
    if fn is not None:
        if ls is not None and rc is not None:
            def ev(m):
                left = m.temps[ls]
                if type(left) is VInt:
                    return VInt(fn(left.value, rcv))
                return eval_binop(op, left, rc)
            return ev
        if ls is not None and rs is not None:
            def ev(m):
                temps = m.temps
                left = temps[ls]
                right = temps[rs]
                if type(left) is VInt and type(right) is VInt:
                    return VInt(fn(left.value, right.value))
                return eval_binop(op, left, right)
            return ev

        def ev(m):
            left = left_ev(m)
            right = right_ev(m)
            if type(left) is VInt and type(right) is VInt:
                return VInt(fn(left.value, right.value))
            return eval_binop(op, left, right)
        return ev
    fn = _INT_COMPARES.get(op)
    if fn is not None:
        if ls is not None and rc is not None:
            def ev(m):
                left = m.temps[ls]
                if type(left) is VInt:
                    return _VTRUE if fn(left.value, rcv) else _VFALSE
                return eval_binop(op, left, rc)
            return ev
        if ls is not None and rs is not None:
            def ev(m):
                temps = m.temps
                left = temps[ls]
                right = temps[rs]
                if type(left) is VInt and type(right) is VInt:
                    return _VTRUE if fn(left.value, right.value) else _VFALSE
                if (type(left) is VPtr and type(right) is VPtr
                        and left.block == right.block):
                    return _VTRUE if fn(left.offset, right.offset) else _VFALSE
                return eval_binop(op, left, right)
            return ev

        def ev(m):
            left = left_ev(m)
            right = right_ev(m)
            if type(left) is VInt and type(right) is VInt:
                return _VTRUE if fn(left.value, right.value) else _VFALSE
            if (type(left) is VPtr and type(right) is VPtr
                    and left.block == right.block):
                return _VTRUE if fn(left.offset, right.offset) else _VFALSE
            return eval_binop(op, left, right)
        return ev
    fn = _FLOAT_BINOPS.get(op)
    if fn is not None:
        def ev(m):
            left = left_ev(m)
            right = right_ev(m)
            if type(left) is VFloat and type(right) is VFloat:
                return VFloat(fn(left.value, right.value))
            return eval_binop(op, left, right)
        return ev
    fn = _FLOAT_COMPARES.get(op)
    if fn is not None:
        def ev(m):
            left = left_ev(m)
            right = right_ev(m)
            if type(left) is VFloat and type(right) is VFloat:
                return _VTRUE if fn(left.value, right.value) else _VFALSE
            return eval_binop(op, left, right)
        return ev
    return lambda m: eval_binop(op, left_ev(m), right_ev(m))


# ---------------------------------------------------------------------------
# Shared control closures (one step each, mirroring the legacy machine)
# ---------------------------------------------------------------------------


def _do_return(m, value):
    """Return from the current function: free blocks, unwind, emit ret."""
    blocks = m.blocks
    if blocks:
        free = m.memory.free
        for ptr in blocks:
            free(ptr)
    k = m.kont
    while k[0] != KCALL:
        if k[0] == KSTOP:
            raise DynamicError("return with a corrupt continuation")
        k = k[-1]
    event = m.frec.ret_event
    next_kont = k[5]
    if next_kont[0] == KSTOP:
        # The outermost function returned: the program converges.
        m.done = True
        if k[1] is not None:
            k[3][k[1]] = value if value is not None else UNDEF
        if value is None:
            value = _VINT0
        m.return_code = value.signed if isinstance(value, VInt) else 0
        m.sink(event)
        return None
    m.temps = k[3]
    m.blocks = k[4]
    m.frec = k[2]
    if k[1] is not None:
        m.temps[k[1]] = value if value is not None else UNDEF
    m.kont = next_kont
    m.sink(event)
    return _skip


def _skip(m):
    k = m.kont
    tag = k[0]
    if tag == KSEQ:
        m.kont = k[2]
        return k[1]
    if tag == KLOOP1:
        m.kont = (KLOOP2, k[2], k[3])
        return k[1]
    if tag == KLOOP2:
        m.kont = k[2]
        return k[1]
    if tag == KBLOCK:
        m.kont = k[1]
        return _skip
    if tag == KCALL:
        # Fall through the end of a function body: return no value.
        return _do_return(m, None)
    m.done = True
    m.return_code = 0
    return None


def _break(m):
    k = m.kont
    while k[0] == KSEQ:
        k = k[2]
    tag = k[0]
    if tag == KLOOP1 or tag == KLOOP2 or tag == KBLOCK:
        m.kont = k[-1]
        return _skip
    raise DynamicError("break outside of a loop or block")


def _continue(m):
    k = m.kont
    while k[0] == KSEQ or k[0] == KBLOCK:
        k = k[-1]
    if k[0] == KLOOP1:
        m.kont = (KLOOP2, k[2], k[3])
        return k[1]
    raise DynamicError("continue outside of a loop body")


def _return_none(m):
    return _do_return(m, None)


# ---------------------------------------------------------------------------
# Statement decoding: closures ``op(m) -> next_op | None``
# ---------------------------------------------------------------------------


def _decode_stmt(stmt: cl.Stmt, ctx: _FunctionContext):
    if isinstance(stmt, cl.SSkip):
        return _skip
    if isinstance(stmt, cl.SSeq):
        first = _decode_stmt(stmt.first, ctx)
        second = _decode_stmt(stmt.second, ctx)

        def op(m):
            m.kont = (KSEQ, second, m.kont)
            return first
        return op
    if isinstance(stmt, cl.SSet):
        slot = ctx.temp_slot(stmt.temp)
        src, const = _atom(stmt.expr, ctx)
        if src is not None:
            def op(m):
                temps = m.temps
                temps[slot] = temps[src]
                return _skip
            return op
        if const is not None:
            def op(m):
                m.temps[slot] = const
                return _skip
            return op
        ev = _decode_expr(stmt.expr, ctx)

        def op(m):
            m.temps[slot] = ev(m)
            return _skip
        return op
    if isinstance(stmt, cl.SStore):
        return _decode_store(stmt, ctx)
    if isinstance(stmt, cl.SIf):
        then_op = _decode_stmt(stmt.then, ctx)
        else_op = _decode_stmt(stmt.otherwise, ctx)
        cond = stmt.cond
        # Fuse an integer-compare condition into the branch: no closure
        # call and no boolean VInt allocation on the hot path.  The
        # fallback re-evaluates through eval_binop, whose result (or
        # error) is exactly the legacy condition value.
        if isinstance(cond, cl.EBinop):
            fn = _INT_COMPARES.get(cond.op)
            ls, _lc = _atom(cond.left, ctx)
            rs, rc = _atom(cond.right, ctx)
            if fn is not None and ls is not None and rc is not None:
                cop = cond.op
                rcv = rc.value

                def op(m):
                    left = m.temps[ls]
                    if type(left) is VInt:
                        return then_op if fn(left.value, rcv) else else_op
                    if eval_binop(cop, left, rc).is_true():
                        return then_op
                    return else_op
                return op
            if fn is not None and ls is not None and rs is not None:
                cop = cond.op

                def op(m):
                    temps = m.temps
                    left = temps[ls]
                    right = temps[rs]
                    if type(left) is VInt and type(right) is VInt:
                        return then_op if fn(left.value, right.value) else else_op
                    if eval_binop(cop, left, right).is_true():
                        return then_op
                    return else_op
                return op
        cond_ev = _decode_expr(cond, ctx)

        def op(m):
            return then_op if cond_ev(m).is_true() else else_op
        return op
    if isinstance(stmt, cl.SLoop):
        body_op = _decode_stmt(stmt.body, ctx)
        post_op = _decode_stmt(stmt.post, ctx)

        def op(m):
            m.kont = (KLOOP1, post_op, op, m.kont)
            return body_op
        return op
    if isinstance(stmt, cl.SBlock):
        body_op = _decode_stmt(stmt.body, ctx)

        def op(m):
            m.kont = (KBLOCK, m.kont)
            return body_op
        return op
    if isinstance(stmt, cl.SBreak):
        return _break
    if isinstance(stmt, cl.SContinue):
        return _continue
    if isinstance(stmt, cl.SReturn):
        if stmt.value is None:
            return _return_none
        value_ev = _decode_expr(stmt.value, ctx)

        def op(m):
            return _do_return(m, value_ev(m))
        return op
    if isinstance(stmt, cl.SCall):
        return _decode_call(stmt, ctx)
    type_name = type(stmt).__name__

    def op(m):
        raise DynamicError(f"unknown statement {type_name}")
    return op



def _decode_store(stmt: cl.SStore, ctx: _FunctionContext):
    """A store op with the address fused, mirroring :func:`_decode_load`.

    The legacy machine evaluates the address, then the value, and only
    then checks pointer-ness; the fused variants keep that order by
    falling back to the generic op whenever an address guard fails.
    """
    chunk = stmt.chunk
    # ``normalize`` is the identity for word stores: skip the call.
    normalize = None if chunk is Chunk.INT32 else chunk.normalize
    addr_ev = _decode_expr(stmt.addr, ctx)
    value_ev = _decode_expr(stmt.value, ctx)

    def fbop(m):
        addr = addr_ev(m)
        value = value_ev(m)
        if not isinstance(addr, VPtr):
            raise MemoryError_(f"store through non-pointer {addr!r}")
        m.memory.store(chunk, addr, chunk.normalize(value))
        return _skip

    parts = _flatten_addr(stmt.addr, ctx)
    if parts is None:
        return fbop
    kind, bi, slot, scale, const = parts
    if kind == "temp":
        if slot is None:
            def op(m):
                base = m.temps[bi]
                if type(base) is not VPtr:
                    return fbop(m)
                value = value_ev(m)
                if normalize is not None:
                    value = normalize(value)
                m.memory.store_at(chunk, base.block,
                                  (base.offset + const) & 0xFFFFFFFF, value)
                return _skip
            return op

        def op(m):
            temps = m.temps
            base = temps[bi]
            off = temps[slot]
            if type(base) is not VPtr or type(off) is not VInt:
                return fbop(m)
            value = value_ev(m)
            if normalize is not None:
                value = normalize(value)
            m.memory.store_at(
                chunk, base.block,
                (base.offset + off.value * scale + const) & 0xFFFFFFFF,
                value)
            return _skip
        return op
    if slot is None:
        offset = const & 0xFFFFFFFF
        if kind == "stack":
            def op(m):
                value = value_ev(m)
                if normalize is not None:
                    value = normalize(value)
                m.memory.store_at(chunk, m.blocks[bi].block, offset, value)
                return _skip
            return op

        def op(m):
            value = value_ev(m)
            if normalize is not None:
                value = normalize(value)
            m.memory.store_at(chunk, m.gptrs[bi].block, offset, value)
            return _skip
        return op
    if kind == "stack":
        def op(m):
            off = m.temps[slot]
            if type(off) is not VInt:
                return fbop(m)
            value = value_ev(m)
            if normalize is not None:
                value = normalize(value)
            m.memory.store_at(
                chunk, m.blocks[bi].block,
                (off.value * scale + const) & 0xFFFFFFFF, value)
            return _skip
        return op

    def op(m):
        off = m.temps[slot]
        if type(off) is not VInt:
            return fbop(m)
        value = value_ev(m)
        if normalize is not None:
            value = normalize(value)
        m.memory.store_at(
            chunk, m.gptrs[bi].block,
            (off.value * scale + const) & 0xFFFFFFFF, value)
        return _skip
    return op


def _decode_call(stmt: cl.SCall, ctx: _FunctionContext):
    arg_evs = tuple(_decode_expr(arg, ctx) for arg in stmt.args)
    dest_slot = ctx.temp_slot(stmt.dest) if stmt.dest is not None else None

    if ctx.program.is_internal(stmt.callee):
        callee = ctx.program.function(stmt.callee)
        if len(stmt.args) != len(callee.params):
            # The legacy machine evaluates the arguments and only then
            # checks the arity, so argument evaluation errors win.
            message = (f"{callee.name} expects {len(callee.params)} args, "
                       f"got {len(stmt.args)}")

            def op(m):
                for ev in arg_evs:
                    ev(m)
                raise UndefinedBehaviorError(message)
            return op
        rec = ctx.dprog.functions[stmt.callee]
        # ``rec`` may not be filled yet (mutual recursion), but the
        # callee's source-level arity and stack-variable count are
        # already known, so the op can be specialized on them now.
        if not callee.stackvars:
            if len(arg_evs) == 0:
                def op(m):
                    m.kont = (KCALL, dest_slot, m.frec, m.temps, m.blocks,
                              m.kont)
                    m.temps = [UNDEF] * rec.n_temps
                    m.blocks = _NO_BLOCKS
                    m.frec = rec
                    m.sink(rec.call_event)
                    return rec.entry
                return op
            if len(arg_evs) == 1:
                ev0, = arg_evs

                def op(m):
                    a0 = ev0(m)
                    m.kont = (KCALL, dest_slot, m.frec, m.temps, m.blocks,
                              m.kont)
                    temps = [UNDEF] * rec.n_temps
                    temps[rec.param_slots[0]] = a0
                    m.temps = temps
                    m.blocks = _NO_BLOCKS
                    m.frec = rec
                    m.sink(rec.call_event)
                    return rec.entry
                return op
            if len(arg_evs) == 2:
                ev0, ev1 = arg_evs

                def op(m):
                    a0 = ev0(m)
                    a1 = ev1(m)
                    m.kont = (KCALL, dest_slot, m.frec, m.temps, m.blocks,
                              m.kont)
                    temps = [UNDEF] * rec.n_temps
                    slots = rec.param_slots
                    temps[slots[0]] = a0
                    temps[slots[1]] = a1
                    m.temps = temps
                    m.blocks = _NO_BLOCKS
                    m.frec = rec
                    m.sink(rec.call_event)
                    return rec.entry
                return op

            def op(m):
                args = [ev(m) for ev in arg_evs]
                m.kont = (KCALL, dest_slot, m.frec, m.temps, m.blocks, m.kont)
                temps = [UNDEF] * rec.n_temps
                for slot, value in zip(rec.param_slots, args):
                    temps[slot] = value
                m.temps = temps
                m.blocks = _NO_BLOCKS
                m.frec = rec
                m.sink(rec.call_event)
                return rec.entry
            return op

        def op(m):
            args = [ev(m) for ev in arg_evs]
            m.kont = (KCALL, dest_slot, m.frec, m.temps, m.blocks, m.kont)
            temps = [UNDEF] * rec.n_temps
            for slot, value in zip(rec.param_slots, args):
                temps[slot] = value
            alloc = m.memory.alloc
            m.temps = temps
            m.blocks = [alloc(size, tag=tag) for size, tag in rec.block_spec]
            m.frec = rec
            m.sink(rec.call_event)
            return rec.entry
        return op

    callee_name = stmt.callee

    def op(m):
        args = [ev(m) for ev in arg_evs]
        result, event = call_external(callee_name, args, alloc=m.alloc_heap,
                                      output=m.output)
        if dest_slot is not None:
            m.temps[dest_slot] = result
        if event is not None:
            m.sink(event)
        return _skip
    return op


# ---------------------------------------------------------------------------
# Program decoding (cached) and the machine
# ---------------------------------------------------------------------------


_decoded_cache: "WeakKeyDictionary[cl.Program, DecodedProgram]" = \
    WeakKeyDictionary()


def decode_program(program: cl.Program) -> DecodedProgram:
    """Decode ``program`` into threaded code (cached per program)."""
    dprog = _decoded_cache.get(program)
    if dprog is not None:
        if obs.enabled:
            obs.add("decode.clight.cache.hits")
        return dprog
    if obs.enabled:
        obs.add("decode.clight.cache.misses")
    dprog = DecodedProgram(program)
    for name, function in program.functions.items():
        ctx = _FunctionContext(program, dprog, function)
        rec = dprog.functions[name]
        rec.entry = _decode_stmt(function.body, ctx)
        rec.n_temps = len(ctx.temp_slots)
        rec.param_slots = tuple(ctx.temp_slots[p] for p in function.params)
        rec.block_spec = tuple((var.size, f"{function.name}.{var.name}")
                               for var in function.stackvars)
    _decoded_cache[program] = dprog
    return dprog


class DecodedClightMachine:
    """State of one decoded execution (the ``m`` of every closure)."""

    __slots__ = ("memory", "gptrs", "output", "sink", "temps", "blocks",
                 "frec", "kont", "done", "return_code")

    def __init__(self, program: cl.Program, sink: Consumer,
                 output: Optional[list] = None) -> None:
        self.memory = Memory()
        self.gptrs: list[VPtr] = []
        for var in program.globals:
            ptr = self.memory.alloc(var.size, tag=f"global {var.name}")
            self.memory.store_bytes(ptr, var.image)
            self.gptrs.append(ptr)
        self.output = output
        self.sink = sink
        self.temps: list = []
        self.blocks: list[VPtr] = []
        self.frec: Optional[DecodedFunction] = None
        self.kont: tuple = K_STOP
        self.done = False
        self.return_code: Optional[int] = None

    def alloc_heap(self, size: int) -> VPtr:
        return self.memory.alloc(size, tag="malloc")


def _enter_main(m: DecodedClightMachine, program: cl.Program,
                dprog: DecodedProgram):
    main = program.function(program.main)
    if main.params:
        raise DynamicError("main with parameters is not supported")
    rec = dprog.functions[program.main]
    m.kont = (KCALL, None, None, m.temps, m.blocks, K_STOP)
    m.temps = [UNDEF] * rec.n_temps
    alloc = m.memory.alloc
    m.blocks = [alloc(size, tag=tag) for size, tag in rec.block_spec]
    m.frec = rec
    m.sink(rec.call_event)
    return rec.entry


def run_streamed(program: cl.Program, sink: Consumer, fuel: int,
                 output: Optional[list] = None) -> StreamOutcome:
    """Run the decoded engine, feeding every event into ``sink``.

    The loop mirrors the legacy driver exactly, including the fuel edge
    case: a program whose final return lands on the very last unit of
    fuel is classified as diverging, because the legacy loop never got
    to observe ``done``.
    """
    dprog = decode_program(program)
    counting = _Counting(sink)
    m = DecodedClightMachine(program, counting, output=output)
    i = 0
    code = True  # placeholder: never None before _enter_main returns
    try:
        code = _enter_main(m, program, dprog)
        try:
            # The hot loop has no termination check: when the program is
            # done the previous op returned None, and calling it raises
            # TypeError at exactly the iteration the legacy loop would
            # have broken out of — so ``i`` stays step-accurate.
            for i in range(fuel):
                code = code(m)
        except TypeError:
            if code is not None:  # a genuine TypeError inside an op
                raise
        else:
            return StreamOutcome(StreamOutcome.DIVERGES,
                                 events=counting.count, steps=fuel)
    except FuelExhaustedError:
        return StreamOutcome(StreamOutcome.DIVERGES,
                             events=counting.count, steps=i)
    except DynamicError as exc:
        return StreamOutcome(StreamOutcome.GOES_WRONG, reason=str(exc),
                             events=counting.count, steps=i)
    if not m.done:
        return StreamOutcome(StreamOutcome.DIVERGES,
                             events=counting.count, steps=i)
    return StreamOutcome(StreamOutcome.CONVERGES,
                         return_code=m.return_code,
                         events=counting.count, steps=i)


class _Counting:
    __slots__ = ("sink", "count")

    def __init__(self, sink: Consumer) -> None:
        self.sink = sink
        self.count = 0

    def __call__(self, event) -> None:
        self.count += 1
        self.sink(event)
