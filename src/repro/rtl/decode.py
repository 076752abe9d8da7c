"""Pre-decoded (threaded-code) execution engine for RTL.

The legacy :class:`~repro.rtl.semantics.RTLMachine` dispatches every
step through ``graph.get(pc)`` plus an ``isinstance`` chain, keeps
registers in a per-activation dict, and re-interprets ``Iop`` operation
tuples on each execution.  This module compiles each
:class:`~repro.rtl.ast.RTLFunction` into a flat ``code`` list indexed by
node number whose entries are closures ``op(m) -> next_op | None``:
successors are decode-time constants, registers live in per-activation
lists indexed by register number, and operation tuples are resolved into
specialized closures (constants preallocated, operators inlined for the
monomorphic cases with the legacy ``eval_unop``/``eval_binop`` as the
error-for-error identical fallback).

The RTL optimization passes rewrite function graphs *in place*, so —
unlike the Clight decoder — decode results are NOT cached on the
program: :func:`run_streamed` decodes afresh, which is O(instructions)
and negligible next to any actual run, and releases the decode when the
run ends (:meth:`DecodedRTLProgram.release`).

Observable equivalence with the legacy machine: one closure call per
legacy ``step()``, events in the same order (one shared
``CallEvent``/``ReturnEvent`` instance per function; events compare
structurally), identical memory-allocation order, and byte-identical
error messages.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.clight.decode import (_DIRECT_INT_BINOPS, _FAST_INT_UNOPS, UNDEF,
                                 _VFALSE, _VINT0, _VTRUE)
from repro.errors import DynamicError, MemoryError_, UndefinedBehaviorError
from repro.events.stream import Consumer, StreamOutcome
from repro.events.trace import CallEvent, ReturnEvent
from repro.memory import Memory
from repro.memory.chunks import Chunk
from repro.memory.values import VFloat, VInt, VPtr
from repro.ops import (_FLOAT_BINOPS, _FLOAT_COMPARES, _INT_BINOPS,
                       _INT_COMPARES, eval_binop, eval_unop)
from repro.rtl import ast as rtl
from repro.runtime import call_external


class DecodedRTLFunction:
    """Per-function decode result (two-phase: created, then filled)."""

    __slots__ = ("name", "entry", "code", "n_regs", "param_slots",
                 "stacksize", "frame_tag", "call_event", "ret_event")

    def __init__(self, function: rtl.RTLFunction) -> None:
        self.name = function.name
        self.param_slots = tuple(function.params)
        self.stacksize = function.stacksize
        self.frame_tag = f"frame {function.name}"
        self.call_event = CallEvent(function.name)
        self.ret_event = ReturnEvent(function.name)
        self.entry: Callable = None  # filled by decode_program
        self.code: list = []
        self.n_regs = 0


class DecodedRTLProgram:
    __slots__ = ("functions", "main", "globals_index")

    def __init__(self, program: rtl.RTLProgram) -> None:
        self.functions = {name: DecodedRTLFunction(fn)
                          for name, fn in program.functions.items()}
        self.main = program.main
        self.globals_index = {var.name: index
                              for index, var in enumerate(program.globals)}

    def release(self) -> None:
        """Break the closure <-> code-list cycles of a finished run.

        Every op closes over its function's ``code`` list, which holds
        the op: without this, each (uncached) decode leaves thousands of
        objects that only the cyclic GC can free, and the extra full
        collections they trigger slow every later stage of a campaign.
        """
        for frec in self.functions.values():
            frec.code.clear()
            frec.entry = None


def _n_regs(function: rtl.RTLFunction) -> int:
    """Size of the register file: every register the body or the
    signature can touch gets a slot (optimized graphs may reference
    registers at or past ``next_reg`` only if malformed, but sizing from
    the instructions keeps the engine total either way)."""
    high = function.next_reg
    for reg in function.params:
        high = max(high, reg + 1)
    for _node, instr in function.instructions():
        for reg in instr.uses():
            high = max(high, reg + 1)
        for reg in instr.defs():
            if reg is not None:
                high = max(high, reg + 1)
    return high


def _decode_op(instr: rtl.Iop, frec: DecodedRTLFunction, code: list,
               dprog: DecodedRTLProgram):
    """Specialize one ``Iop``; mirrors the legacy ``_eval_op`` cases."""
    op = instr.op
    kind = op[0]
    dest = instr.dest
    succ = instr.succ
    args = instr.args
    if kind == "const":
        value = VInt(op[1])

        def oc(m):
            m.regs[dest] = value
            return code[succ]
        return oc
    if kind == "constf":
        value = VFloat(op[1])

        def oc(m):
            m.regs[dest] = value
            return code[succ]
        return oc
    if kind == "move":
        src = args[0]

        def oc(m):
            regs = m.regs
            regs[dest] = regs[src]
            return code[succ]
        return oc
    if kind == "addrglobal":
        index = dprog.globals_index.get(op[1])
        if index is None:
            name = op[1]

            def oc(m):
                raise UndefinedBehaviorError(f"unknown global {name!r}")
            return oc

        def oc(m):
            m.regs[dest] = m.gptrs[index]
            return code[succ]
        return oc
    if kind == "addrstack":
        offset = op[1]
        message = f"{frec.name}: addrstack without a frame"

        def oc(m):
            frame = m.frame
            if frame is None:
                raise UndefinedBehaviorError(message)
            m.regs[dest] = VPtr(frame.block, offset)
            return code[succ]
        return oc
    if kind == "unop":
        uop = op[1]
        src = args[0]
        fn = _FAST_INT_UNOPS.get(uop)
        if fn is not None:
            def oc(m):
                regs = m.regs
                value = regs[src]
                if type(value) is VInt:
                    regs[dest] = VInt(fn(value.value))
                else:
                    regs[dest] = eval_unop(uop, value)
                return code[succ]
            return oc
        if uop == "notbool":
            def oc(m):
                regs = m.regs
                value = regs[src]
                if type(value) is VInt:
                    regs[dest] = _VFALSE if value.value != 0 else _VTRUE
                else:
                    regs[dest] = eval_unop(uop, value)
                return code[succ]
            return oc

        def oc(m):
            regs = m.regs
            regs[dest] = eval_unop(uop, regs[src])
            return code[succ]
        return oc
    if kind == "binop":
        return _decode_binop(op[1], args[0], args[1], dest, succ, code)
    detail = repr(op)

    def oc(m):
        raise DynamicError(f"unknown RTL operation {detail}")
    return oc


def _decode_binop(bop, ls, rs, dest, succ, code):
    if bop == "add":
        def oc(m):
            regs = m.regs
            left = regs[ls]
            right = regs[rs]
            tl = type(left)
            if tl is VInt:
                if type(right) is VInt:
                    regs[dest] = VInt(left.value + right.value)
                    return code[succ]
                if type(right) is VPtr:
                    regs[dest] = right.add(left.value)
                    return code[succ]
            elif tl is VPtr and type(right) is VInt:
                regs[dest] = left.add(right.value)
                return code[succ]
            regs[dest] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    if bop == "sub":
        def oc(m):
            regs = m.regs
            left = regs[ls]
            right = regs[rs]
            tl = type(left)
            if tl is VInt and type(right) is VInt:
                regs[dest] = VInt(left.value - right.value)
                return code[succ]
            if tl is VPtr:
                if type(right) is VInt:
                    regs[dest] = left.add(-right.value)
                    return code[succ]
                if type(right) is VPtr and left.block == right.block:
                    regs[dest] = VInt(left.offset - right.offset)
                    return code[succ]
            regs[dest] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    fn = _DIRECT_INT_BINOPS.get(bop) or _INT_BINOPS.get(bop)
    if fn is not None:
        def oc(m):
            regs = m.regs
            left = regs[ls]
            right = regs[rs]
            if type(left) is VInt and type(right) is VInt:
                regs[dest] = VInt(fn(left.value, right.value))
            else:
                regs[dest] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    fn = _INT_COMPARES.get(bop)
    if fn is not None:
        def oc(m):
            regs = m.regs
            left = regs[ls]
            right = regs[rs]
            if type(left) is VInt and type(right) is VInt:
                regs[dest] = _VTRUE if fn(left.value, right.value) \
                    else _VFALSE
            elif (type(left) is VPtr and type(right) is VPtr
                    and left.block == right.block):
                regs[dest] = _VTRUE if fn(left.offset, right.offset) \
                    else _VFALSE
            else:
                regs[dest] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    ffn = _FLOAT_BINOPS.get(bop)
    if ffn is not None:
        def oc(m):
            regs = m.regs
            left = regs[ls]
            right = regs[rs]
            if type(left) is VFloat and type(right) is VFloat:
                regs[dest] = VFloat(ffn(left.value, right.value))
            else:
                regs[dest] = eval_binop(bop, left, right)
            return code[succ]
        return oc
    ffn = _FLOAT_COMPARES.get(bop)
    if ffn is not None:
        def oc(m):
            regs = m.regs
            left = regs[ls]
            right = regs[rs]
            if type(left) is VFloat and type(right) is VFloat:
                regs[dest] = _VTRUE if ffn(left.value, right.value) \
                    else _VFALSE
            else:
                regs[dest] = eval_binop(bop, left, right)
            return code[succ]
        return oc

    def oc(m):
        regs = m.regs
        regs[dest] = eval_binop(bop, regs[ls], regs[rs])
        return code[succ]
    return oc


def _do_return(m, value):
    """Pop the activation: free the frame, unwind, emit the ret event."""
    if m.frame is not None:
        m.memory.free(m.frame)
    event = m.frec.ret_event
    rstack = m.rstack
    if not rstack:
        m.done = True
        if value is None:
            value = _VINT0
        m.return_code = value.signed if isinstance(value, VInt) else 0
        m.sink(event)
        return None
    dest, frec, regs, frame, ret_op = rstack.pop()
    if dest is not None:
        regs[dest] = value if value is not None else UNDEF
    m.regs = regs
    m.frame = frame
    m.frec = frec
    m.sink(event)
    return ret_op


def _decode_call(instr: rtl.Icall, frec: DecodedRTLFunction, code: list,
                 program: rtl.RTLProgram, dprog: DecodedRTLProgram):
    arg_slots = instr.args
    dest = instr.dest
    succ = instr.succ
    if program.is_internal(instr.callee):
        callee = program.functions[instr.callee]
        rec = dprog.functions[instr.callee]
        if len(arg_slots) != len(callee.params):
            # Legacy order: args are read (never raising for registers),
            # pc is advanced, then _enter raises.
            message = f"{callee.name}: arity mismatch"

            def op(m):
                raise UndefinedBehaviorError(message)
            return op
        # ``rec`` may not be filled yet (mutual recursion), but the
        # callee's arity and frame size are in the source function.
        has_frame = callee.stacksize > 0
        if not has_frame and len(arg_slots) == 0:
            def op(m):
                m.rstack.append((dest, m.frec, m.regs, m.frame, code[succ]))
                m.regs = [UNDEF] * rec.n_regs
                m.frame = None
                m.frec = rec
                m.sink(rec.call_event)
                return rec.entry
            return op
        if not has_frame and len(arg_slots) == 1:
            a0, = arg_slots

            def op(m):
                regs = m.regs
                m.rstack.append((dest, m.frec, regs, m.frame, code[succ]))
                nregs = [UNDEF] * rec.n_regs
                nregs[rec.param_slots[0]] = regs[a0]
                m.regs = nregs
                m.frame = None
                m.frec = rec
                m.sink(rec.call_event)
                return rec.entry
            return op
        if not has_frame and len(arg_slots) == 2:
            a0, a1 = arg_slots

            def op(m):
                regs = m.regs
                m.rstack.append((dest, m.frec, regs, m.frame, code[succ]))
                nregs = [UNDEF] * rec.n_regs
                slots = rec.param_slots
                nregs[slots[0]] = regs[a0]
                nregs[slots[1]] = regs[a1]
                m.regs = nregs
                m.frame = None
                m.frec = rec
                m.sink(rec.call_event)
                return rec.entry
            return op

        def op(m):
            regs = m.regs
            m.rstack.append((dest, m.frec, regs, m.frame, code[succ]))
            nregs = [UNDEF] * rec.n_regs
            for slot, src in zip(rec.param_slots, arg_slots):
                nregs[slot] = regs[src]
            m.regs = nregs
            m.frame = m.memory.alloc(rec.stacksize, tag=rec.frame_tag) \
                if has_frame else None
            m.frec = rec
            m.sink(rec.call_event)
            return rec.entry
        return op

    callee_name = instr.callee

    def op(m):
        regs = m.regs
        args = [regs[src] for src in arg_slots]
        result, event = call_external(callee_name, args, alloc=m.alloc_heap,
                                      output=m.output)
        if dest is not None:
            regs[dest] = result
        if event is not None:
            m.sink(event)
        return code[succ]
    return op


def _decode_function(function: rtl.RTLFunction, program: rtl.RTLProgram,
                     dprog: DecodedRTLProgram) -> None:
    frec = dprog.functions[function.name]
    frec.n_regs = _n_regs(function)
    high = function.entry
    for node, instr in function.instructions():
        high = max(high, node)
        for succ in instr.successors():
            high = max(high, succ)
    code: list = [None] * (high + 1)

    def _missing(node: int):
        message = f"{function.name}: no instruction at node {node}"

        def op(m):
            raise DynamicError(message)
        return op

    for node in range(high + 1):
        code[node] = _missing(node)
    for node, instr in function.instructions():
        if isinstance(instr, rtl.Inop):
            succ = instr.succ
            code[node] = (lambda succ: lambda m: code[succ])(succ)
        elif isinstance(instr, rtl.Iop):
            code[node] = _decode_op(instr, frec, code, dprog)
        elif isinstance(instr, rtl.Iload):
            code[node] = _decode_memref(instr, code, load=True)
        elif isinstance(instr, rtl.Istore):
            code[node] = _decode_memref(instr, code, load=False)
        elif isinstance(instr, rtl.Icond):
            code[node] = _decode_cond(instr, code)
        elif isinstance(instr, rtl.Icall):
            code[node] = _decode_call(instr, frec, code, program, dprog)
        elif isinstance(instr, rtl.Ireturn):
            arg = instr.arg
            if arg is None:
                code[node] = lambda m: _do_return(m, None)
            else:
                code[node] = (lambda arg: lambda m:
                              _do_return(m, m.regs[arg]))(arg)
        else:
            detail = repr(instr)
            code[node] = (lambda detail: _raise_unknown(detail))(detail)
    frec.entry = code[function.entry]
    frec.code = code


def _raise_unknown(detail: str):
    def op(m):
        raise DynamicError(f"unknown instruction {detail}")
    return op


def _decode_memref(instr, code: list, load: bool):
    chunk = instr.chunk
    addr = instr.addr
    succ = instr.succ
    if load:
        dest = instr.dest

        def op(m):
            regs = m.regs
            ptr = regs[addr]
            if type(ptr) is not VPtr:
                raise MemoryError_(f"load through non-pointer {ptr!r}")
            regs[dest] = m.memory.load_at(chunk, ptr.block, ptr.offset)
            return code[succ]
        return op
    src = instr.src
    # chunk.normalize is the identity for word stores: skip the call.
    normalize = None if chunk is Chunk.INT32 else chunk.normalize

    def op(m):
        regs = m.regs
        ptr = regs[addr]
        if type(ptr) is not VPtr:
            raise MemoryError_(f"store through non-pointer {ptr!r}")
        value = regs[src]
        if normalize is not None:
            value = normalize(value)
        m.memory.store_at(chunk, ptr.block, ptr.offset, value)
        return code[succ]
    return op


def _decode_cond(instr: rtl.Icond, code: list):
    arg = instr.arg
    ifso = instr.ifso
    ifnot = instr.ifnot

    def op(m):
        value = m.regs[arg]
        if type(value) is VInt:
            return code[ifso] if value.value != 0 else code[ifnot]
        return code[ifso] if value.is_true() else code[ifnot]
    return op


def decode_program(program: rtl.RTLProgram) -> DecodedRTLProgram:
    """Decode every function of ``program`` into threaded code.

    Not cached: the RTL optimization passes mutate graphs in place, so a
    per-object cache could silently serve stale code.
    """
    dprog = DecodedRTLProgram(program)
    for function in program.functions.values():
        _decode_function(function, program, dprog)
    return dprog


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


class DecodedRTLMachine:
    __slots__ = ("memory", "gptrs", "output", "sink", "regs", "frame",
                 "frec", "rstack", "done", "return_code")

    def __init__(self, program: rtl.RTLProgram, sink: Consumer,
                 output: Optional[list] = None) -> None:
        self.memory = Memory()
        self.gptrs = []
        for var in program.globals:
            ptr = self.memory.alloc(var.size, tag=f"global {var.name}")
            self.memory.store_bytes(ptr, var.image)
            self.gptrs.append(ptr)
        self.output = output
        self.sink = sink
        self.regs: list = []
        self.frame: Optional[VPtr] = None
        self.frec: Optional[DecodedRTLFunction] = None
        self.rstack: list = []
        self.done = False
        self.return_code: Optional[int] = None

    def alloc_heap(self, size: int) -> VPtr:
        return self.memory.alloc(size, tag="malloc")


class _Counting:
    __slots__ = ("sink", "count")

    def __init__(self, sink: Consumer) -> None:
        self.sink = sink
        self.count = 0

    def __call__(self, event) -> None:
        self.count += 1
        self.sink(event)


def run_streamed(program: rtl.RTLProgram, sink: Consumer,
                 fuel: int, output: Optional[list] = None) -> StreamOutcome:
    """Run ``program`` on the decoded engine, pushing events to ``sink``."""
    main = program.functions.get(program.main)
    if main is None:
        return StreamOutcome(StreamOutcome.GOES_WRONG,
                             reason="no main function")
    dprog = decode_program(program)
    counting = _Counting(sink)
    m = DecodedRTLMachine(program, counting, output=output)
    i = 0
    code = True  # placeholder: never None before entry
    try:
        if main.params:
            raise UndefinedBehaviorError(f"{main.name}: arity mismatch")
        rec = dprog.functions[program.main]
        m.regs = [UNDEF] * rec.n_regs
        if rec.stacksize > 0:
            m.frame = m.memory.alloc(rec.stacksize, tag=rec.frame_tag)
        m.frec = rec
        m.sink(rec.call_event)
        code = rec.entry
        try:
            # The hot loop.  When the program finishes, the previous op
            # returned None and calling it raises TypeError at exactly
            # the iteration the legacy loop would notice ``done``.
            for i in range(fuel):
                code = code(m)
        except TypeError:
            if code is not None:  # a genuine TypeError inside an op
                raise
        else:
            # Exactly like the legacy loop, running out of fuel reports
            # divergence even if the last step completed the program.
            return StreamOutcome(StreamOutcome.DIVERGES,
                                 events=counting.count, steps=fuel)
    except DynamicError as exc:
        # NB: unlike Clight, the legacy RTL loop has no special case for
        # FuelExhaustedError (a DynamicError subclass) — match it.
        return StreamOutcome(StreamOutcome.GOES_WRONG, reason=str(exc),
                             events=counting.count, steps=i)
    finally:
        dprog.release()
    if not m.done:
        return StreamOutcome(StreamOutcome.DIVERGES,
                             events=counting.count, steps=i)
    return StreamOutcome(StreamOutcome.CONVERGES, return_code=m.return_code,
                         events=counting.count, steps=i)
