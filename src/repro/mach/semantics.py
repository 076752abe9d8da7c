"""A Mach interpreter with per-call frame blocks and *global* registers.

Registers are machine-global (as on real hardware): a callee freely
clobbers them, so this interpreter is a genuine differential check that
the register allocator spilled everything live across calls.  Each call
allocates one frame block of ``SF(f)`` bytes in the block memory;
``MGetParam`` reads the caller's frame through the activation record —
the last remaining indirection, which the ASM generation then removes by
merging all frames into one block (paper §3.2).
"""

from __future__ import annotations

from typing import Optional

from repro import engines, obs, ops
from repro.errors import DynamicError, MemoryError_, UndefinedBehaviorError
from repro.events.stream import Consumer, CountingSink, StreamOutcome
from repro.events.trace import (Behavior, CallEvent, Converges, Diverges,
                                Event, GoesWrong, ReturnEvent)
from repro.mach import ast as mach
from repro.memory import Chunk, Memory
from repro.memory.values import VFloat, VInt, VPtr, VUndef, Value
from repro.regalloc.locations import LFReg, LReg, LSlot, Loc, RESULT_FLOAT, \
    RESULT_INT
from repro.runtime import call_external

DEFAULT_FUEL = 20_000_000

#: Execution tiers: the original ``step()`` machine below (kept as the
#: differential oracle) and the pre-decoded threaded-code interpreter
#: in :mod:`repro.mach.decode`.
ENGINES = ("legacy", "decoded")

#: Tier used when a call passes no ``engine=``.
DEFAULT_ENGINE = "decoded"


class _Activation:
    __slots__ = ("function", "pc", "frame", "caller_frame")

    def __init__(self, function: mach.MachFunction, pc: int,
                 frame: Optional[VPtr], caller_frame: Optional[VPtr]) -> None:
        self.function = function
        self.pc = pc
        self.frame = frame
        self.caller_frame = caller_frame


class MachMachine:
    def __init__(self, program: mach.MachProgram,
                 output: Optional[list] = None) -> None:
        self.program = program
        self.memory = Memory()
        self.globals: dict[str, VPtr] = {}
        for var in program.globals:
            ptr = self.memory.alloc(var.size, tag=f"global {var.name}")
            self.memory.store_bytes(ptr, var.image)
            self.globals[var.name] = ptr
        self.regs: dict[str, Value] = {}  # machine-global register file
        self.stack: list[_Activation] = []
        self.output = output
        self.done = False
        self.return_code: Optional[int] = None

    # -- locations ---------------------------------------------------------------

    def read(self, act: _Activation, loc: Loc) -> Value:
        if isinstance(loc, (LReg, LFReg)):
            return self.regs.get(loc.name, VUndef())
        assert isinstance(loc, LSlot)
        frame = self._require_frame(act)
        offset = act.function.frame.slot_offset(loc)
        chunk = Chunk.FLOAT64 if loc.is_float_class else Chunk.INT32
        return self.memory.load(chunk, frame.add(offset))

    def write(self, act: _Activation, loc: Loc, value: Value) -> None:
        if isinstance(loc, (LReg, LFReg)):
            self.regs[loc.name] = value
            return
        assert isinstance(loc, LSlot)
        frame = self._require_frame(act)
        offset = act.function.frame.slot_offset(loc)
        chunk = Chunk.FLOAT64 if loc.is_float_class else Chunk.INT32
        self.memory.store(chunk, frame.add(offset), value)

    def _require_frame(self, act: _Activation) -> VPtr:
        if act.frame is None:
            raise DynamicError(f"{act.function.name}: frame access "
                               "without a frame")
        return act.frame

    # -- control ----------------------------------------------------------------

    def _enter(self, function: mach.MachFunction,
               caller_frame: Optional[VPtr]) -> Event:
        frame = None
        if function.frame.size > 0:
            frame = self.memory.alloc(function.frame.size,
                                      tag=f"frame {function.name}")
        self.stack.append(_Activation(function, 0, frame, caller_frame))
        return CallEvent(function.name)

    def step(self) -> Optional[Event]:
        act = self.stack[-1]
        if act.pc >= len(act.function.body):
            # Fell off the end of the body: return with whatever is in
            # the result register (mirrors falling through in Clight).
            return self._return()
        instr = act.function.body[act.pc]
        act.pc += 1

        if isinstance(instr, (mach.MLabel,)):
            return None
        if isinstance(instr, mach.MOp):
            args = [self.read(act, a) for a in instr.args]
            self.write(act, instr.dest, self._eval_op(act, instr.op, args))
            return None
        if isinstance(instr, mach.MLoad):
            addr = self.read(act, instr.addr)
            if not isinstance(addr, VPtr):
                raise MemoryError_(f"load through non-pointer {addr!r}")
            self.write(act, instr.dest, self.memory.load(instr.chunk, addr))
            return None
        if isinstance(instr, mach.MStore):
            addr = self.read(act, instr.addr)
            if not isinstance(addr, VPtr):
                raise MemoryError_(f"store through non-pointer {addr!r}")
            value = self.read(act, instr.src)
            self.memory.store(instr.chunk, addr, instr.chunk.normalize(value))
            return None
        if isinstance(instr, mach.MStoreArg):
            frame = self._require_frame(act)
            chunk = Chunk.FLOAT64 if instr.is_float else Chunk.INT32
            self.memory.store(chunk, frame.add(instr.offset),
                              self.read(act, instr.src))
            return None
        if isinstance(instr, mach.MGetParam):
            if act.caller_frame is None:
                raise DynamicError(
                    f"{act.function.name}: parameter read without a caller")
            chunk = Chunk.FLOAT64 if instr.is_float else Chunk.INT32
            value = self.memory.load(chunk, act.caller_frame.add(instr.offset))
            self.write(act, instr.dest, value)
            return None
        if isinstance(instr, mach.MCall):
            callee = self.program.functions[instr.callee]
            return self._enter(callee, act.frame)
        if isinstance(instr, mach.MExtCall):
            args = [self.read(act, a) for a in instr.args]
            result, event = call_external(
                instr.callee, args,
                alloc=lambda size: self.memory.alloc(size, tag="malloc"),
                output=self.output)
            if instr.dest is not None:
                self.write(act, instr.dest, result)
            return event
        if isinstance(instr, mach.MGoto):
            act.pc = act.function.labels[instr.label]
            return None
        if isinstance(instr, mach.MCond):
            if self.read(act, instr.arg).is_true():
                act.pc = act.function.labels[instr.label]
            return None
        if isinstance(instr, mach.MReturn):
            return self._return()
        raise DynamicError(f"unknown Mach instruction {instr!r}")

    def _eval_op(self, act: _Activation, op: tuple, args: list[Value]) -> Value:
        kind = op[0]
        if kind == "const":
            return VInt(op[1])
        if kind == "constf":
            return VFloat(op[1])
        if kind == "move":
            return args[0]
        if kind == "addrglobal":
            try:
                return self.globals[op[1]]
            except KeyError:
                raise UndefinedBehaviorError(
                    f"unknown global {op[1]!r}") from None
        if kind == "addrstack":
            return self._require_frame(act).add(op[1])
        if kind == "unop":
            return ops.eval_unop(op[1], args[0])
        if kind == "binop":
            return ops.eval_binop(op[1], args[0], args[1])
        raise DynamicError(f"unknown Mach operation {op!r}")

    def _return(self) -> Event:
        act = self.stack.pop()
        if act.frame is not None:
            self.memory.free(act.frame)
        event = ReturnEvent(act.function.name)
        if not self.stack:
            self.done = True
            value = self.regs.get(RESULT_INT, VUndef())
            self.return_code = value.signed if isinstance(value, VInt) else 0
        return event


def run_streamed(program: mach.MachProgram, sink: Consumer,
                 fuel: int = DEFAULT_FUEL, output: Optional[list] = None,
                 engine: Optional[str] = None) -> StreamOutcome:
    """Run ``program``, pushing every event into ``sink`` as emitted.

    ``engine`` selects the tier (None = :data:`DEFAULT_ENGINE`);
    both engines produce the same events, outcome classification and
    step counts by construction.  Like RTL, the legacy Mach loop treats
    ``FuelExhaustedError`` like any other ``DynamicError``.
    """
    engine = engines.resolve(engine, DEFAULT_ENGINE, ENGINES)
    if obs.enabled:
        # Wrapped at the entry point only — the step loops stay untouched.
        with obs.span("exec.mach", engine=engine) as sp:
            outcome = _run_streamed(program, sink, fuel, output, engine)
        sp.set(kind=outcome.kind, steps=outcome.steps,
               events=outcome.events)
        obs.add("interp.mach.steps", outcome.steps)
        obs.add("interp.mach.seconds", sp.dur)
        obs.add("interp.mach.runs")
        return outcome
    return _run_streamed(program, sink, fuel, output, engine)


def _run_streamed(program: mach.MachProgram, sink: Consumer, fuel: int,
                  output: Optional[list], engine: str) -> StreamOutcome:
    if engine == "decoded":
        from repro.mach import decode
        return decode.run_streamed(program, sink, fuel, output=output)
    counting = CountingSink(sink)
    machine = MachMachine(program, output=output)
    main = program.functions.get(program.main)
    if main is None:
        return StreamOutcome(StreamOutcome.GOES_WRONG,
                             reason="no main function")
    i = 0
    try:
        counting(machine._enter(main, None))
        for i in range(fuel):
            if machine.done:
                break
            event = machine.step()
            if event is not None:
                counting(event)
        else:
            return StreamOutcome(StreamOutcome.DIVERGES,
                                 events=counting.count, steps=fuel)
    except DynamicError as exc:
        return StreamOutcome(StreamOutcome.GOES_WRONG, reason=str(exc),
                             events=counting.count, steps=i)
    if not machine.done:
        return StreamOutcome(StreamOutcome.DIVERGES,
                             events=counting.count, steps=i)
    assert machine.return_code is not None
    return StreamOutcome(StreamOutcome.CONVERGES,
                         return_code=machine.return_code,
                         events=counting.count, steps=i)


def run_program(program: mach.MachProgram, fuel: int = DEFAULT_FUEL,
                output: Optional[list] = None,
                engine: Optional[str] = None) -> Behavior:
    trace: list[Event] = []
    outcome = run_streamed(program, trace.append, fuel, output=output,
                           engine=engine)
    return outcome.to_behavior(trace)
