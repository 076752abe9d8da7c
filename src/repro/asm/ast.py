"""ASMsz abstract syntax: a 32-bit x86-like instruction set.

Integer ALU instructions are two-address (``rd = rd op rs``), matching
x86; float compares are the one three-address exception (modeling the
``ucomisd``+``setcc`` fusion).  Frame allocation and release are plain
``Pespadd`` pointer arithmetic on ESP — by design there are no
frame pseudo-instructions left at this level.

Addressing modes: ``AGlobal(symbol, ofs)``, ``ABase(reg, ofs)`` and
``AStack(ofs)`` (= ``ESP + ofs``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.clight.ast import GlobalVar
from repro.memory.chunks import Chunk

INT_REG_NAMES = ("eax", "ebx", "ecx", "edx", "esi", "edi")
FLOAT_REG_NAMES = ("xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5",
                   "xmm6", "xmm7")


class Addr:
    __slots__ = ()


class AGlobal(Addr):
    __slots__ = ("symbol", "offset")

    def __init__(self, symbol: str, offset: int = 0) -> None:
        self.symbol = symbol
        self.offset = offset

    def __repr__(self) -> str:
        return f"[{self.symbol}+{self.offset}]"


class ABase(Addr):
    __slots__ = ("reg", "offset")

    def __init__(self, reg: str, offset: int = 0) -> None:
        self.reg = reg
        self.offset = offset

    def __repr__(self) -> str:
        return f"[{self.reg}+{self.offset}]"


class AStack(Addr):
    __slots__ = ("offset",)

    def __init__(self, offset: int) -> None:
        self.offset = offset

    def __repr__(self) -> str:
        return f"[esp+{self.offset}]"


class PInstr:
    __slots__ = ()


class Pmovimm(PInstr):
    __slots__ = ("dest", "value")

    def __init__(self, dest: str, value: int) -> None:
        self.dest = dest
        self.value = value

    def __repr__(self) -> str:
        return f"mov {self.dest}, {self.value}"


class Pmovfimm(PInstr):
    __slots__ = ("dest", "value")

    def __init__(self, dest: str, value: float) -> None:
        self.dest = dest
        self.value = value

    def __repr__(self) -> str:
        return f"movsd {self.dest}, {self.value!r}"


class Pmov(PInstr):
    __slots__ = ("dest", "src")

    def __init__(self, dest: str, src: str) -> None:
        self.dest = dest
        self.src = src

    def __repr__(self) -> str:
        return f"mov {self.dest}, {self.src}"


class Pmovf(PInstr):
    __slots__ = ("dest", "src")

    def __init__(self, dest: str, src: str) -> None:
        self.dest = dest
        self.src = src

    def __repr__(self) -> str:
        return f"movsd {self.dest}, {self.src}"


class Plea(PInstr):
    __slots__ = ("dest", "addr")

    def __init__(self, dest: str, addr: Addr) -> None:
        self.dest = dest
        self.addr = addr

    def __repr__(self) -> str:
        return f"lea {self.dest}, {self.addr!r}"


class Punop(PInstr):
    """In-place integer unary op (neg, notint, notbool, cast8s, ...)."""

    __slots__ = ("op", "reg")

    def __init__(self, op: str, reg: str) -> None:
        self.op = op
        self.reg = reg

    def __repr__(self) -> str:
        return f"{self.op} {self.reg}"


class Pfneg(PInstr):
    __slots__ = ("reg",)

    def __init__(self, reg: str) -> None:
        self.reg = reg

    def __repr__(self) -> str:
        return f"negsd {self.reg}"


class Pcvt(PInstr):
    """Cross-class conversion: intoffloat/uintoffloat (f->i) and
    floatofint/floatofuint (i->f)."""

    __slots__ = ("op", "dest", "src")

    def __init__(self, op: str, dest: str, src: str) -> None:
        self.op = op
        self.dest = dest
        self.src = src

    def __repr__(self) -> str:
        return f"{self.op} {self.dest}, {self.src}"


class Pbinop(PInstr):
    """Two-address integer ALU op (includes fused compare+setcc)."""

    __slots__ = ("op", "dest", "src")

    def __init__(self, op: str, dest: str, src: str) -> None:
        self.op = op
        self.dest = dest
        self.src = src

    def __repr__(self) -> str:
        return f"{self.op} {self.dest}, {self.src}"


class Pbinopf(PInstr):
    """Two-address float ALU op (addf/subf/mulf/divf)."""

    __slots__ = ("op", "dest", "src")

    def __init__(self, op: str, dest: str, src: str) -> None:
        self.op = op
        self.dest = dest
        self.src = src

    def __repr__(self) -> str:
        return f"{self.op} {self.dest}, {self.src}"


class Pcmpf(PInstr):
    """Float compare into an integer register (ucomisd + setcc)."""

    __slots__ = ("op", "dest", "src1", "src2")

    def __init__(self, op: str, dest: str, src1: str, src2: str) -> None:
        self.op = op
        self.dest = dest
        self.src1 = src1
        self.src2 = src2

    def __repr__(self) -> str:
        return f"{self.op} {self.dest}, {self.src1}, {self.src2}"


class Pload(PInstr):
    __slots__ = ("chunk", "dest", "addr")

    def __init__(self, chunk: Chunk, dest: str, addr: Addr) -> None:
        self.chunk = chunk
        self.dest = dest
        self.addr = addr

    def __repr__(self) -> str:
        return f"load.{self.chunk.value} {self.dest}, {self.addr!r}"


class Pstore(PInstr):
    __slots__ = ("chunk", "src", "addr")

    def __init__(self, chunk: Chunk, src: str, addr: Addr) -> None:
        self.chunk = chunk
        self.src = src
        self.addr = addr

    def __repr__(self) -> str:
        return f"store.{self.chunk.value} {self.addr!r}, {self.src}"


class Pespadd(PInstr):
    """``ESP += delta`` — the only way frames come and go in ASMsz."""

    __slots__ = ("delta",)

    def __init__(self, delta: int) -> None:
        self.delta = delta

    def __repr__(self) -> str:
        if self.delta >= 0:
            return f"add esp, {self.delta}"
        return f"sub esp, {-self.delta}"


class Plabel(PInstr):
    __slots__ = ("label",)

    def __init__(self, label: int) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f".L{self.label}:"


class Pjmp(PInstr):
    __slots__ = ("label",)

    def __init__(self, label: int) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"jmp .L{self.label}"


class Pjcc(PInstr):
    """Branch if the integer register is non-zero (test+jnz)."""

    __slots__ = ("reg", "label")

    def __init__(self, reg: str, label: int) -> None:
        self.reg = reg
        self.label = label

    def __repr__(self) -> str:
        return f"jnz {self.reg}, .L{self.label}"


class Pcall(PInstr):
    __slots__ = ("symbol",)

    def __init__(self, symbol: str) -> None:
        self.symbol = symbol

    def __repr__(self) -> str:
        return f"call {self.symbol}"


class Pret(PInstr):
    __slots__ = ()

    def __repr__(self) -> str:
        return "ret"


class Pbuiltin(PInstr):
    """Invoke an external primitive with register arguments (no stack)."""

    __slots__ = ("name", "args", "arg_is_float", "dest", "dest_is_float")

    def __init__(self, name: str, args: Sequence[str],
                 arg_is_float: Sequence[bool], dest: Optional[str],
                 dest_is_float: bool) -> None:
        self.name = name
        self.args = tuple(args)
        self.arg_is_float = tuple(arg_is_float)
        self.dest = dest
        self.dest_is_float = dest_is_float

    def __repr__(self) -> str:
        dest = f"{self.dest} = " if self.dest else ""
        return f"{dest}builtin {self.name}({', '.join(self.args)})"


class AsmFunction:
    def __init__(self, name: str, body: list[PInstr], frame_size: int) -> None:
        self.name = name
        self.body = body
        self.frame_size = frame_size
        self.labels: dict[int, int] = {
            instr.label: index for index, instr in enumerate(body)
            if isinstance(instr, Plabel)}

    def pretty(self) -> str:
        lines = [f"{self.name}:  # SF = {self.frame_size}"]
        for instr in self.body:
            pad = "" if isinstance(instr, Plabel) else "    "
            lines.append(f"{pad}{instr!r}")
        return "\n".join(lines)


class AsmProgram:
    def __init__(self, globals_: Sequence[GlobalVar],
                 functions: dict[str, AsmFunction],
                 externals: set[str], main: str = "main") -> None:
        self.globals = list(globals_)
        self.functions = dict(functions)
        self.externals = set(externals)
        self.main = main

    def pretty(self) -> str:
        parts = [f".comm {g.name}, {g.size}" for g in self.globals]
        parts.extend(fn.pretty() for fn in self.functions.values())
        return "\n\n".join(parts)

    def canonical_text(self) -> str:
        """Every field of the program, one unambiguous line per item.

        Unlike :meth:`pretty` (for people) this spells out what the
        listing elides — global alignments and images, builtin register
        classes, which addressing mode an operand uses — so two programs
        with equal text behave identically.  The serving layer hashes it
        to tie stored generated code to the program it was built for.
        """
        lines = [f"main {self.main!r}",
                 f"externals {sorted(self.externals)!r}"]
        lines.extend(f"global {g.name!r} {g.size} {g.alignment} "
                     f"{g.image.hex()}" for g in self.globals)
        for fn in self.functions.values():
            lines.append(f"function {fn.name!r} {fn.frame_size}")
            lines.extend(_canonical(instr) for instr in fn.body)
        return "\n".join(lines)


def _canonical(value) -> str:
    if isinstance(value, (PInstr, Addr)):
        fields = ", ".join(_canonical(getattr(value, slot))
                           for slot in value.__slots__)
        return f"{type(value).__name__}({fields})"
    if isinstance(value, tuple):
        return f"({', '.join(map(_canonical, value))})"
    return repr(value)
