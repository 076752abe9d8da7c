"""Greedy graph-coloring allocation with call-crossing spills.

Pipeline per function:

1. liveness over the (optimized) RTL graph;
2. every register live across an ``Icall`` is forced into a stack slot
   (all physical registers are caller-saved, and the callee's behavior
   must not be able to disturb the caller's live values);
3. interference graph within each register class; greedy coloring in
   decreasing-degree order; registers that cannot be colored get slots.

``spill_everything=True`` bypasses coloring entirely — the ablation
benchmark uses it to show how register pressure inflates frames and hence
the verified bounds.
"""

from __future__ import annotations

from repro.regalloc.locations import (FLOAT_REGS, INT_REGS, LFReg, LReg,
                                      LSlot, Loc)
from repro.rtl import ast as rtl
from repro.rtl.liveness import live_before, liveness


class Allocation:
    """The result: a total map from virtual registers to locations."""

    def __init__(self, mapping: dict[int, Loc], int_slots: int,
                 float_slots: int) -> None:
        self.mapping = mapping
        self.int_slots = int_slots
        self.float_slots = float_slots

    def loc(self, reg: int) -> Loc:
        return self.mapping[reg]

    @property
    def spilled_count(self) -> int:
        return self.int_slots + self.float_slots

    def __repr__(self) -> str:
        return (f"Allocation({len(self.mapping)} vregs, "
                f"{self.int_slots} int slots, {self.float_slots} float slots)")


def allocate_function(function: rtl.RTLFunction,
                      spill_everything: bool = False) -> Allocation:
    all_regs = _collect_regs(function)
    if spill_everything:
        return _spill_all(function, all_regs)

    live_out = liveness(function, conservative=True)
    interference: dict[int, set[int]] = {reg: set() for reg in all_regs}
    must_spill: set[int] = set()

    for node, instr in function.graph.items():
        out = live_out.get(node, frozenset())
        defs = instr.defs()
        # defs interfere with everything live after the instruction
        # (except themselves, and except the source of a plain move).
        move_src = instr.args[0] if isinstance(instr, rtl.Iop) \
            and instr.op[0] == "move" else None
        for d in defs:
            for other in out:
                if other != d and other != move_src:
                    _edge(interference, d, other)
        if isinstance(instr, rtl.Icall):
            crossing = set(out) - set(defs)
            must_spill.update(crossing)

    # Parameters are defined by the prologue's loads, not by any graph
    # instruction, so they must be made to interfere explicitly: with
    # each other (the loads happen in sequence) and with everything live
    # at the function entry.
    entry_live_in = live_before(function.graph[function.entry],
                                live_out.get(function.entry, frozenset()),
                                conservative=True)
    for param in function.params:
        for other in function.params:
            if other != param:
                _edge(interference, param, other)
        for other in entry_live_in:
            if other != param:
                _edge(interference, param, other)

    mapping: dict[int, Loc] = {}
    int_slots = 0
    float_slots = 0

    def new_slot(is_float: bool) -> LSlot:
        nonlocal int_slots, float_slots
        if is_float:
            slot = LSlot(float_slots, True)
            float_slots += 1
        else:
            slot = LSlot(int_slots, False)
            int_slots += 1
        return slot

    for reg in sorted(must_spill):
        mapping[reg] = new_slot(reg in function.float_regs)

    # Greedy coloring, most-constrained first.
    remaining = [r for r in all_regs if r not in mapping]
    remaining.sort(key=lambda r: (-len(interference.get(r, ())), r))
    for reg in remaining:
        is_float = reg in function.float_regs
        palette = FLOAT_REGS if is_float else INT_REGS
        taken: set[str] = set()
        for neighbor in interference.get(reg, ()):
            loc = mapping.get(neighbor)
            if isinstance(loc, (LReg, LFReg)) and \
                    loc.is_float_class == is_float:
                taken.add(loc.name)
        chosen = next((name for name in palette if name not in taken), None)
        if chosen is None:
            mapping[reg] = new_slot(is_float)
        else:
            mapping[reg] = LFReg(chosen) if is_float else LReg(chosen)

    return Allocation(mapping, int_slots, float_slots)


def _spill_all(function: rtl.RTLFunction, all_regs: set[int]) -> Allocation:
    mapping: dict[int, Loc] = {}
    int_slots = 0
    float_slots = 0
    for reg in sorted(all_regs):
        if reg in function.float_regs:
            mapping[reg] = LSlot(float_slots, True)
            float_slots += 1
        else:
            mapping[reg] = LSlot(int_slots, False)
            int_slots += 1
    return Allocation(mapping, int_slots, float_slots)


def _collect_regs(function: rtl.RTLFunction) -> set[int]:
    regs: set[int] = set(function.params)
    for _node, instr in function.graph.items():
        regs.update(instr.uses())
        regs.update(instr.defs())
    return regs


def _edge(graph: dict[int, set[int]], a: int, b: int) -> None:
    graph.setdefault(a, set()).add(b)
    graph.setdefault(b, set()).add(a)
