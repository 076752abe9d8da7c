"""Backward liveness analysis over RTL.

Produces, for every node, the set of registers live *after* the node
(`live-out`).  Consumed by dead-code elimination and by the register
allocator's interference construction.
"""

from __future__ import annotations

from typing import Iterator

from repro.rtl import ast as rtl
from repro.rtl.dataflow import Step, replay_backward, solve_backward_blocks

Fact = frozenset


def has_side_effect(instr: rtl.Instr) -> bool:
    """Instructions that must be kept even if their result is dead."""
    return isinstance(instr, (rtl.Istore, rtl.Icall, rtl.Ireturn, rtl.Icond))


def _faint_step(node: int, instr: rtl.Instr, live: set) -> None:
    """Live-after to live-before, in place.

    A pure instruction whose destination is dead contributes no uses: its
    operands need not stay live (this is what lets DCE cascade).
    """
    defs = instr.defs()
    if defs and not has_side_effect(instr) \
            and not any(d in live for d in defs):
        return  # its destinations are not in ``live`` to begin with
    _conservative_step(node, instr, live)


def _conservative_step(_node: int, instr: rtl.Instr, live: set) -> None:
    """The register allocator's transfer, which must stay correct even
    when dead instructions are left in the code: uses are always live."""
    live.difference_update(instr.defs())
    live.update(instr.uses())


def _merge_sets(old: set, new: set) -> bool:
    size = len(old)
    old |= new
    return len(old) != size


def _step_for(conservative: bool) -> Step:
    return _conservative_step if conservative else _faint_step


def live_after_each(function: rtl.RTLFunction, conservative: bool = False
                    ) -> Iterator[tuple[int, rtl.Instr, set]]:
    """Yield ``(node, instr, registers live after node)`` for every node.

    Liveness is solved once, per block; each block is then replayed
    backward with one set updated in place, so a consumer that keeps a
    set must copy it.
    """
    step = _step_for(conservative)
    blocks, after = solve_backward_blocks(function, set(), step,
                                          _merge_sets, set)
    return replay_backward(function, blocks, after, step)


def liveness(function: rtl.RTLFunction,
             conservative: bool = False) -> dict[int, Fact]:
    """Map node -> registers live after the node."""
    return {node: frozenset(live) for node, _instr, live
            in live_after_each(function, conservative)}


def live_before(instr: rtl.Instr, live_out: Fact,
                conservative: bool = False) -> Fact:
    live = set(live_out)
    _step_for(conservative)(0, instr, live)
    return frozenset(live)
