"""Direct unit tests for the Kildall worklist solvers on hand-built CFGs.

The block solver must agree with the per-node reference solver node by
node, on hand-built corner cases and on generated programs.
"""

import copy

import pytest

from repro.c.parser import parse
from repro.c.typecheck import typecheck
from repro.clight.from_c import clight_of_program
from repro.cminor import cminor_of_clight
from repro.rtl import ast as rtl
from repro.rtl import constprop as constprop_mod
from repro.rtl.constprop import constprop_program
from repro.rtl.dataflow import (predecessors, replay_forward, solve_backward,
                                solve_forward, solve_forward_blocks,
                                split_blocks)
from repro.rtl.deadcode import deadcode
from repro.rtl.liveness import live_before, liveness
from repro.rtl.lower import rtl_of_cminor
from repro.testing.progen import generate_program


def diamond():
    """1: cond -> 2 | 3;  2,3 -> 4;  4: return."""
    graph = {
        1: rtl.Icond(10, 2, 3),
        2: rtl.Iop(("const", 1), [], 11, 4),
        3: rtl.Iop(("const", 2), [], 11, 4),
        4: rtl.Ireturn(11),
    }
    return rtl.RTLFunction("d", [10], set(), 0, graph, 1, 20, False, [False])


def loop():
    """1 -> 2; 2: cond -> 3 (body) | 4; 3 -> 2; 4: return."""
    graph = {
        1: rtl.Iop(("const", 0), [], 5, 2),
        2: rtl.Icond(5, 3, 4),
        3: rtl.Iop(("binop", "add"), [5, 5], 5, 2),
        4: rtl.Ireturn(5),
    }
    return rtl.RTLFunction("l", [], set(), 0, graph, 1, 10, False, [])


class TestPredecessors:
    def test_diamond(self):
        preds = predecessors(diamond().graph)
        assert sorted(preds[4]) == [2, 3]
        assert preds[1] == []

    def test_loop_back_edge(self):
        preds = predecessors(loop().graph)
        assert sorted(preds[2]) == [1, 3]


class TestForward:
    def test_reaches_all_reachable(self):
        function = diamond()
        facts = solve_forward(function, frozenset({"init"}),
                              lambda a, b: a | b,
                              lambda n, i, f: f | {n},
                              lambda a, b: a == b)
        assert set(facts) == {1, 2, 3, 4}
        # node 4 merges both branch histories
        assert {2, 3} <= facts[4]

    def test_unreachable_nodes_absent(self):
        function = diamond()
        function.graph[9] = rtl.Ireturn(None)  # orphan
        facts = solve_forward(function, frozenset(), lambda a, b: a | b,
                              lambda n, i, f: f, lambda a, b: a == b)
        assert 9 not in facts

    def test_loop_reaches_fixpoint(self):
        function = loop()
        # count-to-saturation lattice: set of nodes seen, capped by frozenset
        facts = solve_forward(function, frozenset(), lambda a, b: a | b,
                              lambda n, i, f: f | {n},
                              lambda a, b: a == b)
        assert 3 in facts[2]  # the back edge propagated


class TestBackward:
    def test_liveness_shape(self):
        function = diamond()
        def transfer(_n, instr, out):
            live = set(out)
            for d in instr.defs():
                live.discard(d)
            live.update(instr.uses())
            return frozenset(live)
        after = solve_backward(function, frozenset(), lambda a, b: a | b,
                               transfer, lambda a, b: a == b)
        # r11 is live after nodes 2 and 3 (used by the return).
        assert 11 in after[2] and 11 in after[3]
        assert 11 not in after[4]

    def test_loop_backward_fixpoint(self):
        function = loop()
        def transfer(_n, instr, out):
            live = set(out)
            for d in instr.defs():
                live.discard(d)
            live.update(instr.uses())
            return frozenset(live)
        after = solve_backward(function, frozenset(), lambda a, b: a | b,
                               transfer, lambda a, b: a == b)
        # r5 stays live around the loop.
        assert 5 in after[1]
        assert 5 in after[3]


# ---------------------------------------------------------------------------
# Block solver vs reference, node by node
# ---------------------------------------------------------------------------


def self_loop():
    """1 -> 2 -> 3; 3: cond -> 3 (itself) | 4; 4: return."""
    graph = {
        1: rtl.Iop(("const", 1), [], 5, 2),
        2: rtl.Iop(("binop", "add"), [5, 5], 5, 3),
        3: rtl.Icond(5, 3, 4),
        4: rtl.Ireturn(5),
    }
    return rtl.RTLFunction("s", [], set(), 0, graph, 1, 10, False, [])


def entry_header():
    """The entry 1 heads a loop: 1: cond -> 2 | 4; 2 -> 3 -> 1."""
    graph = {
        1: rtl.Icond(5, 2, 4),
        2: rtl.Iop(("binop", "sub"), [5, 6], 5, 3),
        3: rtl.Iop(("const", 1), [], 6, 1),
        4: rtl.Ireturn(5),
    }
    return rtl.RTLFunction("e", [5], set(), 0, graph, 1, 10, False, [False])


def unreachable_cycle():
    """1 -> 2: return; 7 <-> 8 is a cycle nothing else reaches, so no
    node of it has another predecessor or follows a branch."""
    graph = {
        1: rtl.Iop(("const", 0), [], 5, 2),
        2: rtl.Ireturn(5),
        7: rtl.Iop(("binop", "add"), [8, 9], 8, 8),
        8: rtl.Iop(("move",), [8], 9, 7),
    }
    return rtl.RTLFunction("u", [], set(), 0, graph, 1, 10, False, [])


def same_arms():
    """1 -> 2: cond whose two arms are both 3; 3 -> 4: return."""
    graph = {
        1: rtl.Iop(("const", 3), [], 5, 2),
        2: rtl.Icond(5, 3, 3),
        3: rtl.Iop(("binop", "add"), [5, 5], 6, 4),
        4: rtl.Ireturn(6),
    }
    return rtl.RTLFunction("a", [], set(), 0, graph, 1, 10, False, [])


CFGS = [self_loop, entry_header, unreachable_cycle, same_arms, diamond, loop]


def _block_forward(function, entry_fact, step, merge):
    blocks, facts = solve_forward_blocks(function, entry_fact, step, merge,
                                         copy.copy)
    return {node: copy.copy(fact) for node, _instr, fact
            in replay_forward(function, blocks, facts, step)}


def _path_step(node, _instr, fact):
    fact.add(node)


def _union_merge(old, new):
    size = len(old)
    old |= new
    return len(old) != size


def _reference_liveness(function, conservative):
    return solve_backward(
        function, frozenset(), lambda a, b: a | b,
        lambda _n, instr, out: live_before(instr, out, conservative),
        lambda a, b: a == b)


@pytest.mark.parametrize("build", CFGS)
class TestBlockSolver:
    def test_blocks_partition_every_node(self, build):
        function = build()
        blocks = split_blocks(function)
        nodes = [node for body in blocks.body.values() for node in body]
        assert sorted(nodes) == sorted(function.graph)
        for leader, body in blocks.body.items():
            assert body[0] == leader
            for previous, node in zip(body, body[1:]):
                assert function.graph[previous].successors() == (node,)
            assert blocks.succs[leader] \
                == function.graph[body[-1]].successors()

    def test_forward_path_sets_match_reference(self, build):
        function = build()
        expected = solve_forward(function, frozenset({"init"}),
                                 lambda a, b: a | b,
                                 lambda n, _i, f: f | {n},
                                 lambda a, b: a == b)
        got = _block_forward(function, {"init"}, _path_step, _union_merge)
        assert got == expected

    def test_forward_constants_match_reference(self, build):
        function = build()
        entry = {param: constprop_mod.NAC for param in function.params}
        expected = solve_forward(function, dict(entry), constprop_mod._join,
                                 constprop_mod._transfer,
                                 constprop_mod._equal)
        got = _block_forward(function, entry, constprop_mod._step,
                             constprop_mod._merge)
        assert got == expected

    @pytest.mark.parametrize("conservative", [False, True])
    def test_liveness_matches_reference(self, build, conservative):
        function = build()
        expected = _reference_liveness(function, conservative)
        got = liveness(function, conservative)
        assert set(got) == set(function.graph)
        assert got == expected


def test_unreachable_cycle_gets_a_leader():
    function = unreachable_cycle()
    blocks = split_blocks(function)
    assert len({7, 8} & set(blocks.body)) == 1
    live = liveness(function, conservative=True)
    assert live[7] == {8} and live[8] == {8, 9}


def test_same_arms_fold():
    function = same_arms()
    assert constprop_mod.constprop(function) == 2
    assert isinstance(function.graph[2], rtl.Inop)
    assert function.graph[3].op == ("const", 6)


def test_entry_header_joins_entry_and_back_edge():
    function = entry_header()
    facts = _block_forward(function, {5: constprop_mod.NAC},
                           constprop_mod._step, constprop_mod._merge)
    # r6 reaches the entry only along the back edge, as a constant.
    assert facts[1][6].value == 1
    assert facts[1][5] == constprop_mod.NAC


# ---------------------------------------------------------------------------
# Generated programs: the block solver changes no compiler output
# ---------------------------------------------------------------------------


def _to_rtl(source):
    program = parse(source)
    clight = clight_of_program(program, typecheck(program))
    return rtl_of_cminor(cminor_of_clight(clight))


@pytest.mark.parametrize("seed", range(40))
def test_generated_programs_match_reference(seed, monkeypatch):
    program = _to_rtl(generate_program(seed))
    reference = copy.deepcopy(program)
    with monkeypatch.context() as patch:
        patch.setattr(constprop_mod, "FUSED_MERGE", False)
        expected_changes = constprop_program(reference)
    assert constprop_program(program) == expected_changes
    for name, function in program.functions.items():
        assert function.pretty() == reference.functions[name].pretty()
        for conservative in (False, True):
            assert liveness(function, conservative) \
                == _reference_liveness(function, conservative)
        deadcode(function)
        # One liveness solve found every dead instruction: solving again
        # on the rewritten graph finds none left.
        assert deadcode(function) == 0, name
