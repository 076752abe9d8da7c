"""Kildall worklist solvers for RTL dataflow problems.

Two solvers compute the same least fixpoint:

* the *block solver* (:func:`solve_forward_blocks`,
  :func:`solve_backward_blocks`) is what constant propagation, liveness
  and dead-code elimination run.  It splits the function once into
  maximal single-entry straight-line blocks (:func:`split_blocks`) and
  keeps facts only at block boundaries; inside a block the client's
  in-place ``step`` walks one mutable fact from instruction to
  instruction, so a sweep costs one fact copy per *block*, not one per
  instruction.  Per-node facts are recovered afterwards by replaying
  each block once (:func:`replay_forward`, :func:`replay_backward`).
* the *reference solver* (:func:`solve_forward`, :func:`solve_backward`)
  keeps one fact per node and builds a fresh fact per join
  (allocate-and-compare).  It is the differential oracle for the block
  solver, and what CSE uses.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Mapping, TypeVar

from repro.rtl import ast as rtl

Fact = TypeVar("Fact")

#: ``step(node, instr, fact)`` applies ``instr``'s transfer to ``fact`` in
#: place (forward: before-fact to after-fact; backward: the reverse).
Step = Callable[[int, rtl.Instr, Fact], None]


def predecessors(graph: Mapping[int, rtl.Instr]) -> dict[int, list[int]]:
    preds: dict[int, list[int]] = {node: [] for node in graph}
    for node, instr in graph.items():
        for succ in instr.successors():
            preds.setdefault(succ, []).append(node)
    return preds


class Blocks:
    """A function split into maximal single-entry straight-line blocks.

    ``body[leader]`` lists a block's nodes in execution order, leader
    first.  Every node after the leader has the previous node as its
    only predecessor, and that predecessor has it as its only successor,
    so the fact flowing between them needs no join.  ``succs`` and
    ``preds`` are the block-level edges (a branch whose two arms are the
    same node contributes two edges, as at node level).  ``priority``
    ranks leaders in reverse postorder from the entry; unreachable
    leaders rank after every reachable one.
    """

    __slots__ = ("body", "succs", "preds", "priority")

    def __init__(self, body: dict[int, list[int]],
                 succs: dict[int, tuple[int, ...]],
                 preds: dict[int, list[int]],
                 priority: dict[int, int]) -> None:
        self.body = body
        self.succs = succs
        self.preds = preds
        self.priority = priority


def split_blocks(function: rtl.RTLFunction) -> Blocks:
    """Partition every node of ``function`` (reachable or not) into blocks.

    A node leads a block when it is the entry, has other than one
    predecessor, or follows a branch.  A cycle of nodes that are each
    the only successor of the previous one — reachable only through
    itself, so no rule above applies — gets its first node in graph
    order as an extra leader, so backward problems still cover it.
    """
    graph = function.graph
    succ_of = {node: instr.successors() for node, instr in graph.items()}
    leaders = {function.entry}
    indegree = dict.fromkeys(graph, 0)
    for out in succ_of.values():
        if len(out) != 1:
            leaders.update(out)
        for succ in out:
            indegree[succ] += 1
    leaders.update(node for node, count in indegree.items() if count != 1)
    body: dict[int, list[int]] = {}
    succs: dict[int, tuple[int, ...]] = {}

    def grow(leader: int) -> None:
        nodes = [leader]
        out = succ_of[leader]
        while len(out) == 1 and out[0] not in leaders:
            nodes.append(out[0])
            out = succ_of[out[0]]
        body[leader] = nodes
        succs[leader] = out

    for node in graph:
        if node in leaders:
            grow(node)
    if sum(map(len, body.values())) != len(graph):
        covered = {node for nodes in body.values() for node in nodes}
        for node in graph:
            if node not in covered:
                leaders.add(node)
                grow(node)
                covered.update(body[node])
    preds: dict[int, list[int]] = {leader: [] for leader in body}
    for leader, out in succs.items():
        for succ in out:
            preds[succ].append(leader)
    return Blocks(body, succs, preds, _reverse_postorder(function.entry,
                                                         succs))


def _reverse_postorder(entry: int, succs: dict[int, tuple[int, ...]]
                       ) -> dict[int, int]:
    """Leader -> visit priority: reverse postorder from the entry, then
    the unreachable leaders.

    Processing a forward problem in RPO reaches a block only after (most
    of) its predecessors are stable, so loop bodies converge in a couple
    of sweeps instead of rippling one edge at a time.
    """
    seen = {entry}
    # Iterative DFS with an explicit successor cursor (postorder).
    stack = [(entry, iter(succs[entry]))]
    post: list[int] = []
    while stack:
        leader, cursor = stack[-1]
        for succ in cursor:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(succs[succ])))
                break
        else:
            post.append(leader)
            stack.pop()
    priority = {leader: index for index, leader in enumerate(reversed(post))}
    unreachable = len(priority)
    for leader in succs:
        priority.setdefault(leader, unreachable)
    return priority


def solve_forward_blocks(function: rtl.RTLFunction, entry_fact: Fact,
                         step: Step, merge: Callable[[Fact, Fact], bool],
                         copy: Callable[[Fact], Fact]
                         ) -> tuple[Blocks, dict[int, Fact]]:
    """Facts *before* each reachable block's leader.

    ``merge(old, new)`` joins ``new`` into ``old`` in place and returns
    whether ``old`` changed; ``copy`` makes an owned fact.  The worklist
    is deduplicated and drained in reverse postorder.  Unreachable
    blocks are absent from the result.
    """
    blocks = split_blocks(function)
    graph = function.graph
    body, succs, priority = blocks.body, blocks.succs, blocks.priority
    entry = function.entry
    facts: dict[int, Fact] = {entry: copy(entry_fact)}
    heap = [(priority[entry], entry)]
    pending = {entry}
    while heap:
        _, leader = heapq.heappop(heap)
        pending.discard(leader)
        fact = copy(facts[leader])
        for node in body[leader]:
            step(node, graph[node], fact)
        for succ in succs[leader]:
            if succ not in facts:
                facts[succ] = copy(fact)
            elif not merge(facts[succ], fact):
                continue
            if succ not in pending:
                pending.add(succ)
                heapq.heappush(heap, (priority[succ], succ))
    return blocks, facts


def solve_backward_blocks(function: rtl.RTLFunction, exit_fact: Fact,
                          step: Step, merge: Callable[[Fact, Fact], bool],
                          copy: Callable[[Fact], Fact]
                          ) -> tuple[Blocks, dict[int, Fact]]:
    """Facts *after* each block's last node, for every block.

    Blocks are drained in postorder (the convergent direction
    backward); ``merge``/``copy`` as in :func:`solve_forward_blocks`.
    """
    blocks = split_blocks(function)
    graph = function.graph
    body, preds, priority = blocks.body, blocks.preds, blocks.priority
    after = {leader: copy(exit_fact) for leader in body}
    heap = [(-priority[leader], leader) for leader in body]
    heapq.heapify(heap)
    pending = set(body)
    while heap:
        _, leader = heapq.heappop(heap)
        pending.discard(leader)
        fact = copy(after[leader])
        for node in reversed(body[leader]):
            step(node, graph[node], fact)
        for pred in preds[leader]:
            if merge(after[pred], fact) and pred not in pending:
                pending.add(pred)
                heapq.heappush(heap, (-priority[pred], pred))
    return blocks, after


def replay_forward(function: rtl.RTLFunction, blocks: Blocks,
                   facts: dict[int, Fact], step: Step
                   ) -> Iterator[tuple[int, rtl.Instr, Fact]]:
    """Yield ``(node, instr, fact before node)`` for every solved node.

    Consumes ``facts``: each block's entry fact is stepped in place
    after its node is yielded, so a consumer that keeps a fact must copy
    it.  The step uses the instruction as it was yielded, so the
    consumer may rewrite ``function.graph[node]`` meanwhile.
    """
    graph = function.graph
    for leader, fact in facts.items():
        for node in blocks.body[leader]:
            instr = graph[node]
            yield node, instr, fact
            step(node, instr, fact)


def replay_backward(function: rtl.RTLFunction, blocks: Blocks,
                    after: dict[int, Fact], step: Step
                    ) -> Iterator[tuple[int, rtl.Instr, Fact]]:
    """Yield ``(node, instr, fact after node)``, each block last node
    first; consumes ``after`` like :func:`replay_forward`."""
    graph = function.graph
    for leader, fact in after.items():
        for node in reversed(blocks.body[leader]):
            instr = graph[node]
            yield node, instr, fact
            step(node, instr, fact)


def solve_forward(function: rtl.RTLFunction, entry_fact: Fact,
                  join: Callable[[Fact, Fact], Fact],
                  transfer: Callable[[int, rtl.Instr, Fact], Fact],
                  equal: Callable[[Fact, Fact], bool]) -> dict[int, Fact]:
    """Reference solver: facts *before* each node; unreachable nodes are
    absent.  Plain LIFO worklist, allocate-and-compare joins."""
    graph = function.graph
    facts: dict[int, Fact] = {function.entry: entry_fact}
    worklist = [function.entry]
    while worklist:
        node = worklist.pop()
        instr = graph[node]
        out = transfer(node, instr, facts[node])
        for succ in instr.successors():
            if succ not in facts:
                facts[succ] = out
                worklist.append(succ)
            else:
                merged = join(facts[succ], out)
                if not equal(merged, facts[succ]):
                    facts[succ] = merged
                    worklist.append(succ)
    return facts


def solve_backward(function: rtl.RTLFunction, exit_fact: Fact,
                   join: Callable[[Fact, Fact], Fact],
                   transfer: Callable[[int, rtl.Instr, Fact], Fact],
                   equal: Callable[[Fact, Fact], bool]) -> dict[int, Fact]:
    """Reference solver: facts *after* each node (the join over the
    successors' before-facts), for every node."""
    graph = function.graph
    preds = predecessors(graph)
    after: dict[int, Fact] = {node: exit_fact for node in graph}
    before: dict[int, Fact] = {}
    worklist = list(graph)
    while worklist:
        node = worklist.pop()
        instr = graph[node]
        new_before = transfer(node, instr, after[node])
        if node in before and equal(new_before, before[node]):
            continue
        before[node] = new_before
        for pred in preds.get(node, ()):
            merged = join(after[pred], new_before)
            if not equal(merged, after[pred]):
                after[pred] = merged
                worklist.append(pred)
    return after
