"""Dominance over integer-indexed graphs, written once for every stage.

A graph is a successor list and a predecessor list per node ``0 .. n-1``
(self-loops and parallel edges allowed).  Immediate dominators come from
Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm" (2001);
dominator sets are built from that tree; postdominators are the dominators
of the reversed graph, rooted at a virtual exit that every exit node (one
without successors) flows to.  The compiler's LICM and unreachable-code
removal and the decompiler's CFG pruning, loops, alias analysis and
structure recovery all read the graph through this module.

Unreachable nodes: a node the root does not reach has no immediate
dominator and is dominated only by itself, and a node that reaches no exit
has no immediate postdominator and is postdominated only by itself.  The
root, and for postdominance every exit node, has no parent either.

:func:`cyclic_nodes` answers the one question the simulator asks of a
whole-program graph: which nodes lie on a cycle (Tarjan's strongly
connected components, each node on a cycle iff its component has two
nodes or it has a self-loop).
"""

from __future__ import annotations

from typing import Sequence

Graph = Sequence[Sequence[int]]
#: ``(parent, order)``: each node's immediate (post)dominator, and the nodes
#: that have a parent or are the root, each after its parent
Tree = tuple[list[int | None], list[int]]


def reverse_postorder(succs: Graph, root: int) -> list[int]:
    """The nodes reachable from *root*, in reverse postorder (root first)."""
    seen = {root}
    postorder: list[int] = []
    stack = [(root, iter(succs[root]))]
    while stack:
        node, pending = stack[-1]
        for succ in pending:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(succs[succ])))
                break
        else:
            stack.pop()
            postorder.append(node)
    return postorder[::-1]


def dominator_tree(succs: Graph, preds: Graph, root: int) -> Tree:
    """Immediate dominators, with the reachable nodes in reverse postorder."""
    order = reverse_postorder(succs, root)
    rank = {node: position for position, node in enumerate(order)}
    idom: list[int | None] = [None] * len(succs)
    idom[root] = root  # stops the upward walks
    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            new: int | None = None
            for pred in preds[node]:
                if idom[pred] is None:  # not processed yet, or unreachable
                    continue
                if new is None:
                    new = pred
                while pred != new:  # meet at the nearest common ancestor
                    while rank[pred] > rank[new]:
                        pred = idom[pred]
                    while rank[new] > rank[pred]:
                        new = idom[new]
            if idom[node] != new:
                idom[node] = new
                changed = True
    idom[root] = None
    return idom, order


def dominator_sets(idom: list[int | None], order: list[int]) -> list[set[int]]:
    """``dom[n]``, the nodes dominating *n* (*n* included), from a tree."""
    dom = [{node} for node in range(len(idom))]
    for node in order:
        if idom[node] is not None:
            dom[node] = dom[idom[node]] | {node}
    return dom


def postdominator_tree(succs: Graph, preds: Graph) -> Tree:
    """Immediate postdominators: the dominator tree of the reversed graph,
    with the virtual exit left out."""
    virtual = len(succs)
    exits = [node for node in range(virtual) if not succs[node]]
    reversed_preds = [*(succ or [virtual] for succ in succs), []]
    ipdom, order = dominator_tree([*preds, exits], reversed_preds, virtual)
    return [None if p == virtual else p for p in ipdom[:virtual]], order[1:]


def natural_loop(preds: Graph, header: int, latch: int) -> set[int]:
    """The natural loop of back edge ``latch -> header``: *header* plus
    every node that reaches *latch* without passing through *header*, so
    ``{header}`` when the latch is the header."""
    body = {header, latch}
    stack = [latch] if latch != header else []
    while stack:
        for pred in preds[stack.pop()]:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def cyclic_nodes(succs: Graph) -> list[bool]:
    """Whether each node lies on a cycle: a self-loop, or a strongly
    connected component of two or more nodes (Tarjan, iterative)."""
    count = len(succs)
    index = [-1] * count  # discovery order, -1 until visited
    low = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    cyclic = [False] * count
    counter = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succs[root]))]
        while work:
            node, pending = work[-1]
            for succ in pending:
                if succ == node:
                    cyclic[node] = True
                elif index[succ] < 0:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(succs[succ])))
                    break
                elif on_stack[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:  # the root of a component
                    member = stack.pop()
                    on_stack[member] = False
                    if member != node:
                        while True:
                            cyclic[member] = True
                            if member == node:
                                break
                            member = stack.pop()
                            on_stack[member] = False
    return cyclic
