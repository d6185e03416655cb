"""The graph toolkit against the definitions, on seeded random graphs.

Each graph has self-loops, parallel edges, nodes the root does not reach
and nodes that reach no exit.  Every result is checked by brute force:
d dominates n iff n is unreachable from the root once d is removed, p
postdominates n iff n reaches no exit once p is removed, and a natural
loop is its header plus every node that reaches the latch without passing
through the header; a node is on a cycle iff it reaches itself over at
least one edge.
"""

from __future__ import annotations

import random

import pytest

from repro.utils.graph import (
    cyclic_nodes,
    dominator_sets,
    dominator_tree,
    natural_loop,
    postdominator_tree,
)

GRAPHS = 300


def _random_graph(rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    count = rng.randint(1, 10)
    succs = [
        [rng.randrange(count) for _ in range(rng.choice((0, 1, 1, 2, 2, 3)))]
        for _ in range(count)
    ]
    preds: list[list[int]] = [[] for _ in range(count)]
    for node, targets in enumerate(succs):
        for succ in targets:
            preds[succ].append(node)
    return succs, preds


def _reached(succs, starts, removed=None) -> set[int]:
    seen = {node for node in starts if node != removed}
    stack = list(seen)
    while stack:
        for succ in succs[stack.pop()]:
            if succ != removed and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def _check_tree(idom, order, dom, strict_dominators, covered):
    """*strict_dominators(n)* is the brute-force answer for a covered node;
    every other node has no parent and only itself as dominator."""
    assert sorted(order) == sorted(covered)
    position = {node: index for index, node in enumerate(order)}
    for node in range(len(idom)):
        if node not in covered:
            assert idom[node] is None and dom[node] == {node}
            continue
        strict = strict_dominators(node)
        assert dom[node] == strict | {node}
        parent = idom[node]
        if parent is None:
            assert not strict
        else:
            # the strict dominator that every other strict dominator dominates
            assert parent in strict and strict <= dom[parent]
            assert position[parent] < position[node]


@pytest.mark.parametrize("seed", range(3))
def test_dominators_and_postdominators_match_the_definitions(seed):
    rng = random.Random(seed)
    for _ in range(GRAPHS // 3):
        succs, preds = _random_graph(rng)
        nodes = range(len(succs))

        idom, order = dominator_tree(succs, preds, 0)
        reachable = _reached(succs, [0])
        _check_tree(
            idom, order, dominator_sets(idom, order),
            lambda n: {d for d in reachable - {n} if n not in _reached(succs, [0], d)},
            reachable,
        )
        assert idom[0] is None

        ipdom, pdom_order = postdominator_tree(succs, preds)
        exits = [node for node in nodes if not succs[node]]
        reaches_exit = {n for n in nodes if _reached(succs, [n]) & set(exits)}
        _check_tree(
            ipdom, pdom_order, dominator_sets(ipdom, pdom_order),
            lambda n: {p for p in nodes if p != n
                       and not _reached(succs, [n], p) & set(exits)},
            reaches_exit,
        )
        assert all(ipdom[node] is None for node in exits)


@pytest.mark.parametrize("seed", range(3))
def test_natural_loop_stops_at_the_header(seed):
    rng = random.Random(100 + seed)
    for _ in range(GRAPHS // 3):
        succs, preds = _random_graph(rng)
        for header in range(len(succs)):
            for latch in range(len(succs)):
                want = {header} | _reached(preds, [latch], removed=header)
                assert natural_loop(preds, header, latch) == want


def test_unreachable_block_does_not_break_dominance():
    # 2 has no predecessors; it must not stop the root dominating 1
    succs = [[1], [], [1]]
    preds = [[], [0, 2], []]
    idom, order = dominator_tree(succs, preds, 0)
    assert idom == [None, 0, None]
    assert dominator_sets(idom, order) == [{0}, {0, 1}, {2}]


def test_block_reaching_no_exit_has_no_postdominator():
    # 1 spins forever; 0's only way out is 2
    succs = [[1, 2], [1], []]
    preds = [[], [0, 1], [0]]
    ipdom, order = postdominator_tree(succs, preds)
    assert ipdom == [2, None, None]
    assert dominator_sets(ipdom, order) == [{0, 2}, {1}, {2}]


def test_single_block_loop_is_its_header():
    # 0 -> 1 -> 1 (self-loop) -> 2: the walk must not leave the header
    preds = [[], [0, 1], [1]]
    assert natural_loop(preds, 1, 1) == {1}


@pytest.mark.parametrize("seed", range(3))
def test_cyclic_nodes_are_the_nodes_that_reach_themselves(seed):
    rng = random.Random(seed)
    for _ in range(GRAPHS // 3):
        succs, _ = _random_graph(rng)
        expected = [node in _reached(succs, succs[node]) for node in range(len(succs))]
        assert cyclic_nodes(succs) == expected, succs


def test_cyclic_nodes_survive_a_long_chain():
    # iterative: a chain far deeper than the recursion limit, closed into
    # one cycle at its end
    succs = [[node + 1] for node in range(5000)] + [[0]]
    assert all(cyclic_nodes(succs))
    assert not any(cyclic_nodes(succs[:-1] + [[]]))
