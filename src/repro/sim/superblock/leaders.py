"""Superblock formation: leaders, the block partition, dispatch roots and
loop regions.

Leaders are the entry index, every instruction after a control transfer,
every static branch/jump target, and every data word that looks like a
text address (the compiler's switch jump tables live in ``.data`` as
little-endian word arrays of case-target addresses, so this scan
guarantees jump-table targets start a block).  The leader set only
affects *performance*: a register-indirect jump into the middle of a
block -- possible in principle for hand-written assembly -- lands on a
slot with no generated function, which the dispatch loops single-step
through the threaded handlers, so correctness never depends on the
discovery heuristics.

:func:`dispatch_roots` names the indices a dispatch loop can be handed
from outside any unit's static exits: the entry point, return addresses
and jump-table targets.  The dispatch table closes them over the units'
static exits and generates code only for that set.

:func:`find_loops` finds the innermost natural loops of that unit graph,
the loops the warp profiler finds from backward branches: each becomes
one generated region function (see
:meth:`repro.sim.superblock.codegen.Codegen.emit_region`).

:func:`run_once_leaders` names the blocks that statically run at most
once per run: the dispatch table generates no code for them, so a
program's straight-line set-up and tear-down is single-stepped instead
of compiled.
"""

from __future__ import annotations

from struct import unpack_from

from repro.isa.instructions import CLASS_BRANCH, CLASS_JUMP, SPECS
from repro.utils.graph import cyclic_nodes

__all__ = [
    "BRANCHES", "CONTROL_TRANSFERS", "dispatch_roots", "find_leaders", "find_loops",
    "run_once_leaders",
]

#: a superblock never continues past one of these: the branches, the
#: jumps, ``break`` and ``syscall``
CONTROL_TRANSFERS = frozenset(
    m for m, spec in SPECS.items() if spec.klass in (CLASS_BRANCH, CLASS_JUMP))

BRANCHES = frozenset(m for m, spec in SPECS.items() if spec.is_branch)

def _data_text_targets(data: bytes, text_base: int, text_len: int) -> set[int]:
    """Indices of the word-aligned text addresses found in *data*."""
    text_end = text_base + (text_len << 2)
    words = unpack_from(f"<{len(data) >> 2}I", data)
    return {(word - text_base) >> 2 for word in words
            if not word & 3 and text_base <= word < text_end}


def find_leaders(decoded, targets: dict[int, int], text_base: int,
                 text_len: int, data: bytes) -> set[int]:
    """Indices that start a superblock.

    The union of: index 0, the successor of every control transfer, every
    in-text static branch/jump target (*targets* maps each branch and
    ``j``/``jal`` index to its target's index, or to a slot past the text),
    and every word-aligned text address found in the data section
    (jump-table case targets).
    """
    leaders = {index + 1 for index in range(text_len - 1)
               if decoded[index].mnemonic in CONTROL_TRANSFERS}
    leaders.update(target for target in targets.values() if target < text_len)
    if text_len:
        leaders.add(0)
    return leaders | _data_text_targets(data, text_base, text_len)


def dispatch_roots(decoded, entry: int, text_base: int, text_len: int,
                   data: bytes) -> set[int]:
    """Indices a dispatch loop reaches other than through a static exit.

    The entry point's index, the successor of every ``jal``/``jalr``
    (where a ``jr $ra`` returns) and every text address in the data
    section (jump-table case targets).
    """
    roots = _data_text_targets(data, text_base, text_len)
    index = (entry - text_base) >> 2
    if not entry & 3 and 0 <= index < text_len:
        roots.add(index)
    for index in range(text_len - 1):
        m = decoded[index].mnemonic
        if m == "jal" or m == "jalr":
            roots.add(index + 1)
    return roots


def find_loops(succs: dict[int, list[int]], roots: set[int],
               closed: set[int]) -> dict[int, set[int]]:
    """Innermost natural loops of the unit graph, as header -> member units.

    *succs* maps each unit to its in-text static exits, *closed* holds
    the units whose control stays static (they end in a branch, a ``j``
    or a fall-through), which alone may be members.  A candidate starts
    at a backward edge ``latch -> header`` (the header at or before the
    latch) and collects, walking predecessors from the latch, every unit
    that reaches the latch without passing the header.  Each member other
    than the header therefore has all its predecessors in the loop, and
    none of them may be a dispatch root: the header is the only entry,
    so it dominates the loop.  A walk that meets a unit that is not
    closed or a root drops the latch: its edge enters the header from
    outside the loop (the header does not dominate it), or its path
    holds a call or a ``jr``.  The size of a loop is bounded where its
    region is emitted (see
    :data:`repro.sim.superblock.codegen.REGION_MAX_INSTRS`).  A loop
    whose members include another loop's header is not innermost and is
    dropped.
    """
    preds: dict[int, list[int]] = {}
    for unit, targets in succs.items():
        for target in targets:
            preds.setdefault(target, []).append(unit)
    loops: dict[int, set[int]] = {}
    for latch in sorted(closed):
        for header in succs[latch]:
            if header > latch or header not in closed:
                continue
            body = loops.get(header, {header})
            grown: set[int] | None = set()
            work = [latch]
            while work:
                unit = work.pop()
                if unit in body or unit in grown:
                    continue
                if unit not in closed or unit in roots:
                    grown = None
                    break
                grown.add(unit)
                work.extend(preds.get(unit, ()))
            if grown is not None:
                loops[header] = body | grown
    return {header: body for header, body in loops.items()
            if not any(other in body for other in loops if other != header)}


def run_once_leaders(decoded, targets: dict[int, int], leaders: set[int],
                     suffix_len: list[int], entry: int, text_base: int,
                     data: bytes) -> set[int]:
    """Leaders of the blocks that run at most once in any run.

    The static graph has a node per block and an edge per branch target
    and fall-through, ``j`` target and fall-through into the next block;
    a ``jal`` has two, to its callee and to its return site (a call
    returns there).  A *function* is everything a function entry (the
    entry point or a ``jal`` target) reaches over those edges without
    entering another callee.  A block qualifies when it is on no cycle
    of the graph, exactly one function reaches it, and that function
    runs at most once: the entry point's function when no ``jal`` calls
    it, any other when exactly one ``jal`` calls it, from a qualifying
    block.  A function that holds a register-indirect jump other than
    ``jr $ra`` (a jump-table switch) or a text address from the data
    section never qualifies, nor does a block reachable from such an
    address; a ``jalr`` anywhere, a call through a pointer, leaves
    nothing to qualify.  A program without calls keeps all of its code:
    such a program is hand-written straight-line code around its loops,
    and it would otherwise never reach the generated-code paths (inline
    window accesses, entry guards) outside a loop region.
    """
    text_len = len(decoded)
    if any(instr.mnemonic == "jalr" for instr in decoded):
        return set()
    order = sorted(leaders)
    node = {leader: position for position, leader in enumerate(order)}
    succs: list[list[int]] = []  # calls included
    local: list[list[int]] = []  # a call reaches only its return site
    calls: dict[int, list[int]] = {}  # callee node -> calling nodes
    indirect: set[int] = set()  # nodes ending in a jr other than jr $ra
    for position, start in enumerate(order):
        last = start + suffix_len[start] - 1
        instr = decoded[last]
        m = instr.mnemonic
        callee = None
        if m in BRANCHES:
            out = [targets[last], last + 1]
        elif m == "j":
            out = [targets[last]]
        elif m == "jal":
            out = [last + 1]
            if targets[last] < text_len:
                callee = node[targets[last]]
                calls.setdefault(callee, []).append(position)
        else:
            out = [] if m in CONTROL_TRANSFERS else [last + 1]
            if m == "jr" and instr.rs != 31:
                indirect.add(position)
        out = [node[target] for target in out if target < text_len]
        local.append(out)
        succs.append(out if callee is None else [callee, *out])
    cyclic = cyclic_nodes(succs)

    def reach(starts) -> set[int]:
        seen = set(starts)
        work = list(seen)
        while work:
            for succ in local[work.pop()]:
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    jumped = reach(node[t] for t in _data_text_targets(data, text_base, text_len))
    barred = jumped | indirect  # a function holding one never qualifies
    owners: dict[int, list[int]] = {}  # node -> the functions reaching it
    bodies: dict[int, set[int]] = {}
    heads = set(calls)
    index = (entry - text_base) >> 2
    if not entry & 3 and index in node:
        heads.add(node[index])
    for head in heads:
        body = bodies[head] = reach([head])
        for member in body:
            owners.setdefault(member, []).append(head)

    once: dict[int, bool] = {}

    def runs_once(head: int) -> bool:
        if head not in once:
            once[head] = False  # a cycle of calls never qualifies
            sites = calls.get(head, [])
            once[head] = bodies[head].isdisjoint(barred) and (
                len(sites) == 1 and qualifies(sites[0])
                if order[head] != index else not sites)
        return once[head]

    def qualifies(position: int) -> bool:
        heads = owners.get(position, ())
        return (not cyclic[position] and position not in jumped
                and len(heads) == 1 and runs_once(heads[0]))

    if not calls:
        return set()
    return {order[position] for position in range(len(order))
            if qualifies(position)}
