"""Control-flow cleanup: unreachable code, jump-to-next, unused labels.

Runs after constant folding (which may have turned conditional branches
into unconditional jumps) and keeps the emitted binary free of dead blocks
-- important because dead code would distort the decompiler's size metrics.
"""

from __future__ import annotations

from repro.compiler import ir


def simplify_control_flow(func: ir.Function) -> bool:
    changed = False
    while True:
        round_changed = False
        round_changed |= _remove_unreachable(func)
        round_changed |= _remove_jump_to_next(func)
        round_changed |= _remove_unused_labels(func)
        round_changed |= _thread_jump_chains(func)
        if not round_changed:
            break
        changed = True
    return changed


def _remove_unreachable(func: ir.Function) -> bool:
    blocks = ir.build_cfg(func)
    if not blocks:
        return False
    reachable: set[int] = set()
    stack = [0]
    while stack:
        index = stack.pop()
        if index in reachable:
            continue
        reachable.add(index)
        stack.extend(blocks[index].succs)
    if len(reachable) == len(blocks):
        return False
    kept = [block for index, block in enumerate(blocks) if index in reachable]
    func.instrs = ir.flatten_cfg(kept)
    return True


def _remove_jump_to_next(func: ir.Function) -> bool:
    instrs = func.instrs
    # a jump straight to the label that follows it (the jump ends its block)
    kept = [
        instr
        for instr, follower in zip(instrs, instrs[1:] + [None])
        if not (
            type(instr) is ir.Jump
            and type(follower) is ir.Label
            and follower.name == instr.target
        )
    ]
    if len(kept) == len(instrs):
        return False
    func.instrs = kept
    return True


def _remove_unused_labels(func: ir.Function) -> bool:
    targets: set[str] = set()
    for instr in func.instrs:
        cls = type(instr)
        if cls is ir.Jump or cls is ir.Branch:
            targets.add(instr.target)
        elif cls is ir.SwitchJump:
            targets.update(instr.labels)
    new_instrs = [
        instr
        for instr in func.instrs
        if not (type(instr) is ir.Label and instr.name not in targets)
    ]
    if len(new_instrs) == len(func.instrs):
        return False
    func.instrs = new_instrs
    return True


def _thread_jump_chains(func: ir.Function) -> bool:
    """Retarget jumps/branches that point at a label immediately followed by
    an unconditional jump (empty forwarding blocks)."""
    forward: dict[str, str] = {}
    instrs = func.instrs
    for instr, follower in zip(instrs, instrs[1:]):
        if (
            type(instr) is ir.Label
            and type(follower) is ir.Jump
            and follower.target != instr.name
        ):
            forward[instr.name] = follower.target
    if not forward:
        return False

    def resolve(name: str) -> str:
        seen = set()
        while name in forward and name not in seen:
            seen.add(name)
            name = forward[name]
        return name

    changed = False
    for instr in instrs:
        cls = type(instr)
        if cls is ir.Jump or cls is ir.Branch:
            target = resolve(instr.target)
            if target != instr.target:
                instr.target = target
                changed = True
        elif cls is ir.SwitchJump:
            new_labels = [resolve(name) for name in instr.labels]
            if new_labels != instr.labels:
                instr.labels = new_labels
                changed = True
    return changed
