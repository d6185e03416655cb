"""Superblock formation: leaders, the block partition and dispatch roots.

Leaders are the entry index, every instruction after a control transfer,
every static branch/jump target, and every data word that looks like a
text address (the compiler's switch jump tables live in ``.data`` as
little-endian word arrays of case-target addresses, so this scan
guarantees jump-table targets start a block).  The leader set only
affects *performance*: a register-indirect jump into the middle of a
block -- possible in principle for hand-written assembly -- lazily
materializes a suffix block starting at that index, so correctness never
depends on the discovery heuristics.

:func:`dispatch_roots` names the indices a dispatch loop can be handed
from outside any unit's static exits: the entry point, return addresses
and jump-table targets.  The dispatch table closes them over the units'
static exits and generates code only for that set.
"""

from __future__ import annotations

from struct import unpack_from

__all__ = ["BRANCHES", "CONTROL_TRANSFERS", "dispatch_roots", "find_leaders"]

#: a superblock never continues past one of these
CONTROL_TRANSFERS = frozenset((
    "beq", "bne", "blez", "bgtz", "bltz", "bgez",
    "j", "jal", "jr", "jalr", "break", "syscall",
))

BRANCHES = frozenset(("beq", "bne", "blez", "bgtz", "bltz", "bgez"))


def _data_text_targets(data: bytes, text_base: int, text_len: int) -> set[int]:
    """Indices of the word-aligned text addresses found in *data*."""
    text_end = text_base + (text_len << 2)
    words = unpack_from(f"<{len(data) >> 2}I", data)
    return {(word - text_base) >> 2 for word in words
            if not word & 3 and text_base <= word < text_end}


def find_leaders(decoded, text_base: int, text_len: int, data: bytes) -> set[int]:
    """Indices that start a superblock.

    The union of: index 0, the successor of every control transfer, every
    in-text static branch/jump target, and every word-aligned text address
    found in the data section (jump-table case targets).
    """
    leaders: set[int] = {0} if text_len else set()
    for index in range(text_len):
        instr = decoded[index]
        m = instr.mnemonic
        if m not in CONTROL_TRANSFERS:
            continue
        if index + 1 < text_len:
            leaders.add(index + 1)
        if m in BRANCHES:
            target = index + 1 + instr.imm
            if 0 <= target < text_len:
                leaders.add(target)
        elif m == "j" or m == "jal":
            pc = text_base + (index << 2)
            t_pc = ((pc + 4) & 0xF000_0000) | (instr.target << 2)
            target = (t_pc - text_base) >> 2
            if 0 <= target < text_len:
                leaders.add(target)
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
