"""Disassembler: machine words back to readable assembly.

Used by the decompiler's diagnostics and by tests asserting round-trip
behaviour (assemble -> disassemble -> assemble is a fixed point modulo
formatting).
"""

from __future__ import annotations

from repro.isa.encoding import decode
from repro.isa.instructions import render


def disassemble_one(word: int, pc: int | None = None) -> str:
    """Disassemble a single machine word (optionally resolving targets at *pc*)."""
    return render(decode(word), pc=pc)


def disassemble(
    words: list[int],
    base: int = 0,
    symbols: dict[int, str] | None = None,
) -> list[str]:
    """Disassemble a text section into one formatted line per instruction.

    *symbols* maps addresses to names; when given, lines at symbol addresses
    are prefixed with ``name:`` markers to ease reading function boundaries.
    """
    symbols = symbols or {}
    lines: list[str] = []
    for index, word in enumerate(words):
        pc = base + 4 * index
        if pc in symbols:
            lines.append(f"{symbols[pc]}:")
        lines.append(f"  0x{pc:08x}:  {disassemble_one(word, pc=pc)}")
    return lines
