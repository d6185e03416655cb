"""MIPS-I integer instruction set: definitions, encoding, (dis)assembly.

This package is the ISA substrate for the whole reproduction: the mini-C
compiler emits these instructions, the simulator executes them, and the
decompiler lifts their encoded form back into an instruction-set-independent
representation (paper section 2, "binary parsing").

Scope: the classic MIPS-I integer subset (R/I/J formats, HI/LO multiply and
divide, byte/half/word memory access, branches and jumps).  Floating point is
omitted -- none of the embedded kernels in the paper's suites require it.
Branch delay slots are not modeled; see DESIGN.md section 5.
"""

from repro.isa.registers import (
    REG_COUNT,
    REG_NAMES,
    REG_NUMBERS,
    Reg,
    reg_name,
    reg_num,
)
from repro.isa.instructions import (
    Format,
    Instruction,
    InstrSpec,
    SPECS,
    nop,
)
from repro.isa.encoding import decode, decode_text, encode
from repro.isa.assembler import Assembler, assemble
from repro.isa.disassembler import disassemble, disassemble_one

__all__ = [
    "Assembler",
    "Format",
    "Instruction",
    "InstrSpec",
    "REG_COUNT",
    "REG_NAMES",
    "REG_NUMBERS",
    "Reg",
    "SPECS",
    "assemble",
    "decode",
    "decode_text",
    "disassemble",
    "disassemble_one",
    "encode",
    "nop",
    "reg_name",
    "reg_num",
]
