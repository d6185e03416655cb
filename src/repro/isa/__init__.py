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

from repro.surface import lazy_surface

#: where each public name lives; a name's module loads on first access
#: (PEP 562), so the disassembler loads only in sessions that use it
_EXPORTS = {
    "Assembler": "repro.isa.assembler",
    "Format": "repro.isa.instructions",
    "Instruction": "repro.isa.instructions",
    "InstrSpec": "repro.isa.instructions",
    "REG_COUNT": "repro.isa.registers",
    "REG_NAMES": "repro.isa.registers",
    "REG_NUMBERS": "repro.isa.registers",
    "Reg": "repro.isa.registers",
    "SPECS": "repro.isa.instructions",
    "assemble": "repro.isa.assembler",
    "decode": "repro.isa.encoding",
    "decode_text": "repro.isa.encoding",
    "disassemble": "repro.isa.disassembler",
    "disassemble_one": "repro.isa.disassembler",
    "encode": "repro.isa.encoding",
    "nop": "repro.isa.instructions",
    "reg_name": "repro.isa.registers",
    "reg_num": "repro.isa.registers",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_surface(__name__, _EXPORTS)
