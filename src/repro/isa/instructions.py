"""Instruction set definition: formats, per-mnemonic specs, and the
:class:`Instruction` value type shared by assembler, simulator and decompiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.isa.registers import reg_name
from repro.utils import sign_extend


class Format(Enum):
    """MIPS instruction encoding formats."""

    R = "R"
    I = "I"  # noqa: E741 - the canonical MIPS format name
    J = "J"


#: instruction class names used by the timing and energy models
CLASS_ALU = "alu"
CLASS_SHIFT = "shift"
CLASS_LOAD = "load"
CLASS_STORE = "store"
CLASS_BRANCH = "branch"
CLASS_JUMP = "jump"
CLASS_MULT = "mult"
CLASS_DIV = "div"
CLASS_HILO = "hilo"


class Syntax(Enum):
    """Assembly operand syntax shapes, used by the (dis)assembler.  Each
    value names the operands in order: an :class:`Instruction` field, or
    ``off(base)`` (``imm`` and ``rs``), ``label`` (a branch's ``imm``) or
    ``target`` (a jump's ``target``)."""

    RD_RS_RT = "rd, rs, rt"          # add $rd, $rs, $rt
    RD_RT_SHAMT = "rd, rt, shamt"    # sll $rd, $rt, shamt
    RD_RT_RS = "rd, rt, rs"          # sllv $rd, $rt, $rs
    RS = "rs"                        # jr $rs
    RD_RS = "rd, rs"                 # jalr $rd, $rs
    RD = "rd"                        # mfhi $rd
    RS_RT = "rs, rt"                 # mult $rs, $rt
    RT_RS_IMM = "rt, rs, imm"        # addi $rt, $rs, imm
    RT_IMM = "rt, imm"               # lui $rt, imm
    RT_OFF_BASE = "rt, off(base)"    # lw $rt, off($rs)
    RS_RT_LABEL = "rs, rt, label"    # beq $rs, $rt, label
    RS_LABEL = "rs, label"           # blez $rs, label / bltz / bgez
    TARGET = "target"                # j label
    NONE = ""                        # break / nop


#: the kind of each operand name: ``r`` a register, ``i`` an integer,
#: ``l`` a label reference, ``m`` a memory operand (two items: offset and
#: base register)
_OPERAND_KIND = {"rd": "r", "rs": "r", "rt": "r", "shamt": "i", "imm": "i",
                 "off(base)": "m", "label": "l", "target": "l"}
#: the operand kinds of each syntax, one letter each (an assembler
#: directive's shape may start with ``*``, which repeats the next letter)
SYNTAX_SHAPE = {
    syntax: "".join(_OPERAND_KIND[name] for name in syntax.value.split(", ") if name)
    for syntax in Syntax
}


def render_operands(shape: str, items) -> str:
    """The operand text of *items* laid out as *shape* (a
    :data:`SYNTAX_SHAPE` value, or an assembler directive's shape: ``s``
    the bytes of a string)."""
    if shape.startswith("*"):
        return ", ".join(map(str, items))
    if shape == "s":
        text = items[0].decode("latin-1").encode("unicode_escape").decode("ascii")
        return '"' + text.replace('"', '\\"') + '"'
    parts = []
    it = iter(items)
    for kind in shape:
        item = next(it)
        if kind == "r":
            parts.append(reg_name(item))
        elif kind == "m":
            parts.append(f"{item}({reg_name(next(it))})")
        else:
            parts.append(str(item))
    return ", ".join(parts)


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    fmt: Format
    syntax: Syntax
    opcode: int
    funct: int = 0
    #: rt field value for REGIMM-encoded branches (bltz/bgez).
    regimm_rt: int | None = None
    #: immediate is zero-extended (logical ops) rather than sign-extended.
    zero_extend_imm: bool = False
    #: categories used by timing/energy models and the decompiler lifter
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_jump: bool = False
    writes_rd: bool = False
    writes_rt: bool = False
    #: timing/energy class (CLASS_*); keyed into :class:`~repro.sim.cpu.CpiModel`
    klass: str = CLASS_ALU


def _r(mnem: str, funct: int, syntax: Syntax, **kw) -> InstrSpec:
    return InstrSpec(mnem, Format.R, syntax, opcode=0, funct=funct, **kw)


def _i(mnem: str, opcode: int, syntax: Syntax, **kw) -> InstrSpec:
    return InstrSpec(mnem, Format.I, syntax, opcode=opcode, **kw)


_SPEC_LIST: list[InstrSpec] = [
    # --- R-type shifts ---
    _r("sll", 0, Syntax.RD_RT_SHAMT, writes_rd=True, klass=CLASS_SHIFT),
    _r("srl", 2, Syntax.RD_RT_SHAMT, writes_rd=True, klass=CLASS_SHIFT),
    _r("sra", 3, Syntax.RD_RT_SHAMT, writes_rd=True, klass=CLASS_SHIFT),
    _r("sllv", 4, Syntax.RD_RT_RS, writes_rd=True, klass=CLASS_SHIFT),
    _r("srlv", 6, Syntax.RD_RT_RS, writes_rd=True, klass=CLASS_SHIFT),
    _r("srav", 7, Syntax.RD_RT_RS, writes_rd=True, klass=CLASS_SHIFT),
    # --- R-type jumps ---
    _r("jr", 8, Syntax.RS, is_jump=True, klass=CLASS_JUMP),
    _r("jalr", 9, Syntax.RD_RS, is_jump=True, writes_rd=True, klass=CLASS_JUMP),
    # --- system ---
    _r("syscall", 12, Syntax.NONE, klass=CLASS_JUMP),
    _r("break", 13, Syntax.NONE, klass=CLASS_JUMP),
    # --- HI/LO moves ---
    _r("mfhi", 16, Syntax.RD, writes_rd=True, klass=CLASS_HILO),
    _r("mthi", 17, Syntax.RS, klass=CLASS_HILO),
    _r("mflo", 18, Syntax.RD, writes_rd=True, klass=CLASS_HILO),
    _r("mtlo", 19, Syntax.RS, klass=CLASS_HILO),
    # --- multiply / divide ---
    _r("mult", 24, Syntax.RS_RT, klass=CLASS_MULT),
    _r("multu", 25, Syntax.RS_RT, klass=CLASS_MULT),
    _r("div", 26, Syntax.RS_RT, klass=CLASS_DIV),
    _r("divu", 27, Syntax.RS_RT, klass=CLASS_DIV),
    # --- R-type ALU ---
    _r("add", 32, Syntax.RD_RS_RT, writes_rd=True),
    _r("addu", 33, Syntax.RD_RS_RT, writes_rd=True),
    _r("sub", 34, Syntax.RD_RS_RT, writes_rd=True),
    _r("subu", 35, Syntax.RD_RS_RT, writes_rd=True),
    _r("and", 36, Syntax.RD_RS_RT, writes_rd=True),
    _r("or", 37, Syntax.RD_RS_RT, writes_rd=True),
    _r("xor", 38, Syntax.RD_RS_RT, writes_rd=True),
    _r("nor", 39, Syntax.RD_RS_RT, writes_rd=True),
    _r("slt", 42, Syntax.RD_RS_RT, writes_rd=True),
    _r("sltu", 43, Syntax.RD_RS_RT, writes_rd=True),
    # --- REGIMM branches (opcode 1, selector in rt) ---
    _i("bltz", 1, Syntax.RS_LABEL, regimm_rt=0, is_branch=True, klass=CLASS_BRANCH),
    _i("bgez", 1, Syntax.RS_LABEL, regimm_rt=1, is_branch=True, klass=CLASS_BRANCH),
    # --- J-type ---
    InstrSpec("j", Format.J, Syntax.TARGET, opcode=2, is_jump=True, klass=CLASS_JUMP),
    InstrSpec("jal", Format.J, Syntax.TARGET, opcode=3, is_jump=True, klass=CLASS_JUMP),
    # --- I-type branches ---
    _i("beq", 4, Syntax.RS_RT_LABEL, is_branch=True, klass=CLASS_BRANCH),
    _i("bne", 5, Syntax.RS_RT_LABEL, is_branch=True, klass=CLASS_BRANCH),
    _i("blez", 6, Syntax.RS_LABEL, is_branch=True, klass=CLASS_BRANCH),
    _i("bgtz", 7, Syntax.RS_LABEL, is_branch=True, klass=CLASS_BRANCH),
    # --- I-type ALU ---
    _i("addi", 8, Syntax.RT_RS_IMM, writes_rt=True),
    _i("addiu", 9, Syntax.RT_RS_IMM, writes_rt=True),
    _i("slti", 10, Syntax.RT_RS_IMM, writes_rt=True),
    _i("sltiu", 11, Syntax.RT_RS_IMM, writes_rt=True),
    _i("andi", 12, Syntax.RT_RS_IMM, zero_extend_imm=True, writes_rt=True),
    _i("ori", 13, Syntax.RT_RS_IMM, zero_extend_imm=True, writes_rt=True),
    _i("xori", 14, Syntax.RT_RS_IMM, zero_extend_imm=True, writes_rt=True),
    _i("lui", 15, Syntax.RT_IMM, zero_extend_imm=True, writes_rt=True),
    # --- loads / stores ---
    _i("lb", 32, Syntax.RT_OFF_BASE, is_load=True, writes_rt=True, klass=CLASS_LOAD),
    _i("lh", 33, Syntax.RT_OFF_BASE, is_load=True, writes_rt=True, klass=CLASS_LOAD),
    _i("lw", 35, Syntax.RT_OFF_BASE, is_load=True, writes_rt=True, klass=CLASS_LOAD),
    _i("lbu", 36, Syntax.RT_OFF_BASE, is_load=True, writes_rt=True, klass=CLASS_LOAD),
    _i("lhu", 37, Syntax.RT_OFF_BASE, is_load=True, writes_rt=True, klass=CLASS_LOAD),
    _i("sb", 40, Syntax.RT_OFF_BASE, is_store=True, klass=CLASS_STORE),
    _i("sh", 41, Syntax.RT_OFF_BASE, is_store=True, klass=CLASS_STORE),
    _i("sw", 43, Syntax.RT_OFF_BASE, is_store=True, klass=CLASS_STORE),
]

#: mnemonic -> spec, the single source of truth for the instruction set.
SPECS: dict[str, InstrSpec] = {spec.mnemonic: spec for spec in _SPEC_LIST}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded (or to-be-encoded) machine instruction.

    Fields not used by a given format are zero.  ``imm`` always stores the
    *sign-extended* immediate for arithmetic/memory/branch instructions and
    the raw 16-bit value for zero-extended (logical / lui) instructions.
    ``target`` stores the 26-bit jump target field (instruction index).
    """

    mnemonic: str
    rd: int = 0
    rs: int = 0
    rt: int = 0
    shamt: int = 0
    imm: int = 0
    target: int = 0

    @property
    def spec(self) -> InstrSpec:
        return SPECS[self.mnemonic]

    @property
    def dest(self) -> int | None:
        """Destination register number, or None if the instruction writes none."""
        spec = self.spec
        if spec.writes_rd:
            return self.rd
        if spec.writes_rt:
            return self.rt
        if self.mnemonic == "jal":
            return 31
        return None

    def branch_target(self, pc: int) -> int:
        """Absolute address targeted by this branch when sitting at *pc*."""
        if not self.spec.is_branch:
            raise ValueError(f"{self.mnemonic} is not a branch")
        return pc + 4 + (sign_extend(self.imm, 16) << 2)

    def jump_target(self, pc: int) -> int:
        """Absolute address targeted by this j/jal when sitting at *pc*."""
        if self.mnemonic not in ("j", "jal"):
            raise ValueError(f"{self.mnemonic} has no absolute jump target")
        return ((pc + 4) & 0xF000_0000) | (self.target << 2)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return render(self)


def nop() -> Instruction:
    """The canonical MIPS no-op (sll $zero, $zero, 0)."""
    return Instruction("sll", rd=0, rt=0, shamt=0)


def render(instr: Instruction, pc: int | None = None) -> str:
    """Render *instr* as assembly text.

    When *pc* is given, branch/jump targets are rendered as absolute hex
    addresses; otherwise raw offsets/targets are shown.
    """
    syntax = instr.spec.syntax
    items = []
    for name in syntax.value.split(", "):
        if name == "off(base)":
            items += (instr.imm, instr.rs)
        elif name == "label":
            items.append(instr.imm if pc is None else f"0x{instr.branch_target(pc):x}")
        elif name == "target":
            items.append(instr.target if pc is None else f"0x{instr.jump_target(pc):x}")
        elif name:
            items.append(getattr(instr, name))
    return f"{instr.mnemonic} {render_operands(SYNTAX_SHAPE[syntax], items)}".strip()
