"""MIPS code generation from allocated IR.

Emits instruction records (see :mod:`repro.isa.assembler`): register
numbers, integer immediates and label references, never text.
:func:`repro.compiler.compile_source` hands them straight to the
assembler's back end; :func:`repro.compiler.compile_to_asm` renders the
same records as assembly text.  Conventions (matching the paper's
instruction-set-overhead discussion):

* register moves are emitted as ``addiu rd, rs, 0`` -- the arithmetic
  instruction with a zero immediate that the decompiler's constant
  propagation must turn back into a wire,
* constants materialize through ``li`` (addiu/ori/lui+ori),
* dense switches become bounds-checked ``jr``-through-table sequences,
* spill code uses $t8/$t9, comparisons/branches use $at as scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler import ir
from repro.compiler.regalloc import Allocation, allocate
from repro.errors import CompileError
from repro.isa.assembler import Ref
from repro.isa.registers import Reg

_SCRATCH_A = int(Reg.T8)
_SCRATCH_B = int(Reg.T9)
_AT = int(Reg.AT)
_ZERO = int(Reg.ZERO)
_SP = int(Reg.SP)
_V0 = int(Reg.V0)
_RA = int(Reg.RA)
_ARG_REGS = (int(Reg.A0), int(Reg.A1), int(Reg.A2), int(Reg.A3))

#: reg-reg instruction for each IR binary op (simple cases)
_SIMPLE_RR = {
    "add": "addu",
    "sub": "subu",
    "and": "and",
    "or": "or",
    "xor": "xor",
    "shl": "sllv",
    "shr": "srlv",
    "sar": "srav",
}

#: immediate instruction for each IR binary op (operand checked by imm_fold)
_SIMPLE_RI = {
    "add": "addiu",
    "and": "andi",
    "or": "ori",
    "xor": "xori",
    "shl": "sll",
    "shr": "srl",
    "sar": "sra",
    "lt": "slti",
    "ltu": "sltiu",
}

#: each ordering op as a set-on-less-than: (mnemonic, operands swapped,
#: result negated)
_COMPARE = {
    "lt": ("slt", False, False),
    "ltu": ("sltu", False, False),
    "gt": ("slt", True, False),
    "gtu": ("sltu", True, False),
    "le": ("slt", True, True),
    "leu": ("sltu", True, True),
    "ge": ("slt", False, True),
    "geu": ("sltu", False, True),
}

#: a branch on an operand compared with zero: (mnemonic, takes ``$zero``
#: as its second operand); ``ltu`` never branches, ``geu`` always does
_BRANCH_ZERO = {
    "eq": ("beq", True),
    "ne": ("bne", True),
    "gtu": ("bne", True),
    "leu": ("beq", True),
    "lt": ("bltz", False),
    "ge": ("bgez", False),
    "gt": ("bgtz", False),
    "le": ("blez", False),
}


@dataclass
class _FrameLayout:
    spill_base: int
    local_offsets: dict[int, int]  # slot.index -> sp offset
    saved_regs: list[tuple[int, int]]  # (reg number, sp offset)
    ra_offset: int | None
    size: int


class FunctionCodegen:
    def __init__(self, func: ir.Function, allocation: Allocation):
        self.func = func
        self.allocation = allocation
        self.records: list = []
        self.emit = self.records.append
        self.has_calls = any(isinstance(i, ir.Call) for i in func.instrs)
        self.frame = self._layout_frame()
        self.epilogue_label = f".L{func.name}_epilogue"

    # ------------------------------------------------------------------
    # frame layout
    # ------------------------------------------------------------------

    def _layout_frame(self) -> _FrameLayout:
        offset = 0
        spill_base = offset
        offset += 4 * self.allocation.spill_count
        local_offsets: dict[int, int] = {}
        for slot in self.func.slots:
            size = (slot.size + 3) & ~3
            local_offsets[slot.index] = offset
            offset += size
        saved_regs: list[tuple[int, int]] = []
        for reg in self.allocation.used_callee_saved:
            saved_regs.append((reg, offset))
            offset += 4
        ra_offset: int | None = None
        if self.has_calls:
            ra_offset = offset
            offset += 4
        size = (offset + 7) & ~7
        return _FrameLayout(spill_base, local_offsets, saved_regs, ra_offset, size)

    def _spill_offset(self, vreg: ir.VReg) -> int:
        return self.frame.spill_base + 4 * self.allocation.spill_of[vreg]

    # ------------------------------------------------------------------
    # operand helpers
    # ------------------------------------------------------------------

    def _src(self, vreg: ir.VReg, scratch: int) -> int:
        """Return a register holding *vreg*, loading from the frame if spilled."""
        reg = self.allocation.reg_of.get(vreg)
        if reg is not None:
            return reg
        self.emit(("lw", scratch, self._spill_offset(vreg), _SP))
        return scratch

    def _dst(self, vreg: ir.VReg) -> tuple[int, int | None]:
        """Return (register to compute into, spill offset to store to or None)."""
        reg = self.allocation.reg_of.get(vreg)
        if reg is not None:
            return reg, None
        return _SCRATCH_A, self._spill_offset(vreg)

    def _finish_dst(self, reg: int, store_offset: int | None) -> None:
        if store_offset is not None:
            self.emit(("sw", reg, store_offset, _SP))

    # ------------------------------------------------------------------
    # function body
    # ------------------------------------------------------------------

    def generate(self) -> list:
        self.emit(self.func.name)
        self._prologue()
        for instr in self.func.instrs:
            self._gen_instr(instr)
        self._epilogue()
        return self.records

    def _prologue(self) -> None:
        frame = self.frame
        emit = self.emit
        if frame.size:
            emit(("addiu", _SP, _SP, -frame.size))
        if frame.ra_offset is not None:
            emit(("sw", _RA, frame.ra_offset, _SP))
        for reg, offset in frame.saved_regs:
            emit(("sw", reg, offset, _SP))
        for index, param in enumerate(self.func.params):
            reg = self.allocation.reg_of.get(param)
            if reg is not None:
                emit(("addiu", reg, _ARG_REGS[index], 0))
            elif param in self.allocation.spill_of:
                emit(("sw", _ARG_REGS[index], self._spill_offset(param), _SP))
            # else: parameter never used; no move needed

    def _epilogue(self) -> None:
        frame = self.frame
        emit = self.emit
        emit(self.epilogue_label)
        if frame.ra_offset is not None:
            emit(("lw", _RA, frame.ra_offset, _SP))
        for reg, offset in frame.saved_regs:
            emit(("lw", reg, offset, _SP))
        if frame.size:
            emit(("addiu", _SP, _SP, frame.size))
        emit(("jr", _RA))

    # ------------------------------------------------------------------
    # per-instruction emission
    # ------------------------------------------------------------------

    def _gen_instr(self, instr: ir.Instr) -> None:
        emit = self.emit
        if isinstance(instr, ir.Label):
            emit(instr.name)
        elif isinstance(instr, ir.Const):
            reg, store = self._dst(instr.dst)
            emit(("li", reg, instr.value & 0xFFFF_FFFF))
            self._finish_dst(reg, store)
        elif isinstance(instr, ir.Copy):
            src = self._src(instr.src, _SCRATCH_B)
            reg, store = self._dst(instr.dst)
            emit(("addiu", reg, src, 0))
            self._finish_dst(reg, store)
        elif isinstance(instr, ir.UnOp):
            self._gen_unop(instr)
        elif isinstance(instr, ir.BinOp):
            self._gen_binop(instr)
        elif isinstance(instr, ir.Load):
            self._gen_load(instr)
        elif isinstance(instr, ir.Store):
            self._gen_store(instr)
        elif isinstance(instr, ir.LoadAddr):
            reg, store = self._dst(instr.dst)
            emit(("la", reg, Ref(instr.symbol, instr.offset)))
            self._finish_dst(reg, store)
        elif isinstance(instr, ir.SlotAddr):
            reg, store = self._dst(instr.dst)
            emit(("addiu", reg, _SP, self.frame.local_offsets[instr.slot.index]))
            self._finish_dst(reg, store)
        elif isinstance(instr, ir.LoadSlot):
            reg, store = self._dst(instr.dst)
            emit(("lw", reg, self.frame.local_offsets[instr.slot.index], _SP))
            self._finish_dst(reg, store)
        elif isinstance(instr, ir.StoreSlot):
            src = self._src(instr.src, _SCRATCH_A)
            emit(("sw", src, self.frame.local_offsets[instr.slot.index], _SP))
        elif isinstance(instr, ir.Jump):
            emit(("j", Ref(instr.target)))
        elif isinstance(instr, ir.Branch):
            self._gen_branch(instr)
        elif isinstance(instr, ir.SwitchJump):
            self._gen_switch(instr)
        elif isinstance(instr, ir.Call):
            self._gen_call(instr)
        elif isinstance(instr, ir.Return):
            if instr.src is not None:
                reg = self.allocation.reg_of.get(instr.src)
                if reg is not None:
                    emit(("addiu", _V0, reg, 0))
                else:
                    emit(("lw", _V0, self._spill_offset(instr.src), _SP))
            emit(("j", Ref(self.epilogue_label)))
        else:  # pragma: no cover
            raise CompileError(f"codegen cannot handle {type(instr).__name__}")

    def _gen_unop(self, instr: ir.UnOp) -> None:
        src = self._src(instr.src, _SCRATCH_B)
        reg, store = self._dst(instr.dst)
        if instr.op == "neg":
            self.emit(("subu", reg, _ZERO, src))
        elif instr.op == "not":
            self.emit(("nor", reg, src, _ZERO))
        else:  # pragma: no cover
            raise CompileError(f"unknown unary op {instr.op}")
        self._finish_dst(reg, store)

    def _gen_binop(self, instr: ir.BinOp) -> None:
        a = self._src(instr.a, _SCRATCH_A)
        if isinstance(instr.b, ir.Imm):
            self._gen_binop_imm(instr, a, instr.b.value)
            return
        b = self._src(instr.b, _SCRATCH_B)
        reg, store = self._dst(instr.dst)
        self._emit_rr(instr.op, reg, a, b)
        self._finish_dst(reg, store)

    def _gen_binop_imm(self, instr: ir.BinOp, a: int, value: int) -> None:
        op = instr.op
        emit = self.emit
        reg, store = self._dst(instr.dst)
        if op == "sub":
            emit(("addiu", reg, a, -value))
        elif op in _SIMPLE_RI:
            emit((_SIMPLE_RI[op], reg, a, value))
        elif op == "eq" or op == "ne":
            if value == 0:
                diff = a
            elif 0 < value <= 0xFFFF:
                emit(("xori", _AT, a, value))
                diff = _AT
            else:
                emit(("li", _AT, value & 0xFFFF_FFFF))
                emit(("subu", _AT, a, _AT))
                diff = _AT
            if op == "eq":
                emit(("sltiu", reg, diff, 1))
            else:
                emit(("sltu", reg, _ZERO, diff))
        else:  # materialize and fall back to the register path
            emit(("li", _AT, value & 0xFFFF_FFFF))
            self._emit_rr(op, reg, a, _AT)
        self._finish_dst(reg, store)

    def _emit_rr(self, op: str, reg: int, a: int, b: int) -> None:
        """Register-register emission of IR op *op* into *reg*."""
        emit = self.emit
        if op in _SIMPLE_RR:
            emit((_SIMPLE_RR[op], reg, a, b))
        elif op in _COMPARE:
            mnemonic, swapped, negated = _COMPARE[op]
            emit((mnemonic, reg, b, a) if swapped else (mnemonic, reg, a, b))
            if negated:
                emit(("xori", reg, reg, 1))
        elif op == "mul":
            emit(("mult", a, b))
            emit(("mflo", reg))
        elif op in ("div", "divu"):
            emit((op, a, b))
            emit(("mflo", reg))
        elif op in ("rem", "remu"):
            emit(("div" if op == "rem" else "divu", a, b))
            emit(("mfhi", reg))
        elif op == "eq":
            emit(("subu", _AT, a, b))
            emit(("sltiu", reg, _AT, 1))
        elif op == "ne":
            emit(("subu", _AT, a, b))
            emit(("sltu", reg, _ZERO, _AT))
        else:  # pragma: no cover
            raise CompileError(f"unknown binary op {op}")

    _LOAD_MNEMONIC = {
        (1, True): "lb",
        (1, False): "lbu",
        (2, True): "lh",
        (2, False): "lhu",
        (4, True): "lw",
        (4, False): "lw",
    }
    _STORE_MNEMONIC = {1: "sb", 2: "sh", 4: "sw"}

    def _gen_load(self, instr: ir.Load) -> None:
        base = self._src(instr.base, _SCRATCH_A)
        reg, store = self._dst(instr.dst)
        mnemonic = self._LOAD_MNEMONIC[(instr.size, instr.signed)]
        self.emit((mnemonic, reg, instr.offset, base))
        self._finish_dst(reg, store)

    def _gen_store(self, instr: ir.Store) -> None:
        src = self._src(instr.src, _SCRATCH_A)
        base = self._src(instr.base, _SCRATCH_B)
        self.emit((self._STORE_MNEMONIC[instr.size], src, instr.offset, base))

    def _gen_branch(self, instr: ir.Branch) -> None:
        op = instr.op
        emit = self.emit
        a = self._src(instr.a, _SCRATCH_A)
        target = Ref(instr.target)
        if isinstance(instr.b, ir.Imm):
            value = instr.b.value
            if value == 0:
                if op == "geu":  # always true
                    emit(("j", target))
                elif op != "ltu":  # ltu: never true
                    mnemonic, with_zero = _BRANCH_ZERO[op]
                    emit((mnemonic, a, _ZERO, target) if with_zero else (mnemonic, a, target))
                return
            emit(("li", _AT, value & 0xFFFF_FFFF))
            b = _AT
        else:
            b = self._src(instr.b, _SCRATCH_B)
        if op == "eq":
            emit(("beq", a, b, target))
        elif op == "ne":
            emit(("bne", a, b, target))
        elif op in _COMPARE:
            mnemonic, swapped, negated = _COMPARE[op]
            emit((mnemonic, _AT, b, a) if swapped else (mnemonic, _AT, a, b))
            emit(("beq" if negated else "bne", _AT, _ZERO, target))
        else:  # pragma: no cover
            raise CompileError(f"unknown branch op {op}")

    def _gen_switch(self, instr: ir.SwitchJump) -> None:
        index = self._src(instr.index, _SCRATCH_A)
        emit = self.emit
        emit(("sll", _AT, index, 2))
        emit(("la", _SCRATCH_B, Ref(instr.table_name)))
        emit(("addu", _SCRATCH_B, _SCRATCH_B, _AT))
        emit(("lw", _SCRATCH_B, 0, _SCRATCH_B))
        emit(("jr", _SCRATCH_B))

    def _gen_call(self, instr: ir.Call) -> None:
        emit = self.emit
        for index, arg in enumerate(instr.args):
            reg = self.allocation.reg_of.get(arg)
            if reg is not None:
                emit(("addiu", _ARG_REGS[index], reg, 0))
            else:
                emit(("lw", _ARG_REGS[index], self._spill_offset(arg), _SP))
        emit(("jal", Ref(instr.name)))
        if instr.dst is not None:
            reg = self.allocation.reg_of.get(instr.dst)
            if reg is not None:
                emit(("addiu", reg, _V0, 0))
            elif instr.dst in self.allocation.spill_of:
                emit(("sw", _V0, self._spill_offset(instr.dst), _SP))
            # else: result unused and register never allocated


def generate_records(
    module: ir.Module,
    jump_tables: dict[str, list[tuple[str, list[str]]]],
) -> list:
    """Generate a complete program's records (text + data + jump tables)."""
    records: list = [(".text",), "_start", ("jal", Ref("main")), ("break",)]
    for func in module.functions.values():
        records += FunctionCodegen(func, allocate(func)).generate()

    records.append((".data",))
    for var in module.globals.values():
        if var.element_size == 4:
            records.append((".align", 2))
            directive = ".word"
        elif var.element_size == 2:
            records.append((".align", 1))
            directive = ".half"
        else:
            directive = ".byte"
        mask = (1 << (8 * var.element_size)) - 1
        records.append(var.name)
        records.append((directive, *(v & mask for v in var.init_values)))
    for tables in jump_tables.values():
        for table_name, labels in tables:
            records += [(".align", 2), table_name, (".word", *map(Ref, labels))]
    return records
