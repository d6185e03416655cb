"""Three-address intermediate representation for the mini-C compiler.

A function is a *linear* list of instructions containing labels and explicit
control transfers; basic-block views are built on demand (:func:`build_cfg`).
Optimization passes rewrite the linear list, which keeps every pass simple
and auditable.

Operands are virtual registers (:class:`VReg`) or -- on the right-hand side
of selected operations after immediate folding -- literal :class:`Imm`
values that the code generator maps onto MIPS I-format immediates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# operands
# ---------------------------------------------------------------------------


class VReg(int):
    """A virtual register.  ``hint`` is a debug name (variable it came from).

    :meth:`Function.new_vreg` makes exactly one object per id, so equality
    is identity and the hash is the id: set order does not depend on the
    hash seed or on object addresses.  The id is the ``int`` value, so the
    hash is ``int``'s own, computed in C -- the passes hash registers
    about a million times per benchmark sweep.  Only the hash and the
    value come from ``int``: equality is identity (``VReg(3) != 3`` and
    two registers with one id differ), every register is true, and no
    arithmetic may be done on one.
    """

    def __new__(cls, id: int, hint: str = "") -> "VReg":
        reg = int.__new__(cls, id)
        if hint:
            reg.hint = hint
        return reg

    #: the empty hint, unless ``__new__`` stored one on the instance
    hint = ""

    __hash__ = int.__hash__

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    def __bool__(self) -> bool:
        return True

    @property
    def id(self) -> int:
        return int(self)

    def __repr__(self) -> str:
        return f"VReg(id={int(self)}, hint={self.hint!r})"

    def __str__(self) -> str:
        return f"%{int(self)}" + (f"({self.hint})" if self.hint else "")


@dataclass(frozen=True)
class Imm:
    """A literal immediate operand (introduced by immediate folding)."""

    value: int

    def __str__(self) -> str:
        return f"#{self.value}"


Operand = VReg | Imm


@dataclass
class StackSlot:
    """One slot in the function's frame (local variable, array, or spill)."""

    index: int
    size: int
    name: str = ""
    is_array: bool = False
    address_taken: bool = False
    #: filled by the frame layouter in codegen
    offset: int = -1

    def __str__(self) -> str:
        return f"slot{self.index}({self.name or '?'}:{self.size})"


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------

COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "eq", "ne"})


@dataclass
class Instr:
    """Base class.  Subclasses that define a register define ``defs()``;
    what every class reads is :func:`reads`."""

    def defs(self) -> list[VReg]:
        return []

    def uses(self) -> list[VReg]:
        return list(reads(self))

    def replace_uses(self, mapping: dict[VReg, Operand]) -> None:
        """Substitute used vregs per *mapping* (Imm only where legal)."""


def _sub(operand: Operand, mapping: dict[VReg, Operand]) -> Operand:
    if isinstance(operand, VReg) and operand in mapping:
        return mapping[operand]
    return operand


def _sub_reg(operand: VReg, mapping: dict[VReg, Operand]) -> VReg:
    replacement = mapping.get(operand)
    if isinstance(replacement, VReg):
        return replacement
    return operand


@dataclass
class Const(Instr):
    dst: VReg
    value: int

    def defs(self):
        return [self.dst]

    def __str__(self):
        return f"{self.dst} = const {self.value}"


@dataclass
class Copy(Instr):
    dst: VReg
    src: VReg

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.src = _sub_reg(self.src, mapping)

    def __str__(self):
        return f"{self.dst} = {self.src}"


@dataclass
class UnOp(Instr):
    """op in {'neg', 'not'} (bitwise not); logical-not lowers to eq-zero."""

    dst: VReg
    op: str
    src: VReg

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.src = _sub_reg(self.src, mapping)

    def __str__(self):
        return f"{self.dst} = {self.op} {self.src}"


@dataclass
class BinOp(Instr):
    dst: VReg
    op: str
    a: VReg
    b: Operand

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.a = _sub_reg(self.a, mapping)
        self.b = _sub(self.b, mapping)

    def __str__(self):
        return f"{self.dst} = {self.op} {self.a}, {self.b}"


@dataclass
class Load(Instr):
    """dst = *(base + offset), size in {1,2,4}, sign-extending if signed."""

    dst: VReg
    base: VReg
    offset: int
    size: int = 4
    signed: bool = True

    def defs(self):
        return [self.dst]

    def replace_uses(self, mapping):
        self.base = _sub_reg(self.base, mapping)

    def __str__(self):
        sign = "s" if self.signed else "u"
        return f"{self.dst} = load{self.size}{sign} [{self.base}+{self.offset}]"


@dataclass
class Store(Instr):
    """*(base + offset) = src, size in {1,2,4}."""

    src: VReg
    base: VReg
    offset: int
    size: int = 4

    def replace_uses(self, mapping):
        self.src = _sub_reg(self.src, mapping)
        self.base = _sub_reg(self.base, mapping)

    def __str__(self):
        return f"store{self.size} [{self.base}+{self.offset}] = {self.src}"


@dataclass
class LoadAddr(Instr):
    """dst = &global_symbol + offset."""

    dst: VReg
    symbol: str
    offset: int = 0

    def defs(self):
        return [self.dst]

    def __str__(self):
        return f"{self.dst} = &{self.symbol}+{self.offset}"


@dataclass
class SlotAddr(Instr):
    """dst = address of a stack slot (local array or address-taken local)."""

    dst: VReg
    slot: StackSlot

    def defs(self):
        return [self.dst]

    def __str__(self):
        return f"{self.dst} = &{self.slot}"


@dataclass
class LoadSlot(Instr):
    """dst = 32-bit value of a (scalar) stack slot."""

    dst: VReg
    slot: StackSlot

    def defs(self):
        return [self.dst]

    def __str__(self):
        return f"{self.dst} = {self.slot}"


@dataclass
class StoreSlot(Instr):
    """stack slot = src (32-bit)."""

    src: VReg
    slot: StackSlot

    def replace_uses(self, mapping):
        self.src = _sub_reg(self.src, mapping)

    def __str__(self):
        return f"{self.slot} = {self.src}"


@dataclass
class Label(Instr):
    name: str

    def __str__(self):
        return f"{self.name}:"


@dataclass
class Jump(Instr):
    target: str

    def __str__(self):
        return f"jump {self.target}"


@dataclass
class Branch(Instr):
    """if (a op b) jump target; else fall through."""

    op: str
    a: VReg
    b: Operand
    target: str

    def replace_uses(self, mapping):
        self.a = _sub_reg(self.a, mapping)
        self.b = _sub(self.b, mapping)

    def __str__(self):
        return f"if {self.op} {self.a}, {self.b} jump {self.target}"


@dataclass
class SwitchJump(Instr):
    """Indirect jump through a dense jump table.

    ``index`` has already been normalized to [0, len(labels)) by preceding
    bounds-check code; codegen emits the sll/la/addu/lw/jr sequence and the
    ``.data`` table.  This is the construct that defeats CDFG recovery.
    """

    index: VReg
    labels: list[str]
    table_name: str

    def replace_uses(self, mapping):
        self.index = _sub_reg(self.index, mapping)

    def __str__(self):
        return f"switch {self.index} -> {self.table_name}{self.labels}"


@dataclass
class Call(Instr):
    dst: VReg | None
    name: str
    args: list[VReg] = field(default_factory=list)

    def defs(self):
        return [self.dst] if self.dst is not None else []

    def replace_uses(self, mapping):
        self.args = [_sub_reg(arg, mapping) for arg in self.args]

    def __str__(self):
        prefix = f"{self.dst} = " if self.dst else ""
        return f"{prefix}call {self.name}({', '.join(map(str, self.args))})"


@dataclass
class Return(Instr):
    src: VReg | None = None

    def replace_uses(self, mapping):
        if self.src is not None:
            self.src = _sub_reg(self.src, mapping)

    def __str__(self):
        return f"return {self.src if self.src else ''}".rstrip()


TERMINATORS = (Jump, Branch, SwitchJump, Return)

#: the same classes as a set, for ``type(instr) in TERMINATOR_TYPES`` in hot
#: loops (no IR class is subclassed, so this matches ``isinstance``)
TERMINATOR_TYPES = frozenset(TERMINATORS)

#: instruction types whose one definition is ``dst`` and which have no
#: other effect (a ``Call`` also has a ``dst``, but it may be None)
PURE_DEF_TYPES = frozenset({Const, Copy, UnOp, BinOp, Load, LoadAddr, SlotAddr, LoadSlot})

#: every type that defines a register: its one definition is ``dst``
DEF_TYPES = PURE_DEF_TYPES | {Call}

_READS_NOTHING = frozenset({Const, LoadAddr, SlotAddr, LoadSlot, Label, Jump})
_READS_SRC = frozenset({Copy, UnOp, StoreSlot})


def reads(instr: Instr) -> tuple[VReg, ...]:
    """The registers *instr* reads, in operand order (``uses()``).

    The one place that knows which fields of each class are read
    registers: ``uses()`` and the hot loops of the passes (DCE, copy
    propagation, liveness, live intervals) all go through it.  What a
    class *defines* is its ``dst`` field if it is one of
    :data:`DEF_TYPES` (a ``Call``'s may be None), and nothing otherwise.
    """
    cls = type(instr)
    if cls is BinOp or cls is Branch:
        b = instr.b
        return (instr.a, b) if type(b) is VReg else (instr.a,)
    if cls in _READS_NOTHING:
        return ()
    if cls in _READS_SRC:
        return (instr.src,)
    if cls is Load:
        return (instr.base,)
    if cls is Store:
        return (instr.src, instr.base)
    if cls is Return:
        return () if instr.src is None else (instr.src,)
    if cls is SwitchJump:
        return (instr.index,)
    if cls is Call:
        return tuple(instr.args)
    raise TypeError(f"no operand layout for {cls.__name__}")


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass
class Function:
    name: str
    params: list[VReg]
    instrs: list[Instr] = field(default_factory=list)
    slots: list[StackSlot] = field(default_factory=list)
    returns_value: bool = False
    _next_vreg: int = 0
    _next_label: int = 0

    def new_vreg(self, hint: str = "") -> VReg:
        reg = VReg(self._next_vreg, hint)
        self._next_vreg += 1
        return reg

    def new_label(self, stem: str) -> str:
        name = f".L{self.name}_{stem}_{self._next_label}"
        self._next_label += 1
        return name

    def new_slot(self, size: int, name: str = "", is_array: bool = False) -> StackSlot:
        slot = StackSlot(index=len(self.slots), size=size, name=name, is_array=is_array)
        self.slots.append(slot)
        return slot

    def dump(self) -> str:
        lines = [f"func {self.name}({', '.join(map(str, self.params))}):"]
        for instr in self.instrs:
            indent = "" if isinstance(instr, Label) else "  "
            lines.append(indent + str(instr))
        return "\n".join(lines)


@dataclass
class GlobalVar:
    """A global variable with its initialized words/bytes."""

    name: str
    size: int
    element_size: int = 4
    init_values: list[int] = field(default_factory=list)  # element-sized values

    @property
    def is_array(self) -> bool:
        return self.size > self.element_size


@dataclass
class Module:
    functions: dict[str, Function] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)

    def dump(self) -> str:
        parts = [func.dump() for func in self.functions.values()]
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# CFG view
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Block:
    """A basic block view over a slice of Function.instrs."""

    label: str | None
    instrs: list[Instr]
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)
    index: int = 0


def build_cfg(func: Function) -> list[Block]:
    """Partition *func* into basic blocks and connect the edges."""
    blocks: list[Block] = []
    current: list[Instr] = []
    current_label: str | None = None
    for instr in func.instrs:
        cls = type(instr)
        if cls is Label:
            if current:
                blocks.append(Block(current_label, current))
            current = [instr]
            current_label = instr.name
        else:
            current.append(instr)
            if cls in TERMINATOR_TYPES:
                blocks.append(Block(current_label, current))
                current = []
                current_label = None
    if current:
        blocks.append(Block(current_label, current))

    label_to_block = {
        block.label: index for index, block in enumerate(blocks) if block.label
    }
    last_index = len(blocks) - 1
    for index, block in enumerate(blocks):
        block.index = index
        last = block.instrs[-1]
        cls = type(last)
        if cls is Jump:
            block.succs = [label_to_block[last.target]]
        elif cls is Branch:
            block.succs = [label_to_block[last.target]]
            if index < last_index:
                block.succs.append(index + 1)
        elif cls is SwitchJump:
            block.succs = [label_to_block[name] for name in last.labels]
        elif cls is not Return and index < last_index:
            block.succs = [index + 1]
    for index, block in enumerate(blocks):
        for succ in block.succs:
            blocks[succ].preds.append(index)
    return blocks


def flatten_cfg(blocks: list[Block]) -> list[Instr]:
    """Rebuild the linear instruction list from (possibly edited) blocks."""
    instrs: list[Instr] = []
    for block in blocks:
        instrs.extend(block.instrs)
    return instrs
