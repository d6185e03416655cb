"""Code generation for superblock units: blocks and j-chains.

Every generated function mirrors the threaded executor closures exactly
-- same masking, same "writes to $zero are dropped but their memory
reads still happen" rule, same link-before-read ``jalr`` semantics --
because three copies of the ISA semantics coexist (reference
interpreter, threaded closures, these templates) and the differential
suite requires bit-identical statistics from all of them.

Key pieces:

* **Block-local register JIT** (:class:`_BlockEnv`).  Within one unit,
  registers touched more than once are shadowed by Python locals
  (``x9`` for ``$9``) with *deferred write-back*: loads of ``R[n]`` are
  emitted lazily at first read, stores are batched and flushed only at
  the points where the architectural file is observable -- before any
  statement that can raise (memory accesses, the ``jr``/``jalr`` target
  check, ``break``/``syscall``) and at unit exit.  Dead intermediate
  writes therefore never touch ``R`` at all.  On top of that the
  generator propagates literals: reads of ``$zero`` fold to ``0``,
  ``lui``/``ori``/``addiu`` constants fold into the consuming
  expressions, and fully-constant ALU results are computed at
  generation time.  The folds rely on the canonical-u32 invariant:
  every value stored in ``R`` is already masked to 32 bits, so
  ``x & 0xFFFFFFFF`` is the identity on register reads.
* **Multi-segment units** (:meth:`Codegen.emit_unit`).  A unit is a
  list of ``(start, length)`` block segments emitted back to back; a
  non-final segment must end in an unconditional ``j``/``jal`` whose
  static target starts the next segment (j-chain fusion), so the fused
  jump costs a link write at most -- no dispatch, no flush.  The
  register JIT spans the whole chain.

* **Inline memory windows** (:meth:`Codegen.load`, :meth:`Codegen.store`).
  ``lw``/``sw``/``lbu``/``sb`` index the ``Cpu``'s flat windows (see
  :mod:`repro.sim.memory`) instead of calling ``Memory``.  The window is
  picked at generation time from the base register: ``$sp``/``$fp`` use
  the stack window, every other register the data window.  One masked
  test per access rejects negative, out-of-range and (for words)
  misaligned offsets at once; for a window of ``L`` bytes at ``base``::

      x = W[_o >> 2] if not (_o := reg + (imm - base)) & (-L | 3) else r32(_o + base)

  The fallback is the ``Memory`` accessor, which masks the address to 32
  bits, keeps the sparse semantics and raises ``MemoryFault``.  An
  in-window hit never needs the mask, because each window lies inside
  the 32-bit space.  A literal address folds to a direct index, or to
  the plain call when it lies outside the window.  The word views use
  native byte order, which ``Cpu`` checks is little-endian.
  ``lb``/``lh``/``lhu``/``sh`` keep their calls.

Generated code uses short names bound once per ``Cpu``: ``R`` registers,
``T`` per-site branch-taken counters, ``BC`` per-unit entry counters,
``HL`` hi/lo, ``DE`` dynamic-edge dict, ``r8``..``w32`` memory
accessors, ``SW``/``SB`` and ``DW``/``DB`` the word and byte views of the
stack and data windows, ``Halt``/``Err`` the exception types.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import SimulationError
from repro.sim.superblock.leaders import BRANCHES, CONTROL_TRANSFERS

__all__ = ["FACTORY", "Codegen"]

#: the shared factory header every generated module starts with; binds
#: the per-Cpu namespace (``SuperblockTable._ns``) once per compile
FACTORY = ("def _factory(R, T, BC, HL, DE, r8, r16, r32, "
           "w8, w16, w32, SW, SB, DW, DB, Halt, Err):")

#: halfword accessors raise MemoryFault on a misaligned address, so the
#: register file must be architecturally exact before each of these
#: executes.  Byte accesses cannot fault and need no flush; words flush in
#: :meth:`Codegen.load`/:meth:`Codegen.store` unless their address is a
#: literal inside a window
_FLUSH_FIRST = frozenset(("lh", "lhu", "sh"))

_MASK = 0xFFFF_FFFF
_M = "4294967295"  # 0xFFFF_FFFF as a source literal


def _s32(value: int) -> int:
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


# -- register use analysis (for block-local caching) ------------------------

_READS_RS = frozenset((
    "addiu", "addi", "slti", "sltiu", "andi", "ori", "xori",
    "lw", "lb", "lbu", "lh", "lhu", "sw", "sb", "sh",
    "addu", "add", "subu", "sub", "and", "or", "xor", "nor", "slt", "sltu",
    "sllv", "srlv", "srav", "mult", "multu", "div", "divu", "mthi", "mtlo",
    "beq", "bne", "blez", "bgtz", "bltz", "bgez", "jr", "jalr",
))
_READS_RT = frozenset((
    "sw", "sb", "sh",
    "addu", "add", "subu", "sub", "and", "or", "xor", "nor", "slt", "sltu",
    "sll", "srl", "sra", "sllv", "srlv", "srav",
    "mult", "multu", "div", "divu", "beq", "bne",
))
_WRITES_RT = frozenset((
    "addiu", "addi", "slti", "sltiu", "andi", "ori", "xori", "lui",
    "lw", "lb", "lbu", "lh", "lhu",
))
_WRITES_RD = frozenset((
    "addu", "add", "subu", "sub", "and", "or", "xor", "nor", "slt", "sltu",
    "sll", "srl", "sra", "sllv", "srlv", "srav", "mfhi", "mflo", "jalr",
))


def _read_regs(instr) -> list[int]:
    """Registers *instr* reads, ``$zero`` excluded (it folds to literal 0)."""
    m = instr.mnemonic
    regs = []
    if m in _READS_RS and instr.rs:
        regs.append(instr.rs)
    if m in _READS_RT and instr.rt:
        regs.append(instr.rt)
    return regs


def _written_reg(instr) -> int:
    """Register *instr* writes, or 0 for none (writes to $zero are dropped)."""
    m = instr.mnemonic
    if m in _WRITES_RT:
        return instr.rt
    if m in _WRITES_RD:
        return instr.rd
    if m == "jal":
        return 31
    return 0


class _BlockEnv:
    """Register-file state during code generation of one unit.

    Tracks, per architectural register: whether it is shadowed by a unit
    local, whether its value is a known literal, and whether ``R`` is
    stale (a deferred write-back is pending).  ``read``/``write`` return
    and consume source fragments; ``flush`` emits the deferred stores.
    """

    def __init__(self, cached: set[int]) -> None:
        self.cached = cached
        self.known: dict[int, int] = {}  # reg -> literal value when known
        self.loaded: set[int] = set()    # cached regs live as x{reg} locals
        self.dirty: set[int] = set()     # cached regs with R[] write-back pending
        self.pending: list[str] = []     # lazy loads owed before the next stmt

    def read(self, reg: int) -> tuple[str, int | None]:
        """(source expression, literal value or None) for *reg*'s value."""
        if reg == 0:
            return "0", 0
        value = self.known.get(reg)
        if value is not None:
            return str(value), value
        if reg in self.cached:
            if reg not in self.loaded:
                self.pending.append(f"x{reg} = R[{reg}]")
                self.loaded.add(reg)
            return f"x{reg}", None
        return f"R[{reg}]", None

    def write(self, reg: int, expr: str | None, value: int | None = None) -> list[str]:
        """Statements realizing a write of *expr* (or literal *value*)."""
        if reg in self.cached:
            self.dirty.add(reg)
            if value is not None:
                self.known[reg] = value
                self.loaded.discard(reg)  # the literal supersedes the local
                return []
            self.known.pop(reg, None)
            self.loaded.add(reg)
            return [f"x{reg} = {expr}"]
        self.known.pop(reg, None)
        if value is not None:
            self.known[reg] = value
            return [f"R[{reg}] = {value}"]
        return [f"R[{reg}] = {expr}"]

    def take_pending(self) -> list[str]:
        lines = self.pending
        self.pending = []
        return lines

    def flush(self) -> list[str]:
        """Deferred write-backs, making ``R`` architecturally exact."""
        lines = []
        for reg in sorted(self.dirty):
            value = self.known.get(reg)
            source = str(value) if value is not None else f"x{reg}"
            lines.append(f"R[{reg}] = {source}")
        self.dirty.clear()
        return lines


class Codegen:
    """Stateless-per-unit emitter shared by blocks and chains."""

    def __init__(self, decoded, text_base: int, text_len: int,
                 profile: bool, escape_slots: dict[int, int],
                 stack: tuple[int, int], data: tuple[int, int] | None) -> None:
        self.decoded = decoded
        self.text_base = text_base
        self.text_len = text_len
        self.profile = profile
        self.escape_slots = escape_slots
        #: (base, size, word view name, byte view name) of each window
        self.stack = (*stack, "SW", "SB")
        self.data = (*data, "DW", "DB") if data is not None else None
        #: emission volume, read by the telemetry layer at run end
        self.units_emitted = 0
        self.lines_emitted = 0

    # -- whole units ---------------------------------------------------------

    def cache_env(self, segments) -> _BlockEnv:
        """A :class:`_BlockEnv` caching registers the unit touches twice.

        Single-touch registers go straight to ``R`` (same cost); the
        touch count spans *all* segments, so chain fusion widens the
        caching window across the fused blocks.
        """
        decoded = self.decoded
        touches: Counter = Counter()
        for start, length in segments:
            for instr in decoded[start:start + length]:
                for reg in _read_regs(instr):
                    touches[reg] += 1
                target = _written_reg(instr)
                if target:
                    touches[target] += 1
        return _BlockEnv({reg for reg, n in touches.items() if n >= 2})

    def emit_unit(self, name: str, segments, bid: int, indent: str) -> list[str]:
        """One generated function covering *segments* back to back.

        A single-element segment list is a plain superblock; multiple
        segments form a j-chain whose non-final segments end in an
        unconditional ``j``/``jal`` to the next segment's start (the
        jump is fused away, ``jal`` keeps its link write).  One ``BC``
        bump covers the whole unit; the fold expands it over every
        member instruction.
        """
        decoded = self.decoded
        env = self.cache_env(segments)
        lines = [f"{indent}def {name}():", f"{indent}    BC[{bid}] += 1"]
        body = indent + "    "
        last_seg = len(segments) - 1
        for seg_no, (start, length) in enumerate(segments):
            for offset in range(length):
                index = start + offset
                instr = decoded[index]
                m = instr.mnemonic
                if m in CONTROL_TRANSFERS:
                    if seg_no == last_seg:
                        stmts = self.terminator(instr, index, env)
                    else:
                        # fused unconditional jump: no dispatch, no flush;
                        # jal still owes its (deferrable) link write
                        stmts = []
                        if m == "jal":
                            pc = self.text_base + (index << 2)
                            stmts = env.write(31, None, pc + 4)
                else:
                    # flush *before* emitting a faulting instruction, so
                    # the write-backs cover only the instructions already
                    # executed (this instruction's own write must not be
                    # flushed yet)
                    flush = env.flush() if m in _FLUSH_FIRST else []
                    emitted = self.straightline(instr, env)
                    stmts = env.take_pending() + flush + emitted
                lines.extend(body + stmt for stmt in stmts)
        final_start, final_len = segments[-1]
        if decoded[final_start + final_len - 1].mnemonic not in CONTROL_TRANSFERS:
            lines.extend(body + stmt for stmt in env.flush())
            lines.append(f"{body}return {final_start + final_len}")
        self.units_emitted += 1
        self.lines_emitted += len(lines)
        return lines

    # -- pieces --------------------------------------------------------------

    def addr(self, env: _BlockEnv, rs: int, imm: int) -> str:
        """Effective-address expression ``(R[rs] + imm) & M``, folded."""
        base, value = env.read(rs)
        if value is not None:
            return str((value + imm) & _MASK)
        if imm == 0:
            return base
        return f"({base} + {imm}) & {_M}"

    def load(self, instr, env: _BlockEnv, word: bool) -> list[str]:
        """Statements for an ``lw`` (*word*) or ``lbu``."""
        rs, rt, imm = instr.rs, instr.rt, instr.imm
        call = "r32" if word else "r8"
        window = self.stack if rs in (29, 30) else self.data
        reg, value = env.read(rs)
        if window is None:
            loaded = f"{call}({self.addr(env, rs, imm)})"
        elif value is None:
            base, size, words, bytes_ = window
            view = f"{words}[_o >> 2]" if word else f"{bytes_}[_o]"
            loaded = (f"{view} if not (_o := {reg} + {imm - base}) & "
                      f"{-size | 3 if word else -size} else {call}(_o + {base})")
        else:
            base, size, words, bytes_ = window
            address = (value + imm) & _MASK
            offset = address - base
            if 0 <= offset < size and not (word and offset & 3):
                # a literal address inside the window cannot fault: no flush
                view = f"{words}[{offset >> 2}]" if word else f"{bytes_}[{offset}]"
                return env.write(rt, view) if rt else []
            loaded = f"{call}({address})"
        flush = env.flush() if word else []
        return flush + (env.write(rt, loaded) if rt else [loaded])

    def store(self, instr, env: _BlockEnv, word: bool) -> list[str]:
        """Statements for an ``sw`` (*word*) or ``sb``."""
        rs, imm = instr.rs, instr.imm
        call = "w32" if word else "w8"
        window = self.stack if rs in (29, 30) else self.data
        reg, address = env.read(rs)
        source, value = env.read(instr.rt)
        if window is not None:
            base, size, words, bytes_ = window
            if word:
                stored = source
            else:
                stored = str(value & 255) if value is not None else f"{source} & 255"
            if address is None:
                view = f"{words}[_o >> 2]" if word else f"{bytes_}[_o]"
                return (env.flush() if word else []) + [
                    f"if not (_o := {reg} + {imm - base}) & "
                    f"{-size | 3 if word else -size}:",
                    f"    {view} = {stored}",
                    "else:",
                    f"    {call}(_o + {base}, {source})",
                ]
            offset = ((address + imm) & _MASK) - base
            if 0 <= offset < size and not (word and offset & 3):
                view = f"{words}[{offset >> 2}]" if word else f"{bytes_}[{offset}]"
                return [f"{view} = {stored}"]
        flush = env.flush() if word else []
        return flush + [f"{call}({self.addr(env, rs, imm)}, {source})"]

    def branch_condition(self, instr, env: _BlockEnv) -> tuple[list[str], str]:
        """(prelude lines, taken condition) for a branch.

        Constant operands fold to literal ``True``/``False`` conditions;
        the ``blez``/``bgtz`` forms bind a ``_v`` prelude because their
        condition reads the value twice.
        """
        m = instr.mnemonic
        a, av = env.read(instr.rs)
        if m == "beq" or m == "bne":
            b, bv = env.read(instr.rt)
            if av is not None and bv is not None:
                return [], str(av == bv if m == "beq" else av != bv)
            return [], f"{a} == {b}" if m == "beq" else f"{a} != {b}"
        if av is not None:
            signed = _s32(av)
            return [], str({
                "blez": signed <= 0, "bgtz": signed > 0,
                "bltz": signed < 0, "bgez": signed >= 0,
            }[m])
        if m == "blez":
            return [f"_v = {a}"], "_v == 0 or _v & 0x80000000"
        if m == "bgtz":
            return [f"_v = {a}"], "_v != 0 and not _v & 0x80000000"
        if m == "bltz":
            return [], f"{a} & 0x80000000"
        # bgez
        return [], f"not {a} & 0x80000000"

    def straightline(self, instr, env: _BlockEnv) -> list[str]:
        """Statements for one non-control-transfer instruction.

        Returns relative-indented source lines; lazy register loads
        accumulate in ``env.pending``.
        """
        m = instr.mnemonic
        rs, rt, rd = instr.rs, instr.rt, instr.rd
        shamt, imm = instr.shamt, instr.imm

        if m == "addiu" or m == "addi":
            if not rt:
                return []
            a, av = env.read(rs)
            if av is not None:
                return env.write(rt, None, (av + imm) & _MASK)
            if imm == 0:
                return env.write(rt, a)
            return env.write(rt, f"({a} + {imm}) & {_M}")
        if m == "lw" or m == "lbu":
            return self.load(instr, env, m == "lw")
        if m == "sw" or m == "sb":
            return self.store(instr, env, m == "sw")
        if m in ("addu", "add", "subu", "sub", "and", "or", "xor", "nor",
                 "slt", "sltu"):
            if not rd:
                return []
            a, av = env.read(rs)
            b, bv = env.read(rt)
            both = av is not None and bv is not None
            if m == "addu" or m == "add":
                if both:
                    return env.write(rd, None, (av + bv) & _MASK)
                if av == 0:
                    return env.write(rd, b, bv)
                if bv == 0:
                    return env.write(rd, a, av)
                return env.write(rd, f"({a} + {b}) & {_M}")
            if m == "subu" or m == "sub":
                if both:
                    return env.write(rd, None, (av - bv) & _MASK)
                if bv == 0:
                    return env.write(rd, a, av)
                return env.write(rd, f"({a} - {b}) & {_M}")
            if m == "and":
                if both:
                    return env.write(rd, None, av & bv)
                if av == 0 or bv == 0:
                    return env.write(rd, None, 0)
                return env.write(rd, f"{a} & {b}")
            if m == "or":
                if both:
                    return env.write(rd, None, av | bv)
                if av == 0:
                    return env.write(rd, b, bv)
                if bv == 0:
                    return env.write(rd, a, av)
                return env.write(rd, f"{a} | {b}")
            if m == "xor":
                if both:
                    return env.write(rd, None, av ^ bv)
                if av == 0:
                    return env.write(rd, b, bv)
                if bv == 0:
                    return env.write(rd, a, av)
                return env.write(rd, f"{a} ^ {b}")
            if m == "nor":
                if both:
                    return env.write(rd, None, ~(av | bv) & _MASK)
                if av == 0:
                    return env.write(rd, f"~{b} & {_M}")
                if bv == 0:
                    return env.write(rd, f"~{a} & {_M}")
                return env.write(rd, f"~({a} | {b}) & {_M}")
            if m == "slt":
                if both:
                    return env.write(rd, None, int(_s32(av) < _s32(bv)))
                if bv == 0:
                    # signed(a) < 0  <=>  sign bit set
                    return env.write(rd, f"1 if {a} & 0x80000000 else 0")
                if av == 0:
                    # 0 < signed(b)  <=>  b in (0, 2^31)
                    return env.write(rd, f"1 if 0 < {b} < 0x80000000 else 0")
                if bv is not None:
                    # signed compare against a constant: one statement
                    # (register reads are side-effect-free, so the
                    # duplicated operand is safe)
                    return env.write(rd, f"1 if ({a} - 0x100000000 if "
                                         f"{a} & 0x80000000 else {a}) < {_s32(bv)} else 0")
                if av is not None:
                    return env.write(rd, f"1 if {_s32(av)} < ({b} - 0x100000000 if "
                                         f"{b} & 0x80000000 else {b}) else 0")
                return [
                    f"_a = {a}",
                    "if _a & 0x80000000:",
                    "    _a -= 0x100000000",
                    f"_b = {b}",
                    "if _b & 0x80000000:",
                    "    _b -= 0x100000000",
                ] + env.write(rd, "1 if _a < _b else 0")
            # sltu
            if both:
                return env.write(rd, None, int(av < bv))
            if bv == 0:
                return env.write(rd, None, 0)
            if av == 0:
                return env.write(rd, f"1 if {b} else 0")
            return env.write(rd, f"1 if {a} < {b} else 0")
        if m in ("sll", "srl", "sra", "sllv", "srlv", "srav"):
            if not rd:
                return []  # includes the canonical nop
            b, bv = env.read(rt)
            if m in ("sll", "srl", "sra"):
                if shamt == 0:
                    return env.write(rd, b, bv)
                if m == "sll":
                    if bv is not None:
                        return env.write(rd, None, (bv << shamt) & _MASK)
                    return env.write(rd, f"({b} << {shamt}) & {_M}")
                if m == "srl":
                    if bv is not None:
                        return env.write(rd, None, bv >> shamt)
                    return env.write(rd, f"{b} >> {shamt}")
                # sra
                if bv is not None:
                    return env.write(rd, None, (_s32(bv) >> shamt) & _MASK)
                return [
                    f"_v = {b}",
                    "if _v & 0x80000000:",
                    "    _v -= 0x100000000",
                ] + env.write(rd, f"(_v >> {shamt}) & {_M}")
            a, av = env.read(rs)
            if m == "sllv":
                if av is not None and bv is not None:
                    return env.write(rd, None, (bv << (av & 31)) & _MASK)
                return env.write(rd, f"({b} << ({a} & 31)) & {_M}")
            if m == "srlv":
                if av is not None and bv is not None:
                    return env.write(rd, None, bv >> (av & 31))
                return env.write(rd, f"{b} >> ({a} & 31)")
            # srav
            if av is not None and bv is not None:
                return env.write(rd, None, (_s32(bv) >> (av & 31)) & _MASK)
            return [
                f"_v = {b}",
                "if _v & 0x80000000:",
                "    _v -= 0x100000000",
            ] + env.write(rd, f"(_v >> ({a} & 31)) & {_M}")
        if m in ("slti", "sltiu", "andi", "ori", "xori", "lui"):
            if not rt:
                return []
            if m == "lui":
                return env.write(rt, None, (imm << 16) & _MASK)
            a, av = env.read(rs)
            if m == "slti":
                if av is not None:
                    return env.write(rt, None, int(_s32(av) < imm))
                return env.write(rt, f"1 if ({a} - 0x100000000 if "
                                     f"{a} & 0x80000000 else {a}) < {imm} else 0")
            if m == "sltiu":
                if av is not None:
                    return env.write(rt, None, int(av < (imm & _MASK)))
                return env.write(rt, f"1 if {a} < {imm & _MASK} else 0")
            if m == "andi":
                if av is not None:
                    return env.write(rt, None, av & imm)
                return env.write(rt, f"{a} & {imm}")
            if m == "ori":
                if av is not None:
                    return env.write(rt, None, av | imm)
                return env.write(rt, f"{a} | {imm}")
            # xori
            if av is not None:
                return env.write(rt, None, av ^ imm)
            return env.write(rt, f"{a} ^ {imm}")
        if m in ("lb", "lh", "lhu"):
            reader = "r8" if m == "lb" else "r16"
            address = self.addr(env, rs, imm)
            if not rt:
                return [f"{reader}({address})"]
            if m == "lb":
                return [f"_v = r8({address})"] + env.write(
                    rt, f"(_v - 0x100 if _v & 0x80 else _v) & {_M}"
                )
            if m == "lh":
                return [f"_v = r16({address})"] + env.write(
                    rt, f"(_v - 0x10000 if _v & 0x8000 else _v) & {_M}"
                )
            return env.write(rt, f"r16({address})")  # lhu
        if m == "sh":
            return [f"w16({self.addr(env, rs, imm)}, {env.read(rt)[0]})"]
        if m == "mult":
            return [
                f"_a = {env.read(rs)[0]}",
                "if _a & 0x80000000:",
                "    _a -= 0x100000000",
                f"_b = {env.read(rt)[0]}",
                "if _b & 0x80000000:",
                "    _b -= 0x100000000",
                "_p = (_a * _b) & 0xFFFFFFFFFFFFFFFF",
                f"HL[0] = (_p >> 32) & {_M}",
                f"HL[1] = _p & {_M}",
            ]
        if m == "multu":
            return [
                f"_p = {env.read(rs)[0]} * {env.read(rt)[0]}",
                f"HL[0] = (_p >> 32) & {_M}",
                f"HL[1] = _p & {_M}",
            ]
        if m == "div":
            return [
                f"_a = {env.read(rs)[0]}",
                "if _a & 0x80000000:",
                "    _a -= 0x100000000",
                f"_b = {env.read(rt)[0]}",
                "if _b & 0x80000000:",
                "    _b -= 0x100000000",
                "if _b == 0:",
                # MIPS leaves HI/LO undefined; match the other engines
                f"    HL[0] = _a & {_M}",
                f"    HL[1] = {_M}",
                "else:",
                "    _q = int(_a / _b)",  # C-style truncation toward zero
                f"    HL[0] = (_a - _q * _b) & {_M}",
                f"    HL[1] = _q & {_M}",
            ]
        if m == "divu":
            return [
                f"_a = {env.read(rs)[0]}",
                f"_b = {env.read(rt)[0]}",
                "if _b == 0:",
                "    HL[0] = _a",
                f"    HL[1] = {_M}",
                "else:",
                "    HL[0] = _a % _b",
                "    HL[1] = _a // _b",
            ]
        if m == "mfhi":
            return env.write(rd, "HL[0]") if rd else []
        if m == "mflo":
            return env.write(rd, "HL[1]") if rd else []
        if m == "mthi":
            return [f"HL[0] = {env.read(rs)[0]}"]
        if m == "mtlo":
            return [f"HL[1] = {env.read(rs)[0]}"]
        raise SimulationError(f"unimplemented mnemonic {m}")  # pragma: no cover

    def terminator(self, instr, idx: int, env: _BlockEnv) -> list[str]:
        """Statements for a control transfer; every path ends in return/raise.

        Terminators flush the deferred register write-backs themselves:
        branches and jumps before their condition/return, ``jr``/``jalr``
        after the link write but before the target check (whose failure
        aborts the run exactly like the threaded engine, registers fully
        written), ``break``/``syscall`` before raising.
        """
        m = instr.mnemonic
        pc = self.text_base + (idx << 2)
        nxt = idx + 1

        if m in BRANCHES:
            t_pc = pc + 4 + (instr.imm << 2)
            t_idx = (t_pc - self.text_base) >> 2
            if not 0 <= t_idx < self.text_len:
                # same escape slot the threaded table uses: executing it
                # raises, and if the step budget runs out first the caller
                # sees the same "exceeded max_steps" the threaded loop does
                t_idx = self.escape_slots[t_pc]
            prelude, taken_cond = self.branch_condition(instr, env)
            return env.take_pending() + env.flush() + prelude + [
                f"if {taken_cond}:",
                f"    T[{idx}] += 1",
                f"    return {t_idx}",
                f"return {nxt}",
            ]

        if m == "j" or m == "jal":
            t_pc = ((pc + 4) & 0xF000_0000) | (instr.target << 2)
            t_idx = (t_pc - self.text_base) >> 2
            if not 0 <= t_idx < self.text_len:
                t_idx = self.escape_slots[t_pc]
            lines = []
            if m == "jal":
                lines.extend(env.write(31, None, pc + 4))
            return lines + env.flush() + [f"return {t_idx}"]

        if m == "jr" or m == "jalr":
            lines = []
            if m == "jalr" and instr.rd:
                # link is written before the target register is read, so
                # `jalr $t0, $t0` jumps to the link address -- exactly what
                # the threaded closure and the reference interpreter do
                lines.extend(env.write(instr.rd, None, pc + 4))
            target, _ = env.read(instr.rs)
            lines = env.take_pending() + lines + [f"_t = {target}"] + env.flush() + [
                f"_i = (_t - {self.text_base}) >> 2",
                f"if _t & 3 or not 0 <= _i < {self.text_len}:",
                '    raise Err("pc outside text section: 0x%08x" % _t)',
            ]
            if self.profile:
                lines += [
                    f"_k = ({pc}, _t)",
                    "DE[_k] = DE.get(_k, 0) + 1",
                ]
            lines.append("return _i")
            return lines

        if m == "break":
            return env.flush() + [f"raise Halt({idx})"]
        if m == "syscall":
            message = f"syscall executed at 0x{pc:08x}; benchmarks are I/O-free"
            return env.flush() + [f"raise Err({message!r})"]
        raise SimulationError(f"unimplemented mnemonic {m}")  # pragma: no cover
