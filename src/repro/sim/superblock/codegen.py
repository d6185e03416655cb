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

* **Inline memory windows** (:meth:`Codegen.guarded`, :meth:`Codegen.load`,
  :meth:`Codegen.store`).  ``lw``/``sw``/``lbu``/``sb`` index the
  ``Cpu``'s flat windows (see :mod:`repro.sim.memory`) instead of calling
  ``Memory``.
* **Entry guards** (:meth:`Codegen.cache_env`).  Most accesses use a base
  that is some register's *unit-entry* value plus a constant: ``$sp`` and
  ``$fp`` frames, ``$fp = $sp`` at O0, ``addiu $a0, $sp, k``.  The pass
  that counts register touches also tracks that linear form, and the unit
  opens, before its ``BC`` bump, with one chained range-and-alignment test
  per entry register.  The window is picked from the entry register:
  ``$sp``/``$fp`` use the stack window, every other register the data
  window.  When the register's accesses cover the bytes from its entry
  value plus ``lo`` up to (not including) plus ``hi``, in a window of
  ``L`` bytes at ``base``, a register with a word access is tested on its
  word index (the bounds rounded inward), so the same line binds the
  index the accesses use::

      if not -lo/4 <= (_z29 := ((_e29 := R[29]) - base) >> 2) <= (L - hi)/4 or _e29 & 3: return G(bid, home)
      ...
      SW[_z29 + 3] = x4

  A register with only byte accesses needs no alignment term:
  ``if not base - lo <= (_e4 := R[4]) <= base + L - hi: return G(...)``,
  then ``SB[_e4 - k]``.  A word access is guarded only when its offset is
  a multiple of 4.  A guarded access cannot fault, so it is a plain index
  with no flush.  When a guard fails, ``G`` (see
  :meth:`SuperblockTable._guard_miss_handler`) runs the whole unit through
  the threaded handlers, which are the reference semantics: faults,
  registers, ``T`` and ``DE`` stay exact.
* **Unguarded accesses** (:meth:`Codegen.load`, :meth:`Codegen.store`)
  keep one masked test per access, which rejects negative, out-of-range
  and (for words) misaligned offsets at once::

      x = W[_o >> 2] if not (_o := reg + (imm - base)) & (-L | 3) else r32(_o + base)

  The fallback is the ``Memory`` accessor, which masks the address to 32
  bits, keeps the sparse semantics and raises ``MemoryFault``; a word
  access is therefore still preceded by a flush of the dirty registers.
  An in-window hit never needs the mask, because each window lies inside
  the 32-bit space.  A literal address folds to a direct index, or to
  the plain call when it lies outside the window.  The word views use
  native byte order, which ``Cpu`` checks is little-endian.
  ``lb``/``lh``/``lhu``/``sh`` keep their calls.

Generated code uses short names bound once per ``Cpu``: ``R`` registers,
``T`` per-site branch-taken counters, ``BC`` per-unit entry counters,
``HL`` hi/lo, ``DE`` dynamic-edge dict, ``r8``..``w32`` memory
accessors, ``SW``/``SB`` and ``DW``/``DB`` the word and byte views of the
stack and data windows, ``Halt``/``Err`` the exception types, ``G`` the
guard-miss helper.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.instructions import SPECS
from repro.sim.superblock.leaders import BRANCHES, CONTROL_TRANSFERS

__all__ = ["FACTORY", "Codegen"]

#: the shared factory header every generated module starts with; binds
#: the per-Cpu namespace (``SuperblockTable._ns``) once per compile
FACTORY = ("def _factory(R, T, BC, HL, DE, r8, r16, r32, "
           "w8, w16, w32, SW, SB, DW, DB, Halt, Err, G):")

#: halfword accessors raise MemoryFault on a misaligned address, so the
#: register file must be architecturally exact before each of these
#: executes.  Byte accesses cannot fault and need no flush; words flush in
#: :meth:`Codegen.load`/:meth:`Codegen.store` unless their address is a
#: literal inside a window, and guarded words never do
_FLUSH_FIRST = frozenset(("lh", "lhu", "sh"))

_MASK = 0xFFFF_FFFF
_M = "4294967295"  # 0xFFFF_FFFF as a source literal

#: the accesses served from the flat windows, by access width
_WINDOWED = {"lw": 4, "sw": 4, "lbu": 1, "sb": 1}


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


#: mnemonic -> (reads rs, reads rt, the field naming the register it
#: writes: ``"rt"``, ``"rd"``, ``"ra"`` for ``jal``'s ``$31``, or None)
_USES = {
    m: (m in _READS_RS, m in _READS_RT,
        "rt" if m in _WRITES_RT else "rd" if m in _WRITES_RD
        else "ra" if m == "jal" else None)
    for m in SPECS
}


def _linear_form(instr, linear: dict):
    """``(entry register, offset)`` when the value *instr* writes is some
    register's unit-entry value plus a constant, else ``None``.

    *linear* maps the registers written so far in the unit to their form
    (``None`` when not linear); an unwritten register holds its own entry
    value.  Moves (``move`` is ``addiu rd, rs, 0``) and ``addiu`` keep the
    form, every other write ends it.
    """
    m = instr.mnemonic
    imm = 0
    if m == "addiu" or m == "addi":
        src, imm = instr.rs, instr.imm
    elif m in ("addu", "add", "or", "xor") and not (instr.rs and instr.rt):
        src = instr.rs or instr.rt
    elif (m == "subu" or m == "sub") and not instr.rt:
        src = instr.rs
    elif m in ("sll", "srl", "sra") and not instr.shamt:
        src = instr.rt
    else:
        return None
    if not src:
        return None
    form = linear.get(src, (src, 0))
    return None if form is None else (form[0], form[1] + imm)


def _plus(name: str, k: int) -> str:
    """Source for ``name + k``."""
    if k > 0:
        return f"{name} + {k}"
    return f"{name} - {-k}" if k else name


class _BlockEnv:
    """Register-file state during code generation of one unit.

    Tracks, per architectural register: whether it is shadowed by a unit
    local, whether its value is a known literal, and whether ``R`` is
    stale (a deferred write-back is pending).  ``read``/``write`` return
    and consume source fragments; ``flush`` emits the deferred stores.
    It also carries the unit's entry guards, fixed before emission.
    """

    def __init__(self, cached: set[int], guarded: dict, guards: dict) -> None:
        self.cached = cached
        #: instruction index -> (entry register, offset) of guarded accesses
        self.guarded = guarded
        #: entry register -> (lowest offset, highest access end, any word)
        self.guards = guards
        #: unwritten guarded registers, read from the guard's ``_e`` local
        self.entry_values = {reg: f"_e{reg}" for reg in guards}
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
        entry_value = self.entry_values.get(reg)
        if entry_value is not None:
            return entry_value, None
        if reg in self.cached:
            if reg not in self.loaded:
                self.pending.append(f"x{reg} = R[{reg}]")
                self.loaded.add(reg)
            return f"x{reg}", None
        return f"R[{reg}]", None

    def write(self, reg: int, expr: str | None, value: int | None = None) -> list[str]:
        """Statements realizing a write of *expr* (or literal *value*)."""
        self.entry_values.pop(reg, None)
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
        self.chars_emitted = 0

    # -- whole units ---------------------------------------------------------

    def window(self, reg: int):
        """The window accesses based on *reg* use: stack for ``$sp``/``$fp``."""
        return self.stack if reg in (29, 30) else self.data

    def cache_env(self, segments) -> _BlockEnv:
        """A :class:`_BlockEnv` caching registers the unit touches twice,
        with the unit's entry guards.

        Single-touch registers go straight to ``R`` (same cost); the
        touch count spans *all* segments, so chain fusion widens the
        caching window across the fused blocks.  The same walk tracks
        which registers hold an entry value plus a constant and guards
        each window access based on one.  A guarded access does not read
        its base register (the guard does), so that read is not a touch.
        A unit runs all its instructions unless one faults, so the guard
        covers exactly the accesses the unit makes.
        """
        decoded = self.decoded
        touches: dict[int, int] = {}
        linear: dict = {}
        guarded: dict[int, tuple[int, int]] = {}
        spans: dict[int, list] = {}
        for start, length in segments:
            for index in range(start, start + length):
                instr = decoded[index]
                m = instr.mnemonic
                reads_rs, reads_rt, writes = _USES[m]
                rs = instr.rs
                if reads_rs and rs:
                    width = _WINDOWED.get(m)
                    form = linear.get(rs, (rs, 0)) if width else None
                    offset = form[1] + instr.imm if form else 0
                    if form and (width == 1 or not offset & 3) \
                            and self.window(form[0]) is not None:
                        entry = form[0]
                        guarded[index] = (entry, offset)
                        span = spans.get(entry)
                        if span is None:
                            spans[entry] = [offset, offset + width, width == 4]
                        else:
                            span[0] = min(span[0], offset)
                            span[1] = max(span[1], offset + width)
                            span[2] = span[2] or width == 4
                    else:
                        touches[rs] = touches.get(rs, 0) + 1
                if reads_rt and instr.rt:
                    touches[instr.rt] = touches.get(instr.rt, 0) + 1
                if writes:
                    target = (instr.rt if writes == "rt" else
                              instr.rd if writes == "rd" else 31)
                    if target:
                        touches[target] = touches.get(target, 0) + 1
                        linear[target] = _linear_form(instr, linear)
        guards = {}
        for entry, (low, high, word) in spans.items():
            if high - low <= self.window(entry)[1]:
                guards[entry] = (low, high, word)
                continue
            # no entry value can satisfy a span wider than the window
            for index in [i for i, (e, _) in guarded.items() if e == entry]:
                del guarded[index]
                rs = decoded[index].rs
                touches[rs] = touches.get(rs, 0) + 1
        return _BlockEnv({reg for reg, n in touches.items() if n >= 2},
                         guarded, guards)

    def emit_unit(self, name: str, segments, bid: int, indent: str) -> list[str]:
        """One generated function covering *segments* back to back.

        A single-element segment list is a plain superblock; multiple
        segments form a j-chain whose non-final segments end in an
        unconditional ``j``/``jal`` to the next segment's start (the
        jump is fused away, ``jal`` keeps its link write).  One ``BC``
        bump covers the whole unit; the fold expands it over every
        member instruction.  The entry guards precede the bump: a failed
        guard hands the unit's slot to ``G``, which bumps it itself.
        """
        decoded = self.decoded
        env = self.cache_env(segments)
        stmts = []
        for entry, (low, high, word) in sorted(env.guards.items()):
            base, size = self.window(entry)[:2]
            if word:
                # for an aligned entry value, e - base == 4 * _z exactly
                test = (f"not {-(low // 4)} <= (_z{entry} := ((_e{entry} := "
                        f"R[{entry}]) - {base}) >> 2) <= {(size - high) // 4} "
                        f"or _e{entry} & 3")
            else:
                test = (f"not {base - low} <= (_e{entry} := R[{entry}]) "
                        f"<= {base + size - high}")
            stmts.append(f"if {test}: return G({bid}, {segments[0][0]})")
        stmts.append(f"BC[{bid}] += 1")
        guarded = env.guarded
        last_seg = len(segments) - 1
        for seg_no, (start, length) in enumerate(segments):
            for index in range(start, start + length):
                instr = decoded[index]
                m = instr.mnemonic
                if m in CONTROL_TRANSFERS:
                    if seg_no == last_seg:
                        stmts += self.terminator(instr, index, env)
                    elif m == "jal":
                        # fused unconditional jump: no dispatch, no flush;
                        # jal still owes its (deferrable) link write
                        pc = self.text_base + (index << 2)
                        stmts += env.write(31, None, pc + 4)
                elif index in guarded:
                    emitted = self.guarded(instr, env, *guarded[index])
                    stmts += env.take_pending()
                    stmts += emitted
                else:
                    # flush *before* emitting a faulting instruction, so
                    # the write-backs cover only the instructions already
                    # executed (this instruction's own write must not be
                    # flushed yet)
                    flush = env.flush() if m in _FLUSH_FIRST else []
                    emitted = self.straightline(instr, env)
                    stmts += env.take_pending()
                    stmts += flush
                    stmts += emitted
        final_start, final_len = segments[-1]
        if decoded[final_start + final_len - 1].mnemonic not in CONTROL_TRANSFERS:
            stmts += env.flush()
            stmts.append(f"return {final_start + final_len}")
        body = indent + "    "
        lines = [f"{indent}def {name}():", *[body + stmt for stmt in stmts]]
        self.units_emitted += 1
        self.lines_emitted += len(lines)
        self.chars_emitted += sum(map(len, lines)) + len(lines)
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

    def guarded(self, instr, env: _BlockEnv, entry: int, offset: int) -> list[str]:
        """Statements for a window access at *entry*'s entry value plus
        *offset*, which the unit's guard proved in the window: a plain
        index, no test, no flush."""
        m = instr.mnemonic
        base, _, words, bytes_ = self.window(entry)
        if m == "lw" or m == "sw":
            view = f"{words}[{_plus(f'_z{entry}', offset >> 2)}]"
        else:
            view = f"{bytes_}[{_plus(f'_e{entry}', offset - base)}]"
        if m == "lw" or m == "lbu":
            return env.write(instr.rt, view) if instr.rt else []
        source, value = env.read(instr.rt)
        if m == "sb":
            source = str(value & 255) if value is not None else f"{source} & 255"
        return [f"{view} = {source}"]

    def load(self, instr, env: _BlockEnv, word: bool) -> list[str]:
        """Statements for an unguarded ``lw`` (*word*) or ``lbu``."""
        rs, rt, imm = instr.rs, instr.rt, instr.imm
        call = "r32" if word else "r8"
        window = self.window(rs)
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
        """Statements for an unguarded ``sw`` (*word*) or ``sb``."""
        rs, imm = instr.rs, instr.imm
        call = "w32" if word else "w8"
        window = self.window(rs)
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
