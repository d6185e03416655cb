"""Code generation for superblock units (blocks and j-chains), loop
regions and the threaded engine's per-instruction handlers.

The per-instruction templates (:meth:`Codegen.straightline`,
:meth:`Codegen.terminator`) are the simulator's one hand-written copy of
the MIPS-I semantics; the reference interpreter
(:mod:`repro.sim.reference`) is the other, independent one, and the
differential suite requires bit-identical statistics from both.  Masking,
the "writes to $zero are dropped but their memory reads still happen"
rule and link-before-read ``jalr`` live in the templates only.

Templates read an instruction's operands as :class:`_Operands`: register
fields are keys for the register environment, every other field a
``(source, literal or None)`` pair, and a template folds only what is a
known literal.  Generated units know every field.  A **handler factory**
(:func:`handler_factory`) knows only which fields are zero: it emits one
closure maker per *shape* (mnemonic plus zero pattern) whose handlers
read ``R`` directly, with no caching, windows or guards, and bind their
operands at closure cost.

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
  the threaded handlers, which need no window: faults, registers, ``T``
  and ``DE`` stay exact.
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
* **Loop regions** (:meth:`Codegen.emit_region`).  One function runs a
  whole innermost loop: its members as structured ``if``/``else`` inside
  a ``while``, one pass per iteration, every register the loop touches
  (and HI/LO) in a local across iterations, entry and branch-taken
  counts in locals, all written back once, at exit.  Members use the
  same per-instruction templates through a region-mode
  :class:`_BlockEnv`, whose flush stores pending literals in the locals
  instead of ``R``.  A region runs whole iterations under the
  instruction allowance ``N[0]``; guards on registers the loop does not
  write are tested once, at entry.

Generated code uses short names bound once per ``Cpu``: ``R`` registers,
``T`` per-site branch-taken counters, ``BC`` per-unit entry counters,
``HL`` hi/lo, ``DE`` dynamic-edge dict, ``r8``..``w32`` memory
accessors, ``SW``/``SB`` and ``DW``/``DB`` the word and byte views of the
stack and data windows, ``Halt``/``Err`` the exception types, ``G`` the
guard-miss helper, ``N`` a region's instruction allowance and ``F`` the
helper that writes a faulting region's registers back.
"""

from __future__ import annotations

import re
from functools import cache

from repro.errors import SimulationError
from repro.isa.instructions import SPECS
from repro.sim.superblock.leaders import BRANCHES, CONTROL_TRANSFERS

__all__ = ["FACTORY", "HANDLER_NAMES", "Codegen", "handler_factory"]

#: the shared factory header every generated module starts with; binds
#: the per-Cpu namespace (``SuperblockTable._ns``) once per compile
FACTORY = ("def _factory(R, T, BC, HL, DE, N, r8, r16, r32, "
           "w8, w16, w32, SW, SB, DW, DB, Halt, Err, G, F):")

#: the most instructions one region function may emit, counting every
#: copy of a member that the structured body repeats
REGION_MAX_INSTRS = 512

#: halfword accessors raise MemoryFault on a misaligned address, so the
#: register file must be architecturally exact before each of these
#: executes.  Byte accesses cannot fault and need no flush; words flush in
#: :meth:`Codegen.load`/:meth:`Codegen.store` unless their address is a
#: literal inside a window, and guarded words never do
_FLUSH_FIRST = frozenset(("lh", "lhu", "sh"))

#: the instructions that read / write HI and LO
_HILO_READS = frozenset(("mfhi", "mflo"))
_HILO_WRITES = frozenset(("mult", "multu", "div", "divu", "mthi", "mtlo"))

_MASK = 0xFFFF_FFFF
_M = "4294967295"  # 0xFFFF_FFFF as a source literal

#: the accesses served from the flat windows, by access width
_WINDOWED = {"lw": 4, "sw": 4, "lbu": 1, "sb": 1}


class _TooLarge(Exception):
    """A region's body outgrew :data:`REGION_MAX_INSTRS` while emitted."""


def _s32(value: int) -> int:
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


# -- register use analysis (for block-local caching) ------------------------


def _uses(spec) -> tuple[bool, bool, str | None]:
    """(reads rs, reads rt, the field naming the register it writes:
    ``"rt"``, ``"rd"``, ``"ra"`` for ``jal``'s ``$31``, or None), from
    the assembly syntax (a load's or store's ``base`` is ``rs``)."""
    fields = set(re.findall(r"\w+", spec.syntax.value))
    writes = ("rt" if spec.writes_rt else "rd" if spec.writes_rd
              else "ra" if spec.mnemonic == "jal" else None)
    return (not fields.isdisjoint(("rs", "base")),
            "rt" in fields and not spec.writes_rt, writes)


_USES = {m: _uses(spec) for m, spec in SPECS.items()}


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


def _shape(header: int, exits: dict, size: dict):
    """``(join, bound)`` of a loop body whose members map to their
    ``(final index, targets)`` in *exits* and to their instruction count
    in *size*, or ``None`` when the body without its back edges (edges
    to *header*) has a cycle or a member the header does not reach.

    ``join[m]`` is the nearest strict post-dominator of member *m* inside
    the body, where the arms of its branch meet again (``None`` when
    they end in back edges or exits); *bound* is the longest path, in
    instructions, from the header to a back edge or an exit.
    """
    inner = {unit: [t for t in targets if t in exits and t != header]
             for unit, (_, targets) in exits.items()}
    post: list[int] = []
    state: dict[int, bool] = {}

    def visit(unit: int) -> bool:
        state[unit] = False
        for target in inner[unit]:
            seen = state.get(target)
            if seen is False or seen is None and not visit(target):
                return False
        state[unit] = True
        post.append(unit)
        return True

    if not visit(header) or len(post) != len(exits):
        return None
    longest: dict[int, int] = {}
    pdom: dict[int, frozenset] = {}
    sink = frozenset((-1,))
    for unit in post:
        longest[unit] = size[unit] + max((longest[t] for t in inner[unit]), default=0)
        common = None
        for target in exits[unit][1]:
            below = pdom[target] if target in exits and target != header else sink
            common = below if common is None else common & below
        pdom[unit] = common | {unit}
    join = {}
    for unit in post:
        below = [d for d in pdom[unit] if d != unit and d != -1]
        join[unit] = max(below, key=lambda d: len(pdom[d])) if below else None
    return join, longest[header]


def _signed(source: str, value: int | None, temp: str) -> str:
    """Source for the signed value of a register read: the literal when
    known, else a conditional expression that reads the register once.
    A local name is read as it is; a subscript is bound to *temp* in the
    condition, which a conditional expression evaluates first."""
    if value is not None:
        return str(_s32(value))
    if source.isidentifier():
        return f"({source} - 0x100000000 if {source} & 0x80000000 else {source})"
    return f"({temp} - 0x100000000 if ({temp} := {source}) & 0x80000000 else {temp})"


def _linear(terms: dict[str, int]) -> str:
    """Source for the sum of ``k * name`` over *terms* (name -> k)."""
    source = ""
    for name, k in sorted(terms.items()):
        if k:
            term = name if abs(k) == 1 else f"{abs(k)} * {name}"
            source += (f" - {term}" if k < 0 else f" + {term}") if source else \
                (f"-{term}" if k < 0 else term)
    return source or "0"


def _plus(name: str, k: int) -> str:
    """Source for ``name + k``."""
    if k > 0:
        return f"{name} + {k}"
    return f"{name} - {-k}" if k else name


class _Operands:
    """One instruction's operands as a unit's templates read them.

    ``rs``/``rt``/``rd`` are register keys for the environment; ``imm``,
    ``shamt`` and, on a control transfer, ``pc`` and ``link`` (``pc + 4``)
    are ``(source, literal)`` pairs; ``index``, ``next`` and ``target``
    (a branch's or ``j``'s slot) are sources.  In a unit all are literals,
    and a literal's source is the int itself, which f-strings render.
    """

    __slots__ = ("mnemonic", "rs", "rt", "rd", "imm", "shamt", "index",
                 "next", "target", "pc", "link")

    def __init__(self, instr, index: int) -> None:
        self.mnemonic, self.rs, self.rt, self.rd = \
            instr.mnemonic, instr.rs, instr.rt, instr.rd
        self.imm, self.shamt = (instr.imm, instr.imm), (instr.shamt, instr.shamt)
        self.index = index


class _ShapeOperands:
    """The operands of every instruction of one handler shape: a field
    the shape fixes at zero is the literal 0, every other one the name
    its handler factory binds it to (``t`` is the target slot).  Values
    computed from those once per handler get a name through :meth:`bind`.
    """

    def __init__(self, shape) -> None:
        m, zero_rs, zero_rt, zero_rd, zero_imm, zero_shamt = shape
        self.mnemonic = m
        self.rs = 0 if zero_rs else "rs"
        self.rt = 0 if zero_rt else "rt"
        self.rd = 0 if zero_rd else "rd"
        self.imm = (0, 0) if zero_imm else ("imm", None)
        self.shamt = (0, 0) if zero_shamt else ("shamt", None)
        self.index = "i"
        self.target = "t"
        self.pc = ("pc", None)
        #: (name, source) of each bound value, in binding order
        self.derived: list[tuple[str, str]] = []
        self.next = self.bind("i + 1")
        self.link = (self.bind("pc + 4"), None)

    def bind(self, source: str) -> str:
        """The name of *source*'s value, computed when a handler is made."""
        name = f"_d{len(self.derived)}"
        self.derived.append((name, source))
        return name


class _BlockEnv:
    """Register-file state during code generation of one unit.

    Tracks, per architectural register: whether it is shadowed by a unit
    local, whether its value is a known literal, and whether ``R`` is
    stale (a deferred write-back is pending).  ``read``/``write`` return
    and consume source fragments; ``flush`` emits the deferred stores.
    It also carries the unit's entry guards, fixed before emission.
    """

    def __init__(self, cached: set[int], guarded: dict, guards: dict,
                 region: bool = False) -> None:
        self.cached = cached
        #: instruction index -> (entry register, offset) of guarded accesses
        self.guarded = guarded
        #: entry register -> (lowest offset, highest access end, any word)
        self.guards = guards
        #: a member of a loop region: every cached register is a local the
        #: region loaded at entry and writes back at exit (on a fault too),
        #: so nothing loads lazily, and a flush stores the pending literals
        #: in their locals, not in ``R``
        self.region = region
        #: unwritten guarded registers, read from the guard's ``_e`` local
        self.entry_values = {} if region else {reg: f"_e{reg}" for reg in guards}
        self.known: dict[int, int] = {}  # reg -> literal value when known
        #: cached regs live as x{reg} locals
        self.loaded: set[int] = set(cached) if region else set()
        self.dirty: set[int] = set()     # cached regs with R[] write-back pending
        self.pending: list[str] = []     # lazy loads owed before the next stmt
        #: where HI and LO live: ``HL``, or a region's locals
        self.hilo = ("_hi", "_lo") if region else ("HL[0]", "HL[1]")
        #: registers the unit touches / writes (set by ``Codegen.cache_env``)
        self.touched: set[int] = set()
        self.written: set[int] = set()

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
                if not self.region:
                    self.loaded.discard(reg)  # the literal supersedes the local
                return []
            if self.region:
                self.dirty.discard(reg)  # only literals wait for a flush
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
        """Deferred write-backs, making ``R`` architecturally exact (in a
        region member: making the locals exact)."""
        lines = []
        for reg in sorted(self.dirty):
            value = self.known.get(reg)
            source = str(value) if value is not None else f"x{reg}"
            lines.append(f"x{reg} = {source}" if self.region else f"R[{reg}] = {source}")
        self.dirty.clear()
        return lines


class Codegen:
    """Stateless-per-unit emitter shared by blocks, chains, regions and
    handler factories."""

    def __init__(self, decoded, text_base: int | str, text_len: int | str,
                 profile: bool, targets: dict[int, int],
                 stack: tuple[int, int] | None,
                 data: tuple[int, int] | None) -> None:
        self.decoded = decoded
        #: the text bounds: ints, or a handler factory's source names
        self.text_base = text_base
        self.text_len = text_len
        self.profile = profile
        #: index -> the slot a branch or ``j``/``jal`` transfers to (an
        #: escape slot for a target outside the text)
        self.targets = targets
        #: (base, size, word view name, byte view name) of each window
        self.stack = (*stack, "SW", "SB") if stack is not None else None
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
        env = _BlockEnv({reg for reg, n in touches.items() if n >= 2},
                        guarded, guards)
        env.touched = set(touches)
        env.written = set(linear)
        return env

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
        env = self.cache_env(segments)
        stmts = [f"if {self.guard_test(entry, *span, f'R[{entry}]')}: "
                 f"return G({bid}, {segments[0][0]})"
                 for entry, span in sorted(env.guards.items())]
        stmts.append(f"BC[{bid}] += 1")
        stmts += self.body(segments, env)
        final = segments[-1][0] + segments[-1][1] - 1
        if self.decoded[final].mnemonic in CONTROL_TRANSFERS:
            stmts += self.terminator(self.operands(final), env)
        else:
            stmts += env.flush()
            stmts.append(f"return {final + 1}")
        return self._emitted(self._lines(indent, f"def {name}():", stmts))

    @staticmethod
    def _lines(indent: str, head: str, stmts: list[str]) -> list[str]:
        body = indent + "    "
        return [indent + head, *[body + stmt for stmt in stmts]]

    def _emitted(self, lines: list[str]) -> list[str]:
        """Count *lines* as one emitted function."""
        self.units_emitted += 1
        self.lines_emitted += len(lines)
        self.chars_emitted += sum(map(len, lines)) + len(lines)
        return lines

    def guard_test(self, entry: int, low: int, high: int, word: bool,
                   source: str) -> str:
        """The failing condition of *entry*'s guard on the value *source*:
        its accesses span *low* to *high* past it, *word* if any is a
        word access.  Binds ``_e{entry}`` (and ``_z{entry}``, the word
        index) for the accesses."""
        base, size = self.window(entry)[:2]
        if word:
            # for an aligned entry value, e - base == 4 * _z exactly
            return (f"not {-(low // 4)} <= (_z{entry} := ((_e{entry} := "
                    f"{source}) - {base}) >> 2) <= {(size - high) // 4} "
                    f"or _e{entry} & 3")
        return (f"not {base - low} <= (_e{entry} := {source}) "
                f"<= {base + size - high}")

    def body(self, segments, env: _BlockEnv) -> list[str]:
        """Statements for every instruction of *segments* but the final
        control transfer: fused jumps cost at most a link write."""
        decoded = self.decoded
        guarded = env.guarded
        stmts = []
        last_seg = len(segments) - 1
        for seg_no, (start, length) in enumerate(segments):
            for index in range(start, start + length):
                instr = decoded[index]
                m = instr.mnemonic
                if m in CONTROL_TRANSFERS:
                    # a fused j/jal ends a non-final segment: no dispatch,
                    # no flush; jal still owes its (deferrable) link write
                    if seg_no != last_seg and m == "jal":
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
                    emitted = self.straightline(_Operands(instr, index), env)
                    stmts += env.take_pending()
                    stmts += flush
                    stmts += emitted
        return stmts

    def operands(self, index: int) -> _Operands:
        """The operands of the control transfer at *index*."""
        op = _Operands(self.decoded[index], index)
        pc = self.text_base + (index << 2)
        op.next = index + 1
        op.pc = (pc, pc)
        op.link = (pc + 4, pc + 4)
        op.target = self.targets.get(index)
        return op

    def emit_region(self, name: str, header: int, units: dict, first_bid: int,
                    indent: str):
        """One generated function running the loop whose member *units*
        (start -> segments) are entered through *header*, or ``None``
        when the loop does not fit a region: it must be acyclic without
        its back edges and emit at most :data:`REGION_MAX_INSTRS`
        instructions.

        Returns ``(lines, bound, groups)``.  *bound* is the most
        instructions one iteration can execute: the longest path from the
        header to a back edge or an exit.  *groups* lists the segments of
        each counter the region bumps, for the bids ``first_bid``,
        ``first_bid + 1``, ...: the header's own first, then the members
        that always run equally often, together.

        The body is one pass of a ``while True`` per iteration, the
        members laid out as structured ``if``/``else`` (a member reached
        from two arms that do not join is repeated, within
        :data:`REGION_MAX_INSTRS`); a back edge is ``continue`` while the
        budget lasts, an exit ``_x = target; break``.  Every register the
        loop touches lives in a local ``x{reg}`` across iterations.
        Member entry counts and branch-taken counts are linear sums of
        the header's count ``_c0`` and one counter per emitted branch,
        bumped on its taken arm, or on its fall-through arm when only
        that arm leaves the loop (once per call): a member after a joined
        branch runs as often as the branch, the counted arm as often as
        its counter, the other arm as the branch minus the counter.  A
        member whose guard may fail keeps its own counter, and so does the
        join after an arm holding one, since an iteration may leave on
        that arm before the join.  Registers and counts are written back
        once, after the loop, so the fold sees exactly what the units
        would have counted; on a fault, ``F`` writes back the registers.

        Budget: the region reads its allowance from ``N[0]`` and runs
        ``max(1, allowance // bound)`` iterations at most (``_k`` counts
        down the ones left), then leaves at the header.  It sets ``N[0]``
        to the allowance minus what it ran, plus *bound*, which the
        dispatch loops charge per call as the header's ``sizes`` entry;
        the first iteration is theirs to fit.

        Guards: a member's guard on a register no member writes covers
        the same value at every entry, so it is hoisted, merged per
        register, to region entry; if any fails there, ``G`` runs the
        header's member through the threaded handlers, as a unit's failed
        guard does.  A guard on a register the loop writes is tested
        each time its member is entered; when it fails, the region
        leaves at that member's start with exact state.
        """
        decoded = self.decoded
        order = [header] + sorted(start for start in units if start != header)
        envs = {start: self.cache_env(units[start]) for start in order}
        written = set().union(*(env.written for env in envs.values()))
        size = {start: sum(length for _, length in units[start]) for start in order}
        exits = {}
        for start in order:
            final = units[start][-1][0] + units[start][-1][1] - 1
            m = decoded[final].mnemonic
            if m in BRANCHES:
                exits[start] = (final, [self.targets[final], final + 1])
            elif m == "j" or m == "jal":
                exits[start] = (final, [self.targets[final]])
            elif m in CONTROL_TRANSFERS:
                return None
            else:
                exits[start] = (final, [final + 1])

        hoisted: dict[int, list] = {}
        variant: dict[int, list] = {}
        for start in order:
            for entry, (low, high, word) in sorted(envs[start].guards.items()):
                if entry in written:
                    variant.setdefault(start, []).append((entry, low, high, word))
                    continue
                span = hoisted.setdefault(entry, [low, high, word])
                span[0] = min(span[0], low)
                span[1] = max(span[1], high)
                span[2] = span[2] or word
        for entry, (low, high, _) in hoisted.items():
            if high - low > self.window(entry)[1]:
                return None
        mnemonics = {decoded[index].mnemonic for segments in units.values()
                     for start, length in segments
                     for index in range(start, start + length)}
        hilo = not mnemonics.isdisjoint(_HILO_READS | _HILO_WRITES)
        # every guard register the loop writes is touched, so loaded
        regs = set().union(*(env.touched for env in envs.values()))

        shape = _shape(header, exits, size)
        if shape is None:
            return None
        join, bound = shape

        left = [REGION_MAX_INSTRS]
        counts: dict[int, dict[str, int]] = {start: {} for start in order}
        taken: dict[int, dict[str, int]] = {}
        names: list[str] = []
        #: the members that got an entry counter of their own
        leaves: list[int] = []

        def edge(target: int, stop, count: dict) -> list[str]:
            if target == header:
                return ["if _k: _k -= 1; continue", f"_x = {header}; break"]
            if target not in units:
                return [f"_x = {target}; break"]
            return [] if target == stop else walk(target, stop, count)

        def walk(unit: int, stop, count: dict) -> list[str]:
            out: list[str] = []
            rejoined = False
            while True:
                left[0] -= size[unit]
                if left[0] < 0:
                    raise _TooLarge
                guards = variant.get(unit)
                if guards:
                    tests = " or ".join(self.guard_test(entry, low, high, word, f"x{entry}")
                                        for entry, low, high, word in guards)
                    out.append(f"if {tests}:")
                    if unit == header:
                        out.append("    _k += 1")
                    out.append(f"    _x = {unit}; break")
                if guards and unit != header or rejoined:
                    # the iteration may have left before reaching this
                    # member: count its entries on a counter of its own
                    leaves.append(unit)
                    rejoined = False
                    names.append(f"_c{len(names) + 1}")
                    out.append(f"{names[-1]} += 1")
                    count = {names[-1]: 1}
                for var, k in count.items():
                    counts[unit][var] = counts[unit].get(var, 0) + k
                env = _BlockEnv(regs, envs[unit].guarded, envs[unit].guards, True)
                out += self.body(units[unit], env)
                final, targets = exits[unit]
                instr = decoded[final]
                if instr.mnemonic == "jal":
                    out += env.write(31, None, self.text_base + (final << 2) + 4)
                out += env.flush()
                if len(targets) == 2:
                    prelude, cond = self.branch_condition(self.operands(final), env)
                    out += prelude
                    after = join[unit]
                    names.append(f"_t{len(names) + 1}")
                    bump = names[-1]
                    # count the arm that leaves the loop when only the
                    # fall-through does: it runs once per call at most
                    falls = [f"    {bump} += 1"] if targets[1] not in units \
                        and targets[0] in units else []
                    rest = dict(count)
                    rest[bump] = rest.get(bump, 0) - 1
                    arms = (rest, {bump: 1}) if falls else ({bump: 1}, rest)
                    early = len(leaves)
                    site = taken.setdefault(final, {})
                    for var, k in arms[0].items():
                        site[var] = site.get(var, 0) + k
                    out.append(f"if {cond}:")
                    if not falls:
                        out.append(f"    {bump} += 1")
                    out += ["    " + line for line in edge(targets[0], after, arms[0])]
                    other = falls + ["    " + line for line in edge(targets[1], after, arms[1])]
                    if other:
                        out.append("else:")
                        out += other
                    if after is None or after == stop:
                        return out
                    # a guard that failed on an arm left before the join
                    rejoined = len(leaves) != early
                    unit = after
                else:
                    target = targets[0]
                    if target == stop:
                        return out
                    if target == header or target not in units:
                        return out + edge(target, stop, count)
                    unit = target

        try:
            loop = walk(header, None, {"_c0": 1})
        except _TooLarge:
            return None

        tests = [self.guard_test(entry, *span, f"R[{entry}]")
                 for entry, span in sorted(hoisted.items())]
        tests += [self.guard_test(entry, low, high, word, f"R[{entry}]")
                  for entry, low, high, word in variant.get(header, ())]
        # members that run equally often share a counter; the header
        # keeps its own when G may bump it (an entry guard fails)
        groups: list[list] = [list(units[header])]
        group_counts = [counts[header]]
        keyed: dict[tuple, int] = {} if tests else {(("_c0", 1),): 0}
        for start in order[1:]:
            key = tuple(sorted((var, k) for var, k in counts[start].items() if k))
            if key not in keyed:
                keyed[key] = len(groups)
                groups.append([])
                group_counts.append(counts[start])
            groups[keyed[key]] += units[start]

        stmts = []
        if tests:
            stmts += [f"if {' or '.join(tests)}:",
                      f"    N[0] += {bound - size[header]}",
                      f"    return G({first_bid}, {header})"]
        # one statement per register: plain subscripts beat slices and
        # tuple packing
        moves = [f"x{reg} = R[{reg}]" for reg in sorted(regs)]
        if hilo:
            moves.append("_hi, _lo = HL")
        if moves:
            stmts.append("; ".join(moves))
        # at most max(1, allowance // bound) iterations: _k counts down
        # the ones left after the current one
        budget = ["_n = N[0]", f"_c0 = _n // {bound} or 1", "_k = _c0 - 1"]
        if names:
            budget.insert(0, " = ".join(names) + " = 0")
        stmts.append("; ".join(budget))
        loop = ["while True:", *["    " + line for line in loop]]
        hilo_written = not mnemonics.isdisjoint(_HILO_WRITES)
        if written or hilo_written:
            stmts += ["try:", *["    " + line for line in loop],
                      "except BaseException: F(locals()); raise"]
        else:
            stmts += loop
        moves = [f"R[{reg}] = x{reg}" for reg in sorted(written)]
        if hilo_written:
            moves.append("HL[0], HL[1] = _hi, _lo")
        stmts.append("; ".join(["_c0 -= _k", *moves]))
        ran: dict[str, int] = {}
        for start in order:
            for var, k in counts[start].items():
                ran[var] = ran.get(var, 0) + k * size[start]
        tallies = [f"BC[{bid}] += {_linear(count)}"
                   for bid, count in enumerate(group_counts, first_bid)]
        tallies += [f"T[{site}] += {_linear(count)}"
                    for site, count in sorted(taken.items()) if any(count.values())]
        tallies.append(f"N[0] = _n + {bound} - ({_linear(ran)})")
        stmts += ["; ".join(tallies), "return _x"]
        return self._emitted(self._lines(indent, f"def {name}():", stmts)), bound, groups

    # -- pieces --------------------------------------------------------------

    def addr(self, env: _BlockEnv, op) -> str:
        """Effective-address expression ``(R[rs] + imm) & M``, folded."""
        base, value = env.read(op.rs)
        k, kv = op.imm
        if value is not None and kv is not None:
            return str((value + kv) & _MASK)
        if kv == 0:
            return base
        return f"({base} + {k}) & {_M}"

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

    def load(self, op, env: _BlockEnv, word: bool) -> list[str]:
        """Statements for an unguarded ``lw`` (*word*) or ``lbu``.

        Only a unit has windows, and a unit's immediates are literals."""
        rs, rt = op.rs, op.rt
        call = "r32" if word else "r8"
        window = self.window(rs)
        reg, value = env.read(rs)
        if window is None:
            loaded = f"{call}({self.addr(env, op)})"
        elif value is None:
            base, size, words, bytes_ = window
            view = f"{words}[_o >> 2]" if word else f"{bytes_}[_o]"
            loaded = (f"{view} if not (_o := {reg} + {op.imm[1] - base}) & "
                      f"{-size | 3 if word else -size} else {call}(_o + {base})")
        else:
            base, size, words, bytes_ = window
            address = (value + op.imm[1]) & _MASK
            offset = address - base
            if 0 <= offset < size and not (word and offset & 3):
                # a literal address inside the window cannot fault: no flush
                view = f"{words}[{offset >> 2}]" if word else f"{bytes_}[{offset}]"
                return env.write(rt, view) if rt else []
            loaded = f"{call}({address})"
        flush = env.flush() if word else []
        return flush + (env.write(rt, loaded) if rt else [loaded])

    def store(self, op, env: _BlockEnv, word: bool) -> list[str]:
        """Statements for an unguarded ``sw`` (*word*) or ``sb``.

        Only a unit has windows, and a unit's immediates are literals."""
        rs = op.rs
        call = "w32" if word else "w8"
        window = self.window(rs)
        reg, address = env.read(rs)
        source, value = env.read(op.rt)
        if window is not None:
            imm = op.imm[1]
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
        return flush + [f"{call}({self.addr(env, op)}, {source})"]

    def branch_condition(self, op, env: _BlockEnv) -> tuple[list[str], str]:
        """(prelude lines, taken condition) for a branch.

        Constant operands fold to literal ``True``/``False`` conditions;
        the ``blez``/``bgtz`` forms bind a ``_v`` prelude because their
        condition reads the value twice.
        """
        m = op.mnemonic
        a, av = env.read(op.rs)
        if m == "beq" or m == "bne":
            b, bv = env.read(op.rt)
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

    def straightline(self, op, env: _BlockEnv) -> list[str]:
        """Statements for one non-control-transfer instruction.

        Returns relative-indented source lines; lazy register loads
        accumulate in ``env.pending``.  A value folds only when every
        operand it depends on is a literal.
        """
        m = op.mnemonic
        rs, rt, rd = op.rs, op.rt, op.rd
        k, kv = op.imm

        if m == "addiu" or m == "addi":
            if not rt:
                return []
            a, av = env.read(rs)
            if av is not None and kv is not None:
                return env.write(rt, None, (av + kv) & _MASK)
            if kv == 0:
                return env.write(rt, a)
            return env.write(rt, f"({a} + {k}) & {_M}")
        if m == "lw" or m == "lbu":
            return self.load(op, env, m == "lw")
        if m == "sw" or m == "sb":
            return self.store(op, env, m == "sw")
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
                return env.write(rd, f"1 if {_signed(a, av, '_a')} < {_signed(b, bv, '_b')} else 0")
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
                s, sv = op.shamt
                if sv == 0:
                    return env.write(rd, b, bv)
                known = bv is not None and sv is not None
                if m == "sll":
                    if known:
                        return env.write(rd, None, (bv << sv) & _MASK)
                    return env.write(rd, f"({b} << {s}) & {_M}")
                if m == "srl":
                    if known:
                        return env.write(rd, None, bv >> sv)
                    return env.write(rd, f"{b} >> {s}")
                # sra
                if known:
                    return env.write(rd, None, (_s32(bv) >> sv) & _MASK)
                return env.write(rd, f"({_signed(b, bv, '_b')} >> {s}) & {_M}")
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
            return env.write(rd, f"({_signed(b, bv, '_b')} >> ({a} & 31)) & {_M}")
        if m in ("slti", "sltiu", "andi", "ori", "xori", "lui"):
            if not rt:
                return []
            if m == "lui":
                if kv is not None:
                    return env.write(rt, None, (kv << 16) & _MASK)
                return env.write(rt, op.bind(f"({k} << 16) & {_M}"))
            a, av = env.read(rs)
            known = av is not None and kv is not None
            if m == "slti":
                if known:
                    return env.write(rt, None, int(_s32(av) < kv))
                return env.write(rt, f"1 if {_signed(a, av, '_a')} < {k} else 0")
            if m == "sltiu":
                bound = kv & _MASK if kv is not None else op.bind(f"{k} & {_M}")
                if known:
                    return env.write(rt, None, int(av < bound))
                return env.write(rt, f"1 if {a} < {bound} else 0")
            if m == "andi":
                if known:
                    return env.write(rt, None, av & kv)
                return env.write(rt, f"{a} & {k}")
            if m == "ori":
                if known:
                    return env.write(rt, None, av | kv)
                return env.write(rt, f"{a} | {k}")
            # xori
            if known:
                return env.write(rt, None, av ^ kv)
            return env.write(rt, f"{a} ^ {k}")
        if m in ("lb", "lh", "lhu"):
            reader = "r8" if m == "lb" else "r16"
            address = self.addr(env, op)
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
            return [f"w16({self.addr(env, op)}, {env.read(rt)[0]})"]
        hi, lo = env.hilo
        if m == "mult":
            return [
                f"_p = ({_signed(*env.read(rs), '_a')} * {_signed(*env.read(rt), '_b')}) "
                "& 0xFFFFFFFFFFFFFFFF",
                f"{hi} = (_p >> 32) & {_M}",
                f"{lo} = _p & {_M}",
            ]
        if m == "multu":
            return [
                f"_p = {env.read(rs)[0]} * {env.read(rt)[0]}",
                f"{hi} = (_p >> 32) & {_M}",
                f"{lo} = _p & {_M}",
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
                # MIPS leaves HI/LO undefined; match the reference
                f"    {hi} = _a & {_M}",
                f"    {lo} = {_M}",
                "else:",
                "    _q = int(_a / _b)",  # C-style truncation toward zero
                f"    {hi} = (_a - _q * _b) & {_M}",
                f"    {lo} = _q & {_M}",
            ]
        if m == "divu":
            return [
                f"_a = {env.read(rs)[0]}",
                f"_b = {env.read(rt)[0]}",
                "if _b == 0:",
                f"    {hi} = _a",
                f"    {lo} = {_M}",
                "else:",
                f"    {hi} = _a % _b",
                f"    {lo} = _a // _b",
            ]
        if m == "mfhi":
            return env.write(rd, hi) if rd else []
        if m == "mflo":
            return env.write(rd, lo) if rd else []
        if m == "mthi":
            return [f"{hi} = {env.read(rs)[0]}"]
        if m == "mtlo":
            return [f"{lo} = {env.read(rs)[0]}"]
        raise SimulationError(f"unimplemented mnemonic {m}")  # pragma: no cover

    def terminator(self, op, env: _BlockEnv) -> list[str]:
        """Statements for a control transfer; every path ends in return/raise.

        Terminators flush the deferred register write-backs themselves:
        branches and jumps before their condition/return, ``jr``/``jalr``
        after the link write but before the target check (whose failure
        aborts the run with the registers fully written),
        ``break``/``syscall`` before raising.
        """
        m = op.mnemonic

        if m in BRANCHES:
            prelude, taken_cond = self.branch_condition(op, env)
            return env.take_pending() + env.flush() + prelude + [
                f"if {taken_cond}:",
                f"    T[{op.index}] += 1",
                f"    return {op.target}",
                f"return {op.next}",
            ]

        if m == "j" or m == "jal":
            lines = env.write(31, *op.link) if m == "jal" else []
            return lines + env.flush() + [f"return {op.target}"]

        if m == "jr" or m == "jalr":
            lines = []
            if m == "jalr" and op.rd:
                # link is written before the target register is read, so
                # `jalr $t0, $t0` jumps to the link address, as the
                # reference interpreter does
                lines.extend(env.write(op.rd, *op.link))
            target, _ = env.read(op.rs)
            lines = env.take_pending() + lines + [f"_t = {target}"] + env.flush() + [
                f"_i = (_t - {self.text_base}) >> 2",
                f"if _t & 3 or not 0 <= _i < {self.text_len}:",
                '    raise Err("pc outside text section: 0x%08x" % _t)',
            ]
            if self.profile:
                lines += [
                    f"_k = ({op.pc[0]}, _t)",
                    "DE[_k] = DE.get(_k, 0) + 1",
                ]
            lines.append("return _i")
            return lines

        if m == "break":
            return env.flush() + [f"raise Halt({op.index})"]
        if m == "syscall":
            message = "syscall executed at 0x%08x; benchmarks are I/O-free"
            pc, pcv = op.pc
            if pcv is not None:
                return env.flush() + [f"raise Err({message % pcv!r})"]
            return env.flush() + [f"raise Err({message!r} % {pc})"]
        raise SimulationError(f"unimplemented mnemonic {m}")  # pragma: no cover


# -- threaded handlers -------------------------------------------------------

#: the names a ``Cpu`` binds a handler factory to: the registers,
#: branch-taken counters, HI/LO, dynamic edges, memory accessors, the
#: two exception types and the text's base address and length
HANDLER_NAMES = ("R", "T", "HL", "DE", "r8", "r16", "r32", "w8", "w16",
                 "w32", "Halt", "Err", "B", "L")

#: the instruction fields a handler may read
_FIELDS = ("rs", "rt", "rd", "imm", "shamt")

_NAME = re.compile(r"[A-Za-z_]\w*")
_STRING = re.compile(r"'[^']*'|\"[^\"]*\"")


def handler_factory(shape: tuple, profile: bool):
    """The threaded-handler factory of *shape*.

    *shape* is ``(mnemonic, rs == 0, rt == 0, rd == 0, imm == 0,
    shamt == 0)``: every template decision for an instruction that
    reads ``R`` directly depends on those alone, and, for ``jr`` and
    ``jalr``, on *profile*.  The factory is the code of
    ``make(instr, i, pc, t)``; a ``Cpu`` makes it a function whose
    globals bind :data:`HANDLER_NAMES`, and that function makes the
    handler of the instruction *instr* at index *i* and address *pc*
    with static target slot *t* (``None`` for all but branches and
    ``j``/``jal``).  A handler performs the instruction and returns the
    index of the next one; everything it reads is a default argument,
    so it runs on fast locals.
    """
    return _compile_factory(shape, profile and shape[0] in ("jr", "jalr"))


@cache  # once per process
def _compile_factory(shape: tuple, profile: bool):
    op = _ShapeOperands(shape)
    # no cached registers, windows or guards: every access goes to R
    # and through the Memory accessors
    env = _BlockEnv(set(), {}, {})
    cg = Codegen((), "B", "L", profile, {}, None, None)
    if op.mnemonic in CONTROL_TRANSFERS:
        body = cg.terminator(op, env)
    else:
        body = cg.straightline(op, env) + [f"return {op.next}"]
    used = set(_NAME.findall(_STRING.sub("", "\n".join(body))))
    derived = [(name, source) for name, source in op.derived if name in used]
    # the fields a bound value needs come first; the handler's arguments
    # default to everything its body reads
    needed = set().union(*(_NAME.findall(source) for _, source in derived))
    prologue = [f"{name} = instr.{name}" for name in _FIELDS if name in needed]
    defaults = [f"{name}={name}" for name in HANDLER_NAMES if name in used]
    defaults += [f"{name}={name if name in needed else f'instr.{name}'}"
                 for name in _FIELDS if name in used]
    defaults += [f"{name}={name}" for name in ("i", "pc", "t") if name in used]
    defaults += [f"{name}={source}" for name, source in derived]
    source = "\n".join([
        "def make(instr, i, pc, t):",
        *["    " + line for line in prologue],
        f"    def h({', '.join(defaults)}):",
        *["        " + line for line in body],
        "    return h",
    ])
    namespace: dict = {}
    exec(compile(source, f"<handler {shape[0]}>", "exec"), namespace)
    return namespace["make"].__code__
