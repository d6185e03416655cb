"""The superblock dispatch table: loop regions and units for the dispatch
entries, compiled in bounded batches.

Units are emitted as generated Python source and ``compile()``d in a few
batches, each capped at ``_BATCH_MAX_CHARS`` characters of source: one
code object per batch instead of one closure chain per block, so the
dispatch loop's ``fns[index]()`` calls land on functions that share a
module and its constant pool, while the compiler's transient memory stays
bounded by the batch, not the program.

Generation happens at construction only, and only for the **dispatch
entries** that can run more than once.  The entries are the closure,
over each unit's static exits (branch target and fall-through, an
unfused ``j``/``jal`` target, the fall-through at the end of a unit), of
the entry point, every return address (the successor of a
``jal``/``jalr``) and every text address in ``.data`` (jump-table
cases).  A leader reached only through a fused ``j``/``jal`` -- every
callee's first block, most ``j`` targets -- is never handed to the
dispatch loop, so it gets no unit of its own.  Of those entries, a block
that statically runs at most once
(:func:`~repro.sim.superblock.leaders.run_once_leaders`: on no cycle of
the call-aware block graph, in a function called from exactly one such
block) gets no unit either; that drops 522 of the 1,886 units of
``static_suite``'s 80 binaries, and each of them would have run once.
Correctness does not depend on either set: both dispatch loops
single-step an index whose slot is ``None`` through the threaded
handlers until a slot with a generated function comes up, so no code is
generated after construction.

What construction still compiles is what can repeat.  Compiling is
``compile()``'s bytecode generation per statement, so fewer units pay,
fewer characters do not; ``source_seconds`` and ``compile_seconds``
split the cost.  Counting entries and generating a slot at its T-th
single-stepped entry was modelled at 0.13-0.19 s net on
``static_suite`` (~3%), and a compile-only prototype of it stayed
inside the host's run-to-run noise: a function compiled alone costs
~50-65 us more than inside a batch.  The static run-once test needs no
counters and compiles nothing at run time.  Several layers sit on that
substrate:

* **j-chain fusion**: a unit whose block ends in an unconditional
  ``j``/``jal`` with a static in-text target *inlines* the target block
  (and so on, bounded), so the fused jump costs at most a deferred link
  write instead of a dispatch round-trip.  The unit's entry counter
  covers every member segment; :meth:`fold_into` expands it exactly.
* **entry guards**: a unit's window accesses are proved in range once,
  at entry (see :mod:`repro.sim.superblock.codegen`); when a guard fails,
  :meth:`_guard_miss_handler` runs the unit through the threaded handlers.
* **loop regions**: each innermost natural loop of the unit graph
  (:func:`~repro.sim.superblock.leaders.find_loops`) that fits runs
  inside one generated function in its header's slot.  The region runs
  the loop's blocks (:meth:`SuperblockTable._region_nodes`), not its
  units, and *replaces* the member units: their slots stay ``None``.
  ``sizes[header]`` is the longest path through one iteration, and
  :attr:`SuperblockTable.allowance` carries the instruction budget the
  dispatch loops hand a region (see :meth:`Codegen.emit_region`).

Exactness contract: a unit either runs to its end or raises at a
terminator, every generated function bumps its ``BC`` counter once (the
guard-miss path bumps it for the unit), a region adds each of its
counters' totals once, at exit, and at every observation point
:meth:`SuperblockTable.fold_into` scans every counter and folds its
delta into the per-instruction ``counts`` array the rest of the
simulator derives statistics from.
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter

from repro.sim.superblock.codegen import FACTORY as _FACTORY
from repro.sim.superblock.codegen import Codegen
from repro.sim.superblock.leaders import (
    BRANCHES,
    CONTROL_TRANSFERS,
    dispatch_roots,
    find_leaders,
    find_loops,
    run_once_leaders,
)

__all__ = ["SuperblockTable"]

#: j-chain fusion bounds: chains stop after this many fused blocks or
#: this many total instructions, keeping generated units (and the
#: sampled path's whole-unit budget check) reasonably sized
_CHAIN_MAX_BLOCKS = 8
_CHAIN_MAX_INSTRS = 192

#: units are compiled in batches of at most about this many
#: source characters: ``compile()``'s transient memory grows with the
#: module, and at this size it stays a few MB even for the largest
#: program (one 200 k-character module peaks near 20 MB).  A batch
#: closes at the first function that takes it past the bound, or before
#: one that would take it to twice the bound; a function longer than
#: that would compile alone (only a region could be: it emits at most
#: ``REGION_MAX_INSTRS`` instructions, and the longest in
#: ``static_suite`` is 26 k characters)
_BATCH_MAX_CHARS = 16_000


class SuperblockTable:
    """Block structure + generated unit functions for one :class:`Cpu`.

    Public surface used by the dispatch loops:

    * ``fns[index]`` -- the generated function for every handler slot
      (escape slots reuse the threaded escape handlers); ``None`` marks an
      index that is not a dispatch entry or whose block runs at most
      once; the dispatch loops single-step it.
    * ``sizes[index]`` -- instructions one ``fns[index]`` call executes:
      the fused chain at a dispatch entry, the rest of the block
      elsewhere, 1 at an escape slot; at a region's header, the most one
      iteration executes (the dispatch loops charge it per call, the
      region settles the difference through :attr:`allowance`).  Fixed
      at construction.
    * :attr:`call_bound` -- ``max(sizes)``; budget-free dispatch sprees
      divide by it.
    * :attr:`allowance` -- ``[instructions]`` a region may run beyond
      the ``sizes`` entry charged for its call.
    * :meth:`reset` / :meth:`fold_into` -- zero the per-unit counters at
      run start / fold their deltas into the per-instruction array.
    * :attr:`blocks` -- the leader partition, for introspection and the
      formation property tests; :attr:`entries` -- the slots with a
      generated function, sorted; :attr:`region_bids` -- the counters
      regions bump.
    """

    def __init__(self, cpu) -> None:
        self._decoded = cpu._decoded
        self._text_base = cpu.exe.text_base
        self._text_len = len(cpu._decoded)
        self._handlers = cpu._handlers
        self._targets = cpu._targets
        self.leaders = find_leaders(
            self._decoded, self._targets, self._text_base, self._text_len, cpu.exe.data
        )

        # suffix_len[i]: instructions from i to the end of i's block
        decoded = self._decoded
        leaders = self.leaders
        suffix = [1] * self._text_len
        for i in range(self._text_len - 2, -1, -1):
            if not (decoded[i].mnemonic in CONTROL_TRANSFERS or (i + 1) in leaders):
                suffix[i] = suffix[i + 1] + 1
        self.suffix_len = suffix

        #: per-unit entry counters / fold watermarks / member segments /
        #: instructions per entry
        self.bcounts: list[int] = []
        self._folded: list[int] = []
        self.members: list[tuple[tuple[int, int], ...]] = []
        self._unit_sizes: list[int] = []
        #: the units that run inside region functions
        self.region_bids: list[int] = []
        #: [units run through the threaded handlers because a guard failed]
        self._misses = [0]
        #: [a region's instruction allowance]: the dispatch loops set it,
        #: each region call spends from it (see ``Codegen.emit_region``)
        self.allowance = [0]

        #: cumulative generated-code cost, split into building the source
        #: (block analysis and emission) and compiling it (``compile()``,
        #: running the module and binding its functions); always-on -- a
        #: couple of perf_counter calls around each batch, nothing in
        #: dispatch
        self.source_seconds = 0.0
        self.compile_seconds = 0.0
        #: watermark for :meth:`consume_stats`
        self._obs_seen: dict[str, float] = {}

        escapes = cpu._handlers[self._text_len:]
        self.fns = [None] * self._text_len + escapes
        self.sizes = suffix + [1] * len(escapes)

        stack, data = cpu._windows
        self._ns = {
            **cpu._ns,
            "BC": self.bcounts,
            "N": self.allowance,
            "SW": memoryview(stack[1]).cast("I"),
            "SB": stack[1],
            "DW": memoryview(data[1]).cast("I") if data else None,
            "DB": data[1] if data else None,
            "G": self._guard_miss_handler(),
            "F": _fault_write_back(cpu.regs, cpu._hilo),
        }
        self._cg = Codegen(
            decoded, self._text_base, self._text_len, cpu.profile,
            cpu._targets, (stack[0], len(stack[1])),
            (data[0], len(data[1])) if data else None,
        )
        self._build_units(cpu.exe)
        self.call_bound = max(self.sizes, default=1)

    # -- public surface ----------------------------------------------------

    @property
    def blocks(self) -> list[tuple[int, int]]:
        """The leader partition as (start index, length), sorted.

        Chain fusion never changes the partition -- it only changes how
        many partition blocks one generated call executes.
        """
        return [(leader, self.suffix_len[leader]) for leader in sorted(self.leaders)]

    def reset(self) -> None:
        bcounts = self.bcounts
        folded = self._folded
        for i in range(len(bcounts)):
            bcounts[i] = 0
            folded[i] = 0

    def fold_into(self, counts: list[int]) -> None:
        """Fold every unit's entry delta into the per-instruction counters."""
        bcounts = self.bcounts
        folded = self._folded
        members = self.members
        for bid, count in enumerate(bcounts):
            delta = count - folded[bid]
            if delta:
                folded[bid] = count
                for start, length in members[bid]:
                    for i in range(start, start + length):
                        counts[i] += delta

    @property
    def guard_misses(self) -> int:
        """Units run through the threaded handlers because a guard failed."""
        return self._misses[0]

    def _guard_miss_handler(self):
        """The ``G`` of generated code: run the unit in slot *index*
        through the threaded handlers after an entry guard failed.

        It bumps the unit's counter as the unit would have, so the fold
        stays exact, and steps exactly the unit's instructions.  A closure
        over the tables it needs, not a bound method: generated code must
        not reference the table, or every ``Cpu`` would wait for the
        cycle collector to be freed.
        """
        bcounts = self.bcounts
        unit_sizes = self._unit_sizes
        handlers = self._handlers
        misses = self._misses

        def miss(bid: int, index: int) -> int:
            bcounts[bid] += 1
            misses[0] += 1
            for _ in repeat(None, unit_sizes[bid]):
                index = handlers[index]()
            return index

        return miss

    # -- telemetry (run-end introspection; nothing here runs in dispatch) ----

    def instructions_in_blocks(self) -> int:
        """Instructions the generated units executed in this run.

        Whatever remains of ``RunResult.steps`` was single-stepped
        through the threaded handlers.  ``bcounts`` reset at run start
        and survive folds (the fold uses watermarks), so this is exact
        per run.
        """
        unit_sizes = self._unit_sizes
        return sum(count * unit_sizes[bid]
                   for bid, count in enumerate(self.bcounts) if count)

    def instructions_in_regions(self) -> int:
        """Instructions this run executed inside region functions, from
        the same counters (a guard miss at region entry counts too)."""
        bcounts = self.bcounts
        unit_sizes = self._unit_sizes
        return sum(bcounts[bid] * unit_sizes[bid] for bid in self.region_bids)

    def consume_stats(self) -> dict:
        """Telemetry deltas since the previous call.

        The underlying attributes (``source_seconds``, the code
        generator's emit counters, ...) are cumulative over the table's
        lifetime and shared with introspection; the watermark here lets
        per-run metrics charge each run only its own share.
        """
        stats = {
            "source_seconds": self.source_seconds,
            "compile_seconds": self.compile_seconds,
            "codegen_units": self._cg.units_emitted,
            "codegen_lines": self._cg.lines_emitted,
            "codegen_chars": self._cg.chars_emitted,
            "guard_misses": self.guard_misses,
        }
        seen = self._obs_seen
        self._obs_seen = stats
        return {key: value - seen.get(key, 0) for key, value in stats.items()}

    # -- construction ------------------------------------------------------

    def _chain_segments(self, start: int) -> list[tuple[int, int]]:
        """The fused j-chain starting at *start*, as (start, length) runs.

        Follows unconditional ``j``/``jal`` terminators with static
        in-text targets; stops at any other terminator, at a revisit
        (self-loops must dispatch, or the generated unit would never
        return), and at the fusion caps.
        """
        segments: list[tuple[int, int]] = []
        seen: set[int] = set()
        current = start
        total = 0
        while True:
            length = self.suffix_len[current]
            segments.append((current, length))
            seen.add(current)
            total += length
            last = self._decoded[current + length - 1]
            if (last.mnemonic not in ("j", "jal")
                    or len(segments) >= _CHAIN_MAX_BLOCKS
                    or total >= _CHAIN_MAX_INSTRS):
                break
            t_idx = self._targets[current + length - 1]
            if t_idx >= self._text_len or t_idx in seen:
                break
            current = t_idx
        return segments

    def _new_bid(self, segments) -> int:
        bid = len(self.members)
        self.members.append(tuple(segments))
        self._unit_sizes.append(sum(length for _, length in segments))
        self.bcounts.append(0)
        self._folded.append(0)
        return bid

    def _dispatch_entries(self, roots):
        """The dispatch entries reachable from *roots*, with their chains
        and their in-text static exits.

        Closes *roots* over each unit's static exits: the successors of
        its last instruction, within the text.  ``jr``/``jalr`` have none
        (their targets are roots), ``break``/``syscall`` neither.  Also
        returns the units whose control stays static (a branch, a ``j``
        or a fall-through ends them), the ones a loop region may hold.
        """
        decoded = self._decoded
        text_len = self._text_len
        chains: dict[int, list[tuple[int, int]]] = {}
        exits: dict[int, list[int]] = {}
        closed: set[int] = set()
        work = list(roots)
        while work:
            start = work.pop()
            if start in chains:
                continue
            segments = chains[start] = self._chain_segments(start)
            last = segments[-1][0] + segments[-1][1] - 1
            m = decoded[last].mnemonic
            if m in BRANCHES or m == "j" or m not in CONTROL_TRANSFERS:
                closed.add(start)
            exits[start] = [t for t in self._successors(last) if 0 <= t < text_len]
            work.extend(t for t in exits[start] if t not in chains)
        return chains, exits, closed

    def _successors(self, last: int) -> list[int]:
        """Static successors of a block ending at index *last*: a branch's
        target slot and fall-through, a ``j``/``jal`` target slot, the
        next index after a non-transfer; none after
        ``jr``/``jalr``/``break``/``syscall``.  A target outside the text
        is its escape slot, past the end."""
        m = self._decoded[last].mnemonic
        if m in BRANCHES:
            return [self._targets[last], last + 1]
        if m == "j" or m == "jal":
            return [self._targets[last]]
        return [] if m in CONTROL_TRANSFERS else [last + 1]

    def _region_nodes(self, header: int, body: set[int], chains) -> dict:
        """The blocks of a loop's member units as the region's nodes.

        Members are chains, and two chains may hold the same block (a
        ``j`` target fused into one arm of an ``if``), so the region runs
        blocks instead, each once, and fuses a block into its
        predecessor when that predecessor ends in an unconditional
        transfer to it and is its only predecessor in the loop (the
        header starts a node).  Returns node start -> segments.
        """
        blocks = {start for unit in body for start, _ in chains[unit]}
        succs = {}
        preds = dict.fromkeys(blocks, 0)
        for start in blocks:
            succs[start] = self._successors(start + self.suffix_len[start] - 1)
            for target in succs[start]:
                if target in preds:
                    preds[target] += 1
        fused = {targets[0] for targets in succs.values() if len(targets) == 1
                 and targets[0] != header and preds.get(targets[0]) == 1}
        nodes = {}
        for start in blocks - fused:
            segments = [(start, self.suffix_len[start])]
            current = start
            while len(succs[current]) == 1 and succs[current][0] in fused \
                    and len(segments) <= len(blocks):
                current = succs[current][0]
                segments.append((current, self.suffix_len[current]))
            nodes[start] = segments
        return nodes

    def _build_units(self, exe) -> None:
        """Generate a function per dispatch slot, compiled in batches."""
        started = perf_counter()
        compiled = self.compile_seconds
        entries: list[int] = []
        lines: list[str] = []
        starts: list[int] = []  # the functions in this batch
        chars = 0
        for start, function in self._functions(exe):
            entries.append(start)
            size = sum(map(len, function)) + len(function)
            if chars + size >= 2 * _BATCH_MAX_CHARS and starts:
                self._compile_batch(lines, starts)
                lines, starts, chars = [], [], 0
            lines += function
            starts.append(start)
            chars += size
            if chars >= _BATCH_MAX_CHARS:
                self._compile_batch(lines, starts)
                lines, starts, chars = [], [], 0
        if starts:
            self._compile_batch(lines, starts)
        #: the dispatch slots with a generated function, sorted: every
        #: dispatch entry outside a region, and each region's header
        self.entries = sorted(entries)
        self.source_seconds += (perf_counter() - started
                                - (self.compile_seconds - compiled))

    def _functions(self, exe):
        """Yield ``(slot, source lines)`` for every generated function.

        Each innermost loop that fits becomes one region function in its
        header's slot, and its other members get no slot (see
        :meth:`Codegen.emit_region`); every other dispatch entry gets its
        unit, unless its block runs at most once
        (:func:`~repro.sim.superblock.leaders.run_once_leaders`): that
        slot stays ``None`` and the dispatch loops single-step it.
        """
        decoded, text_base, text_len = self._decoded, self._text_base, self._text_len
        roots = dispatch_roots(decoded, exe.entry, text_base, text_len, exe.data)
        chains, exits, closed = self._dispatch_entries(roots)
        once = run_once_leaders(decoded, self._targets, self.leaders,
                                self.suffix_len, exe.entry, text_base, exe.data)
        cg = self._cg
        claimed: set[int] = set()
        for header, body in sorted(find_loops(exits, roots, closed).items()):
            nodes = self._region_nodes(header, body, chains)
            emitted = cg.emit_region(f"_b{header}", header, nodes,
                                     len(self.members), "    ")
            if emitted is None:
                continue
            lines, self.sizes[header], groups = emitted
            for segments in groups:
                self.region_bids.append(self._new_bid(segments))
            claimed |= body
            yield header, lines
        for start in sorted(chains):
            if start not in claimed and start not in once:
                segments = chains[start]
                bid = self._new_bid(segments)
                self.sizes[start] = self._unit_sizes[bid]
                yield start, cg.emit_unit(f"_b{start}", segments, bid, "    ")

    def _compile_batch(self, lines: list[str], starts: list[int]) -> None:
        """Compile one batch of units and install their functions."""
        names = ", ".join(f"_b{start}" for start in starts)
        source = "\n".join([_FACTORY, *lines, f"    return ({names},)\n"])
        started = perf_counter()
        namespace: dict = {}
        exec(compile(source, "<superblocks>", "exec"), namespace)
        fns = namespace["_factory"](**self._ns)
        for start, fn in zip(starts, fns):
            self.fns[start] = fn
        self.compile_seconds += perf_counter() - started


def _fault_write_back(regs: list[int], hilo: list[int]):
    """The ``F`` of generated code: after a fault inside a region, store
    its register locals (``x{reg}``: a region loads every register it
    touches at entry, so the ones it only reads store their own value),
    and HI and LO when the region keeps them, so the machine state is
    exact at the faulting instruction."""

    def write_back(names: dict) -> None:
        for name, value in names.items():
            if name[0] == "x":
                regs[int(name[1:])] = value
        if "_hi" in names:
            hilo[0], hilo[1] = names["_hi"], names["_lo"]

    return write_back
