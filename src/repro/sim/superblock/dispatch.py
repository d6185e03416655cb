"""The superblock dispatch table: leader units compiled in bounded batches.

All leader blocks are emitted as generated Python source and
``compile()``d in a few batches, each capped at ``_BATCH_MAX_CHARS``
characters of source: one code object per batch instead of one closure
chain per block, so the dispatch loop's ``fns[index]()`` calls land on
functions that share a module and its constant pool, while the
compiler's transient memory stays bounded by the batch, not the
program.  Generation is eager: the suite's programs execute almost all
of their text (95.6% of ``static_suite``'s), so lazy generation would
save little and pay ~1 ms of fixed ``compile()`` cost per module.  Two
layers sit on that substrate:

* **j-chain fusion**: a leader whose block ends in an unconditional
  ``j``/``jal`` with a static in-text target *inlines* the target block
  (and so on, bounded), so the fused jump costs at most a deferred link
  write instead of a dispatch round-trip.  The unit's entry counter
  covers every member segment; :meth:`fold_into` expands it exactly.
* **cold-counter spill**: a unit whose counter shows no delta for
  ``spill_after`` consecutive folds is dropped from the fold scan (its
  counter increment is "spilled" out of the observation path) and its
  slot is replaced by a reheat stub; if the block runs again the stub
  re-installs the counting function *first* and tail-calls it, so
  per-instruction counts stay exact even under sampling hooks.  The win
  is fold cost: long-running sampled workloads (the :mod:`repro.dynamic`
  drivers fold every few thousand instructions) scan only the live hot
  set instead of every unit ever created.

Exactness contract: a unit either runs to its end or raises at a
terminator, every generated function starts by bumping its ``BC``
counter, and at every observation point the deltas fold into the
per-instruction ``counts`` array the rest of the simulator derives
statistics from.
"""

from __future__ import annotations

from time import perf_counter

from repro.errors import SimulationError
from repro.sim.cpu import _Halt
from repro.sim.superblock.codegen import FACTORY as _FACTORY
from repro.sim.superblock.codegen import Codegen
from repro.sim.superblock.leaders import CONTROL_TRANSFERS, find_leaders

__all__ = ["SuperblockTable"]

#: j-chain fusion bounds: chains stop after this many fused blocks or
#: this many total instructions, keeping generated units (and the
#: sampled path's whole-unit budget check) reasonably sized
_CHAIN_MAX_BLOCKS = 8
_CHAIN_MAX_INSTRS = 192

#: leader units are compiled in batches of at most about this many
#: source characters: ``compile()``'s transient memory grows with the
#: module, and at this size it stays a few MB even for the largest
#: program (one 200 k-character module peaks near 20 MB)
_BATCH_MAX_CHARS = 16_000


class SuperblockTable:
    """Block structure + generated unit functions for one :class:`Cpu`.

    Public surface used by the dispatch loops:

    * ``fns[index]`` -- the generated function for every handler slot
      (escape slots reuse the threaded escape handlers); ``None`` marks a
      mid-block index nobody has jumped to yet.
    * ``sizes[index]`` -- instructions one ``fns[index]`` call executes:
      the fused chain at a leader, the rest of the block mid-block, 1 at
      an escape slot.  Fixed at construction.
    * :attr:`call_bound` -- ``max(sizes)``; budget-free dispatch sprees
      divide by it.
    * :meth:`materialize` -- build the suffix unit for a dynamic jump to
      a mid-block index (unsampled runs only).
    * :meth:`reset` / :meth:`fold_into` -- zero the per-unit counters at
      run start / fold their deltas into the per-instruction array.
    * :attr:`blocks` -- the leader partition, for introspection and the
      formation property tests.
    """

    def __init__(self, cpu) -> None:
        self._decoded = cpu._decoded
        self._text_base = cpu.exe.text_base
        self._text_len = len(cpu._decoded)
        self._spill_after = cpu._spill_after
        self.leaders = find_leaders(
            self._decoded, self._text_base, self._text_len, cpu.exe.data
        )

        # suffix_len[i]: instructions from i to the end of i's block
        decoded = self._decoded
        leaders = self.leaders
        suffix = [1] * self._text_len
        for i in range(self._text_len - 2, -1, -1):
            if decoded[i].mnemonic in CONTROL_TRANSFERS or (i + 1) in leaders:
                suffix[i] = 1
            else:
                suffix[i] = suffix[i + 1] + 1
        self.suffix_len = suffix

        #: per-unit entry counters / fold watermarks / member segments
        self.bcounts: list[int] = []
        self._folded: list[int] = []
        self.members: list[tuple[tuple[int, int], ...]] = []
        #: bids the fold scan visits; cold units are removed (spilled)
        self.live: list[int] = []
        self._cold: list[int] = []
        #: per unit: its dispatch slot and its counting function
        self._home: list[int] = []
        self._counting: list = []
        self.spilled = 0
        self.reheats = 0

        #: cumulative generated-code cost (leader build, materialize);
        #: always-on -- a couple of perf_counter calls around each rare
        #: compile, nothing in dispatch
        self.codegen_seconds = 0.0
        #: watermark for :meth:`consume_stats`
        self._obs_seen: dict[str, float] = {}

        fns = list(cpu._handlers)
        sizes = [1] * len(fns)
        for i in range(self._text_len):
            fns[i] = None
            sizes[i] = suffix[i]
        self.fns = fns
        self.sizes = sizes

        memory = cpu.memory
        stack, data = cpu._windows
        self._ns = {
            "R": cpu.regs,
            "T": cpu._taken,
            "BC": self.bcounts,
            "HL": cpu._hilo,
            "DE": cpu._dyn_edges,
            "r8": memory.read_u8,
            "r16": memory.read_u16,
            "r32": memory.read_u32,
            "w8": memory.write_u8,
            "w16": memory.write_u16,
            "w32": memory.write_u32,
            "SW": memoryview(stack[1]).cast("I"),
            "SB": stack[1],
            "DW": memoryview(data[1]).cast("I") if data else None,
            "DB": data[1] if data else None,
            "Halt": _Halt,
            "Err": SimulationError,
        }
        self._cg = Codegen(
            decoded, self._text_base, self._text_len, cpu.profile,
            cpu._escape_slots, (stack[0], len(stack[1])),
            (data[0], len(data[1])) if data else None,
        )
        self._build_leader_units()
        self.call_bound = max(sizes, default=1)

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
        cold = self._cold
        for i in range(len(bcounts)):
            bcounts[i] = 0
            folded[i] = 0
            cold[i] = 0

    def fold_into(self, counts: list[int]) -> None:
        """Fold per-unit entry deltas into the per-instruction counters.

        Only :attr:`live` units are scanned.  A unit with no delta for
        ``spill_after`` consecutive folds is spilled: removed from the
        scan and stubbed so it re-registers itself if it ever reheats.
        """
        bcounts = self.bcounts
        folded = self._folded
        members = self.members
        cold = self._cold
        spill_after = self._spill_after
        spills = None
        for bid in self.live:
            delta = bcounts[bid] - folded[bid]
            if delta:
                folded[bid] = bcounts[bid]
                for start, length in members[bid]:
                    for i in range(start, start + length):
                        counts[i] += delta
                cold[bid] = 0
            elif spill_after:
                streak = cold[bid] + 1
                cold[bid] = streak
                if streak >= spill_after:
                    if spills is None:
                        spills = []
                    spills.append(bid)
        if spills:
            for bid in spills:
                self._spill(bid)

    def materialize(self, index: int):
        """Generate the suffix unit for a dynamic jump to mid-block *index*.

        Only ever called by the unsampled loop, for indices whose slot
        is still ``None`` -- leaders are populated at build time, and the
        sampled loop single-steps to the next leader instead.  Suffix
        units are never chain-fused: a later sampled run on the same
        ``Cpu`` budget-checks ``sizes[index]`` before calling one, so the
        generated unit must execute exactly ``suffix_len`` steps.
        """
        segments = ((index, self.suffix_len[index]),)
        bid = self._new_bid(segments, index)
        started = perf_counter()
        source = _FACTORY + "\n"
        source += "\n".join(self._cg.emit_unit("_b", segments, bid, "    ")) + "\n"
        source += "    return _b\n"
        namespace: dict = {}
        exec(compile(source, f"<superblock@{index}>", "exec"), namespace)
        fn = namespace["_factory"](**self._ns)
        self.codegen_seconds += perf_counter() - started
        self.fns[index] = fn
        self._counting[bid] = fn
        return fn

    # -- telemetry (run-end introspection; nothing here runs in dispatch) ----

    def instructions_in_blocks(self) -> int:
        """Instructions the generated units executed in this run.

        Whatever remains of ``RunResult.steps`` was single-stepped
        through the threaded handlers.  ``bcounts`` reset at run start
        and survive folds (the fold uses watermarks), so this is exact
        per run.
        """
        members = self.members
        return sum(
            count * sum(length for _, length in members[bid])
            for bid, count in enumerate(self.bcounts) if count
        )

    def consume_stats(self) -> dict:
        """Telemetry deltas since the previous call.

        The underlying attributes (``spilled``, ``reheats``,
        ``codegen_seconds``, ...) are cumulative over the table's
        lifetime and shared with introspection; the watermark here lets
        per-run metrics charge each run only its own share.
        """
        stats = {
            "spills": self.spilled,
            "reheats": self.reheats,
            "codegen_seconds": self.codegen_seconds,
            "codegen_units": self._cg.units_emitted,
            "codegen_lines": self._cg.lines_emitted,
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
            pc = self._text_base + ((current + length - 1) << 2)
            t_pc = ((pc + 4) & 0xF000_0000) | (last.target << 2)
            t_idx = (t_pc - self._text_base) >> 2
            if not 0 <= t_idx < self._text_len or t_idx in seen:
                break
            current = t_idx
        return segments

    def _new_bid(self, segments, home: int) -> int:
        bid = len(self.members)
        self.members.append(tuple(segments))
        self.bcounts.append(0)
        self._folded.append(0)
        self._cold.append(0)
        self._home.append(home)
        self._counting.append(None)
        self.live.append(bid)
        return bid

    def _build_leader_units(self) -> None:
        """Generate a function per leader chain, compiled in batches."""
        started = perf_counter()
        lines: list[str] = []
        units: list[tuple[int, int]] = []  # (start, bid) in this batch
        chars = 0
        for start in sorted(self.leaders):
            segments = self._chain_segments(start)
            bid = self._new_bid(segments, start)
            unit = self._cg.emit_unit(f"_b{start}", segments, bid, "    ")
            unit.append(f"    fns[{start}] = _b{start}")
            lines.extend(unit)
            units.append((start, bid))
            self.sizes[start] = sum(n for _, n in segments)
            chars += sum(map(len, unit)) + len(unit)
            if chars >= _BATCH_MAX_CHARS:
                self._compile_batch(lines, units)
                lines, units, chars = [], [], 0
        if units:
            self._compile_batch(lines, units)
        self.codegen_seconds += perf_counter() - started

    def _compile_batch(self, lines: list[str], units) -> None:
        """Compile one batch of leader units and install their functions."""
        source = "\n".join([_FACTORY, "    fns = {}", *lines, "    return fns\n"])
        namespace: dict = {}
        exec(compile(source, "<superblocks>", "exec"), namespace)
        fns = namespace["_factory"](**self._ns)
        for start, bid in units:
            self.fns[start] = fns[start]
            self._counting[bid] = fns[start]

    # -- cold-counter spill --------------------------------------------------

    def _spill(self, bid: int) -> None:
        home = self._home[bid]
        counting = self._counting[bid]
        fns = self.fns
        cold = self._cold
        live = self.live
        table = self

        def reheat():
            # re-install the counting fn *before* executing, so the unit
            # is counted from this very call and rejoins the fold scan
            fns[home] = counting
            cold[bid] = 0
            live.append(bid)
            table.reheats += 1
            return counting()

        fns[home] = reheat
        live.remove(bid)
        self.spilled += 1
