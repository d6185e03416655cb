"""Property tests for superblock formation.

The invariants the dispatch rewrite stands on:

* the leader blocks partition the text section exactly -- every decoded
  instruction belongs to exactly one block;
* a block never continues past a control transfer (only its last
  instruction may be one), and a block ends either at a control transfer
  or immediately before another block's leader;
* every in-text static branch/jump target is a leader, and every
  jump-table entry found in the data section is a leader, so indirect
  switch dispatch always lands on a block start;
* a dynamic jump into the *middle* of a block (hand-written assembly can
  do what the compiler never does) is single-stepped through the threaded
  handlers, generates no code, and still produces bit-identical
  statistics;
* a run that exhausts *max_steps* stops on the same step and pc as the
  reference, and the cold-counter spill keeps every counter exact.
"""

import gc
import weakref

import pytest

from repro.compiler import compile_source
from repro.errors import SimulationError
from repro.isa import assemble
from repro.isa.encoding import decode
from repro.programs import get_benchmark
from repro.sim import run_executable, run_reference
from repro.sim.cpu import Cpu
from repro.sim.superblock import CONTROL_TRANSFERS, dispatch

from tests.sim.test_differential import assert_identical, random_program

_SWITCH = """
int results[8];
int checksum;
int classify(int x) {
    switch (x) {
    case 0: return 11;
    case 1: return 22;
    case 2: return 33;
    case 3: return 44;
    case 4: return 55;
    case 5: return 66;
    default: return -1;
    }
}
int main(void) {
    int i;
    for (i = 0; i < 8; i++) results[i] = classify(i);
    checksum = results[0] + results[3] * 10 + results[7] * 100;
    return 0;
}
"""


def _executables():
    """A spread of shapes: benchmarks, a jump-table switch, fuzzed programs."""
    cases = [
        ("brev", compile_source(get_benchmark("brev").source, opt_level=1)),
        ("adpcm", compile_source(get_benchmark("adpcm").source, opt_level=2)),
        ("switch", compile_source(_SWITCH, opt_level=1)),
    ]
    for seed in (0, 5, 11):
        cases.append(
            (f"fuzz{seed}", compile_source(random_program(seed), opt_level=seed % 4))
        )
    return cases


@pytest.fixture(scope="module", params=_executables(), ids=lambda case: case[0])
def cpu(request):
    return Cpu(request.param[1], profile=True)


class TestPartition:
    def test_blocks_cover_text_exactly_once(self, cpu):
        blocks = cpu.superblocks
        text_len = len(cpu.exe.text_words)
        assert blocks[0][0] == 0
        position = 0
        for start, length in blocks:
            assert start == position, "blocks must be contiguous"
            assert length >= 1
            position += length
        assert position == text_len, "blocks must cover the whole text section"

    def test_blocks_end_only_at_transfers_or_leaders(self, cpu):
        decoded = [decode(word) for word in cpu.exe.text_words]
        leaders = {start for start, _ in cpu.superblocks}
        text_len = len(decoded)
        for start, length in cpu.superblocks:
            for index in range(start, start + length - 1):
                assert decoded[index].mnemonic not in CONTROL_TRANSFERS, (
                    f"control transfer at {index} inside block {start}+{length}"
                )
            end = start + length
            last = decoded[end - 1]
            assert (
                last.mnemonic in CONTROL_TRANSFERS
                or end == text_len
                or end in leaders
            ), f"block {start}+{length} ends for no reason"

    def test_static_targets_are_leaders(self, cpu):
        exe = cpu.exe
        decoded = [decode(word) for word in exe.text_words]
        leaders = {start for start, _ in cpu.superblocks}
        text_len = len(decoded)
        for index, instr in enumerate(decoded):
            m = instr.mnemonic
            if m in ("beq", "bne", "blez", "bgtz", "bltz", "bgez"):
                target = index + 1 + instr.imm
            elif m in ("j", "jal"):
                pc = exe.text_base + 4 * index
                t_pc = ((pc + 4) & 0xF000_0000) | (instr.target << 2)
                target = (t_pc - exe.text_base) >> 2
            else:
                continue
            if 0 <= target < text_len:
                assert target in leaders, f"{m}@{index} target {target} not a leader"
            if index + 1 < text_len:
                assert index + 1 in leaders, f"fall-through of {m}@{index}"


class TestJumpTables:
    def test_jump_table_targets_start_blocks(self):
        exe = compile_source(_SWITCH, opt_level=1)
        cpu = Cpu(exe, profile=True)
        leaders = {start for start, _ in cpu.superblocks}
        text_end = exe.text_base + 4 * len(exe.text_words)
        table_targets = []
        for offset in range(0, len(exe.data) - 3, 4):
            word = int.from_bytes(exe.data[offset:offset + 4], "little")
            if not word & 3 and exe.text_base <= word < text_end:
                table_targets.append((word - exe.text_base) >> 2)
        # the dense 6-case switch must have produced a table
        assert len(table_targets) >= 6, "switch did not lower to a jump table"
        for target in table_targets:
            assert target in leaders, f"jump-table target {target} not a leader"

    def test_switch_dispatch_bit_identical(self):
        exe = compile_source(_SWITCH, opt_level=1)
        ref = run_reference(exe, profile=True)
        for engine in ("threaded", "superblock"):
            cpu, got = run_executable(exe, profile=True, engine=engine)
            assert_identical(got, ref, engine)
            # case 0 -> 11, case 3 -> 44, default(7) -> -1
            assert cpu.read_word_global_signed("checksum") == 11 + 44 * 10 - 100


class TestDynamicMidBlockEntry:
    #: jr lands on the *second* instruction of a straight-line run -- an
    #: index no leader analysis can predict, so its slot stays empty
    _ASM = """    la $t0, spot
    addiu $t0, $t0, 4
    jr $t0
spot:
    addiu $s0, $s0, 100
    addiu $s0, $s0, 10
    addiu $s0, $s0, 1
    la $t1, total
    sw $s0, 0($t1)
    break
.data
total: .word 0
"""

    def test_mid_block_jump_matches_reference(self):
        exe = assemble(f".text\n_start:\n{self._ASM}")
        ref = run_reference(exe, profile=True)
        cpu, got = run_executable(exe, profile=True, engine="superblock")
        assert_identical(got, ref)
        # the jr skipped the first addiu: 100 must be missing
        assert cpu.read_word_global_signed("total") == 11

    def test_mid_block_target_is_single_stepped(self):
        exe = assemble(f".text\n_start:\n{self._ASM}")
        cpu = Cpu(exe, profile=True)
        leaders = {start for start, _ in cpu.superblocks}
        entry_index = (exe.symbols["spot"].address - exe.text_base) // 4 + 1
        assert entry_index not in leaders, "test requires a true mid-block target"
        units = cpu._sb._cg.units_emitted
        cpu.run()
        # the unsampled loop stepped through the slot: it is still empty
        # and the run generated no unit
        assert cpu._sb.fns[entry_index] is None
        assert cpu._sb._cg.units_emitted == units
        assert cpu.read_word_global_signed("total") == 11


#: a hot counted loop with a biased branch and a trailing cold phase
_LOOP_SOURCE = """
int data[32];
int checksum;
int main(void) {
    int i; int r; int acc;
    acc = 7;
    for (r = 0; r < 400; r++) {
        for (i = 0; i < 32; i++) {
            if (data[i] < 1000)
                data[i] = data[i] * 3 + r;
            else
                data[i] = data[i] >> 1;
            acc = acc + data[i];
        }
    }
    checksum = acc + data[5];
    return 0;
}
"""


@pytest.fixture(scope="module")
def loop_reference():
    exe = compile_source(_LOOP_SOURCE, opt_level=1)
    return exe, run_reference(exe, profile=True)


class TestExactness:
    @pytest.mark.parametrize("budget", [1, 97, 5000, 50_001])
    def test_max_steps_budget_is_exact(self, budget):
        # a run that exceeds its budget must stop on the same step with
        # the same pc whether a chain dispatches many instructions per
        # call or the reference single-steps
        exe = compile_source(_LOOP_SOURCE, opt_level=1)
        with pytest.raises(SimulationError) as ref_err:
            run_reference(exe, profile=True, max_steps=budget)
        with pytest.raises(SimulationError) as got_err:
            Cpu(exe, profile=True).run(max_steps=budget)
        assert str(got_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("interval", [7, 97, 997])
    def test_sampled_run_is_exact(self, interval, loop_reference):
        # the prologue and outer-loop units go quiet after the first
        # chunks while the inner loop's units count at every fold; every
        # unit is folded at every boundary, so the result stays exact
        exe, ref = loop_reference
        got = Cpu(exe, profile=True).run(
            sample_interval=interval, on_sample=lambda counts, taken: None)
        assert_identical(got, ref, f"interval {interval}")

    @pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
    def test_loop_exit_every_iteration_is_exact(self, opt_level):
        # the inner loop runs once or twice per outer iteration, so its
        # backward branch exits almost every time it is tested
        exe = compile_source(_SHORT_INNER_LOOP, opt_level=opt_level)
        ref = run_reference(exe, profile=True)
        got = Cpu(exe, profile=True).run()
        assert_identical(got, ref, f"-O{opt_level}")

    def test_memory_matches_threaded(self):
        exe = compile_source(_LOOP_SOURCE, opt_level=1)
        block, _ = run_executable(exe)
        plain, _ = run_executable(exe, engine="threaded")
        assert block.read_word_global_signed("checksum") \
            == plain.read_word_global_signed("checksum")


class TestBatchedCompile:
    """Dispatch-entry units compile in batches of bounded source size."""

    def test_large_program_compiles_in_bounded_batches(self, monkeypatch):
        batches = []
        compile_batch = dispatch.SuperblockTable._compile_batch

        def spy(table, lines, units):
            batches.append(sum(map(len, lines)) + len(lines))
            compile_batch(table, lines, units)

        monkeypatch.setattr(dispatch.SuperblockTable, "_compile_batch", spy)
        exe = compile_source(get_benchmark("sobel").source, opt_level=3)
        ref = run_reference(exe, profile=True)
        got = Cpu(exe, profile=True).run()
        assert_identical(got, ref)
        assert len(batches) > 1
        # a batch closes at the first unit that takes it past the bound
        assert all(size < 2 * dispatch._BATCH_MAX_CHARS for size in batches)

    def test_one_unit_per_batch_is_exact(self, monkeypatch):
        monkeypatch.setattr(dispatch, "_BATCH_MAX_CHARS", 1)
        exe = compile_source(get_benchmark("adpcm").source, opt_level=3)
        ref = run_reference(exe, profile=True)
        cpu = Cpu(exe, profile=True)
        # one unit per dispatch entry, not per leader: callee entries are
        # fused into their callers' chains
        assert cpu._sb.consume_stats()["codegen_units"] == len(cpu._sb.entries)
        assert len(cpu._sb.entries) < len(cpu.superblocks)
        assert_identical(cpu.run(), ref)


def test_a_dropped_cpu_is_freed_without_the_cycle_collector():
    # generated code must not reference its table: a cycle would keep
    # every Cpu's code and windows alive until the collector runs
    exe = compile_source(get_benchmark("crc").source, opt_level=1)
    gc.disable()
    try:
        cpu = Cpu(exe, profile=True)
        cpu.run()
        table = weakref.ref(cpu._sb)
        del cpu
        assert table() is None
    finally:
        gc.enable()


#: an inner loop whose trip count alternates between one and two
_SHORT_INNER_LOOP = """
int data[16];
int checksum;
int main(void) {
    int i; int r; int n;
    for (r = 0; r < 3000; r++) {
        n = (r & 1) + 1;
        for (i = 0; i < n; i++)
            data[i & 15] = data[i & 15] + r - i;
    }
    checksum = data[0] + data[1];
    return 0;
}
"""
