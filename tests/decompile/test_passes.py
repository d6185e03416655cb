"""Decompilation pass tests: each pass removes what the paper says it
removes, and the CDFG interpreter confirms semantics after every pass."""

import copy
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.compiler import compile_source, CompilerOptions
from repro.decompile import decompile
from repro.decompile.cfg import ControlFlowGraph
from repro.decompile.dataflow import liveness, ops_use_def
from repro.decompile.decompiler import DecompilationOptions
from repro.decompile.interp import CdfgInterpreter
from repro.decompile.microop import CALL_CLOBBERED, ZERO, Imm, Opcode
from repro.decompile.passes import constprop, dce
from repro.errors import DecompilationError
from repro.isa.assembler import assemble
from repro.sim import run_executable


def _decompiled(source: str, opt_level: int = 1, options=None):
    exe = compile_source(source, opt_level=opt_level)
    program = decompile(exe, options)
    assert program.recovered, program.failures
    return exe, program


def _equivalent(exe, program, symbol="checksum"):
    cpu, _ = run_executable(exe)
    expected = cpu.read_word_global_signed(symbol)
    interp = CdfgInterpreter(program)
    interp.run_main()
    value = interp.memory.read_u32(exe.symbols[symbol].address)
    value = value - 0x1_0000_0000 if value & 0x8000_0000 else value
    assert value == expected, f"decompiled {value} != simulated {expected}"


class TestConstantPropagation:
    def test_removes_register_move_idiom(self):
        # a chain of moves (addiu rd, rs, 0) collapses to nothing
        source = """
        int checksum;
        int pass_through(int x) { int a = x; int b = a; int c = b; return c; }
        int main(void) { checksum = pass_through(42); return 0; }
        """
        exe, program = _decompiled(source)
        stats = program.total_stats()
        assert stats.moves_recovered > 0
        assert stats.final_ops < stats.lifted_ops
        _equivalent(exe, program)

    def test_address_materialization_folds_to_absolute(self):
        source = """
        int g;
        int checksum;
        int main(void) { g = 7; checksum = g; return 0; }
        """
        exe, program = _decompiled(source)
        main_cfg = program.functions["main"].cfg
        # lui/ori pairs became absolute-addressed loads/stores (Imm base)
        stores = [
            op for op in main_cfg.all_ops() if op.opcode is Opcode.STORE
        ]
        assert stores and all(isinstance(op.b, Imm) for op in stores)
        _equivalent(exe, program)

    def test_folds_constant_branches_dead_code(self):
        source = """
        int checksum;
        int main(void) {
            if (3 > 5) checksum = 111;
            else checksum = 222;
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=0)  # keep the branch in the binary
        _equivalent(exe, program)

    def test_meet_drops_a_constant_one_path_lacks(self):
        # `pick` reaches its join with $a0 = 5 on one path and with the
        # caller's $a0 on the other, so $v0 is not a constant there
        exe = assemble(_PICK)
        cpu, _ = run_executable(exe)
        assert cpu.read_word_global_signed("checksum") == 8
        program = decompile(exe)
        assert program.recovered, program.failures
        _equivalent(exe, program)
        pick = program.functions["pick"].cfg
        join = pick.blocks[pick.block_by_start[exe.symbols["pick"].address + 8]]
        assert "R2 = add R4, #1" in [str(op) for op in join.ops]

    def test_a_folded_branch_gives_the_next_iteration_work(self):
        # the branch over `li $a0, 2` is always taken, but only once it is
        # folded and its fall-through block pruned does $a0 reach the join
        # as the constant 1, so $v0 folds in the iteration after the fold
        exe = assemble(_FOLD_THEN_JOIN)
        program = decompile(exe)
        assert program.recovered, program.failures
        _equivalent(exe, program)
        ops = [str(op) for op in program.functions["main"].cfg.all_ops()]
        assert "R2 = #0x2" in ops and "R4 = #0x2" not in ops

    def test_a_zero_product_gives_the_next_iteration_work(self):
        # `and $t0, $t1, $zero` folds to CONST 0 although $t1 is loaded, so
        # only the next iteration sees $t0 as a constant and folds $v0
        exe = assemble(_ZERO_PRODUCT)
        program = decompile(exe)
        assert program.recovered, program.failures
        _equivalent(exe, program)
        ops = [str(op) for op in program.functions["main"].cfg.all_ops()]
        assert "R2 = #0x1" in ops

    def test_solver_reaches_the_order_free_maximal_fixpoint(self):
        # the worklist solver's states are the lattice's unique maximal
        # fixpoint: a naive round-robin solve gives the same states, and so
        # does the worklist itself when every edge list is visited reversed
        checked = 0
        for cfg in _oracle_cfgs():
            states = constprop._solve(cfg)
            assert states == _round_robin_states(cfg), cfg.name
            for block in cfg.blocks:
                block.succs.reverse()
            assert constprop._solve(cfg) == states, cfg.name
            for block in cfg.blocks:
                block.succs.reverse()
            checked += 1
        assert checked > 500


_PICK = """
.text
_start:
    jal main
    break
main:
    addiu $sp, $sp, -8
    sw $ra, 4($sp)
    li $a0, 7
    li $a1, 0
    jal pick
    la $t0, checksum
    sw $v0, 0($t0)
    lw $ra, 4($sp)
    addiu $sp, $sp, 8
    jr $ra
pick:
    beq $a1, $zero, .Lskip
    li $a0, 5
.Lskip:
    addiu $v0, $a0, 1
    jr $ra
.data
checksum: .word 0
"""


_FOLD_THEN_JOIN = """
.text
_start:
    jal main
    break
main:
    li $t0, 3
    li $t1, 5
    li $a0, 1
    slt $t2, $t1, $t0
    beq $t2, $zero, .Ljoin
    li $a0, 2
.Ljoin:
    addiu $v0, $a0, 1
    la $t0, checksum
    sw $v0, 0($t0)
    jr $ra
.data
checksum: .word 0
"""


_ZERO_PRODUCT = """
.text
_start:
    jal main
    break
main:
    la $t2, checksum
    lw $t1, 0($t2)
    and $t0, $t1, $zero
    addiu $v0, $t0, 1
    sw $v0, 0($t2)
    jr $ra
.data
checksum: .word 9
"""


def _round_robin_states(cfg):
    """Entry states of the constant lattice's maximal fixpoint, solved
    naively: every block in index order until no state changes."""
    blocks = cfg.blocks
    steps = [constprop.transfer_steps(block.ops) for block in blocks]
    entry = cfg.block_by_start[cfg.entry]
    preds = [[] for _ in blocks]
    for block in blocks:
        for succ in block.succs:
            preds[succ].append(block.index)
    ins = [None] * len(blocks)
    outs = [None] * len(blocks)
    changed = True
    while changed:
        changed = False
        for index in range(len(blocks)):
            incoming = [outs[pred] for pred in preds[index] if outs[pred] is not None]
            if index == entry:
                incoming.append({ZERO: 0})
            if not incoming:
                continue
            state = {key: value for key, value in incoming[0].items()
                     if all(other.get(key) == value for other in incoming[1:])}
            out = dict(state)
            constprop._transfer(steps[index], out)
            if state != ins[index] or out != outs[index]:
                ins[index], outs[index] = state, out
                changed = True
    return ins


@functools.lru_cache(maxsize=1)
def _oracle_binaries():
    """The 80 ``static_suite`` binaries and the decompiler fuzz programs."""
    from repro.programs import ALL_BENCHMARKS
    from tests.decompile.test_differential import SEEDS
    from tests.sim.test_differential import random_program

    binaries = [compile_source(bench.source, opt_level=level)
                for bench in ALL_BENCHMARKS for level in range(4)]
    binaries += [compile_source(random_program(seed), opt_level=seed % 4)
                 for seed in SEEDS]
    return tuple(binaries)


def _oracle_cfgs():
    """The lifted CFG of every function of :func:`_oracle_binaries`,
    before any pass and after all."""
    from repro.decompile.cfg import build_cfg, prune_unreachable
    from repro.decompile.lift import lift_function
    from repro.isa.encoding import decode_text

    for exe in _oracle_binaries():
        instrs = decode_text(exe.text_words)
        for symbol in exe.function_symbols():
            if symbol.name == "_start":
                continue
            start, end = exe.function_bounds(symbol.name)
            ops = lift_function(instrs[(start - exe.text_base) // 4:
                                       (end - exe.text_base) // 4], start)
            try:
                cfg = build_cfg(ops, start, symbol.name, exe=exe,
                                recover_jump_tables=True)
            except DecompilationError:
                continue
            prune_unreachable(cfg)
            yield cfg
        program = decompile(exe, DecompilationOptions(recover_jump_tables=True))
        for func in program.functions.values():
            yield func.cfg


class TestCleanupSchedule:
    """The cleanup rounds skip a pass only where it would change nothing."""

    def test_skipped_passes_would_rewrite_nothing(self, monkeypatch):
        # every time the schedule skips constant propagation (copy
        # propagation is called with no constant propagation since its
        # last call), or skips copy propagation on a block, the skipped
        # pass, run on a deep copy, leaves every op list as it is;
        # comparing the lists also catches the uncounted MOVE #imm -> CONST
        # rewrite
        from repro.decompile import decompiler

        real_constants = decompiler.propagate_constants
        real_copies = decompiler.propagate_copies
        propagated = [False]
        skips = {"constants": 0, "copy blocks": 0}

        def constants(cfg, steps_of=None):
            propagated[0] = True
            return real_constants(cfg, steps_of)

        def copies(cfg, seen):
            if not propagated[0]:
                skips["constants"] += 1
                probe = copy.deepcopy(cfg)
                assert real_constants(probe).total == 0, cfg.name
                assert _op_lists(probe) == _op_lists(cfg), cfg.name
            propagated[0] = False
            skipped = [block for block in cfg.blocks if id(block.ops) in seen]
            if skipped:
                skips["copy blocks"] += len(skipped)
                probe = ControlFlowGraph(cfg.name, cfg.entry, copy.deepcopy(skipped))
                assert real_copies(probe) == 0, cfg.name
                assert _op_lists(probe) == [block.ops for block in skipped], cfg.name
            return real_copies(cfg, seen)

        monkeypatch.setattr(decompiler, "propagate_constants", constants)
        monkeypatch.setattr(decompiler, "propagate_copies", copies)
        options = DecompilationOptions(recover_jump_tables=True)
        # the hand-assembled programs add the cases the corpus lacks: a
        # folded branch and an x & 0 whose next iteration has something to
        # rewrite
        extra = (assemble(_PICK), assemble(_FOLD_THEN_JOIN), assemble(_ZERO_PRODUCT))
        for exe in _oracle_binaries() + extra:
            decompile(exe, options)
        assert skips["constants"] > 600 and skips["copy blocks"] > 2000, skips


def _op_lists(cfg):
    return [block.ops for block in cfg.blocks]


class TestUseDefKernels:
    def test_kernels_agree_with_the_op_effects(self):
        # ops_use_def, the DCE sweep and liveness inline MicroOp.uses() and
        # MicroOp.defs() (CALL clobbers, the implicit uses of CALL and
        # RETURN): on every block they agree with a fold over those calls
        checked = 0
        for cfg in _oracle_cfgs():
            use_def = [_reference_use_def(block.ops) for block in cfg.blocks]
            assert [ops_use_def(block.ops) for block in cfg.blocks] == use_def, cfg.name
            live_in, live_out = _reference_liveness(cfg, use_def)
            assert liveness(cfg) == (live_in, live_out), cfg.name
            for block in cfg.blocks:
                # the third live-out set makes every call clobber matter
                for live in (live_out[block.index], set(),
                             live_out[block.index] | set(CALL_CLOBBERED)):
                    kept = dce.sweep(block.ops, live)
                    assert kept == _reference_sweep(block.ops, live), cfg.name
                    assert (kept is block.ops) == (len(kept) == len(block.ops))
            checked += 1
        assert checked > 500


def _reference_use_def(ops):
    uses, defs = set(), set()
    for op in reversed(ops):
        uses.difference_update(op.defs())
        uses.update(op.uses())
        defs.update(op.defs())
    return uses, defs


def _reference_liveness(cfg, use_def):
    """Each block's live-in and live-out sets, solved naively: every block
    in reverse index order until no set changes."""
    live_in = [set() for _ in cfg.blocks]
    live_out = [set() for _ in cfg.blocks]
    changed = True
    while changed:
        changed = False
        for block in reversed(cfg.blocks):
            out = set().union(*(live_in[succ] for succ in block.succs))
            uses, defs = use_def[block.index]
            new_in = uses | (out - defs)
            if out != live_out[block.index] or new_in != live_in[block.index]:
                live_out[block.index], live_in[block.index] = out, new_in
                changed = True
    return live_in, live_out


def _reference_sweep(ops, live_out):
    live = set(live_out)
    kept = []
    for op in reversed(ops):
        if op.opcode in dce._PURE and op.dst is not None and op.dst not in live:
            continue
        live.difference_update(op.defs())
        live.update(op.uses())
        kept.append(op)
    return kept[::-1]


def test_total_stats_hands_out_fresh_copies():
    _, program = _decompiled(
        "int checksum;\nint main(void) { int i; for (i = 0; i < 9; i++) "
        "checksum += i; return 0; }\n"
    )
    first = program.total_stats()
    expected = first.final_ops
    first.final_ops += 100
    second = program.total_stats()
    assert second is not first
    assert second.final_ops == expected == sum(
        func.stats.final_ops for func in program.functions.values()
    )


class TestOptions:
    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rounds_below_one_rejected(self, rounds):
        with pytest.raises(DecompilationError, match="rounds"):
            DecompilationOptions(rounds=rounds)

    def test_one_round_accepted(self):
        assert DecompilationOptions(rounds=1).rounds == 1


class TestStackRemoval:
    def test_O0_frame_traffic_becomes_moves(self):
        source = """
        int checksum;
        int main(void) {
            int a = 1; int b = 2; int c = 3; int d = 4;
            checksum = a + b * c - d;
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=0)
        stats = program.total_stats()
        assert stats.stack_ops_removed > 4
        main_cfg = program.functions["main"].cfg
        sp_loads = [
            op
            for op in main_cfg.all_ops()
            if op.opcode is Opcode.LOAD and getattr(op.a, "name", "") == "R29"
        ]
        assert not sp_loads  # every frame access was promoted
        _equivalent(exe, program)

    def test_local_array_blocks_promotion(self):
        source = """
        int checksum;
        int main(void) {
            int a[4];
            int i;
            for (i = 0; i < 4; i++) a[i] = i * 3;
            checksum = a[2];
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=1)
        # frame escapes via the array's address: function left untouched
        stats = program.total_stats()
        _equivalent(exe, program)

    def test_recursion_with_promoted_slots(self):
        source = """
        int checksum;
        int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        int main(void) { checksum = fib(12); return 0; }
        """
        exe, program = _decompiled(source, opt_level=1)
        _equivalent(exe, program)  # per-frame slots keep recursion correct


class TestStrengthPromotion:
    _SOURCE = """
    int checksum;
    int scale(int x) { return x * 58; }
    int main(void) { checksum = scale(13); return 0; }
    """

    def test_recovers_multiplication_from_o2_shifts(self):
        exe, program = _decompiled(self._SOURCE, opt_level=2)
        stats = program.total_stats()
        assert stats.muls_promoted >= 1
        muls = [
            op
            for op in program.functions["scale"].cfg.all_ops()
            if op.opcode is Opcode.MUL and isinstance(op.b, Imm)
        ]
        assert any((op.b.value & 0xFFFFFFFF) == 58 for op in muls)
        _equivalent(exe, program)

    def test_multiplicand_choice_ignores_hash_order(self):
        # without copy propagation, fir -O3 leaves several locations holding
        # the same multiplicand; which one the MUL reads must not depend on
        # set iteration order (it once followed the string-hash seed)
        probe = (
            "from repro.compiler import compile_source\n"
            "from repro.decompile import DecompilationOptions, decompile\n"
            "from repro.programs import get_benchmark\n"
            "exe = compile_source(get_benchmark('fir').source, opt_level=3)\n"
            "options = DecompilationOptions(copy_propagation=False)\n"
            "for func in decompile(exe, options).functions.values():\n"
            "    print(func.cfg.dump())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        dumps = {
            subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True,
                check=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1")
        }
        assert len(dumps) == 1

    def test_no_promotion_without_pass(self):
        options = DecompilationOptions(strength_promotion=False)
        exe = compile_source(self._SOURCE, opt_level=2)
        program = decompile(exe, options)
        assert program.total_stats().muls_promoted == 0

    def test_promotion_handles_offset_bases(self):
        # (i+1)*7 pattern: holder carries coeff 1 const 1
        source = """
        int out[16];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 15; i++) out[i] = (i + 1) * 7;
            checksum = out[14];
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=2)
        _equivalent(exe, program)


class TestLoopRerolling:
    _SOURCE = """
    int data[64];
    int out[64];
    int checksum;
    int main(void) {
        int i;
        for (i = 0; i < 64; i++) data[i] = i * 3 + 1;
        for (i = 0; i < 60; i++) out[i] = data[i] * 5;
        for (i = 0; i < 60; i++) checksum += out[i];
        return 0;
    }
    """

    def test_rerolls_O3_loops(self):
        exe, program = _decompiled(self._SOURCE, opt_level=3)
        stats = program.total_stats()
        assert stats.loops_rerolled >= 2
        factors = program.functions["main"].cfg.reroll_factors
        assert all(f == 4 for f in factors.values())
        _equivalent(exe, program)

    def test_no_reroll_at_O1(self):
        exe, program = _decompiled(self._SOURCE, opt_level=1)
        assert program.total_stats().loops_rerolled == 0
        _equivalent(exe, program)

    def test_reroll_shrinks_op_count(self):
        exe = compile_source(self._SOURCE, opt_level=3)
        with_reroll = decompile(exe)
        without = decompile(exe, DecompilationOptions(loop_rerolling=False))
        assert (
            with_reroll.total_stats().final_ops
            < without.total_stats().final_ops
        )

    def test_canonicalization_alone_is_safe(self):
        # accumulator loops at O3 exercise the rotation-collapse rewrites
        source = """
        int vals[40];
        int checksum;
        int main(void) {
            int i; int acc = 0; int prod = 1;
            for (i = 0; i < 40; i++) vals[i] = i + 1;
            for (i = 0; i < 36; i++) { acc += vals[i]; }
            for (i = 0; i < 8; i++) { prod *= vals[i]; }
            checksum = acc * 1000 + (prod & 1023);
            return 0;
        }
        """
        exe, program = _decompiled(source, opt_level=3)
        _equivalent(exe, program)


class TestSizeReduction:
    def test_narrow_widths_annotated(self):
        source = """
        unsigned char bytes[16];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 16; i++) bytes[i] = (unsigned char)(i * 3);
            for (i = 0; i < 16; i++) checksum += bytes[i] & 15;
            return 0;
        }
        """
        exe, program = _decompiled(source)
        stats = program.total_stats()
        assert stats.ops_narrowed > 0
        assert stats.bits_saved > 0

    def test_width_annotation_bounds(self):
        source = "int checksum; int main(void) { checksum = 3 & 1; return 0; }"
        _, program = _decompiled(source)
        for func in program.functions.values():
            for op in func.cfg.all_ops():
                assert 1 <= op.width <= 32


class TestPipelineOrdering:
    def test_full_pipeline_equivalence_across_levels(self):
        source = """
        int table[32];
        int checksum;
        int hash_mix(int v) {
            v = v * 37 + 11;
            v ^= v >> 7;
            return v;
        }
        int main(void) {
            int i;
            for (i = 0; i < 32; i++) table[i] = hash_mix(i);
            for (i = 0; i < 32; i++) checksum ^= table[i];
            return 0;
        }
        """
        for level in (0, 1, 2, 3):
            exe, program = _decompiled(source, opt_level=level)
            _equivalent(exe, program)
