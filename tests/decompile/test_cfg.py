"""CFG recovery tests, including the paper's indirect-jump failure mode."""

import pytest

from repro.compiler import compile_source
from repro.errors import IndirectJumpError
from repro.decompile import decompile
from repro.decompile.cfg import build_cfg, prune_unreachable
from repro.decompile.lift import lift_function
from repro.isa import decode_text


def _cfg_for(source: str, func: str = "main", opt_level: int = 1):
    exe = compile_source(source, opt_level=opt_level)
    start, end = exe.function_bounds(func)
    lo = (start - exe.text_base) // 4
    hi = (end - exe.text_base) // 4
    ops = lift_function(decode_text(exe.text_words)[lo:hi], start)
    cfg = build_cfg(ops, start, func)
    prune_unreachable(cfg)
    return cfg


class TestBasicShapes:
    def test_straight_line_single_block_chain(self):
        cfg = _cfg_for("int checksum; int main(void) { checksum = 1; return 0; }")
        # every block has at most one successor (no branches)
        assert all(len(b.succs) <= 1 for b in cfg.blocks)

    def test_if_else_diamond(self):
        cfg = _cfg_for(
            "int g; int checksum;"
            "int main(void) { if (g) checksum = 1; else checksum = 2; return 0; }"
        )
        two_way = [b for b in cfg.blocks if len(b.succs) == 2]
        assert len(two_way) == 1

    def test_loop_has_back_edge(self):
        cfg = _cfg_for(
            "int checksum; int main(void) {"
            " int i; for (i = 0; i < 4; i++) checksum += i; return 0; }"
        )
        back_edges = [
            (b.index, s)
            for b in cfg.blocks
            for s in b.succs
            if cfg.blocks[s].start <= b.start
        ]
        assert back_edges

    def test_edges_are_consistent(self):
        cfg = _cfg_for(
            "int checksum; int main(void) {"
            " int i; for (i = 0; i < 4; i++) if (i & 1) checksum += i; return 0; }"
        )
        for block in cfg.blocks:
            for succ in block.succs:
                assert block.index in cfg.blocks[succ].preds
            for pred in block.preds:
                assert block.index in cfg.blocks[pred].succs

    def test_call_does_not_split_function(self):
        cfg = _cfg_for(
            "int checksum; int f(void) { return 1; }"
            "int main(void) { checksum = f() + f(); return 0; }"
        )
        assert cfg.call_targets  # calls recorded, not treated as terminators


class TestIndirectJumpFailure:
    _SWITCH_SOURCE = """
    int checksum;
    int classify(int x) {
        switch (x) {
        case 0: return 1;
        case 1: return 2;
        case 2: return 4;
        case 3: return 8;
        case 4: return 16;
        default: return 0;
        }
    }
    int main(void) { checksum = classify(3); return 0; }
    """

    def test_jump_table_raises(self):
        with pytest.raises(IndirectJumpError) as info:
            _cfg_for(self._SWITCH_SOURCE, func="classify")
        assert info.value.function == "classify"

    def test_program_level_failure_reported(self):
        exe = compile_source(self._SWITCH_SOURCE, opt_level=1)
        program = decompile(exe)
        assert not program.recovered
        assert program.failures[0].function == "classify"
        assert program.failures[0].reason == "indirect jump"

    def test_other_functions_still_recovered(self):
        exe = compile_source(self._SWITCH_SOURCE, opt_level=1)
        program = decompile(exe)
        assert "main" in program.functions
