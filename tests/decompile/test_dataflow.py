"""Dataflow analysis tests: liveness, dominators, natural loops, structure."""

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.decompile.dataflow import (
    dominators,
    immediate_dominators,
    liveness,
    natural_loops,
)
from repro.decompile.structure import postdominators, recover_structure


def _main_cfg(source: str, opt_level: int = 1):
    exe = compile_source(source, opt_level=opt_level)
    program = decompile(exe)
    assert program.recovered
    return program.functions["main"].cfg, program


_NESTED = """
int a[64];
int checksum;
int main(void) {
    int i; int j;
    for (i = 0; i < 8; i++) {
        for (j = 0; j < 8; j++) {
            a[i * 8 + j] = i + j;
        }
    }
    checksum = a[63];
    return 0;
}
"""

_BRANCHY = """
int checksum;
int g;
int main(void) {
    if (g > 0) {
        checksum = 1;
    } else {
        if (g < -5) checksum = 2;
        else checksum = 3;
    }
    return 0;
}
"""


class TestDominators:
    def test_entry_dominates_everything(self):
        cfg, _ = _main_cfg(_NESTED)
        entry = cfg.block_by_start[cfg.entry]
        dom = dominators(cfg)
        assert all(entry in d for d in dom)

    def test_every_block_dominates_itself(self):
        cfg, _ = _main_cfg(_BRANCHY)
        dom = dominators(cfg)
        assert all(index in dom[index] for index in range(len(cfg.blocks)))

    def test_idom_unique_and_strict(self):
        cfg, _ = _main_cfg(_NESTED)
        entry = cfg.block_by_start[cfg.entry]
        idom = immediate_dominators(cfg)
        assert idom[entry] is None
        for index, parent in idom.items():
            if index != entry:
                assert parent is not None and parent != index


class TestNaturalLoops:
    def test_nested_loop_count_and_depth(self):
        cfg, _ = _main_cfg(_NESTED)
        loops = natural_loops(cfg)
        assert len(loops) == 2
        depths = sorted(loop.depth for loop in loops)
        assert depths == [1, 2]

    def test_inner_loop_contained_in_outer(self):
        cfg, _ = _main_cfg(_NESTED)
        loops = natural_loops(cfg)
        outer = next(l for l in loops if l.depth == 1)
        inner = next(l for l in loops if l.depth == 2)
        assert inner.body < outer.body

    def test_loop_header_in_body(self):
        cfg, _ = _main_cfg(_NESTED)
        for loop in natural_loops(cfg):
            assert loop.header in loop.body
            assert all(latch in loop.body for latch in loop.latches)


class TestLiveness:
    def test_live_sets_consistent_with_edges(self):
        cfg, _ = _main_cfg(_NESTED)
        live_in, live_out = liveness(cfg)
        for block in cfg.blocks:
            union = set()
            for succ in block.succs:
                union |= live_in[succ]
            assert live_out[block.index] == union


class TestStructureRecovery:
    def test_loops_classified_as_while(self):
        cfg, _ = _main_cfg(_NESTED)
        report = recover_structure(cfg)
        assert report.loops_total == 2
        assert all(info.kind == "while" for info in report.loops)

    def test_if_else_recovered(self):
        cfg, _ = _main_cfg(_BRANCHY)
        report = recover_structure(cfg)
        assert report.ifs_total >= 2
        assert report.ifs_recovered == report.ifs_total

    def test_do_while_classified(self):
        source = """
        int checksum;
        int main(void) {
            int i = 0;
            do { checksum += i; i++; } while (i < 5);
            return 0;
        }
        """
        cfg, _ = _main_cfg(source)
        report = recover_structure(cfg)
        assert any(info.kind == "dowhile" for info in report.loops)

    def test_postdominators_exit_reaches_all(self):
        cfg, _ = _main_cfg(_BRANCHY)
        pdom = postdominators(cfg)
        exits = [b.index for b in cfg.blocks if not b.succs]
        assert len(exits) == 1
        assert all(exits[0] in p for p in pdom)


class TestAlias:
    def test_footprint_symbols(self):
        source = """
        int src[32];
        int dst[32];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 32; i++) dst[i] = src[i] * 2;
            checksum = dst[31];
            return 0;
        }
        """
        cfg, program = _main_cfg(source)
        func = program.functions["main"]
        footprints = list(func.loop_footprints.values())
        assert footprints
        fp = footprints[0]
        assert fp.symbols == {"src", "dst"}
        assert not fp.has_dynamic

    def test_strides_recovered(self):
        source = """
        short vals[64];
        int checksum;
        int main(void) {
            int i;
            for (i = 0; i < 64; i++) vals[i] = (short)i;
            checksum = vals[5];
            return 0;
        }
        """
        cfg, program = _main_cfg(source)
        func = program.functions["main"]
        fp = next(iter(func.loop_footprints.values()))
        stores = fp.stores
        assert stores and any(a.stride == 2 for a in stores)

    def test_overlap_detection(self):
        source = """
        int shared[16];
        int other[16];
        int checksum;
        void fill(void) { int i; for (i = 0; i < 16; i++) shared[i] = i; }
        void consume(void) { int i; for (i = 0; i < 16; i++) checksum += shared[i]; }
        void unrelated(void) { int i; for (i = 0; i < 16; i++) other[i] = i; }
        int main(void) { fill(); consume(); unrelated(); return 0; }
        """
        exe = compile_source(source, opt_level=1)
        program = decompile(exe)
        fill_fp = next(iter(program.functions["fill"].loop_footprints.values()))
        consume_fp = next(iter(program.functions["consume"].loop_footprints.values()))
        unrelated_fp = next(iter(program.functions["unrelated"].loop_footprints.values()))
        assert fill_fp.overlaps(consume_fp)
        assert not fill_fp.overlaps(unrelated_fp)

    def test_per_function_footprints_match_per_loop_ones(self):
        # one dominator computation serves natural loops and every loop's
        # footprint; the result is the same as computing them loop by loop
        from repro.decompile.alias import loop_footprints

        exe = compile_source(_NESTED, opt_level=1)
        cfg = decompile(exe).functions["main"].cfg
        dom = dominators(cfg)
        loops = natural_loops(cfg, dom)
        assert [(lp.header, lp.body, lp.depth) for lp in loops] == [
            (lp.header, lp.body, lp.depth) for lp in natural_loops(cfg)
        ]
        idom = immediate_dominators(cfg)
        assert all(
            idom[i] is None or (idom[i] in dom[i] and dom[i] - {i} <= dom[idom[i]])
            for i in range(len(cfg.blocks))
        )
        shared = loop_footprints(exe, cfg, loops)
        assert len(shared) == len(loops) == 2
        for loop in loops:
            header = cfg.blocks[loop.header].start
            assert shared[header] == loop_footprints(exe, cfg, [loop])[header]
