"""``block_ranges``: each recovered block's original address range.

The static profiler (:func:`build_profile`) and the online controller both
attribute executed cycles to loops through these ranges, so they must tile
every function exactly: no gap would drop cycles, no overlap would count
them twice.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_source
from repro.decompile import decompile
from repro.partition.profiles import block_ranges
from repro.programs import ALL_BENCHMARKS

#: tblook/ttsprk fail CDFG recovery by design -- no blocks to range
_BENCHMARKS = [b for b in ALL_BENCHMARKS if not b.expect_recovery_failure]


@pytest.mark.parametrize("bench", _BENCHMARKS, ids=lambda b: b.name)
def test_block_ranges_tile_each_function(bench):
    exe = compile_source(bench.source, opt_level=1)
    program = decompile(exe)
    assert program.recovered, program.failures
    for func in program.functions.values():
        ranges = block_ranges(func, exe)
        assert set(ranges) == {block.index for block in func.cfg.blocks}
        for block in func.cfg.blocks:
            start, end = ranges[block.index]
            assert start == block.start
            assert end > start and (end - start) % 4 == 0
        spans = sorted(ranges.values())
        assert (spans[0][0], spans[-1][1]) == tuple(exe.function_bounds(func.name))
        for (_, end), (next_start, _) in zip(spans, spans[1:]):
            assert end == next_start, func.name
