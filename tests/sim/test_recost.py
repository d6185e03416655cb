"""Re-costing a profiled run under another CPI model is exact.

``RunResult.recost`` derives cycles from the per-class counts and the
taken-branch total instead of re-running, which is what lets the stage
memo serve every platform of a binary from one simulation.  On every
benchmark and every engine it must reproduce a fresh profiled run under
the other CPI model field for field, ``taken`` included.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_source
from repro.platform import SOFTCORE_85MHZ
from repro.programs import ALL_BENCHMARKS, get_benchmark
from repro.sim import CpiModel, run_executable, run_reference

HARD = CpiModel()
SOFT = SOFTCORE_85MHZ.cpi

ENGINES = ("threaded", "superblock", "reference")


def _profiled_run(exe, cpi, engine):
    if engine == "reference":
        return run_reference(exe, profile=True, cpi=cpi)
    return run_executable(exe, profile=True, cpi=cpi, engine=engine)[1]


def test_the_two_models_differ():
    assert HARD != SOFT


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", [bench.name for bench in ALL_BENCHMARKS])
def test_recost_matches_a_fresh_run(name, engine):
    exe = compile_source(get_benchmark(name).source, opt_level=1)
    hard = _profiled_run(exe, HARD, engine)
    soft = _profiled_run(exe, SOFT, engine)
    assert hard.taken > 0
    assert hard.recost(SOFT) == soft
    assert soft.recost(HARD) == hard
    assert hard.recost(HARD) == hard


def test_recost_needs_a_profiled_run():
    exe = compile_source(get_benchmark("brev").source, opt_level=1)
    _, plain = run_executable(exe)
    with pytest.raises(ValueError):
        plain.recost(SOFT)
