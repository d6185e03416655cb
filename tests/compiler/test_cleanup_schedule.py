"""The cleanup schedule's skip oracle.

The driver (:mod:`repro.compiler.driver`) skips a cleanup pass while no
change since its last run can have given it work (``_GIVES_WORK_TO``).
Here the driver's set of clean passes is replaced by one that, whenever a
pass is skipped, reruns that pass on a deep copy of the function: the
rerun must return False and leave the instructions and the slots as they
were.  The pipeline runs over every function of the 80 ``static_suite``
builds and over a fixed, derandomized sample of the fuzz programs of
``test_random_programs.py``, and its output must be the real compiler's.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compiler import CompilerOptions, driver
from repro.compiler.irgen import generate_ir
from repro.compiler.parser import parse
from repro.compiler.passes import (
    eliminate_dead_code,
    fold_immediates,
    hoist_loop_invariants,
    local_cse,
    promote_slots,
    reduce_strength,
    unrolled,
)
from repro.programs import ALL_BENCHMARKS
from tests.compiler.test_random_programs import programs


def _state(func):
    return func.dump(), [astuple(slot) for slot in func.slots]


class _SkipOracle(set):
    """The clean passes of *func*; every skip reruns the pass on a copy."""

    def __init__(self, func, skipped: Counter):
        super().__init__()
        self.func = func
        self.skipped = skipped

    def __contains__(self, cleanup) -> bool:
        clean = super().__contains__(cleanup)
        if clean:
            work = copy.deepcopy(self.func)
            before = _state(work)
            assert before == _state(self.func)
            assert not cleanup(work), (
                f"skipped {cleanup.__name__} had work in {self.func.name}")
            assert _state(work) == before, (
                f"skipped {cleanup.__name__} changed {self.func.name}")
            self.skipped[cleanup.__name__] += 1
        return clean


def _optimize(func, options: CompilerOptions, skipped: Counter) -> None:
    """``driver.optimize_module`` for one function, with the oracle as its
    set of clean passes."""
    clean = _SkipOracle(func, skipped)
    if options.mem2reg:
        promote_slots(func)
    if options.fold:
        driver._run_fixpoint(func, clean)
    for enabled, transform in ((options.licm, hoist_loop_invariants),
                               (options.cse, local_cse),
                               (options.strength_reduce, reduce_strength)):
        if enabled:
            driver._run(transform, func, clean)
            driver._run_fixpoint(func, clean)
    if options.fold:
        driver._run(fold_immediates, func, clean)
        if eliminate_dead_code not in clean:
            eliminate_dead_code(func)


def _check(source: str, skipped: Counter) -> None:
    for level in (1, 2, 3):
        options = CompilerOptions.from_level(level)
        unit = parse(source)
        if options.unroll:
            unit, _ = unrolled(unit, options.unroll_factor)
        module, _ = generate_ir(unit)
        expected, _ = generate_ir(unit)
        driver.optimize_module(expected, options)
        for name, func in module.functions.items():
            _optimize(func, options, skipped)
            assert _state(func) == _state(expected.functions[name])


#: small programs whose constant branch is found only after copy
#: propagation, so that folding it, removing the dead arm and merging the
#: blocks around it happen in later rounds of a fixpoint, where most
#: passes are clean
_LATE_FOLDS = (
    # a folded branch leaves an unreachable arm (folding -> control flow)
    "int g; int main(void) { int c = 0; if (c) g = 5; else g = 6; return 0; }",
    # the arm held the last use of y (control flow -> DCE)
    "int g; int h; int main(void) { int c = 0; int y = h * 5;"
    " if (c) g = y; return 0; }",
    # the copy x = h reaches the store once the blocks merge (control
    # flow -> copy propagation)
    "int g; int h; int k; int main(void) { int c = 0; int x = h;"
    " if (c) g = 1; k = x; x = 2; g = x; return 0; }",
    # the arm emptied by DCE leaves a label followed by a jump
    # (DCE -> control flow)
    "int g; int h; int main(void) { int i; int c = 0; int t = 0;"
    " for (i = 0; i < h; i++) { if (i > 3) { t = c * i; } g = g + i; }"
    " return 0; }",
)


@pytest.mark.parametrize("source", _LATE_FOLDS)
def test_skipped_calls_after_a_late_fold_have_no_work(source):
    _check(source, Counter())


def test_skipped_calls_of_the_suite_have_no_work():
    skipped: Counter = Counter()
    for bench in ALL_BENCHMARKS:
        _check(bench.source, skipped)
    # every cleanup pass is skipped somewhere, so each one is checked
    assert set(skipped) == {cleanup.__name__ for cleanup in driver._CLEANUP_PASSES}


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_skipped_calls_of_fuzz_programs_have_no_work(program):
    source, _ = program
    _check(source, Counter())


@pytest.mark.parametrize("cleanup", driver._CLEANUP_PASSES,
                         ids=lambda cleanup: cleanup.__name__)
def test_every_cleanup_pass_has_a_row(cleanup):
    assert cleanup in driver._GIVES_WORK_TO
    assert driver._GIVES_WORK_TO[cleanup] <= driver._ALL_CLEANUP
