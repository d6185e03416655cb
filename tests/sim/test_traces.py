"""Trace-tier unit tests: building, introspection, caching, exactness.

The differential suite (:mod:`tests.sim.test_differential`) already
pins whole-run statistics across engines; this file tests the trace
tier's own machinery -- when traces build, what :attr:`Cpu.traces`
exposes, how the per-executable build cache replays, and the exactness
of the loop-trace register write-back discipline at its observation
points.
"""

import pytest

from repro.compiler import compile_source
from repro.errors import SimulationError
from repro.sim import run_reference
from repro.sim.cpu import Cpu
from repro.sim.superblock import persist
from repro.sim.superblock.traces import MAX_TRACES


@pytest.fixture(autouse=True)
def _cold_trace_cache():
    """The build cache is content-keyed, so every test compiling the
    shared loop source would otherwise start trace-warm from whichever
    test ran first; clear the in-process cache so each test controls
    its own warmth.  (On-disk persistence is already off suite-wide via
    the session ``REPRO_CACHE=off`` fixture.)"""
    persist._MEMORY.clear()
    yield
    persist._MEMORY.clear()

#: a hot counted loop with a biased branch and a trailing cold phase --
#: small enough to compile fast, hot enough to clear the anchor bar
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

#: trace-tier settings that force an early build on the small program
_HOT = {"trace_threshold": 1, "spree_size": 4096}


def _exe():
    return compile_source(_LOOP_SOURCE, opt_level=1)


def _identical(got, ref):
    assert got.steps == ref.steps
    assert got.cycles == ref.cycles
    assert got.halted == ref.halted
    assert got.exit_pc == ref.exit_pc
    assert got.taken == ref.taken
    assert got.mix == ref.mix
    assert got.pc_counts == ref.pc_counts
    assert got.edge_counts == ref.edge_counts


class TestTraceBuilding:
    def test_hot_loop_builds_traces(self):
        cpu = Cpu(_exe(), **_HOT)
        result = cpu.run()
        traces = cpu.traces
        assert traces, "hot loop program built no traces"
        assert len(traces) <= MAX_TRACES
        covered = sum(t.instructions for t in traces)
        assert 0 < covered <= result.steps
        for trace in traces:
            assert trace.blocks, "trace with no member blocks"
            assert trace.cap >= sum(length for _, length in trace.blocks)
            assert trace.calls >= 0

    def test_threshold_zero_disables_tier(self):
        cpu = Cpu(_exe(), trace_threshold=0)
        cpu.run()
        assert cpu.traces == ()

    def test_traces_require_superblock_engine(self):
        cpu = Cpu(_exe(), engine="threaded")
        with pytest.raises(SimulationError):
            cpu.traces

    @pytest.mark.parametrize("bad", [-1, 0.5, "hot", [1]])
    def test_rejects_bad_threshold(self, bad):
        with pytest.raises(ValueError):
            Cpu(_exe(), trace_threshold=bad)

    def test_traced_run_is_bit_identical(self):
        exe = _exe()
        ref = run_reference(exe, profile=True)
        cpu = Cpu(exe, profile=True, **_HOT)
        got = cpu.run()
        assert cpu.traces, "exactness test needs traces installed"
        _identical(got, ref)

    def test_traced_memory_matches_threaded(self):
        exe = _exe()
        traced = Cpu(exe, **_HOT)
        traced.run()
        plain = Cpu(exe, engine="threaded")
        plain.run()
        assert traced.read_word_global_signed("checksum") \
            == plain.read_word_global_signed("checksum")

    def test_spill_and_traces_compose_exactly(self):
        exe = _exe()
        ref = run_reference(exe, profile=True)
        cpu = Cpu(exe, profile=True, spill_after=1, **_HOT)
        got = cpu.run()
        _identical(got, ref)


class TestBuildCache:
    """Trace builds are cached per executable: a second Cpu on the same
    image replays the compiled artifacts at construction and skips
    warmup entirely -- with identical statistics."""

    def test_second_cpu_replays_cache(self):
        exe = _exe()
        first = Cpu(exe, profile=True, **_HOT)
        first_result = first.run()
        assert first.traces
        second = Cpu(exe, profile=True, **_HOT)
        assert second._sb.traces_built, "cache replay should pre-install traces"
        assert len(second._sb.traces) == len(first.traces)
        second_result = second.run()
        _identical(second_result, first_result)
        anchors = {t.anchor for t in first.traces}
        assert {t.anchor for t in second.traces} == anchors

    def test_threshold_zero_skips_replay(self):
        exe = _exe()
        warm = Cpu(exe, **_HOT)
        warm.run()
        assert warm.traces
        cold = Cpu(exe, trace_threshold=0)
        assert not cold._sb.traces_built
        cold.run()
        assert cold.traces == ()

    def test_cache_keyed_by_content_not_identity(self):
        # two independently compiled Executables with identical bytes
        # share one cache entry -- the second starts trace-warm
        warm = Cpu(_exe(), **_HOT)
        warm.run()
        assert warm.traces
        twin = Cpu(_exe(), **_HOT)
        assert twin._sb.traces_built, "content twin should replay the cache"
        assert {t.anchor for t in twin.traces} == {t.anchor for t in warm.traces}

    def test_no_replay_across_distinct_executables(self):
        # regression for the id()-keyed cache: allocate and drop
        # executables of alternating programs so the allocator is free
        # to reuse addresses; a freshly compiled *different* program
        # must never start with another program's traces installed
        import gc

        other_source = _LOOP_SOURCE.replace("acc = 7;", "acc = 11;")
        for round_no in range(6):
            source = _LOOP_SOURCE if round_no % 2 == 0 else other_source
            exe = compile_source(source, opt_level=1)
            cpu = Cpu(exe, **_HOT)
            if round_no < 2:
                # first sighting of each program: must start cold
                assert not cpu._sb.traces_built, (
                    "round %d replayed a stale artifact" % round_no
                )
            cpu.run()
            anchors = {t.anchor for t in cpu.traces}
            del cpu, exe
            gc.collect()
        assert anchors  # the loop actually exercised the trace tier

    def test_profile_modes_cached_separately(self):
        exe = _exe()
        plain = Cpu(exe, **_HOT)
        plain.run()
        profiled = Cpu(exe, profile=True, **_HOT)
        # the unprofiled artifact must not leak into the profiled table
        assert not profiled._sb.traces_built
        got = profiled.run()
        _identical(got, run_reference(exe, profile=True))


class TestLoopEnvExactness:
    """Loop traces keep registers in Python locals across iterations and
    write back only at observation points; a guard exit on the very
    first iteration must still flush a complete register image."""

    def test_loop_exit_every_iteration_is_exact(self):
        # inner loop runs exactly once per outer iteration: every loop
        # trace call exits on its first backward-branch test
        source = """
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
        exe = compile_source(source, opt_level=1)
        ref = run_reference(exe, profile=True)
        cpu = Cpu(exe, profile=True, **_HOT)
        got = cpu.run()
        _identical(got, ref)

    def test_max_steps_budget_is_exact_with_traces(self):
        # a run that exceeds its budget must stop on the same step with
        # the same pc whether traces dispatch hundreds of instructions
        # per call or the reference single-steps
        exe = _exe()
        for budget in (1, 97, 5000, 50_001):
            with pytest.raises(SimulationError) as ref_err:
                run_reference(exe, profile=True, max_steps=budget)
            with pytest.raises(SimulationError) as got_err:
                Cpu(exe, profile=True, **_HOT).run(max_steps=budget)
            assert str(got_err.value) == str(ref_err.value)
