"""The periodic sampling hook must not perturb simulation semantics.

Every test runs on both dispatch engines, because the online-partitioning
subsystem (:mod:`repro.dynamic`) piggybacks on this hook: callbacks must
fire at exactly the same instruction counts whether the dispatch loop
pays one call per instruction (threaded) or one per basic block
(superblock, which single-steps chunk tails to hit the boundary
mid-block).  The cross-engine class at the bottom pins the two traces
against each other sample by sample.
"""

import pytest

from repro.compiler import compile_source
from repro.sim.cpu import Cpu

_SOURCE = """
int data[64];
int checksum;
int main(void) {
    int i; int r;
    for (r = 0; r < 50; r++)
        for (i = 0; i < 64; i++) data[i] = (data[i] * 3 + r) & 2047;
    checksum = data[11];
    return 0;
}
"""

ENGINES = ["threaded", "superblock"]


def _exe():
    return compile_source(_SOURCE, opt_level=1)


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


class TestSampleHook:
    def test_callback_cadence_and_flush(self, engine):
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine=engine)
        calls = []
        interval = 1000

        def on_sample(counts, taken):
            calls.append(sum(counts))

        result = cpu.run(sample_interval=interval, on_sample=on_sample)
        # one call per full chunk plus the flush at halt
        assert len(calls) == result.steps // interval + 1
        # counters are cumulative and monotonic
        assert calls == sorted(calls)
        assert calls[-1] == result.steps
        # intermediate samples land exactly on the chunk boundaries
        for position, total in enumerate(calls[:-1], start=1):
            assert total == position * interval

    def test_results_identical_with_and_without_hook(self, engine):
        exe = _exe()
        plain_cpu = Cpu(exe, profile=True, engine=engine)
        plain = plain_cpu.run()
        hooked_cpu = Cpu(exe, profile=True, engine=engine)
        hooked = hooked_cpu.run(sample_interval=777, on_sample=lambda c, t: None)
        assert plain.steps == hooked.steps
        assert plain.cycles == hooked.cycles
        assert plain.taken == hooked.taken
        assert plain.pc_counts == hooked.pc_counts
        assert plain.edge_counts == hooked.edge_counts
        assert plain.mix == hooked.mix
        assert plain_cpu.read_word_global_signed("checksum") == \
            hooked_cpu.read_word_global_signed("checksum")

    def test_zero_interval_means_no_callback(self, engine):
        exe = _exe()
        cpu = Cpu(exe, engine=engine)
        calls = []
        cpu.run(sample_interval=0, on_sample=lambda c, t: calls.append(1))
        assert calls == []

    def test_deltas_reconstruct_run(self, engine):
        """Interval deltas of the live arrays must sum to the final stats."""
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine=engine)
        text_len = len(exe.text_words)
        prev = [0] * text_len
        interval_steps = []

        def on_sample(counts, taken):
            nonlocal prev
            interval_steps.append(
                sum(counts[i] - prev[i] for i in range(text_len))
            )
            prev = counts[:text_len]

        result = cpu.run(sample_interval=2048, on_sample=on_sample)
        assert sum(interval_steps) == result.steps

    def test_static_edge_maps_exposed(self, engine):
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine=engine)
        assert cpu.site_costs and len(cpu.site_costs) == len(exe.text_words)
        # the nested loops guarantee at least one backward control edge
        # (the compiler emits loop back-edges as branches or jumps)
        edges = list(cpu.branch_edges.values()) + list(cpu.jump_edges.values())
        assert any(dst <= src for src, dst in edges)
        for index, (src, dst) in {**cpu.branch_edges, **cpu.jump_edges}.items():
            assert src == exe.text_base + 4 * index


class TestAdaptiveInterval:
    """A callback's return value sets the next chunk's sample interval
    (phase-adaptive profiling), on both engines and on the generator twin."""

    def test_return_value_resizes_next_chunk(self, engine):
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine=engine)
        boundaries = []

        def on_sample(counts, taken):
            boundaries.append(sum(counts))
            return 2_000   # coarsen after the first sample

        result = cpu.run(sample_interval=500, on_sample=on_sample)
        assert boundaries[0] == 500
        # every later boundary is 2000 instructions after the previous one
        for before, after in zip(boundaries[:-1], boundaries[1:-1]):
            assert after - before == 2_000
        assert boundaries[-1] == result.steps

    def test_none_keeps_interval(self, engine):
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine=engine)
        boundaries = []
        cpu.run(sample_interval=750, on_sample=lambda c, t: boundaries.append(sum(c)))
        for before, after in zip(boundaries[:-1], boundaries[1:-1]):
            assert after - before == 750

    def test_adaptive_run_preserves_results(self, engine):
        exe = _exe()
        plain = Cpu(exe, profile=True, engine=engine).run()
        adaptive_cpu = Cpu(exe, profile=True, engine=engine)
        intervals = iter([100, 400, 1600, 6400] * 1000)
        adaptive = adaptive_cpu.run(
            sample_interval=50, on_sample=lambda c, t: next(intervals)
        )
        assert plain.steps == adaptive.steps
        assert plain.cycles == adaptive.cycles
        assert plain.pc_counts == adaptive.pc_counts


class TestRunSampledGenerator:
    """``run_sampled`` is the generator twin of ``run`` + ``on_sample``:
    same boundaries, same counters, same final result -- it exists so an
    external driver (the multi-application round-robin) can interleave
    several CPUs at sampling granularity."""

    def _callback_trace(self, engine, interval, feed=None):
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine=engine)
        trace = []
        supply = iter(feed) if feed is not None else None

        def on_sample(counts, taken):
            trace.append((tuple(counts), tuple(taken)))
            return next(supply) if supply is not None else None

        result = cpu.run(sample_interval=interval, on_sample=on_sample)
        return trace, result

    def _generator_trace(self, engine, interval, feed=None):
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine=engine)
        generator = cpu.run_sampled(sample_interval=interval)
        supply = iter(feed) if feed is not None else None
        trace = []
        try:
            payload = next(generator)
            while True:
                trace.append((tuple(payload[0]), tuple(payload[1])))
                sent = next(supply) if supply is not None else None
                payload = generator.send(sent)
        except StopIteration as stop:
            return trace, stop.value

    @pytest.mark.parametrize("interval", [97, 1000])
    def test_matches_callback_run_exactly(self, engine, interval):
        expected_trace, expected = self._callback_trace(engine, interval)
        got_trace, got = self._generator_trace(engine, interval)
        assert expected_trace == got_trace
        assert expected.steps == got.steps
        assert expected.cycles == got.cycles
        assert expected.taken == got.taken
        assert expected.pc_counts == got.pc_counts
        assert expected.edge_counts == got.edge_counts

    def test_send_resizes_like_return_value(self, engine):
        feed = [500, 1000, 2000, 4000, 8000] * 100
        expected_trace, expected = self._callback_trace(engine, 250, feed)
        got_trace, got = self._generator_trace(engine, 250, feed)
        assert expected_trace == got_trace
        assert expected.steps == got.steps
        assert expected.cycles == got.cycles
        assert expected.taken == got.taken

    def test_rejects_nonpositive_interval(self, engine):
        from repro.errors import SimulationError

        exe = _exe()
        cpu = Cpu(exe, engine=engine)
        with pytest.raises(SimulationError):
            next(cpu.run_sampled(sample_interval=0))

    @pytest.mark.parametrize("bad", [-1, 0.5, True, "soon", [1]],
                             ids=["negative", "float", "bool", "str", "list"])
    def test_rejects_bad_interval_overrides(self, engine, bad):
        # a negative override would spin the dispatch loop forever on
        # zero-instruction chunks; non-integers would crash mid-run --
        # both are rejected at the boundary with a clear error, via
        # send() and via an on_sample return value alike
        from repro.errors import SimulationError

        generator = Cpu(_exe(), engine=engine).run_sampled(sample_interval=500)
        next(generator)
        with pytest.raises(SimulationError, match="override"):
            generator.send(bad)
        with pytest.raises(SimulationError, match="override"):
            Cpu(_exe(), engine=engine).run(
                sample_interval=500, on_sample=lambda c, t: bad
            )


class TestCrossEngineSampling:
    """The superblock engine must sample exactly like the threaded one.

    This is the contract ``repro.dynamic`` depends on: its profiler and
    accounting read the live counter arrays at every boundary, so any
    drift in *when* callbacks fire or *what* the counters hold at that
    moment would silently skew the online partitioner.
    """

    #: intervals chosen to land chunk boundaries mid-block: 1 forces a
    #: single-stepped tail on every chunk, 7/97 are coprime to typical
    #: block lengths, 1000 mixes whole blocks and tails
    INTERVALS = [1, 7, 97, 1000]

    @staticmethod
    def _trace(engine, interval):
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine=engine)
        trace = []

        def on_sample(counts, taken):
            trace.append((tuple(counts), tuple(taken)))

        result = cpu.run(sample_interval=interval, on_sample=on_sample)
        return trace, result

    @pytest.mark.parametrize("interval", INTERVALS)
    def test_samples_fire_at_identical_instruction_counts(self, interval):
        threaded_trace, threaded_result = self._trace("threaded", interval)
        superblock_trace, superblock_result = self._trace("superblock", interval)
        assert threaded_result.steps == superblock_result.steps
        assert len(threaded_trace) == len(superblock_trace)
        for position, (expected, got) in enumerate(
            zip(threaded_trace, superblock_trace)
        ):
            assert expected == got, (
                f"interval {interval}: sample {position} diverged"
            )

    def test_mid_block_boundary_counts_are_partial(self):
        """A boundary inside a block must show the partial prefix, not a
        whole-block-at-once count jump."""
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine="superblock")
        longest = max(length for _, length in cpu.superblocks)
        assert longest > 1, "test program must contain a multi-instruction block"
        totals = []
        cpu.run(sample_interval=1, on_sample=lambda c, t: totals.append(sum(c)))
        # with interval 1, consecutive samples differ by exactly one
        # executed instruction even while crossing multi-instruction blocks
        deltas = {b - a for a, b in zip(totals, totals[1:])}
        assert deltas <= {0, 1}


class TestSpillAndTraceSampling:
    """Cold-counter spill and the trace tier must not move a single
    sample boundary or counter value.

    The spill machinery rewrites live counter bookkeeping mid-run and
    the trace tier installs multi-block functions over the same table;
    sampled runs must stay bit-identical to the threaded engine at every
    observation point regardless.  Interval 1 forces a single-stepped
    tail on every chunk, 7 and 97 land boundaries mid-block and
    mid-chain.
    """

    #: superblock configurations that exercise spill, traces, and both
    CONFIGS = {
        "spill": {"engine": "superblock", "trace_threshold": 0,
                  "spill_after": 1},
        "traces": {"engine": "superblock", "trace_threshold": 1,
                   "spree_size": 4096, "spill_after": 0},
        "spill+traces": {"engine": "superblock", "trace_threshold": 1,
                         "spree_size": 4096, "spill_after": 1},
    }

    @staticmethod
    def _trace(interval, **kwargs):
        exe = _exe()
        cpu = Cpu(exe, profile=True, **kwargs)
        samples = []

        def on_sample(counts, taken):
            samples.append((tuple(counts), tuple(taken)))

        result = cpu.run(sample_interval=interval, on_sample=on_sample)
        return samples, result

    @pytest.mark.parametrize("interval", [1, 7, 97])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_bit_identical_samples(self, config, interval):
        expected_samples, expected = self._trace(interval, engine="threaded")
        got_samples, got = self._trace(interval, **self.CONFIGS[config])
        assert expected.steps == got.steps
        assert expected.cycles == got.cycles
        assert expected.taken == got.taken
        assert expected.pc_counts == got.pc_counts
        assert len(expected_samples) == len(got_samples)
        for position, (want, have) in enumerate(
            zip(expected_samples, got_samples)
        ):
            assert want == have, (
                f"{config} at interval {interval}: sample {position} diverged"
            )

