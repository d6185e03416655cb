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

from repro import stages
from repro.compiler import compile_source
from repro.errors import SimulationError
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


class TestIntervalStaysFixed:
    def test_none_keeps_interval(self, engine):
        exe = _exe()
        cpu = Cpu(exe, profile=True, engine=engine)
        boundaries = []
        cpu.run(sample_interval=750, on_sample=lambda c, t: boundaries.append(sum(c)))
        for before, after in zip(boundaries[:-1], boundaries[1:-1]):
            assert after - before == 750

    def test_return_value_is_ignored(self, engine):
        exe = _exe()
        boundaries = []

        def on_sample(counts, taken):
            boundaries.append(sum(counts))
            return 2_000

        result = Cpu(exe, profile=True, engine=engine).run(
            sample_interval=500, on_sample=on_sample
        )
        assert len(boundaries) == result.steps // 500 + 1
        for position, total in enumerate(boundaries[:-1], start=1):
            assert total == position * 500


MAX_STEPS = 100_000_000


class TestSampleStream:
    """A recorded stream replays the simulator's sampled run: the same
    counters at the same boundaries, and a ``send()`` override spaces the
    samples like a chunked run at that interval would (phase-adaptive
    profiling).  The reference is :meth:`Cpu.run` on either engine."""

    @staticmethod
    def _cpu_trace(engine, interval):
        cpu = Cpu(_exe(), profile=True, engine=engine)
        trace = []
        result = cpu.run(
            sample_interval=interval,
            on_sample=lambda c, t: trace.append((tuple(c), tuple(t))),
        )
        return trace, result

    @staticmethod
    def _played(interval, feed=None):
        stream = stages.sample_stream(_exe(), MAX_STEPS, interval)
        player = stream.play()
        supply = iter(feed) if feed is not None else None
        trace = []
        try:
            sample = next(player)
            while True:
                trace.append((tuple(sample[0]), tuple(sample[1])))
                sample = player.send(next(supply) if supply is not None else None)
        except StopIteration as stop:
            return trace, stop.value

    @staticmethod
    def _same_run(expected, got):
        assert expected.steps == got.steps
        assert expected.cycles == got.cycles
        assert expected.taken == got.taken
        assert expected.pc_counts == got.pc_counts
        assert expected.edge_counts == got.edge_counts

    @pytest.mark.parametrize("interval", [97, 1000])
    def test_matches_the_simulators_run_exactly(self, engine, interval):
        expected_trace, expected = self._cpu_trace(engine, interval)
        got_trace, got = self._played(interval)
        assert expected_trace == got_trace
        self._same_run(expected, got)

    @pytest.mark.parametrize("factor", [1, 3, 8])
    def test_constant_override_takes_every_kth_sample(self, engine, factor):
        # the first sample falls one base interval in, before any override;
        # from there on every chunk spans *factor* base intervals, and the
        # halt sample ends the last one
        fixed_trace, fixed = self._cpu_trace(engine, 250)
        _, coarse = self._cpu_trace(engine, 250 * factor)
        got_trace, got = self._played(250, [250 * factor] * 10_000)
        last = len(fixed_trace) - 1
        expected = fixed_trace[0:last:factor] + [fixed_trace[last]]
        assert got_trace == expected
        self._same_run(fixed, got)
        self._same_run(coarse, got)

    def test_varying_overrides_pick_the_predicted_samples(self, engine):
        fixed_trace, _ = self._cpu_trace(engine, 250)
        feed = [500, 1000, 2000, 4000, 8000] * 100
        got_trace, _ = self._played(250, feed)
        last = len(fixed_trace) - 1
        predicted, position = [0], 0
        for interval in feed:
            if position == last:
                break
            position = min(position + interval // 250, last)
            predicted.append(position)
        assert got_trace == [fixed_trace[i] for i in predicted]

    def test_replay_feeds_return_values_back(self, engine):
        fixed_trace, expected = self._cpu_trace(engine, 500)
        stream = stages.sample_stream(_exe(), MAX_STEPS, 500)
        boundaries = []

        def on_sample(counts, taken):
            boundaries.append(sum(counts))
            return 2_000   # coarsen after the first sample

        run = stream.replay(on_sample)
        assert boundaries[0] == 500
        for before, after in zip(boundaries[:-1], boundaries[1:-1]):
            assert after - before == 2_000
        assert boundaries[-1] == expected.steps
        self._same_run(expected, run)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(SimulationError):
            stages.sample_stream(_exe(), MAX_STEPS, 0)

    @pytest.mark.parametrize("bad", [-1, 0.5, True, "soon", [1], 750],
                             ids=["negative", "float", "bool", "str", "list",
                                  "non-multiple"])
    def test_rejects_bad_interval_overrides(self, bad):
        # a negative override would skip backwards, a non-multiple would
        # need a boundary the recorded run never sampled: both are rejected
        # with a clear error, via send() and via an on_sample return alike
        stream = stages.sample_stream(_exe(), MAX_STEPS, 500)
        player = stream.play()
        next(player)
        with pytest.raises(SimulationError, match="override"):
            player.send(bad)
        with pytest.raises(SimulationError, match="override"):
            stream.replay(lambda c, t: bad)


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
    """Cold-counter spill must not move a single sample boundary or
    counter value.

    The spill machinery rewrites live counter bookkeeping mid-run; sampled
    runs must stay bit-identical to the threaded engine at every
    observation point regardless.  Interval 1 forces a single-stepped
    tail on every chunk, 7 and 97 land boundaries mid-block and
    mid-chain.
    """

    #: superblock configurations: spill after a single cold fold, and
    #: the spill switched off so every unit stays in the fold scan
    CONFIGS = {
        "spill": {"engine": "superblock", "spill_after": 1},
        "no-spill": {"engine": "superblock", "spill_after": 0},
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

