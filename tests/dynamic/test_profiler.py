"""Online profiler: hot-loop detection from sampled per-site counters."""

from repro import stages
from repro.compiler import compile_source
from repro.dynamic.profiler import OnlineProfiler, ProfilerConfig
from repro.flow import run_flow
from repro.sim.cpu import CpiModel

_PHASED = """
int a[128];
int b[128];
int checksum;
int main(void) {
    int i; int r;
    for (r = 0; r < 40; r++)
        for (i = 0; i < 128; i++) a[i] = (a[i] + i) & 1023;
    for (r = 0; r < 40; r++)
        for (i = 0; i < 128; i++) b[i] = (b[i] + a[i]) & 1023;
    checksum = a[5] + b[9];
    return 0;
}
"""


def _run_with_profiler(source, interval=1000, config=None):
    exe = compile_source(source, opt_level=1)
    stream = stages.sample_stream(exe, 100_000_000, interval)
    profiler = OnlineProfiler(stream.sites(CpiModel()), config)
    history = []

    def on_sample(counts, taken):
        profiler.sample(counts, taken)
        history.append(dict(profiler.hotness))

    stream.replay(on_sample)
    return exe, profiler, history


class TestOnlineProfiler:
    def test_hottest_target_matches_oracle_profile(self):
        exe, profiler, _ = _run_with_profiler(_PHASED)
        report = run_flow(_PHASED, "phased", opt_level=1)
        oracle_inner = [
            lp for lp in report.profile.hot_loops() if lp.depth == 2
        ]
        hot_addresses = {address for address, _ in profiler.hot_targets()}
        # at program end the profiler's hot set must contain the second
        # phase's inner loop header (the first has decayed away)
        second_phase = max(oracle_inner, key=lambda lp: lp.header_address)
        assert second_phase.header_address in hot_addresses

    def test_phase_change_decays_old_loop(self):
        _, profiler, history = _run_with_profiler(_PHASED)
        # both inner loops were hottest at *some* point in the run
        peak_leader = {max(h, key=h.get) for h in history if h}
        assert len(peak_leader) >= 2
        # the first phase's leader is no longer the leader at exit
        first_leader = max(history[0], key=history[0].get)
        final = history[-1]
        assert max(final, key=final.get) != first_leader

    def test_table_size_bounded(self):
        config = ProfilerConfig(table_size=2)
        _, profiler, history = _run_with_profiler(_PHASED, config=config)
        assert all(len(h) <= 2 for h in history)

    def test_samples_counted_and_weight_positive(self):
        _, profiler, history = _run_with_profiler(_PHASED)
        assert profiler.samples == len(history)
        assert profiler.total_weight() > 0

    def test_hot_targets_sorted_and_thresholded(self):
        config = ProfilerConfig(hot_fraction=0.25)
        _, profiler, _ = _run_with_profiler(_PHASED, config=config)
        targets = profiler.hot_targets()
        scores = [score for _, score in targets]
        assert scores == sorted(scores, reverse=True)
        total = profiler.total_weight()
        assert all(score >= 0.25 * total for score in scores)
