"""Record once, replay everywhere (:mod:`repro.stages` sample streams).

The first dynamic flow of a binary runs the simulator and records its
fixed-interval samples; every flow, on every platform, replays them into
its own controller.  Replay must be exact: each ``on_sample`` call sees the
same counters as a controller fed live by :meth:`Cpu.run`, and the
timelines and runs are equal.  Adaptive and multi-application flows replay
the same stream; a failed run records nothing.
"""

from __future__ import annotations

import pytest

from repro import stages
from repro.compiler import CompilerOptions
from repro.compiler.driver import compile_source
from repro.dynamic.controller import DynamicConfig, DynamicPartitionController
from repro.dynamic.flow import run_dynamic_flow
from repro.dynamic.multi import AppSpec, run_multi_app_flow
from repro.errors import SimulationError
from repro.platform.platform import NAMED_PLATFORMS
from repro.programs import ALL_BENCHMARKS, get_benchmark
from repro.sim.cpu import Cpu

#: two benchmarks that recover and one whose jump tables defeat recovery
NAMES = ("brev", "crc", "tblook")
DYNAMIC = ("mips200", "softcore85")
MAX_STEPS = 200_000_000
#: (config, partial-reconfiguration regions; 0 is a monolithic fabric)
MODES = {
    "inline": (DynamicConfig(), 0),
    "concurrent-regions": (DynamicConfig(concurrent_cad=True), 4),
}


def _platform(name: str, regions: int):
    platform = NAMED_PLATFORMS[name]
    return platform.with_regions(regions) if regions else platform


def _exe(name: str):
    options = CompilerOptions.from_level(1)
    return stages.compiled(get_benchmark(name).source, options, compile_source)


@pytest.fixture()
def samples(monkeypatch):
    """Every ``on_sample`` call's counters, as copies, in call order."""
    seen: list[tuple[list[int], list[int]]] = []
    original = DynamicPartitionController.on_sample

    def recording(self, counts, taken):
        seen.append((list(counts), list(taken)))
        return original(self, counts, taken)

    monkeypatch.setattr(DynamicPartitionController, "on_sample", recording)
    return seen


@pytest.fixture()
def cpu_calls(monkeypatch):
    """Counts of ``Cpu.__init__`` and ``Cpu.run`` calls."""
    calls = {"init": 0, "run": 0}
    init, run = Cpu.__init__, Cpu.run

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counting_run(self, *args, **kwargs):
        calls["run"] += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Cpu, "__init__", counting_init)
    monkeypatch.setattr(Cpu, "run", counting_run)
    return calls


def _live(exe, platform, config):
    """A controller fed by the simulator itself: ``(timeline, run)``."""
    cpu = Cpu(exe, cpi=platform.cpi, profile=True)
    sites = stages.SiteView(cpu.branch_edges, cpu.jump_edges, cpu.site_costs)
    controller = DynamicPartitionController(sites, exe, platform, config)
    run = cpu.run(max_steps=MAX_STEPS, sample_interval=config.sample_interval,
                  on_sample=controller.on_sample)
    return controller.finish(), run


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("platform", DYNAMIC)
@pytest.mark.parametrize("name", NAMES)
def test_replay_equals_live_run(name, platform, mode, samples, cpu_calls):
    config, regions = MODES[mode]
    source = get_benchmark(name).source
    target = _platform(platform, regions)
    other = _platform(next(p for p in DYNAMIC if p != platform), regions)

    live_timeline, live_run = _live(_exe(name), target, config)
    live_samples = samples[:]

    stages.clear()
    run_dynamic_flow(source, name, platform=other, config=config)
    samples.clear()
    cpu_calls.update(init=0, run=0)
    replayed = run_dynamic_flow(source, name, platform=target, config=config)

    assert cpu_calls == {"init": 0, "run": 0}
    assert len(samples) == len(live_samples) > 1
    for index, (live_sample, replayed_sample) in enumerate(zip(live_samples, samples)):
        assert replayed_sample == live_sample, f"sample {index} differs"
    assert replayed.timeline == live_timeline
    assert replayed.static.run == live_run


def test_adaptive_and_multi_app_flows_simulate_each_binary_once(cpu_calls):
    adaptive = DynamicConfig(adaptive_sampling=True)
    apps = [AppSpec(get_benchmark(name).source, name) for name in ("brev", "crc")]
    for platform in DYNAMIC:
        run_dynamic_flow(get_benchmark("brev").source, "brev",
                         platform=NAMED_PLATFORMS[platform], config=adaptive)
        run_multi_app_flow(apps, platform=NAMED_PLATFORMS[platform])
        run_multi_app_flow(apps, platform=NAMED_PLATFORMS[platform],
                           config=adaptive)
    # one recorded run per binary serves every flow on both platforms
    assert cpu_calls == {"init": 2, "run": 2}


def test_a_run_past_max_steps_fails_everywhere_and_stores_nothing(cpu_calls):
    source = get_benchmark("crc").source
    for platform in DYNAMIC:
        with pytest.raises(SimulationError, match="exceeded max_steps"):
            run_dynamic_flow(source, "crc", platform=NAMED_PLATFORMS[platform],
                             max_steps=10_000)
    assert cpu_calls["run"] == 2
    exe = _exe("crc")
    interval = DynamicConfig().sample_interval
    with pytest.raises(SimulationError, match="exceeded max_steps"):
        stages.sample_stream(exe, 10_000, interval)
    assert cpu_calls["run"] == 3
    with pytest.raises(SimulationError, match="exceeded max_steps"):
        stages.profiled_run(exe, NAMED_PLATFORMS["mips200"].cpi, 10_000)
    assert cpu_calls["run"] == 4


def test_clear_drops_streams(cpu_calls):
    run_dynamic_flow(get_benchmark("brev").source, "brev")
    exe, interval = _exe("brev"), DynamicConfig().sample_interval
    stream = stages.sample_stream(exe, MAX_STEPS, interval)
    assert cpu_calls["run"] == 1
    stages.clear()
    assert stages.sample_stream(exe, MAX_STEPS, interval) is not stream
    assert cpu_calls["run"] == 2


def test_recorded_site_costs_equal_the_simulators():
    cpis = {NAMED_PLATFORMS[name].cpi for name in DYNAMIC}
    assert len(cpis) == 2
    interval = DynamicConfig().sample_interval
    for bench in ALL_BENCHMARKS:
        exe = _exe(bench.name)
        stream = stages.sample_stream(exe, MAX_STEPS, interval)
        for cpi in cpis:
            expected = Cpu(exe, cpi=cpi, engine="threaded").site_costs
            assert stream.site_costs(cpi) == expected, bench.name
            assert stream.sites(cpi).site_costs == expected


def test_recorded_run_seeds_the_profiled_run(cpu_calls):
    exe = _exe("fir")
    cpi = NAMED_PLATFORMS["softcore85"].cpi
    run_dynamic_flow(get_benchmark("fir").source, "fir",
                     platform=NAMED_PLATFORMS["mips200"])
    assert cpu_calls["run"] == 1
    seeded = stages.profiled_run(exe, cpi, MAX_STEPS)
    assert cpu_calls["run"] == 1

    stages.clear()
    fresh = stages.profiled_run(exe, cpi, MAX_STEPS)
    assert cpu_calls["run"] == 2
    assert seeded == fresh
