"""Record once, replay per platform (:mod:`repro.stages` sample streams).

The first fixed-interval dynamic flow of a binary runs the simulator and
records its samples; every later platform replays them into its own
controller.  Replay must be exact: each ``on_sample`` call sees the same
counters as a live run, and the reports are equal.  Adaptive sampling and
failed runs stay live and record nothing.
"""

from __future__ import annotations

import pytest

from repro import stages
from repro.compiler import CompilerOptions
from repro.compiler.driver import compile_source
from repro.dynamic.controller import DynamicConfig, DynamicPartitionController
from repro.dynamic.flow import run_dynamic_flow
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


def _static_record(report) -> tuple:
    return (
        report.run,
        report.recovered,
        report.failure_reason,
        report.summary_row(),
        report.app_speedup,
        report.energy_savings,
        report.area_gates,
        [kernel.name for kernel in report.metrics.kernels] if report.metrics else [],
    )


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


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("platform", DYNAMIC)
@pytest.mark.parametrize("name", NAMES)
def test_replay_equals_live_run(name, platform, mode, samples, cpu_calls):
    config, regions = MODES[mode]
    source = get_benchmark(name).source
    target = _platform(platform, regions)
    other = _platform(next(p for p in DYNAMIC if p != platform), regions)

    stages.clear()
    live = run_dynamic_flow(source, name, platform=target, config=config)
    live_samples = samples[:]
    assert cpu_calls == {"init": 1, "run": 1}

    stages.clear()
    run_dynamic_flow(source, name, platform=other, config=config)
    samples.clear()
    cpu_calls.update(init=0, run=0)
    replayed = run_dynamic_flow(source, name, platform=target, config=config)

    assert cpu_calls == {"init": 0, "run": 0}
    assert len(samples) == len(live_samples) > 1
    for index, (live_sample, replayed_sample) in enumerate(zip(live_samples, samples)):
        assert replayed_sample == live_sample, f"sample {index} differs"
    assert replayed.timeline == live.timeline
    assert replayed.summary_row() == live.summary_row()
    assert _static_record(replayed.static) == _static_record(live.static)


def test_adaptive_sampling_always_runs_live(cpu_calls):
    source = get_benchmark("brev").source
    config = DynamicConfig(adaptive_sampling=True)
    for platform in DYNAMIC:
        run_dynamic_flow(source, "brev", platform=NAMED_PLATFORMS[platform],
                         config=config)
    assert cpu_calls["run"] == 2
    assert stages.sample_stream(_exe("brev"), MAX_STEPS,
                                config.sample_interval) is None


def test_a_run_past_max_steps_fails_everywhere_and_stores_nothing(cpu_calls):
    source = get_benchmark("crc").source
    for platform in DYNAMIC:
        with pytest.raises(SimulationError, match="exceeded max_steps"):
            run_dynamic_flow(source, "crc", platform=NAMED_PLATFORMS[platform],
                             max_steps=10_000)
    assert cpu_calls["run"] == 2
    exe = _exe("crc")
    interval = DynamicConfig().sample_interval
    assert stages.sample_stream(exe, 10_000, interval) is None
    with pytest.raises(SimulationError, match="exceeded max_steps"):
        stages.profiled_run(exe, NAMED_PLATFORMS["mips200"].cpi, 10_000)
    assert cpu_calls["run"] == 3


def test_clear_drops_streams():
    run_dynamic_flow(get_benchmark("brev").source, "brev")
    exe, interval = _exe("brev"), DynamicConfig().sample_interval
    assert stages.sample_stream(exe, MAX_STEPS, interval) is not None
    stages.clear()
    assert stages.sample_stream(exe, MAX_STEPS, interval) is None


def test_recorded_site_costs_equal_the_simulators():
    cpis = {NAMED_PLATFORMS[name].cpi for name in DYNAMIC}
    assert len(cpis) == 2
    interval = DynamicConfig().sample_interval
    for bench in ALL_BENCHMARKS:
        exe = _exe(bench.name)
        cpu = Cpu(exe, profile=True)
        stages.recorded_sampled_run(cpu, MAX_STEPS, interval,
                                    lambda counts, taken: None)
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
