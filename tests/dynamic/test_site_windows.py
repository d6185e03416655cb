"""An independent oracle for the controller's interval accounting.

At every ``on_sample`` call the counters are re-summed here with plain
per-index loops: the interval's ``steps`` and ``cycles`` over the whole
text, and its ``moved_cycles`` over the ``body_indices`` of the kernels
resident during the interval.  The controller's :class:`IntervalStats`
must match exactly, whether the samples come from a replayed recording or
live from :meth:`Cpu.run`, with fixed or phase-adaptive sampling, and
when a concurrent-CAD result lands between re-partition decisions.

The per-sample memos of ``_site_seconds`` must stay fresh: a loop that
keeps iterating is priced anew at every sample, and a site whose kernel
appears mid-sample is priced, not served the ``(0.0, 0.0)`` it got before.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import stages
from repro.compiler import CompilerOptions, compile_source
from repro.dynamic.controller import DynamicConfig, DynamicPartitionController
from repro.dynamic.flow import run_dynamic_flow_on_executable
from repro.platform.platform import NAMED_PLATFORMS
from repro.programs import get_benchmark
from repro.sim.cpu import Cpu
from tests.sim.test_differential import random_program

MAX_STEPS = 20_000_000
BENCHMARKS = ("g721", "sobel", "adpcm", "brev")
#: fuzz seeds whose O1 binaries recover and get kernels placed
FUZZ_SEEDS = (0, 6, 11)
#: fuzz programs are short: a finer interval gives them several windows
FUZZ_INTERVAL = 500
SAMPLING = ("fixed", "adaptive")
#: a concurrent-CAD result landing off the re-partition cadence: the new
#: kernel's first window opens at its activation sample
CONCURRENT = DynamicConfig(concurrent_cad=True, cad_latency_samples=3)


def _exe(program: str):
    if program.startswith("fuzz"):
        return compile_source(random_program(int(program[4:])), opt_level=1)
    return stages.compiled(get_benchmark(program).source,
                           CompilerOptions.from_level(1), compile_source)


def _config(program: str, sampling: str) -> DynamicConfig:
    interval = FUZZ_INTERVAL if program.startswith("fuzz") else 4_000
    return replace(CONCURRENT if sampling == "concurrent" else DynamicConfig(),
                   sample_interval=interval,
                   adaptive_sampling=sampling == "adaptive")


def _reference(counts, taken, before, costs, penalty, indices):
    """Steps and cycles of the window from *before* over *indices*."""
    base_counts, base_taken = before
    steps = cycles = 0
    for i in indices:
        c = counts[i] - base_counts[i]
        steps += c
        cycles += c * costs[i] + penalty * (taken[i] - base_taken[i])
    return steps, cycles


@pytest.fixture()
def checked(monkeypatch):
    """Wrap the controller so every sample is checked against the oracle;
    returns the list of checked intervals' ``moved_cycles``."""
    moved: list[int] = []
    init, on_sample = (DynamicPartitionController.__init__,
                       DynamicPartitionController.on_sample)
    inputs: dict[int, tuple[list[int], list]] = {}

    def recording_init(self, sites, *args, **kwargs):
        init(self, sites, *args, **kwargs)
        zeros = [0] * len(sites.site_costs)
        inputs[id(self)] = (list(sites.site_costs), [(zeros, zeros)])

    def checking(self, counts, taken):
        costs, before = inputs[id(self)]
        penalty = self.platform.cpi.taken_penalty
        residents = [site.body_indices for site in self._resident.values()]
        result = on_sample(self, counts, taken)
        interval = self.timeline.intervals[-1]
        steps, cycles = _reference(counts, taken, before[0], costs, penalty,
                                   range(len(costs)))
        loop_cycles = [
            _reference(counts, taken, before[0], costs, penalty, body)[1]
            for body in residents
        ]
        expected = (steps, cycles, sum(c for c in loop_cycles if c > 0))
        assert (interval.steps, interval.cycles, interval.moved_cycles) \
            == expected, f"interval {interval.index}"
        moved.append(interval.moved_cycles)
        before[0] = (counts[:len(costs)], taken[:len(costs)])
        return result

    monkeypatch.setattr(DynamicPartitionController, "__init__", recording_init)
    monkeypatch.setattr(DynamicPartitionController, "on_sample", checking)
    return moved


PROGRAMS = BENCHMARKS + tuple(f"fuzz{seed}" for seed in FUZZ_SEEDS)


@pytest.mark.parametrize("sampling", SAMPLING + ("concurrent",))
@pytest.mark.parametrize("platform", ("mips200", "softcore85"))
@pytest.mark.parametrize("program", PROGRAMS)
def test_replayed_windows_match_the_oracle(program, platform, sampling, checked):
    report = run_dynamic_flow_on_executable(
        _exe(program), name=program, platform=NAMED_PLATFORMS[platform],
        config=_config(program, sampling), max_steps=MAX_STEPS,
    )
    assert len(checked) == len(report.timeline.intervals) > 1
    assert any(checked), "no kernel was ever resident: nothing was checked"


@pytest.mark.parametrize("sampling", SAMPLING)
@pytest.mark.parametrize("program", ("g721", "brev", "fuzz6"))
def test_live_windows_match_the_oracle(program, sampling, checked):
    exe, platform = _exe(program), NAMED_PLATFORMS["softcore85"]
    config = _config(program, sampling)
    cpu = Cpu(exe, cpi=platform.cpi, profile=True)
    sites = stages.SiteView(cpu.branch_edges, cpu.jump_edges, cpu.site_costs)
    controller = DynamicPartitionController(sites, exe, platform, config)
    cpu.run(max_steps=MAX_STEPS, sample_interval=config.sample_interval,
            on_sample=controller.on_sample)
    assert len(checked) == len(controller.finish().intervals) > 1
    assert any(checked)


def _reference_seconds(controller, site, counts, taken) -> float:
    """Software seconds of *site*'s cumulative work, re-summed per index."""
    zeros = [0] * len(controller._costs)
    _, cycles = _reference(counts, taken, (zeros, zeros), controller._costs,
                           controller.platform.cpi.taken_penalty,
                           site.body_indices)
    return cycles / (controller.platform.cpu_clock_mhz * 1e6)


def _replay(program: str, config: DynamicConfig):
    """A controller on *program* and its sample stream's player."""
    exe, platform = _exe(program), NAMED_PLATFORMS["mips200"]
    stream = stages.sample_stream(exe, MAX_STEPS, config.sample_interval)
    controller = DynamicPartitionController(stream.sites(platform.cpi), exe,
                                            platform, config)
    return controller, stream.play()


def test_site_seconds_are_fresh_at_every_sample():
    controller, player = _replay("g721", DynamicConfig())
    seen: dict[int, list[float]] = {}
    for counts, taken in player:
        controller.on_sample(counts, taken)
        for address, site in controller._resident.items():
            sw, hw = controller._site_seconds(site, counts, taken)
            assert sw == _reference_seconds(controller, site, counts, taken)
            assert hw > 0.0
            seen.setdefault(address, []).append(sw)
    # a resident loop that keeps iterating is priced anew every sample
    grown = [run for run in seen.values()
             if len(run) > 2 and all(a < b for a, b in zip(run, run[1:]))]
    assert grown, seen


def test_a_kernel_synthesized_mid_sample_is_priced():
    # no re-partition runs, so no site has a kernel yet
    controller, player = _replay("brev", DynamicConfig(repartition_samples=10**9))
    for _ in range(3):
        counts, taken = next(player)
        controller.on_sample(counts, taken)
    sites = controller._ensure_sites()
    priced = 0
    for site in sites.values():
        assert site.kernel is None
        assert controller._site_seconds(site, counts, taken) == (0.0, 0.0)
        if controller._ensure_kernel(site) is None:
            continue
        sw, hw = controller._site_seconds(site, counts, taken)
        assert sw == _reference_seconds(controller, site, counts, taken)
        priced += sw > 0.0 and hw > 0.0
    assert priced
