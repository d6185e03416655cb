"""Property-style tests for the baseline partitioners.

Random (seeded) candidate sets drive every algorithm through many shapes --
tight/loose area budgets, overlapping nests, useless kernels -- asserting
the two invariants every partitioner must hold: never exceed the FPGA
capacity, and never beat the exhaustive reference on candidate sets small
enough for it to be exact.
"""

from __future__ import annotations

import random

import pytest

from repro.partition.estimator import Candidate
from repro.partition.profiles import LoopProfile
from repro.platform.platform import Platform
from repro.synth.fpga import FpgaDevice
from repro.synth.synthesizer import HwKernel

from tests.partition.conftest import legacy_partition

ALGORITHMS = ["greedy", "gclp", "annealing"]


class _StubFunction:
    """Just enough of DecompiledFunction for the partitioners."""

    def __init__(self, name: str):
        self.name = name
        self.loop_footprints: dict = {}


def _candidate(rng: random.Random, index: int, functions: list[_StubFunction]) -> Candidate:
    func = rng.choice(functions)
    # overlapping nests: block starts drawn from a tiny per-function pool
    starts = rng.sample(range(0x400000, 0x400040, 4), rng.randint(1, 3))
    sw = rng.uniform(1e-5, 1e-2)
    # some kernels lose time (hw slower than sw), some win big
    hw = sw * rng.uniform(0.05, 1.6)
    area = rng.uniform(500.0, 40_000.0)
    profile = LoopProfile(
        function=func.name,
        header_address=starts[0],
        depth=1,
        block_starts=sorted(starts),
        sw_cycles=max(1, int(sw * 200e6)),
        iterations=rng.randint(1, 10_000),
        invocations=rng.randint(1, 50),
    )
    kernel = HwKernel(
        name=f"cand{index}_{func.name}",
        header_address=starts[0],
        area_gates=area,
        clock_mhz=100.0,
        schedule_length=rng.randint(1, 12),
        ii=1,
        localized=False,
        bram_bytes=0,
        iterations_multiplier=1,
        pipelined=True,
    )
    return Candidate(
        function=func, profile=profile, kernel=kernel,
        hw_seconds=hw, sw_seconds=sw,
    )


def _random_candidates(seed: int, n: int) -> list[Candidate]:
    rng = random.Random(seed)
    functions = [_StubFunction(f"f{i}") for i in range(rng.randint(1, 3))]
    return [_candidate(rng, i, functions) for i in range(n)]


def _platform(seed: int) -> Platform:
    rng = random.Random(seed * 7919)
    capacity = rng.choice([9_000, 25_000, 60_000, 100_000])
    device = FpgaDevice(f"prop{capacity}", capacity, 48 * 1024, 210.0)
    return Platform(name=f"prop-{capacity}", cpu_clock_mhz=200.0, device=device)


def _total_saved(result) -> float:
    return sum(c.saved_seconds for c in result.selected)


@pytest.mark.parametrize("seed", range(12))
class TestBaselineProperties:
    def test_capacity_and_overlap_invariants(self, seed):
        candidates = _random_candidates(seed, n=rng_size(seed))
        platform = _platform(seed)
        total_cycles = sum(c.profile.sw_cycles for c in candidates) or 1
        for algorithm in ALGORITHMS + ["exhaustive", "90-10"]:
            result = legacy_partition(
                platform, candidates, total_cycles, algorithm
            )
            assert result.area_used <= platform.capacity_gates + 1e-9
            assert result.area_used == pytest.approx(
                sum(c.area for c in result.selected)
            )
            for i, a in enumerate(result.selected):
                for b in result.selected[i + 1:]:
                    assert not a.overlaps(b)

    def test_exhaustive_is_never_beaten(self, seed):
        # small sets only: exhaustive placement is exact up to 14 candidates
        candidates = _random_candidates(seed, n=min(rng_size(seed), 10))
        platform = _platform(seed)
        total_cycles = sum(c.profile.sw_cycles for c in candidates) or 1
        best = _total_saved(
            legacy_partition(platform, candidates, total_cycles, "exhaustive")
        )
        for algorithm in ALGORITHMS + ["90-10"]:
            saved = _total_saved(
                legacy_partition(platform, candidates, total_cycles, algorithm)
            )
            assert saved <= best * (1 + 1e-9) + 1e-12, algorithm


def rng_size(seed: int) -> int:
    return random.Random(seed * 31).randint(2, 10)


def test_empty_candidate_list():
    platform = _platform(0)
    for algorithm in ALGORITHMS + ["exhaustive"]:
        result = legacy_partition(platform, [], 1000, algorithm)
        assert result.selected == []
        assert result.area_used == 0.0


def test_all_unprofitable_candidates():
    rng = random.Random(99)
    functions = [_StubFunction("f")]
    candidates = []
    for i in range(6):
        candidate = _candidate(rng, i, functions)
        candidate.hw_seconds = candidate.sw_seconds * 2.0  # always a loss
        candidates.append(candidate)
    platform = _platform(3)
    for algorithm in ("greedy", "exhaustive"):
        result = legacy_partition(platform, candidates, 100_000, algorithm)
        assert _total_saved(result) <= 0.0 or not result.selected
