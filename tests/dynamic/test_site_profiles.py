"""The controller's loop sites and the static profile read one loop index.

At the halt sample of a recorded run, the cumulative counters the
controller prices a site from (:meth:`_site_state`) cover the whole run,
so the site's :class:`LoopProfile` must equal the one
:func:`build_profile` attributes to the same loop from the profiled run:
software cycles, iterations, invocations, depth, block starts and block
counts.  Checked for every ``static_suite`` benchmark at -O1 and -O3,
under a hard and a soft CPU model.
"""

from __future__ import annotations

import pytest

from repro import stages
from repro.compiler import CompilerOptions, compile_source
from repro.decompile import decompile
from repro.dynamic.controller import DynamicConfig, DynamicPartitionController
from repro.partition.profiles import build_profile
from repro.platform.platform import NAMED_PLATFORMS
from repro.programs import ALL_BENCHMARKS

MAX_STEPS = 200_000_000
PLATFORMS = ("mips200", "softcore85")


@pytest.mark.parametrize("level", (1, 3))
@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_halt_sample_sites_equal_the_static_profile(bench, level):
    exe = stages.compiled(bench.source, CompilerOptions.from_level(level),
                          compile_source)
    config = DynamicConfig()
    stream = stages.sample_stream(exe, MAX_STEPS, config.sample_interval)
    for counts, taken in stream.play():
        pass   # the live counter lists end at the halt sample
    program = stages.decompiled(exe, None, decompile)
    for name in PLATFORMS:
        platform = NAMED_PLATFORMS[name]
        controller = DynamicPartitionController(
            stream.sites(platform.cpi), exe, platform, config)
        sites = controller._ensure_sites()
        if program.failures:
            assert bench.expect_recovery_failure and not sites
            continue
        profile = build_profile(exe, program, stream.run.recost(platform.cpi),
                                platform.cpi)
        assert sites
        assert [(site.entry.function.name, address)
                for address, site in sites.items()] == list(profile.loops)
        for site in sites.values():
            online = controller._site_profile(
                site, controller._site_state(site, counts, taken))
            assert online == profile.loops[online.key], (name, online.key)
