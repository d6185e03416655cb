"""Multi-application scenarios: N applications, one shared fabric."""

import pytest

from repro.dynamic.controller import DynamicConfig
from repro.dynamic.flow import run_dynamic_flow
from repro.dynamic.multi import (
    AppSpec,
    MultiAppJob,
    run_multi_app_flow,
    run_multi_app_flows,
)
from repro.platform import MIPS_200MHZ
from repro.programs import get_benchmark

_CONFIG = DynamicConfig(sample_interval=2_000, repartition_samples=2)


def _specs(*names):
    return [AppSpec(get_benchmark(name).source, name) for name in names]


@pytest.fixture(scope="module")
def pair():
    return run_multi_app_flow(
        _specs("brev", "crc"), platform=MIPS_200MHZ, config=_CONFIG
    )


class TestSharedFabric:
    def test_per_app_reports_and_names(self, pair):
        assert pair.names == ["brev", "crc"]
        for report in pair.reports:
            assert report.recovered
            assert report.timeline.intervals

    def test_both_apps_get_hardware(self, pair):
        placed = [r.name for r in pair.reports if r.timeline.final_resident]
        assert placed == ["brev", "crc"]

    def test_combined_peak_fits_one_fabric(self, pair):
        assert 0.0 < pair.peak_area_gates <= MIPS_200MHZ.capacity_gates
        assert pair.total_area_used <= MIPS_200MHZ.capacity_gates

    def test_each_apps_accounting_is_self_contained(self, pair):
        for report in pair.reports:
            total = sum(iv.cycles for iv in report.timeline.intervals)
            assert total == report.static.run.cycles
            assert report.timeline.software_seconds == pytest.approx(
                MIPS_200MHZ.cpu_seconds(report.static.run.cycles)
            )

    def test_shared_static_power_not_double_billed(self, pair):
        # both applications hold kernels: each one's share of the fabric
        # static power is < 1, so its energy is lower than a run that owns
        # the fabric outright; solo-vs-shared energy must not increase
        for spec, shared in zip(_specs("brev", "crc"), pair.reports):
            solo = run_dynamic_flow(
                spec.source, spec.name, opt_level=1,
                platform=MIPS_200MHZ, config=_CONFIG,
            )
            if solo.timeline.final_resident and shared.timeline.final_resident:
                assert shared.timeline.dynamic_energy_mj <= \
                    solo.timeline.dynamic_energy_mj * 1.001


class TestArbitration:
    def test_share_cap_respected(self):
        config = DynamicConfig(sample_interval=2_000, max_fabric_share=0.25)
        result = run_multi_app_flow(
            _specs("brev", "crc"), platform=MIPS_200MHZ, config=config
        )
        cap = 0.25 * MIPS_200MHZ.capacity_gates
        for report in result.reports:
            assert report.timeline.area_used <= cap + 1e-9
            for event in report.timeline.events:
                assert event.area_used <= cap + 1e-9

    def test_regioned_fabric_shared(self):
        platform = MIPS_200MHZ.with_regions(8)
        result = run_multi_app_flow(
            _specs("brev", "crc"), platform=platform, config=_CONFIG
        )
        assert result.peak_regions <= 8
        placed = [r for r in result.reports if r.timeline.final_resident]
        assert placed


class TestDeterminismAndPool:
    def test_identical_rerun(self, pair):
        again = run_multi_app_flow(
            _specs("brev", "crc"), platform=MIPS_200MHZ, config=_CONFIG
        )
        assert pair.summary_rows() == again.summary_rows()
        for a, b in zip(pair.reports, again.reports):
            assert [iv.wall_seconds for iv in a.timeline.intervals] == \
                [iv.wall_seconds for iv in b.timeline.intervals]

    def test_pool_matches_serial(self):
        jobs = [
            MultiAppJob(apps=tuple(_specs("brev", "crc")),
                        platform=MIPS_200MHZ, config=_CONFIG),
            MultiAppJob(apps=tuple(_specs("crc", "brev")),
                        platform=MIPS_200MHZ, config=_CONFIG),
        ]
        serial = run_multi_app_flows(jobs, max_workers=1)
        pooled = run_multi_app_flows(jobs, max_workers=2)
        for s, p in zip(serial, pooled):
            assert s.summary_rows() == p.summary_rows()
            assert s.peak_area_gates == p.peak_area_gates

    def test_single_app_multi_flow_matches_solo(self):
        # one application on the shared-fabric driver is the ordinary
        # dynamic flow: same timeline to the last interval
        [report] = run_multi_app_flow(
            _specs("crc"), platform=MIPS_200MHZ, config=_CONFIG
        ).reports
        solo = run_dynamic_flow(
            get_benchmark("crc").source, "crc", opt_level=1,
            platform=MIPS_200MHZ, config=_CONFIG,
        )
        assert report.summary_row() == solo.summary_row()
        assert [iv.wall_seconds for iv in report.timeline.intervals] == \
            [iv.wall_seconds for iv in solo.timeline.intervals]

    def test_empty_app_list_rejected(self):
        with pytest.raises(ValueError):
            run_multi_app_flow([], platform=MIPS_200MHZ)
