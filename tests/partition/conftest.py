"""Partition-test fixtures."""

import pytest

from repro import obs
from repro.partition import default_passes, legacy_devices, partition


@pytest.fixture()
def telemetry(tmp_path, monkeypatch):
    """Telemetry on, clean registry, torn back down off (mirrors the obs
    suite's fixture so pipeline tests can assert on counters)."""
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
    monkeypatch.delenv(obs.ENABLE_ENV, raising=False)
    obs.clear_metrics()
    obs.clear_trace()
    obs.enable()
    yield obs
    obs.disable()
    obs.clear_metrics()
    obs.clear_trace()


def legacy_partition(platform, candidates, total_cycles, algorithm="90-10"):
    """*algorithm* over the two-device view (CPU + one monolithic fabric
    carrying the whole budget) -- the paper flow's default partition call."""
    return partition(
        candidates,
        legacy_devices(platform),
        platform=platform,
        total_cycles=total_cycles,
        passes=default_passes(algorithm, legacy=True),
    ).result
