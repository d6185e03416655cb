"""Partition-test fixtures."""

import pytest

from repro import obs


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
