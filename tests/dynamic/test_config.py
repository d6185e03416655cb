"""``DynamicConfig`` and ``ProfilerConfig`` reject values that would
silently break the model, and accept the edges of their valid ranges."""

import pytest

from repro.dynamic.controller import DynamicConfig
from repro.dynamic.profiler import ProfilerConfig


@pytest.mark.parametrize("field, value", [
    ("table_size", 0),          # empties the hot table every sample
    ("table_size", -3),         # would drop the coldest entries silently
    ("hot_fraction", -0.1),     # marks everything hot
    ("hot_fraction", 1.5),      # marks nothing hot
    ("hot_fraction", float("nan")),
])
def test_profiler_config_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        ProfilerConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("table_size", 1), ("hot_fraction", 0.0), ("hot_fraction", 1.0),
])
def test_profiler_config_accepts_range_edges(field, value):
    assert getattr(ProfilerConfig(**{field: value}), field) == value


@pytest.mark.parametrize("field, value", [
    ("sample_interval", 0),
    ("repartition_samples", 0),
    ("reconfig_cycles", -1),    # would give cycles back on every placement
    ("cad_latency_samples", 0),
    ("max_fabric_share", 0.0),
    ("max_fabric_share", 1.5),
    ("settle_samples", 0),
    ("max_interval_factor", 0),
])
def test_dynamic_config_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        DynamicConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("sample_interval", 1), ("repartition_samples", 1),
    ("reconfig_cycles", 0), ("cad_latency_samples", 1),
    ("max_fabric_share", 1.0), ("settle_samples", 1),
    ("max_interval_factor", 1),
])
def test_dynamic_config_accepts_range_edges(field, value):
    assert getattr(DynamicConfig(**{field: value}), field) == value
