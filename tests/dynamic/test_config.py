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
    # a float size raised a stray TypeError from a slice once the table filled
    ("table_size", 2.5),
    ("table_size", 32.0),
    ("table_size", True),       # a bool is not a count
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
    # counts must be ints: a float or a bool used to be accepted
    ("sample_interval", 4_000.0),
    ("repartition_samples", 1.5),    # silently repartitioned every third sample
    ("repartition_samples", True),
    ("reconfig_cycles", 2.5),
    ("cad_latency_samples", 1.5),
    ("settle_samples", 2.5),
    ("max_interval_factor", 1.5),    # failed mid-replay on a 6000.0 interval
    ("max_interval_factor", "8"),
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
