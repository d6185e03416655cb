"""The public surface of the ``repro`` package.

Two guarantees are pinned here.  First, the module-level names that
``perfbench/tracer.py`` rebinds must stay module-level globals that the flow
actually calls through -- rebinding one has to be seen by the next run.
Second, the retired APIs (the network service tier, the two-device
partitioner shims and their aliases) stay gone, so ``repro.partition()`` is
the one way in.
"""

from __future__ import annotations

import importlib

import pytest

import repro
import repro.dynamic.controller
import repro.dynamic.flow
import repro.flow
import repro.flow_cache
import repro.sim.superblock.persist
import repro.store
from repro.programs import get_benchmark

_BREV = get_benchmark("brev")

#: (module, attribute) pairs rebound by the per-layer profiler, and the
#: flow whose run must go through them
_HOOKS = [
    (repro.flow, "compile_source", "static"),
    (repro.flow, "decompile", "static"),
    (repro.flow, "build_profile", "static"),
    (repro.flow, "build_candidates", "static"),
    (repro.flow, "run_partition", "static"),
    (repro.flow, "evaluate_partition", "static"),
    (repro.dynamic.flow, "compile_source", "dynamic"),
    (repro.dynamic.controller, "decompile", "dynamic"),
]


def _run(kind: str) -> None:
    if kind == "static":
        report = repro.flow.run_flow(_BREV.source, _BREV.name)
    else:
        report = repro.dynamic.flow.run_dynamic_flow(_BREV.source, _BREV.name)
    assert report.recovered


@pytest.mark.parametrize(
    "module, attr, kind", _HOOKS,
    ids=[f"{m.__name__}.{a}" for m, a, _ in _HOOKS],
)
def test_rebinding_a_layer_entry_point_is_seen_by_the_flow(
    module, attr, kind, monkeypatch
):
    original = getattr(module, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    _run(kind)
    assert calls, f"{module.__name__}.{attr} was rebound but never called"


def test_flow_cache_and_trace_persistence_share_the_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
    flow_store = repro.flow_cache.store()
    trace_store = repro.sim.superblock.persist.trace_store()
    assert isinstance(flow_store, repro.store.ShardedStore)
    assert isinstance(trace_store, repro.store.ShardedStore)
    assert flow_store.root == tmp_path / "flow"
    assert trace_store.root == tmp_path / "traces"


def test_package_exports_the_dynamic_flow_entry_point():
    assert repro.run_dynamic_flow is repro.dynamic.flow.run_dynamic_flow


def test_service_package_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.service")


_LEGACY_PARTITIONERS = [
    "NinetyTenPartitioner",
    "greedy_partition",
    "gclp_partition",
    "annealing_partition",
    "exhaustive_partition",
]


@pytest.mark.parametrize("name", _LEGACY_PARTITIONERS)
def test_two_device_shims_are_not_exported(name):
    assert not hasattr(repro, name)
    assert not hasattr(repro.partition, name)
    for module in ("repro.partition.ninety_ten", "repro.partition.baselines"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


@pytest.mark.parametrize("module, name", [
    ("repro.flow", "_execute_job"),
    ("repro.flow", "run_dynamic_flow"),
    ("repro.flow_cache", "_sweep_stale_tmp"),
    ("repro.partition.profiles", "_block_ranges"),
])
def test_retired_aliases_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
