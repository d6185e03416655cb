"""The public surface of the ``repro`` package.

Two guarantees are pinned here.  First, the module-level names that
``perfbench/tracer.py`` rebinds must stay module-level globals that the flow
actually calls through -- rebinding one has to be seen by the next run.
Second, the retired APIs (the network service tier, the two-device
partitioner shims, the two-device partition mode and their aliases, the
simulator's trace tier and its persistent cache, the on-disk flow-report
cache, the cost-model registry, the unpriced synthesis wrappers) stay
gone, so ``repro.partition()`` is the one way in, the block tier is the
one compiled dispatch path, the in-process stage memo is the one artifact
cache, :func:`repro.partition.costmodels.device_cost` is the one device
pricing and each synthesis step has one entry point.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

import repro
import repro.dynamic.controller
import repro.dynamic.flow
import repro.flow
from repro.__main__ import main
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


def test_package_exports_the_dynamic_flow_entry_point():
    assert repro.run_dynamic_flow is repro.dynamic.flow.run_dynamic_flow


def test_service_package_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.service")


@pytest.mark.parametrize("module", [
    "repro.sim.superblock.traces",
    "repro.sim.superblock.persist",
])
def test_trace_tier_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize("module", ["repro.flow_cache", "repro.store"])
def test_on_disk_flow_cache_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


_KERNEL = """
int data[64];
int checksum;
int main(void) {
    int i;
    for (i = 0; i < 64; i++) data[i] = (data[i] + i) & 1023;
    checksum = data[7];
    return 0;
}
"""

#: one invocation of each subcommand that compiles, simulates, decompiles
#: or partitions; ``{work}`` is a scratch directory outside the home one
_SESSIONS = {
    "compile": ["compile", "{work}/kernel.c", "-o", "{work}/out.sxe"],
    "run": ["run", "{work}/kernel.sxe", "--profile"],
    "decompile": ["decompile", "{work}/kernel.sxe"],
    "partition": ["partition", "{work}/kernel.sxe"],
    "vhdl": ["vhdl", "{work}/kernel.sxe", "-o", "{work}/kernel.vhd"],
    "sweep": ["sweep", "brev", "--serial"],
    "sweep-pool": ["sweep", "brev", "crc", "--jobs", "2"],
    "dynamic": ["dynamic", "brev", "--serial"],
    "dynamic-apps": ["dynamic", "--apps", "brev", "crc", "--serial"],
    "dynamic-pool": ["dynamic", "brev", "crc", "--jobs", "2"],
}


@pytest.mark.parametrize("argv", list(_SESSIONS.values()), ids=list(_SESSIONS))
def test_sessions_are_cold(argv, tmp_path, monkeypatch, capsys):
    # a session persists nothing: no report cache under the home directory,
    # whatever the retired REPRO_CACHE variable would have said
    home, work = tmp_path / "home", tmp_path / "work"
    home.mkdir()
    work.mkdir()
    (work / "kernel.c").write_text(_KERNEL)
    assert main(["compile", str(work / "kernel.c"), "-o", str(work / "kernel.sxe")]) == 0
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert main([arg.format(work=work) for arg in argv]) == 0
    assert list(home.iterdir()) == []


@pytest.mark.parametrize("cache", [True, 1, "off", None])
def test_run_flows_refuses_the_on_disk_cache(cache, monkeypatch):
    # the keyword survives only so callers passing cache=False keep working
    def no_flow(job):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(repro.flow, "execute_flow_job", no_flow)
    job = repro.flow.FlowJob(source=_BREV.source, name=_BREV.name)
    with pytest.raises(ValueError, match="on-disk flow cache was removed"):
        repro.flow.run_flows([job], max_workers=1, cache=cache)


def test_run_flows_still_accepts_cache_false():
    job = repro.flow.FlowJob(source=_BREV.source, name=_BREV.name)
    [report] = repro.flow.run_flows([job], max_workers=1, cache=False)
    [default] = repro.flow.run_flows([job], max_workers=1)
    assert report.summary_row() == default.summary_row()


@pytest.mark.parametrize("entry, params", [
    ("Cpu", ["exe", "memory", "cpi", "profile", "engine"]),
    ("run_executable", ["exe", "profile", "max_steps", "cpi", "engine"]),
])
def test_simulator_entry_points_take_only_block_tier_knobs(entry, params):
    # the engine choice is the only simulator knob: no tier carries
    # tuning parameters of its own
    from repro.sim import cpu

    signature = inspect.signature(getattr(cpu, entry))
    assert list(signature.parameters) == params


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
    ("repro.flow", "_run_flows_uncached"),
    ("repro.partition.profiles", "_block_ranges"),
    ("repro.partition", "legacy_devices"),
    ("repro.partition.api", "legacy_devices"),
    ("repro.partition", "AnnotatePass"),
    ("repro.partition.passes", "AnnotatePass"),
    ("repro.partition", "CostModel"),
    ("repro.partition", "cost_model_for"),
    ("repro.partition", "register_cost_model"),
    ("repro.partition.costmodels", "CostModel"),
    ("repro.partition.costmodels", "CpuCostModel"),
    ("repro.partition.costmodels", "FabricCostModel"),
    ("repro.partition.costmodels", "CgraCostModel"),
    ("repro.partition.costmodels", "_REGISTRY"),
    ("repro.partition.costmodels", "cost_model_for"),
    ("repro.partition.costmodels", "register_cost_model"),
    ("repro.synth", "synthesize_loop"),
    ("repro.synth.synthesizer", "synthesize_loop"),
    ("repro.synth.synthesizer", "HwKernel.cycles_for"),
    ("repro.synth.scheduling", "list_schedule_priced"),
    ("repro.synth.binding", "bind_priced"),
    ("repro.synth.pipeline", "initiation_interval_priced"),
    ("repro.synth.fpga", "TechnologyModel.clock_period_ns"),
    ("repro.synth.fpga", "TechnologyModel.clock_mhz"),
    ("repro.synth.fpga", "TechnologyModel.chain_budget_ns"),
    ("repro.synth.fpga", "TechnologyModel.op_cost"),
    ("repro.decompile.cdfg", "Cdfg"),
    ("repro.sim.superblock.dispatch", "SuperblockTable.materialize"),
])
def test_retired_aliases_are_gone(module, name):
    owner = importlib.import_module(module)
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, attr)


@pytest.mark.parametrize("module, entry, params", [
    ("repro.synth.scheduling", "list_schedule",
     ["dfg", "costs", "constraints", "chain_budget"]),
    ("repro.synth.binding", "bind", ["dfg", "schedule", "costs", "tech"]),
    ("repro.synth.pipeline", "initiation_interval",
     ["dfg", "costs", "constraints"]),
])
def test_synthesis_steps_take_priced_ops(module, entry, params):
    # one entry point per step: the ops come priced, never re-priced inside
    signature = inspect.signature(getattr(importlib.import_module(module), entry))
    assert list(signature.parameters) == params


def test_candidate_costs_come_only_from_the_cost_models():
    from repro.partition.estimator import Candidate
    from repro.partition.passes import FilterPass

    assert not hasattr(FilterPass, "KEEP_ALL")
    fields = {f.name for f in dataclasses.fields(Candidate)}
    assert not fields & {"hw_seconds", "sw_seconds"}
