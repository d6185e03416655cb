"""Telemetry through the real layers: engine, pool, dynamic, CLI.

The zero-cost-off contract is asserted here too: a disabled run must
leave the registry completely empty -- no instrument is even registered
from the hot paths.
"""

from concurrent.futures.process import BrokenProcessPool

import json

import pytest

import repro.flow
from repro import obs
from repro.__main__ import main
from repro.compiler.driver import compile_source
from repro.flow import FlowJob, clear_pool_fallbacks, pool_fallbacks, run_flows
from repro.isa import assemble
from repro.platform import MIPS_40MHZ, MIPS_200MHZ, SOFTCORE_85MHZ
from repro.programs import get_benchmark
from repro.sim.cpu import Cpu

NAMES = ["brev", "crc"]


def _jobs(names=NAMES):
    return [FlowJob(source=get_benchmark(name).source, name=name)
            for name in names]


def _counter_value(name):
    metric = obs.registry().get(name)
    return metric.value if metric is not None else 0


class TestEngineMetrics:
    def test_superblock_run_populates_engine_metrics(self, telemetry):
        exe = compile_source(get_benchmark("brev").source)
        result = Cpu(exe).run()
        assert _counter_value("engine.runs_total") == 1
        assert _counter_value("engine.runs.superblock") == 1
        assert _counter_value("engine.instructions_total") == result.steps
        assert _counter_value("engine.cycles_total") == result.cycles
        # the tier split accounts for every instruction
        split = (_counter_value("engine.instructions_in_blocks")
                 + _counter_value("engine.instructions_stepped"))
        assert split == result.steps
        assert _counter_value("engine.instructions_in_blocks") > 0
        assert _counter_value("engine.codegen_units_total") > 0

    def test_first_run_reports_construction_parts(self, telemetry):
        cpu = Cpu(compile_source(get_benchmark("brev").source))
        cpu.run()
        cpu.run()
        for part in ("decode", "source", "compile"):
            histogram = obs.registry().get(f"engine.construct.{part}_seconds")
            assert histogram is not None and histogram.count == 1, part

    def test_threaded_run_counts_under_its_engine(self, telemetry):
        exe = compile_source(get_benchmark("crc").source)
        Cpu(exe, engine="threaded").run()
        assert _counter_value("engine.runs.threaded") == 1
        assert obs.registry().get("engine.runs.superblock") is None

    def test_consecutive_runs_report_per_run_deltas(self, telemetry):
        exe = compile_source(get_benchmark("brev").source)
        cpu = Cpu(exe)
        first = cpu.run()
        units_after_first = _counter_value("engine.codegen_units_total")
        second = cpu.run()
        # cumulative table stats must not be double-counted on run 2
        # (the table is warm, so no new units are generated)
        assert _counter_value("engine.codegen_units_total") == units_after_first
        assert _counter_value("engine.instructions_total") \
            == first.steps + second.steps
        assert _counter_value("engine.runs_total") == 2

    def test_guard_misses_are_counted_per_run(self, telemetry):
        # $sp starts below the stack window, so the entry guard of the
        # unit holding the stores fails once per run
        exe = assemble(".text\n_start:\n    li $sp, 0x7FFEFF00\n    b unit\n"
                       "unit:\n    sw $t0, 0($sp)\n    sw $t0, 4($sp)\n"
                       "    break\n")
        Cpu(exe).run()
        assert _counter_value("engine.unit_guard_misses_total") == 1
        Cpu(exe).run()
        assert _counter_value("engine.unit_guard_misses_total") == 2
        Cpu(compile_source(get_benchmark("brev").source)).run()
        assert _counter_value("engine.unit_guard_misses_total") == 2
        assert obs.registry().get("engine.unit_guard_misses_total") is not None

    def test_disabled_run_registers_nothing(self):
        obs.disable()
        obs.clear_metrics()
        exe = compile_source(get_benchmark("brev").source)
        Cpu(exe).run()
        assert len(obs.registry()) == 0


class TestPoolMetrics:
    def test_parallel_sweep_merges_worker_registries(self, telemetry):
        run_flows(_jobs(), max_workers=2)
        # worker-side counts came back through the payload merge
        assert _counter_value("pool.jobs_total") == 2
        assert obs.registry().get("pool.job_seconds").count == 2
        assert obs.registry().get("pool.queue_wait_seconds").count == 2
        assert _counter_value("engine.runs_total") >= 2

    def test_serial_sweep_records_pool_metrics_too(self, telemetry):
        run_flows(_jobs(), max_workers=1)
        assert _counter_value("pool.jobs_total") == 2
        assert obs.registry().get("pool.job_seconds").count == 2

    def test_parallel_matches_serial_with_telemetry_on(self, telemetry):
        serial = run_flows(_jobs(), max_workers=1)
        parallel = run_flows(_jobs(), max_workers=2)
        for s, p in zip(serial, parallel):
            assert s.summary_row() == p.summary_row()
            assert s.run.cycles == p.run.cycles


class TestPoolFallbackEvents:
    @pytest.fixture(autouse=True)
    def _clean_fallbacks(self):
        clear_pool_fallbacks()
        yield
        clear_pool_fallbacks()

    def test_fallback_is_structured_and_counted(self, telemetry, monkeypatch):
        monkeypatch.setattr(
            repro.flow, "ProcessPoolExecutor",
            _failing_pool(BrokenProcessPool("worker terminated abruptly")),
        )
        reports = run_flows(_jobs(), max_workers=2)
        assert [r.name for r in reports] == NAMES
        [fallback] = pool_fallbacks()
        assert fallback.cause == "BrokenProcessPool"
        assert "terminated" in fallback.message
        assert fallback.jobs == 2
        assert _counter_value("pool.serial_fallback_total") == 1
        assert any(e["name"] == "pool.serial_fallback"
                   for e in obs.trace_events())

    def test_fallback_recorded_without_telemetry(self, monkeypatch):
        obs.disable()
        monkeypatch.setattr(
            repro.flow, "ProcessPoolExecutor",
            _failing_pool(OSError("semaphores not allowed")),
        )
        reports = run_flows(_jobs(), max_workers=2)
        assert [r.name for r in reports] == NAMES
        [fallback] = pool_fallbacks()
        assert fallback.cause == "OSError"


class TestFlowSpans:
    def test_flow_stages_produce_spans(self, telemetry):
        run_flows(_jobs(["brev"]), max_workers=1)
        names = {e["name"] for e in obs.trace_events()}
        assert {"flow.compile", "flow.simulate",
                "flow.decompile", "flow.partition"} <= names


class TestStageMemoMetrics:
    def test_platforms_of_one_binary_hit_the_stage_memo(self, telemetry):
        source = get_benchmark("brev").source
        for platform in (MIPS_40MHZ, MIPS_200MHZ):
            repro.flow.run_flow(source, "brev", platform=platform)
        for stage in ("compile", "simulate", "decompile", "profile"):
            assert _counter_value(f"flow.stage.{stage}.misses_total") == 1
            assert _counter_value(f"flow.stage.{stage}.hits_total") == 1
        misses = _counter_value("flow.stage.synth.misses_total")
        assert misses > 0
        assert _counter_value("flow.stage.synth.hits_total") == misses

    def test_platforms_of_one_binary_replay_its_sample_stream(self, telemetry):
        from repro.dynamic.flow import run_dynamic_flow

        source = get_benchmark("brev").source
        for platform in (MIPS_200MHZ, SOFTCORE_85MHZ):
            run_dynamic_flow(source, "brev", platform=platform)
        assert _counter_value("flow.stage.sample.misses_total") == 1
        assert _counter_value("flow.stage.sample.hits_total") == 1
        assert _counter_value("engine.runs_total") == 1

    def test_disabled_flow_registers_no_stage_counters(self):
        obs.disable()
        obs.clear_metrics()
        repro.flow.run_flow(get_benchmark("brev").source, "brev")
        assert len(obs.registry()) == 0


class TestDynamicMetrics:
    def test_multi_app_run_populates_dynamic_metrics(self, telemetry):
        from repro.dynamic.multi import AppSpec, run_multi_app_flow

        specs = [AppSpec(get_benchmark(name).source, name) for name in NAMES]
        report = run_multi_app_flow(specs)
        assert len(report.reports) == 2
        assert _counter_value("dynamic.multi_app_apps_total") == 2
        assert _counter_value("dynamic.lifts_total") > 0
        assert _counter_value("fabric.placements_total") > 0
        assert obs.registry().get("dynamic.repartition_seconds").count > 0
        names = {e["name"] for e in obs.trace_events()}
        assert {"cad.decompile", "cad.synthesize"} <= names


class TestCli:
    def test_stats_without_saved_file(self, telemetry, capsys):
        assert main(["stats"]) == 1
        assert "no saved telemetry" in capsys.readouterr().err

    def test_metrics_and_trace_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setenv(obs.ENABLE_ENV, "0")
        obs.clear_metrics()
        obs.clear_trace()
        trace_file = tmp_path / "trace.json"
        try:
            rc = main(["sweep", "brev", "--serial",
                       "--metrics", "--trace-out", str(trace_file)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "telemetry: metrics saved" in out
            payload = json.loads(trace_file.read_text())
            assert payload["traceEvents"]

            assert main(["stats"]) == 0
            report = capsys.readouterr().out
            assert "engine.runs_total" in report
            assert "pool.jobs_total" in report
        finally:
            obs.disable()
            obs.clear_metrics()
            obs.clear_trace()


def _failing_pool(error):
    class _Pool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            raise error

    return _Pool
