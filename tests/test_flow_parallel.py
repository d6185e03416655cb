"""The parallel sweep runner must be a drop-in for serial flow runs."""

from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.flow
from repro.errors import ReproError
from repro.flow import FlowJob, run_flow, run_flows
from repro.platform import MIPS_200MHZ, MIPS_40MHZ
from repro.programs import get_benchmark

NAMES = ["brev", "crc"]


def job_for(name, platform=MIPS_200MHZ):
    return FlowJob(source=get_benchmark(name).source, name=name, platform=platform)


class TestRunFlows:
    def test_preserves_job_order_and_results(self):
        jobs = [job_for("crc"), job_for("brev"), job_for("crc", MIPS_40MHZ)]
        reports = run_flows(jobs, max_workers=1)
        assert [r.name for r in reports] == ["crc", "brev", "crc"]
        assert reports[0].platform.cpu_clock_mhz == 200.0
        assert reports[2].platform.cpu_clock_mhz == 40.0

    def test_parallel_matches_serial(self):
        jobs = [job_for(name) for name in NAMES]
        serial = run_flows(jobs, max_workers=1)
        parallel = run_flows(jobs, max_workers=2)
        for s, p in zip(serial, parallel):
            assert s.summary_row() == p.summary_row()
            assert s.run.cycles == p.run.cycles
            assert s.run.pc_counts == p.run.pc_counts
            assert s.run.edge_counts == p.run.edge_counts

    def test_matches_run_flow(self):
        bench = get_benchmark("brev")
        direct = run_flow(bench.source, "brev", platform=MIPS_200MHZ)
        [swept] = run_flows([job_for("brev")])
        assert direct.summary_row() == swept.summary_row()

    def test_empty_job_list(self):
        assert run_flows([]) == []

    def test_job_error_propagates_without_serial_rerun(self):
        # a broken job must surface its own error, not trigger the
        # pool-unavailable fallback and re-run the sweep serially
        jobs = [job_for("brev"), FlowJob(source="int main( {", name="broken")]
        with pytest.raises(ReproError):
            run_flows(jobs, max_workers=2)
        with pytest.raises(ReproError):
            run_flows(jobs, max_workers=1)

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        # a worker process dying from the outside (OOM killer, container
        # signal) surfaces as BrokenProcessPool -- that is infrastructure
        # failure, not a job failure, so the sweep must retry serially
        monkeypatch.setattr(
            repro.flow, "ProcessPoolExecutor",
            _failing_pool(BrokenProcessPool(
                "A process in the process pool was terminated abruptly"
            )),
        )
        jobs = [job_for(name) for name in NAMES]
        reports = run_flows(jobs, max_workers=2)
        assert [r.name for r in reports] == NAMES
        assert all(r.recovered for r in reports)

    def test_oserror_pool_falls_back_to_serial(self, monkeypatch):
        # sandboxed hosts refuse worker processes/semaphores with OSError
        # at pool creation time -- same graceful degradation
        monkeypatch.setattr(
            repro.flow, "ProcessPoolExecutor",
            _failing_pool(OSError("semaphores not allowed"), on_enter=True),
        )
        jobs = [job_for(name) for name in NAMES]
        reports = run_flows(jobs, max_workers=2)
        assert [r.name for r in reports] == NAMES
        assert all(r.recovered for r in reports)

    def test_pool_breaking_mid_iteration_falls_back(self, monkeypatch):
        # the pool can also break *after* yielding some results; the serial
        # retry must still return every report, in job order
        def first_then_break(fn, iterable):
            items = list(iterable)
            yield fn(items[0])
            raise BrokenProcessPool("worker died mid-sweep")

        monkeypatch.setattr(
            repro.flow, "ProcessPoolExecutor",
            _failing_pool(None, map_impl=first_then_break),
        )
        jobs = [job_for(name) for name in NAMES]
        reports = run_flows(jobs, max_workers=2)
        assert [r.name for r in reports] == NAMES

    def test_serial_fallback_matches_serial_run(self, monkeypatch):
        # the fallback is a drop-in: bit-identical reports vs max_workers=1
        serial = run_flows([job_for(name) for name in NAMES],
                           max_workers=1)
        monkeypatch.setattr(
            repro.flow, "ProcessPoolExecutor",
            _failing_pool(BrokenProcessPool("boom")),
        )
        fallback = run_flows([job_for(name) for name in NAMES],
                             max_workers=2)
        for expected, got in zip(serial, fallback):
            assert expected.summary_row() == got.summary_row()
            assert expected.run.cycles == got.run.cycles
            assert expected.run.pc_counts == got.run.pc_counts


def _failing_pool(error, on_enter=False, map_impl=None):
    """A ProcessPoolExecutor stand-in that fails deterministically.

    The real-pool variants of these scenarios (killing workers, revoking
    semaphores) are timing-sensitive on single-core CI boxes -- the pool
    sometimes finished the tiny sweep before the induced failure landed --
    so infrastructure failures are injected at the executor seam instead.
    """

    class _Pool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            if on_enter:
                raise error
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            if map_impl is not None:
                return map_impl(fn, iterable)
            raise error

    return _Pool
