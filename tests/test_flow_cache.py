"""On-disk flow-report cache: hits, misses, keys, and the kill switch.

Since the cache graduated onto the sharded store (``repro.store``),
entries live under two-hex-char shard subdirectories of ``<root>/flow/``
and are LRU-evicted under ``REPRO_CACHE_BUDGET``; these tests cover the
flow-cache-facing behaviour, ``tests/store/test_store.py`` covers the
store itself.
"""

import os
import pickle
import time

import pytest

from repro import flow_cache, obs
from repro.flow import FlowJob, run_flows
from repro.platform import MIPS_200MHZ, MIPS_40MHZ
from repro.programs import get_benchmark
from repro.store import sweep_stale_tmp


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(flow_cache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(flow_cache.CACHE_TOGGLE_ENV, raising=False)
    monkeypatch.delenv(flow_cache.BUDGET_ENV, raising=False)
    return tmp_path


def _job(name="brev", platform=MIPS_200MHZ, opt_level=1):
    return FlowJob(
        source=get_benchmark(name).source, name=name,
        opt_level=opt_level, platform=platform,
    )


def _entries(cache_dir):
    return list((cache_dir / "flow").rglob("*.pkl"))


class TestCacheRoundTrip:
    def test_second_sweep_hits_disk(self, cache_dir, monkeypatch):
        job = _job()
        [first] = run_flows([job], max_workers=1)
        files = _entries(cache_dir)
        assert len(files) == 1
        # sharded layout: <root>/flow/<key[:2]>/<key>.pkl
        key = flow_cache.job_key(job)
        assert files[0].parent.name == key[:2]
        assert files[0].name == f"{key}.pkl"
        # a cache hit must not recompute: poison the execution path
        monkeypatch.setattr(
            "repro.flow._run_flows_uncached",
            lambda jobs, workers: pytest.fail("cache miss on second sweep"),
        )
        [second] = run_flows([job], max_workers=1)
        assert second.summary_row() == first.summary_row()
        assert second.run.cycles == first.run.cycles

    def test_cache_false_bypasses(self, cache_dir):
        run_flows([_job()], max_workers=1, cache=False)
        assert not _entries(cache_dir)

    def test_env_kill_switch(self, cache_dir, monkeypatch):
        monkeypatch.setenv(flow_cache.CACHE_TOGGLE_ENV, "off")
        run_flows([_job()], max_workers=1)
        assert not _entries(cache_dir)
        assert not flow_cache.cache_enabled()

    def test_clear(self, cache_dir):
        run_flows([_job()], max_workers=1)
        assert flow_cache.clear() == 1
        assert not _entries(cache_dir)

    def test_clear_also_reaps_legacy_flat_entries(self, cache_dir):
        flow = cache_dir / "flow"
        flow.mkdir(parents=True, exist_ok=True)
        (flow / "deadbeef.pkl").write_bytes(b"pre-sharding entry")
        (flow / "deadbeef.tmp").write_bytes(b"pre-sharding scratch")
        assert flow_cache.clear() == 2
        assert not list(flow.glob("*"))


class TestTmpSweep:
    """Crashed writers leak ``*.tmp`` scratch files; the cache reaps them."""

    @staticmethod
    def _plant_tmp(directory, name, age_seconds):
        directory.mkdir(parents=True, exist_ok=True)
        orphan = directory / name
        orphan.write_bytes(b"half-written pickle")
        stamp = time.time() - age_seconds
        os.utime(orphan, (stamp, stamp))
        return orphan

    @staticmethod
    def _shard_for(job):
        return flow_cache._path_for(job).parent

    def test_clear_removes_tmp_files_regardless_of_age(self, cache_dir):
        run_flows([_job()], max_workers=1)
        shard = self._shard_for(_job())
        fresh = self._plant_tmp(shard, "fresh.tmp", age_seconds=0)
        stale = self._plant_tmp(shard, "stale.tmp", age_seconds=7200)
        assert flow_cache.clear() == 3   # 1 pkl + 2 tmp
        assert not fresh.exists() and not stale.exists()

    def test_store_report_reaps_stale_tmp(self, cache_dir):
        shard = self._shard_for(_job())
        stale = self._plant_tmp(shard, "crashed-writer.tmp", age_seconds=7200)
        run_flows([_job()], max_workers=1)   # stores a report -> reaps
        assert not stale.exists()
        assert len(_entries(cache_dir)) == 1

    def test_store_report_spares_recent_tmp(self, cache_dir):
        # a young .tmp may belong to a concurrent writer mid-publish:
        # hands off
        shard = self._shard_for(_job())
        fresh = self._plant_tmp(shard, "inflight.tmp", age_seconds=10)
        run_flows([_job()], max_workers=1)
        assert fresh.exists()

    def test_reap_is_rate_limited_per_shard(self, cache_dir):
        # high-throughput cache writes must not pay a directory scan on
        # every store: after the first store swept a shard, later stores
        # to the same shard skip the scan -- a stale orphan planted in
        # between survives until the next process
        job = _job()
        run_flows([job], max_workers=1)
        shard = self._shard_for(job)
        late = self._plant_tmp(shard, "late-orphan.tmp", age_seconds=7200)
        flow_cache.store_report(job, run_flows([job], max_workers=1)[0])
        assert late.exists()

    def test_sweep_helper_counts_and_age_boundary(self, cache_dir):
        flow = cache_dir / "flow"
        self._plant_tmp(flow, "old-1.tmp", age_seconds=4000)
        self._plant_tmp(flow, "old-2.tmp", age_seconds=3700)
        self._plant_tmp(flow, "young.tmp", age_seconds=60)
        assert sweep_stale_tmp(flow) == 2
        assert [p.name for p in flow.glob("*.tmp")] == ["young.tmp"]

    def test_sweep_missing_directory_is_noop(self, cache_dir):
        assert sweep_stale_tmp(cache_dir / "flow") == 0


class TestCacheKeys:
    def test_key_distinguishes_opt_level_and_platform(self):
        base = _job()
        assert flow_cache.job_key(base) == flow_cache.job_key(_job())
        assert flow_cache.job_key(base) != flow_cache.job_key(_job(opt_level=2))
        assert flow_cache.job_key(base) != flow_cache.job_key(
            _job(platform=MIPS_40MHZ)
        )
        assert flow_cache.job_key(base) != flow_cache.job_key(_job(name="crc"))

    def test_key_distinguishes_source(self):
        a = FlowJob(source="int main(void){return 0;}", name="x")
        b = FlowJob(source="int main(void){return 1;}", name="x")
        assert flow_cache.job_key(a) != flow_cache.job_key(b)


class TestCorruption:
    def test_corrupt_pickle_is_a_miss(self, cache_dir):
        job = _job()
        [first] = run_flows([job], max_workers=1)
        [path] = _entries(cache_dir)
        path.write_bytes(b"not a pickle")
        [again] = run_flows([job], max_workers=1)
        assert again.summary_row() == first.summary_row()

    def test_corrupt_entry_is_discarded(self, cache_dir):
        # one corrupt pickle costs one recompute, not a poisoned read on
        # every future load
        job = _job()
        run_flows([job], max_workers=1)
        [path] = _entries(cache_dir)
        path.write_bytes(b"not a pickle")
        assert flow_cache.load_report(job) is None
        assert not path.exists()

    def test_wrong_object_is_a_miss(self, cache_dir):
        job = _job()
        run_flows([job], max_workers=1)
        [path] = _entries(cache_dir)
        path.write_bytes(pickle.dumps({"not": "a report"}))
        assert flow_cache.load_report(job) is None


class TestCacheTelemetry:
    """Hit/miss/store counters and the housekeeping instruments."""

    @pytest.fixture()
    def telemetry(self):
        obs.clear_metrics()
        obs.enable(metrics=True, tracing=False)
        yield obs
        obs.disable()
        obs.clear_metrics()

    @staticmethod
    def _count(name):
        metric = obs.registry().get(name)
        return metric.value if metric is not None else 0

    def test_miss_store_then_hit(self, cache_dir, telemetry):
        job = _job()
        run_flows([job], max_workers=1)
        assert self._count("cache.misses_total") == 1
        assert self._count("cache.stores_total") == 1
        assert self._count("cache.hits_total") == 0
        run_flows([job], max_workers=1)
        assert self._count("cache.hits_total") == 1
        assert self._count("cache.misses_total") == 1
        assert self._count("cache.stores_total") == 1

    def test_corrupt_entry_counts_as_miss(self, cache_dir, telemetry):
        job = _job()
        run_flows([job], max_workers=1)
        [path] = _entries(cache_dir)
        path.write_bytes(b"not a pickle")
        assert flow_cache.load_report(job) is None
        assert self._count("cache.misses_total") == 2   # initial + corrupt

    def test_store_reports_reaped_tmp_and_disk_bytes(self, cache_dir,
                                                     telemetry):
        shard = TestTmpSweep._shard_for(_job())
        TestTmpSweep._plant_tmp(shard, "crashed-1.tmp", age_seconds=7200)
        TestTmpSweep._plant_tmp(shard, "crashed-2.tmp", age_seconds=4000)
        run_flows([_job()], max_workers=1)
        assert self._count("cache.stale_tmp_reaped_total") == 2
        [stored] = _entries(cache_dir)
        assert obs.registry().get("cache.bytes_on_disk").value \
            == stored.stat().st_size

    def test_disabled_cache_ops_register_nothing(self, cache_dir):
        obs.disable()
        obs.clear_metrics()
        run_flows([_job()], max_workers=1)
        run_flows([_job()], max_workers=1)
        assert len(obs.registry()) == 0


class TestBudget:
    def test_budget_env_parses_and_reaches_the_store(self, cache_dir,
                                                     monkeypatch):
        monkeypatch.setenv(flow_cache.BUDGET_ENV, "2M")
        assert flow_cache.cache_budget() == 2 * 1024 * 1024
        assert flow_cache.store().budget_bytes == 2 * 1024 * 1024

    def test_budget_evicts_older_reports(self, cache_dir, monkeypatch):
        # store two reports under an unlimited budget, then shrink the
        # budget below their combined size: the next store must LRU-evict
        run_flows([_job("brev"), _job("crc")], max_workers=1)
        total = sum(p.stat().st_size for p in _entries(cache_dir))
        monkeypatch.setenv(flow_cache.BUDGET_ENV, str(total + 64))
        [report] = run_flows([_job("blit")], max_workers=1, cache=False)
        flow_cache.store_report(_job("blit"), report)
        remaining = sum(p.stat().st_size for p in _entries(cache_dir))
        assert remaining <= total + 64
        # the just-written entry is the most recent; it must survive
        assert flow_cache.load_report(_job("blit")) is not None


class TestMixedBatches:
    def test_partial_hits_preserve_order(self, cache_dir):
        crc = _job("crc")
        run_flows([crc], max_workers=1)
        reports = run_flows([_job("brev"), crc, _job("blit")], max_workers=1)
        assert [r.name for r in reports] == ["brev", "crc", "blit"]
        assert all(r.recovered for r in reports)
