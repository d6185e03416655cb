"""The sharded store: layout, budgets, LRU eviction, cross-process truth."""

import hashlib
import os
import time

import pytest

from repro import obs
from repro.store import (
    ShardedStore,
    get_store,
    parse_budget,
    sweep_stale_tmp,
)


def _key(tag) -> str:
    return hashlib.sha256(str(tag).encode()).hexdigest()


@pytest.fixture()
def store(tmp_path):
    return ShardedStore(tmp_path / "store")


class TestParseBudget:
    @pytest.mark.parametrize("text,expected", [
        ("1000", 1000),
        ("512k", 512 * 1024),
        ("64M", 64 * 1024 * 1024),
        ("2g", 2 * 1024 ** 3),
        ("1.5M", int(1.5 * 1024 * 1024)),
        ("1T", 1 << 40),
    ])
    def test_sizes(self, text, expected):
        assert parse_budget(text) == expected

    @pytest.mark.parametrize("text", [None, "", "potato", "0", "-5", "-1G"])
    def test_no_budget(self, text):
        assert parse_budget(text) is None


class TestLayout:
    def test_entries_shard_by_key_prefix(self, store):
        key = _key("a")
        assert store.store(key, b"payload")
        path = store.path_for(key)
        assert path.exists()
        assert path.parent.name == key[:2]
        assert path.parent.parent == store.root

    def test_load_round_trip_and_decode(self, store):
        key = _key("b")
        store.store(key, b"\x00\x01\x02")
        assert store.load(key) == b"\x00\x01\x02"
        assert store.load(key, decode=lambda d: len(d)) == 3

    def test_missing_key_is_none(self, store):
        assert store.load(_key("never-stored")) is None

    def test_failed_decode_discards_entry(self, store):
        key = _key("c")
        store.store(key, b"garbage")

        def decode(data):
            raise ValueError("corrupt")

        assert store.load(key, decode) is None
        assert not store.path_for(key).exists()

    def test_store_replaces_atomically(self, store):
        key = _key("d")
        store.store(key, b"old")
        store.store(key, b"newer")
        assert store.load(key) == b"newer"
        # no scratch files left behind
        assert not list(store.root.rglob("*.tmp"))

    def test_discard(self, store):
        key = _key("e")
        store.store(key, b"data")
        store.discard(key)
        assert store.load(key) is None
        store.discard(key)  # idempotent

    def test_clear_removes_everything(self, store):
        for tag in range(8):
            store.store(_key(tag), b"x" * 64)
        (store.root / "ab").mkdir(exist_ok=True)
        (store.root / "ab" / "orphan.tmp").write_bytes(b"scratch")
        assert store.clear() == 9
        assert store.bytes_on_disk(refresh=True) == 0

    def test_get_store_is_process_wide(self, tmp_path):
        a = get_store(tmp_path / "s", 1000)
        b = get_store(tmp_path / "s", 1000)
        assert a is b
        assert get_store(tmp_path / "s", 2000) is not a


class TestLru:
    def _fill(self, store, n, size=512, spacing=10.0):
        """Store *n* entries with strictly increasing (backdated) mtimes."""
        now = time.time()
        keys = []
        for i in range(n):
            key = _key(f"lru-{i}")
            store.store(key, bytes([i % 256]) * size)
            stamp = now - (n - i) * spacing
            os.utime(store.path_for(key), (stamp, stamp))
            keys.append(key)
        return keys

    def test_eviction_holds_the_budget_and_keeps_newest(self, tmp_path):
        store = ShardedStore(tmp_path / "s")
        keys = self._fill(store, 16)
        store.budget_bytes = 8 * 512
        evicted = store.evict_to_budget()
        assert evicted > 0
        total = store.bytes_on_disk(refresh=True)
        assert total <= store.budget_bytes
        # survivors are exactly the newest suffix
        survivors = [k for k in keys if store.path_for(k).exists()]
        assert survivors == keys[-len(survivors):]

    def test_store_over_budget_triggers_eviction(self, tmp_path):
        store = ShardedStore(tmp_path / "s", budget_bytes=4 * 512)
        self._fill(store, 12)
        assert store.bytes_on_disk(refresh=True) <= store.budget_bytes

    def test_load_bumps_recency(self, tmp_path):
        store = ShardedStore(tmp_path / "s")
        keys = self._fill(store, 6)
        store.budget_bytes = 3 * 512
        assert store.load(keys[0]) is not None  # oldest becomes newest
        store.evict_to_budget()
        assert store.path_for(keys[0]).exists()
        assert not store.path_for(keys[1]).exists()

    def test_unlimited_budget_never_evicts(self, tmp_path):
        store = ShardedStore(tmp_path / "s", budget_bytes=None)
        self._fill(store, 20)
        assert store.evict_to_budget() == 0
        assert len(list(store.entries())) == 20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_budget_property_random_sizes(self, tmp_path, seed):
        import random

        rng = random.Random(seed)
        budget = 16 * 1024
        store = ShardedStore(tmp_path / "s", budget_bytes=budget)
        for i in range(60):
            store.store(_key(f"{seed}-{i}"), b"q" * rng.randint(1, 2048))
        # the invariant the flow cache relies on: after any write burst the
        # store converges to at most the configured budget
        store.evict_to_budget()
        assert store.bytes_on_disk(refresh=True) <= budget


class TestCrossProcessAccounting:
    """The gauge/byte total must reflect the *real* shard contents, not
    just the entries this process stored (the old flat cache was blind to
    other writers)."""

    def test_fresh_instance_sees_foreign_entries(self, tmp_path):
        writer_a = ShardedStore(tmp_path / "s", budget_bytes=None)
        for i in range(5):
            writer_a.store(_key(f"a-{i}"), b"z" * 100)
        # a different process = a different instance with no history
        writer_b = ShardedStore(tmp_path / "s", budget_bytes=10**9)
        writer_b.store(_key("b-0"), b"z" * 100)
        assert writer_b.bytes_on_disk() == 6 * 100

    def test_eviction_scan_recomputes_gauge(self, tmp_path):
        obs.clear_metrics()
        obs.enable(metrics=True, tracing=False)
        try:
            foreign = ShardedStore(tmp_path / "s")
            for i in range(4):
                foreign.store(_key(f"f-{i}"), b"y" * 250)
            mine = ShardedStore(tmp_path / "s", budget_bytes=10**9)
            mine.store(_key("mine"), b"y" * 250)
            gauge = obs.registry().get("cache.bytes_on_disk")
            assert gauge is not None and gauge.value == 5 * 250
            assert obs.registry().get("cache.stores_total").value == 5
        finally:
            obs.disable()
            obs.clear_metrics()

    def test_eviction_counters(self, tmp_path):
        obs.clear_metrics()
        obs.enable(metrics=True, tracing=False)
        try:
            store = ShardedStore(tmp_path / "s", budget_bytes=1024)
            now = time.time()
            for i in range(8):
                key = _key(f"e-{i}")
                store.store(key, b"w" * 512)
                stamp = now - (8 - i) * 5
                os.utime(store.path_for(key), (stamp, stamp))
            store.evict_to_budget()
            evictions = obs.registry().get("cache.evictions_total")
            evicted_bytes = obs.registry().get("cache.evicted_bytes_total")
            assert evictions is not None and evictions.value >= 6
            assert evicted_bytes.value == evictions.value * 512
        finally:
            obs.disable()
            obs.clear_metrics()


class TestTmpReap:
    def test_sweep_helper_age_boundary(self, tmp_path):
        target = tmp_path / "shard"
        target.mkdir()
        old = target / "old.tmp"
        old.write_bytes(b"x")
        stamp = time.time() - 7200
        os.utime(old, (stamp, stamp))
        young = target / "young.tmp"
        young.write_bytes(b"x")
        assert sweep_stale_tmp(target) == 1
        assert young.exists() and not old.exists()

    def test_sweep_skips_future_mtimes(self, tmp_path):
        # a wall-clock step can land a fresh writer temp's mtime in the
        # future; such files must never be reaped, no matter how large
        # the apparent (negative) age gets
        target = tmp_path / "shard"
        target.mkdir()
        fresh = target / "inflight.tmp"
        fresh.write_bytes(b"x")
        stamp = time.time() + 9 * 3600  # far future: clock stepped back
        os.utime(fresh, (stamp, stamp))
        assert sweep_stale_tmp(target) == 0
        assert fresh.exists()
        # and even with a tiny max_age the future file stays untouched
        assert sweep_stale_tmp(target, max_age=0.0) == 0
        assert fresh.exists()

    def test_reap_runs_once_per_shard_per_process(self, tmp_path):
        store = ShardedStore(tmp_path / "s")
        key = _key("reap")
        store.store(key, b"data")          # first store sweeps the shard
        shard = store.path_for(key).parent
        orphan = shard / "orphan.tmp"
        orphan.write_bytes(b"x")
        stamp = time.time() - 7200
        os.utime(orphan, (stamp, stamp))
        store.store(_key("reap"), b"data2")  # same shard: no second sweep
        assert orphan.exists()
