"""Sharded, concurrency-safe on-disk byte store -- the backing store of the
flow-report cache.

Many pool worker processes may hit one cache at once, so the store is
designed around three properties:

* **lock-free reads** -- entries are published with ``mkstemp`` +
  ``os.replace``, so a reader either sees a complete entry or no entry;
  there is no torn-read window and no reader-side locking.  POSIX keeps a
  file readable through a concurrent unlink, so LRU eviction can never
  yank an entry out from under a reader mid-read.
* **sharding by key prefix** -- entries live under 256 two-hex-char
  subdirectories (``<root>/ab/<key>.pkl``), so directory operations stay
  O(entries/256) and concurrent writers rarely contend on one directory.
* **LRU eviction under a size budget** -- ``REPRO_CACHE_BUDGET`` (bytes,
  or ``512K``/``64M``/``2G``) bounds the bytes on disk.  Recency is the
  entry's mtime, bumped on every hit, so it is shared across processes.
  When a writer's running total crosses the budget it rescans the shards
  (recomputing the *true* total -- entries stored by other processes
  included) and unlinks oldest-first until back under budget.

Telemetry rides on the existing ``repro.obs`` registry: ``cache.hits_total``,
``cache.misses_total``, ``cache.stores_total``, ``cache.evictions_total``,
``cache.evicted_bytes_total``, ``cache.stale_tmp_reaped_total`` counters and
the ``cache.bytes_on_disk`` gauge, which the eviction scan recomputes from
the real shard contents (it is no longer blind to other processes' writes).
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from repro import obs

__all__ = [
    "BUDGET_ENV",
    "STALE_TMP_SECONDS",
    "ShardedStore",
    "StoreEntry",
    "get_store",
    "parse_budget",
    "sweep_stale_tmp",
]

#: size budget for the shared store, e.g. ``REPRO_CACHE_BUDGET=64M``
BUDGET_ENV = "REPRO_CACHE_BUDGET"

#: a ``*.tmp`` scratch file older than this is an orphan from a crashed
#: writer (a live writer publishes or unlinks within seconds)
STALE_TMP_SECONDS = 3600.0

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def parse_budget(text: str | None) -> int | None:
    """``"64M"``/``"512k"``/``"1000000"`` -> bytes; ``None`` = unlimited.

    Empty, unparsable, zero or negative budgets all mean "no budget" --
    a malformed environment variable must never break a cache write.
    """
    if not text:
        return None
    text = text.strip().lower()
    scale = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        scale = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        budget = int(float(text) * scale)
    except ValueError:
        return None
    return budget if budget > 0 else None


def sweep_stale_tmp(directory: Path, max_age: float = STALE_TMP_SECONDS) -> int:
    """Remove ``*.tmp`` orphans left by crashed writers; returns the count.

    Writers publish via ``mkstemp`` + ``os.replace`` and unlink their
    scratch file on any error, but a writer killed between the two (OOM,
    SIGKILL, power loss) leaks the ``.tmp`` forever.  Only files older
    than *max_age* are touched so a concurrent writer's in-flight scratch
    file is never yanked away.

    Wall-clock time is not monotonic: a clock step between a writer's
    ``mkstemp`` and this scan can make a fresh scratch file look ancient
    (or land its mtime in the future).  Ages are therefore clamped to
    >= 0 and future-dated files are never reaped -- a file that claims
    to be from the future is evidence of a clock step, not a crash.
    """
    removed = 0
    now = time.time()
    try:
        for entry in directory.glob("*.tmp"):
            try:
                age = now - entry.stat().st_mtime
                if age < 0:
                    continue  # mtime in the future: clock stepped, skip
                if age >= max_age:
                    entry.unlink()
                    removed += 1
            except OSError:
                pass
    except OSError:
        pass
    return removed


class StoreEntry(NamedTuple):
    """One published entry, as seen by a shard scan."""

    path: Path
    size: int
    mtime: float


#: shard directories this process has already reaped stale ``*.tmp`` files
#: from -- high-throughput cache writes must not pay a directory scan on
#: every store, so the reap runs once per process per shard
_SWEPT_SHARDS: set[str] = set()

#: process-wide store instances, keyed by (root, budget) -- the running
#: byte total survives across call sites so budget checks stay incremental
_STORES: dict[tuple[str, int | None], "ShardedStore"] = {}


def get_store(root: Path | str, budget_bytes: int | None = None) -> "ShardedStore":
    """The process-wide store for *root* (created on first use)."""
    key = (str(Path(root)), budget_bytes)
    store = _STORES.get(key)
    if store is None:
        store = _STORES[key] = ShardedStore(root, budget_bytes)
    return store


class ShardedStore:
    """Content-addressed bytes keyed by hex digests, sharded ``key[:2]``.

    The store never raises out of its public methods: reads degrade to
    misses and writes to no-ops, so a broken disk can slow callers down
    but not take them out.  Keys must be lowercase hex strings of length
    >= 2 (SHA-256 digests in practice).
    """

    #: after an over-budget eviction, keep evicting down to this fraction
    #: of the budget so the very next write does not trigger another full
    #: shard scan (classic high/low-water hysteresis)
    LOW_WATER = 0.9

    #: file extension of published entries
    suffix = ".pkl"

    def __init__(self, root: Path | str, budget_bytes: int | None = None):
        self.root = Path(root)
        self.budget_bytes = budget_bytes
        #: running total of published bytes; ``None`` until the first
        #: authoritative shard scan
        self._bytes: int | None = None

    # -- paths ---------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    # -- reads ---------------------------------------------------------

    def load(self, key: str, decode: Callable[[bytes], object] | None = None):
        """The decoded entry for *key*, or ``None`` on any kind of miss.

        Lock-free: one ``open`` + full read of an atomically published
        file.  *decode* (e.g. ``pickle.loads`` plus sanity checks) runs
        under the store's miss accounting -- an entry that fails to decode
        is counted as a miss and discarded, so one corrupt pickle costs
        one recompute instead of poisoning every future read.  Hits bump
        the entry's mtime, which is the LRU recency other processes see.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            obs.counter("cache.misses_total").inc()
            return None
        value: object = data
        if decode is not None:
            try:
                value = decode(data)
            except Exception:
                obs.counter("cache.misses_total").inc()
                self.discard(key)
                return None
        obs.counter("cache.hits_total").inc()
        try:
            os.utime(path, None)  # LRU recency, shared via the filesystem
        except OSError:
            pass
        return value

    def discard(self, key: str) -> None:
        """Drop *key* if present (corrupt entries, explicit invalidation)."""
        path = self.path_for(key)
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return
        if self._bytes is not None:
            self._bytes = max(0, self._bytes - size)
            self._publish_bytes()

    # -- writes --------------------------------------------------------

    def store(self, key: str, data: bytes) -> bool:
        """Atomically publish *data* under *key*; ``False`` on failure.

        Other processes only ever observe complete entries (``mkstemp`` in
        the shard directory + ``os.replace``).  Each successful store
        updates the running byte total and, when a budget is configured
        and exceeded, triggers the LRU eviction scan.
        """
        path = self.path_for(key)
        shard = path.parent
        try:
            shard.mkdir(parents=True, exist_ok=True)
            try:
                replaced = path.stat().st_size
            except OSError:
                replaced = 0
            fd, tmp_name = tempfile.mkstemp(dir=shard, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp_name, path)
            except Exception:
                # Exception only: a Ctrl-C here must propagate untouched,
                # and the orphaned scratch file is exactly what the stale
                # ``*.tmp`` reap exists to clean up.
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        obs.counter("cache.stores_total").inc()
        self._reap_shard(shard)
        self._account(len(data) - replaced)
        return True

    def _reap_shard(self, shard: Path) -> None:
        """Stale-``*.tmp`` reap, once per process per shard directory."""
        token = str(shard)
        if token in _SWEPT_SHARDS:
            return
        _SWEPT_SHARDS.add(token)
        reaped = sweep_stale_tmp(shard)
        if reaped:
            obs.counter("cache.stale_tmp_reaped_total").inc(reaped)

    # -- size accounting and LRU eviction ------------------------------

    def _account(self, delta: int) -> None:
        if self.budget_bytes is None and not obs.metrics_enabled():
            return  # nothing needs the total; skip the scan entirely
        if self._bytes is None:
            self._rescan()  # authoritative: picks up other processes' entries
        else:
            self._bytes = max(0, self._bytes + delta)
        self._publish_bytes()
        if self.budget_bytes is not None and self._bytes > self.budget_bytes:
            self.evict_to_budget()

    def _publish_bytes(self) -> None:
        if self._bytes is not None:
            obs.gauge("cache.bytes_on_disk").set(self._bytes)

    def entries(self) -> Iterator[StoreEntry]:
        """Every published entry across every shard (stat'ed live)."""
        try:
            shards = [d for d in self.root.iterdir() if d.is_dir()]
        except OSError:
            return
        for shard in shards:
            try:
                candidates = list(shard.glob(f"*{self.suffix}"))
            except OSError:
                continue
            for path in candidates:
                try:
                    stat = path.stat()
                except OSError:
                    continue  # evicted or replaced between glob and stat
                yield StoreEntry(path, stat.st_size, stat.st_mtime)

    def _rescan(self) -> list[StoreEntry]:
        """Walk the shards, refresh the byte total from what is really on
        disk (entries from *any* process), and return the entries."""
        scanned = list(self.entries())
        self._bytes = sum(entry.size for entry in scanned)
        self._publish_bytes()
        return scanned

    def bytes_on_disk(self, refresh: bool = False) -> int:
        """The store's published byte total (authoritative on *refresh*)."""
        if refresh or self._bytes is None:
            self._rescan()
        return self._bytes or 0

    def evict_to_budget(self) -> int:
        """LRU-evict down to the low-water mark; returns entries removed.

        Always starts from a full rescan, so the decision is made against
        the *real* shard contents -- the running total only schedules the
        scan, it never decides what to delete.  A concurrently deleted
        entry is somebody else's eviction: skipped, not an error.
        """
        if self.budget_bytes is None:
            return 0
        scanned = self._rescan()
        target = int(self.budget_bytes * self.LOW_WATER)
        if (self._bytes or 0) <= self.budget_bytes:
            return 0
        evicted = 0
        for entry in sorted(scanned, key=lambda e: (e.mtime, e.path.name)):
            if (self._bytes or 0) <= target:
                break
            try:
                entry.path.unlink()
            except OSError:
                continue
            self._bytes = max(0, (self._bytes or 0) - entry.size)
            evicted += 1
            obs.counter("cache.evictions_total").inc()
            obs.counter("cache.evicted_bytes_total").inc(entry.size)
        self._publish_bytes()
        return evicted

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Delete every entry and every ``*.tmp`` scratch file (whatever
        its age -- clearing is explicit); returns the number removed."""
        removed = 0
        try:
            shards = [d for d in self.root.iterdir() if d.is_dir()]
        except OSError:
            shards = []
        for shard in shards:
            for pattern in (f"*{self.suffix}", "*.tmp"):
                try:
                    victims = list(shard.glob(pattern))
                except OSError:
                    continue
                for path in victims:
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            try:
                shard.rmdir()  # best-effort: leaves non-empty shards alone
            except OSError:
                pass
        self._bytes = 0
        self._publish_bytes()
        return removed
