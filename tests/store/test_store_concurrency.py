"""Multi-process hammer over one sharded store.

N writer processes and M reader processes pound the same root with
overlapping keys while a small budget forces continuous LRU eviction.
The properties under test are the ones pooled sweeps sharing one flow
cache stake their correctness on:

* **no torn reads** -- every successful ``load`` returns a payload whose
  embedded checksum verifies (atomic ``os.replace`` publication);
* **eviction never yanks an entry mid-read** -- readers racing the
  evictor see either a verified payload or a clean miss, never garbage
  or an ``OSError`` escaping the store;
* **the budget holds** -- after the dust settles, one eviction pass
  brings the real on-disk total under the configured budget.

Payloads are ``<body><sha256(body)>``; a torn or spliced read cannot
fake the trailing digest.
"""

import hashlib
import os
import sys

import pytest

from repro.store import ShardedStore

KEYSPACE = 24          # overlapping keys: writers constantly replace
BUDGET = 48 * 1024     # small enough that eviction runs throughout
WRITER_OPS = 200
READER_OPS = 400


def _key(i: int) -> str:
    return hashlib.sha256(f"hammer-{i % KEYSPACE}".encode()).hexdigest()


def _payload(seed: int, i: int) -> bytes:
    body = bytes([(seed * 31 + i) % 256]) * (512 + (seed * 131 + i * 17) % 3072)
    return body + hashlib.sha256(body).digest()


def _verify(data: bytes) -> bytes:
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("torn read: checksum mismatch")
    return body


def _writer(root: str, seed: int) -> int:
    """Store WRITER_OPS checksummed payloads; returns failed stores."""
    store = ShardedStore(root, budget_bytes=BUDGET)
    failures = 0
    for i in range(WRITER_OPS):
        if not store.store(_key(seed * 7 + i), _payload(seed, i)):
            failures += 1
    return failures


def _reader(root: str, seed: int) -> tuple:
    """Load READER_OPS entries; returns (hits, torn_reads)."""
    store = ShardedStore(root, budget_bytes=BUDGET)
    hits = torn = 0
    for i in range(READER_OPS):
        key = _key(seed * 13 + i)
        try:
            value = store.load(key, _verify)
        except Exception:       # noqa: BLE001 -- any escape is a failure
            torn += 1
            continue
        if value is not None:
            hits += 1
    return (hits, torn)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX rename semantics")
def test_hammer_no_torn_reads_and_budget_holds(tmp_path):
    import concurrent.futures

    root = str(tmp_path / "store")
    # seed the store so readers hit from the start
    seeder = ShardedStore(root, budget_bytes=BUDGET)
    for i in range(KEYSPACE):
        assert seeder.store(_key(i), _payload(0, i))

    n_writers, n_readers = 3, 3
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=n_writers + n_readers
        ) as pool:
            writer_futs = [
                pool.submit(_writer, root, seed) for seed in range(n_writers)
            ]
            reader_futs = [
                pool.submit(_reader, root, seed) for seed in range(n_readers)
            ]
            write_failures = [f.result(timeout=120) for f in writer_futs]
            read_results = [f.result(timeout=120) for f in reader_futs]
    except (OSError, PermissionError) as exc:
        pytest.skip(f"host forbids subprocesses: {exc}")

    assert sum(write_failures) == 0, "atomic stores must not fail"
    total_hits = sum(hits for hits, _ in read_results)
    total_torn = sum(torn for _, torn in read_results)
    assert total_torn == 0, "reader observed a torn/partial entry"
    # with a seeded keyspace and constant rewrites, readers must actually
    # have exercised the hit path (otherwise this test proves nothing)
    assert total_hits > 0

    # the budget invariant: one eviction pass lands the *real* disk total
    # (all processes' writes included) under the configured budget
    auditor = ShardedStore(root, budget_bytes=BUDGET)
    auditor.evict_to_budget()
    assert auditor.bytes_on_disk(refresh=True) <= BUDGET


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX unlink semantics")
def test_eviction_cannot_yank_an_open_entry(tmp_path):
    """POSIX keeps an open file readable through unlink: a reader holding
    the file open mid-``load`` survives a concurrent eviction."""
    store = ShardedStore(tmp_path / "s")
    key = _key(0)
    payload = _payload(7, 7)
    store.store(key, payload)
    path = store.path_for(key)
    with open(path, "rb") as fh:
        os.unlink(path)          # the evictor strikes mid-read
        data = fh.read()         # the open descriptor still sees it all
    assert _verify(data) == payload[:-32]
    assert store.load(key) is None   # later reads: clean miss
