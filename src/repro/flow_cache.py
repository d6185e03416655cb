"""On-disk memoisation of :class:`~repro.flow.FlowReport` objects.

Flow runs are deterministic functions of (source text, optimization level,
platform, step budget), so a completed report can be pickled once and
reloaded by any later session -- repeated sweeps (``python -m repro sweep``,
``benchmarks/``, ``examples/full_study.py``) then skip the expensive
compile -> simulate -> decompile -> synthesize pipeline entirely.

Storage is the sharded concurrency-safe store from
:mod:`repro.store`: entries live under 256 two-hex-char shard
subdirectories of ``~/.cache/repro/flow/`` (override the root with
``REPRO_CACHE_DIR``), file name = SHA-256 of the canonical key, published
with atomic renames so many pool workers can read and write the same
store at once, and LRU-evicted under ``REPRO_CACHE_BUDGET`` (e.g. ``64M``).
The key includes the package version *and* a fingerprint of the package's
own source files (path, size, mtime), so editing any ``repro`` module
invalidates every stale entry at once -- a mid-development code change can
never silently serve pre-change results.  Set ``REPRO_CACHE=off`` to
disable the cache globally; every read/write failure degrades to a miss --
the cache can slow nothing down and break nothing.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING

from repro.store import BUDGET_ENV, ShardedStore, get_store, parse_budget

if TYPE_CHECKING:
    from repro.flow import FlowJob, FlowReport

#: bump to invalidate all cached reports after a format change
#: (2: flat directory -> sharded store layout)
CACHE_FORMAT = 2

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_TOGGLE_ENV = "REPRO_CACHE"


def cache_enabled() -> bool:
    """The cache default: on, unless ``REPRO_CACHE`` says otherwise."""
    return os.environ.get(CACHE_TOGGLE_ENV, "").lower() not in (
        "0", "off", "no", "false",
    )


def cache_dir() -> Path:
    root = os.environ.get(CACHE_DIR_ENV)
    if root:
        return Path(root) / "flow"
    return Path.home() / ".cache" / "repro" / "flow"


def cache_budget() -> int | None:
    """The ``REPRO_CACHE_BUDGET`` size budget in bytes (``None`` = none)."""
    return parse_budget(os.environ.get(BUDGET_ENV))


def store() -> ShardedStore:
    """The process-wide sharded store backing the flow cache."""
    return get_store(cache_dir(), cache_budget())


def _source_fingerprint() -> str:
    """Hash of the installed ``repro`` package's source file metadata.

    (relative path, size, mtime) per ``*.py`` file is enough to catch any
    edit; a spurious mtime change (fresh checkout) merely costs one cache
    miss.  Computed once per process.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        import repro

        digest = hashlib.sha256()
        root = Path(repro.__file__).resolve().parent
        try:
            for path in sorted(root.rglob("*.py")):
                stat = path.stat()
                digest.update(
                    f"{path.relative_to(root)}\x1f{stat.st_size}"
                    f"\x1f{stat.st_mtime_ns}\x1e".encode()
                )
        except OSError:
            pass
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT


_SOURCE_FINGERPRINT: str | None = None


def job_key(job: FlowJob) -> str:
    """Stable content hash of everything a flow run depends on."""
    from repro import __version__

    platform = job.platform
    fingerprint = "\x1f".join([
        f"v{CACHE_FORMAT}",
        __version__,
        _source_fingerprint(),
        job.name,
        job.source,
        str(job.opt_level),
        str(job.max_steps),
        # frozen-dataclass reprs are deterministic and cover every field of
        # the platform, its device, CPI and power models
        repr(platform),
    ])
    return hashlib.sha256(fingerprint.encode()).hexdigest()


def _path_for(job: FlowJob) -> Path:
    return store().path_for(job_key(job))


def load_report(job: FlowJob) -> FlowReport | None:
    """Cached report for *job*, or ``None`` on any kind of miss."""

    def decode(data: bytes) -> FlowReport:
        # unpickling a corrupt or stale file can raise nearly anything
        # (OSError, UnpicklingError, ValueError on bad protocol bytes,
        # AttributeError/ImportError on renamed classes, ...); the store
        # counts every failure as a miss and discards the entry.  A stale
        # or foreign pickle must never poison a sweep, so the type and
        # name are checked here, inside the same miss accounting.
        from repro.flow import FlowReport

        report = pickle.loads(data)
        if not isinstance(report, FlowReport) or report.name != job.name:
            raise ValueError("foreign cache entry")
        return report

    return store().load(job_key(job), decode)


def store_report(job: FlowJob, report: FlowReport) -> None:
    """Persist *report*; failures are silently ignored (cache, not storage)."""
    try:
        data = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return
    store().store(job_key(job), data)


def clear() -> int:
    """Delete every cached report (and any ``*.tmp`` writer scratch files,
    whatever their age -- clearing the cache is explicit); returns the
    number of files removed."""
    removed = store().clear()
    # legacy flat-layout entries from the pre-sharded cache land in the
    # root itself; clearing is the one operation that still owes them
    try:
        for pattern in ("*.pkl", "*.tmp"):
            for entry in cache_dir().glob(pattern):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
    except OSError:
        pass
    return removed
