"""Persistent, content-addressed trace-build cache (ROADMAP item g).

A warmup run profiles, plans, and compiles its traces; those builds are
worth keeping.  The in-process side of the cache maps a **content key**
-- executable bytes, codegen-relevant knobs, the interpreter's bytecode
magic, and the same package-source fingerprint the flow cache uses --
to the list of build artifacts :func:`install_traces` records, so any
table on an identical program replays compiled code objects instead of
re-profiling.  Keying by content (not ``id(exe)``) removes the id-reuse
hazard of the old per-object cache and lets two distinct ``Executable``
instances of the same program share one set of builds.

The on-disk side persists that artifact list through a
:class:`~repro.store.ShardedStore` under
``REPRO_TRACE_CACHE_DIR`` (``marshal``-encoded: artifacts are plain
containers plus compiled code objects, which ``marshal`` round-trips
and ``pickle`` cannot).  A second *process* then starts trace-warm via
the exact ``_replay`` path the in-process cache already exercises.
Invalidation is by construction: the key covers everything the
generated code depends on, so an edit to the package source, a new
interpreter, a different profile mode, or a format bump simply misses.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
from collections import OrderedDict
from pathlib import Path

from repro.flow_cache import _source_fingerprint, cache_enabled
from repro.store import BUDGET_ENV, ShardedStore, get_store, parse_budget

__all__ = [
    "MEMORY_CAP",
    "PERSIST_FORMAT",
    "TRACE_CACHE_DIR_ENV",
    "TRACE_PERSIST_ENV",
    "artifacts_for",
    "invalidate",
    "persist_enabled",
    "publish",
    "trace_cache_dir",
    "trace_key",
    "trace_store",
]

#: bump on any change to the artifact layout or the generated factory
#: signature -- stale entries then miss instead of replaying wrong code
PERSIST_FORMAT = 1

TRACE_CACHE_DIR_ENV = "REPRO_TRACE_CACHE_DIR"
TRACE_PERSIST_ENV = "REPRO_TRACE_PERSIST"

#: in-process artifact lists, content-keyed.  Bounded: fuzzers create
#: hundreds of distinct programs per process, and each entry pins
#: compiled code objects.  The flow's stage memo (:mod:`repro.stages`)
#: shares this bound
MEMORY_CAP = 32
_MEMORY: "OrderedDict[str, list]" = OrderedDict()


def persist_enabled() -> bool:
    """The on-disk default: follow ``REPRO_TRACE_PERSIST``, falling back
    to the global ``REPRO_CACHE`` toggle when unset (so ``REPRO_CACHE=off``
    test environments stay hermetic without extra knobs)."""
    value = os.environ.get(TRACE_PERSIST_ENV)
    if value is None:
        return cache_enabled()
    return value.lower() not in ("0", "off", "no", "false")


def trace_cache_dir() -> Path:
    root = os.environ.get(TRACE_CACHE_DIR_ENV)
    if root:
        return Path(root)
    shared = os.environ.get("REPRO_CACHE_DIR")
    if shared:
        return Path(shared) / "traces"
    return Path.home() / ".cache" / "repro" / "traces"


def trace_store() -> ShardedStore:
    """The process-wide sharded store backing the trace cache."""
    budget = parse_budget(os.environ.get(BUDGET_ENV))
    return get_store(trace_cache_dir(), budget, suffix=".trc")


def trace_key(exe, profile: bool) -> str:
    """Content hash of everything the generated trace code depends on.

    ``exe.to_bytes()`` covers entry point, section layout, text, and
    data (the decoded program *is* the text); ``MAGIC_NUMBER`` covers
    the interpreter version the cached code objects were compiled by;
    the source fingerprint covers the generator itself.
    """
    digest = hashlib.sha256()
    digest.update(b"trace-cache\x1f%d\x1f" % PERSIST_FORMAT)
    digest.update(importlib.util.MAGIC_NUMBER)
    digest.update(_source_fingerprint().encode())
    digest.update(b"\x1fprofile=%d\x1f" % int(profile))
    digest.update(exe.to_bytes())
    return digest.hexdigest()


def _decode(data: bytes) -> list:
    artifacts = marshal.loads(data)
    if not isinstance(artifacts, list):
        raise ValueError("trace cache entry is not an artifact list")
    for artifact in artifacts:
        if not isinstance(artifact, dict) or not (
            {"code", "bids", "infos"} <= artifact.keys()
        ):
            raise ValueError("malformed trace cache artifact")
    return artifacts


def artifacts_for(key: str, persist: bool) -> list:
    """The shared artifact list for *key* (memory first, then disk).

    Always returns the same ``list`` object for a given key while it
    stays in the memory cache, so every table on the same program
    appends to -- and replays from -- one list.
    """
    artifacts = _MEMORY.get(key)
    if artifacts is not None:
        _MEMORY.move_to_end(key)
        return artifacts
    if persist:
        artifacts = trace_store().load(key, _decode)
    if artifacts is None:
        artifacts = []
    _MEMORY[key] = artifacts
    while len(_MEMORY) > MEMORY_CAP:
        _MEMORY.popitem(last=False)
    return artifacts


def publish(key: str, artifacts: list) -> None:
    """Persist the current artifact list for *key* (best effort)."""
    try:
        data = marshal.dumps(artifacts)
    except ValueError:
        return  # unmarshallable artifact: keep the in-process cache only
    trace_store().store(key, data)


def invalidate(key: str, persist: bool) -> None:
    """Drop *key* everywhere (poisoned or superseded entries)."""
    _MEMORY.pop(key, None)
    if persist:
        trace_store().discard(key)
