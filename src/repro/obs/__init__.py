"""``repro.obs`` -- the unified telemetry layer.

One process-wide :class:`~repro.obs.registry.MetricsRegistry` plus one
:class:`~repro.obs.trace.TraceBuffer`, both **off by default**.  The
contract with the hot paths:

* ``obs.counter/gauge/histogram(name)`` return real instruments only when
  metrics are enabled; disabled they return the shared no-op stub, so
  call sites bind once at setup and never branch per event.
* The simulator's dispatch loops carry **no** telemetry at all -- engine
  metrics are derived from existing introspection state (superblock
  unit counters and codegen totals) at run end, so the 2.0x perf-smoke gate is
  structurally unaffected, not merely branch-predicted away.
* ``obs.span(...)``/``obs.instant(...)`` are no-ops (a shared
  ``nullcontext``) unless tracing is enabled.

Enable via ``REPRO_OBS=1`` in the environment (inherited by ``run_jobs``
worker processes) or :func:`enable` in code; ``python -m repro --metrics``
and ``--trace-out`` do it for the CLI.  Worker processes ship their
registry deltas and trace events back through the pool's ordinary result
plumbing (see ``repro.flow``); :func:`merge_snapshot` folds them into the
parent so ``python -m repro stats`` reports one merged registry.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

from repro.obs.registry import NULL, MetricsRegistry
from repro.obs.trace import TraceBuffer, timeline_trace_events
from repro.surface import lazy_surface

__all__ = [
    "metrics_enabled", "tracing_enabled", "enable", "disable",
    "counter", "gauge", "histogram", "registry", "snapshot",
    "merge_snapshot", "clear_metrics",
    "span", "instant", "trace_counter", "trace_events", "extend_trace",
    "take_trace_events", "clear_trace", "export_chrome", "export_jsonl",
    "reset_worker_state", "timeline_trace_events",
    "format_stats", "load_stats", "save_stats", "stats_path", "obs_dir",
    "ENABLE_ENV",
]

ENABLE_ENV = "REPRO_OBS"

#: the stats file renderer loads on first use (PEP 562): a session that
#: saves no telemetry never needs it
__getattr__, __dir__ = lazy_surface(__name__, {
    name: "repro.obs.report"
    for name in ("format_stats", "load_stats", "save_stats", "stats_path",
                 "obs_dir")
})

_registry = MetricsRegistry()
_buffer = TraceBuffer()
_NULL_SPAN = nullcontext()


def _env_enabled() -> bool:
    return os.environ.get(ENABLE_ENV, "").lower() in ("1", "on", "true", "yes")


_metrics_on = _env_enabled()
_tracing_on = _metrics_on


def metrics_enabled() -> bool:
    return _metrics_on


def tracing_enabled() -> bool:
    return _tracing_on


def enable(metrics: bool = True, tracing: bool = True) -> None:
    global _metrics_on, _tracing_on
    _metrics_on = _metrics_on or metrics
    _tracing_on = _tracing_on or tracing


def disable() -> None:
    global _metrics_on, _tracing_on
    _metrics_on = False
    _tracing_on = False


# -- metrics ----------------------------------------------------------------

def registry() -> MetricsRegistry:
    """The live registry (also when disabled -- tests introspect it)."""
    return _registry


def counter(name: str):
    return _registry.counter(name) if _metrics_on else NULL


def gauge(name: str):
    return _registry.gauge(name) if _metrics_on else NULL


def histogram(name: str):
    return _registry.histogram(name) if _metrics_on else NULL


def snapshot() -> dict:
    return _registry.snapshot()


def merge_snapshot(data: dict) -> None:
    _registry.merge(data)


def clear_metrics() -> None:
    _registry.clear()


# -- tracing ----------------------------------------------------------------

def span(name: str, tid=None, **attrs):
    if not _tracing_on:
        return _NULL_SPAN
    return _buffer.span(name, tid=tid, **attrs)


def instant(name: str, tid=None, **attrs) -> None:
    if _tracing_on:
        _buffer.instant(name, tid=tid, **attrs)


def trace_counter(name: str, values: dict, tid=None) -> None:
    if _tracing_on:
        _buffer.counter(name, values, tid=tid)


def trace_events() -> list[dict]:
    return _buffer.events


def extend_trace(events) -> None:
    _buffer.extend(events)


def take_trace_events() -> list[dict]:
    """Drain the buffer (how workers hand their events to the parent)."""
    events = list(_buffer.events)
    _buffer.clear()
    return events


def clear_trace() -> None:
    _buffer.clear()


def export_chrome(path):
    return _buffer.export_chrome(path)


def export_jsonl(path):
    return _buffer.export_jsonl(path)


def reset_worker_state() -> None:
    """Start a worker job from a clean slate.

    Forked pool workers inherit the parent's registry and trace buffer;
    shipping that inherited state back would double-count it, so
    ``run_jobs`` clears both at the start of every job and ships only the
    job's own delta.
    """
    _registry.clear()
    _buffer.clear()
