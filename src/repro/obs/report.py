"""Reporting surface: pretty-printed registry dumps and their persistence.

``python -m repro <cmd> --metrics`` saves the final (merged) registry
snapshot to ``<obs dir>/last_stats.json`` when the command exits;
``python -m repro stats`` reloads and pretty-prints it, so the reporting
step works across processes without any IPC.  The obs directory defaults
to ``~/.cache/repro/obs`` and relocates with ``REPRO_OBS_DIR``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

OBS_DIR_ENV = "REPRO_OBS_DIR"
STATS_FILENAME = "last_stats.json"


def obs_dir() -> Path:
    root = os.environ.get(OBS_DIR_ENV)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro" / "obs"


def stats_path() -> Path:
    return obs_dir() / STATS_FILENAME


def save_stats(snapshot: dict, path=None) -> Path | None:
    """Persist a registry snapshot (with provenance); ``None`` on failure --
    stats persistence must never fail the command that produced them."""
    target = Path(path) if path is not None else stats_path()
    payload = {
        "meta": {
            "argv": sys.argv[1:],
            "pid": os.getpid(),
            "unix_time": time.time(),
        },
        "metrics": snapshot,
    }
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        return None
    return target


def load_stats(path=None) -> dict | None:
    """The last saved stats payload (``{"meta", "metrics"}``), or ``None``."""
    target = Path(path) if path is not None else stats_path()
    try:
        payload = json.loads(target.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or "metrics" not in payload:
        return None
    return payload


def _fmt_number(value) -> str:
    if isinstance(value, float):
        if value and abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return f"{value:,}"


def _fmt_histogram(data: dict) -> str:
    count = data.get("count", 0)
    if not count:
        return "count 0"
    mean = data.get("total", 0.0) / count
    return (f"count {count:,}  mean {_fmt_number(mean)}  "
            f"min {_fmt_number(data.get('min'))}  "
            f"max {_fmt_number(data.get('max'))}")


def format_stats(payload: dict) -> str:
    """Human-readable rendering of a stats payload, grouped by the dotted
    prefix (``engine.``, ``flow.``, ``pool.``, ...)."""
    metrics = payload.get("metrics", payload)
    meta = payload.get("meta")
    lines: list[str] = []
    if meta:
        when = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(meta.get("unix_time", 0))
        )
        argv = " ".join(meta.get("argv", []))
        lines.append(f"telemetry from `repro {argv}` at {when} "
                     f"(pid {meta.get('pid', '?')})")
        lines.append("")
    if not metrics:
        lines.append("(registry is empty)")
        return "\n".join(lines)
    width = max(len(name) for name in metrics)
    group = None
    for name in sorted(metrics):
        data = metrics[name]
        prefix = name.split(".", 1)[0]
        if prefix != group:
            if group is not None:
                lines.append("")
            lines.append(prefix)
            group = prefix
        kind = data.get("kind")
        if kind == "histogram":
            rendered = _fmt_histogram(data)
        else:
            rendered = _fmt_number(data.get("value", 0))
        lines.append(f"  {name:<{width}}  {rendered}")
    return "\n".join(lines)
