"""Host-speed probe: a fixed pure-Python loop, timed next to every flow.

On a shared host the core's speed drifts by 10-30% over seconds to
minutes; CPU time tracks wall time and there is no steal, so the drift is
contention for the core itself, and longer runs do not average it out.
The probe is benchmark code, untouched by any change to the program, so
scaling a wall time by ``REFERENCE_PROBE_S`` over the probe times taken
just before and after it gives seconds at one fixed host speed.  This
cuts the run-to-run spread of sweep times to about a third.
"""

from __future__ import annotations

import time

#: the probe's time on an unloaded 2-core x86 host under CPython 3.11
REFERENCE_PROBE_S = 0.00085


def _loop() -> int:
    table = {}
    total = 0
    items = list(range(64))
    for i in range(3000):
        j = i & 63
        total += items[j] * 3 ^ (total >> 3)
        table[j] = total & 0xFFFF
    return total


def probe() -> float:
    """Seconds the fixed loop takes: best of three, since an interrupt
    can only add time."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - started)
    return best


def at_reference(seconds: float, before: float, after: float) -> float:
    """*seconds* of wall time, rescaled to the reference host speed using
    the probe times taken just *before* and *after* it."""
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)
