"""One cold sweep of one workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  Usage::

    python3 perfbench/sweep.py WORKLOAD SEED TRACE SUBSET [--setup-only]

``PERFBENCH_T0`` holds the parent's ``time.monotonic()`` just before this
process was spawned (the clock is system-wide), so ``setup_s`` spans
process start, interpreter start-up, imports and building the job list.

Jobs are submitted one at a time (a closed loop with one client, serial,
``max_workers=1``), so each flow's latency is the wall time of its call,
rescaled to the reference host speed by the probes timed just before and
after it (see ``hostspeed.py``); ``wall_s`` is the unscaled sum.  With
TRACE=1 the layer entry points are rebound first (see ``tracer.py``) and
the spans are written to ``perfbench/out/<workload>.trace.json``.  The
last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, trace, subset = argv[:4]
    setup_only = "--setup-only" in argv[4:]
    started = float(os.environ["PERFBENCH_T0"])

    import hostspeed
    import repro
    import workloads

    checkout = Path(__file__).resolve().parent.parent
    if checkout / "src" not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {checkout}/src",
              file=sys.stderr)
        return 2
    chosen = tuple(subset.split(",")) if subset else None
    jobs = workloads.make_jobs(workload, int(seed), chosen)
    setup_s = time.monotonic() - started
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.install()

    latencies: dict[str, float] = {}     # at the reference host speed
    outputs: dict[str, dict] = {}
    wall_s = 0.0
    probe = hostspeed.probe()
    for key, job in jobs:
        if tracer is not None:
            tracer.flow = key
        flow_started = time.perf_counter()
        try:
            report = workloads.run_one(workload, job)
        except Exception as exc:  # a failed flow is counted, not fatal
            outputs[key] = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            outputs[key] = workloads.output_record(workload, report)
        elapsed = time.perf_counter() - flow_started
        wall_s += elapsed
        before, probe = probe, hostspeed.probe()
        latencies[key] = hostspeed.at_reference(elapsed, before, probe)

    result = {
        "sweep_s": sum(latencies.values()),
        "wall_s": wall_s,
        "latencies": latencies,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(wall_s)
        result["checksum_errors"] = tracer.checksum_errors
        out_dir = checkout / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_chrome_trace(out_dir / f"{workload}.trace.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
