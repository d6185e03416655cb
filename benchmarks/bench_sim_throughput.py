#!/usr/bin/env python3
"""Simulator throughput benchmark: raw instr/s of each dispatch tier.

Writes ``BENCH_sim.json`` next to the repo root so perf changes leave a
trajectory future PRs can regress against:

    python benchmarks/bench_sim_throughput.py [-o BENCH_sim.json]

Reported numbers:

* ``single_run`` -- raw simulation throughput (million instr/s) on a few
  representative benchmarks, profiled and unprofiled, best of N runs
  (``reps`` records N; the engines under comparison are interleaved
  rep-by-rep so host drift cancels out of the speedup ratios).  The headline numbers are the default engine --
  superblock dispatch with the trace tier on; each entry also carries
  the block-tier-only and threaded throughputs plus the resulting
  speedups, so dispatch regressions are visible without digging through
  history.
* ``tier_sweep`` -- per-benchmark block-tier vs trace-tier throughput
  across the whole 20-benchmark suite, best of N each, with the geomean
  ratio.  This is the trace tier's same-machine contribution on top of
  whole-module block compilation.

Whole-suite sweep wall-clock is not timed here: ``perfbench/`` measures
the cold static and dynamic sweeps end to end and per stage.

``--smoke`` runs a fast host-independent regression gate instead: it
compares the trace tier against threaded dispatch on the same machine
and fails (exit 1) below a 2x margin, then checks the trace tier
actually installs traces and stays cycle-exact against the block tier.
CI runs this on every push; absolute instr/s vary wildly across shared
runners, the engine-vs-engine ratio does not.

Earlier entries are preserved under ``history`` so the file carries the
whole perf trajectory: seed (~0.96M instr/s on ``brev``, ~5.8 s serial
sweep with the string-dispatch interpreter) -> PR 1 threaded code (~7.8M
instr/s) -> PR 4 superblock dispatch (~2-3x threaded) -> onward.  Future
perf PRs must keep the trajectory monotonic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import math

import repro
from repro.compiler.driver import compile_source
from repro.programs import ALL_BENCHMARKS, get_benchmark
from repro.sim.cpu import Cpu

SINGLE_RUN_BENCHMARKS = ["brev", "crc", "fir", "adpcm"]
REPEATS = 9  # best-of-N; raised from 5 to damp shared-host noise
SWEEP_REPEATS = 3  # best-of-N for the 20-benchmark tier sweep

#: --smoke fails below this traces/threaded ratio; the real margin is
#: ~3-4x with the trace tier, so 2.0 only trips on a genuine regression
SMOKE_MIN_SPEEDUP = 2.0

#: the three dispatch tiers the harness compares
TIERS = {
    "threaded": {"engine": "threaded"},
    "superblock": {"engine": "superblock", "trace_threshold": 0},
    "traces": {"engine": "superblock", "trace_threshold": 1},
}


def time_configs(name: str, configs: dict[str, dict],
                 repeats: int = REPEATS) -> dict[str, dict]:
    """Interleaved best-of-N wall clock for one benchmark across configs.

    Each round runs every config back-to-back (fresh Cpu per run, timing
    ``run()`` only), so a host slowdown window hits all configs equally
    and the engine-vs-engine *ratios* stay honest even when absolute
    instr/s drift -- consecutive same-config reps would let drift land
    on one side of a ratio.  The trace tier's per-executable build cache
    makes its repetitions 2..N trace-warm, so best-of-N measures
    steady-state dispatch, with the cold build cost visible only in
    repetition 1.
    """
    exe = compile_source(get_benchmark(name).source)
    best = {key: float("inf") for key in configs}
    steps = {key: 0 for key in configs}
    for _ in range(repeats):
        for key, cpu_kwargs in configs.items():
            cpu = Cpu(exe, **cpu_kwargs)
            start = time.perf_counter()
            result = cpu.run()
            best[key] = min(best[key], time.perf_counter() - start)
            steps[key] = result.steps
    return {
        key: {
            "steps": steps[key],
            "seconds": round(best[key], 6),
            "mips": round(steps[key] / best[key] / 1e6, 3),
            "reps": repeats,
        }
        for key in configs
    }


def time_single_run(name: str, profile: bool = False,
                    repeats: int = REPEATS, **cpu_kwargs) -> dict:
    """Best-of-N for one benchmark under one Cpu config."""
    kwargs = dict(cpu_kwargs, profile=profile)
    return time_configs(name, {"run": kwargs}, repeats=repeats)["run"]


def host_fingerprint() -> dict:
    """Where these numbers came from: absolute instr/s are meaningless
    without the host, and the trajectory file outlives any one machine."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def time_tier_sweep(repeats: int = SWEEP_REPEATS) -> dict:
    """Per-benchmark throughput of the block tier vs the trace tier over
    the whole 20-benchmark suite, with the geomean ratio."""
    rows: dict[str, dict] = {}
    ratios: list[float] = []
    for bench in ALL_BENCHMARKS:
        timed = time_configs(
            bench.name,
            {"blocks": TIERS["superblock"], "traces": TIERS["traces"]},
            repeats=repeats,
        )
        blocks, traced = timed["blocks"], timed["traces"]
        ratio = round(traced["mips"] / blocks["mips"], 3) \
            if blocks["mips"] else 0.0
        rows[bench.name] = {
            "blocks_mips": blocks["mips"],
            "traces_mips": traced["mips"],
            "ratio": ratio,
        }
        ratios.append(ratio)
    positive = [r for r in ratios if r > 0]
    geomean = round(
        math.exp(sum(math.log(r) for r in positive) / len(positive)), 3
    ) if positive else 0.0
    # benchmarks where the trace tier *lost* to the block tier -- an
    # explicit list so a localized regression cannot hide inside a
    # still-healthy geomean
    regressions = sorted(
        name for name, row in rows.items() if 0 < row["ratio"] < 1.0
    )
    return {
        "benchmarks": rows,
        "geomean_traces_vs_blocks": geomean,
        "tier_regressions": regressions,
        "host": host_fingerprint(),
        "reps": repeats,
    }


#: the differential suite's phase-flip hazard at recovery-relevant scale:
#: the hot arm flips halfway, so traces built in phase one decay and the
#: re-planner must retire them and rebuild against the second phase
PHASE_FLIP_SOURCE = """
int acc; int alt;
int main(void) {
    int i;
    acc = 0; alt = 0;
    for (i = 0; i < 40000; i++) {
        if (i < 20000) {
            acc = acc + (i ^ 3) + (acc >> 2);
        } else {
            alt = alt + (i | 5) - (alt >> 3);
        }
    }
    return 0;
}
"""

#: child of the warm-start harness: one full simulation in a fresh
#: process, reporting build activity so the parent can tell a replayed
#: start from a cold one
_WARM_CHILD = """
import json, sys, time
from repro.compiler.driver import compile_source
from repro.programs import get_benchmark
from repro.sim.cpu import Cpu

exe = compile_source(get_benchmark(sys.argv[1]).source)
cpu = Cpu(exe, trace_threshold=1)
start = time.perf_counter()
result = cpu.run()
elapsed = time.perf_counter() - start
print(json.dumps({
    "seconds": elapsed,
    "codegen_seconds": cpu._sb.codegen_seconds,
    "builds": cpu._sb.trace_builds,
    "traces": len(cpu.traces),
    "steps": result.steps,
    "cycles": result.cycles,
}))
"""


def time_warm_start(name: str = "sobel", repeats: int = 3) -> dict:
    """Cold vs warm process pair through the persistent trace cache.

    Each repetition gets a *fresh* scratch ``REPRO_TRACE_CACHE_DIR`` and
    runs the cold child then the warm child, so only the warm child ever
    finds builds on disk; best-of-N on each side damps process-launch
    noise (the per-run deltas are milliseconds).  The dict records both
    wall clocks, the warm child's build count (must be 0), and whether
    results matched bit-for-bit.
    """
    env = dict(os.environ)
    env["REPRO_TRACE_PERSIST"] = "on"
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])

    def child():
        proc = subprocess.run(
            [sys.executable, "-c", _WARM_CHILD, name],
            capture_output=True, text=True, env=env, timeout=300,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"warm-start child failed: {proc.stderr}")
        return json.loads(proc.stdout)

    best_cold, best_warm = None, None
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="repro-trc-") as cache_dir:
            env["REPRO_TRACE_CACHE_DIR"] = cache_dir
            cold = child()
            warm = child()
        if best_cold is None or cold["seconds"] < best_cold["seconds"]:
            best_cold = cold
        if best_warm is None or warm["seconds"] < best_warm["seconds"]:
            best_warm = warm
    return {
        "benchmark": name,
        "cold_seconds": round(best_cold["seconds"], 6),
        "warm_seconds": round(best_warm["seconds"], 6),
        "cold_builds": best_cold["builds"],
        "warm_builds": best_warm["builds"],
        "warm_traces": best_warm["traces"],
        "speedup": round(best_cold["seconds"] / best_warm["seconds"], 3)
        if best_warm["seconds"] else 0.0,
        "identical": all(best_cold[f] == best_warm[f]
                         for f in ("steps", "cycles")),
        "reps": repeats,
    }


def time_phase_flip(repeats: int = 3) -> dict:
    """Re-planning recovery on the phase-flip hazard.

    ``coverage`` is the share of executed instructions that ran inside a
    trace (active + retired): with re-planning off the tier is stuck with
    phase-one traces and coverage caps near 50%; with re-planning on the
    rebuilt traces carry the second phase too.
    """
    exe = compile_source(PHASE_FLIP_SOURCE, opt_level=1)
    kwargs = {"trace_threshold": 1, "spree_size": 4096}
    rows = {}
    for label, threshold in (("replan", 0.25), ("no_replan", 0.0)):
        best = float("inf")
        for _ in range(repeats):
            cpu = Cpu(exe, replan_threshold=threshold, **kwargs)
            start = time.perf_counter()
            result = cpu.run()
            best = min(best, time.perf_counter() - start)
        sb = cpu._sb
        covered = sum(t.instructions for t in cpu.traces) \
            + sum(t.instructions for t in sb.retired)
        rows[label] = {
            "seconds": round(best, 6),
            "coverage": round(covered / result.steps, 3),
            "replans": sb.replans_total,
            "steps": result.steps,
            "cycles": result.cycles,
        }
    rows["recovery"] = round(
        rows["replan"]["coverage"] - rows["no_replan"]["coverage"], 3
    )
    rows["identical"] = all(
        rows["replan"][f] == rows["no_replan"][f] for f in ("steps", "cycles")
    )
    return rows


def run_smoke() -> int:
    """Fast engine-vs-engine regression gate for CI; returns an exit code."""
    failures = []
    for name in ("brev", "crc"):
        timed = time_configs(
            name, {"fast": TIERS["traces"], "slow": TIERS["threaded"]},
            repeats=3,
        )
        fast, slow = timed["fast"], timed["slow"]
        speedup = fast["mips"] / slow["mips"] if slow["mips"] else 0.0
        status = "ok" if speedup >= SMOKE_MIN_SPEEDUP else "REGRESSED"
        print(f"{name:8s} traces {fast['mips']:7.2f}M  threaded "
              f"{slow['mips']:7.2f}M  ({speedup:.2f}x) {status}")
        if speedup < SMOKE_MIN_SPEEDUP:
            failures.append(name)
    # the trace tier must actually engage and agree with the block tier
    exe = compile_source(get_benchmark("brev").source)
    traced_cpu = Cpu(exe, trace_threshold=1)
    traced = traced_cpu.run()
    blocks = Cpu(exe, trace_threshold=0).run()
    installed = len(traced_cpu.traces)
    covered = sum(t.instructions for t in traced_cpu.traces)
    print(f"brev     trace tier: {installed} traces, "
          f"{100 * covered // max(1, traced.steps)}% in-trace")
    if not installed:
        print("smoke FAILED: trace tier built no traces on brev")
        failures.append("brev-traces")
    if traced.steps != blocks.steps or traced.cycles != blocks.cycles:
        print("smoke FAILED: trace tier disagrees with block tier on brev")
        failures.append("brev-exactness")
    # persistent cache: a second process must start trace-warm (zero
    # builds) and agree bit-for-bit with the cold process
    warm = time_warm_start("brev")
    print(f"brev     warm start: cold {warm['cold_seconds']:.3f}s "
          f"({warm['cold_builds']} builds) -> warm "
          f"{warm['warm_seconds']:.3f}s ({warm['warm_builds']} builds, "
          f"{warm['warm_traces']} traces replayed)")
    if warm["warm_builds"] != 0 or not warm["warm_traces"]:
        print("smoke FAILED: second process did not replay the trace cache")
        failures.append("warm-start-replay")
    if not warm["identical"]:
        print("smoke FAILED: warm process diverged from cold process")
        failures.append("warm-start-exactness")
    if failures:
        print(f"smoke FAILED ({', '.join(failures)}); gate is "
              f"{SMOKE_MIN_SPEEDUP}x over threaded")
        return 1
    print("smoke passed")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_sim.json"),
    )
    parser.add_argument("--label", default="",
                        help="trajectory label for this entry (e.g. 'PR 4')")
    parser.add_argument("--smoke", action="store_true",
                        help="quick engine-vs-engine regression gate; "
                             "no BENCH_sim.json update")
    args = parser.parse_args()

    if args.smoke:
        sys.exit(run_smoke())

    single = {}
    for name in SINGLE_RUN_BENCHMARKS:
        row = time_configs(name, {
            "no_profile": TIERS["traces"],
            "profile": dict(TIERS["traces"], profile=True),
            "superblock_no_traces": TIERS["superblock"],
            "threaded_no_profile": TIERS["threaded"],
        })
        row["speedup_vs_threaded"] = round(
            row["no_profile"]["mips"] / row["threaded_no_profile"]["mips"], 2
        )
        row["speedup_vs_blocks"] = round(
            row["no_profile"]["mips"] / row["superblock_no_traces"]["mips"], 2
        )
        single[name] = row
        print(f"{name:8s} {row['no_profile']['mips']:7.2f}M instr/s "
              f"({row['profile']['mips']:.2f}M profiled, "
              f"{row['speedup_vs_threaded']:.2f}x over threaded, "
              f"{row['speedup_vs_blocks']:.2f}x over block tier)")

    tier_sweep = time_tier_sweep()
    print(f"tiers    {tier_sweep['geomean_traces_vs_blocks']:.3f}x geomean "
          f"traces-vs-blocks across {len(tier_sweep['benchmarks'])} benchmarks "
          f"(best of {tier_sweep['reps']})")
    if tier_sweep["tier_regressions"]:
        print(f"tiers    trace tier SLOWER than blocks on: "
              f"{', '.join(tier_sweep['tier_regressions'])}")

    warm_start = time_warm_start()
    print(f"warm     cold {warm_start['cold_seconds']:.3f}s -> warm "
          f"{warm_start['warm_seconds']:.3f}s "
          f"({warm_start['speedup']:.2f}x, {warm_start['warm_builds']} "
          f"builds in warm process)")

    phase_flip = time_phase_flip()
    print(f"replan   phase-flip coverage {phase_flip['replan']['coverage']:.1%}"
          f" with re-planning vs {phase_flip['no_replan']['coverage']:.1%} "
          f"without ({phase_flip['replan']['replans']} replans)")

    payload = {
        "benchmark": "sim_throughput",
        "cpu_count": os.cpu_count() or 1,
        "host": host_fingerprint(),
        "engine": "superblock+traces",
        "reps": REPEATS,
        "single_run": single,
        "tier_sweep": tier_sweep,
        "warm_start": warm_start,
        "phase_flip": phase_flip,
    }
    if args.label:
        payload["label"] = args.label

    # the latest entry stays at top level (tools read it directly); earlier
    # entries accumulate under "history", oldest first
    output = Path(args.output)
    history: list[dict] = []
    if output.exists():
        try:
            previous = json.loads(output.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            # never clobber the perf trajectory: a truncated write or merge
            # marker must be repaired by hand, not silently erased
            raise SystemExit(
                f"{output} exists but is unreadable ({exc}); refusing to "
                "overwrite the perf trajectory -- fix or remove it first"
            )
        if isinstance(previous, dict):
            history = previous.pop("history", [])
            if previous:
                history.append(previous)
    payload["history"] = history
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
