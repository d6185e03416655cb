#!/usr/bin/env python3
"""Simulator throughput benchmark: raw instr/s of each dispatch engine.

Writes ``BENCH_sim.json`` next to the repo root so perf changes leave a
trajectory future PRs can regress against:

    python benchmarks/bench_sim_throughput.py [-o BENCH_sim.json]

Reported numbers:

* ``single_run`` -- raw simulation throughput (million instr/s) on a few
  representative benchmarks, profiled and unprofiled, best of N runs
  (``reps`` records N; the engines under comparison are interleaved
  rep-by-rep so host drift cancels out of the speedup ratios).  Each
  benchmark runs at the compiler's default level (key ``brev``) and at
  O0 (stack-heavy, key ``brev/O0``) and O3 (unrolled, ``brev/O3``).  The
  headline numbers are the default engine -- superblock dispatch; each
  entry also carries the threaded throughput and the resulting speedup,
  so dispatch regressions are visible without digging through history.
* ``sampled_recording`` -- one fixed-interval sampled recording
  (:func:`repro.stages.sample_stream` at the dynamic flows' interval),
  ``Cpu`` construction included, on both engines.
* ``construction`` -- best-of-N wall clock of constructing a profiled
  superblock ``Cpu`` (decode, threaded table, code generation and
  ``compile()``) for each of the 80 ``static_suite`` binaries (20
  programs x O0-O3), with the generated units, lines and characters.

Whole-suite sweep wall-clock is not timed here: ``perfbench/`` measures
the cold static and dynamic sweeps end to end and per stage.

``--smoke`` runs a fast host-independent regression gate instead: it
compares superblock against threaded dispatch on the same machine and
fails (exit 1) below a 2x margin, then checks that the two engines agree
on steps, cycles and the post-run data-section words, and on every
sample of one sampled recording.  CI runs this on every push; absolute
instr/s vary wildly across shared runners, the engine-vs-engine ratio
does not.

Earlier entries are preserved under ``history`` so the file carries the
whole perf trajectory: seed (~0.96M instr/s on ``brev``, ~5.8 s serial
sweep with the string-dispatch interpreter) -> threaded code (~7.8M
instr/s) -> superblock dispatch (~2-3x threaded) -> onward.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro import stages
from repro.compiler.driver import compile_source
from repro.dynamic.controller import DynamicConfig
from repro.programs import ALL_BENCHMARKS, get_benchmark
from repro.sim.cpu import Cpu

SINGLE_RUN_BENCHMARKS = ["brev", "crc", "fir", "adpcm"]
#: opt levels besides the default each single-run benchmark runs at
EXTRA_OPT_LEVELS = (0, 3)
#: the sampled recording timed (and, under --smoke, compared across engines)
RECORDING = ("crc", 1)
REPEATS = 9  # best-of-N; raised from 5 to damp shared-host noise
#: best-of-N for the construction row (each rep builds 80 Cpus)
CONSTRUCTION_REPEATS = 3

#: --smoke fails below this superblock/threaded ratio; the real margin is
#: ~2.4-3.6x, so 2.0 only trips on a genuine regression
SMOKE_MIN_SPEEDUP = 2.0

#: the two dispatch engines the harness compares
TIERS = {
    "threaded": {"engine": "threaded"},
    "superblock": {"engine": "superblock"},
}


def time_configs(name: str, configs: dict[str, dict],
                 repeats: int = REPEATS,
                 opt_level: int | None = None) -> dict[str, dict]:
    """Interleaved best-of-N wall clock for one benchmark across configs.

    Each round runs every config back-to-back (fresh Cpu per run, timing
    ``run()`` only), so a host slowdown window hits all configs equally
    and the engine-vs-engine *ratios* stay honest even when absolute
    instr/s drift -- consecutive same-config reps would let drift land
    on one side of a ratio.
    """
    exe = compile_source(get_benchmark(name).source, opt_level=opt_level)
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


def sampled_trace(exe, engine: str):
    """(per-sample counter copies, RunResult, data words) of one sampled
    run of *exe* at the dynamic flows' interval."""
    cpu = Cpu(exe, profile=True, engine=engine)
    trace = []
    result = cpu.run(
        sample_interval=DynamicConfig().sample_interval,
        on_sample=lambda counts, taken: trace.append((counts[:], taken[:])),
    )
    return trace, result, data_words(cpu)


def data_words(cpu: Cpu) -> list[int]:
    """The data section's words after a run."""
    exe = cpu.exe
    return cpu.memory.read_words(exe.data_base, len(exe.data) // 4)


def time_recording(name: str, opt_level: int, repeats: int = REPEATS) -> dict:
    """Best-of-N wall clock of one sampled recording per engine.

    The superblock row is the stage memo's own recording
    (:func:`repro.stages.sample_stream`, construction included); the
    threaded row runs the same sampled run on the threaded engine.
    """
    exe = compile_source(get_benchmark(name).source, opt_level=opt_level)
    interval = DynamicConfig().sample_interval
    best = {"superblock": float("inf"), "threaded": float("inf")}
    steps = samples = 0
    for _ in range(repeats):
        stages.clear()
        start = time.perf_counter()
        stream = stages.sample_stream(exe, 100_000_000, interval)
        best["superblock"] = min(best["superblock"], time.perf_counter() - start)
        start = time.perf_counter()
        sampled_trace(exe, "threaded")
        best["threaded"] = min(best["threaded"], time.perf_counter() - start)
        steps, samples = stream.run.steps, len(stream.samples)
    stages.clear()
    row = {
        engine: {"seconds": round(seconds, 6),
                 "mips": round(steps / seconds / 1e6, 3)}
        for engine, seconds in best.items()
    }
    row.update(steps=steps, samples=samples, interval=interval, reps=repeats)
    return row


def time_construction(repeats: int = CONSTRUCTION_REPEATS) -> dict:
    """Best-of-N wall clock of building one profiled ``Cpu`` per
    ``static_suite`` binary, with the volume of generated source."""
    exes = [compile_source(benchmark.source, opt_level=level)
            for benchmark in ALL_BENCHMARKS for level in range(4)]
    best = float("inf")
    volume = {"units": 0, "lines": 0, "chars": 0}
    for _ in range(repeats):
        seconds = 0.0
        volume = dict.fromkeys(volume, 0)
        for exe in exes:
            start = time.perf_counter()
            cpu = Cpu(exe, profile=True)
            seconds += time.perf_counter() - start
            stats = cpu._sb.consume_stats()
            for key in volume:
                volume[key] += stats[f"codegen_{key}"]
        best = min(best, seconds)
    return {"binaries": len(exes), **volume, "seconds": round(best, 4),
            "reps": repeats}


def host_fingerprint() -> dict:
    """Where these numbers came from: absolute instr/s are meaningless
    without the host, and the trajectory file outlives any one machine."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def run_smoke() -> int:
    """Fast engine-vs-engine regression gate for CI; returns an exit code."""
    failures = []
    for name in ("brev", "crc"):
        timed = time_configs(
            name, {"fast": TIERS["superblock"], "slow": TIERS["threaded"]},
            repeats=3,
        )
        fast, slow = timed["fast"], timed["slow"]
        speedup = fast["mips"] / slow["mips"] if slow["mips"] else 0.0
        status = "ok" if speedup >= SMOKE_MIN_SPEEDUP else "REGRESSED"
        print(f"{name:8s} superblock {fast['mips']:7.2f}M  threaded "
              f"{slow['mips']:7.2f}M  ({speedup:.2f}x) {status}")
        if speedup < SMOKE_MIN_SPEEDUP:
            failures.append(name)
    # the two engines must agree on the run they just raced, memory included
    exe = compile_source(get_benchmark("brev").source)
    blocks_cpu = Cpu(exe, **TIERS["superblock"])
    threaded_cpu = Cpu(exe, **TIERS["threaded"])
    blocks, threaded = blocks_cpu.run(), threaded_cpu.run()
    if (blocks.steps, blocks.cycles, data_words(blocks_cpu)) \
            != (threaded.steps, threaded.cycles, data_words(threaded_cpu)):
        print("smoke FAILED: superblock disagrees with threaded on brev")
        failures.append("brev-exactness")
    # ... and on every sample of a sampled recording
    name, level = RECORDING
    exe = compile_source(get_benchmark(name).source, opt_level=level)
    blocks_trace, blocks, blocks_words = sampled_trace(exe, "superblock")
    threaded_trace, threaded, threaded_words = sampled_trace(exe, "threaded")
    if blocks_trace != threaded_trace or blocks_words != threaded_words \
            or blocks.pc_counts != threaded.pc_counts \
            or blocks.edge_counts != threaded.edge_counts:
        print(f"smoke FAILED: sampled {name}/O{level} differs between engines")
        failures.append(f"{name}-sampled-exactness")
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
        for level in (None, *EXTRA_OPT_LEVELS):
            key = name if level is None else f"{name}/O{level}"
            row = time_configs(name, {
                "no_profile": TIERS["superblock"],
                "profile": dict(TIERS["superblock"], profile=True),
                "threaded_no_profile": TIERS["threaded"],
            }, opt_level=level)
            row["speedup_vs_threaded"] = round(
                row["no_profile"]["mips"] / row["threaded_no_profile"]["mips"], 2
            )
            single[key] = row
            print(f"{key:8s} {row['no_profile']['mips']:7.2f}M instr/s "
                  f"({row['profile']['mips']:.2f}M profiled, "
                  f"{row['speedup_vs_threaded']:.2f}x over threaded)")

    name, level = RECORDING
    recording = {f"{name}/O{level}": time_recording(name, level)}
    for key, row in recording.items():
        print(f"{key:8s} sampled recording {row['superblock']['mips']:.2f}M "
              f"instr/s ({row['threaded']['mips']:.2f}M threaded, "
              f"{row['samples']} samples)")

    construction = time_construction()
    print(f"construction {construction['seconds']:.3f} s for "
          f"{construction['binaries']} binaries ({construction['units']} "
          f"units, {construction['lines']} lines, "
          f"{construction['chars']} characters)")

    payload = {
        "benchmark": "sim_throughput",
        "cpu_count": os.cpu_count() or 1,
        "host": host_fingerprint(),
        "engine": "superblock",
        "reps": REPEATS,
        "single_run": single,
        "sampled_recording": recording,
        "construction": construction,
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
