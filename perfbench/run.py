"""Cold-sweep benchmark of the partitioning flow, timed per stage.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload static_suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check        # fast: 3 benchmarks per workload
    python3 perfbench/run.py --self-check --full # every flow of every workload
    python3 perfbench/run.py --record-golden     # rewrite perfbench/golden/*.json

Each sweep runs in a fresh process (``sweep.py``), serially, cold: the
flow cache and trace persistence are off and the in-process trace memo
starts empty.  ``--seconds`` sets how many sweeps a run makes (see
``NOMINAL_SWEEP_S``); each reshuffles the flows.  Times are rescaled to
a reference host speed (``hostspeed.py``); the unscaled wall times are
printed on the line before the result.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` pairs an
untraced sweep with a traced one, requires their outputs to be
identical, and reports the per-layer metrics.  Every flow's outputs are
compared exactly with ``perfbench/golden/<workload>.json``.  The last
line of standard output is the JSON result.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
GOLDEN = HERE / "golden"
OUT = HERE / "out"

WORKLOADS = ("static_suite", "table_grid", "dynamic_suite")
#: the self-check's benchmarks: two that recover and one whose jump
#: tables defeat CDFG recovery (an expected result, pinned in golden)
SELF_CHECK_SUBSET = "brev,crc,tblook"

#: set-up is timed in this many processes that exit once it is done
SETUP_SAMPLES = 7
#: every process this run starts must end before this many seconds
DEADLINE_S = 170.0
#: a sweep's wall time on a 2-core x86 host; ``--seconds`` buys
#: ``seconds // NOMINAL_SWEEP_S`` sweeps (at least one), a fixed amount of
#: work per run however fast the code under test is
NOMINAL_SWEEP_S = {"static_suite": 12.5, "table_grid": 10.0, "dynamic_suite": 7.0}

UNITS = {
    "setup_s": "s", "sweep_s": "s", "flow_p50_s": "s", "flow_p75_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio", "app_speedup_mean": "x",
    "energy_savings_mean": "ratio",
}


def layer_unit(name: str) -> str:
    if name == "sim.minstr_per_s":
        return "Minstr/s"
    if name.endswith(("seconds", "_s")):
        return "s"
    if name.endswith(("unique_ratio", "_frac")):
        return "ratio"
    return "count"


class Runner:
    """Spawns sweep processes against one deadline."""

    def __init__(self, workload: str, seed: int, subset: str = ""):
        self.workload = workload
        self.seed = seed
        self.subset = subset
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("REPRO_OBS", None)
        cache = str(OUT / "cache")
        self.env.update({
            "PYTHONPATH": str(CHECKOUT / "src"),
            "PYTHONHASHSEED": "0",
            "REPRO_CACHE": "off",
            "REPRO_TRACE_PERSIST": "off",
            "REPRO_CACHE_DIR": cache,
            "REPRO_TRACE_CACHE_DIR": cache,
        })

    def sweep(self, trace: int, order: int = 0, setup_only: bool = False) -> dict:
        """One sweep process; *order* picks the flow shuffle of this run."""
        argv = [sys.executable, str(HERE / "sweep.py"), self.workload,
                str(self.seed * 1000 + order), str(trace), self.subset]
        if setup_only:
            argv.append("--setup-only")
        env = dict(self.env, PERFBENCH_T0=repr(time.monotonic()))
        # run() kills the child on timeout and waits for it to end
        done = subprocess.run(
            argv, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - self.started)),
            check=True,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])


def load_golden(workload: str) -> dict:
    with open(GOLDEN / f"{workload}.json") as handle:
        return json.load(handle)["flows"]


def failures(outputs: dict, golden: dict) -> list[str]:
    """Keys of flows that raised or whose outputs differ from golden."""
    return sorted(key for key, record in outputs.items()
                  if golden.get(key) != record)


def end_to_end(workload: str, sweeps: list[dict], setups: list[float],
               failed: int, attempted: int) -> dict:
    # each flow's median latency over this run's sweeps, then quartiles
    # over the flows
    latencies = [
        statistics.median(sweep["latencies"][key] for sweep in sweeps)
        for key in sweeps[0]["latencies"]
    ]
    quartiles = statistics.quantiles(latencies, n=4)
    outputs = sweeps[0]["outputs"]
    field = "dynamic_speedup" if workload == "dynamic_suite" else "app_speedup"
    recovered = [outputs[key] for key in sorted(outputs)
                 if outputs[key].get("recovered")]
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(s["sweep_s"] for s in sweeps),
        "flow_p50_s": quartiles[1],
        "flow_p75_s": quartiles[2],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
        "ok_frac": (attempted - failed) / attempted,
        "app_speedup_mean": statistics.fmean(r[field] for r in recovered),
        "energy_savings_mean": statistics.fmean(
            r["energy_savings"] for r in recovered
        ),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Median over (untraced, traced) pairs of each per-layer metric."""
    rows = []
    for plain, traced in pairs:
        row = dict(traced["layers"])
        # layer self times are wall times, and add up to the wall sweep
        row["traced_sweep_s"] = traced["wall_s"]
        row["trace_overhead_frac"] = traced["sweep_s"] / plain["sweep_s"] - 1
        row["dynamic.repartitions"] = sum(
            record.get("repartitions", 0) for record in traced["outputs"].values()
        )
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def measure(workload: str, seed: int, seconds: float, trace: int,
            subset: str = "") -> dict:
    runner = Runner(workload, seed, subset)
    golden = load_golden(workload)
    problems: list[str] = []
    attempted = failed = 0

    def checked(sweep: dict) -> dict:
        nonlocal attempted, failed
        bad = failures(sweep["outputs"], golden)
        attempted += len(sweep["outputs"])
        failed += len(bad)
        problems.extend(f"golden mismatch: {key}" for key in bad)
        problems.extend(sweep.get("checksum_errors", []))
        return sweep

    nominal = NOMINAL_SWEEP_S[workload]
    if trace:
        pairs = []
        for order in range(max(1, int(seconds // (2 * nominal)))):
            plain = checked(runner.sweep(0, order))
            traced = checked(runner.sweep(1, order))
            if traced["outputs"] != plain["outputs"]:
                problems.append("traced outputs differ from untraced outputs")
            pairs.append((plain, traced))
        metrics = per_layer(pairs)
        units = {name: layer_unit(name) for name in metrics}
    else:
        setups, walls = [], []
        probe = hostspeed.probe()
        for _ in range(SETUP_SAMPLES):
            walls.append(runner.sweep(0, setup_only=True)["setup_s"])
            before, probe = probe, hostspeed.probe()
            setups.append(hostspeed.at_reference(walls[-1], before, probe))
        sweeps = [checked(runner.sweep(0, order))
                  for order in range(max(1, int(seconds // nominal)))]
        print(json.dumps({"wall_setup_s": walls,
                          "wall_sweep_s": [s["wall_s"] for s in sweeps]}))
        metrics = end_to_end(workload, sweeps, setups, failed, attempted)
        units = UNITS
    for problem in problems:
        print(problem, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def record_golden(workloads) -> None:
    """Rewrite the golden records from one untraced sweep per workload."""
    GOLDEN.mkdir(exist_ok=True)
    for workload in workloads:
        outputs = Runner(workload, 0).sweep(0)["outputs"]
        errors = {k: r["error"] for k, r in outputs.items() if "error" in r}
        if errors:
            raise SystemExit(f"{workload}: flows raised: {errors}")
        with open(GOLDEN / f"{workload}.json", "w") as handle:
            json.dump({"workload": workload,
                       "flows": dict(sorted(outputs.items()))},
                      handle, indent=1)
            handle.write("\n")
        print(f"{workload}: {len(outputs)} flows recorded")


def self_check(subset: str) -> bool:
    """Every workload (limited to *subset*, if given) in both modes: every
    declared metric is emitted with its declared unit, and the golden
    comparison passes.  Prints every metric by name and unit."""
    with open(CHECKOUT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    ok = True
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(workload, 1, 0, trace, subset)
            declared = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            good = result["correct"] and emitted == declared
            ok &= good
            print(f"{workload} trace={trace}: {'ok' if good else 'FAIL'} "
                  f"({result['attempted']} flows, {result['failed']} failed)")
            if emitted != declared:
                print(f"  declared {declared}\n  emitted  {emitted}")
            for name, metric in result["metrics"].items():
                print(f"  {name:32} {metric['value']:>14.6g} {metric['unit']}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--full", action="store_true",
                        help="self-check on whole workloads, not a subset")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record_golden:
        record_golden([args.workload] if args.workload else WORKLOADS)
        return 0
    if args.self_check:
        return 0 if self_check("" if args.full else SELF_CHECK_SUBSET) else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
