"""Command-line interface: the platform vendor's partitioning tool.

The paper's deployment story is a back-end tool that operates on the final
software binary, after any compiler.  This CLI is that tool:

    # compile a mini-C file to a binary (the "software side")
    python -m repro compile kernel.c -O1 -o kernel.sxe

    # run the binary on the simulated MIPS
    python -m repro run kernel.sxe

    # partition the binary onto the hypothetical MIPS/Virtex-II platform
    python -m repro partition kernel.sxe --cpu-mhz 200

    # inspect what the decompiler recovers
    python -m repro decompile kernel.sxe --function main

    # dump synthesized VHDL for the hottest loop
    python -m repro vhdl kernel.sxe -o kernel.vhd

    # sweep the built-in benchmark suite across platforms, in parallel
    python -m repro sweep --cpu-mhz 40 200 400

    # online (warp-style) partitioning: static vs dynamic, hard + soft cores
    python -m repro dynamic
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from repro import obs
from repro.binary.image import Executable
from repro.compiler.driver import CompilerOptions, compile_source
from repro.decompile.decompiler import DecompilationOptions, decompile
from repro.decompile.structure import render_pseudocode
from repro.errors import ReproError
from repro.flow import (
    FlowJob,
    pool_fallbacks,
    run_flow_on_executable,
    run_flows,
)
from repro.platform.platform import NAMED_PLATFORMS, Platform
from repro.sim.cpu import run_executable
from repro.synth.fpga import VIRTEX2_DEVICES
from repro.synth.synthesizer import Synthesizer


def _load(path: str) -> Executable:
    return Executable.from_bytes(Path(path).read_bytes())


def cmd_compile(args) -> int:
    source = Path(args.source).read_text()
    options = CompilerOptions.from_level(args.opt_level)
    exe = compile_source(source, options)
    out = args.output or (Path(args.source).stem + ".sxe")
    Path(out).write_bytes(exe.to_bytes())
    print(f"{out}: {len(exe.text_words)} instructions, "
          f"{len(exe.data)} data bytes, entry {exe.entry:#x} (-O{args.opt_level})")
    return 0


def cmd_run(args) -> int:
    exe = _load(args.binary)
    cpu, result = run_executable(exe, profile=args.profile, engine=args.engine)
    print(f"halted: {result.halted}  instructions: {result.steps:,}  "
          f"cycles: {result.cycles:,}  CPI: {result.cpi:.2f}")
    if args.read:
        for symbol in args.read:
            print(f"  {symbol} = {cpu.read_word_global_signed(symbol)}")
    return 0


def cmd_decompile(args) -> int:
    exe = _load(args.binary)
    options = DecompilationOptions(recover_jump_tables=args.jump_tables)
    program = decompile(exe, options)
    for failure in program.failures:
        print(f"RECOVERY FAILED: {failure.function} @ {failure.address:#x}: "
              f"{failure.reason}")
    names = [args.function] if args.function else sorted(program.functions)
    for name in names:
        func = program.functions.get(name)
        if func is None:
            print(f"(function {name!r} not recovered)")
            continue
        print(render_pseudocode(func.cfg, func.structure))
        print()
    stats = program.total_stats()
    print(f"ops: {stats.lifted_ops} lifted -> {stats.final_ops} recovered; "
          f"{stats.moves_recovered} moves, {stats.stack_ops_removed} stack ops, "
          f"{stats.muls_promoted} muls promoted, {stats.loops_rerolled} loops rerolled")
    return 0 if program.recovered else 1


def _parse_devices(tokens, platform):
    """``KIND:GATES[@MHZ]`` tokens -> a DeviceSpec list (CPU implied).

    Examples: ``fabric:60000``, ``fabric:40000@210``, ``cgra:30000@150``.
    """
    from repro.platform.devices import cgra_device, cpu_device, fabric_device

    makers = {"fabric": fabric_device, "cgra": cgra_device}
    devices = [cpu_device(platform.cpu_clock_mhz)]
    index = {"fabric": 0, "cgra": 0}
    for token in tokens:
        kind, _, rest = token.partition(":")
        if kind not in makers or not rest:
            raise SystemExit(
                f"bad device spec {token!r}: expected KIND:GATES[@MHZ] with "
                f"KIND in {sorted(makers)}"
            )
        gates_s, _, clock_s = rest.partition("@")
        try:
            gates = float(gates_s)
            clock = float(clock_s) if clock_s else None
        except ValueError:
            raise SystemExit(f"bad device spec {token!r}: non-numeric field")
        for value in (gates, clock):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise SystemExit(
                    f"bad device spec {token!r}: gates and MHz must be "
                    "finite and positive"
                )
        if kind == "fabric":
            device = fabric_device(
                index[kind], gates, clock or platform.device.max_clock_mhz,
                platform.device.bram_bytes,
            )
        else:
            device = cgra_device(index[kind], gates, *(
                [clock] if clock is not None else []
            ))
        index[kind] += 1
        devices.append(device)
    return tuple(devices)


def _parse_passes(spec, algorithm):
    """A ``--passes`` list like ``filter,place,legalize,report``
    (``place`` resolves to --algorithm's placement pass)."""
    from repro.partition.api import default_passes, make_placement
    from repro.partition.passes import FilterPass, LegalizePass, ReportPass

    if not spec:
        return default_passes(algorithm)
    known = {
        "filter": FilterPass,
        "place": lambda: make_placement(algorithm),
        "legalize": LegalizePass,
        "report": ReportPass,
    }
    passes = []
    for name in spec.split(","):
        name = name.strip()
        if name not in known:
            raise SystemExit(
                f"unknown pass {name!r} (known: {sorted(known)})"
            )
        passes.append(known[name]())
    return passes


def cmd_partition(args) -> int:
    exe = _load(args.binary)
    platform = Platform(
        name=f"MIPS-{args.cpu_mhz:.0f}MHz + {args.device}",
        cpu_clock_mhz=args.cpu_mhz,
        device=VIRTEX2_DEVICES[args.device],
    )
    options = DecompilationOptions(recover_jump_tables=args.jump_tables)
    devices = _parse_devices(args.devices, platform) if args.devices else None
    passes = _parse_passes(args.passes, args.algorithm)
    report = run_flow_on_executable(
        exe, Path(args.binary).stem, platform=platform,
        decompile_options=options, devices=devices, partition_passes=passes,
    )
    if not report.recovered:
        print(f"CDFG recovery failed ({report.failure_reason}); "
              "software-only implementation")
        return 1
    partition = report.partition
    print(f"platform            : {platform.name}")
    if devices is not None:
        specs = ", ".join(
            f"{d.name} ({d.capacity_gates:,.0f} gates @ {d.clock_mhz:.0f} MHz)"
            for d in devices if not d.is_cpu
        )
        print(f"devices             : cpu + {specs}")
    print(f"algorithm           : {partition.algorithm}")
    print(f"software cycles     : {report.run.cycles:,}")
    for kernel in report.metrics.kernels:
        where = partition.placements.get(kernel.name, "fabric0")
        print(f"  step {kernel.partition_step}: {kernel.name:32s} "
              f"{kernel.speedup:6.1f}x  {kernel.area_gates:9,.0f} gates  "
              f"{'BRAM' if kernel.localized else 'bus':4s} -> {where}")
    print(f"application speedup : {report.app_speedup:.2f}x")
    print(f"kernel speedup      : {report.kernel_speedup:.1f}x")
    print(f"energy savings      : {100 * report.energy_savings:.1f}%")
    print(f"area                : {partition.area_used:,.0f} / "
          f"{partition.area_budget:,.0f} gates")
    if partition.pass_seconds:
        timing = "  ".join(
            f"{name} {seconds * 1e3:.2f}ms"
            for name, seconds in partition.pass_seconds.items()
        )
        print(f"pipeline            : {timing}")
    return 0


def cmd_vhdl(args) -> int:
    exe = _load(args.binary)
    options = DecompilationOptions(recover_jump_tables=args.jump_tables)
    program = decompile(exe, options)
    if not program.recovered:
        print("CDFG recovery failed; no hardware to emit", file=sys.stderr)
        return 1
    # hottest loop by static op count of the innermost loops
    best = None
    for func in program.functions.values():
        for loop in func.loops:
            size = sum(len(func.cfg.blocks[i].ops) for i in loop.body)
            if best is None or loop.depth > best[1].depth or (
                loop.depth == best[1].depth and size > best[3]
            ):
                best = (func, loop, func.name, size)
    if best is None:
        print("no loops found", file=sys.stderr)
        return 1
    func, loop, _, _ = best
    kernel = Synthesizer().synthesize_loop(func, loop, exe)
    out = args.output or (Path(args.binary).stem + ".vhd")
    Path(out).write_text(kernel.vhdl)
    print(f"{out}: {kernel.name} -- {kernel.area_gates:,.0f} gates, "
          f"{kernel.clock_mhz:.0f} MHz, II={kernel.ii}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number greater than 0 (a clock frequency)."""
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {value}")
    return value


def _fabric_share(text: str) -> float:
    """argparse type: a share of the fabric in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _dynamic_config(args):
    from repro.dynamic.controller import DynamicConfig

    return DynamicConfig(
        sample_interval=args.interval,
        repartition_samples=args.repartition_samples,
        concurrent_cad=args.concurrent_cad,
        cad_latency_samples=args.cad_latency,
        max_fabric_share=args.max_share,
        adaptive_sampling=args.adaptive,
    )


def _dynamic_platforms(args):
    platforms = [NAMED_PLATFORMS[name] for name in args.platform]
    if args.regions:
        platforms = [platform.with_regions(args.regions) for platform in platforms]
    return platforms


def _print_dynamic_rows(rows):
    header = (f"  {'benchmark':10s} {'static':>7s} {'dynamic':>8s} "
              f"{'warm':>7s} {'gap %':>6s} {'energy %':>9s} "
              f"{'kernels':>7s} {'events':>6s}")
    print(header)
    print("  " + "-" * (len(header) - 2))
    for report in rows:
        print(f"  {report.name:10s} {report.static_speedup:7.2f} "
              f"{report.dynamic_speedup:8.2f} {report.warm_speedup:7.2f} "
              f"{100 * report.warm_gap:6.1f} {100 * report.energy_savings:9.1f} "
              f"{len(report.timeline.final_resident):7d} "
              f"{len(report.timeline.events):6d}")
    ok = [r for r in rows if r.recovered]
    if ok:
        print(f"  {'AVERAGE':10s} "
              f"{sum(r.static_speedup for r in ok) / len(ok):7.2f} "
              f"{sum(r.dynamic_speedup for r in ok) / len(ok):8.2f} "
              f"{sum(r.warm_speedup for r in ok) / len(ok):7.2f} "
              f"{100 * sum(r.warm_gap for r in ok) / len(ok):6.1f} "
              f"{100 * sum(r.energy_savings for r in ok) / len(ok):9.1f}")


def cmd_dynamic(args) -> int:
    from repro.dynamic.flow import DynamicFlowJob, run_dynamic_flows
    from repro.dynamic.multi import AppSpec, MultiAppJob, run_multi_app_flows
    from repro.programs import ALL_BENCHMARKS, get_benchmark

    config = _dynamic_config(args)
    platforms = _dynamic_platforms(args)
    max_workers = 1 if args.serial else args.jobs
    scenario = (f"-O{args.opt_level}, sample every {config.sample_interval} "
                f"instrs, CAD {'concurrent' if config.concurrent_cad else 'inline'}"
                + (f", {args.regions} PR regions" if args.regions else ""))

    if args.apps:
        # multi-application mode: the named benchmarks time-share one fabric
        specs = tuple(
            AppSpec(get_benchmark(name).source, name, opt_level=args.opt_level)
            for name in args.apps
        )
        jobs = [MultiAppJob(apps=specs, platform=platform, config=config)
                for platform in platforms]
        results = run_multi_app_flows(jobs, max_workers=max_workers)
        for platform, result in zip(platforms, results):
            print(f"===== {platform.name} ({scenario}; "
                  f"{len(specs)} apps sharing one fabric) =====")
            _print_dynamic_rows(result.reports)
            print(f"  peak fabric use: {result.peak_area_gates:,.0f} gates"
                  + (f", {result.peak_regions} regions" if args.regions else ""))
        _extend_modeled_trace(args, config,
                              [r for res in results for r in res.reports])
        _print_pool_notes()
        return 0

    if args.benchmarks:
        benches = [get_benchmark(name) for name in args.benchmarks]
    else:
        benches = list(ALL_BENCHMARKS)
    jobs = [
        DynamicFlowJob(source=bench.source, name=bench.name,
                       opt_level=args.opt_level, platform=platform,
                       config=config)
        for platform in platforms
        for bench in benches
    ]
    reports = run_dynamic_flows(jobs, max_workers=max_workers)
    all_reports = reports
    worst_gap = 0.0
    for platform in platforms:
        chunk, reports = reports[: len(benches)], reports[len(benches):]
        print(f"===== {platform.name} ({scenario}) =====")
        _print_dynamic_rows(chunk)
        worst_gap = max([worst_gap] + [r.warm_gap for r in chunk])
    print(f"worst warm gap vs static partition: {100 * worst_gap:.1f}%")
    _extend_modeled_trace(args, config, all_reports)
    _print_pool_notes()
    return 0


def _extend_modeled_trace(args, config, reports) -> None:
    """Append each timeline's modeled-time events to the trace buffer, so
    the ``--trace-out`` file shows what the dynamic system *modeled* (on
    its own clock) next to what the tool *did* (on wall clock)."""
    if not getattr(args, "trace_out", None):
        return
    latency = config.cad_latency_samples if config.concurrent_cad else 0
    for report in reports:
        obs.extend_trace(obs.timeline_trace_events(
            report.name, report.timeline,
            cad_latency_samples=latency,
            pid=f"modeled: {report.platform.name}",
        ))


def _print_pool_notes() -> None:
    """Surface serial fallbacks: a sweep that quietly ran on one core is a
    perf mystery the user should not have to debug from timings."""
    for fallback in pool_fallbacks():
        print(f"  NOTE: process pool unavailable ({fallback.cause}: "
              f"{fallback.message}); {fallback.jobs} jobs ran serially")


def cmd_stats(args) -> int:
    payload = obs.load_stats(args.file)
    if payload is None:
        where = args.file or obs.stats_path()
        print(f"no saved telemetry at {where} "
              "(run a command with --metrics first)", file=sys.stderr)
        return 1
    print(obs.format_stats(payload))
    return 0


def cmd_sweep(args) -> int:
    from repro.programs import ALL_BENCHMARKS, get_benchmark

    if args.benchmarks:
        benches = [get_benchmark(name) for name in args.benchmarks]
    else:
        benches = list(ALL_BENCHMARKS)
    device = VIRTEX2_DEVICES[args.device]
    platforms = [
        Platform(name=f"MIPS-{mhz:.0f}MHz + {args.device}",
                 cpu_clock_mhz=mhz, device=device)
        for mhz in args.cpu_mhz
    ]
    jobs = [
        FlowJob(source=bench.source, name=bench.name,
                opt_level=args.opt_level, platform=platform)
        for platform in platforms
        for bench in benches
    ]
    reports = run_flows(
        jobs,
        max_workers=1 if args.serial else args.jobs,
        cache=False if args.no_cache else None,
    )
    failed = 0
    for platform in platforms:
        print(f"===== {platform.name} (-O{args.opt_level}) =====")
        chunk, reports = reports[: len(benches)], reports[len(benches):]
        for report in chunk:
            if report.recovered:
                print(f"  {report.name:10s} speedup {report.app_speedup:6.2f}x  "
                      f"kernel {report.kernel_speedup:6.1f}x  "
                      f"energy {100 * report.energy_savings:5.1f}%  "
                      f"{report.area_gates:8,.0f} gates")
            else:
                failed += 1
                print(f"  {report.name:10s} RECOVERY FAILED "
                      f"({report.failure_reason})")
        ok = [r for r in chunk if r.recovered]
        if ok:
            print(f"  {'AVERAGE':10s} speedup "
                  f"{sum(r.app_speedup for r in ok) / len(ok):6.2f}x  "
                  f"energy {100 * sum(r.energy_savings for r in ok) / len(ok):5.1f}%  "
                  f"({len(ok)}/{len(chunk)} recovered)")
    _print_pool_notes()
    return 1 if failed == len(jobs) else 0


def _add_telemetry_flags(p) -> None:
    p.add_argument("--metrics", action="store_true",
                   help="record telemetry metrics (engine/cache/pool/... "
                        "counters); the merged registry is saved for "
                        "`python -m repro stats`")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write a Chrome trace_event JSON of the run "
                        "(load in chrome://tracing or ui.perfetto.dev)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="decompilation-based binary-level HW/SW partitioning "
                    "(Stitt & Vahid, DATE'05 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile mini-C to a MIPS binary (.sxe)")
    p.add_argument("source")
    p.add_argument("-O", dest="opt_level", type=int, default=1, choices=[0, 1, 2, 3])
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="execute a binary on the cycle simulator")
    p.add_argument("binary")
    p.add_argument("--profile", action="store_true")
    p.add_argument("--engine", default="superblock",
                   choices=["superblock", "threaded"],
                   help="dispatch engine (superblock is ~2-3x faster; "
                        "both are differentially tested against the "
                        "reference interpreter)")
    p.add_argument("--read", nargs="*", help="data symbols to print after the run")
    _add_telemetry_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("decompile", help="show the recovered CDFG")
    p.add_argument("binary")
    p.add_argument("--function")
    p.add_argument("--jump-tables", action="store_true",
                   help="enable the jump-table recovery extension")
    p.set_defaults(fn=cmd_decompile)

    p = sub.add_parser("partition", help="partition a binary onto the platform")
    p.add_argument("binary")
    p.add_argument("--cpu-mhz", type=_positive_float, default=200.0)
    p.add_argument("--device", default="xc2v250", choices=sorted(VIRTEX2_DEVICES))
    p.add_argument("--jump-tables", action="store_true")
    p.add_argument("--algorithm", default="90-10",
                   choices=["90-10", "greedy", "gclp", "annealing",
                            "exhaustive"],
                   help="placement pass for the partitioning pipeline")
    p.add_argument("--devices", nargs="+", metavar="KIND:GATES[@MHZ]",
                   help="explicit device list beyond the CPU, e.g. "
                        "'fabric:40000 fabric:40000 cgra:30000@150' "
                        "(default: one monolithic fabric)")
    p.add_argument("--passes", metavar="NAME[,NAME...]",
                   help="ordered pipeline passes (default: "
                        "filter,place,legalize,report)")
    _add_telemetry_flags(p)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("vhdl", help="emit RT-level VHDL for the hottest loop")
    p.add_argument("binary")
    p.add_argument("-o", "--output")
    p.add_argument("--jump-tables", action="store_true")
    p.set_defaults(fn=cmd_vhdl)

    p = sub.add_parser("sweep", help="run the benchmark suite across platforms "
                                     "using all cores")
    p.add_argument("benchmarks", nargs="*",
                   help="benchmark names (default: the full 20-benchmark suite)")
    p.add_argument("--cpu-mhz", type=_positive_float, nargs="+",
                   default=[200.0])
    p.add_argument("-O", dest="opt_level", type=int, default=1, choices=[0, 1, 2, 3])
    p.add_argument("--device", default="xc2v250", choices=sorted(VIRTEX2_DEVICES))
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: CPU count)")
    p.add_argument("--serial", action="store_true",
                   help="disable the process pool")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk flow-report cache")
    _add_telemetry_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("dynamic",
                       help="online (warp-style) partitioning: static vs "
                            "dynamic across hard- and soft-core platforms")
    p.add_argument("benchmarks", nargs="*",
                   help="benchmark names (default: the full 20-benchmark suite)")
    p.add_argument("--platform", nargs="+", default=["mips200", "softcore85"],
                   choices=sorted(NAMED_PLATFORMS),
                   help="platforms to evaluate (default: mips200 softcore85)")
    p.add_argument("-O", dest="opt_level", type=int, default=1, choices=[0, 1, 2, 3])
    p.add_argument("--interval", type=_positive_int, default=4_000,
                   help="instructions between profiler samples")
    p.add_argument("--repartition-samples", type=_positive_int, default=2,
                   help="profiler samples between re-partition decisions")
    p.add_argument("--concurrent-cad", action="store_true",
                   help="model a CAD co-processor: lift results arrive "
                        "--cad-latency samples after the decision and CAD "
                        "cycles are never billed to application time")
    p.add_argument("--cad-latency", type=_positive_int, default=2,
                   help="sampling intervals between a re-partition decision "
                        "and its kernels arriving (with --concurrent-cad)")
    p.add_argument("--regions", type=_non_negative_int, default=0,
                   help="split the fabric into N partial-reconfiguration "
                        "regions; reconfiguration is charged per changed "
                        "region instead of per kernel (0 = monolithic)")
    p.add_argument("--adaptive", action="store_true",
                   help="phase-adaptive sampling: coarsen the sample "
                        "interval once placement is stable")
    p.add_argument("--max-share", type=_fabric_share, default=1.0,
                   help="cap on one application's share of the fabric "
                        "(multi-application arbitration, 0 < share <= 1)")
    p.add_argument("--apps", nargs="+", metavar="BENCH",
                   help="multi-application mode: these benchmarks time-share "
                        "one fabric per platform (positional benchmark "
                        "arguments are ignored)")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes for the sweep (default: CPU count)")
    p.add_argument("--serial", action="store_true",
                   help="disable the process pool")
    _add_telemetry_flags(p)
    p.set_defaults(fn=cmd_dynamic)

    p = sub.add_parser("stats", help="pretty-print the telemetry registry "
                                     "saved by the last --metrics run")
    p.add_argument("--file", help="stats JSON to read (default: "
                                  "<obs dir>/last_stats.json)")
    p.set_defaults(fn=cmd_stats)

    args = parser.parse_args(argv)
    want_metrics = getattr(args, "metrics", False)
    trace_out = getattr(args, "trace_out", None)
    if want_metrics or trace_out:
        # workers of a forthcoming process pool inherit the environment,
        # so their flows record telemetry too (shipped back and merged by
        # run_jobs)
        os.environ[obs.ENABLE_ENV] = "1"
        obs.enable(metrics=want_metrics, tracing=bool(trace_out))
    try:
        rc = args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command != "stats" and obs.metrics_enabled():
        saved = obs.save_stats(obs.snapshot())
        if saved is not None:
            print(f"telemetry: metrics saved to {saved} "
                  "(view with `python -m repro stats`)")
    if trace_out:
        path = obs.export_chrome(trace_out)
        print(f"telemetry: trace written to {path} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
