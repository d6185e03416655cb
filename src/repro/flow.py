"""End-to-end flow: mini-C source -> binary -> profile -> decompile ->
partition -> synthesize -> platform metrics.

This is the top-level API the examples and the experiment harness use.  A
single :func:`run_flow` call reproduces, for one benchmark and one platform,
everything the paper reports: application/kernel speedup, energy savings,
hardware area, and the decompilation recovery statistics.  CDFG recovery
failures (indirect jumps) are caught and reported as software-only results,
exactly how the paper handles its two failing EEMBC benchmarks.

Sweeps (many benchmarks x platforms x opt levels) should go through
:func:`run_flows`, which fans the independent flow runs out over a process
pool -- each run is CPU-bound pure Python, so processes (not threads) are
what actually scales with cores.  It degrades gracefully to in-process
serial execution on single-core boxes or when the host forbids spawning
worker processes.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence, TYPE_CHECKING

from repro import obs, stages

from repro.binary.image import Executable
from repro.compiler.driver import CompilerOptions, compile_source
from repro.decompile.decompiler import (
    DecompilationOptions,
    DecompiledProgram,
    PassStats,
    decompile,
)
from repro.partition.api import partition as run_partition
from repro.partition.estimator import build_candidates
from repro.partition.profiles import ProgramProfile, build_profile
from repro.partition.result import PartitionResult
from repro.platform.metrics import ApplicationMetrics, evaluate_partition
from repro.platform.platform import MIPS_200MHZ, Platform
from repro.sim.cpu import RunResult
from repro.synth.synthesizer import SynthesisOptions

if TYPE_CHECKING:  # only for annotations; repro.dynamic imports this module
    from repro.dynamic.controller import DynamicConfig, DynamicTimeline


@dataclass
class FlowReport:
    """Everything the flow learned about one benchmark on one platform."""

    name: str
    opt_level: int
    platform: Platform
    exe: Executable
    run: RunResult
    recovered: bool
    failure_reason: str = ""
    program: DecompiledProgram | None = None
    profile: ProgramProfile | None = None
    partition: PartitionResult | None = None
    metrics: ApplicationMetrics | None = None
    decompile_stats: PassStats | None = None

    @property
    def app_speedup(self) -> float:
        if self.metrics is None:
            return 1.0
        return self.metrics.app_speedup

    @property
    def kernel_speedup(self) -> float:
        if self.metrics is None:
            return 1.0
        return self.metrics.kernel_speedup

    @property
    def energy_savings(self) -> float:
        if self.metrics is None:
            return 0.0
        return self.metrics.energy_savings

    @property
    def area_gates(self) -> float:
        if self.metrics is None:
            return 0.0
        return self.metrics.area_gates

    def summary_row(self) -> dict:
        return {
            "benchmark": self.name,
            "opt": f"O{self.opt_level}",
            "recovered": self.recovered,
            "sw_cycles": self.run.cycles,
            "kernels": len(self.metrics.kernels) if self.metrics else 0,
            "app_speedup": round(self.app_speedup, 2),
            "kernel_speedup": round(self.kernel_speedup, 1),
            "energy_savings_pct": round(100 * self.energy_savings, 1),
            "area_gates": int(self.area_gates),
        }


def run_flow(
    source: str,
    name: str = "benchmark",
    opt_level: int = 1,
    platform: Platform = MIPS_200MHZ,
    compiler_options: CompilerOptions | None = None,
    decompile_options: DecompilationOptions | None = None,
    synthesis_options: SynthesisOptions | None = None,
    max_steps: int = 200_000_000,
) -> FlowReport:
    """Run the complete flow for one mini-C *source* on *platform*."""
    if compiler_options is None:
        compiler_options = CompilerOptions.from_level(opt_level)
    with obs.span("flow.compile", benchmark=name, opt=compiler_options.opt_level):
        exe = stages.compiled(source, compiler_options, compile_source)
    return run_flow_on_executable(
        exe,
        name=name,
        opt_level=compiler_options.opt_level,
        platform=platform,
        decompile_options=decompile_options,
        synthesis_options=synthesis_options,
        max_steps=max_steps,
    )


@dataclass(frozen=True)
class FlowJob:
    """One unit of sweep work for :func:`run_flows`."""

    source: str
    name: str = "benchmark"
    opt_level: int = 1
    platform: Platform = MIPS_200MHZ
    max_steps: int = 200_000_000


def execute_flow_job(job: FlowJob) -> FlowReport:
    """Run one :class:`FlowJob` to completion (the picklable pool worker
    :func:`run_flows` fans out over)."""
    return run_flow(
        job.source,
        job.name,
        opt_level=job.opt_level,
        platform=job.platform,
        max_steps=job.max_steps,
    )


class _JobFailure(Exception):
    """Wraps an exception raised inside a worker process, so the parent can
    tell job errors apart from pool-infrastructure errors (only the latter
    warrant falling back to serial execution)."""

    def __init__(self, cause: BaseException):
        super().__init__(cause)
        self.cause = cause


@dataclass(frozen=True)
class PoolFallback:
    """One pool -> serial degradation, with the cause that used to vanish."""

    cause: str       # exception class name (e.g. "BrokenProcessPool")
    message: str
    jobs: int        # how many jobs silently went serial


#: every pool fallback this process has taken, oldest first; sweeps that
#: quietly went serial used to be indistinguishable from parallel ones
_POOL_FALLBACKS: list[PoolFallback] = []


def pool_fallbacks() -> tuple[PoolFallback, ...]:
    return tuple(_POOL_FALLBACKS)


def clear_pool_fallbacks() -> None:
    _POOL_FALLBACKS.clear()


@dataclass
class _WorkerPayload:
    """A job result plus the worker's telemetry delta, shipped back through
    the pool's ordinary (pickled) result plumbing."""

    result: object
    metrics: dict
    events: list


def _guarded(worker: Callable, pool_t0: float, item):
    telemetry = obs.metrics_enabled() or obs.tracing_enabled()
    if telemetry:
        # forked workers inherit the parent's registry/buffer; ship only
        # this job's own delta (time.monotonic is system-wide on Linux, so
        # queue wait measured against the parent's pool_t0 is meaningful)
        obs.reset_worker_state()
        started = time.monotonic()
    try:
        result = worker(item)
    except Exception as exc:
        raise _JobFailure(exc) from exc
    if not telemetry:
        return result
    obs.histogram("pool.queue_wait_seconds").observe(
        max(0.0, started - pool_t0)
    )
    obs.histogram("pool.job_seconds").observe(time.monotonic() - started)
    obs.counter("pool.jobs_total").inc()
    return _WorkerPayload(result, obs.snapshot(), obs.take_trace_events())


def _absorb(results: list) -> list:
    """Unwrap worker payloads, folding their telemetry into this process."""
    out = []
    for item in results:
        if isinstance(item, _WorkerPayload):
            obs.merge_snapshot(item.metrics)
            obs.extend_trace(item.events)
            out.append(item.result)
        else:
            out.append(item)
    return out


def _run_serial(worker: Callable, item_list: list) -> list:
    if not obs.metrics_enabled():
        return [worker(item) for item in item_list]
    jobs_total = obs.counter("pool.jobs_total")
    job_seconds = obs.histogram("pool.job_seconds")
    results = []
    for item in item_list:
        started = time.monotonic()
        results.append(worker(item))
        job_seconds.observe(time.monotonic() - started)
        jobs_total.inc()
    return results


def _record_fallback(cause: str, message: str, jobs: int) -> None:
    """Record one pool -> serial degradation; takes only plain strings so
    the except handler that calls it keeps no exception reference."""
    _POOL_FALLBACKS.append(PoolFallback(cause=cause, message=message, jobs=jobs))
    obs.counter("pool.serial_fallback_total").inc()
    obs.instant("pool.serial_fallback", cause=cause, message=message, jobs=jobs)


def run_jobs(
    worker: Callable, items: Iterable, max_workers: int | None = None
) -> list:
    """Map a picklable *worker* over *items* through a process pool.

    The generic engine behind :func:`run_flows` (and the dynamic-sweep
    runner in :mod:`repro.dynamic.flow`): results come back in item order,
    *max_workers* defaults to the CPU count, ``1`` forces in-process serial
    execution, and pool-infrastructure failures (sandboxed hosts refusing
    worker processes, workers dying from the outside) degrade gracefully to
    a serial retry while genuine job errors propagate unchanged.  Workers
    must be deterministic so the parallel and serial paths are drop-ins for
    each other.

    Fallbacks are no longer silent: each one is recorded as a
    :class:`PoolFallback` (see :func:`pool_fallbacks`) and counted on
    ``pool.serial_fallback_total``.  With telemetry enabled, workers ship
    their per-job registry deltas and trace events back inside the results
    and they are merged into this process's registry here.
    """
    item_list = list(items)
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    max_workers = min(max_workers, len(item_list))
    if max_workers <= 1:
        return _run_serial(worker, item_list)
    if obs.metrics_enabled() or obs.tracing_enabled():
        # spawn-start workers re-import repro; the env flag makes them come
        # up with telemetry on (forked workers inherit it either way)
        os.environ.setdefault(obs.ENABLE_ENV, "1")
    pool_t0 = time.monotonic()
    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            # consume inside the `with` block: results stream back as
            # workers finish, and a pool that breaks mid-iteration is
            # caught here rather than surfacing from __exit__
            results = list(pool.map(
                partial(_guarded, worker, pool_t0), item_list
            ))
        return _absorb(results)
    except _JobFailure as failure:
        # re-raise the job's own exception; keep concurrent.futures'
        # _RemoteTraceback chained so the worker-side frames stay visible
        raise failure.cause from failure.__cause__
    except (OSError, BrokenExecutor) as exc:
        # OSError: sandboxed/odd hosts that refuse worker processes or
        # semaphores.  BrokenExecutor/BrokenProcessPool: a worker died from
        # the *outside* (OOM kill, container signal) -- that is pool
        # infrastructure failing, not the job itself, so retry serially.
        # The retry runs *outside* this handler (below): the broken pool
        # has fully torn down (the `with` block joined its remains before
        # the except body ran), the handler keeps no reference to the
        # in-flight exception (_record_fallback extracts plain strings),
        # and on single-core hosts the serial pass -- which can take
        # minutes for a big sweep -- is not racing half-dead worker
        # processes for CPU, which made this path timing-sensitive.
        _record_fallback(type(exc).__name__, str(exc), len(item_list))
    return _run_serial(worker, item_list)


def run_flows(
    jobs: Iterable[FlowJob],
    max_workers: int | None = None,
    cache: bool | None = None,
) -> list[FlowReport]:
    """Run many independent flows, in parallel when the host allows it.

    Reports come back in job order.  *max_workers* defaults to the CPU
    count; pass ``1`` to force serial in-process execution (useful under
    debuggers and in tests).  Flow runs are deterministic, so the parallel
    and serial paths produce identical reports.

    Completed reports are memoised on disk keyed by (source hash, opt
    level, platform) -- see :mod:`repro.flow_cache` -- so repeated sweeps
    skip recomputation across sessions.  *cache* forces the disk cache on
    or off; ``None`` defers to the environment (``REPRO_CACHE=off``
    disables it, ``REPRO_CACHE_DIR`` relocates it).
    """
    from repro import flow_cache

    job_list: Sequence[FlowJob] = list(jobs)
    use_cache = flow_cache.cache_enabled() if cache is None else cache

    if not use_cache:
        return _run_flows_uncached(job_list, max_workers)

    reports: list[FlowReport | None] = [flow_cache.load_report(job) for job in job_list]
    missing = [index for index, report in enumerate(reports) if report is None]
    if missing:
        fresh = _run_flows_uncached([job_list[i] for i in missing], max_workers)
        for index, report in zip(missing, fresh):
            reports[index] = report
            flow_cache.store_report(job_list[index], report)
    return reports


def _run_flows_uncached(
    job_list: Sequence[FlowJob], max_workers: int | None
) -> list[FlowReport]:
    return run_jobs(execute_flow_job, job_list, max_workers)


def run_flow_on_executable(
    exe: Executable,
    name: str = "benchmark",
    opt_level: int = 1,
    platform: Platform = MIPS_200MHZ,
    decompile_options: DecompilationOptions | None = None,
    synthesis_options: SynthesisOptions | None = None,
    max_steps: int = 200_000_000,
    run: RunResult | None = None,
    devices=None,
    partition_passes=None,
) -> FlowReport:
    """Flow starting from an already-built binary (the paper's actual input).

    Pass *run* to reuse an existing profiled simulation of *exe* (it must
    have been produced with ``profile=True`` and this platform's CPI model);
    the dynamic flow uses this to evaluate static and dynamic partitioning
    from one simulation.  Otherwise the profiled run, like the decompiled
    program and the synthesized kernels, comes from the stage memo
    (:mod:`repro.stages`), so platforms that share a binary share them.

    *devices* (a :class:`~repro.platform.devices.DeviceSpec` sequence) and
    *partition_passes* (a pass list or algorithm name) select the
    partitioning pipeline; the defaults reproduce the paper's flow -- the
    90-10 heuristic over ``platform.devices`` (the CPU + one fabric).
    """
    if run is None:
        with obs.span("flow.simulate", benchmark=name):
            run = stages.profiled_run(exe, platform.cpi, max_steps)

    with obs.span("flow.decompile", benchmark=name):
        program = stages.decompiled(exe, decompile_options, decompile)
    if program.failures:
        reasons = "; ".join(
            f"{f.function}@{f.address:#x}: {f.reason}" for f in program.failures
        )
        return FlowReport(
            name=name,
            opt_level=opt_level,
            platform=platform,
            exe=exe,
            run=run,
            recovered=False,
            failure_reason=reasons,
            program=program,
        )

    profile = build_profile(exe, program, run, platform.cpi)
    synthesis = synthesis_options or SynthesisOptions(device=platform.device)
    with obs.span("flow.partition", benchmark=name):
        candidates = build_candidates(
            exe, program, profile, platform, synthesis,
            decompile_options=decompile_options,
        )
        outcome = run_partition(
            candidates,
            devices,
            platform=platform,
            total_cycles=profile.total_cycles,
            passes=partition_passes,
        )
        partition = outcome.result
    metrics = evaluate_partition(
        platform, profile.total_cycles, partition.selected, partition.step_of
    )
    return FlowReport(
        name=name,
        opt_level=opt_level,
        platform=platform,
        exe=exe,
        run=run,
        recovered=True,
        program=program,
        profile=profile,
        partition=partition,
        metrics=metrics,
        decompile_stats=program.total_stats(),
    )


@dataclass
class DynamicFlowReport:
    """Static (design-time) vs dynamic (run-time) partitioning of one run.

    ``static`` is the ordinary :class:`FlowReport` -- the paper's flow with
    oracle whole-run profile data.  ``timeline`` is what the warp-style
    online system achieved on the same simulation: per-interval wall clock
    and energy under the evolving hardware configuration, plus every
    re-partition decision and its CAD/reconfiguration cost.
    """

    name: str
    platform: Platform
    static: FlowReport
    timeline: DynamicTimeline
    config: DynamicConfig

    @property
    def recovered(self) -> bool:
        return self.static.recovered

    @property
    def static_speedup(self) -> float:
        return self.static.app_speedup

    @property
    def dynamic_speedup(self) -> float:
        """Whole-run speedup, warm-up and overheads included."""
        return self.timeline.speedup

    @property
    def warm_speedup(self) -> float:
        """Steady-state speedup after profiling warmed up."""
        return self.timeline.warm_speedup

    @property
    def warm_gap(self) -> float:
        """Relative shortfall of the warm dynamic speedup vs the static
        partition (0.0 when dynamic matches or beats static)."""
        static = self.static_speedup
        if static <= 0:
            return 0.0
        return max(0.0, (static - self.warm_speedup) / static)

    @property
    def energy_savings(self) -> float:
        return self.timeline.energy_savings

    @property
    def overhead_seconds(self) -> float:
        return self.timeline.overhead_seconds

    def summary_row(self) -> dict:
        return {
            "benchmark": self.name,
            "recovered": self.recovered,
            "static_speedup": round(self.static_speedup, 2),
            "dynamic_speedup": round(self.dynamic_speedup, 2),
            "warm_speedup": round(self.warm_speedup, 2),
            "warm_gap_pct": round(100 * self.warm_gap, 1),
            "dyn_energy_savings_pct": round(100 * self.energy_savings, 1),
            "kernels": len(self.timeline.final_resident),
            "repartitions": len(self.timeline.events),
        }
