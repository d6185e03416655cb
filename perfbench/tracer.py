"""Per-layer tracing from outside the program.

:func:`install` rebinds the public entry points of each layer -- module
globals and class attributes, in this process only -- to wrappers that
record a span per call.  Spans stay in memory; a span's self time is its
duration minus the time its child spans cover, and self times are summed
per layer.  Counts and content keys (for ``unique_ratio``) are taken from
the calls' arguments and results after each span has closed, so hashing
never lands inside a layer's time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import defaultdict

import repro.dynamic.controller
import repro.dynamic.flow
import repro.flow
from repro.decompile.decompiler import DecompilationOptions
from repro.dynamic.controller import DynamicPartitionController
from repro.programs import ALL_BENCHMARKS
from repro.sim.cpu import Cpu
from repro.synth.synthesizer import Synthesizer

#: the layer names whose self times are reported, in report order
SECONDS_LAYERS = {
    "compiler.seconds": "compiler",
    "sim.construct_seconds": "sim.construct",
    "sim.run_seconds": "sim.run",
    "decompile.seconds": "decompile",
    "partition.profiles.seconds": "partition.profiles",
    "synth.seconds": "synth",
    "partition.seconds": "partition",
    "platform.seconds": "platform",
    "dynamic.on_sample_seconds": "dynamic.on_sample",
    "dynamic.cad_decompile_seconds": "dynamic.cad_decompile",
    "dynamic.cad_synth_seconds": "dynamic.cad_synth",
}


def _digest(*parts: bytes | str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else part)
        digest.update(b"\x1f")
    return digest.hexdigest()


class Tracer:
    """Spans, self times, counts and content keys of one traced sweep."""

    def __init__(self):
        self.flow = ""                    # key of the flow being run
        self.spans: list[tuple] = []      # (layer, flow, start, end)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, list[str]] = defaultdict(list)
        self.checksum_errors: list[str] = []
        self._stack: list[list] = []      # [layer, start, child seconds]
        self._restore: list[tuple] = []
        #: source -> (checksum symbol, value of the reference model)
        self._expected = {
            b.source: (b.checksum_symbol, b.expected_checksum())
            for b in ALL_BENCHMARKS
        }
        #: executable digest -> the same, for the simulator's runs
        self._checksum_of: dict[str, tuple[str, int]] = {}

    # -- spans ---------------------------------------------------------------

    def _inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    def span(self, layer: str, call):
        """Run ``call()`` inside a span of *layer*; return its result."""
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.self_seconds[layer] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            self.spans.append((layer, self.flow, frame[1], end))

    def _wrap(self, owner, attr: str, layer, after=None) -> None:
        """Rebind ``owner.attr`` to a spanned wrapper.  *layer* is a name or
        a function of the tracer choosing one; *after* sees
        ``(args, kwargs, result)`` once the span has closed."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(self)
            result = self.span(name, lambda: original(*args, **kwargs))
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- per-layer bookkeeping -----------------------------------------------

    def _compiled(self, args, kwargs, exe) -> None:
        source = args[0]
        options = args[1] if len(args) > 1 else kwargs.get("options")
        self.counts["compiler.calls"] += 1
        self.counts["compiler.text_words"] += len(exe.text_words)
        self.keys["compiler"].append(_digest(source, repr(options)))
        if source in self._expected:
            self._checksum_of[_digest(exe.to_bytes())] = self._expected[source]

    def _ran(self, args, kwargs, result) -> None:
        cpu = args[0]
        exe_key = _digest(cpu.exe.to_bytes())
        self.counts["sim.instructions"] += result.steps
        self.keys["sim"].append(_digest(exe_key, f"profile={cpu.profile}"))
        expected = self._checksum_of.get(exe_key)
        if expected is not None:
            symbol, value = expected
            actual = cpu.read_word_global_signed(symbol)
            if actual != value:
                self.checksum_errors.append(
                    f"{self.flow}: {symbol}={actual}, expected {value}"
                )

    def _decompiled(self, args, kwargs, program) -> None:
        exe = args[0]
        options = args[1] if len(args) > 1 else kwargs.get("options")
        stats = program.total_stats()
        self.counts["decompile.calls"] += 1
        self.counts["decompile.functions"] += len(program.functions)
        self.counts["decompile.lifted_ops"] += stats.lifted_ops
        self.counts["decompile.final_ops"] += stats.final_ops
        self.keys["decompile"].append(
            _digest(exe.to_bytes(), repr(options or DecompilationOptions()))
        )

    def _candidates(self, args, kwargs, candidates) -> None:
        self.counts["synth.candidates"] += len(candidates)

    def _partitioned(self, args, kwargs, outcome) -> None:
        self.counts["partition.kernels"] += len(outcome.result.selected)

    def _sampled(self, args, kwargs, result) -> None:
        self.counts["dynamic.samples"] += 1

    def _synth_layer(self) -> str:
        return (
            "dynamic.cad_synth" if self._inside("dynamic.on_sample") else "synth"
        )

    # -- report --------------------------------------------------------------

    def unique_ratio(self, layer: str) -> float:
        keys = self.keys[layer]
        return len(set(keys)) / len(keys) if keys else 0.0

    def metrics(self, sweep_seconds: float) -> dict[str, float]:
        out = {name: self.self_seconds[layer]
               for name, layer in SECONDS_LAYERS.items()}
        out["other.seconds"] = sweep_seconds - sum(
            self.self_seconds[layer] for layer in SECONDS_LAYERS.values()
        )
        for name in ("compiler.calls", "compiler.text_words", "sim.instructions",
                     "decompile.calls", "decompile.functions",
                     "decompile.lifted_ops", "decompile.final_ops",
                     "synth.candidates", "partition.kernels", "dynamic.samples"):
            out[name] = self.counts[name]
        for layer in ("compiler", "sim", "decompile"):
            out[f"{layer}.unique_ratio"] = self.unique_ratio(layer)
        run_seconds = self.self_seconds["sim.run"]
        out["sim.minstr_per_s"] = (
            self.counts["sim.instructions"] / run_seconds / 1e6
            if run_seconds > 0 else 0.0
        )
        return out

    def write_chrome_trace(self, path) -> None:
        """Write the spans as a Chrome ``trace_event`` file."""
        if not self.spans:
            return
        origin = min(span[2] for span in self.spans)
        events = [
            {
                "name": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"flow": flow},
            }
            for layer, flow, start, end in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def install() -> Tracer:
    """Rebind every traced entry point; returns the recording tracer."""
    tracer = Tracer()
    flow = repro.flow
    for module in (flow, repro.dynamic.flow):
        tracer._wrap(module, "compile_source", "compiler", tracer._compiled)
    tracer._wrap(Cpu, "__init__", "sim.construct")
    tracer._wrap(Cpu, "run", "sim.run", tracer._ran)
    tracer._wrap(flow, "decompile", "decompile", tracer._decompiled)
    tracer._wrap(flow, "build_profile", "partition.profiles")
    tracer._wrap(flow, "build_candidates", "synth", tracer._candidates)
    tracer._wrap(Synthesizer, "synthesize_loop", Tracer._synth_layer)
    tracer._wrap(flow, "run_partition", "partition", tracer._partitioned)
    tracer._wrap(flow, "evaluate_partition", "platform")
    tracer._wrap(DynamicPartitionController, "on_sample", "dynamic.on_sample",
                 tracer._sampled)
    tracer._wrap(repro.dynamic.controller, "decompile", "dynamic.cad_decompile")
    return tracer
