"""The one partitioning entry point: ``partition(graph, devices, passes=...)``.

``flow.py``, the dynamic controller's static baseline, the CLI and the
benchmarks all come through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.partition.graph import PartitionGraph, build_graph
from repro.partition.passes import (
    FilterPass,
    LegalizePass,
    PartitionPass,
    PassManager,
    PipelineReport,
    ReportPass,
)
from repro.partition.placement import PLACEMENTS, PlacementPass
from repro.partition.result import PartitionResult, result_from_graph
from repro.platform.devices import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.partition.estimator import Candidate
    from repro.platform.platform import Platform


@dataclass
class PartitionOutcome:
    """Everything one pipeline run produced."""

    graph: PartitionGraph
    result: PartitionResult
    report: PipelineReport
    algorithm: str

    @property
    def placements(self) -> dict[str, str]:
        return self.graph.assignment()

    @property
    def pass_seconds(self) -> dict[str, float]:
        return dict(self.report.pass_seconds)

    def by_device(self) -> dict[str, list[str]]:
        """Device name -> placed kernel names (devices with nothing placed
        included, so capacity reports always show every device)."""
        out: dict[str, list[str]] = {d.name: [] for d in self.graph.devices}
        for node in self.graph.nodes:
            out[node.device or "cpu"].append(node.name)
        return out


def make_placement(algorithm: str | PlacementPass, **kwargs) -> PlacementPass:
    if isinstance(algorithm, PlacementPass):
        return algorithm
    try:
        factory = PLACEMENTS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown placement algorithm {algorithm!r} "
            f"(known: {sorted(PLACEMENTS)})"
        ) from None
    return factory(**kwargs)


def default_passes(algorithm: str | PlacementPass = "90-10") -> list[PartitionPass]:
    """The standard pipeline: filter -> place -> legalize -> report."""
    return [FilterPass(), make_placement(algorithm), LegalizePass(), ReportPass()]


#: the pipeline of ``passes=None``; passes keep no state between runs
_DEFAULT_PASSES = default_passes()


def _placement_algorithm(passes: Sequence[PartitionPass]) -> str:
    for pipeline_pass in passes:
        if isinstance(pipeline_pass, PlacementPass):
            return pipeline_pass.algorithm
    return "custom"


def partition(
    graph: PartitionGraph | Iterable["Candidate"],
    devices: Sequence[DeviceSpec] | None = None,
    *,
    platform: "Platform | None" = None,
    total_cycles: int | None = None,
    passes: Sequence[PartitionPass] | str | PlacementPass | None = None,
) -> PartitionOutcome:
    """Partition over an explicit device list through the pass pipeline.

    *graph* is either a prebuilt :class:`PartitionGraph` or a candidate
    list (then *platform* and *total_cycles* are required and the graph is
    built here over *devices*, defaulting to ``platform.devices``).

    *passes* is the full ordered pass list, or -- as a shorthand -- an
    algorithm name / placement pass to drop into the default pipeline.
    Every pass is individually timed and traced; the per-pass wall clock
    lands in ``outcome.result.pass_seconds`` and on the
    ``partition.pass_seconds`` obs histogram.
    """
    if not isinstance(graph, PartitionGraph):
        if platform is None:
            raise ValueError(
                "partition(candidates, ...) needs platform= to build a graph"
            )
        graph = build_graph(
            graph, platform,
            devices=tuple(devices) if devices is not None else None,
            total_cycles=total_cycles or 0,
        )
    elif devices is not None and tuple(devices) != graph.devices:
        raise ValueError(
            "devices= disagrees with the prebuilt graph's device list"
        )

    if passes is None:
        pass_list = _DEFAULT_PASSES
    elif isinstance(passes, (str, PlacementPass)):
        pass_list = default_passes(passes)
    else:
        pass_list = list(passes)

    manager = PassManager(pass_list)
    report = manager.run(graph)
    result = result_from_graph(
        graph,
        algorithm=_placement_algorithm(pass_list),
        seconds=report.total_seconds,
        pass_seconds=report.pass_seconds,
    )
    return PartitionOutcome(
        graph=graph, result=result, report=report,
        algorithm=result.algorithm,
    )
