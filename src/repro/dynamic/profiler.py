"""The on-chip profiler: a decayed hot-target table over backward branches.

Warp processing's profiler is a tiny nonintrusive cache attached to the
instruction-fetch bus: it watches *backward* control transfers (loop
back-edges), keeps a small table of the most frequent targets, and ages
entries so the table tracks the application's current phase rather than its
whole history.

This model reads the simulator's per-site counters as a recorded sampled
run replays them (:meth:`repro.stages.SampleStream.play`): at each sample
it gets the cumulative ``counts``/``taken`` arrays, and it folds the
per-site deltas since the previous sample into an
exponentially-decayed hotness score per branch-target address.  Only the
static backward-edge sites are touched per sample -- a few dozen integers --
so sampling cost is independent of the text size and invisible next to the
interval itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stages import SiteView


#: per-sample exponential aging of hotness scores
DECAY = 0.5


@dataclass(frozen=True)
class ProfilerConfig:
    """Knobs of the modeled on-chip profiler."""

    #: entries kept in the hot-target table (the real profiler's cache size)
    table_size: int = 32
    #: minimum share of the table's total weight to be reported as hot
    hot_fraction: float = 0.01

    def __post_init__(self):
        size = self.table_size
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise ValueError(
                f"table_size must be an int >= 1, got {size!r} (an empty "
                "table forgets every target, so nothing is ever placed)"
            )
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )


class OnlineProfiler:
    """Decayed backward-branch frequency table fed from sampled counters."""

    def __init__(self, sites: SiteView, config: ProfilerConfig | None = None):
        """*sites* is the binary's :class:`~repro.stages.SiteView`; the
        profiler reads its static ``branch_edges`` and ``jump_edges``."""
        self.config = config or ProfilerConfig()
        # static backward control transfers: loop back-edges.  Branch sites
        # count via the per-site taken array, jump sites (j/jal back-edges)
        # via the execution counters.
        self._branch_sites = [
            (index, dst)
            for index, (src, dst) in sites.branch_edges.items()
            if dst <= src
        ]
        self._jump_sites = [
            (index, dst)
            for index, (src, dst) in sites.jump_edges.items()
            if dst <= src
        ]
        self._prev_taken = {index: 0 for index, _ in self._branch_sites}
        self._prev_counts = {index: 0 for index, _ in self._jump_sites}
        #: target address -> decayed hotness (recent back-edge executions)
        self.hotness: dict[int, float] = {}
        self.samples = 0

    def sample(
        self, counts: list[int], taken: list[int], decay_periods: int = 1
    ) -> None:
        """Fold one sampling interval's deltas into the hot-target table.

        *decay_periods* scales the aging applied for this sample: with
        phase-adaptive sampling the controller coarsens the interval to a
        multiple of the base one, and passing that multiple here keeps the
        table's aging a function of executed instructions rather than of
        how often the (duty-cycled) profiler was read.
        """
        config = self.config
        hotness = self.hotness
        if hotness:
            decay = DECAY ** decay_periods
            for address in hotness:
                hotness[address] *= decay
        for index, target in self._branch_sites:
            now = taken[index]
            delta = now - self._prev_taken[index]
            if delta:
                self._prev_taken[index] = now
                hotness[target] = hotness.get(target, 0.0) + delta
        for index, target in self._jump_sites:
            now = counts[index]
            delta = now - self._prev_counts[index]
            if delta:
                self._prev_counts[index] = now
                hotness[target] = hotness.get(target, 0.0) + delta
        # the real table is small: evict the coldest entries beyond capacity
        if len(hotness) > config.table_size:
            keep = sorted(hotness.items(), key=lambda kv: -kv[1])
            self.hotness = dict(keep[: config.table_size])
        self.samples += 1

    def total_weight(self) -> float:
        return sum(self.hotness.values())

    def hot_targets(self) -> list[tuple[int, float]]:
        """(target address, hotness) of currently-hot loop headers, hottest
        first, filtered by the configured share threshold."""
        total = self.total_weight()
        if total <= 0.0:
            return []
        threshold = self.config.hot_fraction * total
        ranked = sorted(self.hotness.items(), key=lambda kv: -kv[1])
        return [(address, score) for address, score in ranked if score >= threshold]
