"""The fabric ledger: who occupies how much of the FPGA, in what regions.

The dynamic controller used to do its own area arithmetic against
``Platform.capacity_gates``.  Two of the deployment-story extensions make
that bookkeeping a first-class object:

* **partial reconfiguration** -- with ``Platform.fabric_regions > 0`` the
  kernel fabric is split into equal regions; a kernel occupies whole
  regions (``ceil(area / region_gates)``), and reconfiguring charges per
  *changed region*, not per kernel.  With ``fabric_regions == 0`` the
  ledger degrades to the monolithic gate-count budget of PR 3 (every
  placement "changes" exactly one logical region).
* **multi-application sharing** -- several controllers (one per running
  application) hold placements on *one* :class:`FabricState`; each only
  evicts its own kernels, and the free pool is what arbitrates between
  them.  Fabric static power is likewise apportioned by area share so the
  per-application energy timelines sum to (at most) one fabric's worth.

Units: all capacity math goes through abstract *units* -- gates (float)
when monolithic, regions (int) when partitioned -- so the controller's
placement loop is identical in both modes.
"""

from __future__ import annotations

from copy import copy
from math import ceil

from repro.platform.platform import Platform


class FabricState:
    """Area/region ledger of one physical fabric, shareable by controllers.

    *Owners* are the controllers themselves, keyed by identity.  The
    ledger holds a strong reference to each owner with live placements, so
    an owner's entries can never be aliased by a new object reusing its
    ``id()`` -- a fabric outliving its controllers keeps their placements
    attributed correctly (they model kernels still configured on the real
    hardware) until someone evicts them.
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self.capacity_gates = platform.capacity_gates
        self.region_count = platform.fabric_regions
        self.region_gates = platform.region_gates
        #: (owner, header address) -> (area gates, regions held)
        self._placements: dict[tuple[object, int], tuple[float, int]] = {}
        #: high-water marks for reporting
        self.peak_area_gates = 0.0
        self.peak_regions = 0

    # -- unit arithmetic ----------------------------------------------------

    @property
    def total_units(self) -> float:
        """The whole fabric in placement units (gates or regions)."""
        if self.region_count > 0:
            return self.region_count
        return self.capacity_gates

    def units_for(self, kernel) -> float:
        """Units *kernel* would occupy if placed."""
        if self.region_count > 0:
            if self.region_gates <= 0.0:
                return self.region_count + 1   # nothing ever fits
            return max(1, ceil(kernel.area_gates / self.region_gates))
        return kernel.area_gates

    def free_units(self) -> float:
        return self.total_units - self._sum(self.region_count > 0)

    def owner_units(self, owner) -> float:
        return self._sum(self.region_count > 0, owner)

    def units_of(self, owner, header_address: int) -> float:
        """Units held by one resident placement (0 when absent)."""
        placement = self._placements.get((owner, header_address))
        if placement is None:
            return 0.0
        area, regions = placement
        return regions if self.region_count > 0 else area

    # -- area reporting -----------------------------------------------------

    def area_used(self, owner=None) -> float:
        """Gates occupied by *owner*'s kernels (everyone's when ``None``)."""
        return self._sum(False, owner)

    def regions_used(self, owner=None) -> int:
        return self._sum(True, owner)

    def _sum(self, regions: bool, owner=None) -> float:
        """Regions (else gates) held by *owner*, everyone's when ``None``."""
        column = 1 if regions else 0
        if owner is None:
            return sum(entry[column] for entry in self._placements.values())
        return sum(entry[column] for (o, _), entry
                   in self._placements.items() if o is owner)

    def static_share(self, owner) -> float:
        """*owner*'s share of the fabric's static power.

        The fabric burns static power while anything is configured; each
        application is billed proportionally to the area it holds, so the
        per-application energy timelines never double-charge one fabric.
        A sole occupant pays the whole static power (the PR 3 accounting).
        """
        own = self.area_used(owner)
        if own <= 0.0:
            return 0.0
        total = self.area_used()
        return own / total if total > 0.0 else 0.0

    # -- mutation -----------------------------------------------------------

    def place(self, owner, header_address: int, kernel) -> int:
        """Record a placement; returns the number of *changed regions*.

        The caller is responsible for having checked capacity via the unit
        arithmetic above.  Monolithic fabrics report one changed region per
        kernel, reproducing PR 3's per-kernel reconfiguration charge.
        """
        regions = int(self.units_for(kernel)) if self.region_count > 0 else 1
        self._placements[(owner, header_address)] = (
            kernel.area_gates, regions
        )
        self.peak_area_gates = max(self.peak_area_gates, self.area_used())
        self.peak_regions = max(self.peak_regions, self.regions_used())
        return regions

    def evict(self, owner, header_address: int) -> None:
        self._placements.pop((owner, header_address), None)

    def release(self, owner) -> None:
        """Evict everything *owner* holds (e.g. its application exited)."""
        for key in [k for k in self._placements if k[0] is owner]:
            del self._placements[key]

    def copy(self) -> "FabricState":
        """A private ledger holding the same placements: what a re-partition
        plans against, so the live fabric changes only when a plan is
        applied."""
        twin = copy(self)
        twin._placements = dict(self._placements)
        return twin
