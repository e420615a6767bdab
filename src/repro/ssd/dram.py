"""SSD-internal DRAM model.

Commodity SSDs carry roughly 1GB of DRAM per TB of flash (0.1%) to hold the
page-level L2P mapping table and cached pages.  REIS frees almost all of it
for the embedding region by switching to coarse-grained access (21 bytes per
database instead of 1GB/TB) and uses the reclaimed space for the R-DB, R-IVF
and Temporal-Top-List structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class DramTiming:
    """Access cost model (CACTI-7-like aggregate numbers)."""

    access_latency_s: float = 5.0e-8
    bandwidth_bps: float = 3.2e9
    active_power_w: float = 0.35
    idle_power_w: float = 0.05


class InternalDram:
    """Named-region allocator over the SSD's internal DRAM."""

    def __init__(self, capacity_bytes: int, timing: DramTiming | None = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("DRAM capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.timing = timing or DramTiming()
        self._regions: Dict[str, int] = {}

    @classmethod
    def for_flash_capacity(cls, flash_capacity_bytes: int) -> "InternalDram":
        """The 0.1% provisioning rule: 1GB DRAM per TB of flash."""
        return cls(max(1, flash_capacity_bytes // 1000))

    @property
    def allocated_bytes(self) -> int:
        return sum(self._regions.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def allocate(self, name: str, n_bytes: int) -> None:
        """Reserve ``n_bytes`` under ``name``; grows an existing region."""
        if n_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        current = self._regions.get(name, 0)
        if self.allocated_bytes - current + n_bytes > self.capacity_bytes:
            raise MemoryError(
                f"DRAM exhausted: cannot hold {n_bytes}B for {name!r} "
                f"({self.free_bytes + current}B free)"
            )
        self._regions[name] = n_bytes

    def free(self, name: str) -> None:
        self._regions.pop(name, None)

    def region_size(self, name: str) -> int:
        return self._regions.get(name, 0)

    def access_time(self, n_bytes: int) -> float:
        """Latency to stream ``n_bytes`` through the DRAM."""
        return self.timing.access_latency_s + n_bytes / self.timing.bandwidth_bps
