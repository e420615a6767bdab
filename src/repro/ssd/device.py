"""The assembled simulated SSD."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nand.array import FlashArray
from repro.nand.ecc import EccEngine, UncorrectableReadError
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.ssd.allocation import ParallelismFirstAllocator
from repro.ssd.cores import CoreComplex, CoreSpec
from repro.ssd.dram import InternalDram
from repro.ssd.ftl import PageLevelFtl
from repro.ssd.gc import GarbageCollector
from repro.ssd.hybrid import HybridPartitioner
from repro.ssd.nvme import NvmeInterface
from repro.ssd.power import SsdPowerModel, SsdPowerParams
from repro.ssd.wear import WearLeveler


@dataclass(frozen=True)
class SsdSpec:
    """Full specification of a simulated SSD."""

    geometry: FlashGeometry
    timing: NandTiming
    n_cores: int = 4
    core_spec: CoreSpec = CoreSpec()
    power: SsdPowerParams = SsdPowerParams()
    host_link_bandwidth_bps: float = 7.0e9  # PCIe 4.0 x4 effective

    @property
    def internal_bandwidth_bps(self) -> float:
        """Aggregate flash-channel bandwidth (e.g. 9.6 GB/s for SSD1)."""
        return self.geometry.channels * self.timing.channel_bandwidth_bps


class SimulatedSSD:
    """A functional + timed SSD: flash array, controller, FTL, DRAM, NVMe.

    Host I/O goes through the page-level FTL; REIS bypasses it for deployed
    databases via coarse regions (handled in :mod:`repro.core.layout`).
    """

    def __init__(self, spec: SsdSpec) -> None:
        self.spec = spec
        self.array = FlashArray(spec.geometry, spec.timing)
        self.dram = InternalDram.for_flash_capacity(spec.geometry.capacity_bytes)
        self.page_cache = None  # the DRAM page cache core/ attaches (off by default)
        self.cores = CoreComplex(n_cores=spec.n_cores, spec=spec.core_spec)
        self.allocator = ParallelismFirstAllocator(spec.geometry)
        self.ftl = PageLevelFtl(self.array, self.allocator, dram=self.dram)
        self.gc = GarbageCollector(self.array, self.ftl)
        self.wear = WearLeveler(self.array)
        self.hybrid = HybridPartitioner(self.array)
        self.ecc = EccEngine()
        self.nvme = NvmeInterface()
        self.power = SsdPowerModel(spec.power)
        # REIS mode-switching (Sec. 7.2): the drive is either serving RAG
        # queries or normal host I/O, never both concurrently.
        self.rag_mode = False

    # ------------------------------------------------------------ host I/O

    def host_write(self, lpa: int, data: np.ndarray, oob: Optional[np.ndarray] = None):
        """Normal-mode host write through the page-level FTL."""
        self._require_normal_mode()
        return self.ftl.write(lpa, data, oob)

    def host_read(self, lpa: int) -> np.ndarray:
        """Normal-mode host read: translate, sense, ECC-correct.

        A read of one page through :meth:`FlashArray.read_pages`; a page
        that needs ECC is corrected from the read's flip column, and one
        with a codeword past the correction capability raises
        :class:`UncorrectableReadError` (region ``"host"``, page ``lpa``)
        instead of returning bytes that are not the written ones.
        """
        self._require_normal_mode()
        ppa = self.ftl.translate(lpa)
        sensed = self.array.read_pages(
            [ppa.plane_linear(self.spec.geometry)], [ppa.block], [ppa.page]
        )
        if self.array.plane(ppa).requires_ecc(ppa.block):
            if self.ecc.correct_batch(sensed.data, sensed.flips).size:
                raise UncorrectableReadError("host", lpa)
        return sensed.data[0]

    def _require_normal_mode(self) -> None:
        if self.rag_mode:
            raise RuntimeError(
                "SSD is in RAG mode; call exit_rag_mode() before host I/O"
            )

    # --------------------------------------------------------- mode switch

    def enter_rag_mode(self) -> float:
        """Switch to RAG mode; returns the FTL-metadata swap latency."""
        if self.rag_mode:
            return 0.0
        self.rag_mode = True
        return self._mode_switch_time()

    def exit_rag_mode(self) -> float:
        if not self.rag_mode:
            return 0.0
        self.rag_mode = False
        return self._mode_switch_time()

    def _mode_switch_time(self) -> float:
        """Loading/flushing FTL metadata between the two modes (Sec. 7.2)."""
        table_bytes = self.dram.region_size("ftl-l2p")
        return self.dram.access_time(table_bytes)

    # ----------------------------------------------------------- reporting

    @property
    def counters(self):
        return self.array.counters

    def average_power(self, elapsed_s: float) -> float:
        busy = sum(core.busy_seconds for core in self.cores.cores)
        return self.power.average_power(self.counters, elapsed_s, busy)
