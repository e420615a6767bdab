"""SSD substrate: controller, cores, DRAM, FTL, GC, hybrid modes, NVMe."""

from repro.ssd.allocation import (
    PageAllocator,
    ParallelismFirstAllocator,
    SequentialAllocator,
)
from repro.ssd.coarse import COARSE_ENTRY_BYTES, CoarseRegion
from repro.ssd.cores import CoreComplex, CoreSpec, EmbeddedCore
from repro.ssd.device import SimulatedSSD, SsdSpec
from repro.ssd.dram import DramTiming, InternalDram
from repro.ssd.ftl import L2P_ENTRY_BYTES, PageLevelFtl
from repro.ssd.gc import GarbageCollector, GcResult
from repro.ssd.hybrid import HybridPartitioner, PartitionStats
from repro.ssd.nvme import NvmeCommand, NvmeCompletion, NvmeInterface, NvmeOpcode
from repro.ssd.power import SsdPowerModel, SsdPowerParams
from repro.ssd.wear import WearLeveler

__all__ = [
    "SimulatedSSD",
    "SsdSpec",
    "InternalDram",
    "DramTiming",
    "CoreComplex",
    "CoreSpec",
    "EmbeddedCore",
    "PageLevelFtl",
    "L2P_ENTRY_BYTES",
    "CoarseRegion",
    "COARSE_ENTRY_BYTES",
    "PageAllocator",
    "ParallelismFirstAllocator",
    "SequentialAllocator",
    "GarbageCollector",
    "GcResult",
    "WearLeveler",
    "HybridPartitioner",
    "PartitionStats",
    "NvmeInterface",
    "NvmeCommand",
    "NvmeCompletion",
    "NvmeOpcode",
    "SsdPowerModel",
    "SsdPowerParams",
]
