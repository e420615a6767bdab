"""NAND flash memory substrate (Sec. 2.3 of the paper)."""

from repro.nand.array import FlashArray
from repro.nand.cell import CellMode, reliability
from repro.nand.ecc import EccConfig, EccEngine, UncorrectableReadError
from repro.nand.errors import BitErrorModel
from repro.nand.geometry import FlashGeometry, PhysicalPageAddress, ppa_from_linear
from repro.nand.page import PageTable
from repro.nand.timing import NandTiming

__all__ = [
    "FlashArray",
    "FlashGeometry",
    "PhysicalPageAddress",
    "ppa_from_linear",
    "NandTiming",
    "CellMode",
    "reliability",
    "BitErrorModel",
    "EccEngine",
    "EccConfig",
    "UncorrectableReadError",
    "PageTable",
]
