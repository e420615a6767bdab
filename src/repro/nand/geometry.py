"""NAND flash array geometry and physical addressing.

Mirrors the organization in Sec. 2.3 / Fig. 1 of the paper: an SSD contains
channels; each channel connects flash chips; chips contain dies; dies contain
planes; planes contain blocks of pages.  A 16KB page carries a dedicated
out-of-band (OOB) area (2208 spare bytes for a 16KB page) that REIS
re-purposes for the embedding-document linkage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class FlashGeometry:
    """Static shape of a NAND flash subsystem.

    Defaults describe a small array for functional tests; the evaluated
    REIS-SSD1/REIS-SSD2 configurations (Table 3) are built in
    :mod:`repro.core.config`.  The derived sizes are computed on first read
    and then kept (``cached_property``: an instance attribute, outside
    eq/hash/repr), since every batch reads them.
    """

    channels: int = 2
    chips_per_channel: int = 1
    dies_per_chip: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 8
    pages_per_block: int = 64
    page_bytes: int = 16384
    oob_bytes: int = 2208
    subpage_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.page_bytes % self.subpage_bytes != 0:
            raise ValueError("page_bytes must be a multiple of subpage_bytes")
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @cached_property
    def dies_per_channel(self) -> int:
        return self.chips_per_channel * self.dies_per_chip

    @cached_property
    def total_dies(self) -> int:
        return self.channels * self.dies_per_channel

    @cached_property
    def total_planes(self) -> int:
        return self.total_dies * self.planes_per_die

    @cached_property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @cached_property
    def total_pages(self) -> int:
        return self.total_planes * self.pages_per_plane

    @cached_property
    def capacity_bytes(self) -> int:
        """User-data capacity with every page in its native (e.g. TLC) mode."""
        return self.total_pages * self.page_bytes

    @cached_property
    def subpages_per_page(self) -> int:
        return self.page_bytes // self.subpage_bytes


@dataclass(frozen=True, order=True)
class PhysicalPageAddress:
    """Physical location of one flash page: (channel, chip, die, plane, block, page)."""

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int

    def validate(self, geometry: FlashGeometry) -> None:
        """Raise ``ValueError`` if the address is outside ``geometry``."""
        bounds = (
            ("channel", self.channel, geometry.channels),
            ("chip", self.chip, geometry.chips_per_channel),
            ("die", self.die, geometry.dies_per_chip),
            ("plane", self.plane, geometry.planes_per_die),
            ("block", self.block, geometry.blocks_per_plane),
            ("page", self.page, geometry.pages_per_block),
        )
        for name, value, limit in bounds:
            if not 0 <= value < limit:
                raise ValueError(f"{name}={value} out of range [0, {limit})")

    def to_linear(self, geometry: FlashGeometry) -> int:
        """Linearize to a page index; inverse of :func:`ppa_from_linear`."""
        plane_index = self.plane_linear(geometry)
        return plane_index * geometry.pages_per_plane + (
            self.block * geometry.pages_per_block + self.page
        )

    def plane_linear(self, geometry: FlashGeometry) -> int:
        """Global index of the plane this page lives in."""
        die_index = (
            self.channel * geometry.dies_per_channel
            + self.chip * geometry.dies_per_chip
            + self.die
        )
        return die_index * geometry.planes_per_die + self.plane


def ppa_from_linear(linear: int, geometry: FlashGeometry) -> PhysicalPageAddress:
    """Rebuild a :class:`PhysicalPageAddress` from its linear page index."""
    if not 0 <= linear < geometry.total_pages:
        raise ValueError(f"linear page index {linear} out of range")
    plane_index, in_plane = divmod(linear, geometry.pages_per_plane)
    block, page = divmod(in_plane, geometry.pages_per_block)
    return page_address(geometry, plane_index, block, page)


def page_address(
    geometry: FlashGeometry, plane_index: int, block: int, page: int
) -> PhysicalPageAddress:
    """Address of page ``page`` of block ``block`` on global plane
    ``plane_index``: the one inverse of
    :meth:`PhysicalPageAddress.plane_linear`."""
    die_index, plane = divmod(plane_index, geometry.planes_per_die)
    channel, rest = divmod(die_index, geometry.dies_per_channel)
    chip, die = divmod(rest, geometry.dies_per_chip)
    return PhysicalPageAddress(channel, chip, die, plane, block, page)
