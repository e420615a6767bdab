"""Flash channels: shared buses between the flash controllers and chips."""

from __future__ import annotations

from typing import List, Optional

from repro.nand.chip import FlashChip
from repro.nand.geometry import FlashGeometry
from repro.nand.latches import LatchTable
from repro.nand.page import PageTable
from repro.nand.timing import NandTiming
from repro.sim.stats import CounterSet


class Channel:
    """A flash channel and the chips behind it.

    The channel is the bandwidth bottleneck between the massive internal
    plane-level read parallelism and the SSD controller; REIS's distance
    filtering exists precisely to conserve this bandwidth.
    """

    def __init__(
        self,
        channel_id: int,
        geometry: FlashGeometry,
        timing: NandTiming,
        counters: Optional[CounterSet] = None,
        latches: Optional[LatchTable] = None,
        pages: Optional[PageTable] = None,
    ) -> None:
        self.channel_id = channel_id
        self.timing = timing
        self.counters = counters if counters is not None else CounterSet()
        first_die = channel_id * geometry.dies_per_channel
        self.chips: List[FlashChip] = [
            FlashChip(
                chip_id=channel_id * geometry.chips_per_channel + i,
                geometry=geometry,
                first_die_id=first_die + i * geometry.dies_per_chip,
                counters=self.counters,
                latches=latches,
                pages=pages,
            )
            for i in range(geometry.chips_per_channel)
        ]

    @property
    def dies(self):
        """All dies on this channel, in die-id order."""
        return [die for chip in self.chips for die in chip.dies]

    def transfer(self, n_bytes: float) -> float:
        """Account a transfer over this channel; returns the bus time."""
        self.counters.add("channel_bytes", n_bytes)
        return self.timing.transfer_time(n_bytes)
