"""Flash cell modes and their reliability characteristics.

A flash cell stores 1 (SLC) to 4 (QLC) bits; storing more bits raises density
but also latency and raw bit-error rate (RBER), requiring ECC.  REIS uses
soft-partitioned *hybrid* SSDs: binary embeddings live in an SLC partition
programmed with Enhanced SLC Programming (ESP), which maximizes the voltage
margin and achieves zero BER without ECC (Flash-Cosmos characterization),
making error-free in-plane computation possible.  Documents and INT8
embeddings live in a normal TLC partition that keeps ECC.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class CellMode(Enum):
    """Programming mode of a flash block.  ``code`` (its :data:`MODES`
    index) is what the page table stores and per-mode tables are keyed by:
    an int hashes in C, an Enum member through a Python ``__hash__``."""

    SLC_ESP = "slc_esp"
    SLC = "slc"
    MLC = "mlc"
    TLC = "tlc"
    QLC = "qlc"

    @property
    def bits_per_cell(self) -> int:
        return {
            CellMode.SLC_ESP: 1,
            CellMode.SLC: 1,
            CellMode.MLC: 2,
            CellMode.TLC: 3,
            CellMode.QLC: 4,
        }[self]

    @property
    def timing_key(self) -> str:
        """Key into :class:`repro.nand.timing.NandTiming` latency tables."""
        if self in (CellMode.MLC, CellMode.QLC):
            # The evaluated SSDs only use SLC(-ESP) and TLC; map the other
            # densities onto TLC timing rather than inventing numbers.
            return "tlc"
        return self.value


@dataclass(frozen=True)
class ReliabilityProfile:
    """Raw bit error rate and endurance per cell mode."""

    raw_ber: float
    pe_cycle_endurance: int
    requires_ecc: bool


#: Cell modes by code: ``MODES[mode.code] is mode``, in definition order.
MODES = tuple(CellMode)
for _code, _mode in enumerate(MODES):
    _mode.code = _code
del _code, _mode

# Keyed by ``CellMode.code``.
RELIABILITY = {
    # ESP achieves 0 BER even at 1-year retention / 10K P/E cycles
    # (Flash-Cosmos, cited as [225] in the paper).
    CellMode.SLC_ESP.code: ReliabilityProfile(0.0, 100_000, requires_ecc=False),
    CellMode.SLC.code: ReliabilityProfile(1e-8, 100_000, requires_ecc=True),
    CellMode.MLC.code: ReliabilityProfile(1e-6, 10_000, requires_ecc=True),
    CellMode.TLC.code: ReliabilityProfile(1e-4, 3_000, requires_ecc=True),
    CellMode.QLC.code: ReliabilityProfile(1e-3, 1_000, requires_ecc=True),
}


def reliability(mode: CellMode) -> ReliabilityProfile:
    """Reliability profile for ``mode``."""
    return RELIABILITY[mode.code]
