"""ICE: an in-flash vector-similarity accelerator (Hu et al., MICRO'22).

ICE computes similarity inside 3D NAND dies, but -- unlike REIS -- it does
not use ESP, so to tolerate raw-NAND bit errors *without* ECC it stores
data in an error-tolerant encoding that costs **8x storage for 4-bit
precision** (32x for 8-bit; Sec. 3.2 of the REIS paper).  Two variants are
modeled, matching the comparison of Sec. 6.4:

* **ICE** -- 4-bit precision, 8x encoding blow-up: every scanned
  embedding occupies ``dim * 4`` bytes of flash (32x REIS's binary code).
* **ICE-ESP** -- the idealized variant the paper also evaluates: ESP
  removes the encoding blow-up but the data stays 4-bit (``dim / 2``
  bytes, 4x REIS's code).

Further design differences captured by the model:

* no distance filtering -- every candidate's result crosses the channel;
* multi-level in-die sensing for 4-bit operands costs more latch
  operations per page than REIS's single XOR + popcount;
* no document-retrieval path -- selected documents are fetched through
  the conventional host I/O path after the search returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.analytic import (
    AnalyticQueryCost,
    AnalyticWorkload,
    Bill,
    channel_total,
    even_ledger,
)
from repro.core.config import OptFlags, ReisConfig
from repro.core.costing import compose_batch, ibc_time
from repro.host.io import StorageIoModel
from repro.sim.stats import CounterSet
from repro.ssd.cores import EmbeddedCore


@dataclass(frozen=True)
class IceConfig:
    """The ICE design point (from the original paper + REIS's analysis)."""

    precision_bits: int = 4
    encoding_overhead: int = 8  # error-tolerant storage blow-up (ESP: 1)
    # Multi-bit in-die arithmetic is bit-serial: a 4-bit distance needs
    # O(bits^2) bulk-bitwise latch rounds (shift/add emulation), far more
    # than REIS's single XOR + popcount per page.
    latch_ops_per_page: int = 24
    sensing_passes: int = 1
    result_bytes_per_candidate: int = 6  # DIST (2B) + id (4B), no filtering

    @property
    def bytes_per_embedding_factor(self) -> float:
        """Flash bytes per embedding, as a multiple of ``dim``."""
        return self.precision_bits / 8.0 * self.encoding_overhead

    def with_esp(self) -> "IceConfig":
        """The idealized ICE-ESP variant (no encoding blow-up)."""
        return IceConfig(
            precision_bits=self.precision_bits,
            encoding_overhead=1,
            latch_ops_per_page=self.latch_ops_per_page,
            sensing_passes=self.sensing_passes,
            result_bytes_per_candidate=self.result_bytes_per_candidate,
        )


class IceModel:
    """Per-query latency/energy of ICE on a given SSD configuration.

    The model reuses REIS's SSD substrate (geometry, NAND timing, embedded
    cores) so the *only* differences are the published design decisions --
    which is exactly what the Fig. 10 comparison isolates.
    """

    def __init__(
        self,
        config: ReisConfig,
        ice: Optional[IceConfig] = None,
        io: Optional[StorageIoModel] = None,
    ) -> None:
        self.config = config
        self.ice = ice or IceConfig()
        self.io = io or StorageIoModel()
        self.geometry = config.geometry
        self.timing = config.timing
        # ICE has no distance filtering / MPIBC; in-die pipelining applies.
        self.flags = OptFlags(
            distance_filtering=False, pipelining=True, multi_plane_ibc=False
        )

    # ------------------------------------------------------------- helpers

    def _core(self) -> EmbeddedCore:
        return EmbeddedCore(0, self.config.core_spec)

    def _embeddings_per_page(self, dim: int) -> int:
        per_embedding = max(1, int(dim * self.ice.bytes_per_embedding_factor))
        return max(1, self.geometry.page_bytes // per_embedding)

    # --------------------------------------------------------------- query

    def _scan_cost(self, name: str, n_embeddings: int, dim: int, select_k: int) -> Bill:
        spp = self._embeddings_per_page(dim)
        pages = math.ceil(n_embeddings / spp) * self.ice.sensing_passes
        ledger = even_ledger(
            self.geometry, name, pages,
            float(n_embeddings) * self.ice.result_bytes_per_candidate,
        )
        # Multi-level operands need several bit-serial latch passes; the
        # extra rounds are charged as in-die latch time on the critical
        # plane (they serialize with the page iteration, like REIS's XOR).
        extra_ops = max(0, self.ice.latch_ops_per_page - 2)
        extra_s = extra_ops * (self.timing.t_latch_xor_s + self.timing.t_bit_count_s) / 2.0
        ledger.core_seconds[0] = extra_s * ledger.nand[0].size
        ledger.core_seconds[0] += self._core().quickselect(n_embeddings, select_k)
        return ledger, pages

    def query_cost(self, workload: AnalyticWorkload) -> AnalyticQueryCost:
        """Latency of one ICE query at the workload's operating point."""
        bills: List[Bill] = []
        if workload.is_ivf:
            bills.append(self._scan_cost(
                "coarse", workload.nlist, workload.dim, workload.nprobe
            ))
        bills.append(self._scan_cost(
            "fine", workload.candidates, workload.dim, workload.k
        ))

        # IBC equivalent: ICE broadcasts the 4-bit query per die, plane by
        # plane (no MPIBC).
        query_bytes = int(workload.dim * self.ice.precision_bits / 8)
        ibc_s = ibc_time(self.geometry, self.timing, query_bytes, self.flags)
        # Document fetch goes through the regular host read path: the host
        # slot.  No ECC decode on the controller (error-tolerant encoding).
        doc_s = self.io.load_time(workload.k * workload.doc_bytes, workload.k)
        [report], *_ = compose_batch([(
            self.timing, self.flags.pipelining, 0.0,
            [ibc_s], [doc_s], {ledger.name: ledger for ledger, _pages in bills},
        )])

        counters = CounterSet()
        total_pages = sum(pages for _ledger, pages in bills)
        counters.add("page_reads", total_pages)
        counters.add("latch_xors", total_pages * self.ice.latch_ops_per_page / 2)
        counters.add("bit_counts", total_pages * self.ice.latch_ops_per_page / 2)
        counters.add("channel_bytes", channel_total(bills))
        core_busy = sum(ledger.core_seconds[0] for ledger, _pages in bills)
        return AnalyticQueryCost(report=report, counters=counters, core_busy_s=core_busy)

    def qps(self, workload: AnalyticWorkload) -> float:
        return self.query_cost(workload).qps
