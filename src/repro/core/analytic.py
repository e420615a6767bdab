"""Paper-scale analytic model of the REIS engine.

The functional engine in :mod:`repro.core.engine` executes real bytes and
can only hold scaled-down datasets.  The evaluation datasets are 2.7M-1B
entries, so the figures are regenerated with this analytic twin: a device
like any other, it bills every phase into a one-row
:class:`~repro.core.costing.PhaseLedger` -- page visits on the critical
plane, channel bytes, core seconds -- computing the counts from a workload
descriptor instead of executing them (:func:`even_ledger`), and composes
them through the identical :func:`~repro.core.costing.compose_batch`
path as a batch of one.

Because both layers share the ledger and the composer, the functional
engine's measured per-query latency and the analytic model's predicted
latency can be cross-validated on workloads small enough to run
functionally (the integration tests do exactly this, phase by phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import OptFlags, ReisConfig
from repro.core.costing import PhaseLedger, compose_batch, ibc_time
from repro.nand.ecc import EccEngine
from repro.nand.geometry import FlashGeometry
from repro.sim.latency import LatencyReport
from repro.sim.stats import CounterSet
from repro.ssd.cores import EmbeddedCore
from repro.ssd.power import SsdPowerModel


@dataclass(frozen=True)
class AnalyticWorkload:
    """One query's workload at a chosen operating point.

    ``candidate_fraction`` is the fraction of database embeddings the fine
    search scans (1.0 for brute force; for IVF it is the fraction the
    probed clusters cover, measured functionally or estimated as
    ``nprobe / nlist``).  ``filter_pass_fraction`` is the fraction of
    scanned embeddings that survive distance filtering and cross the
    channel (the paper observes ~1% for HotpotQA at k=10).
    """

    n_entries: int
    dim: int
    k: int = 10
    nlist: int = 0  # 0 => flat / brute-force database
    nprobe: int = 0
    candidate_fraction: float = 1.0
    filter_pass_fraction: float = 0.01
    doc_bytes: int = 4096
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_entries <= 0:
            raise ValueError("n_entries must be positive")
        if self.dim <= 0 or self.dim % 8 != 0:
            raise ValueError("dim must be a positive multiple of 8")
        if not 1 <= self.k <= self.n_entries:
            raise ValueError("k must be in [1, n_entries]")
        if not 0 <= self.nlist <= self.n_entries:
            raise ValueError("nlist must be in [0, n_entries]")
        if self.nlist and not 1 <= self.nprobe <= self.nlist:
            raise ValueError("IVF workloads need 1 <= nprobe <= nlist")
        if self.nprobe and not self.nlist:
            raise ValueError("nprobe needs an IVF workload (nlist >= 1)")
        if self.doc_bytes < 0:
            raise ValueError("doc_bytes must be non-negative")
        if not 0.0 < self.candidate_fraction <= 1.0:
            raise ValueError("candidate_fraction must be in (0, 1]")
        if not 0.0 < self.filter_pass_fraction <= 1.0:
            raise ValueError("filter_pass_fraction must be in (0, 1]")

    @property
    def is_ivf(self) -> bool:
        return self.nlist > 0

    @property
    def code_bytes(self) -> int:
        return self.dim // 8

    @property
    def candidates(self) -> int:
        return max(1, int(round(self.candidate_fraction * self.n_entries)))


@dataclass
class AnalyticQueryCost:
    """Latency report plus the activity counts behind it."""

    report: LatencyReport
    counters: CounterSet
    core_busy_s: float

    @property
    def seconds(self) -> float:
        return self.report.total_s

    @property
    def qps(self) -> float:
        return 1.0 / self.seconds if self.seconds > 0 else math.inf


# A phase as the analytic twin bills it: its one-row ledger and its true
# page total (the energy counters' count; the ledger holds the critical
# plane's share).
Bill = Tuple[PhaseLedger, int]


def even_ledger(
    geometry: FlashGeometry, name: str, pages: int, channel_bytes: float,
    core_seconds: float = 0.0, ecc_bytes: float = 0.0, **kind,
) -> PhaseLedger:
    """One query's phase spread evenly over the device, as a one-row ledger.

    Regions stripe plane-major, so the critical plane makes ``ceil(pages /
    planes)`` visits: plane 0 stands for it, billed as an executed schedule
    of that many senses (no page identities to sort).  Every channel
    carries an equal share of ``channel_bytes``.
    """
    ledger = PhaseLedger(name, 1, geometry, **kind)
    per_plane = -(-pages // geometry.total_planes)  # ceiling division
    if per_plane > 0:
        visits = np.zeros(per_plane, dtype=np.int64)
        ledger.add_nand_visits(visits, visits, visits)
        senses = np.zeros(geometry.total_planes, dtype=np.int64)
        senses[0] = per_plane
        ledger.add_schedule(senses)
    if channel_bytes > 0:
        ledger.channel_bytes[0] = channel_bytes / geometry.channels
    ledger.core_seconds[0], ledger.ecc_bytes[0] = core_seconds, ecc_bytes
    return ledger


def channel_total(bills: List[Bill]) -> float:
    """The bytes every phase moved over the channels, phase by phase."""
    return sum(sum(ledger.channel_bytes[0].tolist()) for ledger, _pages in bills)


class ReisAnalyticModel:
    """Predicts per-query latency/energy of REIS at paper dataset scale."""

    def __init__(self, config: ReisConfig, flags: Optional[OptFlags] = None) -> None:
        self.config = config
        self.flags = flags if flags is not None else OptFlags()
        self.geometry = config.geometry
        self.timing = config.timing
        self.params = config.engine
        self.power = SsdPowerModel(config.power)
        self._ecc = EccEngine()

    # ---------------------------------------------------------- primitives

    def _bill(self, name: str, pages: int, channel_bytes: float, **kind) -> Bill:
        return even_ledger(self.geometry, name, pages, channel_bytes, **kind), pages

    def _core(self) -> EmbeddedCore:
        """A scratch core: time formulas only, not the live busy counter."""
        return EmbeddedCore(0, self.config.core_spec)

    # -------------------------------------------------------------- phases

    def _coarse_cost(self, workload: AnalyticWorkload) -> Bill:
        g = self.geometry
        spp = min(
            g.page_bytes // workload.code_bytes,
            g.oob_bytes // self.params.tag_bytes,
        )
        entry_bytes = self.params.coarse_entry_bytes(workload.code_bytes)
        return self._bill(
            "coarse", math.ceil(workload.nlist / spp), workload.nlist * entry_bytes,
            core_seconds=self._core().quickselect(workload.nlist, workload.nprobe),
        )

    def _fine_cost(self, workload: AnalyticWorkload) -> Tuple[Bill, int]:
        g = self.geometry
        spp = min(
            g.page_bytes // workload.code_bytes,
            g.oob_bytes // self.params.oob_link_bytes,
        )
        candidates = workload.candidates
        shortlist = self.params.shortlist_factor * workload.k
        pages = math.ceil(candidates / spp)
        if workload.is_ivf:
            # Each probed cluster is a separate contiguous range; ranges do
            # not share pages, so add the per-cluster page-rounding slack.
            pages = min(
                pages + workload.nprobe - 1,
                math.ceil(workload.n_entries / spp),
            )
        if self.flags.distance_filtering:
            transferred = max(
                int(round(candidates * workload.filter_pass_fraction)),
                min(shortlist, candidates),
            )
        else:
            transferred = candidates
        entry_bytes = self.params.fine_entry_bytes(workload.code_bytes)
        return self._bill(
            "fine", pages, transferred * entry_bytes,
            core_seconds=self._core().quickselect(transferred, shortlist),
            with_filter=self.flags.distance_filtering,
        ), transferred

    def _rerank_cost(
        self, workload: AnalyticWorkload, transferred: Optional[int] = None
    ) -> Bill:
        shortlist = min(
            self.params.shortlist_factor * workload.k, workload.candidates
        )
        if transferred is not None:
            # Distance filtering may let fewer candidates through than the
            # rescoring window; the rerank then only sees those.
            shortlist = min(shortlist, transferred)
        # INT8 twins of the shortlist are scattered: one TLC page each, but
        # never more pages than the INT8 region holds per plane stripe.
        int8_spp = max(1, self.geometry.page_bytes // workload.dim)
        region_pages = math.ceil(workload.n_entries / int8_spp)
        # Only the distinct ECC codewords covering the shortlist's INT8
        # embeddings cross the channel; at paper scale the shortlist is
        # scattered (one codeword group per entry), at small scale entries
        # share codewords, so the count is capped by the region's total.
        cw = self._ecc.config.codeword_bytes
        cw_per_entry = math.ceil(workload.dim / cw)
        region_codewords = region_pages * max(1, self.geometry.page_bytes // cw)
        n_codewords = min(shortlist * cw_per_entry, region_codewords)
        transfer_bytes = float(n_codewords) * cw
        core = self._core()
        core_seconds = core.int8_distances(shortlist, workload.dim)
        core_seconds += core.quicksort(shortlist)
        return self._bill(
            "rerank", min(shortlist, region_pages), transfer_bytes,
            core_seconds=core_seconds, ecc_bytes=transfer_bytes,
            read_mode="tlc", with_compute=False,
        )

    def _document_cost(self, workload: AnalyticWorkload) -> Bill:
        cw = self._ecc.config.codeword_bytes
        chunk_bytes = math.ceil(workload.doc_bytes / cw) * cw
        transfer_bytes = float(workload.k) * chunk_bytes
        return self._bill(
            "documents", workload.k, transfer_bytes, ecc_bytes=transfer_bytes,
            read_mode="tlc", with_compute=False,
        )

    # --------------------------------------------------------------- query

    def query_cost(self, workload: AnalyticWorkload) -> AnalyticQueryCost:
        """Predicted cost of one query at the workload's operating point."""
        bills: List[Bill] = []
        if workload.is_ivf:
            bills.append(self._coarse_cost(workload))
        fine, transferred = self._fine_cost(workload)
        bills += [fine, self._rerank_cost(workload, transferred)]
        if workload.doc_bytes > 0:
            bills.append(self._document_cost(workload))

        ibc_s = ibc_time(self.geometry, self.timing, workload.code_bytes, self.flags)
        host_s = workload.k * workload.doc_bytes / 7.0e9  # PCIe 4.0 x4 link
        [report], *_ = compose_batch([(
            self.timing, self.flags.pipelining, self._ecc.decode_time(1),
            [ibc_s], [host_s], {ledger.name: ledger for ledger, _pages in bills},
        )])

        counters = CounterSet()
        compute_pages = sum(pages for ledger, pages in bills if ledger.with_compute)
        counters.add("page_reads", sum(pages for _ledger, pages in bills))
        counters.add("latch_xors", compute_pages)
        counters.add("bit_counts", compute_pages)
        counters.add(
            "pass_fail_checks",
            sum(pages for ledger, pages in bills if ledger.with_filter),
        )
        counters.add("ibc_broadcasts", self.geometry.total_dies)
        counters.add("channel_bytes", channel_total(bills))
        core_busy = sum(ledger.core_seconds[0] for ledger, _pages in bills)
        counters.add("entries_transferred", transferred)
        return AnalyticQueryCost(report=report, counters=counters, core_busy_s=core_busy)

    # ------------------------------------------------------- derived rates

    def qps(self, workload: AnalyticWorkload) -> float:
        return self.query_cost(workload).qps

    def energy_per_query(self, workload: AnalyticWorkload) -> float:
        cost = self.query_cost(workload)
        return self.power.total_energy(cost.counters, cost.seconds, cost.core_busy_s)

    def average_power(self, workload: AnalyticWorkload) -> float:
        cost = self.query_cost(workload)
        return self.power.average_power(cost.counters, cost.seconds, cost.core_busy_s)

    def qps_per_watt(self, workload: AnalyticWorkload) -> float:
        return self.qps(workload) / self.average_power(workload)


def brute_force_workload(
    n_entries: int, dim: int, k: int = 10, doc_bytes: int = 4096
) -> AnalyticWorkload:
    """The BF operating point: scan the whole database."""
    return AnalyticWorkload(
        n_entries=n_entries,
        dim=dim,
        k=k,
        candidate_fraction=1.0,
        doc_bytes=doc_bytes,
        label="BF",
    )


def ivf_workload(
    n_entries: int,
    dim: int,
    nlist: int,
    nprobe: int,
    candidate_fraction: Optional[float] = None,
    k: int = 10,
    filter_pass_fraction: float = 0.01,
    doc_bytes: int = 4096,
    label: str = "",
) -> AnalyticWorkload:
    """An IVF operating point; defaults the scan fraction to nprobe/nlist."""
    if nlist < 1:
        raise ValueError("IVF workloads need nlist >= 1")
    if candidate_fraction is None:
        candidate_fraction = min(1.0, nprobe / nlist)
    return AnalyticWorkload(
        n_entries=n_entries,
        dim=dim,
        k=k,
        nlist=nlist,
        nprobe=nprobe,
        candidate_fraction=candidate_fraction,
        filter_pass_fraction=filter_pass_fraction,
        doc_bytes=doc_bytes,
        label=label,
    )
