"""The parent's per-object cost walk, kept as the test reference.

Before the phase ledger (:class:`repro.core.costing.PhaseLedger`) the
engine filled one ``PhaseCost`` per query, one ``add_page`` /
``add_dram_stream`` call per page visit, and ``batch_phase_stages``
re-walked those objects to rediscover which senses and DRAM streams a
batch shares.  That walk is moved here **verbatim** (renamed
``_reference_batch_phase_stages``; one ``sum`` over floats is spelled out
so CPython >= 3.12 adds it in the same order), together with the per-visit emission
it read (:class:`ReferencePhaseCost`), so the ledger's reductions can be
pinned to it with ``==``.  :func:`replay` turns a ledger back into the
objects the parent would have built, one visit at a time.

The senses the walk derived for a plane no executed schedule answers
(:func:`derived_senses`, :func:`reference_senses`) live here too, since a
phase ledger now bills only the senses its phase executed; :func:`scheduled`
fills such planes in before a test-built ledger is reduced.

:class:`PhaseCost` (the scalar record the analytic twin once filled) and
:func:`query_cost` (a ledger row read back as one) live here too: nothing
under ``src/`` materializes a per-query record any more.  :func:`compose_solo`
is how the tests compose a ledger alone -- through ``compose_batch``, the
one composer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.costing import (
    _PARTS,
    BatchPhaseBreakdown,
    PhaseLedger,
    compose_batch,
    overlap_stages,
)
from repro.nand.timing import NandTiming


@dataclass
class PhaseCost:
    """Raw resource usage of one query phase, as a scalar record."""

    name: str
    pages_per_plane: Dict[int, int] = field(default_factory=dict)
    channel_bytes: Dict[int, float] = field(default_factory=dict)
    core_seconds: float = 0.0
    read_mode: str = "slc_esp"
    with_compute: bool = True  # latch XOR + bit count per page
    with_filter: bool = False  # pass/fail check per page
    ecc_bytes: float = 0.0  # bytes ECC-decoded on the controller
    # Senses skipped because the DRAM mirror served the page.
    dram_seconds: float = 0.0

    def add_channel_bytes(self, channel: int, n_bytes: float) -> None:
        self.channel_bytes[channel] = self.channel_bytes.get(channel, 0.0) + n_bytes

    @property
    def max_pages(self) -> int:
        return max(self.pages_per_plane.values()) if self.pages_per_plane else 0

    @property
    def total_pages(self) -> int:
        return sum(self.pages_per_plane.values())

    @property
    def total_channel_bytes(self) -> float:
        return sum(self.channel_bytes.values())


def query_cost(ledger: PhaseLedger, query: int) -> Optional[PhaseCost]:
    """Query ``query``'s bill in ``ledger`` as a scalar :class:`PhaseCost`
    (``None`` if it did not run the phase)."""
    if query not in ledger.queries:
        return None
    row = int(np.flatnonzero(ledger.queries == query)[0])
    visits = np.bincount(ledger.nand[1][ledger.nand[0] == row]).tolist()
    dram_seconds = 0.0
    for visit_s in ledger.dram[2][ledger.dram[0] == row].tolist():
        dram_seconds += visit_s
    loads = ledger.channel_bytes[row].tolist()
    return PhaseCost(
        name=ledger.name, read_mode=ledger.read_mode,
        with_compute=ledger.with_compute, with_filter=ledger.with_filter,
        pages_per_plane={p: n for p, n in enumerate(visits) if n},
        channel_bytes={c: load for c, load in enumerate(loads) if load},
        core_seconds=ledger.core_seconds[row],
        ecc_bytes=float(ledger.ecc_bytes[row]),
        dram_seconds=dram_seconds,
    )


def one_query_ledger(geometry, pages=0, channel=0.0, core=0.0, **kind) -> PhaseLedger:
    """Query 0 alone in phase ``p``: ``pages`` distinct pages visited on
    plane 0, ``channel`` bytes on channel 0, ``core`` seconds."""
    ledger = PhaseLedger("p", 1, geometry, **kind)
    plane = np.zeros(pages, dtype=np.int64)
    ledger.add_nand_visits(plane, plane, np.arange(pages))
    ledger.channel_bytes[0, 0] = channel
    ledger.core_seconds[0] = core
    return ledger


def compose_solo(ledger: PhaseLedger, timing, flags, ecc_rate=0.0, query=0):
    """``(seconds, components)`` of batch query ``query`` alone on an idle
    device that ran only ``ledger`` (no IBC, no host transfer), composed
    by ``compose_batch`` (unscheduled planes: :func:`scheduled`)."""
    n = int(ledger.queries.max()) + 1
    reports, *_ = compose_batch([(
        timing, flags.pipelining, ecc_rate, [0.0] * n, [0.0] * n,
        {ledger.name: scheduled(ledger)},
    )])
    report = reports[query]
    prefix = f"{ledger.name}_"
    return report.phases[ledger.name], {
        name: seconds for name, seconds in report.components.items()
        if name.startswith(prefix)
    }


@dataclass
class ReferencePhaseCost(PhaseCost):
    """The parent's ``PhaseCost``: the scalar record plus the page and
    stream identities its batch walk amortized senses with."""

    dram_bytes: float = 0.0
    sensed_page_ids: Dict[int, List[int]] = field(default_factory=dict)
    dram_streams: Dict[object, List[float]] = field(default_factory=dict)

    def add_page(self, plane_index: int, n: int = 1, page_id: Optional[int] = None) -> None:
        self.pages_per_plane[plane_index] = self.pages_per_plane.get(plane_index, 0) + n
        if page_id is not None:
            self.sensed_page_ids.setdefault(plane_index, []).append(page_id)

    def add_dram_stream(self, key: object, seconds: float) -> None:
        """One cache-served page visit, identified for batch amortization."""
        self.dram_seconds += seconds
        entry = self.dram_streams.get(key)
        if entry is None:
            self.dram_streams[key] = [1, seconds]
        else:
            entry[0] += 1



def _reference_batch_phase_stages(
    costs: Sequence["ReferencePhaseCost"],
    timing: NandTiming,
    ecc_decode_seconds_per_byte: float = 0.0,
    scheduled_senses: Optional[Mapping[int, int]] = None,
) -> Tuple[float, float, float, float, int, int, int]:
    """One phase across a batch under die/channel occupancy: ``(read,
    transfer, core, dram, iterations)`` -- the arguments of
    :func:`overlap_stages` -- then the unique and total page senses.

    The sequential model charges each query as if the device were idle
    between queries: the phase time is ``sum over queries of (max per-plane
    load)``.  With a resident batch the controller keeps every die and
    channel busy, so the phase time is set by the *occupancy* of the
    critical resource instead:

    * **planes** -- each plane's busy time is its deduplicated sense count
      plus one in-plane compute pass per visit (XOR + fail-bit count: the
      latch logic must run once per broadcast query even on a shared
      sense); planes work in parallel, so read time is the busiest plane.
      Senses are shared **across queries only**: a page every query needs
      once is sensed once, but a query that itself re-reads a page (the
      filter-retry rescan, repeated document-slot reads) pays each of its
      own senses -- those are temporally separated within that query's
      execution, so the batch needs max-over-queries senses per page.
    * **channels** -- TTL entries from all queries share the serial buses;
      transfer time is the busiest channel's total byte load.
    * **core** -- the single REIS core serializes every query's kernels.

    With pipelining the stage classes overlap exactly as in
    :func:`compose_solo`, with the pipeline-fill term amortized over the
    batch's page iterations.  All costs must belong to the same phase (same
    name, read mode and compute/filter settings).

    ``scheduled_senses`` is the page-major execution feedback path: for a
    phase served by a page schedule (:func:`~repro.core.plan.schedule_senses`)
    the caller passes the per-plane count of senses the schedule *really
    performed* and the model bills exactly those, instead of re-deriving
    sharing from page identities.  (The derived count assumes query-major
    service, where a query's own repeat visits are temporally separated; a
    page-major schedule can merge even those, so the executed schedule is
    the ground truth.)  Per-plane visit counts -- which drive the per-visit
    latch compute and the pipeline-fill term -- always come from the costs.
    """
    if not costs:
        raise ValueError("compose_batch_phase needs at least one phase cost")
    first = costs[0]
    for cost in costs[1:]:
        if (
            cost.name != first.name
            or cost.read_mode != first.read_mode
            or cost.with_compute != first.with_compute
            or cost.with_filter != first.with_filter
        ):
            raise ValueError(
                f"phase {cost.name!r} is not homogeneous with {first.name!r}"
            )
    sense_s = timing.read_time(first.read_mode)
    compute_s = 0.0
    if first.with_compute:
        compute_s += timing.t_latch_xor_s + timing.t_bit_count_s
    if first.with_filter:
        compute_s += timing.t_pass_fail_s

    scheduled = scheduled_senses if scheduled_senses is not None else {}
    plane_visits: Dict[int, int] = defaultdict(int)
    plane_tracked: Dict[int, int] = defaultdict(int)
    # plane -> page id -> senses the batch needs: the max number of times
    # any single query senses that page (cross-query visits share; a
    # query's own repeat visits do not).  Derived only for planes the
    # executed schedule does not already answer for.
    plane_senses: Dict[int, Dict[int, int]] = {}
    channel_load: Dict[int, float] = defaultdict(float)
    core_s = 0.0
    dram_s = 0.0
    # page key -> DRAM stream time the batch needs: the max over queries
    # of one query's visits to that page (cross-query visits share the
    # stream out of the mirror, exactly like cross-query senses).
    dram_shared: Dict[object, float] = defaultdict(float)
    for cost in costs:
        tracked_s = 0.0
        for key, (visits, per_visit_s) in cost.dram_streams.items():
            need = visits * per_visit_s
            tracked_s += need
            if need > dram_shared[key]:
                dram_shared[key] = need
        dram_s += cost.dram_seconds - tracked_s
        for plane, n in cost.pages_per_plane.items():
            plane_visits[plane] += n
        for plane, ids in cost.sensed_page_ids.items():
            if plane in scheduled:
                continue
            plane_tracked[plane] += len(ids)
            within_query: Dict[int, int] = defaultdict(int)
            for page_id in ids:
                within_query[page_id] += 1
            needed = plane_senses.setdefault(plane, defaultdict(int))
            for page_id, count in within_query.items():
                if count > needed[page_id]:
                    needed[page_id] = count
        for channel, n_bytes in cost.channel_bytes.items():
            channel_load[channel] += n_bytes
        core_s += cost.core_seconds + cost.ecc_bytes * ecc_decode_seconds_per_byte
    # ``dram_s += sum(dram_shared.values())`` in the parent, spelled out:
    # left to right from 0, which is what ``sum`` does before CPython
    # 3.12's compensated float summation (the one edit to the walk).
    shared_s = 0
    for need in dram_shared.values():
        shared_s += need
    dram_s += shared_s

    read_s = 0.0
    unique_total = 0
    for plane, visits in plane_visits.items():
        if plane in scheduled:
            senses = scheduled[plane]
        else:
            # Visits recorded without a page identity cannot be amortized.
            untracked = visits - plane_tracked[plane]
            senses = sum(plane_senses.get(plane, {}).values()) + untracked
        unique_total += senses
        read_s = max(read_s, senses * sense_s + visits * compute_s)
    transfer_s = max(channel_load.values(), default=0.0) / (
        timing.channel_bandwidth_bps
    )
    return (
        read_s, transfer_s, core_s, dram_s,
        max(plane_visits.values(), default=0),
        unique_total, sum(plane_visits.values()),
    )



def _reference_compose_batch_phase(
    costs, timing, flags, ecc_decode_seconds_per_byte=0.0, scheduled_senses=None
) -> BatchPhaseBreakdown:
    """The parent's ``compose_batch_phase``: the walk composed into one
    phase's breakdown."""
    *stages, unique, total = _reference_batch_phase_stages(
        costs, timing, ecc_decode_seconds_per_byte, scheduled_senses
    )
    name = costs[0].name
    seconds, components = _composed(name, stages, flags.pipelining)
    return BatchPhaseBreakdown(name, seconds, components, unique, total)


def _composed(name, stages, pipelining):
    """``(seconds, components)`` of the phase ``name`` from its stages; the
    DRAM component shows only when billed (``compose_batch``'s rule)."""
    components = {
        f"{name}_{part}": seconds
        for part, seconds in zip(_PARTS, stages) if part != "dram" or seconds
    }
    return float(overlap_stages(*stages, pipelining)), components


def compose_ledger(
    ledger: PhaseLedger, timing, flags, ecc_decode_seconds_per_byte=0.0
) -> BatchPhaseBreakdown:
    """One ledger's batch reduction composed into a phase breakdown (what
    ``compose_batch`` does for each phase of each device; unscheduled
    planes: :func:`scheduled`)."""
    _solo, (*stages, unique, total) = scheduled(ledger).stages(
        timing, ecc_decode_seconds_per_byte
    )
    seconds, components = _composed(ledger.name, stages, flags.pipelining)
    return BatchPhaseBreakdown(ledger.name, seconds, components, unique, total)


def replay(ledger: PhaseLedger) -> List[ReferencePhaseCost]:
    """The objects the parent's kernels would have filled for the queries
    of ``ledger``, in query order: every NAND visit one ``add_page``, every
    mirror-served visit one ``add_dram_stream`` (+ its ``dram_bytes``), each
    query's in its own visit order (the ledger's row order)."""
    costs = []
    for q in ledger.queries.tolist():
        scalar = query_cost(ledger, q)
        costs.append(ReferencePhaseCost(
            name=scalar.name, read_mode=scalar.read_mode,
            with_compute=scalar.with_compute, with_filter=scalar.with_filter,
            channel_bytes=scalar.channel_bytes,
            core_seconds=scalar.core_seconds, ecc_bytes=scalar.ecc_bytes,
        ))
    rows, planes, page_ids = (column.tolist() for column in ledger.nand)
    for row, plane, page_id in zip(rows, planes, page_ids):
        costs[row].add_page(plane, page_id=page_id)
    rows, page_ids, seconds, nbytes = (column.tolist() for column in ledger.dram)
    for row, page_id, visit_s, visit_bytes in zip(rows, page_ids, seconds, nbytes):
        costs[row].add_dram_stream(page_id, visit_s)
        costs[row].dram_bytes += visit_bytes
    return costs


def _runs(ranked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of the runs of equal values in a sorted,
    non-empty column."""
    starts = np.concatenate(([True], ranked[1:] != ranked[:-1])).nonzero()[0]
    return starts, np.concatenate((starts[1:], [ranked.size])) - starts


def derived_senses(ledger: PhaseLedger, rows, planes, page_ids) -> np.ndarray:
    """The parent's ``PhaseLedger._derived_senses``: the senses per plane
    these NAND visits need when no executed schedule answers.  Visits to
    one page share a sense **across queries only**, so a page costs the
    most visits any one query paid it (a query's own repeats -- the retry
    rescan, repeated document slots -- are temporally separated senses)."""
    n_planes, n = ledger.n_planes, ledger.queries.size
    if not rows.size:
        return np.zeros(n_planes, dtype=np.int64)
    pair = (page_ids * n_planes + planes) * n + rows
    pair.sort()
    starts, repeats = _runs(pair)  # one run per (page, query)
    page = pair[starts] // n
    first_of_page, _lengths = _runs(page)
    return np.bincount(
        page[first_of_page] % n_planes,
        weights=np.maximum.reduceat(repeats, first_of_page),
        minlength=n_planes,
    ).astype(np.int64)


def reference_senses(ledger: PhaseLedger) -> np.ndarray:
    """The parent's per-plane senses rule of ``PhaseLedger.stages``: a plane
    an executed schedule sensed on bills exactly those senses, any other
    plane the visits on it derive (:func:`derived_senses`)."""
    rows, planes, page_ids = ledger.nand
    if ledger.senses is None:
        return derived_senses(ledger, rows, planes, page_ids)
    unscheduled = ledger.senses[planes] == 0
    return np.where(ledger.senses > 0, ledger.senses, derived_senses(
        ledger, rows[unscheduled], planes[unscheduled], page_ids[unscheduled]
    ))


def scheduled(ledger: PhaseLedger) -> PhaseLedger:
    """``ledger`` with every plane it visited scheduled: a plane no
    executed schedule answers bills the senses the reference derives for
    it (:func:`reference_senses`), the rule the parent's ``stages`` applied
    itself.  ``stages`` bills executed schedules only and refuses NAND
    visits without one; a test-built ledger goes through here first."""
    if ledger.nand[0].size:
        ledger.senses = reference_senses(ledger)
    return ledger


def scheduled_senses(ledger: PhaseLedger) -> Optional[Dict[int, int]]:
    """The executed schedule's senses as the parent passed them to the
    walk: ``{plane: senses}`` over the planes that sensed, ``None`` for a
    phase no schedule served."""
    if ledger.senses is None:
        return None
    return {
        plane: int(ledger.senses[plane])
        for plane in ledger.senses.nonzero()[0].tolist()
    }
