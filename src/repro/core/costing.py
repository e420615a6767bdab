"""Cost composition shared by the functional engine and the analytic model.

A query's execution decomposes into *phases* (coarse search, fine search,
reranking, document fetch).  Each phase has three resource classes that the
paper's pipelining optimization overlaps (Sec. 4.3.4):

* **read** -- page senses + in-plane latch operations, parallel over planes;
  the phase read time is the maximum per-plane load.
* **transfer** -- TTL entries crossing the flash channels; channels run in
  parallel, each is a serial bus, so transfer time is the max per-channel
  load.
* **core** -- quickselect / rerank / sort kernels on the (single) embedded
  core REIS is allowed to use.

With pipelining the phase time approaches the bottleneck class plus a
pipeline-fill term; without it the classes execute back-to-back.

The same composition runs on *measured* costs (functional simulation,
small datasets) and on *computed* costs (analytic model, paper-scale
datasets), which is what lets tests cross-validate the two layers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.core.config import OptFlags
from repro.sim.latency import LatencyReport


@dataclass
class PhaseCost:
    """Raw resource usage of one query phase.

    The functional engine fills ``pages_per_plane`` / ``channel_bytes``
    with exact per-resource loads.  The analytic twin uses the
    :func:`spread_pages` / :func:`spread_channel_bytes` helpers, which set
    the same fields from an even distribution without materializing one
    dict entry per plane.
    """

    name: str
    pages_per_plane: Dict[int, int] = field(default_factory=dict)
    channel_bytes: Dict[int, float] = field(default_factory=dict)
    core_seconds: float = 0.0
    read_mode: str = "slc_esp"
    with_compute: bool = True  # latch XOR + bit count per page
    with_filter: bool = False  # pass/fail check per page
    ecc_bytes: float = 0.0  # bytes ECC-decoded on the controller
    # DRAM-cache service: senses skipped because the page was mirrored in
    # the internal DRAM.  Hits bill InternalDram.access_time instead of the
    # page-sense latency and carry their byte load for the energy model.
    dram_seconds: float = 0.0
    dram_bytes: float = 0.0
    total_pages_override: int = 0  # analytic: true total when spread evenly
    # Identities of the sensed pages (global linear page index), per plane.
    # The functional engine records them so the batch executor can amortize
    # senses across queries that touch the same page; the analytic twin
    # leaves them empty.
    sensed_page_ids: Dict[int, List[int]] = field(default_factory=dict)
    # Identities of the DRAM-cache streams ((region, page) -> [visits,
    # seconds per visit]).  Mirrors ``sensed_page_ids``: the batch executor
    # streams each mirrored page out of the DRAM once for every query that
    # wants it functionally, but cross-query visits share the stream, so
    # compose_batch_phase amortizes them the same way it shares senses.
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

    def add_channel_bytes(self, channel: int, n_bytes: float) -> None:
        self.channel_bytes[channel] = self.channel_bytes.get(channel, 0.0) + n_bytes

    @property
    def max_pages(self) -> int:
        return max(self.pages_per_plane.values()) if self.pages_per_plane else 0

    @property
    def total_pages(self) -> int:
        if self.total_pages_override:
            return self.total_pages_override
        return sum(self.pages_per_plane.values())

    @property
    def total_channel_bytes(self) -> float:
        return sum(self.channel_bytes.values())


def spread_pages(cost: PhaseCost, total_pages: int, total_planes: int) -> None:
    """Distribute ``total_pages`` evenly over all planes (analytic form).

    Regions stripe plane-major, so the per-plane load is the ceiling split;
    only the maximum is recorded (compose_phase needs the critical plane)
    while the true total is kept for the energy counters.
    """
    if total_pages <= 0:
        return
    per_plane = -(-total_pages // total_planes)  # ceiling division
    cost.pages_per_plane[0] = cost.pages_per_plane.get(0, 0) + per_plane
    cost.total_pages_override += total_pages


def spread_channel_bytes(
    cost: PhaseCost, total_bytes: float, channels: int
) -> None:
    """Distribute ``total_bytes`` evenly over all channels (analytic form)."""
    if total_bytes <= 0:
        return
    per_channel = total_bytes / channels
    for channel in range(channels):
        cost.add_channel_bytes(channel, per_channel)


_PARTS = ("read", "transfer", "core", "dram")


def page_iteration_time(
    timing: NandTiming, read_mode: str, with_compute: bool, with_filter: bool
) -> float:
    """Time for one read + in-plane compute iteration on a plane."""
    seconds = timing.read_time(read_mode)
    if with_compute:
        seconds += timing.t_latch_xor_s + timing.t_bit_count_s
    if with_filter:
        seconds += timing.t_pass_fail_s
    return seconds


def overlap_stages(read_s, transfer_s, core_s, dram_s, iterations, pipelining):
    """A phase's seconds from its four stage classes (Sec. 4.3.4).

    The one place the pipelining rule is written; elementwise, so the batch
    composer evaluates a whole ``(device, query, phase)`` grid in one call.
    Float order is part of the modeled clock: the stage sum is ``((read +
    transfer) + core) + dram``.

    With pipelining the bottleneck stage sets throughput and the other
    stages amortize over the phase's page ``iterations`` (the
    pipeline-fill term); without it the classes execute back to back.
    """
    stage_sum = ((read_s + transfer_s) + core_s) + dram_s
    bottleneck = np.maximum(np.maximum(read_s, transfer_s), np.maximum(core_s, dram_s))
    piped = bottleneck + (stage_sum - bottleneck) / np.maximum(iterations, 1)
    return np.where(pipelining, piped, stage_sum)


def phase_stages(
    cost: PhaseCost, iteration_s: float, timing: NandTiming, ecc_rate: float
) -> Tuple[float, float, float, float, int]:
    """``(read, transfer, core, dram, iterations)`` of one query's phase on
    an otherwise idle device -- the arguments of :func:`overlap_stages` --
    given its :func:`page_iteration_time`."""
    pages = max(cost.pages_per_plane.values(), default=0)
    return (
        pages * iteration_s,
        max(cost.channel_bytes.values(), default=0.0) / timing.channel_bandwidth_bps,
        cost.core_seconds + cost.ecc_bytes * ecc_rate,
        cost.dram_seconds,
        pages,
    )


def _composed(
    name: str, stages: Sequence[float], pipelining: bool
) -> Tuple[float, Dict[str, float]]:
    """``(seconds, components)`` of the phase ``name`` from its stages; the
    DRAM component shows only when billed."""
    components = {
        f"{name}_{part}": seconds
        for part, seconds in zip(_PARTS, stages) if part != "dram" or seconds
    }
    return float(overlap_stages(*stages, pipelining)), components


def compose_phase(
    cost: PhaseCost,
    timing: NandTiming,
    flags: OptFlags,
    ecc_decode_seconds_per_byte: float = 0.0,
) -> Tuple[float, Dict[str, float]]:
    """Compose a phase's wall-clock time from its resource usage.

    Returns (phase_seconds, component breakdown).
    """
    iteration_s = page_iteration_time(
        timing, cost.read_mode, cost.with_compute, cost.with_filter
    )
    stages = phase_stages(cost, iteration_s, timing, ecc_decode_seconds_per_byte)
    return _composed(cost.name, stages, flags.pipelining)


@dataclass
class BatchPhaseBreakdown:
    """Wall-clock cost of one phase executed for a whole batch.

    Produced by :func:`compose_batch_phase`.  ``total_senses`` counts every
    page visit any query in the batch made during the phase;
    ``unique_senses`` counts the page senses the device actually performs
    after amortizing visits to the same physical page across queries.
    """

    name: str
    seconds: float
    components: Dict[str, float]
    unique_senses: int
    total_senses: int

    @property
    def senses_amortized(self) -> int:
        """Page senses saved by sharing one sense among N queries."""
        return self.total_senses - self.unique_senses


def batch_phase_stages(
    costs: Sequence[PhaseCost],
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
    :func:`compose_phase`, with the pipeline-fill term amortized over the
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
    dram_s += sum(dram_shared.values())

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


def compose_batch_phase(
    costs: Sequence[PhaseCost],
    timing: NandTiming,
    flags: OptFlags,
    ecc_decode_seconds_per_byte: float = 0.0,
    scheduled_senses: Optional[Mapping[int, int]] = None,
) -> BatchPhaseBreakdown:
    """:func:`batch_phase_stages` composed into one phase's breakdown."""
    *stages, unique, total = batch_phase_stages(
        costs, timing, ecc_decode_seconds_per_byte, scheduled_senses
    )
    name = costs[0].name
    seconds, components = _composed(name, stages, flags.pipelining)
    return BatchPhaseBreakdown(name, seconds, components, unique, total)


def ibc_time(
    geometry: FlashGeometry,
    timing: NandTiming,
    code_bytes: int,
    flags: OptFlags,
) -> float:
    """Input-broadcasting cost per query (Sec. 4.3.2 step 1, Sec. 4.3.4).

    Each die's cache latches are filled with page-aligned duplicates of
    the query through the shared channel, so the fills of the dies on one
    channel serialize.  Without MPIBC each plane needs its own fill;
    with MPIBC all planes of a die latch the broadcast simultaneously,
    dividing the per-die fill count by planes-per-die (the paper's stated
    "factor equivalent to the number of planes per die").
    """
    code_transfer = geometry.dies_per_channel * code_bytes / timing.channel_bandwidth_bps
    # The duplicate-fill burst into each plane's cache latch moves one
    # subpage per plane through the die I/O (the latch tiles it further).
    fill_once = geometry.subpage_bytes / timing.channel_bandwidth_bps
    fills_per_die = 1 if flags.multi_plane_ibc else geometry.planes_per_die
    return code_transfer + geometry.dies_per_channel * fills_per_die * fill_once


def merge_phase_totals(
    phases: Dict[str, Tuple[float, Dict[str, float]]], ibc_seconds: float
) -> LatencyReport:
    """Assemble per-phase totals + IBC into a query latency report."""
    report = LatencyReport()
    report.add_component("ibc", ibc_seconds)
    report.add_phase("ibc", ibc_seconds)
    report.total_s += ibc_seconds
    for phase_name, (total, components) in phases.items():
        report.total_s += total
        report.add_phase(phase_name, total)
        for name, seconds in components.items():
            report.add_component(name, seconds)
    return report


# ------------------------------------------------------------ batch composer


def _running_total(seconds: np.ndarray) -> np.ndarray:
    """Sum over the last (slot) axis, strictly left to right (a running
    accumulate, never numpy's pairwise ``sum``): a report's ``total_s``
    adds up phase by phase in execution order."""
    return np.add.accumulate(seconds, axis=-1)[..., -1]


def _ran(names: Sequence[str], values: Sequence[float], billed_only) -> Dict[str, float]:
    """The named values to show: not NaN (NaN marks what did not run) and,
    for the names in ``billed_only``, not zero."""
    return {
        name: value for name, value in zip(names, values)
        if value == value and (value or name not in billed_only)
    }


def compose_batch(
    primary: Sequence[tuple],
    failover: Sequence[tuple] = (),
    merge: Optional[BatchPhaseBreakdown] = None,
) -> Tuple[List[LatencyReport], LatencyReport, Dict[str, BatchPhaseBreakdown], List[float]]:
    """Compose a served batch -- the one composer behind
    :meth:`BatchExecutor.execute <repro.core.batch.BatchExecutor.execute>`
    (one device) and :class:`~repro.core.shard.ShardRouter` (a cluster).

    A device is ``(engine, contexts, scheduled_senses)``: one context per
    query carrying ``phase_costs`` (in execution order), ``ibc_seconds``
    and ``host_seconds``; the executed scan schedules' per-plane senses by
    phase.  ``primary`` devices serve the batch side by side and meet at
    the phase barriers, ``failover`` devices re-executed a dead shard's
    slice, ``merge`` is a cluster's host-side merge phase.  Returns every
    query's solo report, the batch report, the batch's phase breakdowns
    and each device's own batch total.

    Every cost is a cell ``(device, column, slot)`` of stage seconds:
    column ``q`` is query ``q`` alone on an idle device
    (:func:`phase_stages`), the last column the batch under occupancy
    (:func:`batch_phase_stages`); slot 0 is the IBC broadcast, the last
    the host transfer, the phases sit between in first-seen order (every
    context's phases are a prefix of one pipeline).  One
    :func:`overlap_stages` call composes all cells and every column folds
    over the device axis alike: a phase costs its *first* slowest primary
    device (``np.argmax``) and shows that device's components; a query's
    ``1 / n_queries`` share of the merge and the slowest failover device's
    whole total ride on top.  Float order is pinned: stage sums in
    :func:`overlap_stages`; totals in slot order, then merge, then failover
    (:func:`_running_total`).  See ``docs/architecture.md``, "Sharded
    batch as a table".
    """
    devices = [*primary, *failover]
    n_primary, n_queries = len(primary), len(devices[0][1])
    names = list(dict.fromkeys(
        name for _e, contexts, _s in devices for ctx in contexts
        for name in ctx.phase_costs
    ))
    cells: List[tuple] = []  # (device, column, slot, *overlap_stages arguments)
    senses: List[Dict[str, tuple]] = []  # per device: phase -> (unique, total)
    for d, (engine, contexts, scheduled) in enumerate(devices):
        timing, ecc_rate = engine.timing, engine.ssd.ecc.decode_time(1)
        fixed = [(ctx.ibc_seconds, ctx.host_seconds) for ctx in contexts]
        ibc_s = host_s = 0.0  # the batch column: the queries', added in order
        for ibc, host in fixed:
            ibc_s += ibc
            host_s += host
        cells += [
            (d, column, slot, seconds, 0.0, 0.0, 0.0, 0)
            for column, pair in enumerate([*fixed, (ibc_s, host_s)])
            for slot, seconds in zip((0, -1), pair)
        ]
        senses.append({})
        for slot, name in enumerate(names, 1):
            ran = [
                (q, ctx.phase_costs[name])
                for q, ctx in enumerate(contexts) if name in ctx.phase_costs
            ]
            if not ran:
                continue
            *stages, unique, total = batch_phase_stages(
                [cost for _q, cost in ran], timing, ecc_rate, scheduled.get(name)
            )
            senses[d][name] = (unique, total)
            cells.append((d, n_queries, slot, *stages))
            first = ran[0][1]  # a phase is homogeneous (checked above)
            iteration_s = page_iteration_time(
                timing, first.read_mode, first.with_compute, first.with_filter
            )
            cells += [
                (d, q, slot, *phase_stages(cost, iteration_s, timing, ecc_rate))
                for q, cost in ran
            ]

    # ---- compose every cell: what did not run costs 0.0 and shows NaN parts
    shape = (len(devices), n_queries + 1, len(names) + 2)
    table = np.array(cells).T
    at = tuple(table[:3].astype(np.intp))
    pipelining = np.array([e.flags.pipelining for e, _c, _s in devices])[at[0]]
    seconds = np.zeros(shape)
    seconds[at] = overlap_stages(*table[3:], pipelining)
    parts = np.full((*shape, len(_PARTS)), np.nan)
    parts[at] = table[3:7].T

    # ---- fold the device axis, column by column
    winner = seconds[:n_primary].argmax(axis=0)
    columns, slots = np.arange(shape[1])[:, None], np.arange(shape[2])
    best = seconds[winner, columns, slots]
    total = _running_total(best)
    best[np.isnan(parts[:n_primary, :, :, 0]).all(axis=0)] = np.nan
    won_parts = parts[winner, columns, slots].reshape(shape[1], -1)
    merges = recovery = None
    if merge is not None:
        per_query = max(n_queries, 1)
        share = (
            merge.seconds / per_query,
            {name: s / per_query for name, s in merge.components.items()},
        )
        merges = [share] * n_queries + [(merge.seconds, merge.components)]
        total = total + [seconds for seconds, _components in merges]
    if failover:
        recovery = _running_total(seconds[n_primary:]).max(axis=0)
        total = total + recovery
    # IBC and host are one-stage phases; the host transfer and a DRAM
    # service show only when billed.
    slot_names = ["ibc", *names, "host"]
    part_names = [f"{name}_{part}" for name in slot_names for part in _PARTS]
    part_names[:4], part_names[-4:] = ["ibc", "", "", ""], ["host_transfer", "", "", ""]
    billed_only = {"", "host", "host_transfer", *[f"{name}_dram" for name in names]}
    reports, part_rows = [], won_parts.tolist()
    for column, (total_s, slot_row, part_row) in enumerate(
        zip(total.tolist(), best.tolist(), part_rows)
    ):
        phases = _ran(slot_names, slot_row, billed_only)
        components = _ran(part_names, part_row, billed_only)
        if merges is not None:
            phases["merge"] = merges[column][0]
            components.update(merges[column][1])
        if recovery is not None:
            phases["failover"] = components["failover_recovery"] = float(
                recovery[column]
            )
        reports.append(LatencyReport(total_s, components, phases))
    report = reports.pop()

    batch_phases: Dict[str, BatchPhaseBreakdown] = {}
    for slot, name in enumerate(names, 1):
        counts = [s[name] for s in senses[:n_primary] if name in s]
        if counts:
            unique, visits = map(sum, zip(*counts))
            mine = slice(4 * slot, 4 * slot + 4)
            shown = _ran(part_names[mine], part_rows[-1][mine], billed_only)
            batch_phases[name] = BatchPhaseBreakdown(
                name, report.phases[name], shown, unique, visits
            )
    if merge is not None:
        batch_phases["merge"] = merge
    if failover:
        redone = sum(
            sum(planes.values())
            for _engine, _contexts, scheduled in failover
            for planes in scheduled.values()
        )
        batch_phases["failover"] = BatchPhaseBreakdown(
            "failover", report.phases["failover"],
            {"failover_recovery": report.phases["failover"]}, redone, redone,
        )
    return reports, report, batch_phases, _running_total(seconds[:, -1]).tolist()
