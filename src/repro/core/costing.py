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

Every bill is a :class:`PhaseLedger` and :func:`compose_batch` is the one
composer: the functional engine's ledgers hold *measured* visits (small
datasets), the analytic twin's and the baselines' one-row ledgers hold
*computed* ones (paper-scale datasets, an even spread), which is what lets
tests cross-validate the two layers.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.core.config import OptFlags
from repro.sim.latency import LatencyReport


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


@dataclass
class BatchPhaseBreakdown:
    """Wall-clock cost of one phase executed for a whole batch.

    Produced by :func:`compose_batch`.  ``total_senses`` counts every
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


# -------------------------------------------------------------- phase ledger


def _running_total(seconds: np.ndarray) -> np.ndarray:
    """Sum over the last (slot) axis, strictly left to right (a running
    accumulate, never numpy's pairwise ``sum``): a report's ``total_s``
    adds up phase by phase in execution order."""
    return np.add.accumulate(seconds, axis=-1)[..., -1]


def _runs(ranked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of the runs of equal values in a sorted,
    non-empty column."""
    starts = np.concatenate(([True], ranked[1:] != ranked[:-1])).nonzero()[0]
    return starts, np.diff(starts, append=ranked.size)


def _sums_in_row_order(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Every group's ``values`` added left to right in row order (the
    :func:`_running_total` idiom over a zero-padded ``(group, position)``
    matrix: the trailing ``+ 0.0`` of a shorter group changes nothing)."""
    order = group.argsort(kind="stable")
    ranked = group[order]
    counts = np.bincount(group, minlength=n_groups)
    padded = np.zeros((n_groups, int(counts.max())))
    padded[ranked, np.arange(ranked.size) - (counts.cumsum() - counts)[ranked]] = (
        values[order]
    )
    return _running_total(padded)


def _appended(columns: tuple, more: tuple) -> tuple:
    """Parallel columns with ``more`` rows after them."""
    if not columns[0].size:
        return more
    return tuple(map(np.concatenate, zip(columns, more)))


@dataclass(eq=False)
class PhaseLedger:
    """Everything one executed phase bills, as one visit table.

    A phase is homogeneous by construction (one name, read mode and
    compute/filter setting) and its kernels append what they hold as
    arrays: ``nand`` visits ``(row, plane, page_id)``, ``dram``-served
    visits ``(row, page_id, seconds, nbytes)``, the ``(row, channel)``
    matrix ``channel_bytes``, per-row ``core_seconds`` / ``ecc_bytes``
    (charged query by query: the core model keeps its own clock) and
    ``senses``, the per-plane senses of the schedules the phase executed
    (``None``: none served it).  Row ``r`` is batch query ``queries[r]``
    -- the phase driver says which ran -- billed what it would pay alone,
    its visits in its own order.  ``docs/architecture.md``, "Cost ledger".
    """

    name: str
    n_queries: InitVar[int]
    geometry: InitVar[FlashGeometry]
    read_mode: str = "slc_esp"
    with_compute: bool = True
    with_filter: bool = False

    def __post_init__(self, n_queries: int, geometry: FlashGeometry) -> None:
        self.n_planes = geometry.total_planes
        self.queries = np.arange(n_queries)
        self.channel_bytes = np.zeros((n_queries, geometry.channels))
        self.core_seconds: List[float] = [0.0] * n_queries
        self.ecc_bytes = np.zeros(n_queries)
        self.senses: Optional[np.ndarray] = None
        no_rows = np.empty(0, dtype=np.int64)
        self.nand = (no_rows,) * 3
        self.dram = (no_rows,) * 4

    def __len__(self) -> int:
        return int(self.queries.size)

    def add_nand_visits(self, rows, planes, page_ids) -> None:
        """Page visits served by a sense (columns; page ids are global)."""
        self.nand = _appended(self.nand, (rows, planes, page_ids))

    def add_dram_visits(self, rows, page_ids, seconds, nbytes) -> None:
        """Page visits the DRAM mirror served: access seconds, byte load."""
        self.dram = _appended(self.dram, (rows, page_ids, seconds, nbytes))

    def add_schedule(self, senses_of: np.ndarray) -> None:
        """The senses an executed page schedule ran per plane (billed as is)."""
        self.senses = senses_of if self.senses is None else self.senses + senses_of

    def _derived_senses(self, rows, planes, page_ids) -> np.ndarray:
        """Senses per plane these visits need when no executed schedule
        answers: visits to one page share a sense **across queries only**,
        so a page costs the most visits any one query paid it (a query's
        own repeats -- the retry rescan, repeated document slots -- are
        temporally separated senses)."""
        if not rows.size:
            return np.zeros(self.n_planes, dtype=np.int64)
        pair = (page_ids * self.n_planes + planes) * len(self) + rows
        pair.sort()
        starts, repeats = _runs(pair)  # one run per (page, query)
        page = pair[starts] // len(self)
        first_of_page, _lengths = _runs(page)
        return np.bincount(
            page[first_of_page] % self.n_planes,
            weights=np.maximum.reduceat(repeats, first_of_page),
            minlength=self.n_planes,
        ).astype(np.int64)

    def _dram_stages(self):
        """``(solo, batch)`` DRAM-stream seconds.  Solo, a row pays every
        visit it made, in visit order.  In a batch a mirrored page's stream
        is shared across queries as senses are: the page costs the largest
        ``visits x seconds-per-visit`` (its first visit's) any one query
        needs, pages in first-seen order; what a row paid beyond its own
        such products (in its first-visit order) stays unshared.  All four
        sums accumulate left to right: their order is part of the clock.
        """
        n = len(self)
        rows, page_ids, seconds, _nbytes = self.dram
        if not rows.size:
            return 0.0, 0.0
        solo = _sums_in_row_order(rows, seconds, n)
        pair = page_ids * n + rows
        order = pair.argsort(kind="stable")
        starts, visits = _runs(pair[order])
        first = order[starts]  # a (page, row) stream's first visit
        need = visits * seconds[first]
        # Streams row by row, each row's in its own first-visit order.
        by_row = np.lexsort((first, rows[first]))
        stream_row, need = rows[first][by_row], need[by_row]
        residue = solo - _sums_in_row_order(stream_row, need, n)
        page = page_ids[first][by_row]
        by_page = page.argsort(kind="stable")
        page_starts, _lengths = _runs(page[by_page])
        shared = np.maximum.reduceat(need[by_page], page_starts)
        first_seen = by_page[page_starts].argsort()
        return solo, float(_running_total(residue) + _running_total(shared[first_seen]))

    def stages(self, timing: NandTiming, ecc_rate: float):
        """``(solo, batch)``: the phase reduced to stage seconds.

        ``solo`` is a ``(5, rows)`` array -- ``read, transfer, core, dram,
        iterations``, the arguments of :func:`overlap_stages` -- of every
        row alone on an idle device.  ``batch`` is the same five for the
        whole batch under occupancy, then the unique and total page senses.
        A **plane** is busy for its senses plus one compute pass per visit
        (XOR + fail-bit count run per query even on a shared sense) and the
        busiest sets the read time; a plane an executed schedule sensed on
        is billed exactly those senses (a page-major schedule merges even
        a query's own repeats), any other what :meth:`_derived_senses`
        finds.  The busiest **channel** carries all queries' bytes, the
        one REIS **core** serializes their kernels, **DRAM** streams share
        (:meth:`_dram_stages`).  Batch core seconds and channel loads add
        up row by row, left to right: the modeled clock's order.
        """
        n = len(self)
        rows, planes, page_ids = self.nand
        visits = np.bincount(
            rows * self.n_planes + planes, minlength=n * self.n_planes
        ).reshape(n, self.n_planes)
        pages = np.maximum.reduce(visits, axis=1)
        bandwidth = timing.channel_bandwidth_bps
        solo = np.empty((5, n))
        solo[0] = pages * page_iteration_time(
            timing, self.read_mode, self.with_compute, self.with_filter
        )
        solo[1] = np.maximum.reduce(self.channel_bytes, axis=1) / bandwidth
        solo[2] = self.core_seconds
        solo[2] += self.ecc_bytes * ecc_rate
        solo[3], dram_s = self._dram_stages()
        solo[4] = pages

        sense_s = timing.read_time(self.read_mode)
        compute_s = 0.0  # not the iteration time less the sense: float order
        if self.with_compute:
            compute_s += timing.t_latch_xor_s + timing.t_bit_count_s
        if self.with_filter:
            compute_s += timing.t_pass_fail_s
        plane_visits = np.add.reduce(visits, axis=0)
        if self.senses is None:
            senses = self._derived_senses(rows, planes, page_ids)
        else:
            senses = self.senses
            unscheduled = senses[planes] == 0
            if unscheduled.any():
                senses = np.where(senses > 0, senses, self._derived_senses(
                    rows[unscheduled], planes[unscheduled], page_ids[unscheduled]
                ))
        # Only planes the batch visited are busy (an idle plane reads 0.0).
        senses = senses * (plane_visits > 0)
        channel_load = np.add.accumulate(self.channel_bytes, axis=0)[-1]
        return solo, (
            float(np.maximum.reduce(senses * sense_s + plane_visits * compute_s)),
            float(np.maximum.reduce(channel_load)) / bandwidth,
            float(_running_total(solo[2])),
            dram_s,
            int(np.maximum.reduce(plane_visits)),
            int(np.add.reduce(senses)),
            int(np.add.reduce(plane_visits)),
        )


# ------------------------------------------------------------ batch composer


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

    A device is ``(timing, pipelining, ecc_rate, ibc_seconds,
    host_seconds, ledgers)``: its NAND timing, whether it pipelines, its
    ECC decode seconds per byte, every query's IBC and host-transfer
    seconds and its :class:`PhaseLedger` per executed phase, in execution
    order -- a served device's or the analytic twin's alike (a
    one-query batch).  ``primary`` devices serve the
    batch side by side and meet at the phase barriers, ``failover``
    devices re-executed a dead shard's slice, ``merge`` is a cluster's
    host-side merge phase.  Returns every query's solo report, the batch
    report, the batch's phase breakdowns and each device's own batch total.

    Every cost is a cell ``(device, column, slot)`` of stage seconds:
    column ``q`` is query ``q`` alone on an idle device, the last column
    the batch under occupancy -- both from :meth:`PhaseLedger.stages`,
    the ledger's ``queries`` naming the columns that ran; slot 0 is the
    IBC broadcast, the last the host transfer, the phases sit between in
    first-seen order (a prefix of one pipeline).  One
    :func:`overlap_stages` call composes all cells and every column folds
    over the device axis alike: a phase costs its *first* slowest primary
    device (``np.argmax``) and shows that device's components; a query's
    ``1 / n_queries`` share of the merge and the slowest failover device's
    whole total ride on top.  Float order is pinned: stage sums in
    :func:`overlap_stages`; totals in slot order, then merge, then
    failover (:func:`_running_total`).  See ``docs/architecture.md``,
    "Sharded batch as a table".
    """
    devices = [*primary, *failover]
    n_primary, n_queries = len(primary), len(devices[0][3])
    names = list(dict.fromkeys(n for *_, ledgers in devices for n in ledgers))
    blocks: List[np.ndarray] = []  # rows: device, column, slot, *overlap_stages args
    counted: Dict[str, List[int]] = {}  # phase -> primaries' [unique, total]
    for d, (timing, _pipelining, ecc_rate, ibc_s, host_s, ledgers) in enumerate(devices):
        fixed = np.zeros((2, 8, n_queries + 1))  # the IBC and host slots
        fixed[:, 0], fixed[:, 1], fixed[1, 2] = d, np.arange(n_queries + 1), -1
        fixed[0, 3, :-1], fixed[1, 3, :-1] = ibc_s, host_s
        # The batch column (still 0.0): the queries', added in order.
        fixed[:, 3, -1] = _running_total(fixed[:, 3])
        blocks += [fixed[0], fixed[1]]
        for slot, name in enumerate(names, 1):
            ledger = ledgers.get(name)
            if ledger is None:
                continue
            solo, (*batch, unique, total) = ledger.stages(timing, ecc_rate)
            if d < n_primary:
                sums = counted.setdefault(name, [0, 0])
                sums[0], sums[1] = sums[0] + unique, sums[1] + total
            block = np.empty((8, len(ledger) + 1))
            block[0], block[2] = d, slot
            block[1, :-1], block[1, -1] = ledger.queries, n_queries
            block[3:, :-1], block[3:, -1] = solo, batch
            blocks.append(block)

    # ---- compose every cell: what did not run costs 0.0 and shows NaN parts
    shape = (len(devices), n_queries + 1, len(names) + 2)
    table = np.concatenate(blocks, axis=1)
    at = tuple(table[:3].astype(np.intp))
    pipelining = np.array([device[1] for device in devices])[at[0]]
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
        if name in counted:
            mine = slice(4 * slot, 4 * slot + 4)
            shown = _ran(part_names[mine], part_rows[-1][mine], billed_only)
            batch_phases[name] = BatchPhaseBreakdown(
                name, report.phases[name], shown, *counted[name]
            )
    if merge is not None:
        batch_phases["merge"] = merge
    if failover:
        redone = sum(
            int(ledger.senses.sum())
            for *_, ledgers in failover
            for ledger in ledgers.values() if ledger.senses is not None
        )
        batch_phases["failover"] = BatchPhaseBreakdown(
            "failover", report.phases["failover"],
            {"failover_recovery": report.phases["failover"]}, redone, redone,
        )
    return reports, report, batch_phases, _running_total(seconds[:, -1]).tolist()
