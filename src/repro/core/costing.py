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
tests cross-validate the two layers.  A ledger bills the senses its phase
executed, never derived ones, and the composer reduces every ledger of a
batch -- all devices, all phases -- in one stacked pass
(:func:`reduce_ledgers`).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import compress, repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.core.config import OptFlags
from repro.sim.latency import LatencyReport
from repro.sim.unique import sorted_unique


_PARTS = ("read", "transfer", "core", "dram")
_NO_ROWS = np.empty(0, dtype=np.int64)  # an empty visit column (appends copy)


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


def _sums_in_row_order(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Every group's ``values`` added left to right in row order: a
    weighted ``np.bincount`` adds its weights one by one in index order,
    from 0.0 (the running total of a zero-padded ``(group, position)``
    matrix, to the bit, for the non-negative seconds billed here)."""
    return np.bincount(group, values, n_groups)


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
    (embedded-core columns added with ``np.add.at`` in execution order) and
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
        # The per-row columns share one zeroed block: channels, core, ECC.
        per_row = np.zeros((n_queries, geometry.channels + 2))
        self.channel_bytes = per_row[:, :-2]
        self.core_seconds, self.ecc_bytes = per_row[:, -2], per_row[:, -1]
        self.senses: Optional[np.ndarray] = None
        self.nand = (_NO_ROWS,) * 3
        self.dram = (_NO_ROWS,) * 4

    def add_nand_visits(self, rows, planes, page_ids) -> None:
        """Page visits served by a sense (columns; page ids are global)."""
        self.nand = _appended(self.nand, (rows, planes, page_ids))

    def add_dram_visits(self, rows, page_ids, seconds, nbytes) -> None:
        """Page visits the DRAM mirror served: access seconds, byte load."""
        self.dram = _appended(self.dram, (rows, page_ids, seconds, nbytes))

    def add_schedule(self, senses_of: np.ndarray) -> None:
        """The senses an executed page schedule ran per plane (billed as is)."""
        self.senses = senses_of if self.senses is None else self.senses + senses_of

    def stages(self, timing: NandTiming, ecc_rate: float):
        """``(solo, batch)``: the phase reduced to stage seconds, the
        one-ledger case of :func:`reduce_ledgers`."""
        solo, batch = reduce_ledgers([(self, timing, ecc_rate)])
        *seconds, iterations, unique, total = batch[:, 0].tolist()
        return solo, (*seconds, int(iterations), int(unique), int(total))


def _dram_stages(rows, page_ids, seconds, n_ledgers: int, n_rows: int):
    """``(solo, batch)`` DRAM-stream seconds of stacked visit columns
    (``rows``: ``ledger * n_rows + row``; ``page_ids`` keyed by ledger).
    Solo, a row pays its visits in visit order; in a batch a mirrored
    page's stream is shared as senses are -- the page costs the largest
    ``visits x seconds-per-visit`` any one query needs, in first-seen page
    order, plus what each row paid beyond its own such products.
    """
    n_cells = n_ledgers * n_rows
    solo = _sums_in_row_order(rows, seconds, n_cells)
    _pairs, first, stream = sorted_unique(page_ids * n_cells + rows)
    need = np.bincount(stream) * seconds[first]  # first: a stream's first visit
    # Streams row by row, each row's in its own first-visit order.
    by_row = (rows[first] * rows.size + first).argsort(kind="stable")
    first, need = first[by_row], need[by_row]
    residue = solo - _sums_in_row_order(rows[first], need, n_cells)
    pages, page_first, page_of = sorted_unique(page_ids[first])
    shared = np.zeros(pages.size)  # the largest need of each page (need >= 0)
    np.maximum.at(shared, page_of, need)
    first_seen = page_first.argsort()
    ledger_of_page = pages[first_seen] % n_ledgers
    return solo, (
        _running_total(residue.reshape(n_ledgers, n_rows))
        + _sums_in_row_order(ledger_of_page, shared[first_seen], n_ledgers)
    )


def reduce_ledgers(bills: Sequence[tuple]) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(ledger, timing, ecc_rate)`` of ``bills`` reduced to stage
    seconds in one stacked pass: ``(solo, batch)``.

    ``solo`` is a ``(5, rows)`` array -- ``read, transfer, core, dram,
    iterations``, the arguments of :func:`overlap_stages` -- of every row
    of every ledger, in order, alone on an idle device; ``batch[:, i]`` is
    the same five for ledger ``i``'s batch under occupancy, then its
    unique and total page senses.  Ledgers stack on a leading axis with
    rows, planes and channels zero-padded: a padded cell adds 0.0 to a
    left-to-right sum and 0 to a max of non-negative loads.  NAND visits
    without an executed schedule are a :class:`ValueError`.  See
    ``docs/architecture.md``, "Cost ledger".
    """
    n_ledgers = len(bills)
    n_rows = max([1, *[ledger.queries.size for ledger, _timing, _rate in bills]])
    n_planes = max([ledger.n_planes for ledger, _timing, _rate in bills])
    n_channels = max([ledger.channel_bytes.shape[1] for ledger, _timing, _rate in bills])
    channel_bytes = np.zeros((n_ledgers, n_rows, n_channels))
    core, ecc_bytes = np.zeros((2, n_ledgers, n_rows))
    ran = np.zeros((n_ledgers, n_rows), dtype=bool)
    senses = np.zeros((n_ledgers, n_planes), dtype=np.int64)
    rates = np.empty((5, n_ledgers))  # iteration, sense, compute s, bandwidth, ECC
    for i, (ledger, timing, ecc_rate) in enumerate(bills):
        n, (rows, _planes, _page_ids) = ledger.queries.size, ledger.nand
        channel_bytes[i, :n, : ledger.channel_bytes.shape[1]] = ledger.channel_bytes
        core[i, :n], ecc_bytes[i, :n] = ledger.core_seconds, ledger.ecc_bytes
        ran[i, :n] = True
        compute_s = 0.0  # not the iteration time less the sense: float order
        if ledger.with_compute:
            compute_s += timing.t_latch_xor_s + timing.t_bit_count_s
        if ledger.with_filter:
            compute_s += timing.t_pass_fail_s
        rates[:, i] = (
            page_iteration_time(
                timing, ledger.read_mode, ledger.with_compute, ledger.with_filter
            ),
            timing.read_time(ledger.read_mode), compute_s,
            timing.channel_bandwidth_bps, ecc_rate,
        )
        if ledger.senses is not None:
            senses[i, : ledger.n_planes] = ledger.senses
        elif rows.size:
            raise ValueError(
                f"phase {ledger.name!r} billed NAND visits without an executed schedule"
            )
    nand = [
        (ledger.nand[0] + i * n_rows) * n_planes + ledger.nand[1]
        for i, (ledger, _timing, _rate) in enumerate(bills)
    ]
    dram = [ledger.dram for ledger, _timing, _rate in bills]
    iteration_s, sense_s, compute_s, bandwidth, ecc_rate = rates[:, :, None]
    visits = np.bincount(
        np.concatenate(nand), minlength=n_ledgers * n_rows * n_planes
    ).reshape(n_ledgers, n_rows, n_planes)
    pages = np.maximum.reduce(visits, axis=2)
    plane_visits = np.add.reduce(visits, axis=1)
    solo = np.zeros((5, n_ledgers, n_rows))
    solo[0] = pages * iteration_s
    solo[1] = np.maximum.reduce(channel_bytes, axis=2) / bandwidth
    solo[2] = core + ecc_bytes * ecc_rate
    solo[4] = pages
    batch = np.zeros((7, n_ledgers))
    rows, page_ids, seconds, _nbytes = map(np.concatenate, zip(*dram))
    if rows.size:
        ledger_of = np.arange(n_ledgers).repeat([rows.size for rows, *_ in dram])
        dram_solo, batch[3] = _dram_stages(
            ledger_of * n_rows + rows, page_ids * n_ledgers + ledger_of,
            seconds, n_ledgers, n_rows,
        )
        solo[3] = dram_solo.reshape(n_ledgers, n_rows)
    senses *= plane_visits > 0  # only planes the batch visited are busy
    batch[0] = np.maximum.reduce(senses * sense_s + plane_visits * compute_s, axis=1)
    channel_load = np.add.accumulate(channel_bytes, axis=1)[:, -1]
    batch[1] = np.maximum.reduce(channel_load, axis=1) / bandwidth[:, 0]
    batch[2] = _running_total(solo[2])
    batch[4] = np.maximum.reduce(plane_visits, axis=1)
    batch[5] = np.add.reduce(senses, axis=1)
    batch[6] = np.add.reduce(plane_visits, axis=1)
    return solo[:, ran], batch


# ------------------------------------------------------------ batch composer


def _shown(names: Sequence[str], table: np.ndarray, billed_only) -> List[Dict[str, float]]:
    """Every row of ``table`` as its named values to show: not NaN (NaN
    marks what did not run) and, for the names in ``billed_only``, not zero
    -- one mask over the whole table, one dict per row built from C."""
    billed = np.array([name in billed_only for name in names], dtype=bool)
    shown = (table == table) & ((table != 0) | ~billed)
    rows = map(zip, repeat(names), table.tolist())
    return list(map(dict, map(compress, rows, shown.tolist())))


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
    order (the analytic twin is a one-query batch).  ``primary`` devices
    serve the batch side by side and meet at the phase barriers,
    ``failover`` devices re-executed a dead shard's slice, ``merge`` is a
    cluster's host-side merge phase.  Returns every query's solo report,
    the batch report, the batch's phase breakdowns and each device's own
    batch total.

    Every cost is a cell ``(device, column, slot)`` of stage seconds:
    column ``q`` is query ``q`` alone on an idle device, the last column
    the batch under occupancy; slot 0 is the IBC broadcast, the last the
    host transfer, the phases sit between in first-seen order.  One
    :func:`reduce_ledgers` pass gives the phase cells of every ledger of
    every device (a ledger's ``queries`` name its columns), one
    :func:`overlap_stages` call composes them, and every column folds over
    the device axis alike: a phase costs its *first* slowest primary
    device (``np.argmax``) and shows that device's components; a query's
    ``1 / n_queries`` share of the merge and the slowest failover device's
    whole total ride on top.  Float order is pinned: stage sums in
    :func:`overlap_stages`; totals in slot order, then merge, then
    failover (:func:`_running_total`).  See ``docs/architecture.md``,
    "Sharded batch as a table".
    """
    devices = [*primary, *failover]
    n_primary, n_queries = len(primary), len(devices[0][3])
    names = list(dict.fromkeys([name for *_, ledgers in devices for name in ledgers]))
    slot_of = {name: slot for slot, name in enumerate(names, 1)}
    # Every ledger of every device, and its (device, slot).
    bills = [
        (ledger, timing, ecc_rate)
        for timing, _pipelining, ecc_rate, _ibc, _host, ledgers in devices
        for ledger in ledgers.values()
    ]
    cells = [
        (d, slot_of[name]) for d, (*_, ledgers) in enumerate(devices) for name in ledgers
    ]

    # ---- compose every cell: what did not run costs 0.0 and shows NaN parts
    shape = (len(devices), n_queries + 1, len(names) + 2)
    seconds = np.zeros(shape)
    parts = np.zeros((*shape, len(_PARTS))) + np.nan
    # IBC and host are one-stage slots (``overlap_stages(x, 0, 0, 0, 0)``
    # is ``x``); their batch column adds the queries' up in order.
    fixed = np.zeros((len(devices), 2, n_queries + 1))
    fixed[:, :, :-1] = [(ibc_s, host_s) for _t, _p, _e, ibc_s, host_s, _l in devices]
    fixed[:, :, -1] = _running_total(fixed)
    seconds[:, :, [0, -1]] = parts[:, :, [0, -1], 0] = fixed.swapaxes(1, 2)
    parts[:, :, [0, -1], 1:] = 0.0
    counted = np.zeros((3, len(names) + 1), dtype=np.int64)
    if bills:
        solo, batch = reduce_ledgers(bills)
        device, slot = np.array(cells).T
        sizes = [ledger.queries.size for ledger, _timing, _rate in bills]
        queries = [ledger.queries for ledger, _timing, _rate in bills]
        at = (
            np.concatenate([device.repeat(sizes), device]),
            np.concatenate([*queries, np.zeros(len(bills), dtype=np.int64) + n_queries]),
            np.concatenate([slot.repeat(sizes), slot]),
        )
        stages = np.concatenate([solo, batch[:5]], axis=1)
        pipelining = np.array([pipelines for _timing, pipelines, *_ in devices])
        seconds[at] = overlap_stages(*stages, pipelining[at[0]])
        parts[at] = stages[:4].T
        # Per phase, the primaries' ledgers and their unique and total senses.
        of_primary = device < n_primary
        counted = np.array([
            np.bincount(slot[of_primary], weights, len(names) + 1)
            for weights in (None, *batch[5:, of_primary])
        ]).astype(np.int64)

    # ---- fold the device axis, column by column
    winner = seconds[:n_primary].argmax(axis=0)
    columns, slots = np.arange(shape[1])[:, None], np.arange(shape[2])
    best = seconds[winner, columns, slots]
    total = _running_total(best)
    best[np.logical_and.reduce(np.isnan(parts[:n_primary, :, :, 0]), axis=0)] = np.nan
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
        recovery = np.maximum.reduce(_running_total(seconds[n_primary:]), axis=0)
        total = total + recovery
    # IBC and host are one-stage phases; the host transfer and a DRAM
    # service show only when billed.
    slot_names = ["ibc", *names, "host"]
    part_names = [f"{name}_{part}" for name in slot_names for part in _PARTS]
    part_names[:4], part_names[-4:] = ["ibc", "", "", ""], ["host_transfer", "", "", ""]
    billed_only = {"", "host", "host_transfer", *[f"{name}_dram" for name in names]}
    phase_rows = _shown(slot_names, best, billed_only)
    part_rows = _shown(part_names, won_parts, billed_only)
    for phases, components, (merged_s, merged_parts) in zip(phase_rows, part_rows, merges or ()):
        phases["merge"] = merged_s
        components.update(merged_parts)
    recovered = [] if recovery is None else recovery.tolist()
    for phases, components, recovered_s in zip(phase_rows, part_rows, recovered):
        phases["failover"] = components["failover_recovery"] = recovered_s
    reports = list(map(LatencyReport, total.tolist(), part_rows, phase_rows))
    report = reports.pop()

    batch_phases: Dict[str, BatchPhaseBreakdown] = {}
    for slot, name in enumerate(names, 1):
        ran, unique, total = counted[:, slot].tolist()
        if ran:
            mine, won = part_names[4 * slot:4 * slot + 4], report.components
            shown = {part: won[part] for part in mine if part in won}
            batch_phases[name] = BatchPhaseBreakdown(
                name, report.phases[name], shown, unique, total
            )
    if merge is not None:
        batch_phases["merge"] = merge
    if failover:
        # The scan phases' senses: what the replacement runs re-did.
        redone = sum([
            int(np.add.reduce(ledger.senses))
            for *_, ledgers in failover
            for ledger in ledgers.values()
            if ledger.senses is not None and ledger.read_mode != "tlc"
        ])
        batch_phases["failover"] = BatchPhaseBreakdown(
            "failover", report.phases["failover"],
            {"failover_recovery": report.phases["failover"]}, redone, redone,
        )
    return reports, report, batch_phases, _running_total(seconds[:, -1]).tolist()
