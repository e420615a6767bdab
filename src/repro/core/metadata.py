"""Metadata filtering extensions (Sec. 7.1).

Two variants are described in the paper's discussion section:

1. **Read-only tag filtering** -- each embedding carries an integer tag in
   its OOB record; during retrieval the die compares the query's tag
   against each candidate's tag with the existing comparator logic and
   drops mismatches before they cross the channel.  This path is built
   into the engine (``metadata_filter=`` on the search calls); this module
   adds the convenience wrapper.

2. **Continuously-updated databases** -- REIS periodically snapshots new
   information into fresh sub-databases, tags each with a timestamp kept
   in the controller DRAM, and routes time-constrained queries to the
   sub-databases whose window matches.  :class:`TimePartitionedStore`
   implements this over any :class:`~repro.core.api.ReisDevice`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import BatchSearchResult, ReisDevice
from repro.core.engine import ReisQueryResult, SearchStats
from repro.rag.documents import Corpus

TIMESTAMP_ENTRY_BYTES = 13  # db signature (4B) + window start/end (2 x 4B) + flags


@dataclass(frozen=True)
class TimeWindow:
    """A half-open time interval ``[start, end)`` in integer ticks."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("time window must have end > start")

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end

    def overlaps(self, other: "TimeWindow") -> bool:
        return self.start < other.end and other.start < self.end


class TaggedSearcher:
    """Read-only metadata filtering over one deployed database."""

    def __init__(self, device: ReisDevice, db_id: int) -> None:
        self.device = device
        self.db_id = db_id
        if not device.database(db_id).has_metadata:
            raise ValueError(
                "database was deployed without metadata tags; pass "
                "metadata_tags= to db_deploy/ivf_deploy"
            )

    def search(
        self,
        queries: np.ndarray,
        tag: int,
        k: int = 10,
        nprobe: Optional[int] = None,
    ) -> BatchSearchResult:
        """Top-k among embeddings whose deployed tag equals ``tag``."""
        db = self.device.database(self.db_id)
        if db.is_ivf:
            return self.device.ivf_search(
                self.db_id, queries, k, nprobe=nprobe, metadata_filter=tag
            )
        return self.device.search(self.db_id, queries, k, metadata_filter=tag)


class TimePartitionedStore:
    """Sub-database-per-time-window layout for real-time knowledge (Sec. 7.1).

    Each ingested snapshot becomes an independent database tagged with its
    time window; the (db signature, window) records live in the controller
    DRAM (13 bytes per sub-database).  A time-constrained query first
    selects the matching sub-databases by comparing timestamps in DRAM,
    then searches each and merges the per-database top-k lists by distance.
    """

    def __init__(self, device: ReisDevice, name: str = "realtime") -> None:
        self.device = device
        self.name = name
        self._windows: Dict[int, TimeWindow] = {}
        self._snapshot_counter = 0

    # ----------------------------------------------------------- ingestion

    def ingest_snapshot(
        self,
        window: TimeWindow,
        vectors: np.ndarray,
        corpus: Optional[Corpus] = None,
        nlist: Optional[int] = None,
        seed: object = 0,
    ) -> int:
        """Deploy one time-window snapshot as a fresh sub-database."""
        for existing in self._windows.values():
            if existing.overlaps(window):
                raise ValueError(f"window {window} overlaps a deployed snapshot")
        label = f"{self.name}/snapshot-{self._snapshot_counter}"
        self._snapshot_counter += 1
        if nlist is not None:
            db_id = self.device.ivf_deploy(
                label, vectors, nlist=nlist, corpus=corpus, seed=seed
            )
        else:
            db_id = self.device.db_deploy(label, vectors, corpus=corpus, seed=seed)
        self._windows[db_id] = window
        self.device.ssd.dram.allocate(
            f"time-index/{self.name}", len(self._windows) * TIMESTAMP_ENTRY_BYTES
        )
        return db_id

    # ------------------------------------------------------------ routing

    def windows(self) -> Dict[int, TimeWindow]:
        return dict(self._windows)

    def databases_for(self, requested: TimeWindow) -> List[int]:
        """Sub-databases whose windows overlap the requested interval.

        This is the DRAM timestamp comparison: no flash access happens
        until the matching sub-databases are known.
        """
        return sorted(
            db_id
            for db_id, window in self._windows.items()
            if window.overlaps(requested)
        )

    def databases_at(self, timestamp: int) -> List[int]:
        return sorted(
            db_id
            for db_id, window in self._windows.items()
            if window.contains(timestamp)
        )

    # -------------------------------------------------------------- search

    def search(
        self,
        query: np.ndarray,
        requested: TimeWindow,
        k: int = 10,
        nprobe: Optional[int] = None,
    ) -> Tuple[List[Tuple[int, int]], ReisQueryResult]:
        """Search every matching sub-database and merge the top-k.

        Returns ``(winners, merged)`` where ``winners`` is a list of
        (db_id, original id) pairs in merged distance order and ``merged``
        aggregates documents, latency and stats (summed field by field)
        across the searched sub-databases.
        """
        db_ids = self.databases_for(requested)
        if not db_ids:
            raise LookupError(f"no snapshot covers {requested}")
        candidates = []  # (distance, db_id, original_id, document)
        total_latency = None
        stats = []
        for db_id in db_ids:
            db = self.device.database(db_id)
            if db.is_ivf:
                batch = self.device.ivf_search(db_id, query, k, nprobe=nprobe)
            else:
                batch = self.device.search(db_id, query, k)
            result = batch[0]
            for rank in range(result.k):
                candidates.append(
                    (
                        int(result.distances[rank]),
                        db_id,
                        int(result.ids[rank]),
                        result.documents[rank] if result.documents else None,
                    )
                )
            stats.append(result.stats)
            if total_latency is None:
                total_latency = result.latency
            else:
                total_latency.merge(result.latency)
        top = heapq.nsmallest(k, candidates, key=lambda c: (c[0], c[1], c[2]))
        winners = [(db_id, original) for _, db_id, original, _ in top]
        merged = ReisQueryResult(
            ids=np.array([original for _, original in winners], dtype=np.int64),
            distances=np.array([c[0] for c in top], dtype=np.int64),
            documents=[c[3] for c in top if c[3] is not None],
            latency=total_latency,
            stats=SearchStats(*map(sum, zip(*stats))),
        )
        return winners, merged
