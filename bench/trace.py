"""Span tracing from outside the program (traced pass only).

The tracer wraps the public callables in :data:`TARGETS` where the
benchmark process imports them -- class attributes are replaced on the
class, module functions in every loaded module that holds a reference --
and never edits ``src/``.  A wrapper appends one record per call,
``[target, start, end, parent, batch_id, section]``, to an in-memory list;
everything else is computed after the pass:

* a span's **self time** is its duration minus the part of it that its
  child spans cover (children of one parent never overlap: the program is
  single-threaded);
* a metric's ``*_host_s`` is the summed self time of its targets, so the
  per-layer numbers add up to the traced wall instead of overlapping;
* the three set-up metrics (datagen, k-means, deploy) are reported as
  **inclusive** time, because they are the parts ``setup_s`` splits into.

Spans of one served batch share a ``batch_id``: it advances when a target
marked ``batch`` is entered outside any other such target.  End-to-end
metrics are never taken from a traced pass; the ratio of traced to
untraced host time is reported as ``bench.trace_overhead_ratio``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

# (``module:attr`` path, per-layer metric the self time is charged to).
# ``!`` after the path marks a batch boundary.  A target that no longer
# exists is skipped and listed in ``Tracer.missing`` -- its metric reads 0
# -- so a later change that deletes a callable cannot crash the benchmark.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.nand.plane:Plane.read_page", "nand.sense_host_s"),
    ("repro.nand.die:Die.multi_plane_read", "nand.sense_host_s"),
    ("repro.nand.errors:BitErrorModel.corrupt", "nand.sense_host_s"),
    ("repro.nand.errors:BitErrorModel.corrupt_traced", "nand.sense_host_s"),
    ("repro.nand.plane:Plane.multi_query_distances", "nand.latch_host_s"),
    ("repro.nand.die:Die.multi_query_distances", "nand.latch_host_s"),
    ("repro.nand.latches:FailBitCounter.count_segments_array", "nand.latch_host_s"),
    ("repro.nand.latches:FailBitCounter.count_segments", "nand.latch_host_s"),
    ("repro.nand.latches:FailBitCounter.count_xor_segments", "nand.latch_host_s"),
    ("repro.nand.latches:FailBitCounter.count_all", "nand.latch_host_s"),
    ("repro.nand.ecc:EccEngine.correct", "nand.ecc_host_s"),
    ("repro.nand.ecc:EccEngine.correct_batch", "nand.ecc_host_s"),
    ("repro.nand.plane:Plane.program_page", "nand.program_host_s"),
    ("repro.nand.plane:Plane.erase_block", "nand.program_host_s"),
    ("repro.ssd.ftl:PageLevelFtl.write", "ssd.ftl_host_s"),
    ("repro.ssd.ftl:PageLevelFtl.translate", "ssd.ftl_host_s"),
    ("repro.ssd.ftl:PageLevelFtl.remap", "ssd.ftl_host_s"),
    ("repro.core.engine:InStorageAnnsEngine.scan_page_run", "core.engine.kernel_host_s"),
    ("repro.core.engine:InStorageAnnsEngine.scan_page_cached", "core.engine.kernel_host_s"),
    ("repro.core.engine:InStorageAnnsEngine.scan_page_windows", "core.engine.kernel_host_s"),
    ("repro.core.batch:BatchExecutor.prepare", "core.batch.execute_host_s"),
    ("repro.core.batch:BatchExecutor.run_ibc", "core.batch.execute_host_s"),
    ("repro.core.batch:BatchExecutor.execute!", "core.batch.execute_host_s"),
    ("repro.core.costing:compose_batch_phase", "core.costing.compose_host_s"),
    ("repro.core.costing:compose_phase", "core.costing.compose_host_s"),
    ("repro.core.plan:build_page_schedule", "core.plan.schedule_build_host_s"),
    ("repro.core.plan:schedule_senses_cached", "core.plan.schedule_build_host_s"),
    ("repro.core.queue:BatchFormer.estimate", "core.queue.forming_host_s"),
    ("repro.core.queue:BatchFormer.should_close", "core.queue.forming_host_s"),
    ("repro.core.queue:SubmissionQueue.submit", "core.queue.step_host_s"),
    ("repro.core.queue:SubmissionQueue.step!", "core.queue.step_host_s"),
    ("repro.core.cache:PageCache.lookup", "core.cache.lookup_host_s"),
    ("repro.core.cache:PageCache.peek", "core.cache.lookup_host_s"),
    ("repro.core.cache:PageCache.admit", "core.cache.admit_host_s"),
    ("repro.core.shard:ShardRouter.execute!", "core.shard.router_self_host_s"),
    ("repro.core.ingest:IngestManager.apply", "core.ingest.apply_host_s"),
    ("repro.core.ingest:IngestManager.compact", "core.ingest.compact_host_s"),
    ("repro.core.layout:DatabaseDeployer.deploy", "core.layout.deploy_host_s"),
    ("repro.ann.ivf:build_ivf_model", "ann.kmeans_host_s"),
    ("repro.rag.embeddings:make_clustered_embeddings", "rag.datagen_host_s"),
    ("repro.rag.embeddings:make_queries", "rag.datagen_host_s"),
)

# Metric that collects the calls a ShardRouter makes into one shard's
# executor/engine (see :meth:`Tracer.watch_shards`).
SHARD_METRIC = "core.shard.per_shard_glue_host_s"

HOST_METRICS = tuple(dict.fromkeys(m for _t, m in TARGETS)) + (SHARD_METRIC,)
INCLUSIVE_METRICS = (
    "core.layout.deploy_host_s", "ann.kmeans_host_s", "rag.datagen_host_s",
)

SECTIONS = ("setup", "pass")
# Spans written to the Chrome-trace file (a full pass records more).
MAX_DUMPED_SPANS = 50_000


class _ShardProxy:
    """Stands in for one shard's ``BatchExecutor`` inside a ``ShardRouter``.

    Every method the router calls on it (or on its ``engine``) is recorded
    as one span named after the shard, so per-shard host time is measured
    at the router->shard boundary without naming a private method.  The
    call itself runs on the real object, whose own references are real, so
    proxy spans never nest inside each other.
    """

    __slots__ = ("_target", "_tracer", "_name_id")

    def __init__(self, target, tracer: "Tracer", name_id: int) -> None:
        self._target = target
        self._tracer = tracer
        self._name_id = name_id

    def __getattr__(self, name: str):
        value = getattr(self._target, name)
        if name == "engine":
            return _ShardProxy(value, self._tracer, self._name_id)
        if inspect.ismethod(value):
            return self._tracer._wrap(value, self._name_id, batch=False)
        return value


class Tracer:
    """Installs the wrappers, holds the spans, computes self times."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.metric_of: List[str] = []
        self.spans: List[list] = []
        self.missing: List[str] = []
        self.batch_id = 0
        self.section = 0  # index into SECTIONS
        self._stack: List[int] = [-1]
        self._batch_depth = 0
        self._undo: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrappers

    def _name(self, name: str, metric: str) -> int:
        self.names.append(name)
        self.metric_of.append(metric)
        return len(self.names) - 1

    def _wrap(self, fn, name_id: int, batch: bool):
        spans, stack, tracer = self.spans, self._stack, self

        def span(*args, **kwargs):
            record = [
                name_id, perf_counter(), 0.0, stack[-1],
                tracer.batch_id, tracer.section,
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        def batch_span(*args, **kwargs):
            if tracer._batch_depth == 0:
                tracer.batch_id += 1
            tracer._batch_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                tracer._batch_depth -= 1

        wrapper = batch_span if batch else span
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every target by its timing wrapper."""
        for path, metric in TARGETS:
            batch = path.endswith("!")
            module_name, attr = path.rstrip("!").split(":")
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, leaf = attr.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(path.rstrip("!"))
                continue
            wrapper = self._wrap(original, self._name(attr, metric), batch)
            if parents:
                holders = [owner]
            else:
                # ``from module import fn`` copies the reference: patch
                # every loaded module that holds it (the import sites).
                holders = [
                    m for m in list(sys.modules.values())
                    if getattr(m, "__dict__", {}).get(leaf) is original
                ]
            for holder in holders:
                self._undo.append((holder, leaf, original))
                setattr(holder, leaf, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, leaf, original = self._undo.pop()
            setattr(holder, leaf, original)

    def watch_shards(self, router) -> None:
        """Time the router->shard boundary of a ``ShardRouter``."""
        router.executors = [
            _ShardProxy(executor, self, self._name(f"shard{i}", SHARD_METRIC))
            for i, executor in enumerate(router.executors)
        ]

    def begin(self, section: str) -> None:
        self.section = SECTIONS.index(section)

    # ------------------------------------------------------------ analysis

    def _columns(self):
        if not self.spans:
            empty = np.empty(0)
            return empty.astype(int), empty, empty.astype(int), empty.astype(int)
        table = np.array(self.spans, dtype=np.float64)
        name = table[:, 0].astype(np.int64)
        duration = table[:, 2] - table[:, 1]
        parent = table[:, 3].astype(np.int64)
        section = table[:, 5].astype(np.int64)
        return name, duration, parent, section

    def host_seconds(self):
        """``(section -> metric -> seconds, section -> covered seconds)``:
        self time per metric (inclusive for the set-up metrics), and all
        self time of the section, i.e. the wall inside any named span."""
        name, duration, parent, section = self._columns()
        n = len(duration)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        self_time = duration - child_time
        metric_ids = {m: i for i, m in enumerate(HOST_METRICS)}
        span_metric = np.array(
            [metric_ids[self.metric_of[i]] for i in name], dtype=np.int64
        )
        seconds: Dict[str, Dict[str, float]] = {}
        covered: Dict[str, float] = {}
        for index, label in enumerate(SECTIONS):
            mask = section == index
            sums = np.bincount(
                span_metric[mask], weights=self_time[mask],
                minlength=len(HOST_METRICS),
            )
            inclusive = np.bincount(
                span_metric[mask], weights=duration[mask],
                minlength=len(HOST_METRICS),
            )
            seconds[label] = {
                m: float(inclusive[i] if m in INCLUSIVE_METRICS else sums[i])
                for m, i in metric_ids.items()
            }
            covered[label] = float(self_time[mask].sum())
        return seconds, covered

    def shard_seconds(self) -> List[float]:
        """Inclusive pass-section host seconds per watched shard."""
        name, duration, _parent, section = self._columns()
        shard_names = [
            i for i, m in enumerate(self.metric_of) if m == SHARD_METRIC
        ]
        in_pass = section == SECTIONS.index("pass")
        return [
            float(duration[(name == i) & in_pass].sum()) for i in shard_names
        ]

    def dump(self, path, workload: str) -> None:
        """Write the spans as a Chrome trace (chrome://tracing, Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": self.names[s[0]],
                "cat": self.metric_of[s[0]],
                "ph": "X",
                "ts": round((s[1] - origin) * 1e6, 2),
                "dur": round((s[2] - s[1]) * 1e6, 2),
                "pid": 0,
                "tid": 0,
                "args": {
                    "span": i, "parent": s[3], "batch_id": s[4],
                    "section": SECTIONS[s[5]],
                },
            }
            for i, s in enumerate(self.spans[:MAX_DUMPED_SPANS])
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload,
                "spans_recorded": len(self.spans),
                "spans_written": len(events),
                "targets_missing": self.missing,
            },
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
