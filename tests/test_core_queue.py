"""Tests for the async host submission queue (core/queue.py).

The central contracts:

* **Bit identity through the queue** -- for any arrival order, tenants
  and timeout settings, the union of results produced via the queue is
  bit-identical per query to a direct one-query ``ivf_search`` (the PR 3 property
  extended to the new layer): the queue only *partitions* submissions
  into batches, and batching is bit-identical by construction.
* **Fairness / no starvation** -- with one tenant flooding 10x the
  submissions of another, weighted round-robin keeps the slow tenant's
  p99 queue wait within the configured bound, and no deadline-missed
  query is ever dropped.
* **Determinism** -- every queue decision runs on the simulated clock; a
  grep-based guard pins down that nothing under ``src/repro/core``
  reads the real clock.
* **Decomposition** -- ``phase_seconds()`` (now including the ``queue``
  phase) sums to ``wall_seconds``, so the host wall clock of a
  queue-served batch decomposes fully.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    BatchExecutor,
    CapacityError,
    DeviceScheduler,
    OptFlags,
    QueueAdmissionError,
    QueuePolicy,
    ReisDevice,
    ShardedReisDevice,
    ShardUnavailableError,
    SubmissionQueue,
    tiny_config,
)
from repro.core.queue import BatchFormer
from repro.rag.embeddings import make_clustered_embeddings, make_queries
from repro.sim.latency import SimClock


def _make_queue(device, db_id, **kwargs):
    return device.submission_queue(db_id, **kwargs)


def _held(former):
    """Submissions whose footprints the former's demand table holds."""
    return sorted(set(former._demands[0].tolist()))


class TestSimClock:
    def test_starts_at_zero_and_advances(self, sim_clock):
        assert sim_clock.now_s == 0.0
        sim_clock.advance(1.5e-3)
        assert sim_clock.now_s == pytest.approx(1.5e-3)
        sim_clock.advance_to(1e-3)  # no-op: already past
        assert sim_clock.now_s == pytest.approx(1.5e-3)
        sim_clock.advance_to(2e-3)
        assert sim_clock.now_s == pytest.approx(2e-3)

    def test_negative_advance_rejected(self, sim_clock):
        with pytest.raises(ValueError):
            sim_clock.advance(-1e-6)


class TestWallClockGuard:
    """Tier-1 stays flake-free: queue decisions use the sim clock only."""

    # Any import of the time module (attribute-style calls included via
    # the plain `import time` form) or a datetime "now" is forbidden in
    # core/ -- modeled latencies and the SimClock are the only clocks.
    FORBIDDEN = re.compile(
        r"^\s*import\s+time\b"
        r"|^\s*from\s+time\s+import\b"
        r"|time\.(time|perf_counter|monotonic)(_ns)?\("
        r"|datetime\.(now|utcnow)\(",
        re.MULTILINE,
    )

    def test_core_modules_never_read_the_wall_clock(self):
        core = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
        scanned = sorted(core.rglob("*.py"))
        # The sweep must actually cover the serving stack -- in particular
        # the shard router, whose merge barriers are exactly the kind of
        # host-side code that would be tempting to wall-clock.
        names = {path.name for path in scanned}
        for module in ("queue.py", "scheduler.py", "shard.py", "batch.py", "ingest.py"):
            assert module in names
        offenders = [
            path.name
            for path in scanned
            if self.FORBIDDEN.search(path.read_text())
        ]
        assert offenders == []

    def test_host_profiler_reads_clock_only_inside_the_optin_boundary(self):
        """The opt-in profiler is the one sanctioned wall-clock reader.

        ``src/repro/host/profile.py`` may read ``perf_counter`` -- that is
        its whole job -- but only behind the ``HostProfile.phase()``
        boundary: the import must be deferred into the method body, so
        importing the module (or serving with profiling disabled, the
        default) never touches the clock.
        """
        host = Path(__file__).resolve().parents[1] / "src" / "repro" / "host"
        profile = host / "profile.py"
        source = profile.read_text()
        matches = list(self.FORBIDDEN.finditer(source))
        # Exactly one clock access in the whole module: the deferred
        # import inside phase().  No time.*() call sites, no datetime.
        assert len(matches) == 1
        (match,) = matches
        line_start = source.rfind("\n", 0, match.start()) + 1
        line = source[line_start : source.index("\n", line_start)]
        assert line.strip() == "from time import perf_counter"
        phase_def = source.index("def phase(")
        assert match.start() > phase_def, (
            "the perf_counter import must live inside HostProfile.phase()"
        )
        # And it is indented (function scope), not a module-level import.
        assert line.startswith(" ")
        # Every other module in the host package stays clock-free.
        offenders = [
            path.name
            for path in sorted(host.rglob("*.py"))
            if path != profile and self.FORBIDDEN.search(path.read_text())
        ]
        assert offenders == []


class TestBatchFormer:
    """The batch-forming state machine's triggers, in isolation."""

    @pytest.fixture(scope="class")
    def deployed(self):
        vectors, _ = make_clustered_embeddings(600, 64, 12, seed="former")
        device = ReisDevice(tiny_config("FORMER"))
        db_id = device.ivf_deploy("f", vectors, nlist=12, seed=0)
        queries = make_queries(vectors, 16, seed="former-q")
        return device, db_id, queries

    def _former(self, deployed, **policy_kwargs):
        device, db_id, _ = deployed
        policy = QueuePolicy(**policy_kwargs)
        return device.submission_queue(db_id, nprobe=3, policy=policy).former

    @staticmethod
    def _pending(n, submit_s=0.0, deadline_s=math.inf):
        """``should_close``'s view of ``n`` pending submissions arrived at
        ``submit_s``: their ids, oldest arrival and nearest deadline."""
        return np.arange(n), submit_s, deadline_s

    def test_empty_pending_never_closes(self, deployed):
        former = self._former(deployed)
        empty = self._pending(0, submit_s=math.inf)
        assert former.should_close(*empty, now_s=10.0, flushing=True) is None

    def test_full_trigger(self, deployed):
        former = self._former(deployed, max_batch=4, min_batch=4)
        subs = self._pending(4)
        assert former.should_close(*subs, now_s=0.0, flushing=False) == "full"

    def test_timeout_trigger_fires_at_the_deadline_instant(self, deployed):
        former = self._former(
            deployed, max_batch=32, min_batch=32, batching_timeout_s=1e-3
        )
        subs = self._pending(2, submit_s=0.0)
        assert former.should_close(*subs, now_s=0.5e-3, flushing=False) is None
        assert former.should_close(*subs, now_s=1e-3, flushing=False) == "timeout"
        assert former.next_trigger_s(*subs[1:]) == pytest.approx(1e-3)

    def test_deadline_trigger_preempts_waiting(self, deployed):
        former = self._former(
            deployed, max_batch=32, min_batch=32,
            batching_timeout_s=1.0, deadline_slack_s=1e-4,
        )
        subs = self._pending(2, submit_s=0.0, deadline_s=2e-3)
        assert former.should_close(*subs, now_s=1e-3, flushing=False) is None
        assert (
            former.should_close(*subs, now_s=1.9e-3, flushing=False) == "deadline"
        )
        assert former.next_trigger_s(*subs[1:]) == pytest.approx(1.9e-3)

    def test_flush_trigger_only_when_stream_drained(self, deployed):
        former = self._former(
            deployed, max_batch=32, min_batch=32, batching_timeout_s=1.0
        )
        subs = self._pending(2)
        assert former.should_close(*subs, now_s=0.0, flushing=False) is None
        assert former.should_close(*subs, now_s=0.0, flushing=True) == "flush"

    def test_occupancy_estimate_grows_with_the_batch(self, deployed):
        former = self._former(deployed, max_batch=64)
        subs = np.arange(8)
        small = former.estimate(subs[:1])
        large = former.estimate(subs)
        assert large.n_requests > small.n_requests
        assert large.planes_covered >= small.planes_covered
        assert large.collision_ratio >= small.collision_ratio
        assert 0 <= large.plane_coverage <= 1.0
        # More queries over the same regions can only deepen collisions.
        assert large.n_senses <= large.n_requests

    def test_occupancy_respects_min_batch(self, deployed):
        former = self._former(
            deployed, max_batch=32, min_batch=6, batching_timeout_s=1.0
        )
        subs = self._pending(3)
        # Below min_batch the occupancy trigger must stay silent even if
        # the footprint already covers the device.
        assert former.should_close(*subs, now_s=0.0, flushing=False) is None


class TestFormerEstimateAgainstLatchWalk:
    """``BatchFormer.estimate`` pinned, count for count, to a pure-Python
    reference: per-(shard, region, page) demands walked against a
    ``latched[plane]`` dict, the plane of a page taken from the scalar
    address translation.  Footprints are computed once and kept, so the
    estimate is pinned along every way a pending list changes: unrelated
    lists, prefix extensions (one arrival or a block of them at a time), a
    formed batch and a requeue."""

    N, DIM, NLIST, NPROBE, SUBS = 8000, 256, 16, 5, 9

    @staticmethod
    def _flags(optimize):
        return OptFlags(schedule_optimization=optimize)

    def _vectors(self):
        return make_clustered_embeddings(self.N, self.DIM, self.NLIST, seed="pin")[0]

    def _single(self, optimize, ivf, policy=None):
        device = ReisDevice(tiny_config(f"PIN-1-{ivf}"), flags=self._flags(optimize))
        if ivf:
            db_id = device.ivf_deploy("p", self._vectors(), nlist=self.NLIST, seed=0)
        else:
            db_id = device.db_deploy("p", self._vectors(), seed=0)
        db = device.database(db_id)
        queue = device.submission_queue(
            db_id, nprobe=self.NPROBE if ivf else None, policy=policy
        )
        return queue, [(0, device.engine, db, None)], db.n_clusters, None

    def _sharded(self, optimize, n_shards, replicas, dead, policy=None):
        device = ShardedReisDevice(
            n_shards, tiny_config(f"PIN-{n_shards}"), flags=self._flags(optimize),
            replication_factor=replicas,
        )
        db_id = device.ivf_deploy("p", self._vectors(), nlist=self.NLIST, seed=0)
        sdb = device.database(db_id)
        queue = device.submission_queue(db_id, nprobe=self.NPROBE, policy=policy)
        # The former sees liveness when it estimates, not when it was built.
        for shard in dead:
            device.kill_shard(shard)
        assignment = sdb.assignment
        views = [
            (shard, device.shards[shard].engine, sdb.shard_dbs[shard],
             [int(c) for c in assignment.shard_clusters[shard]])
            for shard in sdb.active_shards if shard not in dead
        ]
        serving = {}
        for cluster in range(self.NLIST):
            live = [s for s in assignment.owners_of(cluster) if s not in dead]
            if live:
                serving[cluster] = live[0]
        return queue, views, sdb.n_clusters, serving

    def _reference(self, views, n_clusters, serving, optimize, sub_ids):
        """(n_requests, n_senses, planes_covered, n_planes) by the walk."""

        def plane_of(engine, region, page):
            geometry = engine.geometry
            return region.region.translate(page, geometry).plane_linear(geometry)

        demands = {}  # (shard, region name) -> [(plane, page)] in demand order
        for sub_id in sub_ids:
            guessed = []
            if n_clusters:
                stride = max(1, n_clusters // self.NPROBE)
                guessed = [
                    (sub_id + j * stride) % n_clusters for j in range(self.NPROBE)
                ]
            for shard, engine, db, owned in views:
                embedding = db.embedding_region
                if not db.is_ivf:
                    pages = [(embedding, p) for p in range(embedding.n_pages)]
                else:
                    centroid = db.centroid_region
                    pages = [(centroid, p) for p in range(centroid.n_pages)]
                    seen = set()
                    for cluster in guessed:
                        if serving is not None and serving.get(cluster) != shard:
                            continue
                        if owned is None:
                            local = cluster
                        elif cluster in owned:
                            local = owned.index(cluster)
                        else:
                            continue
                        entry = db.r_ivf[local]
                        if entry.size <= 0:
                            continue
                        spp = embedding.slots_per_page
                        for page in range(
                            entry.first_embedding // spp,
                            entry.last_embedding // spp + 1,
                        ):
                            if page not in seen:
                                seen.add(page)
                                pages.append((embedding, page))
                for region, page in pages:
                    demands.setdefault((shard, region.name), []).append(
                        (plane_of(engine, region, page), page)
                    )
        n_requests = n_senses = 0
        covered = set()
        for (shard, _name), requests in demands.items():
            if optimize:
                # Stably grouped by page, pages in first-demand order.
                rank = {}
                for _plane, page in requests:
                    rank.setdefault(page, len(rank))
                requests = sorted(requests, key=lambda r: rank[r[1]])
            latched = {}
            for plane, page in requests:
                n_requests += 1
                if latched.get(plane) != page:
                    latched[plane] = page
                    n_senses += 1
                    covered.add((shard, plane))
        spanned = {
            (shard, plane_of(engine, region, page))
            for shard, engine, db, _owned in views
            for region in (db.centroid_region, db.embedding_region)
            if region is not None
            for page in range(region.n_pages)
        }
        return n_requests, n_senses, len(covered), len(spanned)

    DEPLOYMENTS = {
        "single-ivf": lambda self, opt, **kw: self._single(opt, ivf=True, **kw),
        "single-flat": lambda self, opt, **kw: self._single(opt, ivf=False, **kw),
        "unreplicated-3": lambda self, opt, **kw: self._sharded(opt, 3, 1, (), **kw),
        "replicated-4x2-one-dead": (
            lambda self, opt, **kw: self._sharded(opt, 4, 2, (1,), **kw)
        ),
    }

    def _assert_pinned(self, queue, views, n_clusters, serving, optimize, pending):
        estimate = queue.former.estimate(pending)
        expected = self._reference(views, n_clusters, serving, optimize, pending.tolist())
        assert (
            estimate.n_requests, estimate.n_senses,
            estimate.planes_covered, estimate.n_planes,
        ) == expected
        return estimate

    @pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "query-order"])
    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_estimate_matches_the_reference_walk(self, deployment, optimize):
        queue, *layout = self.DEPLOYMENTS[deployment](self, optimize)
        subs = np.arange(self.SUBS)
        # Unrelated lists, then prefix extensions of one list (each adds the
        # new arrivals' footprints), then a list whose footprints are kept.
        for pending in (
            subs[:1], subs[2:5], subs, subs[:1], subs[:3], subs, subs,
        ):
            estimate = self._assert_pinned(queue, *layout, optimize, pending)
        assert 0 < estimate.n_senses <= estimate.n_requests

    @pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "query-order"])
    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_estimate_restarts_after_a_formed_batch_and_a_requeue(
        self, deployment, optimize
    ):
        """Through the queue's own pending list: arrivals admitted one at a
        time, then a formed batch and its requeue."""
        queue, *layout = self.DEPLOYMENTS[deployment](
            self, optimize, policy=QueuePolicy(max_batch=4)
        )
        query = np.zeros(self.DIM, dtype=np.float32)
        for i in range(self.SUBS):
            queue.submit(query, tenant="ab"[i % 2], at_s=i * 1e-6)
            queue.clock.advance_to(i * 1e-6)
            queue._admit_due()
            self._assert_pinned(queue, *layout, optimize, queue._pending)
        members = queue._form_batch()
        assert len(members) == 4 and queue.pending_count == self.SUBS - 4
        self._assert_pinned(queue, *layout, optimize, queue._pending)
        queue._requeue(members)
        assert queue._pending.tolist() == list(range(self.SUBS))
        self._assert_pinned(queue, *layout, optimize, queue._pending)

    @pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "query-order"])
    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_one_block_fold_counts_what_single_arrivals_count(
        self, deployment, optimize
    ):
        """An estimate that computes a block of arrivals' footprints in one
        pass and folds them in one pass counts exactly what computing and
        folding the same arrivals one at a time counts, with no footprint
        kept and with a prefix's kept."""
        queue, *layout = self.DEPLOYMENTS[deployment](self, optimize)
        former = queue.former
        subs = np.arange(self.SUBS)
        for n in range(1, self.SUBS + 1):
            one_at_a_time = former.estimate(subs[:n])
        for prefix in (0, 2):
            twin = BatchFormer(former.views, former.n_clusters, former.nprobe, former.policy)
            if prefix:
                twin.estimate(subs[:prefix])
            assert twin.estimate(subs) == one_at_a_time
        assert one_at_a_time == self._reference(*layout, optimize, subs.tolist())


class TestSubmissionAdmission:
    @pytest.fixture(scope="class")
    def deployed(self):
        vectors, _ = make_clustered_embeddings(600, 64, 12, seed="admit")
        device = ReisDevice(tiny_config("ADMIT"))
        db_id = device.ivf_deploy("a", vectors, nlist=12, seed=0)
        queries = make_queries(vectors, 24, seed="admit-q")
        return device, db_id, queries

    def test_pending_list_keeps_arrival_order(self, deployed):
        """The pending list is kept in (arrival instant, submission id)
        order, also for an arrival admitted a hair ahead of the clock and
        followed by an earlier one."""
        device, db_id, queries = deployed
        queue = _make_queue(device, db_id)
        queue.submit(queries[0], at_s=0.5e-12)  # due within the clock's epsilon
        queue._admit_due()
        queue.submit(queries[1])  # arrives now, before it
        queue.submit(queries[2], at_s=1e-3)
        queue._admit_due()
        assert queue._pending.tolist() == [1, 0]
        queue.clock.advance_to(1e-3)
        queue._admit_due()
        assert queue._pending.tolist() == [1, 0, 2]
        assert queue.pending_count == 3

    def test_past_arrival_rejected(self, deployed):
        device, db_id, queries = deployed
        queue = _make_queue(device, db_id, k=5, nprobe=3, clock=SimClock(1.0))
        with pytest.raises(ValueError):
            queue.submit(queries[0], at_s=0.5)

    def test_wrong_dim_rejected(self, deployed):
        device, db_id, queries = deployed
        queue = _make_queue(device, db_id, k=5, nprobe=3)
        with pytest.raises(ValueError):
            queue.submit(queries[0][:-8])

    def test_per_tenant_admission_bound(self, deployed):
        device, db_id, queries = deployed
        queue = _make_queue(
            device, db_id, k=5, nprobe=3,
            policy=QueuePolicy(max_pending_per_tenant=2),
        )
        queue.submit(queries[0], tenant="bursty")
        queue.submit(queries[1], tenant="bursty")
        with pytest.raises(QueueAdmissionError):
            queue.submit(queries[2], tenant="bursty")
        # Other tenants are unaffected by one tenant's backlog.
        queue.submit(queries[3], tenant="calm")

    def test_pending_bound_counts_future_arrivals_until_drained(self, deployed):
        """Held arrivals (``at_s`` in the future) count against their
        tenant's bound before the clock admits them, and a drained queue
        frees the bound again."""
        device, db_id, queries = deployed
        queue = _make_queue(
            device, db_id, k=5, nprobe=3,
            policy=QueuePolicy(max_pending_per_tenant=2),
        )
        queue.submit(queries[0], tenant="bursty", at_s=1e-3)
        queue.submit(queries[1], tenant="bursty", at_s=2e-3)
        assert queue.pending_count == 0  # nothing admitted yet
        with pytest.raises(QueueAdmissionError):
            queue.submit(queries[2], tenant="bursty", at_s=3e-3)
        queue.submit(queries[2], tenant="calm", at_s=3e-3)
        assert queue.drain().n_queries == 3
        queue.submit(queries[3], tenant="bursty", at_s=queue.clock.now_s + 1e-3)
        queue.submit(queries[4], tenant="bursty")
        with pytest.raises(QueueAdmissionError):
            queue.submit(queries[5], tenant="bursty")

    def test_weighted_round_robin_batch_composition(self, deployed):
        """A flooding tenant cannot squeeze another below its weight."""
        device, db_id, queries = deployed
        queue = _make_queue(
            device, db_id, k=5, nprobe=3,
            policy=QueuePolicy(
                max_batch=8, min_batch=8, batching_timeout_s=0.0,
                tenant_weights={"flood": 1, "slow": 1},
            ),
        )
        for i in range(20):
            queue.submit(queries[i % len(queries)], tenant="flood")
        for i in range(2):
            queue.submit(queries[i], tenant="slow")
        batch = queue.step()
        tenants = [s.tenant for s in batch.submissions]
        # Both of slow's submissions ride the first batch, interleaved.
        assert tenants.count("slow") == 2
        assert tenants.count("flood") == 6
        assert tenants[:4] == ["flood", "slow", "flood", "slow"]


class TestFailedBatchIsRequeued:
    """A batch whose execution raises loses nothing: its unserved members
    go back to the head of their tenant FIFOs, in their original order."""

    K, NLIST = 5, 12

    def _sharded(self, tag, **deploy):
        vectors, _ = make_clustered_embeddings(360, 64, self.NLIST, seed="requeue")
        queries = make_queries(vectors, 6, seed="requeue-q")
        device = ShardedReisDevice(3, tiny_config(f"REQUEUE-{tag}"))
        db_id = device.ivf_deploy("r", vectors, nlist=self.NLIST, seed=0, **deploy)
        return device, db_id, vectors, queries

    def _queue(self, device, db_id, queries):
        # Probing every cluster: any dead shard makes the batch unservable.
        queue = device.submission_queue(
            db_id, k=self.K, nprobe=self.NLIST,
            policy=QueuePolicy(tenant_weights={"a": 2, "b": 1}),
        )
        for i, query in enumerate(queries):
            queue.submit(query, tenant="ab"[i % 2])
        return queue

    def test_unavailable_shard_does_not_drop_the_batch(self):
        device, db_id, _vectors, queries = self._sharded("read")
        healthy = self._queue(device, db_id, queries).drain()
        queue = self._queue(device, db_id, queries)
        device.kill_shard(1)
        with pytest.raises(ShardUnavailableError):
            queue.drain()
        assert queue.pending_count == len(queries)
        assert queue.served == {} and queue.batches == []
        # The requeued members keep the footprints forming gave them.
        assert _held(queue.former) == list(range(len(queries)))
        device.revive_shard(1)
        report = queue.drain()
        assert report.n_queries == len(queries)
        assert _held(queue.former) == []  # a drained queue holds none
        # The retried batch is the one the failure interrupted: same
        # members, same weighted-round-robin order, same results.
        assert [
            [s.sub_id for s in batch.submissions] for batch in report.batches
        ] == [[s.sub_id for s in batch.submissions] for batch in healthy.batches]
        for expect, got in zip(healthy.served, report.served):
            assert np.array_equal(expect.result.ids, got.result.ids)
            assert np.array_equal(expect.result.distances, got.result.distances)

    def test_committed_mutations_keep_their_acks_and_are_not_requeued(self):
        device, db_id, vectors, queries = self._sharded("ingest", growth_entries=2048)
        queue = device.ingest_queue(db_id, k=self.K, nprobe=self.NLIST)
        insert = queue.submit_insert(vectors[0] + 0.01, tenant="writer")
        reads = [queue.submit(query, tenant="reader") for query in queries[:3]]
        device.kill_shard(1)
        with pytest.raises(ShardUnavailableError):
            queue.drain()
        # The insert committed before the reads failed: it is acknowledged
        # and must never be applied a second time; the reads wait.
        assert queue.mutation_acks[insert].applied
        assert queue.pending_count == len(reads)
        assert _held(queue.former) == reads  # the insert left
        device.revive_shard(1)
        report = queue.drain()
        assert _held(queue.former) == []
        assert sorted(q.submission.sub_id for q in report.served) == reads
        assert len(queue.manager.commits) == 1
        assert all(q.result.ids.size == self.K for q in report.served)

    def test_refused_commit_requeues_the_mutations_unapplied(self):
        vectors, _ = make_clustered_embeddings(360, 64, self.NLIST, seed="requeue")
        device = ReisDevice(tiny_config("REQUEUE-FULL"))
        db_id = device.ivf_deploy("r", vectors, nlist=self.NLIST, seed=0)  # no growth
        queue = device.ingest_queue(db_id, k=self.K, nprobe=2)
        insert = queue.submit_insert(vectors[0] + 0.01)
        read = queue.submit(vectors[1])
        with pytest.raises(CapacityError):
            queue.drain()
        assert queue.pending_count == 2
        assert queue.mutation_acks == {} and queue.manager.commits == []
        # Re-formed, the batch is the same one: the insert is still a
        # mutation (refused again), never served as a query.
        with pytest.raises(CapacityError):
            queue.drain()
        assert queue.pending_count == 2 and queue.served == {}


class TestQueueBitIdentity:
    """Satellite 1: the PR 3 bit-identity property, extended to the queue."""

    SETTINGS = settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )

    @given(
        st.tuples(
            st.integers(80, 200),  # n
            st.sampled_from([32, 64]),  # dim
            st.integers(2, 6),  # nlist
            st.integers(1, 8),  # k
            st.integers(3, 12),  # submissions
            st.integers(1, 4),  # tenants
            st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),  # batching timeout
            st.integers(1, 6),  # max batch
            st.integers(0, 10**6),  # seed
        )
    )
    @SETTINGS
    def test_queue_results_bit_identical_to_direct_search(self, shape):
        n, dim, nlist, k, n_subs, n_tenants, timeout, max_batch, seed = shape
        vectors, _ = make_clustered_embeddings(n, dim, max(nlist, 2), seed=seed)
        queries = make_queries(vectors, n_subs, seed=(seed, "qq"))
        device = ReisDevice(tiny_config(f"QBI-{seed}-{n}-{dim}"))
        db_id = device.ivf_deploy("q", vectors, nlist=nlist, seed=seed)

        rng = np.random.default_rng(seed)
        arrivals = np.sort(rng.uniform(0.0, 5e-3, size=n_subs))
        queue = _make_queue(
            device, db_id, k=k, nprobe=2,
            policy=QueuePolicy(
                max_batch=max_batch, batching_timeout_s=timeout,
            ),
        )
        for i in range(n_subs):
            queue.submit(
                queries[i],
                tenant=f"t{rng.integers(n_tenants)}",
                deadline_s=arrivals[i] + rng.uniform(1e-4, 1e-2),
                at_s=arrivals[i],
            )
        report = queue.drain()

        # Nothing dropped, whatever the policy cut the stream into.
        assert report.n_queries == n_subs
        assert sum(len(b) for b in report.batches) == n_subs
        merged = report.as_batch_result()
        assert len(merged) == n_subs
        for i in range(n_subs):
            [solo] = device.ivf_search(db_id, queries[i : i + 1], k=k, nprobe=2)
            assert np.array_equal(solo.ids, merged[i].ids)
            assert np.array_equal(solo.distances, merged[i].distances)
        # The merged decomposition covers the whole served wall clock.
        phases = merged.phase_seconds()
        assert sum(phases.values()) == pytest.approx(merged.wall_seconds)


class TestFairness:
    """Satellite 2: a flooding tenant cannot starve a slow one."""

    @pytest.fixture(scope="class")
    def flood_report(self):
        vectors, _ = make_clustered_embeddings(600, 64, 12, seed="fair")
        device = ReisDevice(tiny_config("FAIR"))
        db_id = device.ivf_deploy("f", vectors, nlist=12, seed=0)
        queries = make_queries(vectors, 110, seed="fair-q")

        policy = QueuePolicy(
            max_batch=8, min_batch=8, batching_timeout_s=2e-4,
            tenant_weights={"flood": 1, "slow": 1},
        )
        queue = _make_queue(device, db_id, k=5, nprobe=3, policy=policy)
        # Tenant "flood" submits 10x the volume of tenant "slow", both as
        # Poisson-ish streams over the same window; every query carries a
        # deadline so misses are observable.
        rng = np.random.default_rng(7)
        window = 4e-3
        flood_at = np.sort(rng.uniform(0.0, window, size=100))
        slow_at = np.sort(rng.uniform(0.0, window, size=10))
        deadline_budget = 6e-3
        for i, at in enumerate(flood_at):
            queue.submit(
                queries[i], tenant="flood",
                deadline_s=at + deadline_budget, at_s=at,
            )
        for i, at in enumerate(slow_at):
            queue.submit(
                queries[100 + i], tenant="slow",
                deadline_s=at + deadline_budget, at_s=at,
            )
        return policy, queue.drain()

    def test_nothing_is_dropped(self, flood_report):
        _, report = flood_report
        assert report.n_queries == 110
        by_tenant = {"flood": 0, "slow": 0}
        for served in report.served:
            by_tenant[served.submission.tenant] += 1
        assert by_tenant == {"flood": 100, "slow": 10}

    def test_slow_tenant_p99_wait_within_fairness_bound(self, flood_report):
        policy, report = flood_report
        # WRR guarantees the slow tenant a slot in every formed batch while
        # it has work, so its wait is bounded by: the forming window
        # (timeout), plus the batch in service when it arrived, plus its
        # own batch's service -- independent of the flood tenant's depth.
        max_service = max(b.service_seconds for b in report.batches)
        bound = policy.batching_timeout_s + 2 * max_service
        slow_p99 = report.p99_wait_s("slow")
        assert slow_p99 <= bound
        # And the flooding tenant is the one absorbing the backlog.
        assert report.p99_wait_s("flood") >= slow_p99

    def test_deadline_misses_are_reported_not_dropped(self, flood_report):
        _, report = flood_report
        # Every miss (if any) still carries a served result.
        for miss in report.deadline_misses:
            assert miss.result.ids.size > 0
            assert miss.deadline_miss_seconds > 0
        assert report.deadline_miss_fraction == pytest.approx(
            len(report.deadline_misses) / report.n_queries
        )

    def test_starved_tenant_without_wrr_would_wait_longer(self):
        """Sanity: the fairness bound is the WRR's doing -- serving the
        same trace strictly FIFO (single tenant id) parks the sparse
        tenant's late submissions behind the flood."""
        vectors, _ = make_clustered_embeddings(600, 64, 12, seed="fair")
        device = ReisDevice(tiny_config("FAIR-FIFO"))
        db_id = device.ivf_deploy("f", vectors, nlist=12, seed=0)
        queries = make_queries(vectors, 110, seed="fair-q")
        policy = QueuePolicy(max_batch=8, min_batch=8, batching_timeout_s=2e-4)
        queue = _make_queue(device, db_id, k=5, nprobe=3, policy=policy)
        rng = np.random.default_rng(7)
        window = 4e-3
        flood_at = np.sort(rng.uniform(0.0, window, size=100))
        slow_at = np.sort(rng.uniform(0.0, window, size=10))
        # Same arrivals, but everyone shares one FIFO: the "slow" queries
        # are the last ten submitted at their instants.
        for i, at in enumerate(flood_at):
            queue.submit(queries[i], tenant="everyone", at_s=at)
        slow_ids = [
            queue.submit(queries[100 + i], tenant="everyone", at_s=at)
            for i, at in enumerate(slow_at)
        ]
        report = queue.drain()
        slow_id_set = set(slow_ids)
        fifo_waits = np.array(
            [
                q.queue_seconds
                for q in report.served
                if q.submission.sub_id in slow_id_set
            ]
        )
        max_service = max(b.service_seconds for b in report.batches)
        wrr_bound = policy.batching_timeout_s + 2 * max_service
        # FIFO parks at least some sparse-tenant queries beyond the bound
        # WRR guarantees them.
        assert float(np.percentile(fifo_waits, 99)) > wrr_bound


class TestQueueAccounting:
    """Satellite 4: queue wait decomposes the served wall clock fully."""

    @pytest.fixture(scope="class")
    def deployed(self):
        vectors, _ = make_clustered_embeddings(600, 64, 12, seed="acct")
        device = ReisDevice(tiny_config("ACCT"))
        db_id = device.ivf_deploy("a", vectors, nlist=12, seed=0)
        queries = make_queries(vectors, 16, seed="acct-q")
        return device, db_id, queries

    def test_forming_window_lands_in_queue_phase(self, deployed):
        device, db_id, queries = deployed
        # min_batch = max_batch = 4 with a timeout: the first three
        # submissions must wait for the timeout, a real forming window.
        queue = _make_queue(
            device, db_id, k=5, nprobe=3,
            policy=QueuePolicy(
                max_batch=8, min_batch=8, batching_timeout_s=1e-3,
                close_on_flush=False,
            ),
        )
        at = np.linspace(0.0, 4e-4, 4)
        queue.submit_many(queries[:4], at_s=at)
        report = queue.drain()
        assert report.close_reasons() == {"timeout": 1}
        batch = report.batches[0]
        assert batch.forming_seconds == pytest.approx(1e-3)
        merged = report.as_batch_result()
        assert merged.queue_seconds == pytest.approx(1e-3)
        phases = merged.phase_seconds()
        assert phases["queue"] == pytest.approx(1e-3)
        # Full decomposition: device phases + queue == served wall clock.
        assert sum(phases.values()) == pytest.approx(merged.wall_seconds)
        assert merged.wall_seconds == pytest.approx(
            report.service_seconds + merged.queue_seconds
        )

    def test_direct_executor_batches_carry_zero_queue_seconds(self, deployed):
        device, db_id, queries = deployed
        batch = device.ivf_search(db_id, queries[:4], k=5, nprobe=3)
        assert batch.queue_seconds == 0.0
        assert "queue" not in batch.phase_seconds()
        assert batch.batch_stats.queue_seconds == 0.0

    def test_merged_wall_clock_is_the_makespan(self, deployed):
        """Multi-batch runs: forming windows overlap earlier batches'
        service, so the merged wall clock must be the makespan, not the
        (overstated) sum of per-batch submission-to-completion times."""
        device, db_id, queries = deployed
        queue = _make_queue(
            device, db_id, k=5, nprobe=3,
            policy=QueuePolicy(max_batch=2, min_batch=2, batching_timeout_s=1e-4),
        )
        at = np.linspace(0.0, 2e-4, 12)  # arrivals pile up during service
        queue.submit_many(queries[:12], at_s=at)
        report = queue.drain()
        assert len(report.batches) >= 3
        merged = report.as_batch_result()
        assert merged.wall_seconds == pytest.approx(report.makespan_s)
        per_batch_sum = sum(b.execution.batch_seconds for b in report.batches)
        assert merged.wall_seconds < per_batch_sum  # the windows overlapped
        phases = merged.phase_seconds()
        assert sum(phases.values()) == pytest.approx(merged.wall_seconds)
        assert merged.queue_seconds == pytest.approx(
            report.makespan_s - report.service_seconds
        )

    def test_per_query_waits_and_makespan(self, deployed):
        device, db_id, queries = deployed
        queue = _make_queue(
            device, db_id, k=5, nprobe=3,
            policy=QueuePolicy(max_batch=4, min_batch=4, batching_timeout_s=5e-4),
        )
        at = np.linspace(0.0, 1e-3, 8)
        queue.submit_many(queries[:8], at_s=at)
        report = queue.drain()
        assert report.n_queries == 8
        for served in report.served:
            assert served.queue_seconds >= 0.0
            assert served.finish_s > served.start_s
        assert report.makespan_s >= report.service_seconds
        assert report.total_queue_wait_s == pytest.approx(
            sum(q.queue_seconds for q in report.served)
        )
        assert report.qps > 0


class TestSchedulerFrontEnd:
    """serve_queries now fronts the executor with the submission queue."""

    @pytest.fixture()
    def scheduler(self, small_vectors, small_corpus):
        vectors, _ = small_vectors
        device = ReisDevice(tiny_config("SCHED-Q"))
        self.db_id = device.ivf_deploy(
            "s", vectors, nlist=12, corpus=small_corpus, seed=0
        )
        return DeviceScheduler(device)

    def test_results_match_direct_executor(self, scheduler, small_queries):
        device = scheduler.device
        batch = scheduler.serve_queries(self.db_id, small_queries[:6], k=5, nprobe=3)
        db = device.database(self.db_id)
        direct = BatchExecutor(device.engine).execute(
            db, small_queries[:6], k=5, nprobe=3
        )
        for queued, straight in zip(batch, direct):
            assert np.array_equal(queued.ids, straight.ids)
            assert np.array_equal(queued.distances, straight.distances)

    def test_synchronous_serving_has_no_forming_wait(self, scheduler, small_queries):
        batch = scheduler.serve_queries(self.db_id, small_queries[:6], k=5, nprobe=3)
        acc = scheduler.accounting
        assert acc.batches_formed == 1
        assert acc.queue_wait_seconds == 0.0
        assert acc.deadline_misses == 0
        assert acc.rag_seconds == pytest.approx(batch.wall_seconds)

    def test_async_arrivals_accumulate_queue_accounting(
        self, scheduler, small_queries
    ):
        arrivals = np.linspace(0.0, 2e-3, 8)
        batch = scheduler.serve_queries(
            self.db_id, small_queries[:8], k=5, nprobe=3,
            tenants=["a", "b"] * 4,
            deadlines_s=(arrivals + 5e-4).tolist(),
            arrivals_s=arrivals.tolist(),
            policy=QueuePolicy(max_batch=4, min_batch=4, batching_timeout_s=3e-4),
        )
        acc = scheduler.accounting
        assert len(batch) == 8
        assert acc.batches_formed >= 2
        assert acc.queue_wait_seconds > 0
        # Tight deadlines under a forced forming window: misses are
        # counted on both surfaces and nothing is dropped.
        assert acc.deadline_misses == batch.deadline_misses
        assert all(r.ids.size > 0 for r in batch)
        report = scheduler.report()
        assert report["batches_formed"] == acc.batches_formed
        assert report["deadline_misses"] == acc.deadline_misses

    def test_mismatched_lengths_rejected(self, scheduler, small_queries):
        with pytest.raises(ValueError):
            scheduler.serve_queries(
                self.db_id, small_queries[:4], k=5, nprobe=3,
                tenants=["a", "b", "a", "b"], deadlines_s=[1e-3],
            )
        with pytest.raises(ValueError):
            scheduler.serve_queries(
                self.db_id, small_queries[:4], k=5, nprobe=3,
                tenants=["a", "b", "a", "b"], arrivals_s=[0.0, 1e-4],
            )
        with pytest.raises(ValueError):
            scheduler.serve_queries(
                self.db_id, small_queries[:4], k=5, nprobe=3, tenants=["a"]
            )

    def test_rag_seconds_excludes_queue_wait(self, scheduler, small_queries):
        arrivals = np.linspace(0.0, 1e-3, 4)
        scheduler.serve_queries(
            self.db_id, small_queries[:4], k=5, nprobe=3,
            arrivals_s=arrivals.tolist(),
            policy=QueuePolicy(max_batch=4, min_batch=4, batching_timeout_s=2e-3),
        )
        acc = scheduler.accounting
        assert acc.queue_wait_seconds > 0
        # Device-busy time only: the host-side wait is its own bucket.
        assert acc.rag_seconds < acc.rag_seconds + acc.queue_wait_seconds
        assert acc.total_seconds == pytest.approx(
            acc.rag_seconds + acc.host_io_seconds
            + acc.maintenance_seconds + acc.mode_switch_seconds
        )


class TestRetrieverQueueSurface:
    def test_reis_retriever_serves_through_the_queue(
        self, deployed_device, small_queries
    ):
        from repro.core.api import ReisRetriever
        from repro.rag.pipeline import RagPipeline

        device, db_id = deployed_device
        retriever = ReisRetriever(
            device, db_id, nprobe=3,
            queue_policy=QueuePolicy(max_batch=4),
        )
        report = RagPipeline(retriever).run(small_queries[:6], k=5)
        assert len(report.retrieved_ids) == 6
        assert "queue_wait_seconds" in report.retrieval_extra
        assert report.retrieval_extra["batches_formed"] >= 1.0
        assert report.retrieval_extra["deadline_misses"] == 0.0
        # Same ids as the synchronous retriever (bit identity end to end).
        plain = ReisRetriever(device, db_id, nprobe=3)
        direct = RagPipeline(plain).run(small_queries[:6], k=5)
        for a, b in zip(report.retrieved_ids, direct.retrieved_ids):
            assert np.array_equal(a, b)
