"""Tests for multi-device sharding (core/shard.py).

The central contracts:

* **Bit identity across any split** -- for any corpus split, replication
  factor and k, the sharded top-k (ids *and* distances) equals the
  single-device search, exhaustive or IVF, metadata-filtered or not:
  the router's distance merges reconstruct the single-device candidate
  stream exactly (hypothesis property below).
* **Merge phase accounting** -- sharded batches report a ``merge`` phase
  and ``phase_seconds()`` still sums to ``wall_seconds``; the satellite
  regression pins the same decomposition on the single-device path.
* **Cluster-wide queue** -- the submission queue drains into the router,
  so tenant fairness / deadlines / bit identity hold on the cluster.
* **Scheduling** -- ``ShardedScheduler`` bills per-shard busy time and a
  cluster-level ``merge`` utilization bucket.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ann.ivf import build_ivf_model
from repro.core import (
    KILL_BARRIERS,
    QueuePolicy,
    ReisDevice,
    ReisRetriever,
    ScheduleAccounting,
    ShardedReisDevice,
    ShardedScheduler,
    ShardUnavailableError,
    build_query_plan,
    plan_placement,
    shard_ivf_model,
    tiny_config,
)
from repro.core.plan import search_stats
from repro.rag.embeddings import make_clustered_embeddings, make_queries

from tests.test_core_cache import deep_config


class TestPlacement:
    def test_cluster_affinity_keeps_clusters_whole_and_balances(self):
        vectors, _ = make_clustered_embeddings(300, 32, 6, seed="place")
        model = build_ivf_model(vectors, 6, seed=0)
        assignment = plan_placement(300, 2, model)
        # A cluster's members all live on its owner shard, and only there.
        for cluster, members in enumerate(model.lists):
            owners = assignment.owners_of(cluster)
            assert len(owners) == 1
            for shard, mine in enumerate(assignment.shard_vectors):
                held = np.isin(members, mine)
                assert held.all() if shard == owners[0] else not held.any()
        # Greedy balancing keeps the shards within one max-cluster of even.
        sizes = assignment.shard_sizes()
        assert abs(int(sizes[0]) - int(sizes[1])) <= int(
            model.cluster_sizes().max()
        )
        # Owned-cluster sets partition the clusters.
        owned = np.concatenate(assignment.shard_clusters)
        assert sorted(owned.tolist()) == list(range(6))

    def test_placement_without_a_model_is_refused(self):
        with pytest.raises(ValueError, match="needs an IVF model"):
            plan_placement(9, 2, ivf_model=None)

    def test_placement_is_deterministic(self):
        vectors, _ = make_clustered_embeddings(200, 32, 5, seed="det")
        model = build_ivf_model(vectors, 5, seed=0)
        a = plan_placement(200, 4, model)
        b = plan_placement(200, 4, model)
        assert np.array_equal(a.cluster_owners, b.cluster_owners)
        for mine_a, mine_b in zip(a.shard_vectors, b.shard_vectors):
            assert np.array_equal(mine_a, mine_b)

    def test_invalid_arguments_rejected(self):
        vectors, _ = make_clustered_embeddings(40, 32, 2, seed="bad-args")
        model = build_ivf_model(vectors, 2, seed=0)
        with pytest.raises(ValueError, match="n_shards must be at least 1"):
            plan_placement(40, 0, model)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"placement": "round_robin"}, "the one policy is 'cluster'"),
            ({"replication_factor": 0}, "replication_factor must be at least 1"),
            ({"replication_factor": 3}, "replication_factor 3 exceeds 2 shards"),
        ],
    )
    def test_bad_cluster_shape_fails_at_construction(self, kwargs, message):
        """Not inside the first deploy, after k-means ran on the corpus --
        and a bad replication factor with the very error ``plan_placement``
        raises."""
        with pytest.raises(ValueError, match=message):
            ShardedReisDevice(2, tiny_config("SHAPE"), **kwargs)
        if "replication_factor" in kwargs:
            with pytest.raises(ValueError, match=message):
                plan_placement(10, 2, None, **kwargs)

    def test_shard_ivf_model_local_lists_cover_shard(self):
        vectors, _ = make_clustered_embeddings(150, 32, 5, seed="local")
        model = build_ivf_model(vectors, 5, seed=0)
        assignment = plan_placement(150, 3, model, replication_factor=2)
        for shard in range(3):
            local = shard_ivf_model(model, assignment, shard)
            covered = np.sort(np.concatenate([lst for lst in local.lists]))
            assert covered.tolist() == list(
                range(assignment.shard_vectors[shard].size)
            )


class TestShardedBitIdentity:
    """Satellite 3: sharded top-k == single-device top-k, any split."""

    SETTINGS = settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )

    @given(
        st.tuples(
            st.integers(80, 180),  # n
            st.sampled_from([32, 64]),  # dim
            st.integers(2, 6),  # nlist
            st.integers(1, 8),  # k
            st.integers(1, 4),  # shards
            st.integers(1, 2),  # replication factor (capped at shards)
            st.booleans(),  # exhaustive search() or ivf_search()
            st.integers(0, 10**6),  # seed
        )
    )
    @SETTINGS
    def test_sharded_topk_matches_single_device(self, shape):
        n, dim, nlist, k, shards, repl, exhaustive, seed = shape
        vectors, _ = make_clustered_embeddings(n, dim, nlist, seed=seed)
        queries = make_queries(vectors, 4, seed=(seed, "sq"))
        tags = (np.arange(n) % 3).astype(np.uint32)
        model = build_ivf_model(vectors, nlist, seed=seed)

        single = ReisDevice(tiny_config(f"SBI-{seed}-{n}"))
        sharded = ShardedReisDevice(
            shards, tiny_config(f"SBI-SH-{seed}-{n}"),
            replication_factor=min(repl, shards),
        )
        sid = single.ivf_deploy(
            "s", vectors, ivf_model=model, metadata_tags=tags, seed=seed
        )
        did = sharded.ivf_deploy(
            "s", vectors, ivf_model=model, metadata_tags=tags, seed=seed
        )
        nprobe = max(1, nlist // 2)

        for metadata_filter in (None, int(seed % 3)):
            if exhaustive:
                batch = sharded.search(
                    did, queries, k=k, metadata_filter=metadata_filter
                )
                expect = single.search(
                    sid, queries, k=k, metadata_filter=metadata_filter
                )
            else:
                batch = sharded.ivf_search(
                    did, queries, k=k, nprobe=nprobe,
                    metadata_filter=metadata_filter,
                )
                expect = [
                    result
                    for query in queries
                    for result in single.ivf_search(
                        sid, query[None], k=k, nprobe=nprobe,
                        metadata_filter=metadata_filter,
                    )
                ]
            for solo, result in zip(expect, batch):
                assert np.array_equal(solo.ids, result.ids)
                assert np.array_equal(solo.distances, result.distances)
                assert [d.chunk_id for d in solo.documents] == [
                    d.chunk_id for d in result.documents
                ]
            # The merged wall clock decomposes exactly, merge included.
            phases = batch.phase_seconds()
            assert "merge" in phases
            assert sum(phases.values()) == pytest.approx(batch.wall_seconds)

    @given(
        st.tuples(
            st.integers(80, 160),  # n
            st.sampled_from([32, 64]),  # dim
            st.integers(2, 6),  # nlist
            st.integers(1, 8),  # k
            st.integers(2, 4),  # shards
            st.integers(1, 2),  # replication factor
            st.sampled_from(KILL_BARRIERS),
            st.integers(0, 10**6),  # seed (also picks the victim shard)
        )
    )
    @SETTINGS
    def test_failover_matches_single_device_at_any_kill_point(self, shape):
        """Tentpole property: kill any shard at any barrier, any R >= 1.

        With a surviving replica (R >= 2, or the victim serving nothing
        the batch probed) the rerouted batch must be bit-identical to the
        single-device run.  With no surviving replica the router must
        degrade to a clean :class:`ShardUnavailableError` naming a cluster
        the dead shard owned -- never an IndexError.
        """
        n, dim, nlist, k, shards, repl, barrier, seed = shape
        vectors, _ = make_clustered_embeddings(n, dim, max(nlist, 2), seed=seed)
        queries = make_queries(vectors, 4, seed=(seed, "fq"))
        model = build_ivf_model(vectors, nlist, seed=seed)
        victim = seed % shards
        nprobe = max(1, nlist // 2)

        single = ReisDevice(tiny_config(f"FBI-{seed}-{n}"))
        sid = single.ivf_deploy("s", vectors, ivf_model=model, seed=seed)
        sharded = ShardedReisDevice(
            shards, tiny_config(f"FBI-SH-{seed}-{n}"), replication_factor=repl
        )
        did = sharded.ivf_deploy("s", vectors, ivf_model=model, seed=seed)
        owned = sharded.database(did).assignment.shard_clusters[victim]

        sharded.schedule_shard_failure(victim, barrier)
        try:
            batch = sharded.ivf_search(did, queries, k=k, nprobe=nprobe)
        except ShardUnavailableError as err:
            # Only a zero-replica loss may degrade, and the error names a
            # cluster the dead shard actually owned.
            assert repl == 1
            assert err.cluster in set(int(c) for c in owned)
            return
        for query, result in zip(queries, batch):
            [solo] = single.ivf_search(sid, query[None], k=k, nprobe=nprobe)
            assert np.array_equal(solo.ids, result.ids)
            assert np.array_equal(solo.distances, result.distances)
            assert [d.chunk_id for d in solo.documents] == [
                d.chunk_id for d in result.documents
            ]
        # Failover work is billed; the wall clock still decomposes exactly.
        phases = batch.phase_seconds()
        assert sum(phases.values()) == pytest.approx(batch.wall_seconds)
        # The shard stays dead until revived; the next batch must reroute
        # from the start (or degrade the same clean way at R=1).
        try:
            again = sharded.ivf_search(did, queries, k=k, nprobe=nprobe)
        except ShardUnavailableError as err:
            assert repl == 1
            assert err.cluster in set(int(c) for c in owned)
            return
        for query, result in zip(queries, again):
            [solo] = single.ivf_search(sid, query[None], k=k, nprobe=nprobe)
            assert np.array_equal(solo.ids, result.ids)
            assert np.array_equal(solo.distances, result.distances)


@pytest.fixture(scope="module")
def sharded_pair():
    """A single device and a 4-shard cluster over the same IVF corpus."""
    vectors, _ = make_clustered_embeddings(800, 64, 16, seed="pair")
    queries = make_queries(vectors, 16, seed="pair-q")
    model = build_ivf_model(vectors, 16, seed=0)
    single = ReisDevice(tiny_config("PAIR-1"))
    sid = single.ivf_deploy("pair", vectors, ivf_model=model, seed=0)
    sharded = ShardedReisDevice(4, tiny_config("PAIR-4"))
    did = sharded.ivf_deploy("pair", vectors, ivf_model=model, seed=0)
    return single, sid, sharded, did, queries


class TestMergeAccounting:
    """Satellite 2: the merge phase in the wall-clock decomposition."""

    def test_single_device_phase_seconds_sums_to_wall(self, sharded_pair):
        """Regression: the decomposition invariant on the unsharded path."""
        single, sid, _, _, queries = sharded_pair
        batch = single.ivf_search(sid, queries[:8], k=5, nprobe=4)
        phases = batch.phase_seconds()
        assert "merge" not in phases
        assert sum(phases.values()) == pytest.approx(batch.wall_seconds)

    def test_sharded_phase_seconds_sums_to_wall_with_merge(self, sharded_pair):
        _, _, sharded, did, queries = sharded_pair
        batch = sharded.ivf_search(did, queries[:8], k=5, nprobe=4)
        phases = batch.phase_seconds()
        assert phases["merge"] > 0
        assert sum(phases.values()) == pytest.approx(batch.wall_seconds)
        merge = batch.batch_stats.phases["merge"]
        assert merge.seconds == pytest.approx(
            merge.components["merge_transfer"] + merge.components["merge_core"]
        )
        # Merging moves no flash pages.
        assert merge.unique_senses == 0 and merge.total_senses == 0

    def test_wall_clock_is_slowest_shard_plus_merge(self, sharded_pair):
        """Shards overlap: each phase costs its slowest shard; the total is
        the per-phase maxima plus the host merge."""
        _, _, sharded, did, queries = sharded_pair
        execution = sharded.router.execute(
            sharded.database(did), queries[:8], k=5, nprobe=4
        )
        assert execution.shard_seconds is not None
        busiest = max(execution.shard_seconds)
        merge_s = execution.stats.phases["merge"].seconds
        # The barrier model can only add sync waits on top of the busiest
        # shard; it never undercuts it, and merge rides on top.
        assert execution.report.total_s >= busiest + merge_s - 1e-15
        # Device phases (without merge) are bounded by the sum of per-phase
        # maxima, which each shard's own total also cannot exceed.
        assert busiest <= execution.report.total_s - merge_s + 1e-15

    def test_sharding_speeds_up_the_batched_workload(self, sharded_pair):
        single, sid, sharded, did, queries = sharded_pair
        one = single.ivf_search(sid, queries, k=5, nprobe=4)
        four = sharded.ivf_search(did, queries, k=5, nprobe=4)
        assert four.wall_seconds < one.wall_seconds

    def test_scale_accounting_utilization_has_merge_bucket(self):
        acc = ScheduleAccounting(rag_seconds=3.0, merge_seconds=1.0)
        assert acc.total_seconds == pytest.approx(4.0)
        utilization = acc.utilization()
        assert utilization["merge"] == pytest.approx(0.25)
        assert sum(utilization.values()) == pytest.approx(1.0)


class TestLogicalPlan:
    def test_logical_plan_contains_merge_stage(self, sharded_pair):
        _, _, sharded, did, queries = sharded_pair
        plan = sharded.router.plan(sharded.database(did), k=5, nprobe=4)
        names = plan.stage_names()
        assert names == ["ibc", "coarse", "fine", "merge", "rerank", "documents"]
        assert plan.merge_fan_in == 4
        # The global probe count, not one shard's trimmed share of it.
        assert plan.nprobe == 4

    def test_merge_fan_in_counts_only_live_shards(self):
        # A dead shard ships no shortlist: the fan-in is the live shards
        # holding a piece, not every deployed one.
        vectors, _ = make_clustered_embeddings(400, 32, 8, seed="fan-in")
        cluster = ShardedReisDevice(4, tiny_config("FAN-IN"), replication_factor=2)
        db_id = cluster.ivf_deploy("fan-in", vectors, nlist=8, seed=0)
        cluster.kill_shard(1)
        plan = cluster.router.plan(cluster.database(db_id), k=5, nprobe=4)
        assert plan.merge_fan_in == 3

    def test_single_device_plan_has_no_merge(self, sharded_pair):
        # The merge is host-side plan data: only the router's logical
        # plan carries it, never a plan a device executes.
        single, sid, _, _, _ = sharded_pair
        plan = build_query_plan(single.engine, single.database(sid), k=5, nprobe=4)
        assert plan.merge_fan_in is None
        assert "merge" not in plan.stage_names()


class TestShardedQueue:
    """The submission queue drains into the router, cluster-wide."""

    def test_queue_results_bit_identical_and_fair(self, sharded_pair):
        single, sid, sharded, did, queries = sharded_pair
        policy = QueuePolicy(
            max_batch=4, min_batch=4, batching_timeout_s=2e-4,
            tenant_weights={"flood": 1, "slow": 1},
        )
        queue = sharded.submission_queue(did, k=5, nprobe=4, policy=policy)
        rng = np.random.default_rng(11)
        flood_at = np.sort(rng.uniform(0.0, 2e-3, size=12))
        slow_at = np.sort(rng.uniform(0.0, 2e-3, size=3))
        for i, at in enumerate(flood_at):
            queue.submit(queries[i], tenant="flood", at_s=at)
        for i, at in enumerate(slow_at):
            queue.submit(queries[12 + i], tenant="slow", at_s=at)
        report = queue.drain()
        assert report.n_queries == 15
        merged = report.as_batch_result()
        for i in range(15):
            [solo] = single.ivf_search(sid, queries[i : i + 1], k=5, nprobe=4)
            assert np.array_equal(solo.ids, merged[i].ids)
            assert np.array_equal(solo.distances, merged[i].distances)
        # Fairness machinery is the same cluster-wide: while both tenants
        # have work the slow one rides every batch.
        max_service = max(b.service_seconds for b in report.batches)
        bound = policy.batching_timeout_s + 2 * max_service
        assert report.p99_wait_s("slow") <= bound
        phases = merged.phase_seconds()
        assert sum(phases.values()) == pytest.approx(merged.wall_seconds)

    def test_retriever_runs_rag_pipeline_on_the_cluster(self, sharded_pair):
        from repro.rag.pipeline import RagPipeline

        single, sid, sharded, did, queries = sharded_pair
        cluster = ReisRetriever(sharded, did, nprobe=4)
        alone = ReisRetriever(single, sid, nprobe=4)
        cluster_report = RagPipeline(cluster).run(queries[:6], k=5)
        alone_report = RagPipeline(alone).run(queries[:6], k=5)
        for a, b in zip(cluster_report.retrieved_ids, alone_report.retrieved_ids):
            assert np.array_equal(a, b)

    def test_retriever_through_queue_policy(self, sharded_pair):
        from repro.rag.pipeline import RagPipeline

        single, sid, sharded, did, queries = sharded_pair
        queued = ReisRetriever(
            sharded, did, nprobe=4, queue_policy=QueuePolicy(max_batch=4)
        )
        report = RagPipeline(queued).run(queries[:6], k=5)
        assert len(report.retrieved_ids) == 6
        assert report.retrieval_extra["batches_formed"] >= 1.0


class TestShardedScheduler:
    @pytest.fixture()
    def scheduler(self):
        vectors, _ = make_clustered_embeddings(600, 64, 12, seed="ssched")
        device = ShardedReisDevice(3, tiny_config("SSCHED"))
        self.db_id = device.ivf_deploy("s", vectors, nlist=12, seed=0)
        self.queries = make_queries(vectors, 12, seed="ssched-q")
        return ShardedScheduler(device)

    def test_results_match_direct_router(self, scheduler):
        batch = scheduler.serve_queries(self.db_id, self.queries[:6], k=5, nprobe=3)
        device = scheduler.device
        direct = device.ivf_search(self.db_id, self.queries[:6], k=5, nprobe=3)
        for queued, straight in zip(batch, direct):
            assert np.array_equal(queued.ids, straight.ids)
            assert np.array_equal(queued.distances, straight.distances)

    def test_cluster_accounting_splits_rag_and_merge(self, scheduler):
        batch = scheduler.serve_queries(self.db_id, self.queries[:6], k=5, nprobe=3)
        acc = scheduler.accounting
        assert acc.queries_served == 6
        assert acc.merge_seconds > 0
        assert acc.rag_seconds > 0
        assert acc.rag_seconds + acc.merge_seconds == pytest.approx(
            batch.wall_seconds
        )
        utilization = scheduler.aggregate_utilization()
        assert utilization["merge"] > 0
        assert sum(utilization.values()) == pytest.approx(1.0)

    def test_per_shard_busy_seconds_billed(self, scheduler):
        scheduler.serve_queries(self.db_id, self.queries[:6], k=5, nprobe=3)
        per_shard = scheduler.shard_accounting
        active = scheduler.device.database(self.db_id).active_shards
        for shard in active:
            assert per_shard[shard].rag_seconds > 0
            # Shards overlap: each one's busy time is below the cluster's
            # serving wall clock (sum of per-phase maxima).
            assert per_shard[shard].rag_seconds <= (
                scheduler.accounting.rag_seconds
                + scheduler.accounting.merge_seconds
            ) * (1 + 1e-9)
        report = scheduler.report()
        assert report["n_shards"] == 3
        assert len(report["per_shard"]) == 3

    def test_maintenance_runs_on_every_shard(self, scheduler):
        scheduler.run_maintenance()
        for child in scheduler.children:
            assert len(child.accounting.gc_results) == 1
            assert len(child.accounting.refresh_results) == 1


class TestShardedDeviceSurface:
    def test_drop_removes_from_every_shard(self):
        vectors, _ = make_clustered_embeddings(200, 32, 4, seed="drop")
        device = ShardedReisDevice(2, tiny_config("SDROP"))
        db_id = device.ivf_deploy("d", vectors, nlist=4, seed=0)
        shard_counts = [len(s.databases) for s in device.shards]
        device.drop(db_id)
        assert all(
            len(s.databases) == count - 1 if count else len(s.databases) == 0
            for s, count in zip(device.shards, shard_counts)
        )
        with pytest.raises(KeyError):
            device.database(db_id)

    def test_more_shards_than_clusters_leaves_empty_shards(self):
        """Cluster affinity with nlist < shards: spare shards stay empty
        and the cluster still answers correctly."""
        vectors, _ = make_clustered_embeddings(120, 32, 2, seed="tiny")
        model = build_ivf_model(vectors, 2, seed=0)
        single = ReisDevice(tiny_config("TINY-1"))
        sid = single.ivf_deploy("t", vectors, ivf_model=model, seed=0)
        device = ShardedReisDevice(4, tiny_config("TINY-4"))
        db_id = device.ivf_deploy("t", vectors, ivf_model=model, seed=0)
        sdb = device.database(db_id)
        assert len(sdb.active_shards) <= 2
        queries = make_queries(vectors, 3, seed="tiny-q")
        batch = device.ivf_search(db_id, queries, k=4, nprobe=2)
        for query, result in zip(queries, batch):
            [solo] = single.ivf_search(sid, query[None], k=4, nprobe=2)
            assert np.array_equal(solo.ids, result.ids)
            assert np.array_equal(solo.distances, result.distances)

    def test_resolve_nprobe_uses_global_cluster_count(self):
        vectors, _ = make_clustered_embeddings(300, 32, 9, seed="np")
        single = ReisDevice(tiny_config("NP-1"))
        sid = single.ivf_deploy("n", vectors, nlist=9, seed=0)
        device = ShardedReisDevice(3, tiny_config("NP-3"))
        db_id = device.ivf_deploy("n", vectors, nlist=9, seed=0)
        assert device.resolve_nprobe(db_id, 0.95) == single.resolve_nprobe(
            sid, 0.95
        )

    def test_energy_report_aggregates_shards(self):
        vectors, _ = make_clustered_embeddings(120, 32, 3, seed="energy")
        device = ShardedReisDevice(2, tiny_config("SENERGY"))
        db_id = device.ivf_deploy("e", vectors, nlist=3, seed=0)
        device.ivf_search(db_id, vectors[:4], k=3, nprobe=2)
        report = device.energy_report(1e-3)
        assert report["energy_j"] == pytest.approx(
            sum(r["energy_j"] for r in report["per_shard"])
        )
        assert len(report["per_shard"]) == 2


# --------------------------------------------------------------------------
# Composition: the one array composer against the per-cell walk it replaced.
#
# Before the composer, a query's report was ``compose_solo_report`` once per
# (shard, query) -> ``compose_phase`` once per (shard, query, phase), folded
# per query by ``_merge_reports``; the batch report walked
# ``compose_batch_report`` per run and folded the same way.  That walk is
# kept here, verbatim, as the reference; every number must come out ``==``.


def _reference_compose_phase(cost, timing, flags, ecc_decode_seconds_per_byte=0.0):
    from repro.core.costing import page_iteration_time

    iteration = page_iteration_time(
        timing, cost.read_mode, cost.with_compute, cost.with_filter
    )
    read_s = cost.max_pages * iteration
    transfer_s = max(
        (b / timing.channel_bandwidth_bps for b in cost.channel_bytes.values()),
        default=0.0,
    )
    core_s = cost.core_seconds + cost.ecc_bytes * ecc_decode_seconds_per_byte
    dram_s = cost.dram_seconds
    # ``sum(stages)`` spelled out: left to right from 0, the order the
    # composer pins (and what ``sum`` does before CPython 3.12's
    # compensated float summation).
    stage_sum = (((0 + read_s) + transfer_s) + core_s) + dram_s
    if flags.pipelining:
        bottleneck = max(read_s, transfer_s, core_s, dram_s)
        fill = (stage_sum - bottleneck) / max(cost.max_pages, 1)
        total = bottleneck + fill
    else:
        total = stage_sum
    components = {
        f"{cost.name}_read": read_s,
        f"{cost.name}_transfer": transfer_s,
        f"{cost.name}_core": core_s,
    }
    if dram_s:
        components[f"{cost.name}_dram"] = dram_s
    return total, components


def _reference_solo_report(run, qi):
    """Query ``qi``'s solo report from the run of the device that served
    it: its IBC and host seconds and the phase ledgers, read per query
    (``query_cost``)."""
    from repro.sim.latency import LatencyReport
    from tests.cost_reference import query_cost

    engine, host_seconds = run.engine, float(run.host_seconds[qi])
    ecc_rate = engine.ssd.ecc.decode_time(1)
    report = LatencyReport()
    report.add_component("ibc", run.ibc_seconds)
    report.add_phase("ibc", run.ibc_seconds)
    report.total_s += run.ibc_seconds
    for name, ledger in run.ledgers.items():
        cost = query_cost(ledger, qi)
        if cost is None:  # the query did not run this phase
            continue
        total, components = _reference_compose_phase(
            cost, engine.timing, engine.flags, ecc_rate
        )
        report.total_s += total
        report.add_phase(name, total)
        for component, seconds in components.items():
            report.add_component(component, seconds)
    if host_seconds:
        report.add_component("host_transfer", host_seconds)
        report.add_phase("host", host_seconds)
        report.total_s += host_seconds
    return report


def _reference_batch_report(run, stats, scheduled_senses):
    from repro.sim.latency import LatencyReport
    from tests.cost_reference import _reference_compose_batch_phase, replay

    engine = run.engine
    ibc_seconds = 0.0
    host_seconds = 0.0
    for query_stats, query_host_seconds in zip(
        search_stats(run.counts), run.host_seconds.tolist()
    ):
        ibc_seconds += run.ibc_seconds
        host_seconds += query_host_seconds
        stats.cache_hits += query_stats.cache_hits
    # The per-query objects the parent's kernels filled, one visit at a time.
    phase_costs = {name: replay(ledger) for name, ledger in run.ledgers.items()}
    ecc_rate = engine.ssd.ecc.decode_time(1)
    report = LatencyReport()
    report.add_component("ibc", ibc_seconds)
    report.add_phase("ibc", ibc_seconds)
    report.total_s += ibc_seconds
    for name, costs in phase_costs.items():
        breakdown = _reference_compose_batch_phase(
            costs, engine.timing, engine.flags, ecc_rate,
            scheduled_senses=scheduled_senses.get(name),
        )
        stats.phases[name] = breakdown
        report.total_s += breakdown.seconds
        report.add_phase(name, breakdown.seconds)
        for component, seconds in breakdown.components.items():
            report.add_component(component, seconds)
    if host_seconds:
        report.add_component("host_transfer", host_seconds)
        report.add_phase("host", host_seconds)
        report.total_s += host_seconds
    return report


def _reference_merge_reports(reports, merge_breakdown):
    from repro.sim.latency import LatencyReport

    merged = LatencyReport()
    names = []
    for report in reports:
        for name in report.phases:
            if name not in names:
                names.append(name)
    for name in names:
        seconds = [report.phases.get(name, 0.0) for report in reports]
        winner = reports[int(np.argmax(seconds))]
        merged.add_phase(name, max(seconds))
        merged.total_s += max(seconds)
        if name == "ibc":
            prefixes = ("ibc",)
        elif name == "host":
            prefixes = ("host_transfer",)
        else:
            prefixes = tuple(
                c for c in winner.components if c.startswith(f"{name}_")
            )
        for component in prefixes:
            merged.add_component(component, winner.components.get(component, 0.0))
    if merge_breakdown is not None and merge_breakdown.seconds >= 0:
        merged.add_phase("merge", merge_breakdown.seconds)
        merged.total_s += merge_breakdown.seconds
        for component, seconds in merge_breakdown.components.items():
            merged.add_component(component, seconds)
    return merged


def _reference_compose(state, merge_breakdown):
    """``ShardRouter._compose``'s reports from a finished batch state:
    ``(per-query reports, batch report, batch phase breakdowns)``.  The
    merge barrier's own accounting is taken as given (``merge_breakdown``)."""
    from repro.core.batch import BatchStats
    from repro.core.costing import BatchPhaseBreakdown
    from tests.cost_reference import scheduled_senses

    runs = state.runs
    n_queries = state.n_queries
    primary = [run for run in runs if not run.failover]
    failover = [run for run in runs if run.failover]
    per_query_merge = BatchPhaseBreakdown(
        name="merge",
        seconds=merge_breakdown.seconds / max(n_queries, 1),
        components={
            name: seconds / max(n_queries, 1)
            for name, seconds in merge_breakdown.components.items()
        },
        unique_senses=0,
        total_senses=0,
    )
    reports = []
    for qi in range(n_queries):
        report = _reference_merge_reports(
            [_reference_solo_report(run, qi) for run in primary],
            per_query_merge,
        )
        if failover:
            fo = max(_reference_solo_report(run, qi).total_s for run in failover)
            report.add_phase("failover", fo)
            report.add_component("failover_recovery", fo)
            report.total_s += fo
        reports.append(report)

    run_stats = [BatchStats(n_queries=n_queries) for _ in runs]
    primary_reports, primary_stats = [], []
    failover_total = 0.0
    for run, stats in zip(runs, run_stats):
        report = _reference_batch_report(
            run, stats,
            {name: scheduled_senses(ledger) for name, ledger in run.ledgers.items()},
        )
        if run.failover:
            failover_total = max(failover_total, report.total_s)
        else:
            primary_reports.append(report)
            primary_stats.append(stats)
    phases = {}
    phase_names = []
    for stats in primary_stats:
        for name in stats.phases:
            if name not in phase_names:
                phase_names.append(name)
    for name in phase_names:
        breakdowns = [stats.phases.get(name) for stats in primary_stats]
        seconds = [b.seconds if b is not None else 0.0 for b in breakdowns]
        winner = breakdowns[int(np.argmax(seconds))]
        phases[name] = BatchPhaseBreakdown(
            name=name,
            seconds=max(seconds),
            components=dict(winner.components) if winner is not None else {},
            unique_senses=sum(b.unique_senses for b in breakdowns if b is not None),
            total_senses=sum(b.total_senses for b in breakdowns if b is not None),
        )
    phases["merge"] = merge_breakdown
    batch_report = _reference_merge_reports(primary_reports, merge_breakdown)
    if failover:
        failover_senses = sum(
            run.stats.scan_senses for run in failover
        )
        phases["failover"] = BatchPhaseBreakdown(
            name="failover",
            seconds=failover_total,
            components={"failover_recovery": failover_total},
            unique_senses=failover_senses,
            total_senses=failover_senses,
        )
        batch_report.add_phase("failover", failover_total)
        batch_report.add_component("failover_recovery", failover_total)
        batch_report.total_s += failover_total
    return reports, batch_report, phases


def _assert_reports_equal(actual, expected):
    assert actual.phases == expected.phases
    assert list(actual.phases) == list(expected.phases)
    assert actual.components == expected.components
    assert actual.total_s == expected.total_s


class TestComposeAgainstPerCellReference:
    N, DIM, NLIST, K, NPROBE, NQ = 360, 64, 12, 8, 5, 6
    CACHE_BYTES = 400_000

    @pytest.fixture(scope="class")
    def corpus(self):
        vectors, _ = make_clustered_embeddings(
            self.N, self.DIM, self.NLIST, seed="compose"
        )
        queries = make_queries(vectors, self.NQ, seed="compose-q")
        return vectors, queries, build_ivf_model(vectors, self.NLIST, seed=0)

    def _sharded(self, corpus, layout, cached):
        vectors, queries, model = corpus
        n_shards, replicas = {"unreplicated": (3, 1), "replicated": (4, 2)}[layout]
        device = ShardedReisDevice(
            n_shards, deep_config(f"CMP-{layout}-{cached}"),
            replication_factor=replicas,
        )
        db_id = device.ivf_deploy("cmp", vectors, ivf_model=model, seed=0)
        if cached:
            device.enable_page_cache(self.CACHE_BYTES)
            device.ivf_search(db_id, queries, k=self.K, nprobe=self.NPROBE)
        return device, db_id

    def _check_sharded(self, monkeypatch, device, db_id, queries):
        from repro.core.shard import ShardRouter

        seen = []
        compose = ShardRouter._compose

        def spy(router, state, *rest):
            seen.append(state)
            return compose(router, state, *rest)

        monkeypatch.setattr(ShardRouter, "_compose", spy)
        batch = device.ivf_search(db_id, queries, k=self.K, nprobe=self.NPROBE)
        monkeypatch.undo()
        reports, batch_report, phases = _reference_compose(
            seen[-1], batch.batch_stats.phases["merge"]
        )
        for result, expected in zip(batch, reports):
            _assert_reports_equal(result.latency, expected)
        _assert_reports_equal(batch.batch_report, batch_report)
        assert batch.batch_stats.phases == phases
        assert list(batch.batch_stats.phases) == list(phases)
        return batch

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("layout", ["unreplicated", "replicated"])
    def test_sharded_reports_equal_the_per_cell_walk(
        self, corpus, monkeypatch, layout, cached
    ):
        device, db_id = self._sharded(corpus, layout, cached)
        batch = self._check_sharded(monkeypatch, device, db_id, corpus[1])
        if cached:
            assert any(
                name.endswith("_dram")
                for result in batch for name in result.latency.components
            )

    @pytest.mark.parametrize("layout", ["unreplicated", "replicated"])
    def test_forced_filter_retry(self, corpus, monkeypatch, layout):
        device, db_id = self._sharded(corpus, layout, cached=False)
        for shard_db in device.database(db_id).shard_dbs:
            shard_db.filter_threshold = 1
        batch = self._check_sharded(monkeypatch, device, db_id, corpus[1])
        assert all(r.stats.filter_retries == 1 for r in batch)

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("barrier", KILL_BARRIERS)
    def test_a_kill_at_each_barrier(self, corpus, monkeypatch, barrier, cached):
        device, db_id = self._sharded(corpus, "replicated", cached)
        saw_failover = False
        for _attempt in range(4):
            # The least-loaded shard is the one elections favour, so the
            # one whose death strands work.
            victim = int(np.argmin(device.router.shard_busy_s))
            device.schedule_shard_failure(victim, barrier)
            try:
                batch = self._check_sharded(monkeypatch, device, db_id, corpus[1])
            finally:
                device.revive_shard(victim)
            saw_failover |= "failover" in batch.batch_report.phases
        # A shard lost at the coarse barrier is covered by its replicas'
        # own coarse blocks: its run stays (dead) among the primaries.
        assert saw_failover == (barrier != "coarse")

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("retry", [False, True])
    def test_single_device_reports_equal_the_per_query_walk(
        self, corpus, monkeypatch, cached, retry
    ):
        from repro.core.batch import BatchExecutor, BatchStats
        from repro.core.engine import InStorageAnnsEngine

        vectors, queries, model = corpus
        device = ReisDevice(deep_config(f"CMP-1-{cached}-{retry}"))
        db_id = device.ivf_deploy("cmp", vectors, ivf_model=model, seed=0)
        if retry:
            device.database(db_id).filter_threshold = 1
        if cached:
            device.enable_page_cache(self.CACHE_BYTES)
            device.ivf_search(db_id, queries, k=self.K, nprobe=self.NPROBE)
        prepared, senses = [], {}
        prepare, scan = BatchExecutor.prepare, InStorageAnnsEngine.scan_page_run

        def spy_prepare(executor, *args, **kwargs):
            prepared.append(prepare(executor, *args, **kwargs))
            return prepared[-1]

        def spy_scan(engine, runs, ledgers, tasks, coarse, ttl):
            senses_of = scan(engine, runs, ledgers, tasks, coarse, ttl)
            acc = senses.setdefault("coarse" if coarse else "fine", {})
            [mine] = senses_of
            for plane in mine.nonzero()[0].tolist():
                acc[plane] = acc.get(plane, 0) + int(mine[plane])
            return senses_of

        monkeypatch.setattr(BatchExecutor, "prepare", spy_prepare)
        monkeypatch.setattr(InStorageAnnsEngine, "scan_page_run", spy_scan)
        batch = device.ivf_search(db_id, queries, k=self.K, nprobe=self.NPROBE)
        monkeypatch.undo()
        run = prepared[-1]
        for qi, result in enumerate(batch):
            _assert_reports_equal(result.latency, _reference_solo_report(run, qi))
        stats = BatchStats(n_queries=len(run.queries))
        _assert_reports_equal(
            batch.batch_report, _reference_batch_report(run, stats, senses)
        )
        assert batch.batch_stats.phases == stats.phases
        assert batch.batch_stats.cache_hits == stats.cache_hits
        assert (stats.cache_hits > 0) == cached
        assert all(r.stats.filter_retries == int(retry) for r in batch)


def _reference_elect(owner_rows, loads, sizes, clusters, n_shards):
    """The per-cluster election loop the router's vectorized pick replaced:
    each cluster, in order, to the live owner least by (load, vectors
    already assigned this round, shard id).  Returns the picks; raises
    :class:`ShardUnavailableError` at the first cluster with no live owner,
    after the picks before it (returned through ``picks`` of the error)."""
    assigned, picks = [0] * n_shards, []
    for cluster, owners, size in zip(clusters, owner_rows, sizes):
        owners = [s for s in owners if s >= 0]
        if not owners:
            error = ShardUnavailableError(cluster)
            error.picks = picks
            raise error
        pick = min(owners, key=lambda s: (loads[s], assigned[s], s))
        assigned[pick] += size
        picks.append(pick)
    return picks


class TestReplicaElection:
    """``ShardRouter._elect`` against the loop it replaced, on tie-heavy
    loads (fresh devices: every load 0.0), warm loads with no ties, mixed
    ties, and with owners dead."""

    N_SHARDS, REPLICAS, NLIST = 4, 3, 24

    @pytest.fixture(scope="class")
    def deployed(self):
        vectors, _ = make_clustered_embeddings(1200, 64, self.NLIST, seed="elect")
        device = ShardedReisDevice(
            self.N_SHARDS, tiny_config("ELECT"), replication_factor=self.REPLICAS
        )
        db_id = device.ivf_deploy("e", vectors, nlist=self.NLIST, seed=0)
        return device, db_id

    LOADS = {
        "fresh": [0.0, 0.0, 0.0, 0.0],
        "warm": [3e-3, 1e-3, 2e-3, 4e-3],
        "mixed-ties": [1e-3, 1e-3, 2e-3, 1e-3],
    }

    @pytest.mark.parametrize("dead", [(), (1,), (0, 2, 3)], ids=["all-live", "one-dead", "three-dead"])
    @pytest.mark.parametrize("loads", sorted(LOADS))
    def test_vectorized_pick_equals_the_loop(self, deployed, loads, dead):
        device, db_id = deployed
        router, sdb = device.router, device.database(db_id)
        loads = self.LOADS[loads]
        sizes = np.bincount(sdb.assignment.cluster_of_vector, minlength=self.NLIST)
        rng = np.random.default_rng(7)
        for clusters in (
            np.arange(self.NLIST),
            rng.permutation(self.NLIST),
            rng.permutation(self.NLIST)[:7],
        ):
            state = SimpleNamespace(
                sdb=sdb, cluster_sizes=sizes,
                serving=np.full(self.NLIST, -1, dtype=np.int64),
            )
            expected = np.full(self.NLIST, -1, dtype=np.int64)
            rows = sdb.assignment.live_owners(dead)[clusters].tolist()
            router.load_source = lambda: loads
            for shard in dead:
                router.fail_shard(shard)
            try:
                try:
                    picks = _reference_elect(
                        rows, loads, sizes[clusters].tolist(), clusters.tolist(),
                        self.N_SHARDS,
                    )
                except ShardUnavailableError as error:
                    expected[clusters[: len(error.picks)]] = error.picks
                    with pytest.raises(ShardUnavailableError) as raised:
                        router._elect(state, clusters)
                    assert raised.value.args == error.args
                else:
                    expected[clusters] = picks
                    assert router._elect(state, clusters).tolist() == picks
            finally:
                router.load_source = None
                for shard in dead:
                    router.revive_shard(shard)
            assert state.serving.tolist() == expected.tolist()


def _ledger_visits(runs, n_queries):
    """Each query's NAND and DRAM visit rows over every ledger ``runs``
    billed, rows mapped to batch queries through ``ledger.queries``."""
    nand, dram = np.zeros((2, n_queries), dtype=np.int64)
    for run in runs:
        for ledger in run.ledgers.values():
            np.add.at(nand, ledger.queries[ledger.nand[0]], 1)
            np.add.at(dram, ledger.queries[ledger.dram[0]], 1)
    return nand.tolist(), dram.tolist()


class TestCountsAgreeWithLedgers:
    """On a healthy batch a query's ``pages_read`` is its NAND visits and
    its ``cache_hits`` its DRAM-served visits, summed over every ledger its
    runs billed: the count table and the cost ledgers tell one story."""

    @staticmethod
    def _spy(monkeypatch):
        """The runs of the last batch served while the patch is on (a
        cluster's from its composition, a device's from ``prepare``)."""
        from repro.core.batch import BatchExecutor
        from repro.core.shard import ShardRouter

        seen = SimpleNamespace(runs=[], states=[])
        prepare, compose = BatchExecutor.prepare, ShardRouter._compose

        def spy_prepare(executor, *args, **kwargs):
            seen.runs = [prepare(executor, *args, **kwargs)]
            return seen.runs[0]

        def spy_compose(router, state, *rest):
            seen.runs = state.runs
            seen.states.append(state)
            return compose(router, state, *rest)

        monkeypatch.setattr(BatchExecutor, "prepare", spy_prepare)
        monkeypatch.setattr(ShardRouter, "_compose", spy_compose)
        return seen

    @staticmethod
    def _assert_agree(batch, runs):
        nand, dram = _ledger_visits(runs, len(batch))
        assert [r.stats.pages_read for r in batch] == nand
        assert [r.stats.cache_hits for r in batch] == dram
        return sum(nand), sum(dram)

    def test_one_cached_device(self, monkeypatch):
        vectors, _ = make_clustered_embeddings(400, 64, 8, seed="agree")
        queries = make_queries(vectors, 8, seed="agree-q")
        device = ReisDevice(deep_config("AGREE"))
        db_id = device.ivf_deploy("agree", vectors, nlist=8, seed=0)
        device.enable_page_cache(120_000)  # mirrors part of the working set
        device.ivf_search(db_id, queries[:4], k=4, nprobe=3)
        seen = self._spy(monkeypatch)
        batch = device.ivf_search(db_id, queries, k=4, nprobe=3)
        assert self._assert_agree(batch, seen.runs) == (36, 21)

    def test_warm_cached_cluster(self, monkeypatch):
        from tests.conftest import serve_warm_cached_cluster

        seen = self._spy(monkeypatch)
        batch, _shards = serve_warm_cached_cluster()
        assert self._assert_agree(batch, seen.runs) == (41, 177)

    def test_a_fine_kill_counts_the_dead_runs_unbilled_scan(self, monkeypatch):
        from tests.test_ttl_pin import _workload

        vectors, queries = _workload()
        device = ShardedReisDevice(2, tiny_config("AGREE-SH"), replication_factor=2)
        db_id = device.ivf_deploy("agree", vectors, nlist=8, seed=0)
        device.schedule_shard_failure(1, "fine")
        seen = self._spy(monkeypatch)
        batch = device.ivf_search(db_id, queries, k=4, nprobe=3)
        pages = [r.stats.pages_read for r in batch]
        nand, _dram = _ledger_visits(seen.runs, len(batch))
        # deviation: the run killed at the fine barrier keeps its fine
        # scan's senses in ``pages_read`` (work the drive did), while only
        # finished phases are billed, so its fine ledger never reaches the
        # cost model.  The gap is exactly that ledger's NAND visits.
        # Whether the count or the bill should move is an open question
        # (ROADMAP item 4); the semantics stay as they are.
        [table] = seen.states[-1].tables[:1]
        dead = [
            ledger for run, ledger in zip(table.runs, table.ledgers) if run.dead
        ]
        unbilled, _dram = _ledger_visits(
            [SimpleNamespace(ledgers={"fine": ledger}) for ledger in dead], len(batch)
        )
        assert (sum(pages), sum(nand)) == (65, 54)
        assert pages == [a + b for a, b in zip(nand, unbilled)]
