"""Replica groups, mid-batch failover, and live rebalancing.

The contracts under test:

* **Kill-point bit identity** -- with a surviving replica (R >= 2), a
  shard dying at *any* phase barrier (coarse/fine/rerank/document)
  mid-batch must leave the merged results bit-identical to a healthy
  single device: the replacement runs re-derive exactly the candidates
  the dead shard would have shipped.
* **Clean degradation** -- at R = 1 a dead shard's clusters have no live
  replica; probing one must raise :class:`ShardUnavailableError` naming
  the cluster, never an IndexError out of the merge barriers.
* **Live rebalancing** -- migrating a cluster between shards (page copy,
  ownership flip, source tombstone) must not perturb served results, and
  the scheduler's rebalance pass bills the copy as maintenance.
* **Replicated ingest** -- streamed inserts land on every replica of
  their cluster, deletes fan out to every holder, and the stream stays
  bit-identical to the same stream on one big device.
"""

import numpy as np
import pytest

from repro.ann.ivf import build_ivf_model
from repro.core import (
    KILL_BARRIERS,
    MigrationResult,
    ReisDevice,
    ShardedReisDevice,
    ShardedScheduler,
    ShardUnavailableError,
    plan_placement,
    tiny_config,
)
from repro.core.ingest import MutationRequest
from repro.rag.embeddings import make_clustered_embeddings, make_queries

N, DIM, NLIST, K, NPROBE, NQ = 360, 64, 12, 8, 5, 6
SHARDS = 3


def _corpus(seed):
    vectors, _ = make_clustered_embeddings(N, DIM, NLIST, seed=seed)
    queries = make_queries(vectors, NQ, seed=(seed, "q"))
    model = build_ivf_model(vectors, NLIST, seed=0)
    return vectors, queries, model


def _assert_identical(expect, batch, documents=True):
    for a, b in zip(expect, batch):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)
        if documents:
            assert [d.chunk_id for d in a.documents] == [
                d.chunk_id for d in b.documents
            ]


@pytest.fixture(scope="module")
def replicated_pair():
    """A single device and an R=2 three-shard cluster, same corpus."""
    vectors, queries, model = _corpus("failover")
    single = ReisDevice(tiny_config("FO-1"))
    sid = single.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
    sharded = ShardedReisDevice(
        SHARDS, tiny_config("FO-R2"), placement="cluster",
        replication_factor=2,
    )
    did = sharded.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
    reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
    return sharded, did, queries, reference


class TestReplicaPlacement:
    def test_every_cluster_has_r_distinct_owners(self):
        vectors, _, model = _corpus("place")
        assignment = plan_placement(
            N, 4, "cluster", model, replication_factor=3
        )
        assert assignment.replication_factor == 3
        for cluster in range(NLIST):
            owners = assignment.owners_of(cluster)
            assert len(owners) == 3
            assert len(set(owners)) == 3
            # The primary is the layout owner from the R=1 greedy pass.
            assert owners[0] == int(
                assignment.cluster_owners[cluster][0]
            )

    def test_replicas_hold_full_cluster_membership(self):
        vectors, _, model = _corpus("members")
        assignment = plan_placement(
            N, SHARDS, "cluster", model, replication_factor=2
        )
        cluster_of = np.asarray(assignment.cluster_of_vector)
        for cluster in range(NLIST):
            members = set(np.flatnonzero(cluster_of == cluster).tolist())
            for owner in assignment.owners_of(cluster):
                held = set(
                    int(v) for v in assignment.shard_vectors[owner]
                )
                assert members <= held

    def test_replication_needs_cluster_policy_and_model(self):
        _, _, model = _corpus("reject")
        with pytest.raises(ValueError):
            plan_placement(N, SHARDS, "round_robin", model,
                           replication_factor=2)
        with pytest.raises(ValueError):
            plan_placement(N, SHARDS, "cluster", None,
                           replication_factor=2)
        with pytest.raises(ValueError):
            plan_placement(N, 2, "cluster", model, replication_factor=3)


class TestKillPointBitIdentity:
    @pytest.mark.parametrize("barrier", KILL_BARRIERS)
    @pytest.mark.parametrize("victim", range(SHARDS))
    def test_mid_batch_kill_reroutes_bit_identically(
        self, replicated_pair, barrier, victim
    ):
        sharded, did, queries, reference = replicated_pair
        sharded.schedule_shard_failure(victim, barrier)
        try:
            batch = sharded.ivf_search(did, queries, k=K, nprobe=NPROBE)
            _assert_identical(reference, batch)
            # Failover work is billed to its own phase and the wall clock
            # still decomposes exactly.
            phases = batch.phase_seconds()
            assert sum(phases.values()) == pytest.approx(
                batch.wall_seconds
            )
            # The shard stays dead: the next batch reroutes from coarse.
            again = sharded.ivf_search(did, queries, k=K, nprobe=NPROBE)
            _assert_identical(reference, again)
        finally:
            sharded.revive_shard(victim)
        healthy = sharded.ivf_search(did, queries, k=K, nprobe=NPROBE)
        _assert_identical(reference, healthy)

    def test_failover_phase_appears_when_work_was_lost(self):
        vectors, queries, model = _corpus("fo-phase")
        single = ReisDevice(tiny_config("FOP-1"))
        sid = single.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
        reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
        sharded = ShardedReisDevice(
            SHARDS, tiny_config("FOP-R2"), placement="cluster",
            replication_factor=2,
        )
        did = sharded.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
        # Whichever replica the load balancer picks, killing every shard
        # in turn must hit at least one that was serving lost work.
        saw_failover = False
        for victim in range(SHARDS):
            sharded.schedule_shard_failure(victim, "fine")
            try:
                batch = sharded.ivf_search(
                    did, queries, k=K, nprobe=NPROBE
                )
            finally:
                sharded.revive_shard(victim)
            _assert_identical(reference, batch)
            saw_failover |= batch.phase_seconds().get("failover", 0.0) > 0
        assert saw_failover


class TestZeroReplicaDegradation:
    def test_r1_kill_raises_naming_a_lost_cluster(self):
        vectors, queries, model = _corpus("degrade")
        sharded = ShardedReisDevice(
            SHARDS, tiny_config("FO-R1"), placement="cluster"
        )
        did = sharded.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
        owned = sharded.database(did).assignment.shard_clusters[0]
        sharded.kill_shard(0)
        with pytest.raises(ShardUnavailableError) as excinfo:
            sharded.ivf_search(did, queries, k=K, nprobe=NLIST)
        assert excinfo.value.cluster in set(int(c) for c in owned)
        assert str(excinfo.value.cluster) in str(excinfo.value)
        # Revival restores full service.
        sharded.revive_shard(0)
        single = ReisDevice(tiny_config("FO-R1-REF"))
        sid = single.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
        _assert_identical(
            single.ivf_search(sid, queries, k=K, nprobe=NLIST),
            sharded.ivf_search(did, queries, k=K, nprobe=NLIST),
        )


    @pytest.mark.parametrize("barrier", KILL_BARRIERS)
    def test_flat_database_kill_raises_the_named_error(self, barrier):
        """A flat (striped) layout has no replicas to re-home onto: a shard
        dying at any barrier is the named error, not a TypeError out of
        the failover bookkeeping (rerank/document before this pin)."""
        vectors, queries, _ = _corpus("degrade-flat")
        sharded = ShardedReisDevice(2, tiny_config("FO-FLAT"))
        did = sharded.db_deploy("flat", vectors, seed=0)
        sharded.schedule_shard_failure(1, barrier)
        with pytest.raises(ShardUnavailableError, match="no cluster replicas"):
            sharded.search(did, queries, k=K)


class TestLiveRebalancing:
    @pytest.mark.parametrize("repl", [1, 2])
    def test_migration_preserves_bit_identity(self, repl):
        vectors, queries, model = _corpus("migrate")
        single = ReisDevice(tiny_config(f"MIG-1-{repl}"))
        sid = single.ivf_deploy("m", vectors, ivf_model=model, seed=0)
        reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
        sharded = ShardedReisDevice(
            SHARDS, tiny_config(f"MIG-{repl}"), placement="cluster",
            replication_factor=repl,
        )
        did = sharded.ivf_deploy("m", vectors, ivf_model=model, seed=0)
        assignment = sharded.database(did).assignment
        moved = 0
        for cluster in range(NLIST):
            owners = list(assignment.owners_of(cluster))
            free = [s for s in range(SHARDS) if s not in owners]
            if not free:
                continue
            result = sharded.migrate_cluster(
                did, cluster, free[0], src=owners[0]
            )
            assert isinstance(result, MigrationResult)
            assert result.vectors_moved > 0
            assert result.pages_copied > 0
            assert result.seconds > 0
            # Ownership flipped to the destination.
            assert free[0] in assignment.owners_of(cluster)
            assert owners[0] not in assignment.owners_of(cluster)
            moved += 1
            _assert_identical(
                reference,
                sharded.ivf_search(did, queries, k=K, nprobe=NPROBE),
            )
            if moved >= 3:
                break
        assert moved >= 3

    def test_kill_migration_destination_still_fails_over(self):
        vectors, queries, model = _corpus("migkill")
        single = ReisDevice(tiny_config("MK-1"))
        sid = single.ivf_deploy("m", vectors, ivf_model=model, seed=0)
        reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
        sharded = ShardedReisDevice(
            SHARDS, tiny_config("MK-R2"), placement="cluster",
            replication_factor=2,
        )
        did = sharded.ivf_deploy("m", vectors, ivf_model=model, seed=0)
        assignment = sharded.database(did).assignment
        cluster = next(
            c for c in range(NLIST)
            if len(set(range(SHARDS))
                   - set(assignment.owners_of(c))) > 0
        )
        owners = list(assignment.owners_of(cluster))
        dst = next(s for s in range(SHARDS) if s not in owners)
        result = sharded.migrate_cluster(did, cluster, dst, src=owners[0])
        sharded.schedule_shard_failure(result.dst, "fine")
        batch = sharded.ivf_search(did, queries, k=K, nprobe=NPROBE)
        _assert_identical(reference, batch)
        sharded.revive_shard(result.dst)

    def test_migration_argument_validation(self):
        vectors, queries, model = _corpus("migval")
        sharded = ShardedReisDevice(
            SHARDS, tiny_config("MV"), placement="cluster"
        )
        did = sharded.ivf_deploy("m", vectors, ivf_model=model, seed=0)
        assignment = sharded.database(did).assignment
        owner = int(assignment.cluster_owners[0][0])
        with pytest.raises(ValueError):
            sharded.migrate_cluster(did, 0, owner)  # already owns it
        with pytest.raises(ValueError):
            sharded.migrate_cluster(did, NLIST + 5, (owner + 1) % SHARDS)
        with pytest.raises(ValueError):
            other = next(s for s in range(SHARDS) if s != owner)
            sharded.migrate_cluster(did, 0, other, src=other)

    def test_scheduler_rebalance_moves_load_and_bills_maintenance(self):
        vectors, queries, model = _corpus("rebal")
        single = ReisDevice(tiny_config("RB-1"))
        sid = single.ivf_deploy("r", vectors, ivf_model=model, seed=0)
        reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
        sharded = ShardedReisDevice(
            SHARDS, tiny_config("RB"), placement="cluster"
        )
        did = sharded.ivf_deploy("r", vectors, ivf_model=model, seed=0)
        scheduler = ShardedScheduler(sharded)
        sharded.ivf_search(did, queries, k=K, nprobe=NPROBE)
        result = scheduler.run_rebalance(did)
        assert result is not None
        assert result.src != result.dst
        assert result.seconds > 0
        # Billed as maintenance on both endpoints and the cluster.
        assert (
            scheduler.children[result.src].accounting.maintenance_seconds
            > 0
        )
        assert (
            scheduler.children[result.dst].accounting.maintenance_seconds
            > 0
        )
        assert scheduler.accounting.maintenance_seconds >= result.seconds
        _assert_identical(
            reference,
            sharded.ivf_search(did, queries, k=K, nprobe=NPROBE),
        )


class TestReplicatedIngest:
    def test_streamed_mutations_match_single_device(self):
        vectors, queries, model = _corpus("rep-ing")
        head, tail = vectors[:300], vectors[300:]
        head_model = build_ivf_model(head, NLIST, seed=0)

        def stream(target):
            result = target.apply(
                [MutationRequest(op="insert", vector=v) for v in tail]
            )
            assert all(a.applied for a in result.acks)
            result = target.apply(
                [
                    MutationRequest(op="delete", entry_id=3),
                    MutationRequest(op="delete", entry_id=17),
                ]
            )
            assert all(a.applied for a in result.acks)

        single = ReisDevice(tiny_config("RI-1"))
        sid = single.ivf_deploy(
            "i", head, ivf_model=head_model, growth_entries=2048, seed=0
        )
        stream(single.ingest_manager(sid))
        reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)

        sharded = ShardedReisDevice(
            SHARDS, tiny_config("RI-R2"), placement="cluster",
            replication_factor=2,
        )
        did = sharded.ivf_deploy(
            "i", head, ivf_model=head_model, growth_entries=2048, seed=0
        )
        stream(sharded.ingest_coordinator(did))
        _assert_identical(
            reference,
            sharded.ivf_search(did, queries, k=K, nprobe=NPROBE),
            documents=False,
        )
        # Streamed entries live on every replica: any single shard can
        # die mid-batch and the results do not change.
        for victim in range(SHARDS):
            sharded.schedule_shard_failure(victim, "fine")
            _assert_identical(
                reference,
                sharded.ivf_search(did, queries, k=K, nprobe=NPROBE),
                documents=False,
            )
            sharded.revive_shard(victim)


class TestShardedBatchForming:
    def test_queue_uses_cluster_wide_former(self, replicated_pair):
        sharded, did, queries, reference = replicated_pair
        queue = sharded.submission_queue(did, k=K, nprobe=NPROBE)
        shards = {view[0] for view in queue.former.views(())}
        assert shards == set(sharded.database(did).active_shards)
        for i, query in enumerate(queries):
            queue.submit(query, tenant=f"t{i % 2}")
        report = queue.drain()
        served = sorted(
            report.served, key=lambda s: s.submission.sub_id
        )
        for expect, got in zip(reference, served):
            assert np.array_equal(expect.ids, got.result.ids)
            assert np.array_equal(expect.distances, got.result.distances)

    def test_estimate_counts_planes_across_all_shards(
        self, replicated_pair
    ):
        sharded, did, queries, reference = replicated_pair
        queue = sharded.submission_queue(did, k=K, nprobe=NPROBE)
        former = queue.former
        total_planes = former._count_planes()
        # A former over one shard alone sees one shard's regions -- the
        # misreading the cluster-wide views fix.  The count over every
        # shard must exceed it.
        sdb = sharded.database(did)
        anchor = sdb.active_shards[0]
        base = sharded.shards[anchor].submission_queue(
            sdb.shard_db_ids[anchor], k=K, policy=queue.policy
        ).former
        assert total_planes > base._count_planes()
        from repro.core.queue import Submission

        pending = [
            Submission(
                sub_id=0, tenant="t", query=queries[0], submit_s=0.0
            )
        ]
        estimate = former.estimate(pending)
        assert estimate.n_requests > 0
        assert estimate.n_senses > 0
        assert estimate.n_planes == total_planes
        assert 0 < estimate.planes_covered <= total_planes
