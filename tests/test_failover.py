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
  ownership flip in the placement table), there and back again, must not
  perturb served results, and the scheduler's rebalance pass bills the
  copy as maintenance.
* **Replicated ingest** -- streamed inserts land on every replica of
  their cluster, deletes fan out to every holder, and the stream stays
  bit-identical to the same stream on one big device.  No write lands on
  a dead shard: it is passed over and demoted, or the group is refused.
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
    sharded = ShardedReisDevice(SHARDS, tiny_config("FO-R2"), replication_factor=2)
    did = sharded.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
    reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
    return sharded, did, queries, reference


class TestReplicaPlacement:
    @pytest.mark.parametrize("repl", [1, 2, 3])
    def test_every_cluster_has_r_distinct_owners(self, repl):
        vectors, _, model = _corpus("place")
        assignment = plan_placement(N, 4, model, replication_factor=repl)
        assert assignment.cluster_owners.shape == (NLIST, repl)
        assert assignment.replication_factor == repl
        for cluster in range(NLIST):
            owners = assignment.owners_of(cluster)
            assert len(owners) == repl
            assert len(set(owners)) == repl
            # The primary is the layout owner from the R=1 greedy pass.
            assert owners[0] == int(
                assignment.cluster_owners[cluster][0]
            )

    def test_replicas_hold_full_cluster_membership(self):
        vectors, _, model = _corpus("members")
        assignment = plan_placement(N, SHARDS, model, replication_factor=2)
        cluster_of = np.asarray(assignment.cluster_of_vector)
        for cluster in range(NLIST):
            members = set(np.flatnonzero(cluster_of == cluster).tolist())
            for owner in assignment.owners_of(cluster):
                held = set(
                    int(v) for v in assignment.shard_vectors[owner]
                )
                assert members <= held

    def test_replication_needs_a_model_and_enough_shards(self):
        _, _, model = _corpus("reject")
        with pytest.raises(ValueError):
            plan_placement(N, SHARDS, None, replication_factor=2)
        with pytest.raises(ValueError):
            plan_placement(N, 2, model, replication_factor=3)


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
        sharded = ShardedReisDevice(SHARDS, tiny_config("FOP-R2"), replication_factor=2)
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
        sharded = ShardedReisDevice(SHARDS, tiny_config("FO-R1"))
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
    def test_r1_full_probe_kill_raises_naming_a_lost_cluster(self, barrier):
        """At R=1 a shard dying mid-batch at any barrier of a full-probe
        ``search`` leaves its clusters no replica to re-home onto: the
        named error, naming one of them, never a TypeError out of the
        failover bookkeeping."""
        vectors, queries, model = _corpus("degrade-full")
        sharded = ShardedReisDevice(2, tiny_config("FO-R1-FULL"))
        did = sharded.ivf_deploy("fo", vectors, ivf_model=model, seed=0)
        owned = sharded.database(did).assignment.shard_clusters[1].tolist()
        sharded.schedule_shard_failure(1, barrier)
        with pytest.raises(ShardUnavailableError) as excinfo:
            sharded.search(did, queries, k=K)
        assert excinfo.value.cluster in owned
        assert str(excinfo.value.cluster) in str(excinfo.value)


class TestLiveRebalancing:
    @pytest.mark.parametrize("via", ["migrate_cluster", "run_rebalance"])
    @pytest.mark.parametrize("repl", [1, 2])
    def test_migration_preserves_bit_identity(self, repl, via):
        """Three clusters move out, then the first moves back to the shard
        it left (A -> B -> A: onto a layout that still holds it).  No move
        perturbs results, and a delete after the round trip matches the
        same delete on one device."""
        vectors, queries, model = _corpus("migrate")
        single = ReisDevice(tiny_config(f"MIG-1-{repl}-{via}"))
        sid = single.ivf_deploy("m", vectors, ivf_model=model, seed=0)
        reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
        sharded = ShardedReisDevice(
            SHARDS, tiny_config(f"MIG-{repl}-{via}"), replication_factor=repl
        )
        did = sharded.ivf_deploy("m", vectors, ivf_model=model, seed=0)
        scheduler = ShardedScheduler(sharded)

        def table():
            return sharded.database(did).assignment

        def move(cluster, dst, src):
            if via == "migrate_cluster":
                return sharded.migrate_cluster(did, cluster, dst, src=src)
            return scheduler.run_rebalance(did, cluster=cluster, dst=dst)

        victim = int(reference[0].ids[0])
        home = int(table().cluster_of_vector[victim])
        moves = []
        for cluster in [home] + [c for c in range(NLIST) if c != home][:2]:
            owners = table().owners_of(cluster)
            dst = next(s for s in range(SHARDS) if s not in owners)
            result = move(cluster, dst, owners[0])
            assert isinstance(result, MigrationResult)
            assert result.vectors_moved > 0
            assert result.pages_copied > 0
            assert result.seconds > 0
            # Ownership flipped to the destination.
            assert dst in table().owners_of(cluster)
            assert result.src not in table().owners_of(cluster)
            moves.append(result)
            _assert_identical(
                reference,
                sharded.ivf_search(did, queries, k=K, nprobe=NPROBE),
            )
        first = moves[0]
        back = move(first.cluster, first.src, first.dst)
        assert back.dst == first.src
        assert first.src in table().owners_of(first.cluster)
        layout = table().shard_clusters[first.src].tolist()
        assert layout.count(first.cluster) == 1
        _assert_identical(
            reference, sharded.ivf_search(did, queries, k=K, nprobe=NPROBE)
        )

        delete = [MutationRequest(op="delete", entry_id=victim)]
        assert single.ingest_manager(sid).apply(delete).acks[0].applied
        assert sharded.ingest_coordinator(did).apply(delete).acks[0].applied
        expect = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
        assert victim not in expect[0].ids
        _assert_identical(
            expect, sharded.ivf_search(did, queries, k=K, nprobe=NPROBE)
        )

    def test_kill_migration_destination_still_fails_over(self):
        vectors, queries, model = _corpus("migkill")
        single = ReisDevice(tiny_config("MK-1"))
        sid = single.ivf_deploy("m", vectors, ivf_model=model, seed=0)
        reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
        sharded = ShardedReisDevice(SHARDS, tiny_config("MK-R2"), replication_factor=2)
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
        """Every refused move is refused before the destination's piece is
        dropped: the table and every shard's piece stay as they were."""
        vectors, queries, model = _corpus("migval")
        sharded = ShardedReisDevice(SHARDS, tiny_config("MV"))
        did = sharded.ivf_deploy("m", vectors, ivf_model=model, seed=0)
        sdb = sharded.database(did)
        table, pieces = sdb.assignment, list(sdb.shard_dbs)
        owner = int(table.cluster_owners[0][0])
        other = next(s for s in range(SHARDS) if s != owner)
        refused = [
            (ValueError, lambda: sharded.migrate_cluster(did, 0, owner)),
            (ValueError, lambda: sharded.migrate_cluster(did, NLIST + 5, other)),
            (ValueError, lambda: sharded.migrate_cluster(did, 0, other, src=other)),
            (ValueError, lambda: sharded.migrate_cluster(did, 0, SHARDS)),
        ]
        sharded.kill_shard(other)
        refused.append(
            (ValueError, lambda: sharded.migrate_cluster(did, 0, other))
        )
        for error, call in refused:
            with pytest.raises(error):
                call()
        sharded.revive_shard(other)
        sharded.kill_shard(owner)
        with pytest.raises(ShardUnavailableError):
            sharded.migrate_cluster(did, 0, other)
        sharded.revive_shard(owner)
        assert sdb.assignment is table
        assert all(a is b for a, b in zip(sdb.shard_dbs, pieces))

    def test_scheduler_rebalance_moves_load_and_bills_maintenance(self):
        vectors, queries, model = _corpus("rebal")
        single = ReisDevice(tiny_config("RB-1"))
        sid = single.ivf_deploy("r", vectors, ivf_model=model, seed=0)
        reference = single.ivf_search(sid, queries, k=K, nprobe=NPROBE)
        sharded = ShardedReisDevice(SHARDS, tiny_config("RB"))
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


class TestSchedulerOnDeadDrives:
    """A killed drive is left alone by the cluster scheduler -- no mode
    switch, no GC or refresh, no compaction -- and revive resumes each."""

    def _killed(self, tag):
        vectors, queries, model = _corpus("sched-dead")
        sharded = ShardedReisDevice(
            SHARDS, tiny_config(f"SD-{tag}"), replication_factor=2
        )
        did = sharded.ivf_deploy(
            "s", vectors, ivf_model=model, growth_entries=256, seed=0
        )
        scheduler = ShardedScheduler(sharded)
        scheduler.run_maintenance()
        sharded.kill_shard(1)
        return sharded, did, queries, scheduler, scheduler.children[1].accounting

    def test_serving_switches_no_dead_shard_into_rag_mode(self):
        sharded, did, queries, scheduler, dead = self._killed("serve")
        switches = dead.mode_switches
        scheduler.serve_queries(did, queries, k=K, nprobe=NPROBE)
        assert dead.mode_switches == switches
        assert dead.rag_seconds == 0

        sharded.revive_shard(1)
        scheduler.serve_queries(did, queries, k=K, nprobe=NPROBE)
        assert dead.mode_switches > switches

    def test_gc_and_refresh_skip_a_dead_shard(self):
        sharded, _, _, scheduler, dead = self._killed("gc")
        gc_runs, maintenance = len(dead.gc_results), dead.maintenance_seconds
        scheduler.run_maintenance()
        assert len(dead.gc_results) == len(dead.refresh_results) == gc_runs
        assert dead.maintenance_seconds == maintenance

        sharded.revive_shard(1)
        scheduler.run_maintenance()
        assert len(dead.gc_results) == len(dead.refresh_results) == gc_runs + 1

    def test_compaction_skips_a_dead_shard_and_its_bill(self):
        """The dead drive is not compacted, and so bills nothing toward
        the cluster's slowest-shard maximum."""
        sharded, did, _, scheduler, dead = self._killed("compact")
        coordinator = sharded.ingest_coordinator(did)
        before = [child.accounting.maintenance_seconds for child in scheduler.children]
        total = scheduler.run_ingest_maintenance(coordinator)
        spent = [
            child.accounting.maintenance_seconds - prior
            for child, prior in zip(scheduler.children, before)
        ]
        assert spent[1] == 0
        assert total.seconds == max(spent) > 0

        sharded.revive_shard(1)
        scheduler.run_ingest_maintenance(coordinator)
        assert dead.maintenance_seconds > before[1]


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

        sharded = ShardedReisDevice(SHARDS, tiny_config("RI-R2"), replication_factor=2)
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


    @pytest.mark.parametrize("repl,shards", [(1, 2), (2, SHARDS)])
    def test_no_write_lands_on_a_dead_shard(self, repl, shards):
        """A group commits on live copies only and demotes the dead owners
        of every cluster it wrote; with no live copy it is refused whole.
        The dead shard's live count never moves, and after revive the
        database matches one device that received the same stream."""
        vectors, queries, model = _corpus("dead-write")
        head, tail = vectors[:300], vectors[300:]
        head_model = build_ivf_model(head, NLIST, seed=0)
        tag = f"DW-cluster-{repl}"
        single = ReisDevice(tiny_config(f"{tag}-1"))
        sid = single.ivf_deploy(
            "w", head, ivf_model=head_model, growth_entries=2048, seed=0
        )
        sharded = ShardedReisDevice(shards, tiny_config(tag), replication_factor=repl)
        did = sharded.ivf_deploy(
            "w", head, ivf_model=head_model, growth_entries=2048, seed=0
        )
        sdb = sharded.database(did)
        manager, coordinator = single.ingest_manager(sid), sharded.ingest_coordinator(did)

        def holders(gid):
            table = sdb.assignment
            cluster = int(table.cluster_of_vector[gid])
            return [s for s in table.owners_of(cluster)
                    if gid in table.shard_vectors[s]]

        def commit(group):
            assert all(a.applied for a in manager.apply(group).acks)
            assert all(a.applied for a in coordinator.apply(group).acks)

        group = [MutationRequest(op="delete", entry_id=g) for g in range(0, 100, 10)]
        group += [MutationRequest(op="insert", vector=v) for v in tail[:10]]
        sharded.kill_shard(0)
        dead_live = coordinator.managers[0].index.live_count()
        if repl == 1:
            table, next_id = sdb.assignment, coordinator.next_id
            with pytest.raises(ShardUnavailableError) as refused:
                coordinator.apply(group)
            assert 0 <= refused.value.cluster < NLIST
            assert sdb.assignment is table and coordinator.next_id == next_id
            commit([MutationRequest(op="delete", entry_id=g)
                    for g in range(1, 100, 7) if 0 not in holders(g)])
        else:
            written = {int(sdb.assignment.cluster_of_vector[g]) for g in range(0, 100, 10)}
            assert any(0 in sdb.assignment.owners_of(c) for c in written)
            first_new = coordinator.next_id
            commit(group)
            written |= set(sdb.assignment.cluster_of_vector[first_new:].tolist())
            assert all(0 not in sdb.assignment.owners_of(c) for c in written)
        assert coordinator.managers[0].index.live_count() == dead_live

        sharded.revive_shard(0)
        if repl == 1:
            commit(group)
        else:
            # Demoted: neither elected nor written to after the revive.
            commit([MutationRequest(op="delete", entry_id=g) for g in range(5, 100, 10)])
            assert coordinator.managers[0].index.live_count() == dead_live
        _assert_identical(
            single.ivf_search(sid, queries, k=K, nprobe=NLIST),
            sharded.ivf_search(did, queries, k=K, nprobe=NLIST),
            documents=False,
        )
        if repl == 1:
            return
        # A migration back onto the revived shard makes it serve again.
        cluster = min(written)
        sharded.migrate_cluster(did, cluster, dst=0)
        assert 0 in sdb.assignment.owners_of(cluster)
        for other in sdb.assignment.owners_of(cluster):
            if other != 0:
                sharded.kill_shard(other)
        member = next(g for g in range(300) if holders(g) == [0])
        before = coordinator.managers[0].index.live_count()
        commit([MutationRequest(op="delete", entry_id=member)])
        assert coordinator.managers[0].index.live_count() == before - 1
        for other in range(SHARDS):
            sharded.revive_shard(other)
        _assert_identical(
            single.ivf_search(sid, queries, k=K, nprobe=NLIST),
            sharded.ivf_search(did, queries, k=K, nprobe=NLIST),
            documents=False,
        )


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
        estimate = former.estimate(np.arange(1))
        assert estimate.n_requests > 0
        assert estimate.n_senses > 0
        assert estimate.n_planes == total_planes
        assert 0 < estimate.planes_covered <= total_planes
