"""Tests for the streaming mutability subsystem (core/ingest.py).

The central contract (the PR 6 tentpole): after *any* interleaving of
inserts, deletes and updates with queries, search results are
bit-identical to a fresh deployment of the equivalent corpus snapshot --
on one device and across shards.  Hypothesis drives random mutation
scripts; a host-side model replays the commit acks to reconstruct the
snapshot independently.  On top of that: mutations batch with reads in
the :class:`~repro.core.ingest.IngestQueue` (same forming policy, same
simulated clock), capacity is checked atomically, and compaction -- a
scheduler maintenance pass -- never changes a single result bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.ann.distances import hamming_packed
from repro.ann.ivf import IvfModel, build_ivf_model
from repro.core.api import ReisDevice, ShardedReisDevice
from repro.core.config import tiny_config
from repro.core.ingest import MutationRequest
from repro.core.layout import CapacityError, DeploymentCodecs, oob_records
from repro.core.scheduler import DeviceScheduler, ShardedScheduler
from repro.rag.documents import Corpus, DocumentChunk, synthetic_chunk
from repro.rag.embeddings import make_clustered_embeddings, make_queries

DIM = 16
NLIST = 5
K = 5

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# A mutation script: op string (Insert / Delete / Update) plus a seed the
# script derives its vectors and targets from.
mutation_scripts = st.tuples(
    st.lists(st.sampled_from("IDU"), min_size=1, max_size=8),
    st.integers(0, 10**6),
)


def _base(n, seed):
    vectors, _ = make_clustered_embeddings(n, DIM, NLIST, seed=seed)
    model = build_ivf_model(vectors, NLIST, seed=0)
    queries = make_queries(vectors, 6, seed=(seed, "q"))
    return vectors, model, queries


def _run_script(manager, ops, seed, base_vectors):
    """Drive a mutation script and replay its acks into a host-side model.

    Returns ``(vectors_by_id, live)``: the vector of every id ever
    assigned, and the set of ids the device should consider live.
    """
    rng = np.random.default_rng(seed)
    n = len(base_vectors)
    candidates = set(range(n))  # optimistic view, only used for targeting
    requests = []
    for op in ops:
        if op == "I" or not candidates:
            anchor = base_vectors[int(rng.integers(n))]
            vector = (anchor + rng.normal(0, 0.05, DIM)).astype(np.float32)
            requests.append(MutationRequest(op="insert", vector=vector))
        elif op == "D":
            target = int(rng.choice(sorted(candidates)))
            candidates.discard(target)
            requests.append(MutationRequest(op="delete", entry_id=target))
        else:
            target = int(rng.choice(sorted(candidates)))
            candidates.discard(target)
            vector = (
                base_vectors[target % n] * 0.97 + rng.normal(0, 0.02, DIM)
            ).astype(np.float32)
            requests.append(
                MutationRequest(op="update", entry_id=target, vector=vector)
            )
    # Two commit groups, so the tail pages see more than one append pass.
    mid = max(1, len(requests) // 2)
    groups = [requests[:mid]] + ([requests[mid:]] if requests[mid:] else [])
    vectors_by_id = {i: base_vectors[i] for i in range(n)}
    live = set(range(n))
    for group in groups:
        commit = manager.apply(group)
        assert len(commit.acks) == len(group)
        for request, ack in zip(group, commit.acks):
            if not ack.applied:
                continue
            if ack.op == "insert":
                vectors_by_id[ack.entry_id] = request.vector
                live.add(ack.entry_id)
            elif ack.op == "delete":
                live.discard(ack.entry_id)
            else:  # update
                live.discard(ack.replaced_id)
                vectors_by_id[ack.entry_id] = request.vector
                live.add(ack.entry_id)
    return vectors_by_id, live


def _snapshot_search(members, vectors_by_id, centroids, codecs, queries, name):
    """Fresh-deploy the live snapshot (same codecs) and search it.

    ``members`` is the per-cluster list of live global ids in scan order;
    the fresh deployment reproduces exactly that membership, so any
    result difference is a bug in the mutation path, not in clustering.
    """
    live_ids = np.array(
        sorted(g for cluster in members for g in cluster), dtype=np.int64
    )
    pos = {int(g): i for i, g in enumerate(live_ids)}
    lists = [
        np.array([pos[int(g)] for g in cluster], dtype=np.int64)
        for cluster in members
    ]
    snap_vectors = np.stack([vectors_by_id[int(g)] for g in live_ids]).astype(
        np.float32
    )
    device = ReisDevice(tiny_config(name))
    db_id = device.ivf_deploy(
        "snapshot",
        snap_vectors,
        ivf_model=IvfModel(centroids=centroids, lists=lists),
        codecs=codecs,
    )
    return live_ids, device.ivf_search(db_id, queries, k=K, nprobe=NLIST)


def _assert_bit_identical(batch, snapshot, live_ids):
    for mine, ref in zip(batch.results, snapshot.results):
        assert np.array_equal(mine.ids, live_ids[ref.ids])
        assert np.array_equal(mine.distances, ref.distances)


class TestBitIdentitySingleDevice:
    """Mutated database == fresh deploy of the live snapshot, always."""

    @SETTINGS
    @given(mutation_scripts)
    def test_mutations_match_fresh_snapshot(self, script):
        ops, seed = script
        vectors, model, queries = _base(40, seed=("ing", seed))
        device = ReisDevice(tiny_config(f"ING-{seed}"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        manager = device.ingest_manager(db_id)
        vectors_by_id, live = _run_script(manager, ops, seed, vectors)
        # Independent membership check before trusting the index's lists.
        assert set(manager.index.live_ids()) == live
        assert manager.index.live_count() == len(live)
        members = manager.index.members_by_cluster()
        db = device.database(db_id)
        codecs = DeploymentCodecs(
            binary=db.binary_quantizer,
            int8=db.int8_quantizer,
            filter_threshold=db.filter_threshold,
        )
        live_ids, snapshot = _snapshot_search(
            members, vectors_by_id, model.centroids, codecs, queries,
            f"SNAP-{seed}",
        )
        after = device.ivf_search(db_id, queries, k=K, nprobe=NLIST)
        _assert_bit_identical(after, snapshot, live_ids)
        # Compaction repacks flash but must not move a single result bit.
        result = manager.compact()
        assert result.live_entries == len(live)
        post = device.ivf_search(db_id, queries, k=K, nprobe=NLIST)
        for a, b in zip(after.results, post.results):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)


class TestBitIdentitySharded:
    """The same contract across shards."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        st.tuples(
            st.lists(st.sampled_from("IDU"), min_size=1, max_size=6),
            st.integers(0, 10**6),
        )
    )
    def test_sharded_mutations_match_fresh_snapshot(self, script):
        ops, seed = script
        vectors, model, queries = _base(60, seed=("shing", seed))
        device = ShardedReisDevice(2, tiny_config(f"SHING-{seed}"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        coordinator = device.ingest_coordinator(db_id)
        vectors_by_id, live = _run_script(coordinator, ops, seed, vectors)
        members = coordinator.members_by_cluster()
        assert set(g for cluster in members for g in cluster) == live
        sdb = device.database(db_id)
        assert sdb.n_entries == len(live)
        anchor = sdb.shard_dbs[sdb.active_shards[0]]
        codecs = DeploymentCodecs(
            binary=anchor.binary_quantizer,
            int8=anchor.int8_quantizer,
            filter_threshold=anchor.filter_threshold,
        )
        live_ids, snapshot = _snapshot_search(
            members, vectors_by_id, model.centroids, codecs, queries,
            f"SHSNAP-{seed}",
        )
        after = device.ivf_search(db_id, queries, k=K, nprobe=NLIST)
        _assert_bit_identical(after, snapshot, live_ids)
        coordinator.compact()
        post = device.ivf_search(db_id, queries, k=K, nprobe=NLIST)
        for a, b in zip(after.results, post.results):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)


class TestMutationAcks:
    @pytest.fixture()
    def manager(self):
        vectors, model, _ = _base(40, seed="acks")
        device = ReisDevice(tiny_config("INGA"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        return device.ingest_manager(db_id)

    def test_delete_of_dead_entry_is_not_applied(self, manager):
        first = manager.apply([MutationRequest(op="delete", entry_id=5)])
        assert first.acks[0].applied
        again = manager.apply([MutationRequest(op="delete", entry_id=5)])
        assert not again.acks[0].applied
        assert again.acks[0].note == "target entry is not live"

    def test_update_assigns_fresh_id_and_tombstones_old(self, manager):
        vector = np.ones(DIM, dtype=np.float32)
        commit = manager.apply(
            [MutationRequest(op="update", entry_id=7, vector=vector)]
        )
        ack = commit.acks[0]
        assert ack.op == "update"
        assert ack.applied
        assert ack.replaced_id == 7
        assert ack.entry_id == 40  # ids are monotone, never reused
        assert not manager.index.is_live(7)
        assert manager.index.is_live(40)

    def test_update_of_dead_target_rejected(self, manager):
        manager.apply([MutationRequest(op="delete", entry_id=9)])
        commit = manager.apply(
            [
                MutationRequest(
                    op="update",
                    entry_id=9,
                    vector=np.ones(DIM, dtype=np.float32),
                )
            ]
        )
        assert not commit.acks[0].applied
        assert commit.n_updates == 1
        assert commit.ids == []

    def test_insert_requires_tag_on_tagged_databases(self):
        vectors, model, _ = _base(40, seed="tags")
        tags = np.arange(40, dtype=np.uint32) % 3
        device = ReisDevice(tiny_config("INGT"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, metadata_tags=tags,
            growth_entries=2048,
        )
        manager = device.ingest_manager(db_id)
        with pytest.raises(ValueError, match="metadata tags"):
            manager.apply([MutationRequest(op="insert", vector=vectors[0])])
        commit = manager.apply(
            [MutationRequest(op="insert", vector=vectors[0], metadata_tag=2)]
        )
        new_id = commit.ids[0]
        # The appended entry's in-die tag filter sees the supplied tag.
        hit = device.ivf_search(
            db_id, vectors[0][None, :], k=K, nprobe=NLIST, metadata_filter=2
        )
        assert new_id in hit.results[0].ids
        miss = device.ivf_search(
            db_id, vectors[0][None, :], k=K, nprobe=NLIST, metadata_filter=1
        )
        assert new_id not in miss.results[0].ids


class TestCapacity:
    def test_group_rejected_atomically_when_tail_is_full(self):
        vectors, model, _ = _base(40, seed="cap")
        device = ReisDevice(tiny_config("INGC"))
        db_id = device.ivf_deploy("db", vectors, ivf_model=model)  # no growth
        manager = device.ingest_manager(db_id)
        before = manager.index.live_count()
        with pytest.raises(CapacityError):
            manager.apply(
                [
                    MutationRequest(op="delete", entry_id=0),
                    MutationRequest(op="insert", vector=vectors[0]),
                ]
            )
        # The whole group bounced: even the delete ahead of the doomed
        # insert must not have landed.
        assert manager.index.live_count() == before
        assert manager.index.is_live(0)

    def test_free_slots_never_go_negative(self):
        """``growth_entries`` headroom is counted from the page-aligned
        tail: 256 growth slots sit inside the last deployed INT8 page."""
        vectors, _ = make_clustered_embeddings(60, 32, 4, seed="x")
        device = ReisDevice(tiny_config("INGF0"))
        db_id = device.ivf_deploy(
            "db", vectors, nlist=4, seed=0, growth_entries=256
        )
        manager = device.ingest_manager(db_id)
        int8 = device.database(db_id).int8_region
        assert int8.n_slots < int8.slots_per_page  # the tail starts past the end
        assert manager.free_slots == 0
        with pytest.raises(CapacityError, match="has 0 free slots, need 1"):
            manager.apply([MutationRequest(op="insert", vector=vectors[0])])
        # Deletes need no tail and still go through.
        assert manager.apply([MutationRequest(op="delete", entry_id=0)]).acks[0].applied

    def test_compaction_reopens_headroom(self):
        vectors, model, _ = _base(40, seed="cap2")
        device = ReisDevice(tiny_config("INGC2"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        manager = device.ingest_manager(db_id)
        free_before = manager.free_slots
        commit = manager.apply(
            [
                MutationRequest(op="insert", vector=vectors[i])
                for i in range(10)
            ]
        )
        assert manager.free_slots < free_before
        manager.apply(
            [MutationRequest(op="delete", entry_id=i) for i in commit.ids]
        )
        result = manager.compact()
        assert result.reclaimed_pages > 0
        # With the appended-then-deleted entries packed away, the tail is
        # back exactly where the original deployment left it.
        assert manager.free_slots == free_before


class TestGroupAtomicity:
    """A group that raises changes nothing, on one device or a cluster."""

    def _tagged(self, name):
        vectors, _ = make_clustered_embeddings(60, 32, 4, seed=("atomic", name))
        device = ReisDevice(tiny_config(name))
        db_id = device.ivf_deploy(
            "db", vectors, nlist=4, seed=0,
            metadata_tags=np.ones(60, dtype=np.uint32), growth_entries=2048,
        )
        return device, db_id, vectors

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(), "inserts must supply one"),
            (dict(metadata_tag=2**32), r"\[0, 2\*\*32\)"),
            (dict(metadata_tag=1, nan=True), "finite"),
            (dict(metadata_tag=1, width=31), "dim 32"),
        ],
    )
    def test_refused_group_changes_nothing(self, bad, match):
        device, db_id, vectors = self._tagged("INGV")
        manager = device.ingest_manager(db_id)
        before = device.ivf_search(db_id, vectors[:2], k=5, nprobe=4)
        free = manager.free_slots
        vector = vectors[5][: bad.pop("width", 32)].copy()
        if bad.pop("nan", False):
            vector[0] = np.nan
        with pytest.raises(ValueError, match=match):
            manager.apply([
                MutationRequest(op="insert", vector=vectors[1], metadata_tag=1),
                MutationRequest(op="delete", entry_id=3),
                MutationRequest(op="insert", vector=vector, **bad),
            ])
        assert manager.index.is_live(3)
        assert manager.index.live.size == 60 and manager.index.live_count() == 60
        assert manager.free_slots == free and manager.commits == []
        after = device.ivf_search(db_id, vectors[:2], k=5, nprobe=4)
        for a, b in zip(before.results, after.results):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
        # The repaired group lands under the ids the refused one would have.
        commit = manager.apply([
            MutationRequest(op="insert", vector=vectors[1], metadata_tag=1),
            MutationRequest(op="delete", entry_id=3),
            MutationRequest(op="insert", vector=vectors[5], metadata_tag=1),
        ])
        assert commit.ids == [60, 61] and not manager.index.is_live(3)

    @pytest.mark.parametrize("cluster", [999, 6, -3])
    def test_pinned_cluster_outside_the_index_is_refused(self, cluster):
        # 6 == nlist: one past the last cluster, which no scan serves.
        vectors, _ = make_clustered_embeddings(300, 64, 6, seed="pinned")
        device = ReisDevice(tiny_config("INGP"))
        db_id = device.ivf_deploy(
            "db", vectors, nlist=6, seed=0, growth_entries=4096
        )
        manager = device.ingest_manager(db_id)
        free = manager.free_slots
        with pytest.raises(ValueError, match="cluster"):
            manager.apply([
                MutationRequest(op="insert", vector=vectors[1]),
                MutationRequest(op="insert", vector=vectors[7], cluster=cluster),
            ])
        assert manager.index.live.size == 300 and manager.commits == []
        assert manager.free_slots == free
        # An in-range pin lands, and a full probe serves it.
        commit = manager.apply([
            MutationRequest(op="insert", vector=vectors[7], cluster=5),
        ])
        assert commit.acks[0].applied and commit.ids == [300]
        batch = device.ivf_search(db_id, vectors[7:8], k=5, nprobe=6)
        assert 300 in batch.results[0].ids.tolist()

    def test_queue_refuses_a_missing_tag_at_submission(self):
        device, db_id, vectors = self._tagged("INGVQ")
        queue = device.ingest_queue(db_id, k=5, nprobe=4)
        with pytest.raises(ValueError, match="inserts must supply one"):
            queue.submit_insert(vectors[0])
        with pytest.raises(ValueError, match="inserts must supply one"):
            queue.submit_update(4, vectors[0])
        queue.submit_update(4, vectors[0], metadata_tag=1)
        queue.drain()
        # Only the well-formed submission was ever enqueued.
        assert [ack.applied for ack in queue.mutation_acks.values()] == [True]
        assert len(queue.served) == 1

    def test_sharded_group_one_shard_refuses_commits_nowhere(self):
        vectors, _ = make_clustered_embeddings(60, 32, 4, seed=("atomic", "sh"))
        device = ShardedReisDevice(2, tiny_config("INGVS"))
        db_id = device.ivf_deploy(
            "db", vectors, nlist=4, seed=0, growth_entries=2048
        )
        coordinator = device.ingest_coordinator(db_id)
        sdb = device.database(db_id)
        codes = coordinator._binary.encode(vectors)
        nearest = np.argmin(
            hamming_packed(codes, coordinator.centroid_codes), axis=1
        )
        owner = [sdb.assignment.owners_of(int(c))[0] for c in nearest]
        to_0, to_1 = vectors[owner.index(0)], vectors[owner.index(1)]
        fill = coordinator.managers[0].free_slots
        coordinator.apply(
            [MutationRequest(op="insert", vector=to_0)] * fill
        )
        assert coordinator.managers[0].free_slots <= 0  # full
        live_1 = coordinator.managers[1].index.live_count()
        next_id = coordinator.next_id
        assignment = sdb.assignment
        with pytest.raises(CapacityError, match="db@0/"):
            coordinator.apply([
                MutationRequest(op="insert", vector=to_1),
                MutationRequest(op="insert", vector=to_0),
            ])
        assert coordinator.managers[1].index.live_count() == live_1
        assert coordinator.next_id == next_id
        assert sdb.assignment is assignment
        assert assignment.global_slot.size == next_id
        assert sdb.vectors.shape[0] == next_id
        # Shard 1 alone still has room.
        commit = coordinator.apply([MutationRequest(op="insert", vector=to_1)])
        assert commit.ids == [next_id] and commit.acks[0].applied


class TestCompactionLayout:
    """``compact()`` promises exactly the pages a fresh deployment of the
    live snapshot programs; pinned byte for byte (payload and OOB)."""

    @pytest.mark.parametrize("tagged", [False, True])
    def test_compacted_pages_equal_fresh_snapshot_pages(self, tagged):
        vectors, model, _ = _base(60, seed=("layout", tagged))
        tags = np.arange(60, dtype=np.uint32) % 3 if tagged else None
        device = ReisDevice(tiny_config("INGL"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, metadata_tags=tags,
            growth_entries=2048,
        )
        manager = device.ingest_manager(db_id)
        tag = dict(metadata_tag=1) if tagged else {}
        fresh = (vectors[:6] * 0.9).astype(np.float32)
        manager.apply(
            [MutationRequest(op="insert", vector=v, **tag) for v in fresh[:4]]
            + [MutationRequest(op="delete", entry_id=i) for i in (3, 17, 41)]
        )
        manager.apply([
            MutationRequest(op="update", entry_id=8, vector=fresh[4], **tag),
            MutationRequest(op="insert", vector=fresh[5], **tag),
        ])
        by_id = {i: vectors[i] for i in range(60)}
        by_id.update({60 + i: fresh[i] for i in range(6)})
        members = manager.index.members_by_cluster()
        order = [int(g) for cluster in members for g in cluster]
        assert 8 not in order and 64 in order and len(order) == 62
        manager.compact()

        db = device.database(db_id)
        lists, start = [], 0
        for cluster in members:
            lists.append(np.arange(start, start + len(cluster), dtype=np.int64))
            start += len(cluster)
        snap_tags = None
        if tagged:
            snap_tags = np.array(
                [tags[g] if g < 60 else 1 for g in order], dtype=np.uint32
            )
        snapshot = ReisDevice(tiny_config("INGL-SNAP"))
        snap_id = snapshot.ivf_deploy(
            "snapshot",
            np.stack([by_id[g] for g in order]).astype(np.float32),
            ivf_model=IvfModel(centroids=model.centroids, lists=lists),
            codecs=DeploymentCodecs(
                binary=db.binary_quantizer, int8=db.int8_quantizer,
                filter_threshold=db.filter_threshold,
            ),
            metadata_tags=snap_tags,
        )
        snap_db = snapshot.database(snap_id)
        g = device.ssd.spec.geometry
        for name in ("embedding_region", "int8_region"):
            mine, ref = getattr(db, name), getattr(snap_db, name)
            assert ref.n_pages > 0
            for offset in range(ref.n_pages):
                a = mine.region.translate(offset, g)
                b = ref.region.translate(offset, g)
                got = device.ssd.array.plane(a).golden_page(a.block, a.page)
                want = snapshot.ssd.array.plane(b).golden_page(b.block, b.page)
                assert np.array_equal(got[0], want[0]), (name, offset)
                assert np.array_equal(got[1], want[1]), (name, offset)


class TestTailPagesSitAtTranslate:
    """An append group and a compaction program every page at
    ``region.region.translate(offset)``: the slot there holds the staged
    payload row and, on embedding pages, the ``oob_records`` of the
    entry's index columns."""

    @staticmethod
    def _slot(device, region, slot, record_bytes=0):
        g = device.ssd.spec.geometry
        page, i = divmod(int(slot), region.slots_per_page)
        ppa = region.region.translate(page, g)
        data, oob = device.ssd.array.plane(ppa).golden_view(ppa.block, ppa.page)
        width = region.item_bytes
        record = oob[i * record_bytes : (i + 1) * record_bytes]
        return data[i * width : (i + 1) * width], record

    def _assert_pages_hold(self, device, db, index, by_id, ids):
        for entry_id in ids:
            vector = by_id[entry_id][None, :]
            meta = index.meta[[entry_id]] if db.has_metadata else None
            record = oob_records(
                index.dadr[[entry_id]], index.radr[[entry_id]], meta
            )[0]
            code, got = self._slot(
                device, db.embedding_region, index.eadr[entry_id], record.size
            )
            assert np.array_equal(code, db.binary_quantizer.encode(vector)[0])
            assert np.array_equal(got, record)
            int8, _ = self._slot(device, db.int8_region, index.radr[entry_id])
            want = db.int8_quantizer.encode(vector)[0].view(np.uint8)
            assert np.array_equal(int8, want)
            text, _ = self._slot(device, db.document_region, index.dadr[entry_id])
            chunk = DocumentChunk(chunk_id=entry_id, text=f"chunk-{entry_id}")
            assert np.array_equal(
                text, chunk.encode_bytes(db.document_region.item_bytes)
            )

    @pytest.mark.parametrize("tagged", [False, True])
    def test_appends_and_compaction_write_at_region_offsets(self, tagged):
        vectors, model, _ = _base(60, seed=("writer", tagged))
        tags = np.arange(60, dtype=np.uint32) % 3 if tagged else None
        device = ReisDevice(tiny_config("INGW"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, metadata_tags=tags,
            growth_entries=2048,
        )
        manager = device.ingest_manager(db_id)
        db, index = device.database(db_id), manager.index
        tag = dict(metadata_tag=2) if tagged else {}
        fresh = (vectors[:5] * 0.9).astype(np.float32)
        commit = manager.apply(
            [MutationRequest(op="insert", vector=v, **tag) for v in fresh[:3]]
            + [MutationRequest(op="delete", entry_id=i) for i in (4, 30)]
            + [MutationRequest(op="update", entry_id=9, vector=fresh[3], **tag)]
        )
        assert commit.ids == [60, 61, 62, 63]
        by_id = {i: vectors[i] for i in range(60)}
        by_id.update({60 + i: fresh[i] for i in range(4)})
        # Appends start at each region's first page past the deployed ones.
        for key, region in (("eadr", db.embedding_region),
                            ("radr", db.int8_region),
                            ("dadr", db.document_region)):
            first_tail = -(-60 // region.slots_per_page) * region.slots_per_page
            assert getattr(index, key)[60] == first_tail
        self._assert_pages_hold(device, db, index, by_id, commit.ids)

        manager.compact()
        live = index.live_ids()
        assert np.array_equal(index.eadr[live], np.arange(live.size))
        self._assert_pages_hold(device, db, index, by_id, live.tolist())


def _ranges(index, clusters):
    """``index.slot_ranges`` as ``(first, last)`` pairs, in scan order."""
    _owner, firsts, lasts = index.slot_ranges(
        None if clusters is None else np.asarray(clusters, dtype=np.int64)
    )
    return list(zip(firsts.tolist(), lasts.tolist()))


class TestMutableIndex:
    @pytest.fixture()
    def manager(self):
        vectors, model, _ = _base(40, seed="index")
        device = ReisDevice(tiny_config("INGI"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        return device.ingest_manager(db_id)

    def test_deploy_time_ranges_are_contiguous_per_cluster(self, manager):
        ranges = _ranges(manager.index, list(range(NLIST)))
        assert len(ranges) == NLIST
        covered = sorted(ranges)
        assert covered[0][0] == 0
        for (_, prev_end), (next_start, _) in zip(covered, covered[1:]):
            assert next_start == prev_end + 1
        assert covered[-1][1] == 39

    def test_tombstone_splits_a_run(self, manager):
        members = manager.index.members_by_cluster()
        victim_cluster = max(range(NLIST), key=lambda c: members[c].size)
        victims = members[victim_cluster]
        middle_id = int(victims[victims.size // 2])
        middle_slot = int(manager.index.eadr[middle_id])
        n_before = len(_ranges(manager.index, [victim_cluster]))
        manager.apply([MutationRequest(op="delete", entry_id=middle_id)])
        ranges = _ranges(manager.index, [victim_cluster])
        assert len(ranges) == n_before + 1
        assert all(
            not (start <= middle_slot <= end) for start, end in ranges
        )

    def test_appended_entries_diverge_from_slot_identity(self, manager):
        commit = manager.apply(
            [
                MutationRequest(
                    op="insert", vector=np.zeros(DIM, dtype=np.float32)
                )
            ]
        )
        entry_id = commit.ids[0]
        index = manager.index
        # Per-region tail cursors are page-aligned independently, so the
        # three addresses no longer coincide the way deploy slots do.
        assert index.eadr[entry_id] != index.dadr[entry_id]
        assert index.dadr_to_id[index.dadr[entry_id]] == entry_id
        assert manager.db.original_of_dadr(index.dadr[entry_id]) == entry_id

    def test_ids_are_rows_of_one_table(self, manager):
        """Ids are dense and never reused: a commit appends the rows of
        the next ids, and a live column that skips or repeats one is refused
        before any column changes."""
        index = manager.index
        commit = manager.apply(
            [MutationRequest(op="insert", vector=np.ones(DIM, np.float32))]
        )
        assert commit.ids == [40]
        columns = (index.cluster, index.eadr, index.radr, index.dadr, index.meta)
        assert all(column.size == 41 for column in columns + (index.live,))
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="every id exactly once"):
            index.commit(np.ones(43, dtype=bool), *([np.zeros(1, np.int64)] * 5))
        with pytest.raises(ValueError, match="every id exactly once"):
            index.commit(np.ones(40, dtype=bool), *([empty] * 5))
        assert index.cluster.size == 41 and index.live_count() == 41

    def test_live_column_is_the_tombstone_record(self, manager):
        index = manager.index
        assert index.is_live(5) and index.live[5]
        manager.apply([MutationRequest(op="delete", entry_id=5)])
        assert not index.is_live(5) and not index.live[5]
        assert index.live_count() == 39
        # Idempotent: a second delete is refused and changes nothing.
        again = manager.apply([MutationRequest(op="delete", entry_id=5)])
        assert not again.acks[0].applied
        assert index.live_count() == 39
        # Compaction packs the dead row away; it stays dead, never reused.
        manager.compact()
        assert not index.live[5] and 5 not in index.live_ids()
        assert not index.is_live(-1) and not index.is_live(10_000)


class _SlotWalk:
    """The per-slot membership walk the id-indexed table replaced: per
    cluster, ``(embedding slot, id)`` pairs in ascending slot, replayed
    from commit acks (new entries placed where the index says they went)."""

    def __init__(self, db):
        self.members = [
            [(slot, int(db.slot_to_original[slot]))
             for slot in range(r.first_embedding, r.last_embedding + 1)]
            for r in db.r_ivf.entries
        ]

    def replay(self, commit, index):
        for ack in commit.acks:
            if not ack.applied:
                continue
            retired = ack.entry_id if ack.op == "delete" else ack.replaced_id
            if retired is not None:
                for cluster in self.members:
                    cluster[:] = [(s, g) for s, g in cluster if g != retired]
            if ack.op != "delete":
                self.members[int(index.cluster[ack.entry_id])].append(
                    (int(index.eadr[ack.entry_id]), ack.entry_id)
                )

    def compact(self):
        slot = 0
        for cluster in self.members:
            cluster[:] = [(slot + i, g) for i, (_s, g) in enumerate(cluster)]
            slot += len(cluster)

    def slot_ranges(self, clusters):
        cluster_ids = range(len(self.members)) if clusters is None else clusters
        ranges = []
        for cluster in cluster_ids:
            run_start, run_end = None, -1
            for slot, _entry_id in self.members[cluster]:
                if run_start is None:
                    run_start, run_end = slot, slot
                elif slot == run_end + 1:
                    run_end = slot
                else:
                    ranges.append((run_start, run_end))
                    run_start, run_end = slot, slot
            if run_start is not None:
                ranges.append((run_start, run_end))
        return ranges


class TestSlotRangesMatchTheWalk:
    @SETTINGS
    @given(
        # Steps: a commit group (a string of I / D / U ops) or a compaction.
        st.lists(
            st.one_of(st.just("C"), st.text("IDU", min_size=1, max_size=4)),
            min_size=1, max_size=6,
        ),
        st.integers(0, 10**6),
    )
    # Four single inserts seal the four growth pages of ``int8``: the
    # fifth group must be refused (each commit seals whole tail pages).
    @example(["I"] * 5, 0)
    def test_runs_equal_the_per_slot_walk(self, steps, seed):
        vectors, model, _ = _base(40, seed=("walk", seed))
        device = ReisDevice(tiny_config(f"INGW-{seed}"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=4096
        )
        manager = device.ingest_manager(db_id)
        walk = _SlotWalk(device.database(db_id))
        rng = np.random.default_rng(seed)
        subsets = [None] + [
            list(c) for r in range(NLIST + 1)
            for c in itertools.combinations(range(NLIST), r)
        ] + [[4, 0, 2, 0], [3, 3]]
        for step in steps + ["C"]:
            if step == "C":
                manager.compact()
                walk.compact()
            else:
                group = []
                for op in step:
                    target = int(rng.integers(manager.index.live.size + 1))
                    vector = (
                        vectors[target % 40] + rng.normal(0, 0.05, DIM)
                    ).astype(np.float32)
                    group.append({
                        "I": MutationRequest(op="insert", vector=vector),
                        "D": MutationRequest(op="delete", entry_id=target),
                        "U": MutationRequest(
                            op="update", entry_id=target, vector=vector
                        ),
                    }[op])
                free = manager.free_slots
                appended = sum(op != "D" for op in step)
                try:
                    commit = manager.apply(group)
                except CapacityError:
                    assert appended > free
                else:
                    assert appended <= free
                    walk.replay(commit, manager.index)
            for clusters in subsets:
                assert _ranges(manager.index, clusters) == walk.slot_ranges(
                    clusters
                )
            assert manager.index.live_ids().tolist() == [
                g for cluster in walk.members for _s, g in cluster
            ]


class TestIngestQueue:
    def _deployed(self, name="INGQ"):
        vectors, model, queries = _base(50, seed=("queue", name))
        device = ReisDevice(tiny_config(name))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        return device, db_id, vectors, queries

    def test_reads_observe_same_batch_mutations(self, ):
        device, db_id, vectors, _ = self._deployed("INGQ1")
        queue = device.ingest_queue(db_id, k=K, nprobe=NLIST)
        probe = vectors[7] * 1.01
        insert_id = queue.submit_insert(probe)
        read_id = queue.submit(probe)
        queue.drain()
        ack = queue.mutation_acks[insert_id]
        assert ack.op == "insert" and ack.applied
        result = queue.served[read_id].result
        # The same-batch insert is visible to the read...
        assert ack.entry_id in result.ids
        # ...and the queue path is bit-identical to a direct search of
        # the mutated database.
        direct = device.ivf_search(db_id, probe[None, :], k=K, nprobe=NLIST)
        assert np.array_equal(result.ids, direct.results[0].ids)
        assert np.array_equal(result.distances, direct.results[0].distances)

    def test_delete_hides_entry_from_same_batch_reads(self):
        device, db_id, vectors, _ = self._deployed("INGQ2")
        before = device.ivf_search(db_id, vectors[3][None, :], k=K, nprobe=NLIST)
        assert 3 in before.results[0].ids
        queue = device.ingest_queue(db_id, k=K, nprobe=NLIST)
        queue.submit_delete(3)
        read_id = queue.submit(vectors[3])
        queue.drain()
        assert 3 not in queue.served[read_id].result.ids

    def test_commit_time_lands_on_the_sim_clock(self):
        device, db_id, vectors, _ = self._deployed("INGQ3")
        queue = device.ingest_queue(db_id, k=K, nprobe=NLIST)
        queue.submit_insert(vectors[0] * 1.02)
        queue.submit(vectors[1])
        report = queue.drain()
        batch = queue.batches[0]
        assert batch.execution.report.phases["ingest"] > 0
        assert batch.service_seconds > 0
        assert queue.clock.now_s == pytest.approx(batch.finish_s)
        assert report.n_queries == 2

    def test_mutation_only_batch_still_advances_the_clock(self):
        device, db_id, vectors, _ = self._deployed("INGQ4")
        queue = device.ingest_queue(db_id, k=K, nprobe=NLIST)
        queue.submit_delete(1)
        queue.submit_insert(vectors[2] * 0.99)
        queue.drain()
        assert queue.clock.now_s > 0.0
        assert len(queue.mutation_acks) == 2

    def test_non_ivf_deployments_refuse_an_ingest_queue(self):
        vectors, _, _ = _base(40, seed="flat")
        device = ReisDevice(tiny_config("INGF"))
        db_id = device.db_deploy("flat", vectors)
        with pytest.raises(ValueError, match="IVF"):
            device.ingest_queue(db_id)


class TestMaintenanceScheduling:
    def test_device_scheduler_bills_compaction_as_maintenance(self):
        vectors, model, queries = _base(40, seed="maint")
        device = ReisDevice(tiny_config("INGM"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        manager = device.ingest_manager(db_id)
        manager.apply(
            [MutationRequest(op="insert", vector=vectors[0] * 1.01)]
            + [MutationRequest(op="delete", entry_id=i) for i in range(4)]
        )
        before = device.ivf_search(db_id, queries, k=K, nprobe=NLIST)
        scheduler = DeviceScheduler(device)
        result = scheduler.run_ingest_maintenance(manager)
        assert result.seconds > 0
        assert scheduler.accounting.maintenance_seconds >= result.seconds
        after = device.ivf_search(db_id, queries, k=K, nprobe=NLIST)
        for a, b in zip(before.results, after.results):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_sharded_scheduler_bills_the_slowest_shard(self):
        vectors, model, queries = _base(60, seed="shmaint")
        device = ShardedReisDevice(2, tiny_config("INGSM"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, growth_entries=2048
        )
        coordinator = device.ingest_coordinator(db_id)
        coordinator.apply(
            [
                MutationRequest(op="insert", vector=vectors[1] * 1.01),
                MutationRequest(op="delete", entry_id=2),
            ]
        )
        before = device.ivf_search(db_id, queries, k=K, nprobe=NLIST)
        scheduler = ShardedScheduler(device)
        result = scheduler.run_ingest_maintenance(coordinator)
        per_shard = [
            child.accounting.maintenance_seconds
            for child in scheduler.children
        ]
        assert result.seconds == pytest.approx(max(per_shard))
        assert scheduler.accounting.maintenance_seconds == pytest.approx(
            result.seconds
        )
        after = device.ivf_search(db_id, queries, k=K, nprobe=NLIST)
        for a, b in zip(before.results, after.results):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)


class TestCorpusIngest:
    def test_streamed_chunks_are_retrievable(self):
        vectors, model, _ = _base(40, seed="corpus")
        corpus = Corpus(
            [synthetic_chunk(i, i % NLIST, "live") for i in range(40)]
        )
        device = ReisDevice(tiny_config("INGD"))
        db_id = device.ivf_deploy(
            "db", vectors, ivf_model=model, corpus=corpus, growth_entries=2048
        )
        manager = device.ingest_manager(db_id)
        probe = (vectors[11] * 1.001).astype(np.float32)
        commit = manager.apply(
            [
                MutationRequest(
                    op="insert", vector=probe, text="a freshly streamed fact"
                )
            ]
        )
        new_id = commit.ids[0]
        assert new_id in corpus
        hit = device.ivf_search(db_id, probe[None, :], k=K, nprobe=NLIST)
        docs = {r_id: doc for r_id, doc in zip(hit.results[0].ids, hit.results[0].documents)}
        assert new_id in docs
        assert docs[new_id].text == "a freshly streamed fact"
