"""Live ingest: mutate a deployed database while it serves.

Run with::

    python examples/live_ingest.py

Deploys an IVF corpus with growth headroom, then drives the streaming
mutability subsystem end to end:

1. **Mixed batches** -- inserts, deletes, updates and reads share one
   :class:`~repro.core.ingest.IngestQueue`; mutations commit first, so
   every read observes its own batch's writes, on one simulated clock.
2. **Bit identity** -- after the mutations, search results are identical
   to a fresh deployment of the surviving corpus (checked live below by
   comparing against a snapshot device built with the same codecs).
3. **Maintenance** -- a compaction pass
   (:meth:`~repro.core.scheduler.DeviceScheduler.run_ingest_maintenance`)
   repacks the regions, reclaims the tombstoned slots and restores the
   tail headroom without moving a single result bit.
"""

import numpy as np

from repro.ann.ivf import IvfModel, build_ivf_model
from repro.core import DeviceScheduler, ReisDevice, tiny_config
from repro.core.layout import DeploymentCodecs
from repro.rag.embeddings import make_clustered_embeddings, make_queries

N_ENTRIES, DIM, NLIST = 800, 64, 16
NPROBE, K = 4, 5
GROWTH = 2048


def main() -> None:
    vectors, _ = make_clustered_embeddings(N_ENTRIES, DIM, NLIST, seed="live")
    queries = make_queries(vectors, 8, seed="live-q")
    model = build_ivf_model(vectors, NLIST, seed=0)

    device = ReisDevice(tiny_config("LIVE"))
    db_id = device.ivf_deploy(
        "live", vectors, ivf_model=model, growth_entries=GROWTH
    )
    manager = device.ingest_manager(db_id)
    print(f"deployed {N_ENTRIES} vectors with {GROWTH} growth slots "
          f"({manager.free_slots} usable before the first compaction)")

    # --- mutations and reads share one queue -----------------------------
    queue = device.ingest_queue(db_id, k=K, nprobe=NPROBE)
    rng = np.random.default_rng(42)
    fresh = (vectors[rng.integers(N_ENTRIES, size=6)]
             + rng.normal(0, 0.05, (6, DIM))).astype(np.float32)
    insert_ids = [
        queue.submit_insert(v, text=f"breaking news item {i}", tenant="writer")
        for i, v in enumerate(fresh)
    ]
    queue.submit_delete(3, tenant="writer")
    queue.submit_update(10, vectors[10] * 0.98, tenant="writer")
    read_ids = [queue.submit(q, tenant="reader") for q in fresh[:2]]
    queue.drain()

    acks = [queue.mutation_acks[sub_id] for sub_id in insert_ids]
    new_ids = [ack.entry_id for ack in acks]
    print(f"\ncommitted {len(acks)} inserts -> ids {new_ids}, "
          f"1 delete, 1 update (ids are monotone, never reused)")
    hit = queue.served[read_ids[0]].result
    print(f"  same-batch read sees its own insert: "
          f"{new_ids[0] in hit.ids.tolist()}")
    print(f"  retrieved: {hit.documents[0].text!r}")

    # --- bit identity vs a fresh deploy of the live snapshot -------------
    after = device.ivf_search(db_id, queries, k=K, nprobe=NPROBE)
    db = device.database(db_id)
    # Live ids per cluster in scan order; the snapshot deploys them as
    # positions in the sorted live-id list.
    members = manager.index.members_by_cluster()
    live_ids = np.sort(np.concatenate(members))
    lists = [np.searchsorted(live_ids, cluster) for cluster in members]
    all_vectors = np.concatenate([vectors, fresh, (vectors[10] * 0.98)[None]])
    snapshot = ReisDevice(tiny_config("SNAP"))
    snap_id = snapshot.ivf_deploy(
        "snapshot", all_vectors[live_ids],
        ivf_model=IvfModel(centroids=model.centroids, lists=lists),
        codecs=DeploymentCodecs(
            binary=db.binary_quantizer,
            int8=db.int8_quantizer,
            filter_threshold=db.filter_threshold,
        ),
    )
    reference = snapshot.ivf_search(snap_id, queries, k=K, nprobe=NPROBE)
    mismatches = sum(
        not (np.array_equal(mine.ids, live_ids[ref.ids])
             and np.array_equal(mine.distances, ref.distances))
        for mine, ref in zip(after.results, reference.results)
    )
    print(f"\nbit identity vs fresh deploy of the live snapshot: "
          f"{mismatches} mismatches across {len(queries)} queries")

    # --- maintenance: compact, reclaim, same results ---------------------
    scheduler = DeviceScheduler(device)
    free_before = manager.free_slots
    result = scheduler.run_ingest_maintenance(manager)
    post = device.ivf_search(db_id, queries, k=K, nprobe=NPROBE)
    identical = all(
        np.array_equal(a.ids, b.ids) and np.array_equal(a.distances, b.distances)
        for a, b in zip(after.results, post.results)
    )
    print(f"\ncompaction: {result.live_entries} live entries repacked, "
          f"{result.erased_blocks} blocks erased, "
          f"{result.reclaimed_pages} pages reclaimed "
          f"in {result.seconds * 1e3:.1f}ms (maintenance-billed)")
    print(f"  tail headroom: {free_before} -> {manager.free_slots} slots")
    print(f"  results after compaction identical: {identical}")


if __name__ == "__main__":
    main()
