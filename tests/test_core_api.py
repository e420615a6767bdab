"""Unit tests for the REIS device API (Table 1) and its NVMe wiring."""

import warnings

import numpy as np
import pytest

from repro.ann import blocks
from repro.core.api import ReisDevice, ReisRetriever, ShardedReisDevice
from repro.core.config import tiny_config
from repro.ssd.nvme import NvmeCommand, NvmeOpcode

from tests.conftest import SMALL_NLIST


class TestDeployment:
    def test_db_deploy_assigns_sequential_ids(self, fresh_device, small_vectors):
        vectors, _ = small_vectors
        first = fresh_device.db_deploy("a", vectors[:100])
        second = fresh_device.db_deploy("b", vectors[100:200])
        assert (first, second) == (0, 1)
        assert set(fresh_device.databases) == {0, 1}

    def test_explicit_db_id(self, fresh_device, small_vectors):
        vectors, _ = small_vectors
        assert fresh_device.db_deploy("a", vectors[:50], db_id=7) == 7
        with pytest.raises(ValueError):
            fresh_device.db_deploy("b", vectors[:50], db_id=7)

    def test_ivf_deploy_requires_cluster_info(self, fresh_device, small_vectors):
        vectors, _ = small_vectors
        with pytest.raises(ValueError):
            fresh_device.ivf_deploy("a", vectors[:50])

    def test_deploy_enters_rag_mode(self, fresh_device, small_vectors):
        vectors, _ = small_vectors
        fresh_device.db_deploy("a", vectors[:50])
        assert fresh_device.ssd.rag_mode

    def test_drop(self, fresh_device, small_vectors):
        vectors, _ = small_vectors
        db_id = fresh_device.db_deploy("a", vectors[:50])
        fresh_device.drop(db_id)
        with pytest.raises(KeyError):
            fresh_device.database(db_id)

    def test_drop_unknown_raises(self, fresh_device):
        with pytest.raises(KeyError):
            fresh_device.drop(42)


class TestSearchApi:
    def test_search_batch_shape(self, deployed_flat_device, small_queries):
        device, db_id = deployed_flat_device
        batch = device.search(db_id, small_queries[:3], k=7)
        assert len(batch) == 3
        for result in batch:
            assert result.ids.size == 7
        assert batch.qps > 0
        assert batch.total_seconds > 0

    def test_ivf_search_on_flat_db_rejected(self, deployed_flat_device, small_queries):
        device, db_id = deployed_flat_device
        with pytest.raises(ValueError):
            device.ivf_search(db_id, small_queries[:1], k=5)
        with pytest.raises(ValueError, match="without IVF"):
            device.submission_queue(db_id, nprobe=2)

    def test_recall_target_resolves_nprobe(self, deployed_device, small_queries):
        device, db_id = deployed_device
        low = device.resolve_nprobe(db_id, 0.90)
        high = device.resolve_nprobe(db_id, 0.98)
        assert 1 <= low <= high <= SMALL_NLIST
        batch = device.ivf_search(db_id, small_queries[:2], k=5, recall_target=0.95)
        assert len(batch) == 2

    def test_recall_target_validation(self, deployed_device):
        device, db_id = deployed_device
        with pytest.raises(ValueError):
            device.resolve_nprobe(db_id, 1.5)

    def test_single_query_accepted(self, deployed_device, small_queries):
        device, db_id = deployed_device
        batch = device.ivf_search(db_id, small_queries[0], k=5, nprobe=2)
        assert len(batch) == 1


class TestQueryValidation:
    """Bad queries fail at the API boundary with a message naming the
    argument (``validate_queries``), on every entry point."""

    BAD = (
        ("nan", lambda q: np.where(np.arange(q.shape[1]) == 3, np.nan, q), 5, "NaN"),
        ("inf", lambda q: np.where(np.arange(q.shape[1]) == 0, np.inf, q), 5, "NaN or inf"),
        ("dim", lambda q: q[:, :-8], 5, "shape"),
        ("k", lambda q: q, 0, "k must be at least 1"),
    )

    @pytest.mark.parametrize("name,corrupt,k,message", BAD)
    def test_device_entry_points(
        self, deployed_device, deployed_flat_device, small_queries,
        name, corrupt, k, message,
    ):
        queries = corrupt(small_queries[:3])
        device, db_id = deployed_device
        with pytest.raises(ValueError, match=message):
            device.ivf_search(db_id, queries, k=k, nprobe=2)
        flat, flat_id = deployed_flat_device
        with pytest.raises(ValueError, match=message):
            flat.search(flat_id, queries, k=k)

    @pytest.mark.parametrize("name,corrupt,k,message", BAD)
    def test_sharded_entry_points(
        self, small_vectors, small_queries, name, corrupt, k, message
    ):
        vectors, _ = small_vectors
        device = ShardedReisDevice(2, tiny_config("VAL"))
        db_id = device.ivf_deploy("v", vectors, nlist=4, seed=0)
        queries = corrupt(small_queries[:3])
        with pytest.raises(ValueError, match=message):
            device.ivf_search(db_id, queries, k=k, nprobe=2)
        with pytest.raises(ValueError, match=message):
            device.search(db_id, queries, k=k)

    @pytest.mark.parametrize("name,corrupt,k,message", BAD)
    def test_queue_submit(
        self, deployed_device, small_queries, name, corrupt, k, message
    ):
        device, db_id = deployed_device
        good = device.submission_queue(db_id, k=5, nprobe=2)
        with pytest.raises(ValueError, match=message):
            # ``k`` is the queue's, so it fails when the queue is built;
            # a bad query fails when it is submitted.
            device.submission_queue(db_id, k=k, nprobe=2)
            good.submit(corrupt(small_queries[:1])[0])
        assert good.pending_count == 0


    @pytest.mark.parametrize("nprobe", [0, -3])
    def test_nprobe_below_one_is_rejected(
        self, deployed_device, small_vectors, small_queries, nprobe
    ):
        message = f"nprobe must be at least 1, got {nprobe}"
        device, db_id = deployed_device
        with pytest.raises(ValueError, match=message):
            device.ivf_search(db_id, small_queries[:2], k=5, nprobe=nprobe)
        with pytest.raises(ValueError, match=message):
            device.submission_queue(db_id, k=5, nprobe=nprobe)
        vectors, _ = small_vectors
        sharded = ShardedReisDevice(2, tiny_config("VAL-NPROBE"))
        sharded_id = sharded.ivf_deploy("v", vectors, nlist=4, seed=0)
        with pytest.raises(ValueError, match=message):
            sharded.ivf_search(sharded_id, small_queries[:2], k=5, nprobe=nprobe)

    @pytest.fixture(scope="class", params=["single", "sharded"])
    def either_device(self, request, small_vectors):
        """An untagged IVF database behind either device API."""
        vectors, _ = small_vectors
        if request.param == "single":
            device = ReisDevice(tiny_config("VAL-1"))
        else:
            device = ShardedReisDevice(2, tiny_config("VAL-2"))
        return device, device.ivf_deploy("v", vectors, nlist=4, seed=0)

    @pytest.mark.parametrize(
        "name,value", [("k", 2.5), ("k", 5.0), ("k", "3"), ("nprobe", 2.5)]
    )
    def test_non_integral_parameters_are_rejected(
        self, either_device, small_queries, name, value
    ):
        """A float ``k`` would otherwise die as a slice index inside the
        rerank, a float ``nprobe`` inside the cluster selection."""
        device, db_id = either_device
        params = {"k": 5, "nprobe": 2, name: value}
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=message):
            device.ivf_search(db_id, small_queries[:2], **params)
        with pytest.raises(ValueError, match=message):
            device.submission_queue(db_id, **params)
        if name == "k":
            with pytest.raises(ValueError, match=message):
                device.search(db_id, small_queries[:2], k=value)

    def test_queue_parameters_fail_at_construction(self, either_device):
        device, db_id = either_device
        with pytest.raises(ValueError, match="k must be at least 1, got 0"):
            device.submission_queue(db_id, k=0)
        with pytest.raises(ValueError, match="without metadata tags"):
            device.submission_queue(db_id, k=5, metadata_filter=1)
        # What raised is the queue's one plan, built up front -- on a
        # cluster the logical plan, host-side merge included.
        plan = device.submission_queue(db_id, k=5, fetch_documents=False).plan
        assert plan.k == 5
        merge = ["merge"] if isinstance(device, ShardedReisDevice) else []
        assert plan.stage_names() == ["ibc", "coarse", "fine", *merge, "rerank"]

    def test_queue_plan_reports_the_nprobe_the_executor_uses(
        self, either_device, small_queries
    ):
        """2 shards x 4 clusters: each shard holds 2 centroids, but every
        query probes the 3 clusters asked for -- and so says the plan."""
        device, db_id = either_device
        plan = device.submission_queue(db_id, k=5, nprobe=3).plan
        assert plan.nprobe == 3
        sharded = isinstance(device, ShardedReisDevice)
        assert plan.merge_fan_in == (2 if sharded else None)
        assert ("merge" in plan.stage_names()) == sharded
        batch = device.ivf_search(db_id, small_queries[:3], k=5, nprobe=3)
        assert [r.stats.clusters_probed for r in batch] == [3, 3, 3]

    @pytest.mark.parametrize(
        "name", ["search", "ivf_search", "submission_queue", "ingest_queue"]
    )
    def test_serving_methods_are_literally_shared(self, name):
        """One surface: a mirrored twin cannot grow back unnoticed."""
        assert getattr(ReisDevice, name) is getattr(ShardedReisDevice, name)

    def test_empty_batch_returns_an_empty_result(self, either_device, small_queries):
        device, db_id = either_device
        empty = small_queries[:0]
        for batch in (
            device.ivf_search(db_id, empty, k=5, nprobe=2),
            device.search(db_id, empty, k=5),
        ):
            assert len(batch) == 0 and batch.results == []
            assert batch.wall_seconds == 0.0
            assert batch.batch_stats.n_queries == 0

    BAD_CORPUS = (
        # NaN in the last row only: the blocked finiteness pass must reach it.
        ("nan", lambda v: np.vstack([v[:-1], np.full_like(v[-1:], np.nan)]),
         "vectors contain NaN or inf components"),
        ("inf", lambda v: np.where(np.arange(v.shape[1]) == 0, np.inf, v),
         "vectors contain NaN or inf components"),
        ("1-d", lambda v: v[0],
         r"vectors must have shape \(n, dim\) with n >= 1, got \(128,\)"),
        ("empty", lambda v: v[:0],
         r"vectors must have shape \(n, dim\) with n >= 1, got \(0, 128\)"),
    )

    @pytest.mark.parametrize(
        "corrupt,message", [c[1:] for c in BAD_CORPUS], ids=[c[0] for c in BAD_CORPUS]
    )
    def test_bad_corpus_fails_at_the_deploy_boundary(
        self, either_device, small_vectors, monkeypatch, corrupt, message
    ):
        """Flat and IVF, single and sharded (IVF only): a named error before
        k-means or codec fitting starts (no warning from inside numpy, no
        garbage codes on flash), and nothing registered."""
        device, db_id = either_device
        vectors = corrupt(small_vectors[0])
        monkeypatch.setattr(blocks, "ROW_BLOCK", 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(device, ReisDevice):
                with pytest.raises(ValueError, match=message):
                    device.db_deploy("bad", vectors)
            with pytest.raises(ValueError, match=message):
                device.ivf_deploy("bad", vectors, nlist=4, seed=0)
        assert set(device.databases) == {db_id}

    def test_nprobe_above_nlist_clamps(self, deployed_device, small_queries):
        device, db_id = deployed_device
        nlist = device.database(db_id).n_clusters
        clamped = device.ivf_search(db_id, small_queries[:2], k=5, nprobe=10 * nlist)
        full = device.ivf_search(db_id, small_queries[:2], k=5, nprobe=nlist)
        for a, b in zip(clamped, full):
            assert a.ids.tolist() == b.ids.tolist()


class TestMetadataTagValidation:
    """A metadata tag is one 32-bit unsigned word in the OOB record: a tag
    or filter that does not fit fails at the API, by name, instead of
    wrapping (``2**32 + 7`` used to answer to filter ``7``, ``-1`` to
    ``2**32 - 1``, ``1.5`` to ``1``, and filter ``3.5`` was served as 3)."""

    N = 120

    @pytest.fixture(params=["single", "sharded"])
    def either_device(self, request):
        if request.param == "single":
            return ReisDevice(tiny_config("TAG-1"))
        return ShardedReisDevice(2, tiny_config("TAG-2"))

    def _tagged(self, device, small_vectors, tags=None):
        vectors = small_vectors[0][: self.N]
        if tags is None:
            tags = np.arange(self.N) % 4
        return device.ivf_deploy(
            "tagged", vectors, nlist=4, seed=0, metadata_tags=tags,
            growth_entries=256,
        )

    BAD = (
        ("above", 2**32 + 7, r"must be in \[0, 2\*\*32\), got 4294967303"),
        ("negative", -1, r"must be in \[0, 2\*\*32\), got -1"),
        ("fraction", 1.5, "must be integers"),
    )

    @pytest.mark.parametrize("bad,message", [b[1:] for b in BAD], ids=[b[0] for b in BAD])
    def test_bad_tag_fails_at_the_deploy_boundary(
        self, either_device, small_vectors, bad, message
    ):
        tags = [7] * self.N
        tags[5] = bad
        vectors = small_vectors[0][: self.N]
        deploys = [lambda: self._tagged(either_device, small_vectors, tags)]
        if isinstance(either_device, ReisDevice):
            deploys.append(
                lambda: either_device.db_deploy("t", vectors, metadata_tags=tags)
            )
        for deploy in deploys:
            with pytest.raises(ValueError, match="metadata_tags " + message):
                deploy()
        assert either_device.databases == {}

    def test_tags_at_both_ends_of_the_word_are_served(
        self, either_device, small_vectors, small_queries
    ):
        tags = np.zeros(self.N, dtype=np.uint64)
        tags[::3] = 2**32 - 1
        db_id = self._tagged(either_device, small_vectors, tags)
        for wanted in (0, 2**32 - 1):
            batch = either_device.ivf_search(
                db_id, small_queries[:3], k=5, nprobe=4, metadata_filter=wanted
            )
            for result in batch:
                assert result.ids.size == 5
                assert (tags[result.ids] == wanted).all()

    @pytest.mark.parametrize(
        "bad,message", [(3.5, "must be integers"), *[b[1:] for b in BAD[:2]]]
    )
    def test_bad_filter_fails_at_every_search_entry_point(
        self, either_device, small_vectors, small_queries, bad, message
    ):
        db_id = self._tagged(either_device, small_vectors)
        message = "metadata_filter " + message
        with pytest.raises(ValueError, match=message):
            either_device.ivf_search(
                db_id, small_queries[:2], k=5, nprobe=2, metadata_filter=bad
            )
        with pytest.raises(ValueError, match=message):
            either_device.search(db_id, small_queries[:2], k=5, metadata_filter=bad)
        with pytest.raises(ValueError, match=message):
            either_device.submission_queue(db_id, k=5, metadata_filter=bad)

    @pytest.mark.parametrize("bad,message", [b[1:] for b in BAD], ids=[b[0] for b in BAD])
    def test_bad_tag_fails_when_a_mutation_is_submitted(
        self, either_device, small_vectors, bad, message
    ):
        db_id = self._tagged(either_device, small_vectors)
        queue = either_device.ingest_queue(db_id, k=5, nprobe=2)
        vector = small_vectors[0][0] * 1.01
        with pytest.raises(ValueError, match="metadata_tag " + message):
            queue.submit_insert(vector, metadata_tag=bad)
        with pytest.raises(ValueError, match="metadata_tag " + message):
            queue.submit_update(3, vector, metadata_tag=bad)
        assert queue.pending_count == 0
        # A tag that fits still streams in and answers to its own filter.
        queue.submit_insert(vector, metadata_tag=2**32 - 1)
        queue.drain()
        batch = either_device.ivf_search(
            db_id, vector[None], k=1, nprobe=4, metadata_filter=2**32 - 1
        )
        assert batch.results[0].ids.tolist() == [self.N]


class TestNvmePath:
    def test_search_via_nvme(self, deployed_device, small_queries):
        device, db_id = deployed_device
        completion = device.submit(
            NvmeCommand(
                NvmeOpcode.REIS_IVF_SEARCH,
                {"db_id": db_id, "queries": small_queries[:2], "k": 5, "nprobe": 2},
            )
        )
        assert completion.ok
        assert len(completion.result) == 2

    @pytest.mark.parametrize("ivf", [False, True], ids=["flat", "ivf"])
    def test_deploy_and_list_via_nvme(
        self, fresh_device, small_vectors, small_queries, ivf
    ):
        """Deploy, list and search by command: the ids of the direct calls."""
        vectors, _ = small_vectors
        deploy = {"name": "n", "vectors": vectors[:60], **({"nlist": 4} if ivf else {})}
        search = {"queries": small_queries[:3], "k": 5, **({"nprobe": 2} if ivf else {})}
        deploy_op, search_op = (
            (NvmeOpcode.REIS_IVF_DEPLOY, NvmeOpcode.REIS_IVF_SEARCH) if ivf
            else (NvmeOpcode.REIS_DB_DEPLOY, NvmeOpcode.REIS_SEARCH)
        )
        completion = fresh_device.submit(NvmeCommand(deploy_op, deploy))
        assert completion.ok
        listing = fresh_device.submit(NvmeCommand(NvmeOpcode.REIS_DB_LIST))
        assert listing.result == [completion.result]
        served = fresh_device.submit(
            NvmeCommand(search_op, {"db_id": completion.result, **search})
        )
        assert served.ok
        direct = ReisDevice(tiny_config("REIS-DIRECT"))
        if ivf:
            expected = direct.ivf_search(direct.ivf_deploy(**deploy), **search)
        else:
            expected = direct.search(direct.db_deploy(**deploy), **search)
        assert [ids.tolist() for ids in served.result.ids] == [
            ids.tolist() for ids in expected.ids
        ]

    def test_drop_via_nvme(self, fresh_device, small_vectors):
        vectors, _ = small_vectors
        db_id = fresh_device.db_deploy("n", vectors[:60])
        completion = fresh_device.submit(
            NvmeCommand(NvmeOpcode.REIS_DB_DROP, {"db_id": db_id})
        )
        assert completion.ok
        assert fresh_device.databases == {}

    def test_error_surfaces_as_status(self, fresh_device):
        completion = fresh_device.submit(
            NvmeCommand(NvmeOpcode.REIS_SEARCH, {"db_id": 99, "queries": np.zeros((1, 8))})
        )
        assert not completion.ok


class TestReisRetriever:
    def test_zero_dataset_loading(self, deployed_device):
        device, db_id = deployed_device
        retriever = ReisRetriever(device, db_id, nprobe=2)
        assert retriever.dataset_load_seconds() == 0.0

    def test_search_batch_protocol(self, deployed_device, small_queries):
        device, db_id = deployed_device
        retriever = ReisRetriever(device, db_id, nprobe=2)
        result = retriever.search_batch(small_queries[:3], k=5)
        assert len(result.ids) == 3
        assert result.search_seconds > 0

    def test_paper_workload_overrides_timing(self, deployed_device, small_queries):
        from repro.core.analytic import ivf_workload

        device, db_id = deployed_device
        workload = ivf_workload(10_000_000, 1024, nlist=16384, nprobe=64)
        functional = ReisRetriever(device, db_id, nprobe=2)
        paper = ReisRetriever(device, db_id, nprobe=2, paper_workload=workload)
        t_func = functional.search_batch(small_queries[:2], k=5).search_seconds
        t_paper = paper.search_batch(small_queries[:2], k=5).search_seconds
        assert t_paper != t_func
        assert t_paper > 0


class TestEnergyReport:
    def test_report_fields(self, deployed_device, small_queries):
        device, db_id = deployed_device
        device.ivf_search(db_id, small_queries[:2], k=5, nprobe=2)
        report = device.energy_report(elapsed_s=0.01)
        assert report["energy_j"] > 0
        assert report["average_power_w"] > 0
        assert report["core_busy_s"] >= 0
