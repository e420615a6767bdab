"""Tests for the opt-in host wall-clock profiler (host/profile.py).

The contract has three parts:

* **Opt-in only** -- serving with ``host_profile=None`` (the default)
  adds no ``host_<phase>`` keys to ``phase_seconds()`` and performs no
  wall-clock reads (the grep-guard in ``tests/test_core_queue.py`` pins
  the module-scan side of this);
* **Diagnostics ride along** -- an attached :class:`HostProfile`
  surfaces every executor phase as a ``host_<phase>`` key with per-query
  phases counted once per query, while the *modeled* phases still sum to
  ``wall_seconds`` exactly (host keys are diagnostics, not part of the
  decomposition); on one drive and through the shard router alike;
* **Observation changes nothing** -- results are bit-identical with and
  without a profile attached.
"""

import numpy as np
import pytest

from repro.core import ReisDevice, ShardedReisDevice, tiny_config
from repro.host.profile import HostProfile
from repro.rag.embeddings import make_clustered_embeddings, make_queries

N, DIM, NLIST, NPROBE, K, BATCH = 400, 64, 8, 3, 5, 16

EXECUTOR_PHASES = (
    "prepare", "ibc", "coarse", "fine", "rerank", "documents", "finalize",
)


@pytest.fixture(scope="module", params=["single", "2-shard"])
def deployed(request):
    """One drive, or a 2-shard cluster whose router times its own steps
    under the same phase names (the shared ``ivf_search``)."""
    vectors, _ = make_clustered_embeddings(N, DIM, NLIST, seed="hostprof")
    queries = make_queries(vectors, BATCH, seed="hostprof-q")
    if request.param == "single":
        device = ReisDevice(tiny_config("HOSTPROF"))
    else:
        device = ShardedReisDevice(2, tiny_config("HOSTPROF-2"))
    db_id = device.ivf_deploy("hp", vectors, nlist=NLIST, seed=0)
    return device, db_id, queries


class TestHostProfileUnit:
    def test_phase_accumulates_seconds_and_calls(self):
        profile = HostProfile()
        for _ in range(3):
            with profile.phase("merge"):
                pass
        with profile.phase("scan"):
            with profile.phase("merge"):  # nested, distinct names
                pass
        assert profile.calls == {"merge": 4, "scan": 1}
        assert set(profile.seconds) == {"merge", "scan"}
        assert all(seconds >= 0.0 for seconds in profile.seconds.values())

    def test_max_seconds_tracks_longest_call(self):
        from time import sleep

        profile = HostProfile()
        with profile.phase("rerank"):
            pass
        with profile.phase("rerank"):
            sleep(0.002)
        with profile.phase("rerank"):
            pass
        assert profile.calls["rerank"] == 3
        # The max is one call's duration: at least the slept call, never
        # more than the accumulated sum.
        assert 0.002 <= profile.max_seconds["rerank"] <= profile.seconds["rerank"]

    def test_max_seconds_empty_until_first_call(self):
        assert HostProfile().max_seconds == {}

    def test_report_prefixes_host(self):
        profile = HostProfile()
        with profile.phase("fine"):
            pass
        assert set(profile.report()) == {"host_fine"}

    def test_accumulates_through_exceptions(self):
        profile = HostProfile()
        with pytest.raises(RuntimeError):
            with profile.phase("fine"):
                raise RuntimeError("boom")
        assert profile.calls == {"fine": 1}
        assert set(profile.max_seconds) == {"fine"}

    def test_truthy(self):
        # The serving stack guards hooks with a truthiness check; an
        # empty profile must still opt in.
        assert HostProfile()


class TestHostProfileServing:
    def test_disabled_run_adds_no_phase_keys(self, deployed):
        device, db_id, queries = deployed
        batch = device.ivf_search(db_id, queries, k=K, nprobe=NPROBE)
        phases = batch.phase_seconds()
        assert not [name for name in phases if name.startswith("host_")]
        # The modeled decomposition contract is untouched.
        assert sum(phases.values()) == pytest.approx(batch.wall_seconds)

    def test_enabled_run_reports_every_executor_phase(self, deployed):
        device, db_id, queries = deployed
        profile = HostProfile()
        batch = device.ivf_search(
            db_id, queries, k=K, nprobe=NPROBE, host_profile=profile
        )
        phases = batch.phase_seconds()
        assert {f"host_{name}" for name in EXECUTOR_PHASES} <= set(phases)
        # TLC phases run page-major at batch level: one kernel call covers
        # the whole batch (scan phases were already batch-level).
        assert profile.calls["rerank"] == 1
        assert profile.calls["documents"] == 1
        # host_ keys are diagnostics: the modeled phases alone still sum
        # to the modeled wall clock.
        modeled = {
            name: seconds
            for name, seconds in phases.items()
            if not name.startswith("host_")
        }
        assert sum(modeled.values()) == pytest.approx(batch.wall_seconds)

    def test_profiling_is_observation_only(self, deployed):
        device, db_id, queries = deployed
        plain = device.ivf_search(db_id, queries, k=K, nprobe=NPROBE)
        profiled = device.ivf_search(
            db_id, queries, k=K, nprobe=NPROBE, host_profile=HostProfile()
        )
        for a, b in zip(plain, profiled):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
        assert plain.wall_seconds == profiled.wall_seconds
