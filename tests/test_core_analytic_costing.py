"""Tests for the cost composition layer and the paper-scale analytic twin.

The key cross-validation: on a workload small enough to execute
functionally, the analytic model's predicted per-query latency must agree
with the functional engine's measured latency to within a modest factor --
they share the same composition code, so only the resource-count
approximations (even spreading, pass-fraction estimate) differ.
"""

import numpy as np
import pytest

from repro.core.analytic import (
    AnalyticWorkload,
    ReisAnalyticModel,
    brute_force_workload,
    ivf_workload,
)
from repro.core.api import ReisDevice
from repro.core.config import ALL_OPT, NO_OPT, OptFlags, REIS_SSD1, REIS_SSD2, tiny_config
from repro.core.costing import (
    PhaseCost,
    compose_phase,
    ibc_time,
    page_iteration_time,
    spread_channel_bytes,
    spread_pages,
)
from repro.nand.timing import NandTiming

from tests.conftest import SMALL_NLIST

TIMING = NandTiming()


class TestPhaseCost:
    def test_pages_per_plane_max_and_total(self):
        cost = PhaseCost(name="t", pages_per_plane={0: 2, 1: 1})
        assert cost.max_pages == 2
        assert cost.total_pages == 3

    def test_spread_pages_even_distribution(self):
        cost = PhaseCost(name="t")
        spread_pages(cost, total_pages=100, total_planes=16)
        assert cost.max_pages == 7  # ceil(100/16)
        assert cost.total_pages == 100

    def test_spread_channel_bytes(self):
        cost = PhaseCost(name="t")
        spread_channel_bytes(cost, 800.0, channels=8)
        assert cost.total_channel_bytes == pytest.approx(800.0)
        assert max(cost.channel_bytes.values()) == pytest.approx(100.0)

    def test_spread_zero_is_noop(self):
        cost = PhaseCost(name="t")
        spread_pages(cost, 0, 8)
        spread_channel_bytes(cost, 0.0, 8)
        assert cost.max_pages == 0
        assert cost.total_channel_bytes == 0.0


class TestComposePhase:
    def _cost(self, pages=10, channel=1e6, core=1e-4):
        cost = PhaseCost(name="t")
        cost.pages_per_plane[0] = pages
        cost.add_channel_bytes(0, channel)
        cost.core_seconds = core
        return cost

    def test_serial_without_pipelining(self):
        cost = self._cost()
        total, components = compose_phase(cost, TIMING, NO_OPT)
        assert total == pytest.approx(sum(components.values()))

    def test_pipelining_approaches_bottleneck(self):
        cost = self._cost(pages=1000)
        serial, _ = compose_phase(cost, TIMING, NO_OPT)
        piped, components = compose_phase(cost, TIMING, ALL_OPT)
        assert piped < serial
        assert piped >= max(components.values())

    def test_filter_adds_pass_fail_time(self):
        plain = PhaseCost(name="t", with_filter=False)
        plain.pages_per_plane[0] = 100
        filtered = PhaseCost(name="t", with_filter=True)
        filtered.pages_per_plane[0] = 100
        t_plain, _ = compose_phase(plain, TIMING, NO_OPT)
        t_filtered, _ = compose_phase(filtered, TIMING, NO_OPT)
        assert t_filtered > t_plain

    def test_page_iteration_time_modes(self):
        esp = page_iteration_time(TIMING, "slc_esp", True, False)
        tlc = page_iteration_time(TIMING, "tlc", True, False)
        assert tlc > esp
        with pytest.raises(ValueError):
            page_iteration_time(TIMING, "bogus", True, False)

    def test_ecc_bytes_charged_to_core(self):
        cost = self._cost(core=0.0)
        cost.ecc_bytes = 1e6
        with_ecc, _ = compose_phase(cost, TIMING, NO_OPT, ecc_decode_seconds_per_byte=1e-9)
        without, _ = compose_phase(cost, TIMING, NO_OPT, ecc_decode_seconds_per_byte=0.0)
        assert with_ecc == pytest.approx(without + 1e-3)


class TestIbcTime:
    def test_mpibc_divides_fill_count(self):
        g = REIS_SSD2.geometry  # 4 planes per die
        with_mpibc = ibc_time(g, REIS_SSD2.timing, 128, OptFlags(True, True, True))
        without = ibc_time(g, REIS_SSD2.timing, 128, OptFlags(True, True, False))
        assert without > with_mpibc
        # Fill term scales with planes-per-die.
        assert without / with_mpibc < g.planes_per_die + 1

    def test_ibc_grows_with_dies_per_channel(self):
        t1 = ibc_time(REIS_SSD1.geometry, REIS_SSD1.timing, 128, ALL_OPT)
        few_dies = REIS_SSD1.with_geometry(chips_per_channel=1)
        t2 = ibc_time(few_dies.geometry, REIS_SSD1.timing, 128, ALL_OPT)
        assert t1 > t2


class TestAnalyticWorkload:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticWorkload(n_entries=0, dim=128)
        with pytest.raises(ValueError):
            AnalyticWorkload(n_entries=10, dim=12)
        with pytest.raises(ValueError):
            AnalyticWorkload(n_entries=10, dim=128, candidate_fraction=0.0)
        with pytest.raises(ValueError):
            AnalyticWorkload(n_entries=10, dim=128, nlist=4)  # nprobe missing

    def test_helpers(self):
        bf = brute_force_workload(1000, 128)
        assert not bf.is_ivf
        assert bf.candidates == 1000
        ivf = ivf_workload(1000, 128, nlist=10, nprobe=2)
        assert ivf.is_ivf
        assert ivf.candidate_fraction == pytest.approx(0.2)
        assert ivf.code_bytes == 16


class TestAnalyticModel:
    MODEL = ReisAnalyticModel(REIS_SSD1)

    def test_bf_costs_more_than_ivf(self):
        bf = self.MODEL.query_cost(brute_force_workload(10_000_000, 1024))
        ivf = self.MODEL.query_cost(
            ivf_workload(10_000_000, 1024, nlist=16384, nprobe=64)
        )
        assert bf.seconds > ivf.seconds
        assert bf.qps < ivf.qps

    def test_latency_grows_with_candidates(self):
        low = self.MODEL.qps(ivf_workload(10_000_000, 1024, nlist=16384, nprobe=16))
        high = self.MODEL.qps(ivf_workload(10_000_000, 1024, nlist=16384, nprobe=512))
        assert low > high

    def test_ssd2_faster_than_ssd1(self):
        workload = brute_force_workload(10_000_000, 1024)
        assert ReisAnalyticModel(REIS_SSD2).qps(workload) > self.MODEL.qps(workload)

    def test_optimizations_monotonic(self):
        workload = ivf_workload(40_000_000, 1024, nlist=16384, nprobe=128)
        steps = [
            NO_OPT,
            OptFlags(True, False, False),
            OptFlags(True, True, False),
            OptFlags(True, True, True),
        ]
        qps = [ReisAnalyticModel(REIS_SSD1, f).qps(workload) for f in steps]
        for slower, faster in zip(qps, qps[1:]):
            assert faster >= slower

    def test_energy_positive_and_power_reasonable(self):
        workload = ivf_workload(10_000_000, 1024, nlist=16384, nprobe=64)
        assert self.MODEL.energy_per_query(workload) > 0
        power = self.MODEL.average_power(workload)
        assert 1.0 < power < 50.0  # an SSD, not a server

    def test_counters_consistent_with_report(self):
        workload = brute_force_workload(1_000_000, 1024)
        cost = self.MODEL.query_cost(workload)
        assert cost.counters["page_reads"] > 0
        assert cost.counters["channel_bytes"] > 0
        assert cost.core_busy_s > 0

    def test_no_document_phase_for_pure_ann(self):
        workload = ivf_workload(1_000_000, 128, nlist=1024, nprobe=8, doc_bytes=0)
        cost = self.MODEL.query_cost(workload)
        assert "documents_read" not in cost.report.components
        assert "host_transfer" not in cost.report.components


class TestFunctionalAnalyticCrossValidation:
    """The two layers must agree on small workloads they both can run."""

    def test_per_query_latency_within_factor(self, small_vectors, small_corpus, small_queries):
        vectors, _ = small_vectors
        n, dim = vectors.shape
        config = tiny_config("XVAL")
        device = ReisDevice(config)
        db_id = device.ivf_deploy("x", vectors, nlist=SMALL_NLIST, corpus=small_corpus, seed=0)
        db = device.database(db_id)

        nprobe = SMALL_NLIST  # full probe: candidate fraction exactly 1.0
        batch = device.ivf_search(db_id, small_queries[:6], k=10, nprobe=nprobe)
        measured = batch.total_seconds / len(batch)
        pass_fraction = float(
            np.mean([r.stats.filter_pass_fraction for r in batch])
        )

        model = ReisAnalyticModel(config)
        workload = ivf_workload(
            n, dim, nlist=SMALL_NLIST, nprobe=nprobe,
            candidate_fraction=1.0,
            filter_pass_fraction=pass_fraction,
        )
        predicted = model.query_cost(workload).seconds
        assert predicted == pytest.approx(measured, rel=0.6)

    def test_bf_latency_within_factor(self, small_vectors, small_corpus, small_queries):
        vectors, _ = small_vectors
        n, dim = vectors.shape
        config = tiny_config("XVAL-BF")
        device = ReisDevice(config)
        db_id = device.db_deploy("x", vectors, corpus=small_corpus, seed=0)
        batch = device.search(db_id, small_queries[:4], k=10)
        measured = batch.total_seconds / len(batch)
        pass_fraction = float(
            np.mean([r.stats.filter_pass_fraction for r in batch])
        )
        workload = AnalyticWorkload(
            n_entries=n, dim=dim, filter_pass_fraction=pass_fraction
        )
        predicted = ReisAnalyticModel(config).query_cost(workload).seconds
        assert predicted == pytest.approx(measured, rel=0.6)
