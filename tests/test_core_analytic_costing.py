"""Tests for the cost composition layer and the paper-scale analytic twin.

The key cross-validation: on a workload small enough to execute
functionally, the analytic model's predicted per-phase latency is pinned
against the functional engine's measured one -- both bill
:class:`PhaseLedger` s composed by ``compose_batch``, so only the
resource-count approximations (even spreading, pass-fraction estimate,
chunk size) differ, and each phase's ratio says by how much.
"""

import numpy as np
import pytest

from repro.baselines.ice import IceConfig, IceModel
from repro.baselines.reis_asic import ReisAsicModel
from repro.core.analytic import (
    AnalyticWorkload,
    ReisAnalyticModel,
    brute_force_workload,
    even_ledger,
    ivf_workload,
)
from repro.core.api import ReisDevice
from repro.core.config import ALL_OPT, NO_OPT, OptFlags, REIS_SSD1, REIS_SSD2, tiny_config
from repro.core.costing import ibc_time, page_iteration_time
from repro.nand.timing import NandTiming

from tests.conftest import SMALL_NLIST
from tests.cost_reference import compose_solo, one_query_ledger

TIMING = NandTiming()
GEOMETRY = tiny_config().geometry  # 2 channels, 8 planes


class TestEvenLedger:
    """The analytic twin's one-row ledger: an even spread, critical plane
    first."""

    def test_critical_plane_carries_the_ceiling_share(self):
        ledger = even_ledger(GEOMETRY, "t", pages=100, channel_bytes=800.0)
        rows, planes, _page_ids = ledger.nand
        assert rows.tolist() == planes.tolist() == [0] * 13  # ceil(100 / 8)
        assert ledger.senses.tolist() == [13] + [0] * 7  # billed as executed
        assert ledger.channel_bytes.tolist() == [[400.0, 400.0]]

    def test_spread_zero_is_noop(self):
        ledger = even_ledger(GEOMETRY, "t", pages=0, channel_bytes=0.0)
        assert ledger.nand[0].size == 0 and ledger.senses is None
        assert not ledger.channel_bytes.any()
        _seconds, components = compose_solo(ledger, TIMING, NO_OPT)
        assert components == {"t_read": 0.0, "t_transfer": 0.0, "t_core": 0.0}

    def test_read_is_the_critical_plane(self):
        ledger = even_ledger(GEOMETRY, "t", pages=100, channel_bytes=0.0)
        _seconds, components = compose_solo(ledger, TIMING, NO_OPT)
        assert components["t_read"] == 13 * page_iteration_time(
            TIMING, "slc_esp", True, False
        )


def _ledger(pages=10, channel=1e6, core=1e-4, **kind):
    return one_query_ledger(GEOMETRY, pages, channel, core, **kind)


class TestComposeSolo:
    def test_serial_without_pipelining(self):
        total, components = compose_solo(_ledger(), TIMING, NO_OPT)
        assert total == pytest.approx(sum(components.values()))

    def test_pipelining_approaches_bottleneck(self):
        ledger = _ledger(pages=1000)
        serial, _ = compose_solo(ledger, TIMING, NO_OPT)
        piped, components = compose_solo(ledger, TIMING, ALL_OPT)
        assert piped < serial
        assert piped >= max(components.values())

    def test_filter_adds_pass_fail_time(self):
        plain = _ledger(pages=100, channel=0.0, core=0.0, with_filter=False)
        filtered = _ledger(pages=100, channel=0.0, core=0.0, with_filter=True)
        t_plain, _ = compose_solo(plain, TIMING, NO_OPT)
        t_filtered, _ = compose_solo(filtered, TIMING, NO_OPT)
        assert t_filtered > t_plain

    def test_page_iteration_time_modes(self):
        esp = page_iteration_time(TIMING, "slc_esp", True, False)
        tlc = page_iteration_time(TIMING, "tlc", True, False)
        assert tlc > esp
        with pytest.raises(ValueError):
            page_iteration_time(TIMING, "bogus", True, False)

    def test_ecc_bytes_charged_to_core(self):
        ledger = _ledger(core=0.0)
        ledger.ecc_bytes[0] = 1e6
        with_ecc, components = compose_solo(ledger, TIMING, NO_OPT, ecc_rate=1e-9)
        without, _ = compose_solo(ledger, TIMING, NO_OPT, ecc_rate=0.0)
        assert with_ecc == pytest.approx(without + 1e-3)
        assert components["p_core"] == pytest.approx(1e-3)


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

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(dim=0), "dim"),
            (dict(dim=-8), "dim"),
            (dict(k=0), "k must"),
            (dict(k=1001), "k must"),
            (dict(nlist=8, nprobe=9), "nprobe <= nlist"),
            (dict(nprobe=4), "nprobe needs"),
            (dict(nlist=1001, nprobe=1), "nlist must"),
            (dict(doc_bytes=-1), "doc_bytes"),
        ],
    )
    def test_boundary_inputs_raise(self, bad, match):
        with pytest.raises(ValueError, match=match):
            AnalyticWorkload(**{"n_entries": 1000, "dim": 128, **bad})

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(dim=0), "dim"),
            (dict(k=0), "k must"),
            (dict(k=1001), "k must"),
            (dict(nprobe=9), "nprobe <= nlist"),
            (dict(nlist=0), "nlist >= 1"),
            (dict(nlist=1001), "nlist must"),
            (dict(doc_bytes=-1), "doc_bytes"),
        ],
    )
    def test_ivf_workload_boundary_inputs_raise(self, bad, match):
        with pytest.raises(ValueError, match=match):
            ivf_workload(**{"n_entries": 1000, "dim": 128, "nlist": 8, "nprobe": 2, **bad})

    def test_boundaries_themselves_are_valid(self):
        AnalyticWorkload(n_entries=8, dim=8, k=8, nlist=8, nprobe=8, doc_bytes=0)
        ivf_workload(8, 8, nlist=8, nprobe=8, k=8, doc_bytes=0)

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


ANALYTIC_MODELS = {
    "reis": ReisAnalyticModel(REIS_SSD1),
    "reis-no-opt": ReisAnalyticModel(REIS_SSD1, NO_OPT),
    "asic": ReisAsicModel(REIS_SSD1),
    "ice": IceModel(REIS_SSD1),
    "ice-esp": IceModel(REIS_SSD1, IceConfig().with_esp()),
}


class TestAnalyticReportContract:
    """A ``LatencyReport``'s phases sum to its total, the host transfer
    included, for every analytic model."""

    @pytest.mark.parametrize("name", sorted(ANALYTIC_MODELS))
    @pytest.mark.parametrize(
        "workload",
        [
            ivf_workload(100_000, 128, nlist=64, nprobe=8),
            brute_force_workload(1_000_000, 1024, k=100, doc_bytes=1000),
            ivf_workload(1_000_000, 128, nlist=1024, nprobe=8, doc_bytes=0),
        ],
        ids=["ivf", "bf", "ivf-no-docs"],
    )
    def test_phases_sum_to_total(self, name, workload):
        report = ANALYTIC_MODELS[name].query_cost(workload).report
        assert sum(report.phases.values()) == pytest.approx(report.total_s, rel=1e-12)
        host = report.components.get("host_transfer", 0.0)
        assert report.phases.get("host", 0.0) == host
        assert "host_document_fetch" not in report.components
        # ICE always fetches documents over the host path; REIS only ships
        # them when the workload has any.
        assert (host > 0) == (name.startswith("ice") or workload.doc_bytes > 0)


def _phase_ratios(batch, config, workload):
    """Analytic / functional seconds per phase; functional is the mean of
    the batch's solo reports."""
    measured = {}
    for result in batch:
        for name, seconds in result.latency.phases.items():
            measured[name] = measured.get(name, 0.0) + seconds / len(batch)
    predicted = ReisAnalyticModel(config).query_cost(workload).report.phases
    assert predicted.keys() == measured.keys()
    return {name: predicted[name] / measured[name] for name in measured}


# Analytic / functional ratio per phase on the tiny-config fixtures, pinned
# two-sided at its measured value +-5%.  A ratio outside [0.9, 1.1] carries
# a deviation note: why the twin and the engine part ways there.
HOST_DEVIATION = 16.0  # deviation: the workload prices the 4 KiB doc_bytes
# default; the synthetic corpus ships 256 B chunks (4096 / 256 = 16).
IVF_FULL_PROBE_RATIOS = {
    "ibc": 1.000,
    "coarse": 0.996,
    # deviation: the engine's critical plane makes 16 fine visits where the
    # twin's even spread gives it ceil(pages / planes) = 2 (fine_read 224 us
    # vs 28 us): 12 small probed clusters do not stripe evenly over 8 planes.
    # ROADMAP item 2 step 3's first lead.
    "fine": 0.167,
    "rerank": 1.004,
    # deviation: the twin prices one 4 KiB chunk per page (doc_bytes
    # default); the corpus packs 256 B chunks, so the engine senses half the
    # critical-plane pages and moves and decodes a fraction of the bytes.
    "documents": 1.885,
    "host": HOST_DEVIATION,
}
BF_RATIOS = {
    "ibc": 1.000,
    "fine": 0.987,
    "rerank": 0.979,
    # deviation: as for IVF (4 KiB priced vs 256 B chunks shipped).
    "documents": 1.310,
    "host": HOST_DEVIATION,
}


class TestFunctionalAnalyticCrossValidation:
    """Phase by phase, the two layers agree on small workloads they both
    can run, up to the pinned ratios."""

    def test_ivf_full_probe_phase_ratios(self, small_vectors, small_corpus, small_queries):
        vectors, _ = small_vectors
        n, dim = vectors.shape
        config = tiny_config("XVAL")
        device = ReisDevice(config)
        db_id = device.ivf_deploy("x", vectors, nlist=SMALL_NLIST, corpus=small_corpus, seed=0)
        nprobe = SMALL_NLIST  # full probe: candidate fraction exactly 1.0
        batch = device.ivf_search(db_id, small_queries[:6], k=10, nprobe=nprobe)
        pass_fraction = float(
            np.mean([r.stats.filter_pass_fraction for r in batch])
        )

        workload = ivf_workload(
            n, dim, nlist=SMALL_NLIST, nprobe=nprobe,
            candidate_fraction=1.0,
            filter_pass_fraction=pass_fraction,
        )
        ratios = _phase_ratios(batch, config, workload)
        assert ratios == pytest.approx(IVF_FULL_PROBE_RATIOS, rel=0.05)

    def test_bf_phase_ratios(self, small_vectors, small_corpus, small_queries):
        vectors, _ = small_vectors
        n, dim = vectors.shape
        config = tiny_config("XVAL-BF")
        device = ReisDevice(config)
        db_id = device.db_deploy("x", vectors, corpus=small_corpus, seed=0)
        batch = device.search(db_id, small_queries[:4], k=10)
        pass_fraction = float(
            np.mean([r.stats.filter_pass_fraction for r in batch])
        )
        workload = AnalyticWorkload(
            n_entries=n, dim=dim, filter_pass_fraction=pass_fraction
        )
        assert _phase_ratios(batch, config, workload) == pytest.approx(
            BF_RATIOS, rel=0.05
        )
