"""Property tests for the cost-composition layer and analytic model.

These pin the monotonicity and bounding properties every timing layer
must satisfy, independent of calibration constants.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic import (
    AnalyticWorkload,
    ReisAnalyticModel,
    even_ledger,
    ivf_workload,
)
from repro.core.config import ALL_OPT, NO_OPT, REIS_SSD1, REIS_SSD2, OptFlags
from repro.core.costing import PhaseLedger, ibc_time, page_iteration_time
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming

from repro.core.api import ReisDevice
from repro.core.config import tiny_config
from repro.core.engine import _TlcPages
from repro.core.plan import count_table

from tests.cost_reference import (
    _reference_batch_phase_stages,
    compose_solo,
    derived_senses,
    one_query_ledger,
    query_cost,
    replay,
    scheduled,
    scheduled_senses,
)

TIMING = NandTiming()

phase_ledgers = st.builds(
    lambda pages, channel, core: one_query_ledger(GEOMETRY, pages, channel, core),
    st.integers(0, 5000),
    st.floats(0, 1e8),
    st.floats(0, 1e-2),
)


class TestComposeProperties:
    @given(phase_ledgers)
    @settings(max_examples=50, deadline=None)
    def test_pipelined_never_exceeds_serial(self, ledger):
        serial, _ = compose_solo(ledger, TIMING, NO_OPT)
        piped, _ = compose_solo(ledger, TIMING, ALL_OPT)
        assert piped <= serial + 1e-12

    @given(phase_ledgers)
    @settings(max_examples=50, deadline=None)
    def test_pipelined_at_least_bottleneck(self, ledger):
        piped, components = compose_solo(ledger, TIMING, ALL_OPT)
        assert piped >= max(components.values()) - 1e-12

    @given(phase_ledgers, st.floats(0, 1e-9))
    @settings(max_examples=50, deadline=None)
    def test_ecc_only_adds_time(self, ledger, rate):
        base, _ = compose_solo(ledger, TIMING, NO_OPT, 0.0)
        ledger.ecc_bytes[0] = 1e6
        with_ecc, _ = compose_solo(ledger, TIMING, NO_OPT, rate)
        assert with_ecc >= base - 1e-12

    @given(
        st.integers(0, 10**7),
        st.sampled_from([FlashGeometry(dies_per_chip=1), REIS_SSD1.geometry, REIS_SSD2.geometry]),
    )
    @settings(max_examples=50, deadline=None)
    def test_even_spread_covers_the_total(self, total, geometry):
        ledger = even_ledger(geometry, "p", total, 0.0)
        per_plane, planes = ledger.nand[0].size, geometry.total_planes
        assert per_plane == -(-total // planes)
        assert per_plane * planes >= total > (per_plane - 1) * planes
        assert set(ledger.nand[1].tolist()) <= {0}

    @given(st.builds(
        lambda n, nprobe: ivf_workload(n, 1024, nlist=1024, nprobe=nprobe),
        st.integers(10_000, 10**9),
        st.integers(1, 1024),
    ))
    @settings(max_examples=30, deadline=None)
    def test_page_reads_are_the_phases_totals(self, workload):
        """The critical plane carries the ledger; the counters keep every
        page the phases read -- the totals the even spread conserves."""
        model = ReisAnalyticModel(REIS_SSD1)
        fine, transferred = model._fine_cost(workload)
        bills = [
            model._coarse_cost(workload),
            fine,
            model._rerank_cost(workload, transferred),
            model._document_cost(workload),
        ]
        counters = model.query_cost(workload).counters
        assert counters["page_reads"] == sum(pages for _ledger, pages in bills)
        planes = REIS_SSD1.geometry.total_planes
        for ledger, pages in bills:
            assert ledger.nand[0].size == -(-pages // planes)


GEOMETRY = FlashGeometry(dies_per_chip=1)  # 2 channels x 2 planes each
N_PLANES, N_CHANNELS, ECC_RATE = GEOMETRY.total_planes, GEOMETRY.channels, 3.7e-10


@st.composite
def visit_tables(draw):
    """A random phase ledger: NAND visits with within-query repeats (the
    filter-retry rescan) and one page id on several planes, DRAM streams
    shared across queries with per-visit seconds that differ, an executed
    schedule answering for some planes or none, a second kernel call, and
    batch queries that sat the phase out (``queries`` skips indices)."""
    n = draw(st.integers(1, 4))
    rows = st.integers(0, n - 1)
    kind = draw(st.sampled_from([
        dict(read_mode="slc_esp", with_compute=True, with_filter=True),
        dict(read_mode="slc_esp", with_compute=True, with_filter=False),
        dict(read_mode="tlc", with_compute=False, with_filter=False),
    ]))
    ledger = PhaseLedger("phase", n, GEOMETRY, **kind)
    ledger.queries = np.array(
        sorted(draw(st.sets(st.integers(0, 6), min_size=n, max_size=n)))
    )
    nand = st.lists(
        st.tuples(rows, st.integers(0, N_PLANES - 1), st.integers(0, 5)), max_size=20
    )
    dram = st.lists(
        st.tuples(
            rows, st.integers(0, 4), st.sampled_from([1e-6, 3e-6, 0.1, 1 / 3, 7e-7])
        ),
        max_size=14,
    )
    for _call in range(draw(st.integers(1, 2))):  # the scan, then its retry
        visits = draw(nand)
        if visits:
            ledger.add_nand_visits(*(np.array(c, dtype=np.int64) for c in zip(*visits)))
        streams = draw(dram)
        if streams:
            row, page, seconds = zip(*streams)
            ledger.add_dram_visits(
                np.array(row), np.array(page), np.array(seconds),
                np.full(len(row), 18592),
            )
        if draw(st.booleans()):
            ledger.add_schedule(np.array(draw(st.lists(
                st.integers(0, 3), min_size=N_PLANES, max_size=N_PLANES
            ))))
    ledger.channel_bytes += np.array(draw(st.lists(
        st.integers(0, 10**6), min_size=n * N_CHANNELS, max_size=n * N_CHANNELS
    ))).reshape(n, N_CHANNELS)
    ledger.core_seconds[:] = draw(
        st.lists(st.floats(0, 1e-2), min_size=n, max_size=n)
    )
    ledger.ecc_bytes += draw(st.lists(st.integers(0, 10**5), min_size=n, max_size=n))
    return ledger


class TestLedgerAgainstTheObjectWalk:
    """The ledger's reductions == the parent's per-object walk, to the bit.

    The walk derives the senses of every plane no executed schedule
    answers; ``stages`` bills schedules only, so those planes are
    scheduled with the reference's derivation first (``scheduled``)
    and :class:`TestTlcKernelSchedule` pins that derivation to what the
    TLC kernel records."""

    @given(visit_tables())
    @settings(max_examples=300, deadline=None)
    def test_batch_stages_equal_the_reference_walk(self, ledger):
        expected = _reference_batch_phase_stages(
            replay(ledger), TIMING, ECC_RATE, scheduled_senses(ledger)
        )
        _solo, batch = scheduled(ledger).stages(TIMING, ECC_RATE)
        assert batch == expected  # all seven outputs, floats included

    @given(visit_tables())
    @settings(max_examples=150, deadline=None)
    def test_solo_stages_equal_each_query_alone(self, ledger):
        solo, _batch = scheduled(ledger).stages(TIMING, ECC_RATE)
        iteration_s = page_iteration_time(
            TIMING, ledger.read_mode, ledger.with_compute, ledger.with_filter
        )
        for row, cost in enumerate(replay(ledger)):
            pages = max(cost.pages_per_plane.values(), default=0)
            assert solo[:, row].tolist() == [
                pages * iteration_s,
                max(cost.channel_bytes.values(), default=0.0)
                / TIMING.channel_bandwidth_bps,
                cost.core_seconds + cost.ecc_bytes * ECC_RATE,
                cost.dram_seconds,
                pages,
            ]
            # ...and the scalar record says the same (dicts, float sums).
            scalar = query_cost(ledger, int(ledger.queries[row]))
            assert scalar.pages_per_plane == cost.pages_per_plane
            assert scalar.dram_seconds == cost.dram_seconds

    def test_visits_without_a_schedule_are_refused(self):
        ledger = PhaseLedger("rerank", 1, GEOMETRY, "tlc", with_compute=False)
        ledger.add_nand_visits(*np.zeros((3, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="'rerank' billed NAND visits"):
            ledger.stages(TIMING, ECC_RATE)


@st.composite
def tlc_visit_tables(draw):
    """A TLC phase as ``_materialize_tlc_batch`` hands it to the biller:
    a page stack (distinct pages on random planes and channels, some
    mirror-served) and query-major rows, each reading a codeword range of
    one stack row -- with a query's repeats of a page (several shortlist
    slots or documents on one page) and pages several queries share."""
    n_queries = draw(st.integers(1, 4))
    n_pages = draw(st.integers(1, 6))
    touches = sorted(draw(st.lists(
        st.tuples(st.integers(0, n_queries - 1), st.integers(0, n_pages - 1)),
        min_size=1, max_size=16,
    )))
    query, page_row = (np.array(column) for column in zip(*touches))
    # Every stack row is a page some row touched.
    touched, page_row = np.unique(page_row, return_inverse=True)
    n_pages = touched.size
    first_cw = np.array(draw(st.lists(
        st.integers(0, 3), min_size=query.size, max_size=query.size
    )))
    last_cw = first_cw + np.array(draw(st.lists(  # -1: a zero-length read
        st.integers(-1, 2), min_size=query.size, max_size=query.size
    )))
    pages = _TlcPages(
        stack=np.zeros((n_pages, 1), dtype=np.uint8),
        plane_of=np.array(draw(st.lists(
            st.integers(0, TLC_PLANES - 1), min_size=n_pages, max_size=n_pages
        ))),
        channel_of=np.array(draw(st.lists(
            st.integers(0, 1), min_size=n_pages, max_size=n_pages
        ))),
        page_id_of=np.array(draw(st.permutations(range(100, 100 + n_pages)))),
        hit_nbytes=np.array(draw(st.lists(
            st.sampled_from([0, 0, 18592]), min_size=n_pages, max_size=n_pages
        ))),
        cuts=[0, n_pages],
    )
    return n_queries, query, page_row, first_cw, last_cw, pages


TLC_DEVICE = ReisDevice(tiny_config("TLC-SCHEDULE"))
TLC_PLANES = TLC_DEVICE.engine.geometry.total_planes


class TestTlcKernelSchedule:
    """Where the walk derives senses for a plane, a TLC phase now records
    them: ``_bill_tlc_phase`` bills one sense per uncached page it
    materialized.  Its visits are one per (query, page), so the reference
    derivation -- a page costs the most visits any one query paid it --
    must give exactly the recorded schedule."""

    @given(tlc_visit_tables())
    @settings(max_examples=300, deadline=None)
    def test_derived_senses_equal_the_recorded_schedule(self, table):
        n_queries, query, page_row, first_cw, last_cw, pages = table
        run = SimpleNamespace(engine=TLC_DEVICE.engine, counts=count_table(n_queries))
        [ledger] = TLC_DEVICE.engine._bill_tlc_phase(
            "rerank", [run], [0, n_queries], np.arange(n_queries), query, page_row, first_cw, last_cw, pages,
        )
        assert ledger.senses.tolist() == derived_senses(ledger, *ledger.nand).tolist()
        assert int(ledger.senses.sum()) == int((pages.hit_nbytes == 0).sum())


class TestIbcProperties:
    @given(st.sampled_from([REIS_SSD1, REIS_SSD2]), st.integers(8, 1024))
    @settings(max_examples=30)
    def test_mpibc_never_hurts(self, config, code_bytes):
        on = ibc_time(config.geometry, config.timing, code_bytes, ALL_OPT)
        off = ibc_time(
            config.geometry, config.timing, code_bytes, OptFlags(True, True, False)
        )
        assert on <= off

    @given(st.integers(8, 512), st.integers(16, 1024))
    @settings(max_examples=30)
    def test_monotone_in_code_size(self, small, delta):
        a = ibc_time(REIS_SSD1.geometry, REIS_SSD1.timing, small, ALL_OPT)
        b = ibc_time(REIS_SSD1.geometry, REIS_SSD1.timing, small + delta, ALL_OPT)
        assert b >= a


workloads = st.builds(
    lambda n, dim, frac, pass_frac: ivf_workload(
        n, dim * 8, nlist=1024, nprobe=max(1, int(frac * 1024)),
        candidate_fraction=frac, filter_pass_fraction=pass_frac,
    ),
    st.integers(10_000, 100_000_000),
    st.integers(8, 256),
    st.floats(1e-4, 1.0),
    st.floats(1e-3, 1.0),
)


class TestAnalyticProperties:
    MODEL = ReisAnalyticModel(REIS_SSD1)

    @given(workloads)
    @settings(max_examples=30, deadline=None)
    def test_latency_positive_and_finite(self, workload):
        cost = self.MODEL.query_cost(workload)
        assert 0 < cost.seconds < 3600

    @given(workloads)
    @settings(max_examples=30, deadline=None)
    def test_energy_positive(self, workload):
        assert self.MODEL.energy_per_query(workload) > 0

    @given(
        st.integers(1_000_000, 100_000_000),
        st.floats(0.001, 0.2),
        st.floats(1.5, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_latency_monotone_in_candidates(self, n, fraction, factor):
        low = ivf_workload(
            n, 1024, nlist=16384,
            nprobe=max(1, int(fraction * 16384)), candidate_fraction=fraction,
        )
        high_fraction = min(1.0, fraction * factor)
        high = ivf_workload(
            n, 1024, nlist=16384,
            nprobe=max(1, int(high_fraction * 16384)),
            candidate_fraction=high_fraction,
        )
        assert self.MODEL.query_cost(high).seconds >= self.MODEL.query_cost(low).seconds

    @given(workloads)
    @settings(max_examples=20, deadline=None)
    def test_optimizations_never_hurt(self, workload):
        base = ReisAnalyticModel(REIS_SSD1, NO_OPT).query_cost(workload).seconds
        best = ReisAnalyticModel(REIS_SSD1, ALL_OPT).query_cost(workload).seconds
        assert best <= base + 1e-12

    @given(workloads)
    @settings(max_examples=20, deadline=None)
    def test_power_within_ssd_envelope(self, workload):
        power = self.MODEL.average_power(workload)
        assert 0.5 < power < 100.0
