"""Pinned NAND state of the region writes and of the maintenance writes.

Deploy programs whole regions, a streamed append seals cluster-tail
pages and compaction erases the region windows, restores their cell
modes and reprograms them.  However those writes reach the page table,
its columns and the NAND counters must come out bit-identical.  This
module pins, on the tiny ingest device of
:func:`tests.conftest.tiny_ingest_device`, a digest of the page table's
``data``, ``oob``, ``state``, ``mode``, ``pe_cycles`` and ``next_page``
columns and the array's counters after the deploy, after each of two
append epochs and after ``compact()`` (``regions`` in
``nand_write_pin.json``, recorded while every write went to the page
table one page or block per call).

``maintenance`` pins the FTL-side writers on a small SSD: host writes and
overwrites, garbage collection, an in-place refresh, a wear-leveling swap
that carries FTL mappings and a defragmentation of a window holding
mapped pages.  After each step it records the same digests, the FTL's
``l2p`` and ``p2l`` maps (``lpa:linear page`` in insertion order) and the
step's result fields; it was recorded while each of those writers
programmed and erased one page or block per call.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.defrag import Defragmenter
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming
from repro.ssd.device import SimulatedSSD, SsdSpec
from repro.ssd.refresh import RefreshManager
from tests.conftest import tiny_ingest_device

PINNED_FILE = Path(__file__).with_name("nand_write_pin.json")
COLUMNS = ("data", "oob", "state", "mode", "pe_cycles", "next_page")
MAINTENANCE_GEOMETRY = FlashGeometry(
    channels=1, chips_per_channel=1, dies_per_chip=2, planes_per_die=2,
    blocks_per_plane=6, pages_per_block=4, page_bytes=4096, oob_bytes=128,
    subpage_bytes=1024,
)


def table_digest(array) -> dict:
    """Per page-table column a digest of its bytes, plus the counters."""
    digests = {
        name: hashlib.sha1(getattr(array.pages, name).tobytes()).hexdigest()[:16]
        for name in COLUMNS
    }
    digests["counters"] = {name: value for name, value in array.counters}
    return digests


def observe_regions() -> dict:
    device, manager, epochs = tiny_ingest_device()
    array = device.ssd.array
    points = {"deploy": table_digest(array)}
    for e, requests in enumerate(epochs):
        manager.apply(requests)
        points[f"epoch{e}"] = table_digest(array)
    manager.compact()
    points["compact"] = table_digest(array)
    return points


def observe_maintenance() -> dict:
    ssd = SimulatedSSD(SsdSpec(MAINTENANCE_GEOMETRY, NandTiming()))
    g, ftl, points = ssd.spec.geometry, ssd.ftl, {}

    def record(step, result=None):
        point = table_digest(ssd.array)
        point["l2p"] = " ".join(f"{l}:{p.to_linear(g)}" for l, p in ftl._l2p.items())
        point["p2l"] = " ".join(f"{p}:{l}" for p, l in ftl._p2l.items())
        point["result"] = None if result is None else dataclasses.asdict(result)
        points[step] = point

    for tag, lpas in enumerate((range(14), range(10))):  # writes, overwrites
        for lpa in lpas:
            data = np.full(48, (7 * lpa + tag) % 251, dtype=np.uint8)
            ssd.host_write(lpa, data, np.array([lpa, tag], dtype=np.uint8))
    record("writes")
    record("gc", ssd.gc.collect(max_blocks=2))
    refresh = RefreshManager(ssd.array)
    for plane in range(g.total_planes):
        refresh.note_programmed(plane, 1)
    refresh.advance_days(100)
    record("refresh", refresh.refresh(max_blocks=3))
    ssd.wear.imbalance_threshold = 2
    for plane, block, times in ((3, 5, 4), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1)):
        for _ in range(times):
            ssd.array.pages.erase(plane, block)
    record("wear", ssd.wear.level(ftl))
    record("defrag", Defragmenter(ssd).clear_window(0, 2 * g.pages_per_block))
    return points


def observe() -> dict:
    points = {"regions": observe_regions(), "maintenance": observe_maintenance()}
    return json.loads(json.dumps(points))


def pinned() -> dict:
    return json.loads(PINNED_FILE.read_text())


def test_region_writes_are_pinned():
    assert json.loads(json.dumps(observe_regions())) == pinned()["regions"]


def test_maintenance_writes_are_pinned():
    assert json.loads(json.dumps(observe_maintenance())) == pinned()["maintenance"]


if __name__ == "__main__":  # re-record: PYTHONPATH=src:. python tests/test_nand_write_pin.py
    sections = [
        f' "{name}": {{\n' + ",\n".join(
            f'  "{step}": {json.dumps(point, sort_keys=True)}'
            for step, point in sorted(points.items())
        ) + "\n }"
        for name, points in sorted(observe().items())
    ]
    PINNED_FILE.write_text("{\n" + ",\n".join(sections) + "\n}\n")
