"""Pinned NAND state of the region writes (deploy, appends, compaction).

Deploy programs whole regions, a streamed append seals cluster-tail
pages and compaction erases the region windows, restores their cell
modes and reprograms them.  However those writes reach the page table,
its columns and the NAND counters must come out bit-identical.  This
module pins, on the tiny ingest device of
:func:`tests.conftest.tiny_ingest_device`, a digest of the page table's
``data``, ``oob``, ``state``, ``mode``, ``pe_cycles`` and ``next_page``
columns and the array's counters after the deploy, after each of two
append epochs and after ``compact()``.  The values in
``nand_write_pin.json`` were recorded while every write went to the page
table one page (or block) per call.
"""

import hashlib
import json
from pathlib import Path

from tests.conftest import tiny_ingest_device

PINNED_FILE = Path(__file__).with_name("nand_write_pin.json")
COLUMNS = ("data", "oob", "state", "mode", "pe_cycles", "next_page")


def table_digest(array) -> dict:
    """Per page-table column a digest of its bytes, plus the counters."""
    digests = {
        name: hashlib.sha1(getattr(array.pages, name).tobytes()).hexdigest()[:16]
        for name in COLUMNS
    }
    digests["counters"] = {name: value for name, value in array.counters}
    return digests


def observe() -> dict:
    device, manager, epochs = tiny_ingest_device()
    array = device.ssd.array
    points = {"deploy": table_digest(array)}
    for e, requests in enumerate(epochs):
        manager.apply(requests)
        points[f"epoch{e}"] = table_digest(array)
    manager.compact()
    points["compact"] = table_digest(array)
    return json.loads(json.dumps(points))


def test_region_writes_are_pinned():
    assert observe() == json.loads(PINNED_FILE.read_text())


if __name__ == "__main__":  # re-record: PYTHONPATH=src:. python tests/test_nand_write_pin.py
    PINNED_FILE.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
