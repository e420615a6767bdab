"""Benchmark-suite configuration.

Every benchmark regenerates one paper table or figure: it runs the
corresponding :mod:`repro.experiments` runner (functional recall
measurement + paper-scale timing models), prints the reproduced
rows/series next to the paper's reported values, and times the run with
pytest-benchmark.  Absolute runtimes of the harness itself are incidental;
the payload is the printed reproduction.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): marks a benchmark reproducing a paper figure/table"
    )


@pytest.fixture()
def show(capsys):
    """Print helper that survives pytest's capture (shown with -s or on
    benchmark summaries)."""

    def _show(*lines):
        with capsys.disabled():
            for line in lines:
                print(line)

    return _show


@pytest.fixture(scope="session")
def bench_out(tmp_path_factory):
    """Where the serving sweeps write ``BENCH_serving.json``: a session tmp
    dir, so running the suite never dirties the checked-in file
    (``benchmarks/regen.py`` runs the sweeps and copies this into place)."""
    return tmp_path_factory.mktemp("bench", numbered=False) / "BENCH_serving.json"
