"""REIS-ASIC: the controller-side ideal-ASIC ablation (Sec. 6.3.1).

REIS-ASIC quantifies what ESP (and the resulting in-die computation) buys.
It replaces REIS's in-plane distance computation with an **ideal ASIC in
the SSD controller** that computes in zero time -- but because ESP is not
used, raw page reads are unreliable and every candidate page must cross
the flash channels into the controller for ECC before any computation.

The model subclasses the REIS analytic twin and overrides the coarse and
fine phases: identical page-read counts, but

* reads use plain SLC latency (no ESP),
* there is no in-plane compute or filtering (``with_compute=False``),
* the full page payload crosses the channel (not just TTL entries),
* the controller ECC-decodes every transferred byte,
* selection/compute is free (the ASIC is ideal).

The paper reports REIS-ASIC 4.1x-5.0x (SSD1) and 3.9x-6.5x (SSD2) slower
than REIS across datasets and recall points.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.core.analytic import AnalyticWorkload, Bill, ReisAnalyticModel


class ReisAsicModel(ReisAnalyticModel):
    """REIS with controller-side ideal-ASIC compute instead of ESP + ISP."""

    def _coarse_cost(self, workload: AnalyticWorkload) -> Bill:
        g = self.geometry
        spp = min(
            g.page_bytes // workload.code_bytes,
            g.oob_bytes // self.params.tag_bytes,
        )
        pages = math.ceil(workload.nlist / spp)
        page_bytes = float(pages) * g.page_bytes
        # Selection happens on the ideal ASIC: zero compute time.
        return self._bill(
            "coarse", pages, page_bytes, ecc_bytes=page_bytes,
            read_mode="slc", with_compute=False,
        )

    def _fine_cost(self, workload: AnalyticWorkload) -> Tuple[Bill, int]:
        g = self.geometry
        spp = min(
            g.page_bytes // workload.code_bytes,
            g.oob_bytes // self.params.oob_link_bytes,
        )
        candidates = workload.candidates
        pages = math.ceil(candidates / spp)
        if workload.is_ivf:
            pages = min(
                pages + workload.nprobe - 1,
                math.ceil(workload.n_entries / spp),
            )
        page_bytes = float(pages) * g.page_bytes
        # Every candidate reaches the controller; no distance filtering is
        # possible in the dies because raw reads are unreliable.
        return self._bill(
            "fine", pages, page_bytes, ecc_bytes=page_bytes,
            read_mode="slc", with_compute=False,
        ), candidates
