"""Table 4: end-to-end RAG latency breakdown, REIS vs CPU+BQ.

The paper runs HotpotQA and NQ through the full pipeline on (i) the
CPU-based system with binary quantization (the Fig. 3 configuration) and
(ii) REIS-SSD1.  REIS has no dataset-loading stage, its search+retrieval
contributes 0.02-0.15% of end-to-end time, generation becomes the new
bottleneck at ~92%, and end-to-end latency improves 1.25x (HotpotQA) and
3.24x (NQ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.api import ReisDevice, ReisRetriever
from repro.core.config import REIS_SSD1, ReisConfig, tiny_config
from repro.experiments.fig07_08 import _workload_for
from repro.experiments.operating_points import (
    functional_dataset,
    measure_operating_points,
)
from repro.host.baseline import CpuRetriever, CpuRetrieverConfig
from repro.rag.datasets import PRESETS, load_dataset
from repro.rag.pipeline import RagPipeline, STAGES

TABLE4_QUERY_BATCH = 100

# Paper end-to-end seconds (REIS, CPU+BQ).  Note: the paper's Table 4 "NQ"
# column carries Fig. 3's wiki_en breakdown (67.3% loading, 61.69s total),
# so the reproduction runs hotpotqa + wiki_en and maps the second column.
PAPER_TABLE4 = {
    "hotpotqa": (18.97, 23.79),
    "wiki_en": (19.0, 61.69),
}


@dataclass
class Table4Row:
    """One column pair of Table 4."""

    dataset: str
    system: str  # "REIS" or "CPU+BQ"
    total_seconds: float
    fractions: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "dataset": self.dataset,
            "system": self.system,
            "total_s": self.total_seconds,
        }
        row.update({stage: self.fractions[stage] for stage in STAGES})
        return row


def _repeat_queries(queries: np.ndarray, n: int) -> np.ndarray:
    reps = -(-n // queries.shape[0])
    return np.concatenate([queries] * reps)[:n]


def run_table4(
    datasets: Sequence[str] = ("hotpotqa", "wiki_en"),
    n_queries: int = TABLE4_QUERY_BATCH,
    functional_entries: int = 3000,
    recall_target: float = 0.94,
    config: ReisConfig = REIS_SSD1,
) -> List[Table4Row]:
    """Both systems' stage breakdowns for each dataset."""
    rows: List[Table4Row] = []
    for name in datasets:
        spec = PRESETS[name]
        point = measure_operating_points(name, (recall_target,))[0]

        # CPU+BQ: the Fig. 3 configuration (IVF + BQ + rerank, loading on).
        cpu_dataset = functional_dataset(name, functional_entries, 16)
        cpu = CpuRetriever(cpu_dataset, CpuRetrieverConfig(algorithm="ivf_bq"))
        cpu_report = RagPipeline(cpu).run(
            _repeat_queries(cpu_dataset.queries, n_queries), k=10
        )
        rows.append(
            Table4Row(
                dataset=name,
                system="CPU+BQ",
                total_seconds=cpu_report.total_seconds,
                fractions=cpu_report.breakdown(),
            )
        )

        # REIS: functional retrieval on a small deployed database, search
        # time reported at paper scale through the analytic workload.
        reis_dataset = load_dataset(name, n_entries=512, n_queries=8)
        device = ReisDevice(tiny_config())
        db_id = device.ivf_deploy(
            name, reis_dataset.vectors, nlist=16, corpus=reis_dataset.corpus
        )
        retriever = ReisRetriever(
            device,
            db_id,
            nprobe=max(1, int(round(point.candidate_fraction * 16))),
            paper_workload=_workload_for(spec, point),
            paper_config=config,
        )
        reis_report = RagPipeline(retriever).run(
            _repeat_queries(reis_dataset.queries, n_queries), k=10
        )
        rows.append(
            Table4Row(
                dataset=name,
                system="REIS",
                total_seconds=reis_report.total_seconds,
                fractions=reis_report.breakdown(),
            )
        )
    return rows


def end_to_end_speedups(rows: Sequence[Table4Row]) -> Dict[str, float]:
    """CPU+BQ total / REIS total per dataset."""
    by_key = {(r.dataset, r.system): r.total_seconds for r in rows}
    out = {}
    for dataset in dict.fromkeys(r.dataset for r in rows):
        out[dataset] = by_key[(dataset, "CPU+BQ")] / by_key[(dataset, "REIS")]
    return out
