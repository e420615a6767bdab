"""Embedded SSD-controller cores (Arm Cortex-R8 class).

The controller's microprocessors normally execute the FTL and I/O handling;
they lack floating-point units, which is why REIS quantizes (binary for the
in-flash distance, INT8 for reranking -- both integer workloads).  REIS
confines itself to one core (Sec. 7.2) and leaves the rest for regular SSD
duties.

The cost model charges cycles per element for the kernels the paper runs on
the cores: quickselect (average O(n)), quicksort (O(n log n)), INT8 distance
recomputation for reranking, and generic byte-moving work.  Phase kernels
charge a column at once (:meth:`EmbeddedCore.quickselects`,
:meth:`EmbeddedCore.reranks`), bit-identical to scalar calls in row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.unique import sorted_unique


@dataclass(frozen=True)
class CoreSpec:
    """Performance/power envelope of one embedded core."""

    frequency_hz: float = 1.5e9
    cycles_per_select_element: float = 8.0
    cycles_per_sort_element: float = 12.0
    cycles_per_int8_mac: float = 0.25  # NEON-style 4-wide dot products
    cycles_per_byte_moved: float = 0.5
    active_power_w: float = 0.35
    idle_power_w: float = 0.04


class EmbeddedCore:
    """One embedded core; methods return the kernel's execution time."""

    def __init__(self, core_id: int, spec: CoreSpec | None = None) -> None:
        self.core_id = core_id
        self.spec = spec or CoreSpec()
        self.busy_seconds = 0.0

    def _charge(self, cycles: float) -> float:
        seconds = cycles / self.spec.frequency_hz
        self.busy_seconds += seconds
        return seconds

    def quickselect(self, n_elements: int, k: int) -> float:
        """Select the k smallest of ``n_elements`` (average O(n))."""
        if n_elements <= 0:
            return 0.0
        effective = max(n_elements, k)
        return self._charge(effective * self.spec.cycles_per_select_element)

    def quicksort(self, n_elements: int) -> float:
        """Sort ``n_elements`` (O(n log n))."""
        if n_elements <= 1:
            return 0.0
        cycles = n_elements * math.log2(n_elements) * self.spec.cycles_per_sort_element
        return self._charge(cycles)

    def int8_distances(self, n_vectors: int, dim: int) -> float:
        """Recompute ``n_vectors`` INT8 distances of dimension ``dim``."""
        if n_vectors <= 0:
            return 0.0
        return self._charge(n_vectors * dim * self.spec.cycles_per_int8_mac)

    def _charge_column(self, seconds: np.ndarray) -> np.ndarray:
        """Charge ``seconds`` in order: the busy clock sums them one by one."""
        self.busy_seconds = float(
            np.add.accumulate(np.concatenate(([self.busy_seconds], seconds)))[-1]
        )
        return seconds

    def quickselects(self, n_elements: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """:meth:`quickselect` of every row, back to back: seconds column."""
        cycles = np.maximum(n_elements, ks) * self.spec.cycles_per_select_element
        return self._charge_column(
            np.where(n_elements > 0, cycles / self.spec.frequency_hz, 0.0)
        )

    def reranks(self, n_vectors: np.ndarray, log2: np.ndarray, dim: int) -> np.ndarray:
        """:meth:`int8_distances` then :meth:`quicksort` of every row's
        vectors, back to back: an ``(n_rows, 2)`` seconds matrix.  ``log2``
        is :func:`log2_counts` of ``n_vectors`` (a caller charging many
        cores takes it once for all of them)."""
        spec = self.spec
        sort = n_vectors * log2 * spec.cycles_per_sort_element / spec.frequency_hz
        mac = n_vectors * dim * spec.cycles_per_int8_mac / spec.frequency_hz
        seconds = np.empty((n_vectors.size, 2))
        seconds[:, 0] = np.where(n_vectors > 0, mac, 0.0)
        seconds[:, 1] = np.where(n_vectors > 1, sort, 0.0)
        self._charge_column(seconds.ravel())
        return seconds

    def move_bytes(self, n_bytes: float) -> float:
        """Generic data shuffling (TTL maintenance, entry unpacking)."""
        if n_bytes <= 0:
            return 0.0
        return self._charge(n_bytes * self.spec.cycles_per_byte_moved)


def log2_counts(n_vectors: np.ndarray) -> np.ndarray:
    """``math.log2(max(n, 1))`` of every count in the array ``n_vectors``
    (any shape), as scalar: one ``math.log2`` per distinct count."""
    counts, _first, at = sorted_unique(n_vectors.ravel())
    log2 = np.array(list(map(math.log2, np.maximum(counts, 1).tolist())))
    return log2[at].reshape(n_vectors.shape)


@dataclass
class CoreComplex:
    """The controller's set of embedded cores.

    REIS dedicates exactly one core to retrieval; the remainder keep serving
    the FTL and host I/O, so normal SSD operation is unaffected (Sec. 7.2).
    """

    n_cores: int = 4
    spec: CoreSpec = CoreSpec()

    def __post_init__(self) -> None:
        if self.n_cores < 2:
            raise ValueError("need at least one FTL core and one REIS core")
        self.cores = [EmbeddedCore(i, self.spec) for i in range(self.n_cores)]
        # The single core REIS is confined to.
        self.reis_core: EmbeddedCore = self.cores[-1]

    @property
    def ftl_cores(self):
        return self.cores[:-1]
