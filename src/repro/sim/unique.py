"""One sort-based ``unique`` for the serving path's key columns, from numpy
C entry points only: ``np.unique`` reaches its sort through numpy's
Python-level wrapper and dispatchers (``docs/architecture.md``, "Host hot
path")."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def sorted_unique(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)`` of a 1-D
    column: the distinct keys ascending, each one's first index and every
    key's position among them.  One stable ``argsort`` (a key's first
    occurrence heads its run), one ``not_equal`` and one ``add.accumulate``.
    """
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    head = np.empty(keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    inverse = np.empty(keys.size, dtype=np.intp)
    inverse[order] = np.add.accumulate(head, dtype=np.intp) - 1
    return ordered[head], order[head], inverse
