"""Row blocks: the unit in which the index build passes over a corpus.

Every corpus-sized pass of the build (k-means assignment, quantizer
fit/encode, synthetic-corpus generation, the deploy-boundary finiteness
check) walks ``row_blocks(n)`` so its temporaries are block-sized, not
corpus-sized.  The block size is a constant, not a knob: results do not
depend on it (``docs/architecture.md``, "Index build").
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

ROW_BLOCK = 4096


def float32_rows(vectors) -> np.ndarray:
    """``np.atleast_2d(np.asarray(vectors, dtype=np.float32))``, from C."""
    rows = np.asarray(vectors, dtype=np.float32)
    return rows if rows.ndim >= 2 else rows.reshape(1, -1)


def row_blocks(n: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` row ranges covering ``range(n)`` in ``ROW_BLOCK`` steps.

    The last range also takes the remainder, so no range is shorter than
    ``ROW_BLOCK`` unless ``n`` is: a matrix product over a short tail would
    go through a different BLAS routine than the same rows inside the whole
    matrix (one row is an ``sgemv``, a few rows OpenBLAS's small-matrix
    kernel) and sum in a different order.  Starts stay multiples of
    ``ROW_BLOCK``, which keeps every row in the micro-tile position it has
    in the whole-matrix product.  Fewer than two blocks' worth of rows --
    every query batch, which shares the quantizers and the finiteness check
    with the build -- is therefore the one range ``(0, n)``.
    """
    if n < 2 * ROW_BLOCK:
        return [(0, n)]
    starts = range(0, n - ROW_BLOCK + 1, ROW_BLOCK)
    return list(zip(starts, [*starts[1:], n]))
