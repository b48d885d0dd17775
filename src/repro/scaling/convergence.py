"""Convergence measures for scaling algorithms.

The paper's stopping criterion (Section 2.2): after each iteration the row
sums are one by construction, so convergence is judged by how far the
*column* sums stray from one.  Empty rows/columns are excluded — a matrix
with an empty row or column has no support at all, and the relaxed theory
of Section 3.3 only speaks about the sums over nonempty lines.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray
from repro.graph.csr import BipartiteGraph
from repro.parallel.reduction import segment_sums

__all__ = [
    "scaled_column_sums",
    "scaled_row_sums",
    "column_sum_error",
    "row_sum_error",
]


def scaled_column_sums(
    graph: BipartiteGraph,
    dr: FloatArray,
    dc: FloatArray,
) -> FloatArray:
    """Column sums of ``D_R A D_C``: ``dc[j] * sum_{i in A*j} dr[i]``."""
    gathered = np.asarray(dr, dtype=np.float64)[graph.row_ind]
    return segment_sums(gathered, graph.col_ptr) * np.asarray(
        dc, dtype=np.float64
    )


def scaled_row_sums(
    graph: BipartiteGraph,
    dr: FloatArray,
    dc: FloatArray,
) -> FloatArray:
    """Row sums of ``D_R A D_C``: ``dr[i] * sum_{j in Ai*} dc[j]``."""
    gathered = np.asarray(dc, dtype=np.float64)[graph.col_ind]
    return segment_sums(gathered, graph.row_ptr) * np.asarray(
        dr, dtype=np.float64
    )


def column_sum_error(
    graph: BipartiteGraph,
    dr: FloatArray,
    dc: FloatArray,
) -> float:
    """``max_j |colsum_j - 1|`` over nonempty columns (the paper's
    "scaling error" in Tables 1 and 3)."""
    sums = scaled_column_sums(graph, dr, dc)
    nonempty = graph.col_degrees() > 0
    if not nonempty.any():
        return 0.0
    return float(np.abs(sums[nonempty] - 1.0).max())


def row_sum_error(
    graph: BipartiteGraph,
    dr: FloatArray,
    dc: FloatArray,
) -> float:
    """``max_i |rowsum_i - 1|`` over nonempty rows."""
    sums = scaled_row_sums(graph, dr, dc)
    nonempty = graph.row_degrees() > 0
    if not nonempty.any():
        return 0.0
    return float(np.abs(sums[nonempty] - 1.0).max())
