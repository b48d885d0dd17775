"""Symmetry-preserving scaling (Knight–Ruiz–Uçar [23]).

For a symmetric pattern one usually wants ``dr = dc`` so the scaled matrix
stays symmetric.  The alternate Sinkhorn–Knopp sweeps break symmetry at
every half-step; the Ruiz update preserves it exactly because rows and
columns are scaled simultaneously with the same factors.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScalingError
from repro.graph.csr import BipartiteGraph
from repro.parallel.reduction import segment_sums
from repro.scaling.result import ScalingResult
from repro.scaling.sinkhorn_knopp import budget_limit

__all__ = ["scale_symmetric", "is_pattern_symmetric"]


def is_pattern_symmetric(graph: BipartiteGraph) -> bool:
    """True iff the pattern equals its transpose."""
    if not graph.is_square:
        return False
    return np.array_equal(graph.row_ptr, graph.col_ptr) and np.array_equal(
        graph.col_ind, graph.row_ind
    )


def scale_symmetric(
    graph: BipartiteGraph,
    iterations: int | None = None,
    *,
    tolerance: float | None = None,
    max_iterations: int = 1000,
    track_history: bool = False,
) -> ScalingResult:
    """Symmetric doubly stochastic scaling: returns ``dr == dc``.

    Update per iteration: ``d[i] /= sqrt(rowsum_i)`` where ``rowsum_i`` is
    the scaled row sum ``d[i] * sum_j d[j]`` over the row pattern.  The
    reported error is the maximum row-sum deviation (identical to the
    column deviation by symmetry).

    Raises :class:`ScalingError` if the pattern is not symmetric.
    """
    if not is_pattern_symmetric(graph):
        raise ScalingError("scale_symmetric requires a symmetric pattern")
    limit = budget_limit(iterations, tolerance, max_iterations)
    d = np.ones(graph.nrows, dtype=np.float64)
    history: list[float] = []
    nonempty = graph.row_degrees() > 0

    def current_error() -> float:
        sums = d * segment_sums(d[graph.col_ind], graph.row_ptr)
        if not nonempty.any():
            return 0.0
        return float(np.abs(sums[nonempty] - 1.0).max())

    done = 0
    converged = False
    error = current_error()
    for _ in range(limit):
        if tolerance is not None and error <= tolerance:
            converged = True
            break
        sums = d * segment_sums(d[graph.col_ind], graph.row_ptr)
        fac = np.ones_like(sums)
        np.divide(1.0, np.sqrt(sums), out=fac, where=sums > 0)
        d *= fac
        done += 1
        error = current_error()
        if track_history:
            history.append(error)
    if tolerance is not None and error <= tolerance:
        converged = True

    return ScalingResult(
        dr=d,
        dc=d.copy(),
        error=error,
        iterations=done,
        converged=converged,
        history=tuple(history),
    )
