"""Ruiz equilibration (the reviewed alternative scaling of Section 2.2).

Ruiz's algorithm [29] scales rows and columns *simultaneously* each
iteration instead of alternately:

.. code-block:: text

    dr[i] *= 1 / sqrt(rowsum_i)    (both computed from the current
    dc[j] *= 1 / sqrt(colsum_j)     scaled matrix, then applied together)

For unsymmetric matrices it converges more slowly than Sinkhorn–Knopp
(Knight–Ruiz–Uçar [23]), which the library's tests demonstrate; it is
provided because the paper explicitly notes "other doubly stochastic
scaling methods can also be used" and to support the symmetric variant.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import BipartiteGraph
from repro.scaling.convergence import (
    column_sum_error,
    scaled_column_sums,
    scaled_row_sums,
)
from repro.scaling.result import ScalingResult
from repro.scaling.sinkhorn_knopp import budget_limit

__all__ = ["scale_ruiz"]


def scale_ruiz(
    graph: BipartiteGraph,
    iterations: int | None = None,
    *,
    tolerance: float | None = None,
    max_iterations: int = 1000,
    track_history: bool = False,
) -> ScalingResult:
    """Scale toward doubly stochastic form with Ruiz equilibration.

    Parameters mirror :func:`repro.scaling.scale_sinkhorn_knopp`; the
    reported error is the same column-sum deviation so the two methods'
    convergence behaviour is directly comparable.
    """
    limit = budget_limit(iterations, tolerance, max_iterations)
    dr = np.ones(graph.nrows, dtype=np.float64)
    dc = np.ones(graph.ncols, dtype=np.float64)
    history: list[float] = []

    done = 0
    converged = False
    error = column_sum_error(graph, dr, dc)
    for _ in range(limit):
        if tolerance is not None and error <= tolerance:
            converged = True
            break
        rsums = scaled_row_sums(graph, dr, dc)
        csums = scaled_column_sums(graph, dr, dc)
        r_fac = np.ones_like(rsums)
        np.divide(1.0, np.sqrt(rsums), out=r_fac, where=rsums > 0)
        c_fac = np.ones_like(csums)
        np.divide(1.0, np.sqrt(csums), out=c_fac, where=csums > 0)
        dr *= r_fac
        dc *= c_fac
        done += 1
        error = column_sum_error(graph, dr, dc)
        if track_history:
            history.append(error)
    if tolerance is not None and error <= tolerance:
        converged = True

    return ScalingResult(
        dr=dr,
        dc=dc,
        error=error,
        iterations=done,
        converged=converged,
        history=tuple(history),
    )
