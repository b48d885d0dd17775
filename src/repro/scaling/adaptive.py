"""Quality-driven scaling budgets (the Section 3.3 relaxation, inverted).

The paper's first relaxation: if the scaled column sums are all at least
``α``, OneSidedMatch still guarantees ``n(1 − e^{−α})`` in expectation.
Read as a *control knob*: to promise a target quality ``q``, it suffices
to iterate the scaling until every (nonempty) column sum reaches
``α(q) = −ln(1 − q)`` — no convergence needed.

* :func:`alpha_for_quality` — the inverse map ``q ↦ α``;
* :func:`scale_for_quality` — run Sinkhorn–Knopp until the minimum
  column sum clears ``α(q)`` (or a budget runs out), returning the
  scaling plus the guarantee it actually certifies.

This is how a downstream user should pick the iteration count instead of
hard-coding the paper's 5 or 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import telemetry as _tm
from repro._typing import FloatArray, IndexArray
from repro.constants import ONE_SIDED_GUARANTEE, one_sided_guarantee_relaxed
from repro.errors import ScalingError
from repro.graph.csr import BipartiteGraph
from repro.parallel.reduction import segment_sums
from repro.scaling.result import ScalingResult
from repro.scaling.sinkhorn_knopp import (
    initial_factors,
    kernel_sweeps,
    sk_iterate,
)

__all__ = ["alpha_for_quality", "scale_for_quality", "QualityScaling"]


def alpha_for_quality(quality: float) -> float:
    """Minimum column-sum level α certifying expected quality *quality*.

    Inverse of ``q = 1 − e^{−α}``; only targets below the converged
    guarantee ``1 − 1/e`` are achievable this way.

    >>> round(alpha_for_quality(0.6015), 2)
    0.92
    """
    if not 0.0 <= quality < ONE_SIDED_GUARANTEE:
        raise ScalingError(
            f"target quality must be in [0, {ONE_SIDED_GUARANTEE:.4f}) — "
            f"the Theorem 1 ceiling — got {quality}"
        )
    return -math.log(1.0 - quality)


@dataclass(frozen=True)
class QualityScaling:
    """Result of :func:`scale_for_quality`."""

    scaling: ScalingResult
    #: Minimum scaled column sum achieved (over nonempty columns).
    min_column_sum: float
    #: The expected-quality level this scaling certifies:
    #: ``1 − e^{−min_column_sum}`` (capped at the Theorem 1 constant).
    certified_quality: float
    #: Whether the requested target was met within the budget.
    target_met: bool


def pick_probabilities(
    dc: FloatArray, rowtot: FloatArray, rows: IndexArray, ptr: IndexArray
) -> FloatArray:
    """Per-edge pick probabilities ``p_i(j) = dc_j / rowtot_i``.

    The edges are CSC segments: *ptr* delimits the segments of the
    columns whose factors are *dc* (all columns, or a gathered subset),
    and *rows* holds each edge's row.  Row factors cancel within a row,
    so only ``dc`` and the row totals matter; a row with a zero total
    carries no mass.  Dividing (rather than multiplying by an inverse)
    keeps every probability at most 1 whatever the factors' range.
    """
    denom = rowtot[rows]
    probs = np.zeros(denom.shape[0], dtype=np.float64)
    np.divide(np.repeat(dc, np.diff(ptr)), denom, out=probs, where=denom > 0)
    return probs


def measure_state(
    graph: BipartiteGraph, dc: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Exact ``(rowtot, colsum)`` of *dc* on *graph* (one O(nnz) pass).

    ``rowtot[i]`` is the sum of ``dc`` over row *i*'s columns and
    ``colsum[j]`` the column sum of the row-normalised pick
    probabilities.  Theorem 1's relaxed form needs ``Σ_i p_i(j) >= α``:
    the column sums of the row-stochastic matrix, not of the raw scaled
    values (those two agree only at convergence).  This is the one
    measure of the §3.3 certificate: :func:`scale_for_quality`,
    :func:`~repro.stream.rescale.local_rebalance` and crash-recovery
    recertification all read it, so a certificate re-measured from the
    same factors compares equal bit for bit.
    """
    dc = np.asarray(dc, dtype=np.float64)
    rowtot = segment_sums(dc[graph.col_ind], graph.row_ptr)
    probs = pick_probabilities(dc, rowtot, graph.row_ind, graph.col_ptr)
    return rowtot, segment_sums(probs, graph.col_ptr)


def min_column_sum(graph: BipartiteGraph, colsum: FloatArray) -> float:
    """The certificate: the minimum of *colsum* over nonempty columns."""
    nonempty = graph.col_degrees() > 0
    return float(colsum[nonempty].min()) if nonempty.any() else 0.0


def scale_for_quality(
    graph: BipartiteGraph,
    target_quality: float,
    *,
    max_iterations: int = 500,
    initial: "tuple | ScalingResult | None" = None,
) -> QualityScaling:
    """Iterate Sinkhorn–Knopp until the target quality is certified.

    The stopping rule watches the **minimum** scaled column sum (not the
    maximum error): the relaxed Theorem 1 needs every column to carry at
    least α of probability mass.  Matrices without support may never get
    there; the budget then expires and ``target_met`` is ``False`` with
    the strongest certificate actually reached.

    *initial* warm-starts the sweep from previous ``(dr, dc)`` factors
    (or a :class:`ScalingResult`); when the factors already certify the
    target — the common case after a small edit batch — the loop exits
    after the initial measurement, with zero sweeps.
    """
    alpha = alpha_for_quality(target_quality)
    dr, dc, warm = initial_factors(graph, initial)
    current = 0.0

    def certifies(_dr: FloatArray, dc: FloatArray) -> bool:
        nonlocal current
        current = min_column_sum(graph, measure_state(graph, dc)[1])
        return current >= alpha

    run = sk_iterate(
        *kernel_sweeps(graph, dr, dc), dr, dc, max_iterations, stop=certifies
    )
    if run.fell_back:
        current = min_column_sum(graph, measure_state(graph, run.dc)[1])
    if warm and _tm.enabled():
        _tm.incr("scaling.sk.warm_starts")
        _tm.set_gauge("scaling.warm_iterations", run.iterations)

    scaling = ScalingResult(
        dr=run.dr,
        dc=run.dc,
        error=run.error,
        iterations=run.iterations,
        converged=current >= alpha,
        warm_started=warm,
    )
    certified = min(
        one_sided_guarantee_relaxed(min(current, 1.0)), ONE_SIDED_GUARANTEE
    )
    return QualityScaling(
        scaling=scaling,
        min_column_sum=current,
        certified_quality=certified,
        target_met=current >= alpha,
    )
