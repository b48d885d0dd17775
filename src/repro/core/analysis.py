"""Per-instance theoretical analysis of the heuristics.

Theorem 1's proof works by bounding, for every column ``j``, the
probability that *no* row picks it:

.. math:: P(j\\ \\text{unmatched}) \\;=\\; \\prod_{i \\in A_{*j}} (1 - p_i(j)),
          \\qquad p_i(j) = \\frac{s_{ij}}{\\sum_{k} s_{ik}},

and summing.  Given an actual scaling (converged or not), these
quantities are *computable exactly*, which turns the theorem into a
per-instance, per-scaling prediction:

* :func:`one_sided_miss_probabilities` — P(unmatched) per column;
* :func:`expected_one_sided_cardinality` — the exact expectation of
  ``|M|`` for OneSidedMatch under that scaling (no sampling involved);
* :func:`one_sided_lower_bound` — Theorem 1's closed-form bound
  ``sum_j 1 - (1 - alpha_j/d_j)^{d_j}`` from the column sums, the
  arithmetic–geometric step of the proof.

The tests validate the expectation against Monte-Carlo runs and the bound
chain ``lower_bound <= expectation`` plus ``expectation -> n(1-1/e)`` on
the all-ones matrix.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray
from repro.graph.csr import BipartiteGraph
from repro.parallel.reduction import segment_sums
from repro.scaling.adaptive import measure_state, pick_probabilities
from repro.scaling.result import ScalingResult

__all__ = [
    "one_sided_miss_probabilities",
    "expected_one_sided_cardinality",
    "one_sided_lower_bound",
]


def one_sided_miss_probabilities(
    graph: BipartiteGraph, scaling: ScalingResult
) -> FloatArray:
    """Exact P(column j unmatched) under OneSidedMatch with *scaling*.

    Computed in log-space for numerical robustness; a column with an
    edge of probability 1 (a degree-one row) gets exactly 0.
    """
    rowtot, _ = measure_state(graph, scaling.dc)
    probs = pick_probabilities(
        scaling.dc, rowtot, graph.row_ind, graph.col_ptr
    )
    # log(1 - p); p == 1 -> -inf -> exp(.) == 0, which is correct.
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-np.minimum(probs, 1.0))
    col_log = segment_sums(log_miss, graph.col_ptr)
    miss = np.exp(col_log)
    miss[graph.col_degrees() == 0] = 1.0
    return miss


def expected_one_sided_cardinality(
    graph: BipartiteGraph, scaling: ScalingResult
) -> float:
    """Exact ``E[|M|]`` of OneSidedMatch under *scaling*.

    ``|M|`` equals the number of columns picked by at least one row, so
    the expectation is ``sum_j (1 - P(j unmatched))`` by linearity —
    the identity at the heart of Theorem 1's proof.
    """
    miss = one_sided_miss_probabilities(graph, scaling)
    return float((1.0 - miss).sum())


def one_sided_lower_bound(
    graph: BipartiteGraph, scaling: ScalingResult
) -> float:
    """Theorem 1's closed-form lower bound on ``E[|M|]``.

    For column ``j`` with degree ``d_j`` and scaled column sum
    ``alpha_j`` (of the row-normalised probabilities), the AM–GM step
    gives ``P(miss) <= (1 - alpha_j / d_j)^{d_j}``, hence

    .. math:: E[|M|] \\ge \\sum_j 1 - (1 - \\alpha_j/d_j)^{d_j}.

    With a converged scaling every ``alpha_j = 1`` and the right side is
    at least ``n (1 - 1/e)``.
    """
    _, alpha = measure_state(graph, scaling.dc)
    degs = graph.col_degrees().astype(np.float64)
    nonempty = degs > 0
    ratio = np.zeros_like(alpha)
    ratio[nonempty] = alpha[nonempty] / degs[nonempty]
    bound = np.zeros_like(alpha)
    bound[nonempty] = 1.0 - (1.0 - ratio[nonempty]) ** degs[nonempty]
    return float(bound.sum())
