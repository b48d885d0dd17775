"""Localized quality re-certification after an edit batch.

A full Sinkhorn–Knopp sweep costs O(nnz) and, after random churn, most
of it is wasted: the previous epoch's ``(dr, dc)`` already put every
*untouched* column comfortably above the certification level α — only
columns incident to the edits (or sharing a row with them) can have
dropped below it.  Worse, the sweeps needed to fix one freshly deficient
column are the same from a warm start as from a cold one, so plain
warm-started global sweeps save little (see ``docs/streaming.md``).

:func:`local_rebalance` fixes the deficient columns directly:

1. obtain all column sums of the row-normalised pick probabilities —
   either one O(nnz) pass (no sort; the CSC mirror is already
   column-grouped), or, when the caller hands back the previous epoch's
   maintained ``(rowtot, colsum)`` state, a dirty-neighbourhood refresh
   that skips the global pass entirely;
2. multiplicatively boost ``dc`` on the deficient columns to the level
   α·*slack*;
3. refresh the row totals of exactly the rows adjacent to the boosted
   columns, then re-measure exactly the columns adjacent to those rows
   (the only sums that can have moved);
4. repeat until no column is deficient or the round budget is spent.

Each round touches O(edges incident to the boosted neighbourhood)
instead of O(nnz): row totals and column sums are *delta-tracked*
(scatter-adds over exactly the edges whose contribution moved), and the
loop typically ends in a handful of rounds because a boost spreads its
side effects over high-degree rows.  Delta tracking drifts by a few
ulps per round, so before certifying, every row and column the loop
touched is re-measured from the final factors with
:func:`~repro.scaling.adaptive.measure_state`'s arithmetic — the
reported minimum and the carried state equal what a full pass would
produce, which is what crash recovery re-measures.  When the loop fails to certify the target, the caller falls
back to warm-started global sweeps
(:func:`~repro.scaling.scale_for_quality` with ``initial=``).
"""

from __future__ import annotations

import numpy as np

from repro import telemetry as _tm
from repro._typing import FloatArray, IndexArray
from repro.constants import ONE_SIDED_GUARANTEE, one_sided_guarantee_relaxed
from repro.graph.csr import BipartiteGraph
from repro.parallel.reduction import gather_segments as _gather_segments
from repro.parallel.reduction import segment_sums
from repro.scaling.adaptive import (
    QualityScaling,
    alpha_for_quality,
    measure_state,
    min_column_sum,
    pick_probabilities,
)
from repro.scaling.result import ScalingResult

__all__ = ["local_rebalance", "measure_state"]

#: Per-round cap on the multiplicative boost of a deficient column.  A
#: column whose probability sum is many orders of magnitude below α
#: (near-empty support after churn) would otherwise request an unbounded
#: factor; repeated rounds then overflow ``dc`` to ``inf``, the affected
#: row totals follow, and the ``0 · inf`` products poison the certificate
#: with NaN.  Columns that genuinely cannot reach α under the cap simply
#: stay deficient and the caller falls back to global sweeps.
_MAX_BOOST = 1e6

#: Absolute ceiling on a column factor.  Keeps every downstream product
#: (row totals, probability sums) comfortably inside float64 range even
#: at the round budget: ``nnz · _DC_CAP`` stays finite.
_DC_CAP = 1e150

#: The delta tracking and the returned row factors treat row totals below
#: this as empty.  Without the floor, a denormal total inverts to ``inf``
#: and one ``inf · 0`` product later the tracked sums are NaN; the floor
#: also bounds the row factors handed to warm-start consumers at
#: ``1 / _ROWTOT_TINY``, inside the range Sinkhorn–Knopp sweeps survive.
#: The certificate itself divides (:func:`measure_state`), which needs no
#: floor: a pick probability never exceeds one.
_ROWTOT_TINY = 1e-150

#: When the final factors span more than this, renormalise ``dc`` to
#: ``max(dc) == 1`` before certifying — the row-normalised pick
#: probabilities are invariant under a global scaling of ``dc``, so the
#: certificate is unchanged while every downstream consumer (the warm
#: Sinkhorn–Knopp fallback included) sees bounded numbers.
_DC_NORM = 1e100


def _guarded_inverse(rowtot: FloatArray) -> FloatArray:
    """``1 / rowtot`` with near-empty totals mapped to zero, never inf."""
    inv = np.zeros_like(rowtot)
    np.divide(1.0, rowtot, out=inv, where=rowtot > _ROWTOT_TINY)
    return inv


def _refresh_columns(
    graph: BipartiteGraph,
    dc: FloatArray,
    rowtot: FloatArray,
    colsum: FloatArray,
    cols: IndexArray,
) -> None:
    """Re-measure ``colsum[cols]`` from ``(dc, rowtot)`` with
    :func:`measure_state`'s arithmetic, so the refreshed entries are
    bitwise what a full pass would give (recovery recertification
    compares exactly, not approximately)."""
    rows, ptr = _gather_segments(graph.col_ptr, graph.row_ind, cols)
    colsum[cols] = segment_sums(
        pick_probabilities(dc[cols], rowtot, rows, ptr), ptr
    )


def local_rebalance(
    graph: BipartiteGraph,
    dc: FloatArray,
    target_quality: float,
    *,
    max_rounds: int = 30,
    slack: float = 1.1,
    state: tuple[FloatArray, FloatArray] | None = None,
    dirty_rows: FloatArray | None = None,
    dirty_cols: FloatArray | None = None,
) -> tuple[QualityScaling, tuple[FloatArray, FloatArray]]:
    """Repair a near-certifying column scaling to the target level locally.

    Only ``dc`` matters for the Section 3.3 certificate (row factors
    cancel in the row-normalised pick probabilities); the returned
    ``dr`` is the exact row-normaliser ``1 / rowtot`` of the final
    ``dc``, so the pair is row-stochastic by construction.

    *state* is the previous epoch's ``(rowtot, colsum)`` pair (sized for
    *graph*, ownership transfers — the arrays are updated in place).
    With it, the initial O(nnz) measurement shrinks to the dirty
    neighbourhood: only rows in *dirty_rows* changed their totals, and
    only columns adjacent to them (plus *dirty_cols*) can have moved
    their sums.  Without it, both vectors are measured from scratch.

    Returns ``(quality, (rowtot, colsum))`` — a
    :class:`~repro.scaling.adaptive.QualityScaling` whose
    ``certified_quality`` comes from exact measurements of the final
    factors, plus the maintained state for the next call.  ``target_met``
    is ``False`` when the local loop could not lift every column
    (callers should then fall back to global sweeps and re-measure).
    ``scaling.iterations`` counts local rounds.
    """
    alpha = alpha_for_quality(target_quality)
    dc = np.array(dc, dtype=np.float64, copy=True)
    level = alpha * slack

    if state is None:
        rowtot, colsum = measure_state(graph, dc)
    else:
        rowtot, colsum = state
        d_rows = np.asarray(
            dirty_rows if dirty_rows is not None else (), dtype=np.int64
        )
        d_cols = np.asarray(
            dirty_cols if dirty_cols is not None else (), dtype=np.int64
        )
        col_mask = np.zeros(graph.ncols, dtype=bool)
        col_mask[d_cols] = True
        if d_rows.size:
            cols_of_rows, sub_ptr = _gather_segments(
                graph.row_ptr, graph.col_ind, d_rows
            )
            rowtot[d_rows] = segment_sums(dc[cols_of_rows], sub_ptr)
            col_mask[cols_of_rows] = True
        stale = np.flatnonzero(col_mask)
    if state is not None and stale.size:
        _refresh_columns(graph, dc, rowtot, colsum, stale)
    inv_rowtot = _guarded_inverse(rowtot)
    nonempty = np.diff(graph.col_ptr) > 0
    deficient = nonempty & (colsum < alpha)

    rounds = 0
    touched_row_mask = np.zeros(graph.nrows, dtype=bool)
    touched_col_mask = np.zeros(graph.ncols, dtype=bool)
    deficient_idx = np.flatnonzero(deficient)
    while deficient_idx.size and rounds < max_rounds:
        d = deficient_idx
        # Boost the deficient columns to slightly above the bar; their
        # sums scale linearly in dc[j] at fixed row totals.  The boost is
        # clamped (per round and in absolute dc magnitude) so near-empty
        # columns cannot drive the factors to inf/NaN; a clamped column
        # lands below `level` and simply stays deficient.
        old_dc = np.maximum(dc[d], 1e-300)
        boost = np.minimum(level / np.maximum(colsum[d], 1e-300), _MAX_BOOST)
        dc[d] = np.minimum(old_dc * boost, _DC_CAP)
        colsum[d] *= dc[d] / old_dc
        touched_col_mask[d] = True

        # Rows whose totals moved: those adjacent to a boosted column.
        # Their totals and the downstream column sums are delta-tracked
        # (scatter-adds over the touched edges only) — re-gathering the
        # full edge sets of every affected column would cost a factor of
        # the average degree more per round.
        rows_d, d_ptr = _gather_segments(graph.col_ptr, graph.row_ind, d)
        row_delta = np.bincount(
            rows_d,
            weights=np.repeat(dc[d] - old_dc, np.diff(d_ptr)),
            minlength=graph.nrows,
        )
        touched = np.flatnonzero(row_delta)
        old_inv = inv_rowtot[touched].copy()
        rowtot[touched] += row_delta[touched]
        # NB: fancy indexing in `out=` would write into a temporary copy;
        # scatter the computed values explicitly.
        new_inv = _guarded_inverse(rowtot[touched])
        inv_rowtot[touched] = new_inv
        touched_row_mask[touched] = True

        # Column sums move by dc[j] * Δ(1/rowtot) summed over the
        # touched rows each column meets.
        cols_of_rows, sub_ptr = _gather_segments(
            graph.row_ptr, graph.col_ind, touched
        )
        colsum += np.bincount(
            cols_of_rows,
            weights=dc[cols_of_rows]
            * np.repeat(new_inv - old_inv, np.diff(sub_ptr)),
            minlength=graph.ncols,
        )
        touched_col_mask[cols_of_rows] = True
        deficient_idx = np.flatnonzero(nonempty & (colsum < alpha))
        rounds += 1

    # Delta tracking drifts by a few ulps per round; the certificate and
    # the carried state must be exact, so re-measure everything the loop
    # touched from the final factors in one pass.  When the boosts drove
    # the factors to a pathological spread (near-empty columns under
    # churn), renormalise ``dc`` to ``max == 1`` first — a global scaling
    # of ``dc`` leaves the pick probabilities untouched — and re-measure
    # everything from the bounded factors instead.
    if dc.size and float(dc.max()) > _DC_NORM:
        # The floor catches factors that underflow under the
        # normalisation; they carry no mass but must stay strictly
        # positive and inside the range warm-start consumers survive.
        dc = np.maximum(dc / dc.max(), 1e-150)
        rowtot, colsum = measure_state(graph, dc)
        inv_rowtot = _guarded_inverse(rowtot)
    else:
        t_rows = np.flatnonzero(touched_row_mask)
        if t_rows.size:
            cols_tr, ptr_tr = _gather_segments(
                graph.row_ptr, graph.col_ind, t_rows
            )
            new_tot = segment_sums(dc[cols_tr], ptr_tr)
            rowtot[t_rows] = new_tot
            inv_rowtot[t_rows] = _guarded_inverse(new_tot)
        t_cols = np.flatnonzero(touched_col_mask)
        if t_cols.size:
            _refresh_columns(graph, dc, rowtot, colsum, t_cols)
    current = min_column_sum(graph, colsum)
    dr = inv_rowtot.copy()
    # Empty and near-empty rows (floor-guarded to zero above) carry no
    # probability mass; give them the conventional factor 1 so the pair
    # stays strictly positive for warm-start consumers.
    dr[rowtot <= _ROWTOT_TINY] = 1.0

    if _tm.enabled():
        _tm.incr("stream.rebalance.runs")
        _tm.set_gauge("stream.rebalance.rounds", rounds)
        _tm.set_gauge("stream.rebalance.min_col_sum", current)

    # With dr = 1/rowtot the raw scaled column sums coincide with the
    # row-normalised probability sums already in `colsum`, so the
    # paper's scaling error is free too.
    error = (
        float(np.abs(colsum[nonempty] - 1.0).max()) if nonempty.any() else 0.0
    )
    scaling = ScalingResult(
        dr=dr,
        dc=dc,
        error=error,
        iterations=rounds,
        converged=current >= alpha,
        warm_started=True,
    )
    certified = min(
        one_sided_guarantee_relaxed(min(current, 1.0)), ONE_SIDED_GUARANTEE
    )
    quality = QualityScaling(
        scaling=scaling,
        min_column_sum=current,
        certified_quality=certified,
        target_met=current >= alpha,
    )
    return quality, (rowtot, colsum)
