"""2-D sharded Sinkhorn–Knopp: row *and* column ownership per shard.

A 1-D row-block split would rebuild column sums with a reassociated
reduction that agrees with serial SK to rtol only.  Here each shard owns
a contiguous row range and a contiguous column range
(:class:`~repro.shard.partition.ShardSlice`) and runs the registered
``sk_sweep``/``sk_sweep_err`` kernels on its *rebased* CSC/CSR slices
against replicated opposite-side vectors.  Per column (and per row) the
arithmetic is then literally the serial kernel's — same gather, same
``segment_sums``, same reciprocal — so the concatenated global vectors
are bitwise equal to
:func:`repro.scaling.sinkhorn_knopp.scale_sinkhorn_knopp` for every
shard count, and the convergence error (a max, which is
association-free) matches exactly as well.

The iteration itself is the unsharded one: a coordinator runs the shared
loop (:func:`~repro.scaling.sinkhorn_knopp.sk_iterate`) over the shards'
sweeps (:func:`sharded_sk`).  The per-shard kernel steps live in
:class:`ShardScaleLocal`, which the in-process tier calls directly and
the daemon tier (:mod:`repro.shard.daemon_tier`) calls inside each shard
daemon through ``shard_sweep`` — the tiers can only differ in transport,
not arithmetic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import telemetry as _tm
from .._typing import FloatArray
from ..graph.csr import BipartiteGraph
from ..parallel.kernels import run_kernel
from ..scaling.result import ScalingResult
from ..scaling.sinkhorn_knopp import (
    SKRun,
    finish_scaling,
    initial_factors,
    resolve_budget,
    sk_iterate,
)
from .partition import ShardPlan, ShardSlice, plan_shards

__all__ = ["ShardScaleLocal", "shard_scale", "sharded_sk"]


class ShardScaleLocal:
    """One shard's kernel-level SK steps, shared by both execution tiers."""

    def __init__(self, shard: ShardSlice) -> None:
        self.shard = shard

    def col_sweep(
        self, dr_full: FloatArray, dc_own: FloatArray
    ) -> tuple[FloatArray, float]:
        """The shard-local piece of the serial fused column pass: the next
        owned-column factors and the local max column-sum error of the
        *current* ``(dr, dc)``.  Row ids in the CSC slice are global, so
        ``dr_full`` is the whole replicated vector; ``dc_own`` is this
        shard's block."""
        s = self.shard
        n_local = s.n_local_cols
        dc_next = np.empty(n_local, dtype=np.float64)
        errs = run_kernel(
            "sk_sweep_err", n_local,
            {
                "ptr": s.col_ptr, "ind": s.row_ind,
                "opp": dr_full, "mine": dc_own, "out": dc_next,
            },
        )
        # np.max propagates NaN, which the non-finite fallback relies on.
        return dc_next, (float(np.max(errs)) if errs else 0.0)

    def row_sweep(self, dc_full: FloatArray) -> FloatArray:
        """Next owned-row factors for the committed global ``dc``."""
        s = self.shard
        n_local = s.n_local_rows
        dr_own = np.empty(n_local, dtype=np.float64)
        run_kernel(
            "sk_sweep", n_local,
            {"ptr": s.row_ptr, "ind": s.col_ind, "opp": dc_full, "out": dr_own},
        )
        return dr_own

    def uniform_col_error(self) -> float:
        """Owned-column piece of ``column_sum_error(graph, ones, ones)`` —
        what the serial non-finite fallback reports.  A column of degree
        ``d`` sums ``d`` ones exactly, so ``|float(d) - 1|`` reproduces the
        serial ``segment_sums`` result bit for bit."""
        deg = np.diff(self.shard.col_ptr)
        nonempty = deg > 0
        if not nonempty.any():
            return 0.0
        return float(np.abs(deg[nonempty].astype(np.float64) - 1.0).max())


def sharded_sk(
    plan: ShardPlan,
    shards: Sequence[ShardScaleLocal],
    dr: FloatArray,
    dc: FloatArray,
    limit: int,
    tolerance: float | None,
) -> SKRun:
    """The shared SK loop (:func:`~repro.scaling.sinkhorn_knopp.sk_iterate`)
    driven over K shards' sweeps.

    *shards* are one object per shard with :class:`ShardScaleLocal`'s
    three methods — the local objects themselves, or the daemon tier's
    ``shard_sweep`` stubs.  Each column pass sends the replicated ``dr``
    and each shard's owned ``dc`` block, takes the NaN-propagating max of
    the per-shard errors and concatenates the owned blocks in shard
    order; each row pass concatenates the owned ``dr`` blocks.  A max is
    association-free and a concatenation is pure data movement, so the
    result is bitwise the unsharded loop's.
    """

    def col_sweep(dr: FloatArray, dc: FloatArray) -> tuple[float, FloatArray]:
        blocks, errs = [], []
        for s, shard in zip(plan.shards, shards):
            block, err = shard.col_sweep(dr, dc[s.col_lo : s.col_hi])
            blocks.append(block)
            errs.append(err)
        return float(np.max(errs)), np.concatenate(blocks)

    def row_sweep(dc: FloatArray) -> FloatArray:
        return np.concatenate([shard.row_sweep(dc) for shard in shards])

    def uniform_error() -> float:
        return float(np.max([shard.uniform_col_error() for shard in shards]))

    return sk_iterate(
        col_sweep, row_sweep, uniform_error, dr, dc, limit,
        tolerance=tolerance,
    )


def shard_scale(
    graph: BipartiteGraph,
    iterations: int | None = None,
    *,
    n_shards: int = 2,
    tolerance: float | None = None,
    max_iterations: int = 1000,
    initial=None,
    degradation: bool = True,
    capped_iterations: int = 25,
    support_check_cutoff: int = 10_000,
    plan: ShardPlan | None = None,
) -> ScalingResult:
    """Sharded SK, bitwise equal to
    :func:`~repro.scaling.sinkhorn_knopp.scale_sinkhorn_knopp` (modulo
    ``history``, which the sharded path does not track)."""
    if plan is None:
        plan = plan_shards(graph, n_shards)
    budget = resolve_budget(
        graph,
        iterations,
        tolerance,
        max_iterations=max_iterations,
        degradation=degradation,
        capped_iterations=capped_iterations,
        support_check_cutoff=support_check_cutoff,
    )
    dr0, dc0, warm = initial_factors(graph, initial)
    with _tm.span(
        "shard.scale",
        n_shards=plan.n_shards, nrows=graph.nrows, ncols=graph.ncols,
    ) as sp:
        run = sharded_sk(
            plan, [ShardScaleLocal(s) for s in plan.shards],
            dr0, dc0, budget.limit, tolerance,
        )
        result = finish_scaling(run, budget, tolerance, warm)
        sp.set(
            iterations=run.iterations, error=run.error,
            converged=run.converged, rung=result.rung,
        )
    return result
