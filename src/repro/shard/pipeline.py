"""The sharded matching pipeline: scale → choice → reconcile → certify.

In-process execution tier: 2-D sharded Sinkhorn–Knopp
(:func:`~repro.shard.scale.shard_scale`, the shared SK loop over the
shards' sweeps), then one :mod:`repro.parallel.mpi_sim` coroutine rank
per shard for the rest — shard-local choice sampling on the registered
``choice_scaled`` kernel (chunk-aligned, so picks are bitwise equal to
the serial kernel), BSP Karp–Sipser reconciliation
(:mod:`repro.shard.reconcile`), then a distributed leg of the §3.3
certificate: every shard checks its owned rows' matched edges against its
own CSR slice, and the coordinator re-proves validity and the guarantee
on the *global* graph.

The result is bitwise equal to the unsharded
``two_sided_match(engine="vectorized")`` path for every shard count —
same scaling vectors, same choices, same merged matching — which is the
subsystem's differential test anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry as _tm
from .._typing import NIL, FloatArray, IndexArray, SeedLike, rng_from
from ..core.onesided import _rung_guarantee
from ..constants import TWO_SIDED_GUARANTEE
from ..errors import MatchingError
from ..graph.csr import BipartiteGraph
from ..matching.matching import Matching
from ..parallel.kernels import kernel_chunk_override, run_kernel
from ..parallel.mpi_sim import SimComm, run_ranks
from ..scaling.result import ScalingResult
from .partition import ShardPlan, ShardSlice, plan_shards
from .reconcile import ReconcileState, reconcile_rounds
from .scale import shard_scale

__all__ = [
    "ShardMatchResult",
    "shard_match",
    "generate_draws",
    "shard_row_choices",
    "shard_col_choices",
    "shard_validate_rows",
]


def generate_draws(
    graph: BipartiteGraph, seed: SeedLike
) -> tuple[FloatArray | None, FloatArray | None]:
    """The serial path's choice randomness, drawn in the serial order.

    ``None`` marks an axis the serial ``_scaled_choices`` would answer
    with all-:data:`~repro._typing.NIL` *without consuming the rng* —
    replicating that early return keeps the rng stream, and therefore
    every downstream draw, identical to the unsharded run.
    """
    rng = rng_from(seed)
    draws_rows = draws_cols = None
    if graph.nnz != 0 and graph.nrows != 0:
        draws_rows = 1.0 - rng.random(graph.nrows)
    if graph.nnz != 0 and graph.ncols != 0:
        draws_cols = 1.0 - rng.random(graph.ncols)
    return draws_rows, draws_cols


def _slice_choices(
    n_local: int,
    lo: int,
    hi: int,
    ptr: IndexArray,
    ind: IndexArray,
    opp: FloatArray,
    draws: FloatArray | None,
    chunk: int,
) -> IndexArray:
    if draws is None:
        return np.full(n_local, NIL, dtype=np.int64)
    out = np.empty(n_local, dtype=np.int64)
    # The choice kernel's cumsum is chunk-local; forcing the coordinator's
    # chunk makes the rebased slice's grid the global grid shifted by the
    # (chunk-aligned) slice start — identical picks, bit for bit.
    with kernel_chunk_override(chunk):
        run_kernel(
            "choice_scaled", n_local,
            {
                "ptr": ptr, "ind": ind, "opp": opp,
                "draws": draws[lo:hi], "out": out,
            },
        )
    return out


def shard_row_choices(
    shard: ShardSlice, dc_full: FloatArray, draws_rows: FloatArray | None
) -> IndexArray:
    """Owned-row block of the serial scaled row choices (global draws)."""
    return _slice_choices(
        shard.n_local_rows, shard.row_lo, shard.row_hi,
        shard.row_ptr, shard.col_ind, dc_full, draws_rows, shard.chunk_rows,
    )


def shard_col_choices(
    shard: ShardSlice, dr_full: FloatArray, draws_cols: FloatArray | None
) -> IndexArray:
    """Owned-column block of the serial scaled column choices."""
    return _slice_choices(
        shard.n_local_cols, shard.col_lo, shard.col_hi,
        shard.col_ptr, shard.row_ind, dr_full, draws_cols, shard.chunk_cols,
    )


def shard_validate_rows(shard: ShardSlice, match: IndexArray) -> int:
    """Matched owned rows whose matched edge is NOT in this shard's CSR
    slice — the distributed leg of the certificate.  Must be 0."""
    bad = 0
    for i_local in range(shard.n_local_rows):
        partner = match[shard.row_lo + i_local]
        if partner == NIL:
            continue
        j = partner - shard.nrows
        a, b = int(shard.row_ptr[i_local]), int(shard.row_ptr[i_local + 1])
        pos = int(np.searchsorted(shard.col_ind[a:b], j))
        if pos >= b - a or shard.col_ind[a + pos] != j:
            bad += 1
    return bad


@dataclass(frozen=True)
class ShardMatchResult:
    """Outcome of a sharded run, mirroring ``TwoSidedResult``'s surface."""

    matching: Matching
    scaling: ScalingResult
    row_choice: IndexArray
    col_choice: IndexArray
    n_shards: int
    rounds: int
    tier: str
    plan: ShardPlan

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality

    @property
    def guarantee(self) -> float:
        """The §3.3 expected-quality floor, by the scaling's ladder rung —
        identical to the unsharded ``TwoSidedResult.guarantee``."""
        return _rung_guarantee(self.scaling, TWO_SIDED_GUARANTEE)


def _pipeline_program(comm: SimComm, arg):
    shard, dr, dc, draws_rows, draws_cols = arg
    rc_blocks = yield from comm.allgather(
        shard_row_choices(shard, dc, draws_rows)
    )
    row_choice = np.concatenate(rc_blocks)
    cc_blocks = yield from comm.allgather(
        shard_col_choices(shard, dr, draws_cols)
    )
    col_choice = np.concatenate(cc_blocks)
    state = ReconcileState.from_choices(row_choice, col_choice)
    ranges = [
        (shard.row_lo, shard.row_hi),
        (shard.nrows + shard.col_lo, shard.nrows + shard.col_hi),
    ]
    yield from reconcile_rounds(comm, state, ranges)
    bad = yield from comm.allreduce(
        shard_validate_rows(shard, state.match), op="sum"
    )
    if comm.rank != 0:
        return {"bad": bad}
    return {
        "bad": bad,
        "row_choice": row_choice,
        "col_choice": col_choice,
        "state": state,
    }


def shard_match(
    graph: BipartiteGraph,
    n_shards: int = 2,
    iterations: int | None = 5,
    *,
    seed: SeedLike = None,
    tolerance: float | None = None,
    initial=None,
    validate: bool = True,
    plan: ShardPlan | None = None,
) -> ShardMatchResult:
    """Sharded TwoSidedMatch on the in-process tier.

    Bitwise equal to the unsharded serial pipeline for any *n_shards*;
    with ``validate=True`` (default) the merged matching is re-validated
    against the global graph before the result is returned, on top of
    the per-shard owned-row edge checks that always run.
    """
    if plan is None:
        plan = plan_shards(graph, n_shards)
    with _tm.span(
        "shard.match",
        n_shards=plan.n_shards, nrows=graph.nrows, ncols=graph.ncols,
        nnz=graph.nnz, boundary=plan.boundary_edges,
    ) as sp:
        scaling = shard_scale(
            graph, iterations, tolerance=tolerance, initial=initial, plan=plan
        )
        draws_rows, draws_cols = generate_draws(graph, seed)
        results = run_ranks(
            _pipeline_program,
            [
                (s, scaling.dr, scaling.dc, draws_rows, draws_cols)
                for s in plan.shards
            ],
        )
        head = results[0]
        if head["bad"]:
            raise MatchingError(
                f"sharded reconcile produced {head['bad']} matched edge(s)"
                f" absent from their owning shard's CSR slice"
            )
        state: ReconcileState = head["state"]
        matching = state.result()
        if validate:
            matching.validate(graph)
        sp.set(
            cardinality=matching.cardinality, rounds=state.rounds,
            error=scaling.error, rung=scaling.rung,
        )
    return ShardMatchResult(
        matching=matching,
        scaling=scaling,
        row_choice=head["row_choice"],
        col_choice=head["col_choice"],
        n_shards=plan.n_shards,
        rounds=state.rounds,
        tier="sim",
        plan=plan,
    )
