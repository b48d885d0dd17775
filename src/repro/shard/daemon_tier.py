"""Daemon execution tier: one journaled socket daemon per shard.

The coordinator runs the in-process tier's program step for step — the
same budget and the same shared SK loop
(:func:`~repro.shard.scale.sharded_sk`), the same choice/commit order,
the same shard-ordered concatenations — but each shard's kernel steps
run inside a serving daemon behind the
:class:`~repro.serve.router.Router`, reached through ``shard_*`` verbs.

Why the result is still bitwise equal to the sim tier (and therefore to
the serial pipeline):

* the daemons run the *same* :class:`~repro.shard.scale.ShardScaleLocal`
  and :class:`~repro.shard.reconcile.ReconcileState` code the coroutine
  ranks run — the tiers differ only in transport;
* JSON float round-trips are exact (shortest-repr), so vectors shipped
  over the wire come back bit for bit;
* the coordinator concatenates per-shard blocks in shard order, which is
  the same merge the ``allgather`` pattern performs.

Crash safety: ``shard_open`` / ``shard_arm`` / ``shard_commit`` /
``shard_finish`` are write-ahead journaled; ``shard_sweep`` /
``shard_choices`` / ``shard_scan`` are pure.  A shard daemon SIGKILLed
mid-round is revived by the router through ``--recover`` (journal replay
rebuilds the armed state and every committed round), and the in-flight
request retries under its original idempotency id — so the merged
matching equals the uninterrupted run's, or the failure surfaces as a
typed error.  Never a silently sub-quality matching.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import telemetry as _tm
from .._typing import SeedLike
from ..errors import MatchingError, ShardError
from ..graph.csr import BipartiteGraph
from ..core.karp_sipser_mt import matching_from_unified
from ..scaling.result import ScalingResult
from ..scaling.sinkhorn_knopp import (
    finish_scaling,
    initial_factors,
    resolve_budget,
)
from .partition import ShardPlan, plan_shards
from .pipeline import ShardMatchResult, generate_draws, shard_validate_rows
from .scale import sharded_sk

__all__ = ["shard_match_daemons"]


class _ShardHandles:
    """K namespaced shard handles plus typed request plumbing."""

    def __init__(self, router: Any, plan: ShardPlan, spec: Any) -> None:
        self.router = router
        self.plan = plan
        self.handles: list[str] = []
        for k in range(plan.n_shards):
            response = router.request(
                {
                    "op": "shard_open",
                    "graph": spec,
                    "n_shards": plan.n_shards,
                    "index": k,
                    "chunk_rows": plan.chunk_rows,
                    "chunk_cols": plan.chunk_cols,
                }
            )
            s = plan.shards[k]
            if (
                response["frontier"] != s.frontier_size
                or response["csr_nnz"] != s.csr_nnz
            ):
                raise ShardError(
                    f"shard {k} daemon built a different slice than the"
                    f" coordinator's plan: {response}"
                )
            self.handles.append(response["handle"])

    def call(self, k: int, op: str, **fields: Any) -> dict[str, Any]:
        return self.router.request(
            {"op": op, "handle": self.handles[k], **fields}
        )

    def close(self) -> None:
        for handle in self.handles:
            self.router.request({"op": "shard_close", "handle": handle})


class _RemoteSweeps:
    """Shard *k*'s :class:`~repro.shard.scale.ShardScaleLocal` steps,
    run inside its daemon through ``shard_sweep`` requests."""

    def __init__(self, shards: _ShardHandles, k: int) -> None:
        self.shards = shards
        self.k = k

    def col_sweep(
        self, dr_full: np.ndarray, dc_own: np.ndarray
    ) -> tuple[np.ndarray, float]:
        r = self.shards.call(
            self.k, "shard_sweep", which="col",
            dr=dr_full.tolist(), dc=dc_own.tolist(),
        )
        return np.asarray(r["dc_next"], dtype=np.float64), r["err"]

    def row_sweep(self, dc_full: np.ndarray) -> np.ndarray:
        r = self.shards.call(
            self.k, "shard_sweep", which="row", dc=dc_full.tolist()
        )
        return np.asarray(r["dr"], dtype=np.float64)

    def uniform_col_error(self) -> float:
        return self.shards.call(self.k, "shard_sweep", which="uniform")["err"]


def shard_match_daemons(
    spec: Any,
    n_shards: int = 2,
    iterations: int | None = 5,
    *,
    router: Any,
    seed: SeedLike = None,
    tolerance: float | None = None,
    validate: bool = True,
    graph: BipartiteGraph | None = None,
) -> ShardMatchResult:
    """Sharded TwoSidedMatch over *router*'s daemon fleet.

    *spec* is a daemon graph spec (see :func:`repro.serve.daemon.build_graph`)
    so every shard daemon can materialize the same graph independently;
    the coordinator builds it too (pass *graph* to reuse an existing
    build) for the plan, the draws, and the final global certificate.
    """
    from ..serve.daemon import build_graph

    if graph is None:
        graph = build_graph(spec, None)
    plan = plan_shards(graph, n_shards)
    budget = resolve_budget(graph, iterations, tolerance)
    dr, dc, warm = initial_factors(graph, None)
    draws_rows, draws_cols = generate_draws(graph, seed)
    with _tm.span(
        "shard.match_daemons",
        n_shards=plan.n_shards, nrows=graph.nrows, ncols=graph.ncols,
        nnz=graph.nnz, boundary=plan.boundary_edges,
    ) as sp:
        shards = _ShardHandles(router, plan, spec)
        try:
            remote = [_RemoteSweeps(shards, k) for k in range(plan.n_shards)]
            run = sharded_sk(plan, remote, dr, dc, budget.limit, tolerance)
            scaling = finish_scaling(run, budget, tolerance, warm)
            result = _match(
                shards, plan, graph, scaling, draws_rows, draws_cols, validate
            )
        finally:
            shards.close()
        sp.set(
            cardinality=result.matching.cardinality,
            rounds=result.rounds,
            error=result.scaling.error,
            rung=result.scaling.rung,
        )
    return result


def _match(
    shards: _ShardHandles,
    plan: ShardPlan,
    graph: BipartiteGraph,
    scaling: ScalingResult,
    draws_rows: np.ndarray | None,
    draws_cols: np.ndarray | None,
    validate: bool,
) -> ShardMatchResult:
    """Choices, reconcile rounds and the global certificate for a
    finished sharded scaling."""
    K = plan.n_shards
    dr, dc = scaling.dr, scaling.dc

    # -- choices --------------------------------------------------------
    def gather_choices(which: str, opp: np.ndarray, draws) -> np.ndarray:
        blocks = []
        for k in range(K):
            s = plan.shards[k]
            lo, hi = (
                (s.row_lo, s.row_hi) if which == "row" else (s.col_lo, s.col_hi)
            )
            r = shards.call(
                k, "shard_choices", which=which, opp=opp.tolist(),
                draws=None if draws is None else draws[lo:hi].tolist(),
            )
            blocks.append(np.asarray(r["choice"], dtype=np.int64))
        return np.concatenate(blocks)

    row_choice = gather_choices("row", dc, draws_rows)
    col_choice = gather_choices("col", dr, draws_cols)

    # -- reconcile rounds ----------------------------------------------
    for k in range(K):
        shards.call(
            k, "shard_arm",
            row_choice=row_choice.tolist(), col_choice=col_choice.tolist(),
        )
    rounds = 0
    while True:
        scans = [shards.call(k, "shard_scan") for k in range(K)]
        # Rows of every shard in shard order, then columns — the same
        # axis-major merge the sim tier's allgather concatenation does,
        # which is the serial ascending scan order.
        merged = [v for r in scans for v in r["rows"]] + [
            v for r in scans for v in r["cols"]
        ]
        committed = None
        for k in range(K):
            r = shards.call(k, "shard_commit", candidates=merged)
            if committed is None:
                committed = r["committed"]
                rounds = r["rounds"]
            elif r["committed"] != committed:
                raise ShardError(
                    f"shard {k} diverged from shard 0 on commit round"
                    f" {rounds}: replicated state is no longer replicated"
                )
        if not committed:
            break

    # -- finish + global certificate ------------------------------------
    finishes = [shards.call(k, "shard_finish") for k in range(K)]
    checksums = {f["checksum"] for f in finishes}
    if len(checksums) != 1:
        raise ShardError(
            f"shard daemons finished with diverging match checksums:"
            f" {sorted(checksums)}"
        )
    match = np.asarray(finishes[0]["match"], dtype=np.int64)
    rounds = int(finishes[0]["rounds"])
    bad = sum(
        shard_validate_rows(plan.shards[k], match) for k in range(K)
    )
    if bad:
        raise MatchingError(
            f"sharded reconcile produced {bad} matched edge(s) absent"
            f" from their owning shard's CSR slice"
        )
    matching = matching_from_unified(match, graph.nrows, graph.ncols)
    if validate:
        matching.validate(graph)
    return ShardMatchResult(
        matching=matching,
        scaling=scaling,
        row_choice=row_choice,
        col_choice=col_choice,
        n_shards=K,
        rounds=rounds,
        tier="daemon",
        plan=plan,
    )
