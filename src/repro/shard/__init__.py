"""Sharded matching: partitioned scale→choice→KS with reconciliation.

The first leg of the "graphs bigger than one machine" north star: a
bipartite graph is partitioned into K deterministic range shards
(:mod:`repro.shard.partition`), each shard runs the full pipeline on its
rebased CSR/CSC slices — 2-D distributed Sinkhorn–Knopp
(:mod:`repro.shard.scale`), chunk-aligned choice sampling, BSP
Karp–Sipser reconciliation (:mod:`repro.shard.reconcile`) — and the
merged matching carries the same §3.3 certificate as the unsharded
path, re-proved on the global graph.

Two execution tiers behind one :class:`~repro.shard.partition.ShardPlan`:

* ``shard_match`` — in process: the shared SK loop over the shards'
  sweeps, then coroutine ranks on :mod:`repro.parallel.mpi_sim` for
  choices and reconciliation; bitwise equal to the serial vectorized
  pipeline for every shard count (the provable tier).
* ``shard_match_daemons`` — one journaled socket daemon per shard behind
  the :class:`~repro.serve.router.Router`; shard crashes recover through
  the write-ahead journal with zero acked-request loss (the scale tier).

See ``docs/sharding.md`` for the design and the guarantee argument.
"""

from .partition import (
    ShardPlan,
    ShardSlice,
    plan_for_budget,
    plan_shards,
    shard_slice,
)
from .pipeline import ShardMatchResult, shard_match
from .reconcile import ReconcileState, reconcile_serial
from .scale import shard_scale

__all__ = [
    "ShardPlan",
    "ShardSlice",
    "plan_shards",
    "shard_slice",
    "plan_for_budget",
    "ShardMatchResult",
    "shard_match",
    "shard_match_daemons",
    "ReconcileState",
    "reconcile_serial",
    "shard_scale",
]


def shard_match_daemons(*args, **kwargs):
    """Lazy alias for :func:`repro.shard.daemon_tier.shard_match_daemons`
    (imports the serving stack only when the daemon tier is used)."""
    from .daemon_tier import shard_match_daemons as _impl

    return _impl(*args, **kwargs)
