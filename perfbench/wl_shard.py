"""``shard-k4-120k``: ``shard_match`` on the in-process tier.

``shard_match(g, 4, seed=s)`` on ``sprand(n=120_000, d=4)``: partition,
2-D distributed SK over ``mpi_sim`` and BSP reconcile.  The sharded
pipeline is specified to be bitwise equal to
``two_sided_match(g, seed=s, engine="vectorized")``, which is the oracle
every call is checked against as soon as it returns.  The first call
warms the process up and is not timed.
"""

from __future__ import annotations

import time

import numpy as np

from harness import (
    Run, Window, check_matching, edge_keys, graph_digest, peak_rss_mb,
    reference_validate, timed,
)
from layers import LayerSummary, OpCounters, common_layers, trace_shard
from spans import Tracer

N = 120_000
DEGREE = 4
SHARDS = 4
ITERATIONS = 5
SETUPS = 3


def op_seed(seed: int, k: int) -> int:
    return 1_000_003 * seed + k


def run(seed: int, seconds: float, trace: bool) -> Run:
    from repro.core.twosided import two_sided_match
    from repro.graph.generators import sprand
    from repro.shard import shard_match, shard_scale

    out = Run("shard-k4-120k", seed)
    took, graph = timed(lambda: sprand(N, DEGREE, seed=seed))
    out.setup_s.append(took)
    out.inputs = {"n": N, "degree": DEGREE, "nnz": graph.nnz, "shards": SHARDS,
                  "graph_seed": seed}
    # The global CSR + CSC, each shard's rebased slices (about one more
    # copy), and per call dr, dc, choices and the matching.
    csr_csc = graph.row_ptr.nbytes + graph.col_ind.nbytes + graph.col_ptr.nbytes \
        + graph.row_ind.nbytes
    out.working_set_bytes = int(2 * csr_csc + 6 * 8 * N)

    keys = edge_keys(graph)
    ratios: list[float] = []

    def check(k: int, took: float, res) -> None:
        """Check call *k* against the oracle as soon as it returns."""
        out.attempted += 1
        rm = res.matching.row_match
        oracle_s, oracle = timed(lambda: two_sided_match(
            graph, ITERATIONS, seed=op_seed(seed, k), engine="vectorized"))
        ratios.append(took / oracle_s)
        problem = check_matching(rm, keys, N, N)
        if problem is None and k == 0:
            problem = reference_validate(rm, graph)
        if problem is None and not (
            np.array_equal(rm, oracle.matching.row_match)
            and np.array_equal(res.scaling.dr, oracle.scaling.dr)
            and np.array_equal(res.scaling.dc, oracle.scaling.dc)
        ):
            problem = "differs from two_sided_match(engine='vectorized') at its seed"
        if problem is not None:
            out.failed += 1
            out.fail(f"op {k}: {problem}")
        out.match_ratios.append(res.cardinality / N)
        out.counts.append({
            "cardinality": int(res.cardinality),
            "rounds": int(res.rounds),
            "boundary_edges": int(res.plan.boundary_edges),
        })

    # Call 0 warms the process up: checked and counted, not timed.
    took, res = timed(lambda: shard_match(graph, SHARDS, ITERATIONS, seed=op_seed(seed, 0)))
    check(0, took, res)
    del res

    tracer = Tracer()
    ctr = OpCounters(tracer)
    traced_ops: list[int] = []
    scale_ms: dict[int, float] = {}
    lat = {False: [], True: []}
    phases = [(seconds, False)] if not trace else [(seconds / 2, False), (seconds / 2, True)]
    k = 1
    for span_s, traced in phases:
        window = Window(span_s)
        while window.running():
            s = op_seed(seed, k)
            if traced:
                tracer.install()
                trace_shard(tracer)
                t0 = time.perf_counter()
                with tracer.span("shard.match") as root:
                    res = shard_match(graph, SHARDS, ITERATIONS, seed=s)
                took = time.perf_counter() - t0
                tracer.uninstall()
                traced_ops.append(root.op)
                # SK alone on the same plan, outside the op.
                scale_ms[root.op] = 1e3 * timed(lambda: shard_scale(
                    graph, ITERATIONS, n_shards=SHARDS, plan=res.plan))[0]
            else:
                t0 = time.perf_counter()
                res = shard_match(graph, SHARDS, ITERATIONS, seed=s)
                took = time.perf_counter() - t0
            window.add(took)
            out.latencies.append(took)
            lat[traced].append(took)
            check(k, took, res)
            del res
            k += 1
        out.window_s += window.busy
    out.peak_rss_mb = peak_rss_mb()

    digest = graph_digest(graph)
    for _ in range(SETUPS - 1):
        took, again = timed(lambda: sprand(N, DEGREE, seed=seed))
        out.setup_s.append(took)
        if graph_digest(again) != digest:
            out.fail("sprand gave different graphs for one seed")
        del again

    if trace:
        s = LayerSummary(tracer, ctr, traced_ops)
        layers = common_layers(s)
        rest = [1e3 * took - 1e3 * s.inclusive[op]["shard.plan"] - scale_ms[op]
                for op, took in zip(traced_ops, lat[True])]
        traced_counts = out.counts[-len(traced_ops):]
        layers.update({
            "graph.build_s": float(np.median(out.setup_s)),
            "graph.nnz": float(graph.nnz),
            "shard.scale_ms": float(np.mean(list(scale_ms.values()))),
            "shard.rest_ms": float(np.mean(rest)),
            "shard.rounds": float(np.mean([c["rounds"] for c in traced_counts])),
            "shard.boundary_edges": float(np.mean([c["boundary_edges"] for c in traced_counts])),
            "shard.vs_unsharded_ratio": float(np.median(ratios)),
            "trace.overhead_ratio": float(np.median(lat[True]) / np.median(lat[False])),
        })
        out.per_layer = layers
        out.op_lines = s.per_op_lines()
        out.tracer = tracer
    return out
