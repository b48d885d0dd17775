"""``lib-sprand-1m``: the library ``two_sided_match`` at the paper's scale.

One process, no server: ``two_sided_match`` with default arguments on
``sprand(n=1_000_000, d=4)``, each call with its own seed.  SK, choice
sampling and the default KarpSipserMT engine do the work; graph
generation is set-up.  The first call warms the process up and is not
timed; every call is checked as soon as it returns.
"""

from __future__ import annotations

import time

import numpy as np

from harness import (
    Run, Window, check_matching, edge_keys, graph_digest, peak_rss_mb,
    reference_validate, timed,
)
from layers import LayerSummary, OpCounters, common_layers, trace_core
from spans import Tracer

N = 1_000_000
DEGREE = 4
SETUPS = 3
#: Allowed shortfall of a call's matched fraction below Conjecture 1's
#: 0.866 (observed ~0.877 at this size, spread ~3e-4).
EPS = 0.005


def op_seed(seed: int, k: int) -> int:
    return 1_000_003 * seed + k


def run(seed: int, seconds: float, trace: bool) -> Run:
    from repro.constants import TWO_SIDED_GUARANTEE
    from repro.graph.generators import sprand
    import repro.core.twosided as ts

    out = Run("lib-sprand-1m", seed)
    took, graph = timed(lambda: sprand(N, DEGREE, seed=seed))
    out.setup_s.append(took)
    out.inputs = {"n": N, "degree": DEGREE, "nnz": graph.nnz, "graph_seed": seed}
    # CSR + CSC index arrays, plus per call dr, dc (float64), two choice
    # arrays and the matching (int64).
    out.working_set_bytes = int(
        graph.row_ptr.nbytes + graph.col_ind.nbytes + graph.col_ptr.nbytes
        + graph.row_ind.nbytes + 2 * 8 * N + 2 * 8 * N + 2 * 8 * N
    )
    keys = edge_keys(graph)

    def check(k: int, res) -> None:
        """Check call *k* as soon as it returns; keep only its counts."""
        out.attempted += 1
        rm = res.matching.row_match
        problem = check_matching(rm, keys, N, N)
        if problem is None and k == 0:
            problem = reference_validate(rm, graph)
        ratio = res.cardinality / N
        if problem is None and ratio < TWO_SIDED_GUARANTEE - EPS:
            problem = f"matched {ratio:.4f} of n, below {TWO_SIDED_GUARANTEE:.4f} - {EPS}"
        if problem is not None:
            out.failed += 1
            out.fail(f"op {k}: {problem}")
        out.match_ratios.append(ratio)
        sweeps, st = res.scaling.iterations, res.ks_stats
        out.counts.append({
            "cardinality": int(res.cardinality),
            "sweeps": int(sweeps),
            "edges_touched": int(2 * graph.nnz * sweeps),
            "phase1_pairs": -1 if st is None else int(st.phase1_pairs),
            "phase2_pairs": -1 if st is None else int(st.phase2_pairs),
            "longest_chain": -1 if st is None else int(st.longest_chain),
        })

    # Call 0 warms the process up: checked and counted, not timed.
    first = ts.two_sided_match(graph, seed=op_seed(seed, 0))
    check(0, first)
    first_match = first.matching.row_match
    del first

    tracer = Tracer()
    ctr = OpCounters(tracer)
    traced_ops: list[int] = []
    lat = {False: [], True: []}
    phases = [(seconds, False)] if not trace else [(seconds / 2, False), (seconds / 2, True)]
    k = 1
    for span_s, traced in phases:
        if traced:
            tracer.install()
            trace_core(tracer, ctr)
        window = Window(span_s)
        while window.running():
            s = op_seed(seed, k)
            if traced:
                t0 = time.perf_counter()
                with tracer.span("core.twosided") as root:
                    res = ts.two_sided_match(graph, seed=s)
                traced_ops.append(root.op)
            else:
                t0 = time.perf_counter()
                res = ts.two_sided_match(graph, seed=s)
            took = time.perf_counter() - t0
            window.add(took)
            lat[traced].append(took)
            out.latencies.append(took)
            check(k, res)
            del res
            k += 1
        out.window_s += window.busy
        if traced:
            tracer.uninstall()
    out.peak_rss_mb = peak_rss_mb()

    digest = graph_digest(graph)
    for _ in range(SETUPS - 1):
        took, again = timed(lambda: sprand(N, DEGREE, seed=seed))
        out.setup_s.append(took)
        if graph_digest(again) != digest:
            out.fail("sprand gave different graphs for one seed")
        del again

    if trace:
        # The first call again at its seed: the same matching and counts.
        again = ts.two_sided_match(graph, seed=op_seed(seed, 0))
        if not np.array_equal(again.matching.row_match, first_match):
            out.fail("op 0 replayed at its seed gave another matching")
        s = LayerSummary(tracer, ctr, traced_ops)
        layers = common_layers(s)
        layers.update({
            "graph.build_s": float(np.median(out.setup_s)),
            "graph.nnz": float(graph.nnz),
            "trace.overhead_ratio": float(np.median(lat[True]) / np.median(lat[False])),
        })
        out.per_layer = layers
        out.op_lines = s.per_op_lines()
        out.tracer = tracer
    return out
