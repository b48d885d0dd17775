"""``serve-read-800``: ``match`` requests through the socket daemon stack.

An open loop: seeded arrivals at a fixed offered rate, sent over one
keepalive ``ResilientClient`` connection from the benchmark's main
thread to an in-process ``SocketServer`` → ``Dispatcher`` →
``MatchingServer``.  Requests draw from a pool of 16 ``sprand n=800 d=4``
specs, so after the warm-up every request hits the daemon's graph cache.
Two seconds of paced requests before the window warm the stack up; they
are checked but not timed.  Latency is timed from when each request was
due, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import time

import numpy as np

from harness import (
    Run, check_matching, edge_keys, eprint, peak_rss_mb, percentile,
    reference_validate, timed,
)
from layers import (
    LayerSummary, OpCounters, common_layers, trace_core, trace_resilience,
    trace_serve,
)
from spans import Tracer
from stack import Stack

N = 800
DEGREE = 4.0
POOL = 16
#: Offered load in requests per second: about a quarter of what one
#: keepalive connection sustains in a closed loop (~210 req/s on a 2-CPU
#: Xeon VM).  At 80 req/s over two connections, queueing amplified the
#: host's slow spells: p90 varied by 0.41 of its median over ten runs.
RATE = 50.0
SETUPS = 5
#: Paced requests before the timed window, checked but not timed: the
#: first seconds of a run were ~20% slower than the rest.
WARMUP_S = 2.0


def specs(seed: int) -> list[dict]:
    return [
        {"kind": "sprand", "n": N, "degree": DEGREE, "seed": 1000 * seed + i}
        for i in range(POOL)
    ]


def schedule(seed: int, seconds: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival offsets, spec picks and request seeds of the open loop.

    Poisson arrivals conditioned on their count: exactly ``RATE *
    seconds`` of them, spread over the window as sorted uniform draws,
    so the offered load is the same at every seed.
    """
    rng = np.random.default_rng([seed, 7])
    count = int(round(RATE * seconds))
    gaps = rng.exponential(1.0, size=count + 1)
    at = np.cumsum(gaps)[:-1] * (seconds / gaps.sum())
    picks = rng.integers(0, POOL, size=count)
    seeds = rng.integers(0, 2**31 - 1, size=count)
    return at, picks, seeds


class Load:
    """One open-loop pass over a slice of the schedule."""

    def __init__(self, cli, pool, at, picks, seeds, tag: str,
                 tracer: Tracer | None = None, ctr: OpCounters | None = None,
                 rid_spans: dict | None = None) -> None:
        from repro.errors import ReproError

        self.picks = picks
        self.tag = tag
        self.records: list = [None] * at.size
        self.ops: list = [None] * at.size
        self.t0 = time.perf_counter() + 0.02
        for i in range(at.size):
            due = self.t0 + at[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            rid = f"{tag}{i}"
            msg = {"op": "match", "graph": pool[picks[i]],
                   "seed": int(seeds[i]), "rid": rid}
            send = time.perf_counter()
            resp = err = None
            try:
                if tracer is None:
                    resp = cli.request(msg)
                else:
                    with tracer.span("op", layer="loadgen", t0=due) as root:
                        tracer.interval("loadgen.lag", due, send, root)
                        with tracer.span("serve.net.client") as cs:
                            rid_spans[rid] = cs
                            ctr.add("net.requests")
                            resp = cli.request(msg)
                    self.ops[i] = root.op
            except ReproError as exc:
                err = exc
            self.records[i] = (due, send, time.perf_counter(), resp, err)
        self.window = max(r[2] for r in self.records) - self.t0 if self.records else 0.0


def run(seed: int, seconds: float, trace: bool) -> Run:
    from repro.graph.generators import sprand

    out = Run("serve-read-800", seed)
    pool = specs(seed)
    build_s, graphs = timed(
        lambda: [sprand(s["n"], s["degree"], seed=s["seed"]) for s in pool]
    )
    keys = [edge_keys(g) for g in graphs]
    at, picks, seeds = schedule(seed, seconds)
    out.inputs = {"n": N, "degree": DEGREE, "pool": POOL, "connections": 1,
                  "offered_rate": RATE, "requests": int(at.size)}
    # The daemon's cached graphs (CSR + CSC) plus one request's arrays.
    out.working_set_bytes = int(
        sum(g.row_ptr.nbytes + g.col_ind.nbytes + g.col_ptr.nbytes
            + g.row_ind.nbytes for g in graphs) + 6 * 8 * N
    )

    def set_up(k: int):
        """Start the stack and fill its graph cache; time it."""
        t0 = time.perf_counter()
        stack = Stack("serve")
        cli = stack.client(0)
        for w, spec in enumerate(pool + pool):
            cli.request({"op": "match", "graph": spec, "seed": w, "rid": f"w{k}-{w}"})
        out.setup_s.append(time.perf_counter() - t0)
        return stack, cli

    stack, cli = set_up(0)

    tracer = Tracer()
    ctr = OpCounters(tracer)
    rid_spans: dict = {}
    # (load, traced, timed)
    loads: list[tuple[Load, bool, bool]] = []
    try:
        w_at, w_picks, w_seeds = schedule(seed + 1_000_003, WARMUP_S)
        loads.append((Load(cli, pool, w_at, w_picks, w_seeds, "warm"), False, False))
        if not trace:
            loads.append((Load(cli, pool, at, picks, seeds, "m"), False, True))
        else:
            half = int(np.searchsorted(at, seconds / 2))
            loads.append((Load(cli, pool, at[:half], picks[:half], seeds[:half], "m"),
                          False, True))
            tracer.install()
            trace_core(tracer, ctr)
            trace_resilience(tracer)
            trace_serve(tracer, ctr, rid_spans)
            try:
                loads.append((Load(cli, pool, at[half:] - at[half], picks[half:],
                                   seeds[half:], "t", tracer, ctr, rid_spans), True, True))
            finally:
                tracer.uninstall()
    finally:
        stack.close()
    out.peak_rss_mb = peak_rss_mb()
    for k in range(1, SETUPS):
        set_up(k)[0].close()

    lat = {False: [], True: []}
    lags: list[float] = []
    events: list[tuple[float, int]] = []
    degraded = completed = 0
    refused: list[str] = []
    for load, traced, timed_load in loads:
        if timed_load:
            out.window_s += load.window
        for i, (due, send, done, resp, err) in enumerate(load.records):
            out.attempted += 1
            rid = f"{load.tag}{i}"
            if timed_load:
                lags.append(send - due)
                events += [(due, 1), (done, -1)]
            gi = load.picks[i]
            if err is not None:
                # A typed refusal (overload, deadline) is a failed op, not
                # an incorrect output: it lowers ok_ratio only.
                out.failed += 1
                refused.append(f"request {rid}: {type(err).__name__}: {err}")
                continue
            rm = np.asarray(resp["row_match"], dtype=np.int64)
            problem = check_matching(rm, keys[gi], N, N) or reference_validate(rm, graphs[gi])
            if problem is None and int(np.count_nonzero(rm >= 0)) != resp["cardinality"]:
                problem = "reported cardinality differs from the matching"
            if problem is not None:
                out.failed += 1
                out.fail(f"request {rid}: {problem}")
                continue
            out.match_ratios.append(resp["cardinality"] / N)
            if timed_load:
                completed += 1
                degraded += bool(resp["degraded"])
                out.latencies.append(done - due)
                lat[traced].append(done - due)
    if refused:
        eprint(f"perfbench: {len(refused)} requests refused, first: {refused[0]}")

    if trace:
        traced_load = loads[-1][0]
        ops = [op for op in traced_load.ops if op is not None]
        s = LayerSummary(tracer, ctr, ops)
        # One entry per traced request, so a refused one (no op) keeps
        # the later requests at their indices.
        out.counts = [{} if op is None else
                      {"request_bytes": int(s.counts[op]["net.request_bytes"])}
                      for op in traced_load.ops]
        backlog = depth = 0
        for _, step in sorted(events):
            depth += step
            backlog = max(backlog, depth)
        layers = common_layers(s)
        layers.update({
            "graph.build_s": build_s,
            "graph.nnz": float(np.mean([g.nnz for g in graphs])),
            "serve.server.degraded_ratio": degraded / completed if completed else 0.0,
            "loadgen.lag_p99_ms": 1e3 * percentile(lags, 99.0),
            "serve.backlog_max": float(backlog),
            "trace.overhead_ratio": float(np.median(lat[True]) / np.median(lat[False])),
        })
        out.per_layer = layers
        out.op_lines = s.per_op_lines()
        out.tracer = tracer
    return out
