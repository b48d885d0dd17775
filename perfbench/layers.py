"""Which program functions the traced run wraps, and how spans become
per-layer metrics.

Each ``trace_*`` function patches one layer's public functions at the
names their callers look them up by.  A span's layer is its name unless
given; :class:`LayerSummary` turns the spans of the traced ops into
per-op means.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any

from spans import Tracer, self_times


class OpCounters:
    """Counters attributed to the op of the span current at count time."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.by_op: dict[int | None, Counter] = defaultdict(Counter)

    def add(self, name: str, value: float = 1, op: int | None = None) -> None:
        if op is None:
            sp = self.tracer.current()
            op = None if sp is None else sp.op
        self.by_op[op][name] += value


def trace_core(tr: Tracer, ctr: OpCounters) -> None:
    """SK, choice sampling and KarpSipserMT as ``two_sided_match`` calls them."""
    import repro.core.twosided as ts

    def sk_result(sp, out, args, kwargs):
        graph = args[0]
        ctr.add("scaling.sweeps", out.iterations)
        ctr.add("scaling.edges_touched", 2 * graph.nnz * out.iterations)

    def ks_result(sp, out, args, kwargs):
        if isinstance(out, tuple):
            stats = out[1]
            ctr.add("ks.phase1_pairs", stats.phase1_pairs)
            ctr.add("ks.phase2_pairs", stats.phase2_pairs)
            ctr.add("ks.longest_chain", stats.longest_chain)

    tr.patch(ts, "scale_sinkhorn_knopp", "scaling.sk", on_result=sk_result)
    tr.patch(ts, "scaled_row_choices", "core.choice.rows", layer="core.choice")
    tr.patch(ts, "scaled_col_choices", "core.choice.cols", layer="core.choice")
    for engine in ("karp_sipser_mt", "karp_sipser_mt_vectorized"):
        tr.patch(ts, engine, f"core.ks.{engine}", layer="core.ks",
                 on_result=ks_result)


def trace_resilience(tr: Tracer) -> None:
    """``ResilientBackend`` chunk maps; the kernel work inside a map is
    credited to the layer that called the backend, the rest is the
    wrapper's own time."""
    from repro.resilience.resilient import ResilientBackend

    def make(original):
        def _map_ranges(self, fn, parts):
            outer = tr.current()
            layer = "resilience.inner" if outer is None else outer.layer

            def inner(lo, hi):
                with tr.span("resilience.inner", layer=layer):
                    return fn(lo, hi)

            with tr.span("resilience.wrapper"):
                return original(self, inner, parts)
        return _map_ranges

    tr.replace(ResilientBackend, "_map_ranges", make)


def trace_serve(tr: Tracer, ctr: OpCounters, rid_spans: dict[str, Any]) -> None:
    """Socket framing, dispatcher, server admission/queue/compute, journal.

    *rid_spans* maps a request's ``rid`` to the client span that sent it,
    which is how the connection thread finds its parent.
    """
    import repro.core.twosided as ts
    import repro.serve.daemon as daemon
    import repro.serve.journal as journal
    import repro.serve.net as net
    import repro.serve.server as server

    def frame_bytes(sp, out, args, kwargs):
        cur = tr.current()
        direction = "reply" if cur is not None and cur.name == "serve.net.send" else "request"
        ctr.add(f"net.{direction}_bytes", len(out))

    tr.patch(net, "encode_frame", None, on_result=frame_bytes)
    tr.patch(net.ResilientClient, "_roundtrip_once", None,
             on_call=lambda *a, **k: ctr.add("net.attempts"))
    tr.patch(net.ResilientClient, "_dial", None,
             on_call=lambda *a, **k: ctr.add("net.dials"))
    tr.patch(daemon, "build_graph", None,
             on_call=lambda *a, **k: ctr.add("daemon.graph_lookups"))
    tr.patch(daemon.GraphCache, "__setitem__", None,
             on_call=lambda *a, **k: ctr.add("daemon.graph_misses"))

    def handle(original):
        def wrapper(self, msg):
            parent = rid_spans.get(msg.get("rid")) if isinstance(msg, dict) else None
            with tr.adopt(parent), tr.span("serve.daemon.handle"):
                return original(self, msg)
        return wrapper

    def send(original):
        def wrapper(self, conn, response):
            parent = rid_spans.get(response.get("id"))
            with tr.adopt(parent), tr.span("serve.net.send", layer="serve.net.client"):
                return original(self, conn, response)
        return wrapper

    # Hand-off from the dispatcher thread to a server worker thread.
    tickets: dict[int, tuple[Any, Any, float]] = {}

    def submit_async(original):
        def wrapper(self, request):
            ticket = original(self, request)
            tickets[id(ticket)] = (ticket, tr.current(), time.perf_counter())
            return ticket
        return wrapper

    def handle_ticket(original):
        def wrapper(self, ticket):
            _, parent, t_enq = tickets.pop(id(ticket), (None, None, None))
            if parent is not None:
                tr.interval("serve.server.queue_wait", t_enq, time.perf_counter(), parent)
            with tr.adopt(parent), tr.span("serve.server.worker",
                                           layer="serve.server.submit"):
                return original(self, ticket)
        return wrapper

    tr.replace(daemon.Dispatcher, "handle", handle)
    tr.replace(net.SocketServer, "_send_response", send)
    tr.replace(server.MatchingServer, "submit_async", submit_async)
    tr.replace(server.MatchingServer, "_handle", handle_ticket)
    tr.patch(server.MatchingServer, "submit", "serve.server.submit")
    tr.patch(server.MatchingServer, "_run_rung", "serve.server.compute")
    # The server's rung thread imports it by name at call time.
    tr.patch(ts, "two_sided_match", "core.twosided")

    def journal_bytes(sp, out, args, kwargs):
        ctr.add("journal.bytes", len(out))
        ctr.add("journal.records")

    tr.patch(journal, "encode_record", None, on_result=journal_bytes)
    tr.patch(journal.DurableLog, "append", "serve.journal.append")


def trace_stream(tr: Tracer) -> None:
    """Dynamic-graph edits and the incremental rematch pipeline."""
    import repro.serve.daemon as daemon
    import repro.stream.matcher as matcher
    import repro.stream.rescale as rescale

    tr.patch(daemon._StreamRegistry, "update", "stream.update")
    tr.patch(daemon._StreamRegistry, "rematch", "stream.registry_rematch",
             layer="serve.daemon.handle")
    tr.patch(matcher.StreamMatcher, "rematch", "stream.rematch")
    tr.patch(rescale, "local_rebalance", "stream.rebalance")
    tr.patch(matcher, "scale_for_quality", "stream.scale_fallback")
    tr.patch(matcher, "karp_sipser_mt_vectorized", "stream.ks")


def trace_shard(tr: Tracer) -> None:
    """The pieces of ``shard_match`` looked up in ``repro.shard.pipeline``."""
    import repro.shard.pipeline as pipeline

    tr.patch(pipeline, "plan_shards", "shard.plan")
    tr.patch(pipeline, "generate_draws", "shard.draws")
    tr.patch(pipeline, "run_ranks", "shard.ranks")


class LayerSummary:
    """Per-op self/inclusive times and counters over a set of traced ops."""

    def __init__(self, tracer: Tracer, ctr: OpCounters, ops: list[int]) -> None:
        self.ops = ops
        wanted = set(ops)
        spans = [sp for sp in tracer.spans if sp.op in wanted]
        selfs = self_times(spans)
        self.layer_self: dict[int, Counter] = defaultdict(Counter)
        self.inclusive: dict[int, Counter] = defaultdict(Counter)
        self.root_self: dict[int, float] = {}
        self.root_wall: dict[int, float] = {}
        for sp in spans:
            self.layer_self[sp.op][sp.layer] += selfs[sp.sid]
            self.inclusive[sp.op][sp.name] += sp.dur
            if sp.sid == sp.op:
                self.root_self[sp.op] = selfs[sp.sid]
                self.root_wall[sp.op] = sp.dur
        self.counts = {op: ctr.by_op.get(op, Counter()) for op in ops}

    def _mean(self, values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def self_ms(self, layer: str) -> float:
        return 1e3 * self._mean([self.layer_self[op][layer] for op in self.ops])

    def incl_ms(self, name: str) -> float:
        return 1e3 * self._mean([self.inclusive[op][name] for op in self.ops])

    def count(self, name: str) -> float:
        return self._mean([self.counts[op][name] for op in self.ops])

    def ratio(self, num: str, den: str) -> float:
        n = sum(self.counts[op][num] for op in self.ops)
        d = sum(self.counts[op][den] for op in self.ops)
        return n / d if d else 0.0

    def unattributed_ms(self) -> float:
        return 1e3 * self._mean([self.root_self.get(op, 0.0) for op in self.ops])

    def per_op_lines(self) -> list[str]:
        return [
            f"  op {op}: wall {1e3 * self.root_wall.get(op, 0.0):.3f} ms,"
            f" unattributed {1e3 * self.root_self.get(op, 0.0):.3f} ms"
            for op in self.ops
        ]


#: Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = [
    ("graph.build_s", "s"), ("graph.nnz", "count"),
    ("scaling.sk_ms", "ms"), ("scaling.sweeps", "count"),
    ("scaling.edges_touched", "count"),
    ("core.choice.sample_ms", "ms"),
    ("core.karp_sipser_mt.ks_ms", "ms"),
    ("core.karp_sipser_mt.phase1_pairs", "count"),
    ("core.karp_sipser_mt.phase2_pairs", "count"),
    ("core.karp_sipser_mt.longest_chain", "count"),
    ("core.twosided.unattributed_ms", "ms"),
    ("resilience.wrapper_ms", "ms"),
    ("serve.server.submit_ms", "ms"), ("serve.server.queue_wait_ms", "ms"),
    ("serve.server.compute_ms", "ms"), ("serve.server.degraded_ratio", "ratio"),
    ("serve.daemon.handle_ms", "ms"),
    ("serve.daemon.graph_cache_hit_ratio", "ratio"),
    ("serve.net.wire_ms", "ms"), ("serve.net.bytes_per_op", "bytes"),
    ("serve.net.client_retries", "count"), ("serve.net.reconnects", "count"),
    ("loadgen.lag_p99_ms", "ms"), ("serve.backlog_max", "count"),
    ("serve.journal.append_ms", "ms"),
    ("serve.journal.bytes_per_record", "bytes"),
    ("serve.journal.records", "count"),
    ("stream.update_ms", "ms"), ("stream.rematch_ms", "ms"),
    ("stream.rebalance_ms", "ms"), ("stream.scale_fallback_ms", "ms"),
    ("stream.ks_ms", "ms"), ("stream.incremental_ratio", "ratio"),
    ("stream.resampled_rows", "count"), ("stream.repaired_rows", "count"),
    ("shard.plan_ms", "ms"), ("shard.scale_ms", "ms"), ("shard.rest_ms", "ms"),
    ("shard.rounds", "count"), ("shard.boundary_edges", "count"),
    ("shard.vs_unsharded_ratio", "ratio"),
    ("warnings.runtime", "count"), ("warnings.convergence", "count"),
    ("op.unattributed_ms", "ms"), ("trace.overhead_ratio", "ratio"),
]


def common_layers(s: LayerSummary) -> dict[str, float]:
    """The layer metrics every workload derives the same way from spans.

    Client connections are dialled during set-up, so any dial inside a
    traced op is a reconnect.
    """
    return {
        "scaling.sk_ms": s.self_ms("scaling.sk"),
        "scaling.sweeps": s.count("scaling.sweeps"),
        "scaling.edges_touched": s.count("scaling.edges_touched"),
        "core.choice.sample_ms": s.self_ms("core.choice"),
        "core.karp_sipser_mt.ks_ms": s.self_ms("core.ks"),
        "core.karp_sipser_mt.phase1_pairs": s.count("ks.phase1_pairs"),
        "core.karp_sipser_mt.phase2_pairs": s.count("ks.phase2_pairs"),
        "core.karp_sipser_mt.longest_chain": s.count("ks.longest_chain"),
        "core.twosided.unattributed_ms": s.self_ms("core.twosided"),
        "resilience.wrapper_ms": s.self_ms("resilience.wrapper"),
        "serve.server.submit_ms": s.incl_ms("serve.server.submit"),
        "serve.server.queue_wait_ms": s.incl_ms("serve.server.queue_wait"),
        "serve.server.compute_ms": s.incl_ms("serve.server.compute"),
        "serve.daemon.handle_ms": s.self_ms("serve.daemon.handle"),
        "serve.daemon.graph_cache_hit_ratio": (
            1.0 - s.ratio("daemon.graph_misses", "daemon.graph_lookups")
            if any(s.counts[op]["daemon.graph_lookups"] for op in s.ops) else 0.0
        ),
        "serve.net.wire_ms": s.self_ms("serve.net.client"),
        "serve.net.bytes_per_op": s.count("net.request_bytes") + s.count("net.reply_bytes"),
        "serve.journal.append_ms": s.self_ms("serve.journal.append"),
        "serve.journal.bytes_per_record": s.ratio("journal.bytes", "journal.records"),
        "serve.journal.records": s.count("journal.records"),
        "stream.update_ms": s.self_ms("stream.update"),
        "stream.rematch_ms": s.incl_ms("stream.rematch"),
        "stream.rebalance_ms": s.incl_ms("stream.rebalance"),
        "stream.scale_fallback_ms": s.incl_ms("stream.scale_fallback"),
        "stream.ks_ms": s.incl_ms("stream.ks"),
        "shard.plan_ms": s.incl_ms("shard.plan"),
        "serve.net.client_retries": s.count("net.attempts") - s.count("net.requests"),
        "serve.net.reconnects": s.count("net.dials"),
        "op.unattributed_ms": s.unattributed_ms(),
    }
