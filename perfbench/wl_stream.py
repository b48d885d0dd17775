"""``stream-churn-120k``: journaled stream writes through the socket daemon.

Stream sessions on one keepalive connection, in a closed loop, with a
``DurableLog`` attached (fsync on).  The base graph is the family of
``repro.stream.bench.run_churn``: a union of permutations at n=120k
(total support) plus 6n uniform random edges, target quality 0.6.  The
benchmark writes it to an ``.npz`` file that ``stream_open`` loads, so
set-up sends no edge lists over the socket.  Each epoch removes 1% of
the current edges and adds as many uniform random ones (``update``),
then calls ``rematch``.  The run makes ``EPOCHS_PER_SECOND * seconds``
timed epochs, at most ``SESSION_EPOCHS`` per session; each session opens
afresh on the base graph, and its first epoch warms it up untimed.
The benchmark keeps its own copy of the edge set to choose the edits and
to check every returned matching.
"""

from __future__ import annotations

import os
import time

import numpy as np

from harness import STATE_DIR, Run, check_matching, peak_rss_mb, reference_validate
from layers import LayerSummary, OpCounters, common_layers, trace_serve, trace_stream
from spans import Tracer
from stack import Stack

N = 120_000
#: Permutations in the base graph.  ``run_churn`` uses 2, but uniform
#: removals erode that graph's support: on half of the seeds tried, the
#: 0.6 target stopped being certifiable (by a cold rematch too) within
#: 35 epochs, and every later epoch then spent ~20 s in 200 fallback
#: sweeps.  With 3, none of the 30 seeds tried lost it within 48 to 90
#: epochs; a 10 s run makes 51.
BASE_K = 3
EXTRA_DEGREE = 6.0
TARGET = 0.6
CHURN = 0.01
SETUPS = 3
#: Timed epochs per second of ``--seconds``: a run makes a fixed number
#: of epochs (~190 ms each on a 2-CPU Xeon VM), not as many as fit in the
#: window, because the daemon's idempotency cache keeps every rematch
#: reply with its full matching (~4 MB of Python ints at n=120k, up to
#: 1024 replies), so memory grows with each epoch.  In a time window a
#: faster rematch would run more epochs and so raise peak_rss_mb.
EPOCHS_PER_SECOND = 5
#: Timed epochs per stream session.  Uniform churn turns the base graph
#: into a random one, which sooner or later leaves a vertex with no edge;
#: then no scaling certifies the target and the program rightly declares
#: the capped 0.393.  On 2 of 10 seeds (104 and 106) that happened at the
#: 51st and 43rd epoch of one session (at seed 106: 4 empty rows, and a
#: cold rematch declared 0.393 too), so each session makes one untimed
#: epoch and at most 25 timed ones, and the next starts afresh from the
#: base graph.
SESSION_EPOCHS = 25
#: Journal records between checkpoints, set so that no checkpoint lands
#: in a run.  At the daemon's default of 64 the one checkpoint a run could
#: hold (a full snapshot, ~2 s at this size) falls at about the 30th
#: epoch, so whether a run reached it would swing ops_per_s.
CHECKPOINT_EVERY = 4096


class EdgeSet:
    """Sorted ``row * N + col`` keys: the benchmark's copy of the graph."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.add(rows, cols)

    def add(self, rows, cols) -> None:
        k = np.sort(np.asarray(rows, dtype=np.int64) * N + np.asarray(cols, dtype=np.int64))
        if k.size:
            k = k[np.r_[True, k[1:] != k[:-1]]]
        if self.keys.size:
            pos = np.minimum(np.searchsorted(self.keys, k), self.keys.size - 1)
            k = k[self.keys[pos] != k]
        self.keys = np.insert(self.keys, np.searchsorted(self.keys, k), k)

    def copy(self) -> "EdgeSet":
        other = EdgeSet.__new__(EdgeSet)
        other.keys = self.keys.copy()
        return other

    def remove(self, idx: np.ndarray) -> None:
        self.keys = np.delete(self.keys, idx)

    def graph(self):
        from repro.graph.csr import BipartiteGraph

        rows = self.keys // N
        ptr = np.zeros(N + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=N), out=ptr[1:])
        return BipartiteGraph(N, N, ptr, self.keys % N)


def _inputs(seed: int):
    """The graph's edge set, written where the daemon can load it, and
    the generator that picks the edits, both from the seed."""
    from repro.graph.generators import sprand, union_of_permutations
    from repro.graph.io import save_npz

    rng = np.random.default_rng([seed, 11])
    base = union_of_permutations(N, BASE_K, seed=int(rng.integers(2**31)))
    extra = sprand(N, EXTRA_DEGREE, seed=rng)
    edges = EdgeSet(base.row_of_edge(), base.col_ind)
    edges.add(extra.row_of_edge(), extra.col_ind)
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"stream-{os.getpid()}.npz")
    save_npz(edges.graph(), path)
    return edges, path, rng


def run(seed: int, seconds: float, trace: bool) -> Run:
    from repro.errors import ReproError

    out = Run("stream-churn-120k", seed)
    build_s: list[float] = []

    def open_session(cli, path: str, tag: str) -> str:
        """Open a stream on the graph at *path* and run its cold rematch."""
        handle = cli.request({"op": "stream_open", "graph": {"path": path},
                              "target_quality": TARGET, "seed": seed,
                              "rid": f"open{tag}"})["handle"]
        cold = cli.request({"op": "rematch", "handle": handle, "rid": f"cold{tag}"})
        if cold["guarantee"] < TARGET:
            out.fail(f"cold rematch {tag} guarantee {cold['guarantee']} below {TARGET}")
        return handle

    def set_up():
        """Make the inputs, start the stack and open the first session;
        time it."""
        t0 = time.perf_counter()
        edges, path, rng = _inputs(seed)
        build_s.append(time.perf_counter() - t0)
        stack = Stack("stream", checkpoint_every=CHECKPOINT_EVERY)
        cli = stack.client(0)
        handle = open_session(cli, path, "0")
        out.setup_s.append(time.perf_counter() - t0)
        return edges, path, rng, stack, cli, handle

    edges, path, rng, stack, cli, handle = set_up()
    base = edges.copy()
    try:
        out.inputs = {"n": N, "base_permutations": BASE_K,
                      "extra_degree": EXTRA_DEGREE, "target_quality": TARGET,
                      "churn": CHURN, "nnz": int(edges.keys.size),
                      "journal_fsync": True, "checkpoint_every": CHECKPOINT_EVERY,
                      "session_epochs": SESSION_EPOCHS}
        # Server side: the dynamic graph's two key arrays, its CSR + CSC
        # snapshot, and the matcher's factors, choices and matching.
        nnz = edges.keys.size
        out.working_set_bytes = int(2 * 8 * nnz + 2 * 8 * (nnz + N) + 8 * 8 * N)

        tracer = Tracer()
        ctr = OpCounters(tracer)
        rid_spans: dict = {}
        lat = {False: [], True: []}
        traced_ops: list[int] = []
        modes: list[str] = []
        resampled: list[int] = []
        repaired: list[int] = []
        epochs = max(2, int(round(EPOCHS_PER_SECOND * seconds)))
        # The traced run traces the second half of the timed epochs.
        traced_from = epochs // 2 if trace else epochs
        done = 0  # timed epochs so far
        e = 0  # every epoch, for request ids and counts
        session = 0
        stopped = installed = False
        while done < epochs and not stopped:
            if session:
                cli.request({"op": "stream_close", "handle": handle,
                             "rid": f"close{session}"})
                handle = open_session(cli, path, str(session))
                edges = base.copy()
            # The session's first epoch warms it up: checked and
            # counted, not timed.
            for j in range(1 + min(SESSION_EPOCHS, epochs - done)):
                timed = j > 0
                traced = timed and done >= traced_from
                if traced and not installed:
                    installed = True
                    tracer.install()
                    trace_serve(tracer, ctr, rid_spans)
                    trace_stream(tracer)
                m = max(1, int(round(CHURN * edges.keys.size)))
                victims = rng.choice(edges.keys.size, size=m, replace=False)
                gone = edges.keys[victims]
                add_rows = rng.integers(0, N, size=m)
                add_cols = rng.integers(0, N, size=m)
                update = {"op": "update", "handle": handle, "rid": f"u{e}",
                          "remove": {"rows": (gone // N).tolist(), "cols": (gone % N).tolist()},
                          "add": {"rows": add_rows.tolist(), "cols": add_cols.tolist()}}
                rematch = {"op": "rematch", "handle": handle, "rid": f"r{e}",
                           "include_matching": True}
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracer.span("op", layer="client") as root:
                            for msg in (update, rematch):
                                with tracer.span("serve.net.client") as cs:
                                    rid_spans[msg["rid"]] = cs
                                    ctr.add("net.requests")
                                    reply = cli.request(msg)
                                if msg is update:
                                    upd = reply
                        traced_ops.append(root.op)
                    else:
                        upd = cli.request(update)
                        reply = cli.request(rematch)
                except ReproError as exc:
                    out.failed += 1
                    out.fail(f"epoch {e}: {type(exc).__name__}: {exc}")
                    stopped = True
                    break
                took = time.perf_counter() - t0
                if timed:
                    done += 1
                    out.window_s += took
                    out.latencies.append(took)
                    lat[traced].append(took)

                edges.remove(victims)
                edges.add(add_rows, add_cols)
                rm = np.asarray(reply["row_match"], dtype=np.int64)
                problem = check_matching(rm, edges.keys, N, N)
                if problem is None and e == 0:
                    problem = reference_validate(rm, edges.graph())
                if problem is None and upd["nnz"] != edges.keys.size:
                    problem = f"server holds {upd['nnz']} edges, copy {edges.keys.size}"
                if problem is None and reply["guarantee"] < TARGET:
                    problem = f"guarantee {reply['guarantee']} below target {TARGET}"
                if problem is not None:
                    out.failed += 1
                    out.fail(f"epoch {e}: {problem}")
                out.match_ratios.append(reply["cardinality"] / N)
                count = {key: int(reply[key]) for key in (
                    "cardinality", "resampled_rows", "resampled_cols",
                    "repaired_rows", "repaired_cols")}
                if traced:
                    modes.append(reply["mode"])
                    resampled.append(reply["resampled_rows"])
                    repaired.append(reply["repaired_rows"])
                    c = ctr.by_op[root.op]
                    count.update(journal_bytes=int(c["journal.bytes"]),
                                 frame_bytes=int(c["net.request_bytes"] + c["net.reply_bytes"]))
                out.counts.append(count)
                e += 1
            session += 1
    finally:
        tracer.uninstall()
        stack.close()
        os.remove(path)
    out.peak_rss_mb = peak_rss_mb()
    for _ in range(SETUPS - 1):
        _, again_path, _, again_stack, _, _ = set_up()
        again_stack.close()
        os.remove(again_path)

    if trace:
        s = LayerSummary(tracer, ctr, traced_ops)
        layers = common_layers(s)
        n_traced = len(traced_ops)
        layers.update({
            "graph.build_s": float(np.median(build_s)),
            "graph.nnz": float(out.inputs["nnz"]),
            "stream.incremental_ratio": modes.count("incremental") / max(n_traced, 1),
            "stream.resampled_rows": float(np.mean(resampled)),
            "stream.repaired_rows": float(np.mean(repaired)),
            "trace.overhead_ratio": float(np.median(lat[True]) / np.median(lat[False])),
        })
        out.per_layer = layers
        out.op_lines = s.per_op_lines()
        out.tracer = tracer
    return out
