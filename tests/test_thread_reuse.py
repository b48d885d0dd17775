"""Reusable supervised threads: warm calls start no threads, abandoned
jobs never write late, lifecycle and context propagation.

The ``ResilientBackend`` tests are marked ``chaos`` and the
``MatchingServer`` tests ``serve``, so the CI smoke jobs for both run
them.
"""

from __future__ import annotations

import contextvars
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.twosided import two_sided_match
from repro.graph.generators import sprand
from repro.parallel import get_backend, kernel_chunk_override
from repro.resilience import (
    Deadline,
    FaultPlan,
    FaultSpec,
    ResilientBackend,
    injected_faults,
)
from repro.resilience.threads import SupervisedThreads
from repro.scaling import scale_sinkhorn_knopp
from repro.serve import MatchingServer, MatchRequest, ServerConfig

WARM = 2
N_CALLS = 5

_probe: contextvars.ContextVar[str] = contextvars.ContextVar(
    "thread_reuse_probe", default="unset"
)


@pytest.fixture(scope="module")
def graph():
    return sprand(800, 4, seed=3)


@pytest.fixture
def thread_starts(monkeypatch):
    """Count ``threading.Thread.start`` calls made from now on."""
    starts: list[str] = []
    original = threading.Thread.start

    def counting_start(thread: threading.Thread) -> None:
        starts.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return starts


def _count_chunks(be: ResilientBackend) -> list[int]:
    """Record the chunk count of every map *be* runs from now on."""
    maps: list[int] = []
    inner_map = be._map_ranges

    def counting_map(fn, parts):
        maps.append(len(parts))
        return inner_map(fn, parts)

    be._map_ranges = counting_map
    return maps


def _grow_to_peak(be: ResilientBackend, chunks: int) -> None:
    """Run a *chunks*-chunk map whose attempts all wait for each other,
    so the set holds as many threads as any map of that width needs —
    otherwise how many threads a warm-up leaves depends on timing."""
    barrier = threading.Barrier(chunks)

    def meet(lo: int, hi: int) -> int:
        barrier.wait(10.0)
        return hi

    be.map_chunks(meet, [(i, i + 1) for i in range(chunks)])


def _identity(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi)


def _assert_same_matching(a, b) -> None:
    np.testing.assert_array_equal(a.matching.row_match, b.matching.row_match)
    np.testing.assert_array_equal(a.matching.col_match, b.matching.col_match)


# -- warm requests start no threads ------------------------------------


@pytest.mark.chaos
def test_warm_serial_calls_start_no_threads(graph, thread_starts):
    be = ResilientBackend("serial")
    try:
        for seed in range(WARM):
            two_sided_match(graph, seed=seed, backend=be)
        thread_starts.clear()
        for seed in range(N_CALLS):
            out = two_sided_match(graph, seed=seed, backend=be)
            _assert_same_matching(out, two_sided_match(graph, seed=seed))
        assert thread_starts == []
    finally:
        be.close()


@pytest.mark.chaos
def test_warm_multi_chunk_calls_start_no_threads(graph, thread_starts):
    be = ResilientBackend("serial")
    maps = _count_chunks(be)
    try:
        with kernel_chunk_override(64):
            for seed in range(WARM):
                two_sided_match(graph, seed=seed, backend=be)
            _grow_to_peak(be, max(maps))
            thread_starts.clear()
            for seed in range(N_CALLS):
                out = two_sided_match(graph, seed=seed, backend=be)
                _assert_same_matching(
                    out, two_sided_match(graph, seed=seed)
                )
        assert max(maps) > 1  # the grid really has several chunks
        assert thread_starts == []
    finally:
        be.close()


@pytest.mark.chaos
def test_warm_resilient_shm_calls_start_no_threads(graph, thread_starts):
    be = get_backend("resilient:shm")
    maps = _count_chunks(be)
    try:
        for seed in range(WARM):
            two_sided_match(graph, seed=seed, backend=be)
        _grow_to_peak(be, max(maps))
        thread_starts.clear()
        for seed in range(N_CALLS):
            two_sided_match(graph, seed=seed, backend=be)
        assert thread_starts == []
    finally:
        be.close()


@pytest.mark.serve
def test_warm_server_requests_start_no_threads(graph, thread_starts):
    server = MatchingServer(None, config=ServerConfig(n_workers=1))
    try:
        for seed in range(WARM):
            server.submit(MatchRequest(graph, seed=seed), timeout=30.0)
        thread_starts.clear()
        for seed in range(N_CALLS):
            response = server.submit(
                MatchRequest(graph, seed=seed), timeout=30.0
            )
            assert response.rung == "two_sided"
        assert thread_starts == []
    finally:
        server.drain()


# -- abandonment -------------------------------------------------------


@pytest.mark.chaos
def test_abandoned_stalled_attempt_never_writes_late():
    # Regression: a hang-stalled attempt, abandoned at its deadline,
    # woke up after the retry had succeeded and ran its Sinkhorn-Knopp
    # half-sweep into the factor array the result had already returned.
    g = sprand(2000, 4, seed=1)
    clean = scale_sinkhorn_knopp(g, 5)
    be = ResilientBackend("serial", deadline=0.1)
    plan = FaultPlan([FaultSpec("hang", seconds=0.4, max_hits=1, call=0)])
    try:
        with injected_faults(plan):
            res = scale_sinkhorn_knopp(g, 5, backend=be)
        np.testing.assert_array_equal(res.dc, clean.dc)
        time.sleep(0.6)  # the stalled attempt has woken up by now
        np.testing.assert_array_equal(res.dc, clean.dc)
        np.testing.assert_array_equal(res.dr, clean.dr)
    finally:
        be.close()


@pytest.mark.chaos
def test_retry_avoids_the_stuck_thread_until_it_returns(monkeypatch):
    import repro.resilience.faults as faults

    attempts: list[tuple[threading.Thread, bool]] = []
    original = faults.execute_with_fault

    def recording(spec, fn, lo, hi, *, in_child=False):
        attempts.append((threading.current_thread(), spec is not None))
        return original(spec, fn, lo, hi, in_child=in_child)

    monkeypatch.setattr(faults, "execute_with_fault", recording)
    plan = FaultPlan([FaultSpec("hang", seconds=0.5, max_hits=1, call=0)])
    be = ResilientBackend("serial", deadline=0.1, backoff=0.01)
    try:
        with injected_faults(plan):
            out = be.map_ranges(_identity, 6)
            np.testing.assert_array_equal(out[0], np.arange(6))
            for _ in range(5):
                be.map_ranges(_identity, 6)
        [stuck] = [t for t, faulted in attempts if faulted]
        others = [t for t, faulted in attempts if not faulted]
        assert len(others) == 6  # the retry, then five clean maps
        assert stuck.is_alive()
        assert stuck not in others
        assert stuck not in be._threads.idle_threads()
        deadline = time.monotonic() + 5.0
        while stuck not in be._threads.idle_threads():
            assert time.monotonic() < deadline, "stuck thread never rejoined"
            time.sleep(0.01)
    finally:
        be.close()


@pytest.mark.chaos
def test_running_kernel_abandoned_finishes_before_its_thread_is_reused():
    release = threading.Event()
    ran_on: list[threading.Thread] = []
    stuck: list[threading.Thread] = []

    def kernel(lo: int, hi: int) -> np.ndarray:
        if not stuck:
            stuck.append(threading.current_thread())
            release.wait(10.0)  # hangs inside the kernel: cannot stop
        else:
            ran_on.append(threading.current_thread())
        return np.arange(lo, hi)

    be = ResilientBackend("serial", deadline=0.1, backoff=0.01)
    try:
        out = be.map_ranges(kernel, 6)
        np.testing.assert_array_equal(out[0], np.arange(6))
        for _ in range(5):
            be.map_ranges(kernel, 6)
        assert stuck[0].is_alive()
        assert stuck[0] not in ran_on
        release.set()
        deadline = time.monotonic() + 5.0
        while stuck[0] not in be._threads.idle_threads():
            assert time.monotonic() < deadline, "stuck thread never rejoined"
            time.sleep(0.01)
    finally:
        release.set()
        be.close()


@pytest.mark.chaos
def test_pending_job_abandoned_before_begin_never_runs():
    threads = SupervisedThreads("test")
    entered = threading.Event()
    proceed = threading.Event()
    after_begin: list[int] = []

    def job(begin):
        entered.set()
        proceed.wait(5.0)  # stall before begin, like an injected hang
        begin()
        after_begin.append(1)

    try:
        handle = threads.submit(job)
        assert entered.wait(5.0)
        assert not handle.join(0.01)
        proceed.set()
        time.sleep(0.1)
        assert after_begin == []
    finally:
        proceed.set()
        threads.close()


# -- lifecycle ---------------------------------------------------------


@pytest.mark.chaos
def test_close_retires_idle_resilient_threads():
    be = ResilientBackend("threads:2")
    be.map_ranges(lambda lo, hi: hi, 40)
    idle = be._threads.idle_threads()
    assert idle
    be.close()
    assert not any(t.is_alive() for t in idle)
    assert be._threads.idle_threads() == []


@pytest.mark.chaos
def test_collected_wrapper_retires_its_threads():
    # A wrapper built from a spec string inside a library call is never
    # closed; its idle threads must not outlive it.
    import gc

    be = ResilientBackend("serial")
    be.map_ranges(_identity, 6)
    idle = be._threads.idle_threads()
    assert idle
    del be
    gc.collect()
    assert not any(t.is_alive() for t in idle)


@pytest.mark.serve
def test_drain_retires_idle_rung_threads(graph):
    server = MatchingServer(None, config=ServerConfig(n_workers=1))
    server.submit(MatchRequest(graph, seed=0), timeout=30.0)
    rung_idle = server._rung_threads.idle_threads()
    backend_idle = server._backend._threads.idle_threads()
    assert rung_idle and backend_idle
    server.drain()
    assert not any(t.is_alive() for t in rung_idle + backend_idle)


@pytest.mark.chaos
def test_abandoned_thread_exits_and_does_not_rejoin_a_closed_set():
    threads = SupervisedThreads("test")
    release = threading.Event()
    ran_on: list[threading.Thread] = []

    def job(begin):
        begin()
        ran_on.append(threading.current_thread())
        release.wait(5.0)

    handle = threads.submit(job)
    assert not handle.join(0.05)
    threads.close()
    release.set()
    ran_on[0].join(5.0)
    assert not ran_on[0].is_alive()
    assert threads.idle_threads() == []


@pytest.mark.chaos
def test_submit_after_close_still_runs():
    threads = SupervisedThreads("test")
    threads.close()
    handle = threads.submit(lambda begin: 42)
    assert handle.join(5.0)
    assert handle.result() == 42
    assert threads.idle_threads() == []


# -- context propagation -----------------------------------------------


@pytest.mark.chaos
def test_context_reaches_resilient_kernel_chunks():
    be = ResilientBackend("threads:2")
    token = _probe.set("caller")
    try:
        seen = be.map_ranges(lambda lo, hi: _probe.get(), 40)
    finally:
        _probe.reset(token)
        be.close()
    assert len(seen) == 2
    assert seen == ["caller", "caller"]


@pytest.mark.serve
def test_context_reaches_rung_job(graph, monkeypatch):
    import repro.matching.heuristics.greedy as greedy

    seen: list[str] = []
    original = greedy.greedy_edge_matching

    def probing_greedy(*args, **kwargs):
        seen.append(_probe.get())
        return original(*args, **kwargs)

    monkeypatch.setattr(greedy, "greedy_edge_matching", probing_greedy)
    server = MatchingServer(None, config=ServerConfig(n_workers=1))
    token = _probe.set("caller")
    try:
        server._run_rung("greedy", MatchRequest(graph), Deadline.after(10.0))
    finally:
        _probe.reset(token)
        server.drain()
    assert seen == ["caller"]


# -- stress --------------------------------------------------------------


@pytest.mark.chaos
def test_concurrent_submitters_with_random_timeouts():
    """More submitters than cores, a short switch interval, random
    timeouts: every job the caller kept returns its own value, no
    abandoned-before-begin job runs past ``begin``, and no thread runs
    two jobs at once."""
    threads = SupervisedThreads("stress")
    busy: set[int] = set()
    busy_lock = threading.Lock()
    overlaps: list[int] = []
    failures: list[str] = []

    def make_job(value: int, ran: list[int]):
        def job(begin):
            me = threading.get_ident()
            with busy_lock:
                if me in busy:
                    overlaps.append(me)
                busy.add(me)
            try:
                time.sleep(random.random() * 0.002)
                begin()
                ran.append(value)
                return value
            finally:
                with busy_lock:
                    busy.discard(me)
        return job

    def submitter(seed: int) -> None:
        rng = random.Random(seed)
        for i in range(150):
            ran: list[int] = []
            handle = threads.submit(make_job(i, ran))
            if handle.join(rng.choice([None, 0.0005, 0.002])):
                if handle.result() != i or ran != [i]:
                    failures.append(f"job {i} returned wrong value")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [
            threading.Thread(target=submitter, args=(s,)) for s in range(8)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60.0)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(previous)
        threads.close()
    assert failures == []
    assert overlaps == []
