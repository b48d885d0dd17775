"""Reusable supervised daemon threads for deadline-bounded calls.

A deadline that cannot kill running code still needs the call to run
somewhere other than the caller, so the caller can stop waiting.
:class:`SupervisedThreads` keeps the threads that do this: a job goes to
an idle thread of the set, and a new thread starts only when none is
idle, so a warm caller starts no threads at all.

A job is *pending* from submission until it calls its ``begin``
argument, which moves it to *running* atomically.  A caller whose
:meth:`Job.join` times out moves it to *abandoned*.  A pending job that
is abandoned raises at ``begin`` instead of running the code after it,
so a stalled attempt that wakes up late never writes into arrays its
caller has already handed on.  A job abandoned while running
cannot be stopped (CPython has no way to interrupt a thread): it
finishes in the background, and its thread rejoins the idle set only
once it returns.

Jobs run in a copy of the submitter's :mod:`contextvars` context, as
:func:`asyncio.to_thread` does, so context-following state (tracers,
context variables) sees the job as part of the call that issued it.
Thread-local state does not travel: a job that needs the caller's
request budget receives it explicitly.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from typing import Any, Callable

__all__ = ["Job", "SupervisedThreads"]

_PENDING, _RUNNING, _DONE, _ABANDONED = range(4)


class _Abandoned(Exception):
    """Raised by ``begin`` inside a job its caller gave up on."""


class Job:
    """One submitted call; :meth:`join` waits, :meth:`result` reads it."""

    __slots__ = ("_fn", "_ctx", "_lock", "_done", "_state", "_value",
                 "_error")

    def __init__(self, fn: Callable[[Callable[[], None]], Any],
                 lock: threading.Lock) -> None:
        self._fn = fn
        self._ctx = contextvars.copy_context()
        self._lock = lock
        self._done = threading.Lock()
        self._done.acquire()
        self._state = _PENDING
        self._value: Any = None
        self._error: BaseException | None = None

    def _begin(self) -> None:
        with self._lock:
            if self._state == _ABANDONED:
                raise _Abandoned
            self._state = _RUNNING

    def _run(self) -> None:
        try:
            self._value = self._ctx.run(self._fn, self._begin)
        except BaseException as exc:  # noqa: BLE001 - read by result()
            self._error = exc
        # Drop the closure before the thread goes idle: it may hold the
        # owner, which must stay collectable while its threads wait.
        self._fn = self._ctx = None

    def join(self, timeout: float | None = None) -> bool:
        """Wait up to *timeout* seconds; ``False`` abandons the job."""
        if self._done.acquire(timeout=-1 if timeout is None else timeout):
            return True
        with self._lock:
            if self._state == _DONE:  # finished as the wait expired
                return True
            self._state = _ABANDONED
            return False

    def result(self) -> Any:
        """The job's return value, or raise what it raised."""
        if self._error is not None:
            raise self._error
        return self._value


class SupervisedThreads:
    """A growable set of daemon threads that run :class:`Job` s.

    Parameters
    ----------
    name:
        Thread-name prefix (``f"{name}-{i}"``), for debuggers and dumps.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._lock = threading.Lock()
        self._idle: list[tuple[threading.Thread, queue.SimpleQueue]] = []
        self._started = 0
        self._closed = False

    def submit(self, fn: Callable[[Callable[[], None]], Any]) -> Job:
        """Run ``fn(begin)`` on an idle thread, starting one if none is.

        *fn* must call ``begin()`` before its first side effect that an
        abandoning caller must not see; ``begin`` raises once the job is
        abandoned.
        """
        job = Job(fn, self._lock)
        with self._lock:
            slot = self._idle.pop() if self._idle else None
            if slot is None:
                self._started += 1
                index = self._started
        if slot is not None:
            slot[1].put(job)
            return job
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        thread = threading.Thread(
            target=self._serve, args=(inbox,),
            name=f"{self._name}-{index}", daemon=True,
        )
        inbox.put(job)
        thread.start()
        return job

    def close(self) -> None:
        """Retire the idle threads; busy ones exit when their job returns.

        A job submitted after :meth:`close` still runs, on a thread that
        exits once it is done.
        """
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for _, inbox in idle:
            inbox.put(None)
        current = threading.current_thread()
        for thread, _ in idle:
            if thread is not current:
                thread.join()

    def idle_threads(self) -> list[threading.Thread]:
        """The threads now waiting for a job (a snapshot, for probes)."""
        with self._lock:
            return [thread for thread, _ in self._idle]

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        slot = (threading.current_thread(), inbox)
        while True:
            job = inbox.get()
            if job is None:
                return
            job._run()
            # Rejoin the idle set before the caller can see the result,
            # so a caller's next job finds this thread idle.
            with self._lock:
                if job._state != _ABANDONED:
                    job._state = _DONE
                closed = self._closed
                if not closed:
                    self._idle.append(slot)
            job._done.release()
            del job
            if closed:
                return
