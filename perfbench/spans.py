"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :meth:`Tracer.patch`
replaces a layer's public function at the name its caller looks it up
by (a module attribute or a class attribute), and restores it when the
traced phase ends.  Nothing under ``src/`` is edited.

Every span carries ``op`` — the id of the benchmark operation it belongs
to — and ``parent``.  Parents follow a context variable; threads started
while tracing inherit the starter's context (see :meth:`Tracer.install`),
so a kernel chunk run on a resilient-backend attempt thread still lands
under the span that issued it.  Hand-offs that reuse long-lived threads
(socket connections, server workers) are bridged by the workloads with
:meth:`Tracer.adopt`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "self_times", "interval_cover"]


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "op", "t0", "t1")

    def __init__(self, sid, name, layer, parent, op, t0):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.t0 = t0
        self.t1 = t0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> dict[str, Any]:
        return {
            "sid": self.sid, "name": self.name, "layer": self.layer,
            "parent": self.parent, "op": self.op, "start": self.t0,
            "end": self.t1,
        }


class Tracer:
    """Records spans while installed; costs nothing while not."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._restore: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    def current(self) -> Span | None:
        return self._current.get()

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        layer: str | None = None,
        parent: Span | None = None,
        op: int | None = None,
        t0: float | None = None,
    ) -> Iterator[Span]:
        """Record one span; *parent* defaults to the context's span and
        *t0* to now (an op measured from when it was due passes *t0*)."""
        par = self._current.get() if parent is None else parent
        sid = next(self._ids)
        if op is None:
            # A span with no parent is the root of a new op.
            op = sid if par is None else par.op
        sp = Span(
            sid, name, layer or name, None if par is None else par.sid, op,
            time.perf_counter() if t0 is None else t0,
        )
        token = self._current.set(sp)
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            self._current.reset(token)
            self.spans.append(sp)

    def interval(
        self, name: str, t0: float, t1: float, parent: Span | None
    ) -> Span:
        """Record a span whose bounds were measured elsewhere."""
        sp = Span(
            next(self._ids), name, name,
            None if parent is None else parent.sid,
            None if parent is None else parent.op, t0,
        )
        sp.t1 = t1
        self.spans.append(sp)
        return sp

    @contextlib.contextmanager
    def adopt(self, parent: Span | None) -> Iterator[None]:
        """Make *parent* the current span on this thread for a block."""
        token = self._current.set(parent)
        try:
            yield
        finally:
            self._current.reset(token)

    # -- patching ------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str | None,
        *,
        layer: str | None = None,
        on_call: Callable[..., None] | None = None,
        on_result: Callable[[Span | None, Any, tuple, dict], None] | None = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span until :meth:`uninstall`.

        *on_call* sees the arguments and *on_result* the return value,
        for counters; with *name* None the call is counted but gets no
        span.
        """

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(*args, **kwargs)
                if name is None:
                    out = func(*args, **kwargs)
                    if on_result is not None:
                        on_result(None, out, args, kwargs)
                    return out
                with self.span(name, layer=layer) as sp:
                    out = func(*args, **kwargs)
                    if on_result is not None:
                        on_result(sp, out, args, kwargs)
                return out
            return wrapper

        self.replace(owner, attr, make)

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Propagate the span context into threads started from now on."""
        original = threading.Thread.start

        def start(thread: threading.Thread) -> None:
            ctx = contextvars.copy_context()
            run = thread.run
            thread.run = lambda: ctx.run(run)  # type: ignore[method-assign]
            original(thread)

        threading.Thread.start = start  # type: ignore[method-assign]
        self._restore.append(lambda: setattr(threading.Thread, "start", original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output --------------------------------------------------------

    def dump(self, path: str, header: dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp.to_json()) + "\n")


def interval_cover(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.t0, sp.t1))
    return {
        sp.sid: sp.dur - interval_cover(sp.t0, sp.t1, children.get(sp.sid, []))
        for sp in spans
    }
