"""Shared pieces of the benchmark: run record, statistics, checks, host."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: Where runs keep their span dumps and per-seed count records.  It sits
#: in the checkout the benchmark runs from and is listed in .gitignore.
STATE_DIR = ".perfbench_state"


@dataclass
class Run:
    """What one workload run measured."""

    workload: str
    seed: int
    #: Every set-up's time.  The first one is the one the window runs
    #: on; the others are made after the window, for timing only.
    setup_s: list[float] = field(default_factory=list)
    #: Peak resident memory when the window ended, before the repeated
    #: set-ups, whose freed-and-reallocated graphs would add heap noise.
    peak_rss_mb: float = 0.0
    #: Per-op latency in seconds (from when the op was due), warm-up
    #: ops excluded.
    latencies: list[float] = field(default_factory=list)
    #: Time the timed ops took (closed loops) or the open loop's span.
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Per-op matched fraction of n.
    match_ratios: list[float] = field(default_factory=list)
    #: Counts that must repeat exactly at this seed, per op index.
    counts: list[dict[str, int]] = field(default_factory=list)
    working_set_bytes: int = 0
    inputs: dict[str, Any] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Traced run: one line per traced op with its unattributed remainder.
    op_lines: list[str] = field(default_factory=list)
    tracer: Any = None
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.problems.append(message)


class Window:
    """Runs ops until *seconds* of op time have been spent.

    Only the ops' own time counts, so the checks a workload makes
    between ops neither shorten the window nor vary its op count.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.busy = 0.0

    def running(self) -> bool:
        return self.busy < self.seconds

    def add(self, took: float) -> None:
        self.busy += took


# -- statistics --------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def p90_or_none(values: list[float]) -> float | None:
    """p90 when at least ten samples lie beyond it (100 ops), else None."""
    return percentile(values, 90.0) if len(values) >= 100 else None


def mean(values: list[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


# -- correctness -------------------------------------------------------

def edge_keys(graph) -> np.ndarray:
    """Sorted ``row * ncols + col`` keys of a CSR graph's edges."""
    rows = np.repeat(
        np.arange(graph.nrows, dtype=np.int64), np.diff(graph.row_ptr)
    )
    return rows * graph.ncols + graph.col_ind


def graph_digest(graph) -> str:
    """Digest of a graph's CSR arrays, to compare set-ups cheaply."""
    h = hashlib.blake2b(digest_size=16)
    h.update(graph.row_ptr.tobytes())
    h.update(graph.col_ind.tobytes())
    return h.hexdigest()


def check_matching(row_match: np.ndarray, keys: np.ndarray, nrows: int,
                   ncols: int) -> str | None:
    """Vectorized form of ``Matching.validate``: None when *row_match*
    is a matching whose every pair is an edge, else the reason."""
    row_match = np.asarray(row_match, dtype=np.int64)
    if row_match.shape != (nrows,):
        return f"row_match has shape {row_match.shape}, expected ({nrows},)"
    rows = np.flatnonzero(row_match >= 0)
    cols = row_match[rows]
    if np.any(row_match < -1) or (cols.size and cols.max() >= ncols):
        return "row_match references a column out of range"
    if cols.size and np.bincount(cols, minlength=ncols).max() > 1:
        return "two rows matched to one column"
    want = rows * ncols + cols
    pos = np.searchsorted(keys, want)
    ok = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == want)
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0])
        return f"matched pair ({int(rows[k])}, {int(cols[k])}) is not an edge"
    return None


def reference_validate(row_match: np.ndarray, graph) -> str | None:
    """The program's own ``Matching.validate`` (a Python loop per matched
    row, so runs call it on their first op only)."""
    from repro.errors import ReproError
    from repro.matching.matching import Matching

    try:
        Matching.from_row_match(np.asarray(row_match), graph.ncols).validate(graph)
    except ReproError as exc:
        return f"Matching.validate: {exc}"
    return None


# -- repeatable counts -------------------------------------------------

def check_counts(run: Run) -> None:
    """Assert this run's per-op counts equal an earlier run's at this seed.

    The first run at a seed records its counts; later runs compare every
    op index both have, on the counts both recorded (a traced op records
    more than an untraced one).
    """
    if not run.counts:
        return
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"counts-{run.workload}-{run.seed}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        for i, (old, new) in enumerate(zip(before, run.counts)):
            common = old.keys() & new.keys()
            if any(old[k] != new[k] for k in common):
                run.fail(f"op {i} counts drifted at seed {run.seed}:"
                         f" {old} then {new}")
        if len(run.counts) <= len(before):
            return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run.counts, fh)


# -- warnings ----------------------------------------------------------

class WarningCounter:
    """Counts every RuntimeWarning / ConvergenceWarning, still shows it."""

    def __init__(self) -> None:
        from repro.errors import ConvergenceWarning

        self._convergence = ConvergenceWarning
        self.runtime = 0
        self.convergence = 0

    def install(self) -> None:
        warnings.simplefilter("always")
        original = warnings.showwarning

        def show(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, RuntimeWarning):
                self.runtime += 1
            elif issubclass(category, self._convergence):
                self.convergence += 1
            original(message, category, filename, lineno, file, line)

        warnings.showwarning = show


# -- host --------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def host_info() -> dict[str, Any]:
    import numpy
    import scipy

    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    llc = None
    for index in range(4, -1, -1):
        size = _read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        if size:
            llc = size.strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def log(message: str) -> None:
    print(message, flush=True)


def eprint(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
