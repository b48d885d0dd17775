"""Parallel Sinkhorn–Knopp scaling (the paper's Algorithm 1, ``ScaleSK``).

Each iteration balances the columns, then the rows:

.. code-block:: text

    for j in columns (parallel):  dc[j] = 1 / sum_{i in A*j} dr[i]
    for i in rows    (parallel):  dr[i] = 1 / sum_{j in Ai*} dc[j]

(the matrix entries are 1, so the sums need only the opposite scaling
vector).  After a row sweep the scaled row sums are exactly one; the
convergence error is the maximal deviation of the scaled *column* sums
from one, measured at the top of the next iteration.

Empty rows/columns keep their factor at 1 and are excluded from the error
— see Section 3.3 of the paper for why heavily non-converged scalings are
still useful (with column sums ≥ α the OneSided guarantee degrades
gracefully to ``1 - e^{-α}``).

``iterations=0`` is meaningful and used throughout the paper's tables: it
leaves ``dr = dc = 1``, which makes the heuristics pick neighbours
uniformly at random (the "no guarantee" baseline of Figure 5).

Degradation ladder
------------------

Sinkhorn–Knopp provably converges only on matrices with total support;
anywhere else a tolerance loop just burns its full ``max_iterations``
budget.  The support-aware guard detects structurally hopeless inputs —
empty rows/columns cheaply, lack of total support via the
Dulmage–Mendelsohn machinery behind a size cutoff — and falls down a
declared ladder instead of thrashing:

1. ``"full"`` — the requested computation (default rung).
2. ``"capped"`` — deficiency detected: the iteration budget is capped at
   ``capped_iterations`` and a :class:`~repro.errors.ConvergenceWarning`
   carrying the achieved column-sum error is emitted; the Section 3.3
   relaxed guarantee still applies to the heuristics.
3. ``"uniform"`` — degenerate input (no nonzeros) or a non-finite
   scaling: fall back to pattern-uniform ``dr = dc = 1``, which always
   yields a valid (if guarantee-free) choice distribution.

The rung used is recorded in :attr:`ScalingResult.rung`, so
``OneSidedMatch``/``TwoSidedMatch`` can report the best attainable
guarantee instead of failing (see ``docs/resilience.md``).

One loop
--------

This module owns the SK policy for every path that runs it: the budget
checks and the ladder (:func:`resolve_budget`), the iteration loop
(:func:`sk_iterate`) and the capped warning (:func:`finish_scaling`).
Callers differ only in the sweeps they hand the loop — the registered
kernels here and in :func:`~repro.scaling.scale_for_quality`
(:func:`kernel_sweeps`), per-shard steps in :mod:`repro.shard.scale`.
"""

from __future__ import annotations

import warnings
from typing import Callable, NamedTuple

import numpy as np

from repro import telemetry as _tm
from repro._typing import FloatArray
from repro.errors import ConvergenceWarning, ScalingError
from repro.graph.csr import BipartiteGraph
from repro.parallel.backends import Backend, get_backend
from repro.parallel.kernels import run_kernel
from repro.scaling.convergence import column_sum_error
from repro.scaling.result import ScalingResult

__all__ = [
    "scale_sinkhorn_knopp",
    "sinkhorn_knopp_work_profile",
    "initial_factors",
]


def initial_factors(
    graph: BipartiteGraph,
    initial: "tuple[FloatArray, FloatArray] | ScalingResult | None",
) -> tuple[FloatArray, FloatArray, bool]:
    """Resolve the ``initial=`` warm-start argument into ``(dr, dc, warm)``.

    Accepts a ``(dr, dc)`` pair or a whole :class:`ScalingResult` (its
    vectors are reused); ``None`` yields the cold all-ones start.  The
    returned arrays are fresh copies sized for *graph*, validated to be
    finite and strictly positive — a poisoned warm start would silently
    corrupt every downstream choice probability.
    """
    if initial is None:
        return (
            np.ones(graph.nrows, dtype=np.float64),
            np.ones(graph.ncols, dtype=np.float64),
            False,
        )
    if isinstance(initial, ScalingResult):
        dr0, dc0 = initial.dr, initial.dc
    else:
        try:
            dr0, dc0 = initial
        except (TypeError, ValueError):
            raise ScalingError(
                "initial must be a (dr, dc) pair or a ScalingResult, "
                f"got {type(initial).__name__}"
            ) from None
    dr = np.array(dr0, dtype=np.float64, copy=True).ravel()
    dc = np.array(dc0, dtype=np.float64, copy=True).ravel()
    if dr.shape != (graph.nrows,) or dc.shape != (graph.ncols,):
        raise ScalingError(
            f"initial factors must have shapes ({graph.nrows},) and "
            f"({graph.ncols},), got {dr.shape} and {dc.shape}"
        )
    if not (np.isfinite(dr).all() and np.isfinite(dc).all()):
        raise ScalingError("initial factors must be finite")
    if (dr <= 0).any() or (dc <= 0).any():
        raise ScalingError("initial factors must be strictly positive")
    return dr, dc, True


def _lacks_total_support(
    graph: BipartiteGraph, support_check_cutoff: int
) -> bool:
    """Whether SK provably cannot converge on *graph*'s pattern.

    Empty rows/columns are an O(n) necessary check; the full total-support
    test (every edge on some perfect matching) needs a maximum matching,
    so it only runs on square matrices up to *support_check_cutoff*
    nonzeros.  Returns ``False`` when undecided — the ladder only demotes
    on proof.
    """
    if (np.diff(graph.row_ptr) == 0).any() or (
        np.diff(graph.col_ptr) == 0
    ).any():
        return True
    if graph.nrows != graph.ncols:
        # Rectangular patterns have no total support in the square sense;
        # the paper scales them with the rectangular variant of SK, whose
        # stationary point is r-by-c stochastic, so we do not demote here.
        return False
    if graph.nnz > support_check_cutoff:
        return False
    from repro.graph.dm import dulmage_mendelsohn

    return not dulmage_mendelsohn(graph).total_support


def budget_limit(
    iterations: int | None, tolerance: float | None, max_iterations: int
) -> int:
    """Validate an ``iterations``/``tolerance`` budget and return the
    sweep limit it requests — the argument checks every scaling routine
    shares.  Neither given means the paper's working budget of 10."""
    if iterations is not None and tolerance is not None:
        raise ScalingError("pass either iterations or tolerance, not both")
    if iterations is None and tolerance is None:
        iterations = 10  # the paper's default working budget
    if iterations is not None and iterations < 0:
        raise ScalingError(f"iterations must be >= 0, got {iterations}")
    if tolerance is not None and tolerance <= 0:
        raise ScalingError(f"tolerance must be positive, got {tolerance}")
    return iterations if iterations is not None else max_iterations


class Budget(NamedTuple):
    """A resolved SK budget: the sweep limit after the ladder, the limit
    the caller asked for, and the ladder rung."""

    limit: int
    requested_limit: int
    rung: str


def resolve_budget(
    graph: BipartiteGraph,
    iterations: int | None,
    tolerance: float | None,
    *,
    max_iterations: int = 1000,
    degradation: bool = True,
    capped_iterations: int = 25,
    support_check_cutoff: int = 10_000,
) -> Budget:
    """Validate the budget and take the ladder decision on *graph* (see
    the module docstring).  Sharded runs take it once on the global
    graph, so every shard runs the same budget."""
    requested_limit = budget_limit(iterations, tolerance, max_iterations)
    limit = requested_limit
    rung = "full"
    if degradation:
        if graph.nnz == 0:
            # Nothing to balance: pattern-uniform is the exact answer.
            rung, limit = "uniform", 0
        elif _lacks_total_support(
            graph,
            # The maximum-matching test is only worth its cost when it
            # can actually save sweeps (or a doomed tolerance loop).
            support_check_cutoff if limit > capped_iterations else 0,
        ):
            rung = "capped"
            limit = min(limit, capped_iterations)
    return Budget(limit, requested_limit, rung)


class SKRun(NamedTuple):
    """Outcome of :func:`sk_iterate`."""

    dr: FloatArray
    dc: FloatArray
    error: float
    iterations: int
    converged: bool
    #: The non-finite fallback reset the factors to pattern-uniform.
    fell_back: bool
    history: tuple[float, ...]


def sk_iterate(
    col_sweep: Callable[[FloatArray, FloatArray], tuple[float, FloatArray]],
    row_sweep: Callable[[FloatArray], FloatArray],
    uniform_error: Callable[[], float],
    dr: FloatArray,
    dc: FloatArray,
    limit: int,
    *,
    tolerance: float | None = None,
    stop: Callable[[FloatArray, FloatArray], bool] | None = None,
    track_history: bool = False,
) -> SKRun:
    """The Sinkhorn–Knopp iteration loop; every SK path runs this one.

    A tier supplies its sweeps: ``col_sweep(dr, dc)`` returns the
    column-sum error of the current ``(dr, dc)`` together with the next
    column factors (one fused pass), ``row_sweep(dc)`` the row factors
    for a committed ``dc``, and ``uniform_error()`` the error of
    ``dr = dc = 1``.  The loop stops once ``error <= tolerance`` or
    ``stop(dr, dc)`` holds (checked once per state, the final one
    included) or after *limit* sweeps, and falls back to pattern-uniform
    factors when the scaling went non-finite.
    """
    error, dc_next = col_sweep(dr, dc)
    history: list[float] = []
    done = 0
    while True:
        converged = (tolerance is not None and error <= tolerance) or (
            stop is not None and stop(dr, dc)
        )
        if converged or done >= limit:
            break
        dc, dc_next = dc_next, dc  # commit the fused column sweep
        dr = row_sweep(dc)
        done += 1
        error, dc_next = col_sweep(dr, dc)
        if track_history:
            history.append(error)
        if _tm.enabled():
            _tm.incr("scaling.sk.sweeps")
            _tm.event("scaling.sk.sweep", iteration=done, error=error)
    # NaN fails every comparison, so the sweeps' NaN-propagating error
    # reductions land here too.
    fell_back = not (
        np.isfinite(error) and np.isfinite(dr).all() and np.isfinite(dc).all()
    )
    if fell_back:
        # Last rung of the ladder: a non-finite scaling would poison the
        # choice probabilities, so fall back to pattern-uniform.
        dr = np.ones_like(dr)
        dc = np.ones_like(dc)
        converged = False
        error = uniform_error()
    return SKRun(dr, dc, error, done, converged, fell_back, tuple(history))


def kernel_sweeps(
    graph: BipartiteGraph,
    dr: FloatArray,
    dc: FloatArray,
    backend: Backend | str | None = None,
) -> tuple[Callable, Callable, Callable]:
    """The unsharded sweeps for :func:`sk_iterate`: the registered
    ``sk_sweep_err``/``sk_sweep`` kernels on *backend*.

    The fused column pass writes into whichever of two buffers (``dc``
    and one spare) is not the current ``dc``, and the row pass rewrites
    ``dr`` in place, so a run allocates nothing per sweep.
    """
    be = get_backend(backend)
    dc_buffers = (dc, np.empty_like(dc))

    def col_sweep(dr: FloatArray, dc: FloatArray) -> tuple[float, FloatArray]:
        out = dc_buffers[1] if dc is dc_buffers[0] else dc_buffers[0]
        errs = run_kernel(
            "sk_sweep_err", graph.ncols,
            {
                "ptr": graph.col_ptr, "ind": graph.row_ind,
                "opp": dr, "mine": dc, "out": out,
            },
            backend=be,
        )
        # np.max propagates NaN (unlike builtin max), which the
        # non-finite fallback relies on.
        return (float(np.max(errs)) if errs else 0.0), out

    def row_sweep(dc: FloatArray) -> FloatArray:
        run_kernel(
            "sk_sweep", graph.nrows,
            {"ptr": graph.row_ptr, "ind": graph.col_ind, "opp": dc, "out": dr},
            backend=be,
        )
        return dr

    def uniform_error() -> float:
        return column_sum_error(
            graph, np.ones(graph.nrows), np.ones(graph.ncols)
        )

    return col_sweep, row_sweep, uniform_error


def finish_scaling(
    run: SKRun, budget: Budget, tolerance: float | None, warm: bool
) -> ScalingResult:
    """Package a finished run: demote to ``"uniform"`` after the
    non-finite fallback, and warn when the ``"capped"`` rung stopped
    short of what the caller asked for."""
    rung = "uniform" if run.fell_back else budget.rung
    if rung == "capped" and not run.converged and (
        budget.limit < budget.requested_limit or tolerance is not None
    ):
        warnings.warn(
            ConvergenceWarning(
                f"matrix lacks total support; Sinkhorn-Knopp stopped "
                f"on the '{rung}' rung after {run.iterations} iteration(s) "
                f"with column-sum error {run.error:.6g}",
                achieved_error=run.error,
                rung=rung,
            ),
            stacklevel=3,  # the caller of the public scaling function
        )
    return ScalingResult(
        dr=run.dr,
        dc=run.dc,
        error=run.error,
        iterations=run.iterations,
        converged=run.converged,
        history=run.history,
        rung=rung,
        warm_started=warm,
    )


def scale_sinkhorn_knopp(
    graph: BipartiteGraph,
    iterations: int | None = None,
    *,
    tolerance: float | None = None,
    max_iterations: int = 1000,
    backend: Backend | str | None = None,
    initial: tuple[FloatArray, FloatArray] | ScalingResult | None = None,
    track_history: bool = False,
    degradation: bool = True,
    capped_iterations: int = 25,
    support_check_cutoff: int = 10_000,
) -> ScalingResult:
    """Scale *graph*'s adjacency pattern toward doubly stochastic form.

    Parameters
    ----------
    graph:
        The (0,1) matrix as a :class:`~repro.graph.BipartiteGraph`.
    iterations:
        Run exactly this many column+row sweeps.  Mutually exclusive with
        *tolerance*; the paper's experiments use fixed small counts
        (0, 1, 5, 10).
    tolerance:
        Iterate until the column-sum error drops below this value (or
        *max_iterations* is hit).
    backend:
        Execution backend for the segment reductions (see
        :func:`repro.parallel.get_backend`); serial by default.
    initial:
        Warm-start scaling factors: a ``(dr, dc)`` pair or a previous
        :class:`ScalingResult` (its vectors are reused).  Starting from
        a near-fixed-point — e.g. the converged factors of a graph that
        has since received a small edit batch — reaches tolerance in a
        few sweeps instead of a cold run's full budget; the sweeps not
        spent are published as the ``scaling.warm_sweeps_saved``
        counter.  Factors must be finite, strictly positive, and sized
        for *graph* (:class:`~repro.errors.ScalingError` otherwise).
    track_history:
        Record the error after every iteration in the result.
    degradation:
        Enable the support-aware degradation ladder (see the module
        docstring).  With ``False`` the requested budget is always run
        and ``rung`` stays ``"full"``.
    capped_iterations:
        Iteration budget on the ``"capped"`` rung.
    support_check_cutoff:
        Largest nonzero count at which the full total-support test (a
        maximum-matching computation) is attempted; above it only the
        O(n) empty-row/column check runs.

    Returns
    -------
    ScalingResult
        Scaling vectors, final error, iteration count, convergence flag,
        and the degradation-ladder rung used.
    """
    budget = resolve_budget(
        graph,
        iterations,
        tolerance,
        max_iterations=max_iterations,
        degradation=degradation,
        capped_iterations=capped_iterations,
        support_check_cutoff=support_check_cutoff,
    )
    dr, dc, warm = initial_factors(graph, initial)
    with _tm.span(
        "scaling.sinkhorn_knopp",
        nrows=graph.nrows, ncols=graph.ncols, nnz=graph.nnz,
    ) as sp:
        run = sk_iterate(
            *kernel_sweeps(graph, dr, dc, backend),
            dr, dc, budget.limit,
            tolerance=tolerance, track_history=track_history,
        )
        result = finish_scaling(run, budget, tolerance, warm)
        if result.rung != "full":
            _tm.incr("scaling.sk.degraded")
            _tm.event("scaling.sk.degraded", rung=result.rung, error=run.error)
        if warm and _tm.enabled():
            _tm.incr("scaling.sk.warm_starts")
            _tm.set_gauge("scaling.warm_iterations", run.iterations)
            if run.converged:
                # Sweeps the warm start left unspent from the budget a
                # cold tolerance run was allowed to burn.
                _tm.incr(
                    "scaling.warm_sweeps_saved",
                    max(0, budget.limit - run.iterations),
                )
        _tm.set_gauge("scaling.sk.error", run.error)
        sp.set(
            iterations=run.iterations, error=run.error,
            converged=run.converged, rung=result.rung, warm=warm,
        )
    return result


def sinkhorn_knopp_work_profile(graph: BipartiteGraph) -> FloatArray:
    """Per-row work units of one ScaleSK iteration, for the machine model.

    A row costs its degree (the gather+reduce over its nonzeros) plus a
    constant for the pointer arithmetic and the reciprocal; the column
    sweep has the mirrored profile, so one iteration's total work profile
    is the sum of both sides mapped onto a common "loop item" axis.  The
    model schedules the row sweep (the longer of the two on skewed
    matrices) — scheduling both sweeps separately changes speedups by <2%.
    """
    return graph.row_degrees().astype(np.float64) + 4.0
