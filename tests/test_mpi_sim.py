"""Tests for the in-process message-passing simulation and the sharded
Sinkhorn-Knopp sweep that runs on it."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    BackendError,
    ConvergenceWarning,
    ScalingError,
    ShardError,
)
from repro.graph import from_dense, from_edges, sprand, sprand_rect
from repro.parallel import kernel_chunk_override
from repro.parallel.mpi_sim import SimComm, run_ranks
from repro.scaling import scale_sinkhorn_knopp
from repro.shard import shard_scale


class TestCollectives:
    def test_allreduce_sum(self):
        def program(comm, value):
            total = yield from comm.allreduce(value)
            return total

        assert run_ranks(program, [1, 2, 3, 4]) == [10, 10, 10, 10]

    def test_allreduce_sum_arrays(self):
        def program(comm, value):
            total = yield from comm.allreduce(value)
            return total

        out = run_ranks(program, [np.arange(3), np.ones(3)])
        np.testing.assert_array_equal(out[0], [1, 2, 3])
        np.testing.assert_array_equal(out[1], [1, 2, 3])

    def test_allreduce_max(self):
        def program(comm, value):
            return (yield from comm.allreduce(value, op="max"))

        assert run_ranks(program, [3, 7, 5]) == [7, 7, 7]

    def test_allreduce_bad_op(self):
        def program(comm, value):
            return (yield from comm.allreduce(value, op="min"))

        with pytest.raises(BackendError):
            run_ranks(program, [1, 2])

    def test_allgather_ordered_by_rank(self):
        def program(comm, value):
            return (yield from comm.allgather(value * 10))

        assert run_ranks(program, [1, 2, 3]) == [[10, 20, 30]] * 3

    def test_bcast_from_root(self):
        def program(comm, _):
            return (yield from comm.bcast("payload" if comm.rank == 0 else None))

        assert run_ranks(program, [None, None, None]) == ["payload"] * 3

    def test_bcast_nonzero_root(self):
        def program(comm, _):
            value = {"rank": comm.rank} if comm.rank == 2 else None
            return (yield from comm.bcast(value, root=2))

        assert run_ranks(program, [0, 0, 0]) == [{"rank": 2}] * 3

    def test_barrier_and_rank_metadata(self):
        def program(comm, _):
            yield from comm.barrier()
            return (comm.rank, comm.size)

        assert run_ranks(program, [None] * 3) == [(0, 3), (1, 3), (2, 3)]

    def test_data_is_copied_across_ranks(self):
        """A rank mutating received data must not affect other ranks."""

        def program(comm, _):
            data = yield from comm.allgather(np.zeros(2))
            data[0][0] = comm.rank + 1.0  # mutate the received copy
            yield from comm.barrier()
            check = yield from comm.allgather(float(data[0][0]))
            return check

        out = run_ranks(program, [None, None])
        # Each rank sees its own mutation only.
        assert out[0] == [1.0, 2.0]

    def test_sequence_of_collectives(self):
        def program(comm, value):
            a = yield from comm.allreduce(value)
            b = yield from comm.allgather(a + comm.rank)
            c = yield from comm.allreduce(max(b), op="max")
            return c

        assert run_ranks(program, [1, 1]) == [3, 3]

    def test_mismatched_collectives_raise(self):
        def program(comm, _):
            if comm.rank == 0:
                yield from comm.allreduce(1)
            else:
                yield from comm.allgather(1)

        with pytest.raises(BackendError):
            run_ranks(program, [None, None])

    def test_mismatched_allreduce_ops_raise(self):
        """Same collective *kind* but different reduce ops is still a
        mismatch — op identity is part of the slot signature."""

        def program(comm, _):
            op = "sum" if comm.rank == 0 else "max"
            return (yield from comm.allreduce(1, op=op))

        with pytest.raises(BackendError, match="mismatch"):
            run_ranks(program, [None, None])

    def test_mismatched_bcast_roots_raise(self):
        def program(comm, _):
            root = comm.rank  # every rank nominates itself
            return (yield from comm.bcast(comm.rank, root=root))

        with pytest.raises(BackendError):
            run_ranks(program, [None, None])

    def test_bcast_root_without_payload_raises(self):
        def program(comm, _):
            return (yield from comm.bcast(None))  # no rank contributes

        with pytest.raises(BackendError):
            run_ranks(program, [None, None])

    def test_mismatched_collective_counts_raise(self):
        """One rank finishing while another still waits at a barrier is
        the classic hang; the simulator reports it instead of spinning."""

        def program(comm, _):
            yield from comm.barrier()
            if comm.rank == 0:
                yield from comm.barrier()  # extra round nobody joins
            return comm.rank

        with pytest.raises(BackendError):
            run_ranks(program, [None, None], max_steps=1000)

    def test_deadlock_detected_by_step_bound(self):
        def program(comm, _):
            if comm.rank == 0:
                yield from comm.barrier()  # rank 1 never joins
            return None

        with pytest.raises(BackendError):
            run_ranks(program, [None, None], max_steps=1000)

    def test_zero_ranks_rejected(self):
        with pytest.raises(BackendError):
            run_ranks(lambda c, a: iter(()), [])


class TestSingleRank:
    """Degenerate one-rank runs: every collective must be the identity."""

    def test_allreduce_identity(self):
        def program(comm, value):
            s = yield from comm.allreduce(value)
            m = yield from comm.allreduce(value, op="max")
            return (s, m)

        out = run_ranks(program, [np.array([1.0, 2.0])])
        np.testing.assert_array_equal(out[0][0], [1.0, 2.0])
        np.testing.assert_array_equal(out[0][1], [1.0, 2.0])

    def test_allgather_singleton(self):
        def program(comm, value):
            return (yield from comm.allgather(value))

        assert run_ranks(program, [42]) == [[42]]

    def test_bcast_self(self):
        def program(comm, _):
            return (yield from comm.bcast("solo"))

        assert run_ranks(program, [None]) == ["solo"]

    def test_barrier_no_deadlock(self):
        def program(comm, _):
            yield from comm.barrier()
            yield from comm.barrier()
            return comm.size

        assert run_ranks(program, [None], max_steps=100) == [1]


def _sharded_equals_serial(g, iterations, n_ranks):
    """Run serial and sharded SK on a multi-chunk grid (chunk 8), assert
    they agree bitwise, and return the sharded result."""
    with kernel_chunk_override(8), warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        serial = scale_sinkhorn_knopp(g, iterations)
        dist = shard_scale(g, iterations, n_shards=n_ranks)
    np.testing.assert_array_equal(dist.dr, serial.dr)
    np.testing.assert_array_equal(dist.dc, serial.dc)
    assert dist.error == serial.error
    assert dist.iterations == serial.iterations
    assert dist.rung == serial.rung
    return dist


@st.composite
def _scaling_graphs(draw):
    """Rectangular random patterns, some with whole empty rows/columns."""
    nrows = draw(st.integers(min_value=1, max_value=90))
    ncols = draw(st.integers(min_value=1, max_value=90))
    nnz = draw(st.integers(min_value=0, max_value=4 * max(nrows, ncols)))
    empty_frac = draw(st.sampled_from([0.0, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = rng.integers(0, nrows, size=nnz)
    cols = rng.integers(0, ncols, size=nnz)
    live_rows = rng.random(nrows) >= empty_frac
    live_cols = rng.random(ncols) >= empty_frac
    keep = live_rows[rows] & live_cols[cols]
    return from_edges(nrows, ncols, rows[keep], cols[keep])


class TestDistributedScaling:
    """Row-sharded SK (``shard_scale``) over the simulated ranks gives
    bitwise the serial factors, error, sweep count and rung."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5])
    def test_matches_serial(self, n_ranks):
        g = sprand(300, 4.0, seed=0)
        _sharded_equals_serial(g, 5, n_ranks)

    def test_rectangular(self):
        g = sprand_rect(120, 200, 3.0, seed=1)
        _sharded_equals_serial(g, 4, 3)

    def test_empty_lines_tolerated(self):
        a = np.array([[1, 1, 0], [0, 0, 0], [0, 1, 0]])
        g = from_dense(a)
        dist = _sharded_equals_serial(g, 3, 2)
        assert np.isfinite(dist.dr).all()
        assert np.isfinite(dist.dc).all()

    def test_more_ranks_than_rows(self):
        g = sprand(5, 2.0, seed=0)
        _sharded_equals_serial(g, 2, 16)

    def test_zero_iterations(self):
        g = sprand(50, 3.0, seed=0)
        dist = _sharded_equals_serial(g, 0, 2)
        np.testing.assert_array_equal(dist.dr, np.ones(50))

    def test_bad_arguments(self):
        g = sprand(10, 2.0, seed=0)
        with pytest.raises(ScalingError):
            shard_scale(g, -1)
        with pytest.raises(ShardError):
            shard_scale(g, 2, n_shards=0)

    @settings(max_examples=40, deadline=None)
    @given(
        g=_scaling_graphs(),
        iterations=st.integers(min_value=0, max_value=8),
        n_ranks=st.integers(min_value=1, max_value=7),
    )
    @example(g=sprand_rect(120, 200, 3.0, seed=1), iterations=4, n_ranks=3)
    @example(
        g=from_dense(np.array([[1, 1, 0], [0, 0, 0], [0, 1, 0]])),
        iterations=3, n_ranks=2,
    )
    @example(g=sprand(50, 3.0, seed=0), iterations=0, n_ranks=2)
    @example(g=sprand(5, 2.0, seed=0), iterations=2, n_ranks=7)
    def test_rank_count_never_changes_the_factors(self, g, iterations, n_ranks):
        """Property: for any pattern (rectangular, with empty rows and
        columns), budget and rank count, the sharded sweep is bitwise
        the serial one — the replicated sweep never re-associates a sum."""
        dist = _sharded_equals_serial(g, iterations, n_ranks)
        if iterations == 0:
            np.testing.assert_array_equal(dist.dr, np.ones(g.nrows))
