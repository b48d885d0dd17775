"""Tests for the scaling algorithms (repro.scaling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScalingError
from repro.graph import (
    from_dense,
    full_ones,
    fully_indecomposable,
    grid_graph,
    identity,
    sprand,
    union_of_permutations,
)
from repro.scaling import (
    column_sum_error,
    row_sum_error,
    scale_ruiz,
    scale_sinkhorn_knopp,
    scale_symmetric,
    scaled_column_sums,
    scaled_row_sums,
)
from repro.scaling.symmetric import is_pattern_symmetric


class TestSinkhornKnopp:
    def test_zero_iterations_identity_vectors(self):
        g = sprand(100, 3.0, seed=0)
        res = scale_sinkhorn_knopp(g, 0)
        np.testing.assert_array_equal(res.dr, np.ones(100))
        np.testing.assert_array_equal(res.dc, np.ones(100))
        assert res.iterations == 0

    def test_full_matrix_scales_in_one_iteration(self):
        g = full_ones(8)
        res = scale_sinkhorn_knopp(g, 1)
        s = g.scaled_values(res.dr, res.dc)
        np.testing.assert_allclose(s, 1.0 / 8.0)
        assert res.error < 1e-12

    def test_row_sums_one_after_each_iteration(self):
        """The paper: after the row sweep, row sums are one exactly."""
        g = fully_indecomposable(200, 4.0, seed=0)
        for iters in (1, 3, 7):
            res = scale_sinkhorn_knopp(g, iters)
            assert row_sum_error(g, res.dr, res.dc) < 1e-12

    def test_convergence_with_total_support(self):
        g = union_of_permutations(150, 3, seed=1)
        res = scale_sinkhorn_knopp(g, tolerance=1e-8, max_iterations=5000)
        assert res.converged
        assert res.error <= 1e-8
        # Fully doubly stochastic: both sums ~1.
        np.testing.assert_allclose(
            scaled_column_sums(g, res.dr, res.dc), 1.0, atol=1e-7
        )
        np.testing.assert_allclose(
            scaled_row_sums(g, res.dr, res.dc), 1.0, atol=1e-7
        )

    def test_positive_scaling_vectors(self):
        g = fully_indecomposable(100, 3.0, seed=2)
        res = scale_sinkhorn_knopp(g, 10)
        assert (res.dr > 0).all()
        assert (res.dc > 0).all()

    def test_error_decreases_with_iterations(self):
        g = fully_indecomposable(200, 4.0, seed=3)
        errors = [scale_sinkhorn_knopp(g, it).error for it in (1, 5, 20)]
        assert errors[0] > errors[1] > errors[2]

    def test_history_tracking(self):
        g = sprand(100, 3.0, seed=0)
        res = scale_sinkhorn_knopp(g, 5, track_history=True)
        assert len(res.history) == 5
        assert res.history[-1] == pytest.approx(res.error)

    def test_empty_lines_are_tolerated(self):
        # Matrix with an empty row and an empty column.
        a = np.array([[1, 1, 0], [0, 0, 0], [0, 1, 0]])
        g = from_dense(a)
        res = scale_sinkhorn_knopp(g, 5)
        assert np.isfinite(res.dr).all()
        assert np.isfinite(res.dc).all()
        assert np.isfinite(res.error)

    def test_mutually_exclusive_arguments(self):
        g = identity(3)
        with pytest.raises(ScalingError):
            scale_sinkhorn_knopp(g, 5, tolerance=1e-3)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ScalingError):
            scale_sinkhorn_knopp(identity(3), -1)
        with pytest.raises(ScalingError):
            scale_ruiz(identity(3), -1)
        with pytest.raises(ScalingError):
            scale_symmetric(identity(3), -3)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ScalingError):
            scale_sinkhorn_knopp(identity(3), tolerance=0.0)
        with pytest.raises(ScalingError):
            scale_ruiz(identity(3), tolerance=-1.0)
        with pytest.raises(ScalingError):
            scale_symmetric(identity(3), tolerance=-1.0)

    def test_backend_equivalence(self):
        from repro.parallel import ThreadBackend

        g = sprand(500, 4.0, seed=4)
        serial = scale_sinkhorn_knopp(g, 5)
        with ThreadBackend(2) as be:
            threaded = scale_sinkhorn_knopp(g, 5, backend=be)
        np.testing.assert_allclose(serial.dr, threaded.dr)
        np.testing.assert_allclose(serial.dc, threaded.dc)

    def test_star_block_entries_decay(self):
        """Section 3.3: scaling drives non-matchable entries to zero."""
        from repro.graph.dm import dulmage_mendelsohn

        g = sprand(400, 2.0, seed=5)
        dm = dulmage_mendelsohn(g)
        if dm.matchable_edges.all():  # pragma: no cover - unlucky seed
            pytest.skip("no star block on this seed")
        few = scale_sinkhorn_knopp(g, 2)
        many = scale_sinkhorn_knopp(g, 60)
        star_few = g.scaled_values(few.dr, few.dc)[~dm.matchable_edges].mean()
        star_many = g.scaled_values(many.dr, many.dc)[~dm.matchable_edges].mean()
        assert star_many < star_few / 2

    def test_error_matches_table1_convention_for_zero_iters(self):
        """Table 1: with 0 iterations the error equals n - 1 (full block)."""
        g = full_ones(32)
        res = scale_sinkhorn_knopp(g, 0)
        assert res.error == pytest.approx(31.0)


class TestRuiz:
    def test_converges_on_total_support(self):
        g = union_of_permutations(100, 3, seed=0)
        res = scale_ruiz(g, tolerance=1e-6, max_iterations=5000)
        assert res.converged

    def test_slower_than_sinkhorn_knopp_unsymmetric(self):
        """Knight-Ruiz-Ucar: Ruiz converges more slowly on unsymmetric
        matrices; compare errors after the same iteration budget."""
        g = fully_indecomposable(200, 4.0, seed=1)
        sk = scale_sinkhorn_knopp(g, 10)
        rz = scale_ruiz(g, 10)
        assert sk.error <= rz.error

    def test_symmetric_factors_on_symmetric_input(self):
        g = grid_graph(8, 8)
        res = scale_ruiz(g, 20)
        np.testing.assert_allclose(res.dr, res.dc, rtol=1e-10)

    def test_mutually_exclusive_arguments(self):
        with pytest.raises(ScalingError):
            scale_ruiz(identity(3), 5, tolerance=1e-3)


class TestSymmetric:
    def test_requires_symmetric_pattern(self):
        g = sprand(50, 3.0, seed=0)
        if not is_pattern_symmetric(g):
            with pytest.raises(ScalingError):
                scale_symmetric(g, 5)

    def test_grid_is_symmetric(self):
        assert is_pattern_symmetric(grid_graph(5, 5))

    def test_returns_equal_vectors(self):
        g = grid_graph(6, 6)
        res = scale_symmetric(g, 10)
        np.testing.assert_array_equal(res.dr, res.dc)

    def test_converges_on_grid(self):
        g = grid_graph(8, 8)
        res = scale_symmetric(g, tolerance=1e-8, max_iterations=10000)
        assert res.converged
        sums = scaled_row_sums(g, res.dr, res.dc)
        np.testing.assert_allclose(sums, 1.0, atol=1e-7)

    def test_rectangular_rejected(self):
        from repro.graph import sprand_rect

        with pytest.raises(ScalingError):
            scale_symmetric(sprand_rect(4, 5, 2.0, seed=0), 3)


class TestConvergenceMeasures:
    def test_column_sums_formula(self):
        g = from_dense(np.array([[1, 1], [1, 0]]))
        dr = np.array([2.0, 3.0])
        dc = np.array([5.0, 7.0])
        # col0: (2+3)*5 = 25 ; col1: 2*7 = 14
        np.testing.assert_allclose(
            scaled_column_sums(g, dr, dc), [25.0, 14.0]
        )

    def test_row_sums_formula(self):
        g = from_dense(np.array([[1, 1], [1, 0]]))
        dr = np.array([2.0, 3.0])
        dc = np.array([5.0, 7.0])
        np.testing.assert_allclose(scaled_row_sums(g, dr, dc), [24.0, 15.0])

    def test_errors_ignore_empty_lines(self):
        a = np.array([[1, 0], [0, 0]])
        g = from_dense(a)
        assert column_sum_error(g, np.ones(2), np.ones(2)) == 0.0
        assert row_sum_error(g, np.ones(2), np.ones(2)) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_doubly_stochastic_limit_on_random_support(self, seed):
        """SK on any total-support matrix converges to doubly stochastic."""
        g = union_of_permutations(30, 2, np.random.default_rng(seed))
        res = scale_sinkhorn_knopp(g, tolerance=1e-9, max_iterations=20000)
        assert res.converged
