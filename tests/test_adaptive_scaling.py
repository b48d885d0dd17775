"""Tests for quality-driven scaling budgets (repro.scaling.adaptive)."""

import math

import numpy as np
import pytest

from repro.constants import ONE_SIDED_GUARANTEE
from repro.errors import ScalingError
from repro.graph import (
    from_dense,
    fully_indecomposable,
    sprand,
    union_of_permutations,
)
from repro.core import one_sided_match
from repro.scaling import scale_sinkhorn_knopp
from repro.scaling.adaptive import (
    alpha_for_quality,
    scale_for_quality,
)


class TestAlphaForQuality:
    def test_paper_example(self):
        # Section 3.3: alpha = 0.92 certifies ~0.6015.
        assert alpha_for_quality(0.6015) == pytest.approx(0.92, abs=5e-3)

    def test_zero_quality_zero_alpha(self):
        assert alpha_for_quality(0.0) == 0.0

    def test_monotone(self):
        qs = [0.1, 0.3, 0.5, 0.6]
        alphas = [alpha_for_quality(q) for q in qs]
        assert alphas == sorted(alphas)

    def test_ceiling_enforced(self):
        with pytest.raises(ScalingError):
            alpha_for_quality(ONE_SIDED_GUARANTEE)
        with pytest.raises(ScalingError):
            alpha_for_quality(0.99)
        with pytest.raises(ScalingError):
            alpha_for_quality(-0.1)


class TestScaleForQuality:
    def test_meets_target_on_total_support(self):
        g = fully_indecomposable(500, 4.0, seed=0)
        qs = scale_for_quality(g, 0.60)
        assert qs.target_met
        assert qs.certified_quality >= 0.60
        assert qs.min_column_sum >= alpha_for_quality(0.60)

    def test_certificate_is_honoured_empirically(self):
        """The heuristic's measured quality meets the certificate."""
        g = fully_indecomposable(2000, 5.0, seed=1)
        qs = scale_for_quality(g, 0.58)
        samples = [
            one_sided_match(g, scaling=qs.scaling, seed=s).cardinality
            / g.nrows
            for s in range(5)
        ]
        assert float(np.mean(samples)) >= qs.certified_quality - 0.03

    def test_higher_target_needs_more_iterations(self):
        g = fully_indecomposable(500, 4.0, seed=2)
        low = scale_for_quality(g, 0.40)
        high = scale_for_quality(g, 0.62)
        assert high.scaling.iterations >= low.scaling.iterations

    def test_budget_expiry_reports_honest_certificate(self):
        # A matrix with an empty column can never certify q > 0: the min
        # nonempty-column rule ignores it, but a column with a single
        # shared row keeps min sums low under a tiny budget.
        a = np.array([[1, 1, 1], [1, 0, 0], [1, 0, 0]])
        g = from_dense(a)
        qs = scale_for_quality(g, 0.62, max_iterations=1)
        assert not qs.target_met or qs.scaling.iterations <= 1
        assert 0.0 <= qs.certified_quality <= ONE_SIDED_GUARANTEE

    @pytest.mark.parametrize(
        "family",
        [
            lambda: union_of_permutations(3000, 3, seed=1),  # total support
            lambda: sprand(3000, 4.0, seed=2),
            lambda: sprand(600, 2.0, seed=3),
        ],
        ids=["union", "sprand-d4", "sprand-d2"],
    )
    @pytest.mark.parametrize("warm", [False, True])
    def test_runs_the_sk_loop_bitwise(self, family, warm):
        """scale_for_quality is the shared SK loop with a certificate
        stop: its factors and error equal a fixed-budget run of the same
        number of sweeps from the same start, bit for bit."""
        g = family()
        initial = None
        if warm:
            # A perturbed warm start, as after an edit batch.
            rng = np.random.default_rng(0)
            prior = scale_sinkhorn_knopp(g, 2, degradation=False)
            initial = (
                prior.dr * rng.uniform(0.5, 2.0, g.nrows),
                prior.dc * rng.uniform(0.5, 2.0, g.ncols),
            )
        qs = scale_for_quality(g, 0.6, initial=initial)
        ref = scale_sinkhorn_knopp(
            g, qs.scaling.iterations, degradation=False, initial=initial
        )
        np.testing.assert_array_equal(qs.scaling.dr, ref.dr)
        np.testing.assert_array_equal(qs.scaling.dc, ref.dc)
        assert qs.scaling.error == ref.error

    def test_zero_target_trivially_met(self):
        g = sprand(100, 3.0, seed=0)
        qs = scale_for_quality(g, 0.0)
        assert qs.target_met
        assert qs.scaling.iterations == 0
