import numpy as np
import pytest

import roughpath as rp
from roughpath import quadrature
from roughpath.quadrature import refine_batch


class TestPanels:
    def test_polynomial_exactness(self):
        # Gauss-Legendre with 8 nodes integrates degree-15 polynomials exactly
        eval_xs = lambda owner, x: x**15 + 3.0 * x**7
        got = refine_batch(eval_xs, [0.0], [2.0])[0]
        exact = 2.0**16 / 16.0 + 3.0 * 2.0**8 / 8.0
        assert got == pytest.approx(exact, rel=1e-14)

    def test_signed_bounds(self):
        eval_xs = lambda owner, x: x
        fwd = refine_batch(eval_xs, [0.0], [1.0])[0]
        rev = refine_batch(eval_xs, [1.0], [0.0])[0]
        assert fwd == pytest.approx(0.5)
        assert rev == pytest.approx(-0.5)

    def test_batch_rows_independent(self):
        eval_xs = lambda owner, x: (owner[:, None] + 1.0) * np.ones_like(x)
        got = refine_batch(eval_xs, [0.0, 0.0], [1.0, 2.0])
        assert np.allclose(got, [1.0, 4.0])


class TestRefinement:
    def test_smooth_function(self):
        got = refine_batch(lambda owner, x: np.sin(x), [0.0], [np.pi], tol=1e-12)[0]
        assert got == pytest.approx(2.0, abs=1e-11)

    def test_endpoint_singularity(self):
        got = refine_batch(lambda owner, x: np.abs(x) ** 0.3, [0.0], [1.0], tol=1e-14)[0]
        assert got == pytest.approx(1.0 / 1.3, rel=1e-10)

    def test_split_budget_exhaustion(self, monkeypatch):
        # a fast oscillation cannot settle below an impossible tolerance
        # within two splits
        monkeypatch.setattr(quadrature, "_MAX_SPLITS", 2)
        eval_xs = lambda owner, x: np.sin(50.0 * x)
        with pytest.raises(rp.QuadratureFailure):
            refine_batch(eval_xs, [0.0], [1.0], tol=1e-16)

    def test_non_finite_band_raises_early(self):
        # NaN only on |x - 0.3| < 1e-4: no coarse panel node lands there, and
        # each split used to double the leaves that carry the NaN up to
        # _MAX_SPLITS (48)
        rows = []

        def eval_xs(owner, x):
            rows.append(x.shape[0])
            assert sum(rows) < 1000, "refinement keeps splitting a non-finite leaf"
            with np.errstate(invalid="ignore"):
                return np.sqrt(np.abs(x - 0.3) - 1e-4)

        with pytest.raises(rp.NonFinite, match=r"interval 1: \[0.25, 0.5\]"):
            refine_batch(eval_xs, [0.0, 0.25, 0.5], [0.25, 0.5, 1.0])

    def test_leaf_budget_stops_runaway_refinement(self):
        # exp(1000 x) is finite on [0, 0.7] but its panel errors never fall
        # under an absolute 1e-10; without a budget every split doubles the
        # leaves until _MAX_SPLITS (48)
        def eval_xs(owner, x):
            assert x.shape[0] <= quadrature._MAX_LEAVES, "refinement outgrew the leaf budget"
            return np.exp(1000.0 * x)

        with pytest.raises(rp.QuadratureFailure):
            refine_batch(eval_xs, [0.0], [0.7])

    def test_batch_owners_accumulate(self):
        eval_xs = lambda owner, x: np.ones_like(x)
        got = refine_batch(eval_xs, [0.0, 1.0, -2.0], [2.0, 1.5, -1.0])
        assert np.allclose(got, [2.0, 0.5, 1.0])

    def test_owners_across_slices(self):
        # batches larger than one refinement slice keep the caller's indices
        n = 20000
        eval_xs = lambda owner, x: (owner[:, None] + 1.0) * np.ones_like(x)
        got = refine_batch(eval_xs, np.zeros(n), np.ones(n))
        np.testing.assert_allclose(got, np.arange(1.0, n + 1.0), rtol=1e-13)
