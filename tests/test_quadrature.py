import numpy as np
import pytest

import roughpath as rp
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
        got = refine_batch(lambda owner, x: np.sin(x), [0.0], [np.pi],
                           rp.QuadratureConfig(tol=1e-12))[0]
        assert got == pytest.approx(2.0, abs=1e-11)

    def test_endpoint_singularity(self):
        got = refine_batch(
            lambda owner, x: np.abs(x) ** 0.3, [0.0], [1.0], rp.QuadratureConfig(tol=1e-14)
        )[0]
        assert got == pytest.approx(1.0 / 1.3, rel=1e-10)

    def test_split_budget_exhaustion(self):
        # a fast oscillation cannot settle below an impossible tolerance
        # within two splits
        eval_xs = lambda owner, x: np.sin(50.0 * x)
        with pytest.raises(rp.QuadratureFailure):
            refine_batch(eval_xs, [0.0], [1.0], rp.QuadratureConfig(tol=1e-16, max_splits=2))

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
