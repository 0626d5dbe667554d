import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import roughpath as rp
from roughpath import quadrature
from roughpath.fields import BUILTIN_FIELDS
from roughpath.quadrature import refine_batch


class TestRule:
    def test_gauss_nodes_and_weights(self):
        # the embedded rule is 7-point Gauss-Legendre on every second node
        xg, wg = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(quadrature._XK[1::2], xg, rtol=0, atol=1e-15)
        np.testing.assert_allclose(quadrature._WG[1::2], wg, rtol=0, atol=1e-15)
        assert not quadrature._WG[0::2].any()

    def test_kronrod_literals_match_scipy(self, monkeypatch):
        _quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
        seen = {}
        monkeypatch.setattr(_quad_vec, "_quadrature_gk",
                            lambda a, b, f, norm, x, w, v: seen.update(x=x, w=w, v=v))
        _quad_vec._quadrature_gk15(-1.0, 1.0, None, None)
        # SciPy lists the nodes from +1 down to -1
        np.testing.assert_array_equal(quadrature._XK, np.array(seen["x"])[::-1])
        np.testing.assert_array_equal(quadrature._WK, np.array(seen["v"])[::-1])
        np.testing.assert_array_equal(quadrature._WG[1::2], np.array(seen["w"])[::-1])

    def test_weights_sum_to_interval_length(self):
        assert quadrature._WK.sum() == pytest.approx(2.0, abs=4e-16)
        assert quadrature._WG.sum() == pytest.approx(2.0, abs=4e-16)


class TestPanels:
    def test_polynomial_exactness(self):
        # K15 and its embedded G7 both integrate degree 13 exactly, so the
        # first panel is accepted: one call on 15 nodes
        shapes = []

        def eval_xs(owner, x):
            shapes.append(x.shape)
            return x**13 + 3.0 * x**7

        got = refine_batch(eval_xs, [0.0], [2.0])[0]
        exact = 2.0**14 / 14.0 + 3.0 * 2.0**8 / 8.0
        assert got == pytest.approx(exact, rel=1e-14)
        assert shapes == [(1, 15)]

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


# x-antiderivatives of the builtins that have one in closed form
_ANTIDERIVATIVES = {
    "tx": lambda t, x: t * x * x / 2.0,
    "sin_t_x": lambda t, x: np.sin(t) * x * x / 2.0,
    "t_plus_x2": lambda t, x: t * x + x**3 / 3.0,
    "sin2x_expx": lambda t, x: np.exp(x) * (np.sin(2.0 * x) - 2.0 * np.cos(2.0 * x)) / 5.0,
}


class TestVerticalAccuracy:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(_ANTIDERIVATIVES)),
        tol=st.sampled_from([1e-6, 1e-10]),
        verticals=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
            min_size=1, max_size=8,
        ),
    )
    def test_verticals_match_closed_forms(self, name, tol, verticals):
        # vertical segments as the staircase kernel asks for them: frozen t,
        # x from lo to hi, reversed when hi < lo
        t, lo, length = (np.array(column) for column in zip(*verticals))
        hi = lo + length
        field = BUILTIN_FIELDS[name]
        got = refine_batch(lambda owner, x: field.evaluate(t[owner][:, None], x), lo, hi, tol)
        F = _ANTIDERIVATIVES[name]
        exact = F(t, hi) - F(t, lo)
        # rounding slack: a few ulps of the antiderivative values, which set
        # the scale of both the closed form and the panel sums
        slack = 32 * np.finfo(float).eps * np.maximum(1.0, np.maximum(abs(F(t, hi)), abs(F(t, lo))))
        assert np.all(np.abs(got - exact) <= tol + slack)
