import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import roughpath as rp
from roughpath import quadrature
from roughpath.fields import BUILTIN_FIELDS, field_from_expression
from roughpath.quadrature import refine_batch


def _kronrod_3_7(digits: int):
    """K7 nodes at and right of 0 (outermost first), K7 and G3 weights, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        # the Stieltjes polynomial x**4 + a x**2 + b is orthogonal to x and x**3
        # under the weight P3(x) = (5x**3 - 3x)/2; exact moments
        # int_{-1}^{1} P3(x) x**k dx for odd k
        m = lambda k: mpmath.mpf(5) / (k + 4) - mpmath.mpf(3) / (k + 2)
        a = -m(5) / m(3)
        b = -(m(7) + a * m(5)) / m(3)
        root = mpmath.sqrt(a * a - 4 * b)
        half = [mpmath.sqrt((-a + root) / 2), mpmath.sqrt(mpmath.mpf(3) / 5),
                mpmath.sqrt((-a - root) / 2), mpmath.mpf(0)]
        nodes = [-x for x in half[:-1]] + half[::-1]

        def weights(xs):
            # interpolatory: exact for 1, x, ..., x**(len(xs) - 1)
            vander = mpmath.matrix([[x**k for x in xs] for k in range(len(xs))])
            moments = mpmath.matrix([mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
                                     for k in range(len(xs))])
            return mpmath.lu_solve(vander, moments)

        wk = weights(nodes)
        wg = weights(nodes[1::2])
        return ([float(x) for x in half], [float(wk[i]) for i in range(6, 2, -1)],
                [float(wg[i]) for i in range(2, 0, -1)])


class TestRule:
    def test_gauss_nodes_and_weights(self):
        # the embedded rule is 3-point Gauss-Legendre on every second node
        xg, wg = np.polynomial.legendre.leggauss(3)
        np.testing.assert_allclose(quadrature._XK[1::2], xg, rtol=0, atol=1e-15)
        np.testing.assert_allclose(quadrature._WG[1::2], wg, rtol=0, atol=1e-15)
        assert not quadrature._WG[0::2].any()

    def test_kronrod_literals_match_mpmath(self):
        # every literal is the double nearest its 40-digit value
        nodes, wk, wg = _kronrod_3_7(40)
        assert list(quadrature._XK_HALF) == nodes
        assert list(quadrature._WK_HALF) == wk
        assert list(quadrature._WG_HALF) == wg
        np.testing.assert_array_equal(quadrature._XK[3:], nodes[::-1])
        np.testing.assert_array_equal(quadrature._XK[:3], [-x for x in nodes[:3]])

    def test_weights_sum_to_interval_length(self):
        assert quadrature._WK.sum() == pytest.approx(2.0, abs=4e-16)
        assert quadrature._WG.sum() == pytest.approx(2.0, abs=4e-16)

    @pytest.mark.parametrize("weights, degree", [("_WK", 11), ("_WG", 5)])
    def test_degree_of_exactness(self, weights, degree):
        # K7 is exact through degree 11 and G3 through degree 5, and neither
        # one degree further
        w = getattr(quadrature, weights)
        for d in range(degree + 2):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            error = abs(w @ quadrature._XK**d - exact)
            if d <= degree:
                assert error <= 4e-16, d
            else:
                assert error > 1e-4, d


class TestPanels:
    def test_polynomial_exactness(self):
        # K7 integrates degree 11 exactly; its embedded G3 misses the x**11
        # term by about 35.1 on [0, 2], so a tolerance above that accepts the
        # first panel, whose value must be the Kronrod one: one call on 7 nodes
        shapes = []

        def eval_xs(owner, x):
            shapes.append(x.shape)
            return x**11 + 3.0 * x**5

        got = refine_batch(eval_xs, [0.0], [2.0], tol=40.0)[0]
        exact = 2.0**12 / 12.0 + 3.0 * 2.0**6 / 6.0
        assert got == pytest.approx(exact, rel=1e-14)
        assert shapes == [(1, 7)]

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

    def test_overflowing_integrand_raises_without_warnings(self):
        # exp(1000 x) overflows on [0, 1]; the panel sums turn inf into NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rp.NonFinite, match=r"interval 0: \[0, 1\]"):
                refine_batch(lambda owner, x: np.exp(1000.0 * x), [0.0], [1.0])

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


# integrands for verticals long enough to force bisection: the integrand, its
# x-antiderivative, and whether K7 integrates it exactly on every leaf
_LONG = {
    "sin2x_expx": (BUILTIN_FIELDS["sin2x_expx"].evaluate, _ANTIDERIVATIVES["sin2x_expx"], False),
    "cos(5*x)*t": (field_from_expression("cos(5*x)*t").evaluate,
                   lambda t, x: t * np.sin(5.0 * x) / 5.0, False),
    "t*(x/4)**11": (lambda t, x: t * (x / 4.0) ** 11, lambda t, x: t * (x / 4.0) ** 12 / 3.0, True),
}


def _ulp_slack(F, t, lo, hi):
    # a few ulps of the antiderivative values, which set the scale of both the
    # closed form and the panel sums
    return 32 * np.finfo(float).eps * np.maximum(1.0, np.maximum(abs(F(t, hi)), abs(F(t, lo))))


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
        assert np.all(np.abs(got - exact) <= tol + _ulp_slack(F, t, lo, hi))

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(_LONG)),
        tol=st.sampled_from([1e-6, 1e-10]),
        verticals=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(-6.0, 6.0)),
            min_size=1, max_size=8,
        ),
    )
    def test_bisected_verticals_within_leaf_budget(self, name, tol, verticals):
        # every accepted leaf is off by at most tol, so an interval is off by
        # at most tol per panel row it evaluated; on the polynomial K7 is
        # exact on every leaf, so only rounding remains
        t, lo, length = (np.array(column) for column in zip(*verticals))
        hi = lo + length
        f, F, k7_exact = _LONG[name]
        rows = np.zeros(t.size)

        def eval_xs(owner, x):
            rows[:] += np.bincount(owner, minlength=t.size)
            return f(t[owner][:, None], x)

        got = refine_batch(eval_xs, lo, hi, tol)
        exact = F(t, hi) - F(t, lo)
        budget = 0.0 if k7_exact else rows * tol
        assert np.all(np.abs(got - exact) <= budget + _ulp_slack(F, t, lo, hi))


def _reference_refine_slice(eval_xs, lo, hi, first: int, tol: float):
    """The slice kernel without the first-panel return: every slice, also one
    whose intervals all pass at once, runs the bisection loop from zeros."""
    total = np.zeros(lo.size)
    owner = np.arange(lo.size)
    a, b = lo.copy(), hi.copy()
    for split in range(quadrature._MAX_SPLITS + 1):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        x = np.multiply.outer(quadrature._XK, half)
        x += mid
        kronrod, gauss = (quadrature._RULE @ eval_xs(first + owner, x.T).T) * half
        bad = ~np.isfinite(kronrod)
        if bad.any():
            r = owner[bad][0]
            raise rp.NonFinite(
                f"non-finite integrand on interval {first + r}: [{lo[r]:.17g}, {hi[r]:.17g}]"
            )
        done = np.abs(kronrod - gauss) <= tol
        np.add.at(total, owner[done], kronrod[done])
        if done.all():
            return total
        keep = ~done
        owner = np.concatenate([owner[keep], owner[keep]])
        if owner.size > quadrature._MAX_LEAVES:
            raise rp.QuadratureFailure(
                f"{owner.size} subintervals still above tolerance after {split + 1} splits"
            )
        a, b = np.concatenate([a[keep], mid[keep]]), np.concatenate([mid[keep], b[keep]])
    raise rp.QuadratureFailure(
        f"{owner.size} subintervals still above tolerance after {quadrature._MAX_SPLITS} splits"
    )


def _outcome(kernel, f, lo, hi, tol):
    """refine_batch through ``kernel``: its result bytes or error, and the
    bytes of every (owner, x) pair it passed to the integrand."""
    calls = []

    def eval_xs(owner, x):
        calls.append((owner.tobytes(), x.tobytes(), x.shape))
        return f(owner, x)

    with mock.patch.object(quadrature, "_refine_slice", kernel):
        try:
            result = ("value", refine_batch(eval_xs, lo, hi, tol).tobytes())
        except (rp.NonFinite, rp.QuadratureFailure) as exc:
            result = (type(exc).__name__, str(exc))
    return result, calls


def _matches_reference(f, lo, hi, tol=1e-10):
    got = _outcome(quadrature._refine_slice, f, lo, hi, tol)
    want = _outcome(_reference_refine_slice, f, lo, hi, tol)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return got[0]


# integrands for the comparison with the reference kernel: growth that forces
# bisection on long intervals, sign changes (zero-length intervals then give a
# signed zero), the owner index, and a NaN band no coarse panel node hits
_KERNEL_INTEGRANDS = {
    "exp(3x)": lambda owner, x: np.exp(3.0 * x),
    "sin(x)*owner": lambda owner, x: np.sin(x) * (owner[:, None] % 3 - 1.0),
    "-cos(5x)": lambda owner, x: -np.cos(5.0 * x),
    "nan band": lambda owner, x: np.sqrt(np.abs(x - 0.3) - 1e-4),
}


class TestFirstPanelReturn:
    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(sorted(_KERNEL_INTEGRANDS)),
        tol=st.sampled_from([1e-6, 1e-10, 1e-13]),
        intervals=st.lists(
            st.tuples(st.floats(-2.0, 3.0), st.sampled_from([0.0, 1e-3, 0.05, 1.0, 5.0]),
                      st.booleans()),
            min_size=1, max_size=10,
        ),
        filler=st.sampled_from([0, 3, quadrature._SLICE + 5]),
        seed=st.integers(0, 2**16),
    )
    def test_bytes_and_calls_match_reference(self, name, tol, intervals, filler, seed):
        # short intervals that pass at once, optionally more than a slice of
        # them, followed by the drawn ones: long, reversed or of zero length
        rng = np.random.default_rng(seed)
        start = rng.uniform(-2.0, 3.0, filler)
        lo = np.concatenate([start, [a for a, _, _ in intervals]])
        length = np.concatenate([rng.uniform(-1e-3, 1e-3, filler),
                                 [-n if rev else n for _, n, rev in intervals]])
        _matches_reference(_KERNEL_INTEGRANDS[name], lo, lo + length, tol)

    def test_zero_length_interval_gives_positive_zero(self):
        # the Kronrod sum is -2 * 0 = -0.0; the reference adds it into zeros
        got = refine_batch(lambda owner, x: -np.ones_like(x), [1.0], [1.0])
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert _matches_reference(lambda owner, x: -np.ones_like(x), [1.0], [1.0])[0] == "value"

    def test_one_non_finite_interval_among_many(self):
        # two bad intervals in the second slice; the first of them is named
        n = quadrature._SLICE + 100
        lo = np.linspace(0.0, 1.0, n)
        hi = lo + 1e-3
        bad = {quadrature._SLICE + 7, quadrature._SLICE + 40}

        def f(owner, x):
            return np.where(np.isin(owner, list(bad))[:, None], np.nan, np.sin(x))

        with pytest.raises(rp.NonFinite, match=rf"interval {quadrature._SLICE + 7}: "):
            refine_batch(f, lo, hi)
        assert _matches_reference(f, lo, hi)[0] == "NonFinite"

    def test_runaway_refinement_still_fails(self):
        # exp(1000 x) is finite on [0, 0.7], but no panel meets the tolerance
        f = lambda owner, x: np.exp(1000.0 * x)
        with pytest.raises(rp.QuadratureFailure):
            refine_batch(f, [0.0], [0.7])
        assert _matches_reference(f, [0.0], [0.7])[0] == "QuadratureFailure"
