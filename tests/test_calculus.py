import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpath as rp
from roughpath import calculus
from roughpath.experiments import simpson_oracle
from roughpath.integrator import _index_range


def _gauss_legendre_8(digits: int):
    """Nodes and weights of 8-point Gauss-Legendre on [-1, 1], in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    n = 8
    with mpmath.workdps(digits):
        p = lambda x: mpmath.legendre(n, x)
        dp = lambda x: n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
        half = []
        for i in range(1, n // 2 + 1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
            for _ in range(30):   # Newton from the Tricomi guess
                x -= p(x) / dp(x)
            half.append(x)
        nodes = sorted([-x for x in half] + half)
        weights = [2 / ((1 - x * x) * dp(x) ** 2) for x in nodes]
        return [float(x) for x in nodes], [float(w) for w in weights]


class TestGaussRule:
    def test_literals_are_numpys_leggauss(self):
        # bit for bit, so every time integral keeps the values it had
        xi, w = np.polynomial.legendre.leggauss(8)
        assert calculus._XI.tobytes() == xi.tobytes()
        assert calculus._W.tobytes() == w.tobytes()

    def test_literals_match_mpmath(self):
        # the nodes are within 1 ulp of their 40-digit values; leggauss's
        # weights are up to 58 ulp (8e-16) off, which the literals keep
        nodes, weights = _gauss_legendre_8(40)
        np.testing.assert_array_max_ulp(calculus._XI, np.array(nodes), maxulp=1)
        np.testing.assert_allclose(calculus._W, weights, rtol=0, atol=1e-15)
        assert calculus._W.sum() == pytest.approx(2.0, abs=4e-16)


class TestGreenEval:
    def test_state_only_collapses_to_definite_integral(self):
        path = rp.gen_brownian(12, 5)
        res = rp.green_eval(rp.BUILTIN_FIELDS["x2"], path, 1.0)
        gs = path.eval(1.0)
        assert res.area_term == 0.0
        assert res.total == pytest.approx(gs**3 / 3.0, abs=1e-9)
        assert res.total == res.chord_term

    def test_time_only_is_integration_by_parts(self):
        # f(t) = sin t on a smooth path: total = f(s)g(s) - integral g df
        path = rp.gen_analytic("square", 12)
        field = rp.ScalarField.t_only(np.sin, dt_partial=np.cos)
        res = rp.green_eval(field, path, 1.0)
        expect = np.sin(1.0) * path.eval(1.0) - simpson_oracle(
            lambda t: t * t * np.cos(t), 0.0, 1.0, 1e-12
        )
        # tolerance absorbs the K=12 interpolation bias of the sampled square path
        assert res.total == pytest.approx(expect, abs=5e-8)

    def test_mixed_field_against_oracle(self):
        res = rp.green_eval(rp.BUILTIN_FIELDS["tx"], rp.gen_analytic("linear", 12), 1.0)
        assert res.total == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert res.chord_slope == pytest.approx(1.0)

    def test_constant_field_on_linear_path_is_exact(self):
        # 4096 cells of width 2**-12: the per-cell sums must not drift off 1
        res = rp.green_eval(rp.BUILTIN_FIELDS["one"], rp.gen_analytic("linear", 12), 1.0)
        assert res.total == 1.0

    def test_matches_direct_integral(self):
        path = rp.gen_analytic("square", 14)
        field = rp.BUILTIN_FIELDS["sin_t_x"]
        direct = rp.integrate(field, path, 0.0, 1.0, rp.ConvergenceConfig(tol=1e-8))
        green = rp.green_eval(field, path, 1.0)
        assert abs(direct.value - green.total) < 1e-7

    def test_matches_direct_on_oscillatory_time_field(self):
        path = rp.gen_oscillatory(0.45, 0.45, 0.0, 3, 12)
        field = rp.ScalarField.t_only(np.cos, dt_partial=lambda t: -np.sin(t))
        direct = rp.integrate(field, path, 0.0, 1.0, rp.ConvergenceConfig(tol=1e-10))
        green = rp.green_eval(field, path, 1.0)
        assert abs(direct.value - green.total) < 1e-6

    def test_nonzero_start_is_shifted(self):
        base = rp.gen_analytic("linear", 10)
        lifted = rp.DyadicPath(base.samples + 2.0, 10)
        res_base = rp.green_eval(rp.BUILTIN_FIELDS["x2"], base, 1.0)
        res = rp.green_eval(rp.BUILTIN_FIELDS["x2"], lifted, 1.0)
        # integral of x^2 dx from 2 to 3
        assert res.total == pytest.approx(27.0 / 3.0 - 8.0 / 3.0, abs=1e-9)
        assert res_base.total == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_missing_derivative(self):
        field = rp.ScalarField(evaluate=lambda t, x: t * x, depends_on="both")
        with pytest.raises(rp.MissingDerivative):
            rp.green_eval(field, rp.gen_analytic("linear", 8), 1.0)

    def test_bad_s(self):
        with pytest.raises(rp.BadInterval):
            rp.green_eval(rp.BUILTIN_FIELDS["x"], rp.gen_analytic("linear", 8), 0.0)

    @pytest.mark.parametrize("s", [1.0, 0.5, 0.3, 0.123456789])
    @pytest.mark.parametrize("path", [rp.gen_brownian(12, 7), rp.gen_analytic("square", 10)],
                             ids=["brownian", "square"])
    def test_time_only_matches_parts_on_and_off_grid(self, path, s):
        for field in (rp.ScalarField.t_only(np.sin, dt_partial=np.cos),
                      rp.ScalarField.t_only(np.exp, dt_partial=np.exp)):
            green = rp.green_eval(field, path, s).total
            parts = rp.integration_by_parts(field, path, s)
            assert abs(green - parts) <= 1e-13 * (1.0 + np.abs(path.samples).max())


# Fields with a time partial, for the Green route on paths that start anywhere:
# three builtins and the integrate-rough benchmark expression.
GREEN_FIELDS = {
    "tx": rp.BUILTIN_FIELDS["tx"],
    "sin_t_x": rp.BUILTIN_FIELDS["sin_t_x"],
    "t_plus_x2": rp.BUILTIN_FIELDS["t_plus_x2"],
    "expr": rp.ScalarField(
        evaluate=lambda t, x: np.sin(3.0 * t) * np.exp(-x * x) + t * x,
        depends_on="both",
        dt_partial=lambda t, x: 3.0 * np.cos(3.0 * t) * np.exp(-x * x) + x,
    ),
}
# sup |dt_partial(t, x)| over t in [0, 1] and |x| <= m
DT_PARTIAL_BOUND = {
    "tx": lambda m: m,
    "sin_t_x": lambda m: m,
    "t_plus_x2": lambda m: 1.0,
    "expr": lambda m: 3.0 + m,
}


def shift_and_wrap(field, path, s):
    """The Green route as it was while it needed g(0) = 0: the path shifted to
    start at 0 and the field read at x + g(0)."""
    g0 = float(path.samples[0])
    f, dt = field.evaluate, field.dt_partial
    wrapped = rp.ScalarField(evaluate=lambda t, x: f(t, x + g0), depends_on=field.depends_on,
                             dt_partial=lambda t, x: dt(t, x + g0))
    return rp.green_eval(wrapped, rp.DyadicPath(path.samples - g0, path.resolution_level), s)


def staircase_area_bound(path, s, k):
    """An upper bound of the area between the path and the closed level-k
    staircase that ``integrate`` sums over [0, s].

    On each admitted cell the staircase sits at the cell average, inside the
    range of the path's samples there; from the admitted cells' end t_end to
    s it is the horizontal at g(s), inside the range of the samples on
    [t_end, s].  Each piece adds its width times that range.
    """
    K = path.resolution_level
    step = 1 << (K - k)
    n_end = _index_range(0.0, s, k)[1] + 1
    covered = path.samples[: n_end * step + 1]
    cells = np.lib.stride_tricks.sliding_window_view(covered, step + 1)[::step]
    area = float((cells.max(axis=1) - cells.min(axis=1)).sum()) * 2.0 ** -k
    tail = path.samples[n_end * step : math.ceil(s * (1 << K)) + 1]
    return area + (s - n_end * 2.0 ** -k) * float(tail.max() - tail.min())


@st.composite
def offset_green_cases(draw):
    """A Brownian path with K <= 12 lifted by c in [-5, 5], a field and s on
    or off the grid."""
    K = draw(st.integers(5, 12))
    base = rp.gen_brownian(K, draw(st.integers(0, 2**32 - 1)))
    c = draw(st.floats(-5.0, 5.0))
    if draw(st.booleans()):
        s = draw(st.integers(1, 1 << K)) / (1 << K)
    else:
        s = draw(st.floats(1e-3, 1.0))
    return rp.DyadicPath(base.samples + c, K), draw(st.sampled_from(sorted(GREEN_FIELDS))), s


class TestGreenEvalFromAnyStart:
    @settings(max_examples=80, deadline=None)
    @given(offset_green_cases())
    def test_matches_shifted_route_and_staircase(self, case):
        path, name, s = case
        field = GREEN_FIELDS[name]
        got = rp.green_eval(field, path, s)
        # The chord from (0, g(0)) gives the shifted route's value up to
        # rounding: 1e-13 relative to the larger term, or to m * (1 + m)**2
        # with m = max |g|.  That floor covers the slope (g(s) - g(0)) / s,
        # whose rounding error of order eps * m / s the chord integral of f,
        # up to s * (1 + m)**2, turns into an absolute error.
        ref = shift_and_wrap(field, path, s)
        m = float(np.abs(path.samples).max())
        size = max(abs(ref.chord_term), abs(ref.area_term), m * (1.0 + m) ** 2)
        for a, b in ((got.total, ref.total), (got.chord_term, ref.chord_term),
                     (got.area_term, ref.area_term)):
            assert abs(a - b) <= 1e-13 * size
        # Green against the finest staircase level K - 2.  Both curves run from
        # (0, g(0)) to (., g(s)) and horizontal stretches add nothing to
        # f dx, so the two integrals differ by the integral of dt_partial over
        # the region between them: at most sup |dt_partial| times its area.
        # Each vertical adds its quadrature tolerance 1e-10; 1e-9 covers the
        # Gauss rules of the Green route.  One level, not the level loop: off
        # the grid, levels that end at the same cell can agree to rounding for
        # a field linear in t, and the loop then stops before the finest level.
        k = path.resolution_level - 2
        if _index_range(0.0, s, k) is None:
            return
        direct = rp.integrate(field, path, 0.0, s, rp.ConvergenceConfig(min_level=k))
        assert direct.levels == (k, k)
        sup_dt = DT_PARTIAL_BOUND[name](m)
        allowed = sup_dt * staircase_area_bound(path, s, k) + 1e-10 * (2**k + 2) + 1e-9
        assert abs(direct.value - got.total) <= allowed


class TestIntegrationByParts:
    def test_constant_field(self):
        path = rp.gen_brownian(10, 9)
        field = rp.ScalarField.t_only(
            lambda t: np.ones_like(t), dt_partial=lambda t: np.zeros_like(t)
        )
        got = rp.integration_by_parts(field, path, 1.0)
        assert got == pytest.approx(path.eval(1.0) - path.eval(0.0), abs=1e-12)

    def test_linear_pair(self):
        field = rp.ScalarField.t_only(lambda t: t, dt_partial=lambda t: np.ones_like(t))
        got = rp.integration_by_parts(field, rp.gen_analytic("linear", 12), 1.0)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_cross_module_on_brownian(self):
        # parts route and staircase route agree once the diagnostic converges
        path = rp.gen_brownian(16, 14)
        assert rp.existence_report(path.pyramid(), 0.9).verdict == "converging"
        field = rp.ScalarField.t_only(np.sin, dt_partial=np.cos)
        parts = rp.integration_by_parts(field, path, 1.0)
        direct = rp.integrate(field, path, 0.0, 1.0, rp.ConvergenceConfig(tol=1e-10))
        assert abs(parts - direct.value) < 1e-3

    def test_requires_time_only(self):
        with pytest.raises(rp.BadInterval):
            rp.integration_by_parts(rp.BUILTIN_FIELDS["tx"], rp.gen_analytic("linear", 8), 1.0)

    def test_requires_the_derivative(self):
        with pytest.raises(rp.MissingDerivative):
            rp.integration_by_parts(rp.ScalarField.t_only(np.sin), rp.gen_analytic("linear", 8),
                                    1.0)

    @pytest.mark.parametrize("s", [0.0, 1.5])
    def test_bad_s(self, s):
        field = rp.ScalarField.t_only(np.sin, dt_partial=np.cos)
        with pytest.raises(rp.BadInterval, match="s must lie"):
            rp.integration_by_parts(field, rp.gen_analytic("linear", 8), s)


class TestItoReference:
    def test_constant_integrand_exact(self):
        path = rp.gen_brownian(10, 3)
        span = path.eval(1.0) - path.eval(0.0)
        for variant in ("ito", "stratonovich"):
            got = rp.ito_reference(lambda x: 3.0 * np.ones_like(x), path, 1.0, variant=variant)
            assert got == pytest.approx(3.0 * span, abs=1e-13)

    def test_smooth_path_both_variants_converge(self):
        path = rp.gen_analytic("sine", 14)
        exact = 0.5 * np.sin(1.0) ** 2
        for variant in ("ito", "stratonovich"):
            errs = [
                abs(rp.ito_reference(lambda x: x, path, 1.0, level=l, variant=variant) - exact)
                for l in (6, 10, 14)
            ]
            # the midpoint variant telescopes exactly for f(x) = x; the
            # left-point variant converges first order in the grid step
            if variant == "ito":
                assert errs[0] > errs[-1]
            assert errs[-1] < 1e-4

    def test_brownian_ito_correction(self):
        # ensemble mean of [state-only value - left sum] tracks s/2
        diffs = []
        for seed in range(80):
            path = rp.gen_brownian(14, 2000 + seed)
            new = rp.integrate_state_only(lambda x: x, path, 0.0, 1.0)
            ito = rp.ito_reference(lambda x: x, path, 1.0)
            diffs.append(new - ito)
        assert np.mean(diffs) == pytest.approx(0.5, abs=0.06)

    def test_partial_step(self):
        path = rp.gen_analytic("linear", 10)
        got = rp.ito_reference(lambda x: np.ones_like(x), path, 0.3, level=4)
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            rp.ito_reference(np.sin, rp.gen_analytic("linear", 8), 1.0, variant="midpoint")

    @pytest.mark.parametrize("level", [-1, 9])
    def test_bad_level(self, level):
        # the cell walk takes levels 0 .. K
        with pytest.raises(rp.LevelOutOfRange, match="discretization level"):
            rp.ito_reference(np.sin, rp.gen_analytic("linear", 8), 1.0, level=level)

    @pytest.mark.parametrize("s", [0.0, -0.25, 1.5])
    def test_bad_s(self, s):
        with pytest.raises(rp.BadInterval, match="s must lie"):
            rp.ito_reference(np.sin, rp.gen_analytic("linear", 8), s)


class TestItoCompare:
    def test_constant_residual_zero(self):
        paths = [rp.gen_brownian(10, i) for i in range(3)]
        rep = rp.ito_compare(lambda x: np.full_like(np.asarray(x, float), 2.0), paths,
                             fprime=lambda x: np.zeros_like(x))
        assert rep["max_abs_residual"] < 1e-12

    def test_identity_field(self):
        paths = [rp.gen_brownian(14, 100 + i) for i in range(40)]
        rep = rp.ito_compare(lambda x: x, paths, fprime=lambda x: np.ones_like(x))
        assert rep["mean_abs_residual"] < 0.02

    def test_takes_any_iterable_of_paths(self):
        # a generator is read once, in order, and gives the list's report
        seeds = range(7, 11)
        listed = rp.ito_compare(lambda x: x * x, [rp.gen_brownian(8, i) for i in seeds])
        streamed = rp.ito_compare(lambda x: x * x, (rp.gen_brownian(8, i) for i in seeds))
        assert streamed["n_paths"] == 4
        assert streamed["residuals"].tobytes() == listed["residuals"].tobytes()
        assert {k: v for k, v in streamed.items() if k != "residuals"} == \
            {k: v for k, v in listed.items() if k != "residuals"}

    @pytest.mark.parametrize("paths", [[], iter(())], ids=["list", "generator"])
    def test_no_paths_is_a_value_error(self, paths):
        with pytest.raises(ValueError, match="at least one path"):
            rp.ito_compare(lambda x: x, paths)

    def test_square_field_finite_difference(self):
        paths = [rp.gen_brownian(14, 50 + i) for i in range(10)]
        analytic = rp.ito_compare(lambda x: x * x, paths, fprime=lambda x: 2.0 * x)
        numeric = rp.ito_compare(lambda x: x * x, paths)
        assert analytic["mean_abs_residual"] == pytest.approx(
            numeric["mean_abs_residual"], abs=1e-5
        )

    def test_stratonovich_matches_state_only_in_the_limit(self):
        paths = [rp.gen_brownian(16, 300 + i) for i in range(15)]
        prev = None
        for level in (8, 12, 16):
            diffs = [
                abs(
                    rp.ito_reference(lambda x: x * x, p, 1.0, level=level,
                                     variant="stratonovich")
                    - rp.integrate_state_only(lambda x: x * x, p, 0.0, 1.0)
                )
                for p in paths
            ]
            mean = float(np.mean(diffs))
            if prev is not None:
                assert mean < prev
            prev = mean
        assert prev < 1e-4


@st.composite
def cell_walks(draw):
    """A Brownian path, a level <= K and an s on or off the level grid."""
    K = draw(st.integers(1, 12))
    level = draw(st.integers(1, K))
    path = rp.gen_brownian(K, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        s = draw(st.integers(1, 1 << level)) / 2.0**level
    else:
        m = draw(st.integers(0, (1 << level) - 1))
        s = (m + draw(st.floats(0.001, 0.999))) / 2.0**level
    return path, level, s


def _bound(path):
    return 1e-13 * (1.0 + np.abs(path.samples).max())


class TestCellWalkProperties:
    @settings(max_examples=60, deadline=None)
    @given(cell_walks())
    def test_time_integral_is_the_area_under_the_path(self, case):
        # whole-cell trapezoids plus the partial trapezoid closed at g(s)
        path, _, s = case
        g, n = path.samples, path.samples.size - 1
        j = int(np.floor(s * n))
        area = 0.5 / n * np.sum(g[:j] + g[1 : j + 1])
        area += 0.5 * (s - j / n) * (g[j] + path.eval(s))
        assert abs(rp.time_integral_of_state(lambda x: x, path, s) - area) <= _bound(path)

    @settings(max_examples=60, deadline=None)
    @given(cell_walks())
    def test_ito_sums_telescope(self, case):
        path, level, s = case
        g0, gs = path.samples[0], path.eval(s)
        strat = rp.ito_reference(lambda x: x, path, s, level=level, variant="stratonovich")
        assert abs(strat - 0.5 * (gs**2 - g0**2)) <= _bound(path)
        for variant in ("ito", "stratonovich"):
            ones = rp.ito_reference(np.ones_like, path, s, level=level, variant=variant)
            assert abs(ones - (gs - g0)) <= _bound(path)
        # the left-point sum of x falls short by half the squared level increments
        coarse = path.samples[:: 1 << (path.resolution_level - level)]
        j = int(np.floor(s * 2**level))
        steps = np.append(np.diff(coarse[: j + 1]), gs - coarse[j])
        ito = rp.ito_reference(lambda x: x, path, s, level=level)
        assert abs(ito - (strat - 0.5 * np.sum(steps**2))) <= _bound(path)
