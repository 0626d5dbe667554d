import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpath as rp
from roughpath.experiments import simpson_oracle


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
        lifted = base.shifted(2.0)
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
