import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpath as rp
from roughpath.experiments import riemann_stieltjes_oracle


class TestIndexRange:
    def test_full_interval(self):
        # every level-3 cell has its parent inside [0, 1]
        assert rp.index_range(0.0, 1.0, 3) == (0, 7)

    def test_half_interval(self):
        # parents are the level-1 cells inside [0, 1/2]: only [0, 1/2] fits,
        # so cells 0 and 1 are admitted
        assert rp.index_range(0.0, 0.5, 2) == (0, 1)

    def test_refinement_recursion(self):
        # for aligned intervals: n_{k+1}(a) = 2 n_k(a), n_{k+1}(b) = 2 n_k(b) + 1
        for (a, b) in ((0.0, 1.0), (0.25, 0.75), (0.5, 0.625)):
            for k in range(4, 8):
                lo, hi = rp.index_range(a, b, k)
                lo2, hi2 = rp.index_range(a, b, k + 1)
                assert lo2 == 2 * lo and hi2 == 2 * hi + 1

    def test_empty_range_flag(self):
        assert rp.index_range(0.3, 0.3 + 2.0**-6, 4) is None

    def test_bad_interval(self):
        with pytest.raises(rp.BadInterval):
            rp.index_range(0.7, 0.2, 3)


class TestStaircaseIntegral:
    def test_constant_field_telescopes(self):
        field = rp.ScalarField.t_only(lambda t: np.ones_like(t))
        pyr = rp.gen_brownian(10, 3).pyramid()
        for k in (2, 5, 8):
            lo, hi = rp.index_range(0.0, 1.0, k)
            v = rp.staircase_integral(field, pyr, 0.0, 1.0, k)
            h = pyr.level(k)
            assert v == pytest.approx(h[hi] - h[lo], abs=1e-14)

    def test_state_field_on_linear_path(self):
        # level-k value (1 - 2**-k)/2 converges to the oracle 1/2
        pyr = rp.gen_analytic("linear", 12).pyramid()
        for k in (4, 8, 10):
            v = rp.staircase_integral(rp.BUILTIN_FIELDS["x"], pyr, 0.0, 1.0, k)
            assert v == pytest.approx(0.5 * (1.0 - 2.0**-k), abs=1e-12)

    def test_time_field_matches_brute_force(self):
        pyr = rp.gen_brownian(10, 8).pyramid()
        k = 6
        h = pyr.level(k)
        lo, hi = rp.index_range(0.0, 1.0, k)
        brute = sum(
            np.sin(n * 2.0**-k) * (h[n] - h[n - 1]) for n in range(lo + 1, hi + 1)
        )
        field = rp.ScalarField.t_only(np.sin)
        assert rp.staircase_integral(field, pyr, 0.0, 1.0, k) == pytest.approx(brute, rel=1e-13)

    def test_closures_reach_path_endpoints(self):
        # with closures, a state-only field telescopes to g(b)..g(a) exactly
        path = rp.gen_brownian(10, 12)
        pyr = path.pyramid()
        v = rp.staircase_integral(
            rp.BUILTIN_FIELDS["x"], pyr, 0.0, 1.0, 5,
            endpoint_values=(path.eval(0.0), path.eval(1.0)),
        )
        assert v == pytest.approx(0.5 * path.eval(1.0) ** 2, abs=1e-12)

    def test_level_guard(self):
        pyr = rp.gen_analytic("linear", 6).pyramid()
        with pytest.raises(rp.LevelOutOfRange):
            rp.staircase_integral(rp.BUILTIN_FIELDS["x"], pyr, 0.0, 1.0, 6)


class TestIntegrate:
    def test_smooth_young_pair(self):
        path = rp.gen_analytic("square", 14)
        res = rp.integrate(rp.BUILTIN_FIELDS["sin_t_x"], path, 0.0, 1.0,
                           rp.ConvergenceConfig(tol=1e-7))
        oracle = riemann_stieltjes_oracle(
            lambda t, x: np.sin(t) * x, lambda t: t * t, lambda t: 2.0 * t, 0.0, 1.0, 1e-12
        )
        assert res.converged
        assert res.value == pytest.approx(oracle, abs=5e-7)

    def test_brownian_state_field_fast_path(self):
        path = rp.gen_brownian(12, 31)
        res = rp.integrate(rp.BUILTIN_FIELDS["x"], path, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(0.5 * path.eval(1.0) ** 2, abs=1e-7)

    def test_linearity(self):
        path = rp.gen_analytic("sine", 12)
        cfg = rp.ConvergenceConfig(tol=1e-9, max_level=9)
        f1 = rp.BUILTIN_FIELDS["x"]
        f2 = rp.BUILTIN_FIELDS["sin_t_x"]
        combo = rp.ScalarField(
            evaluate=lambda t, x: 2.0 * f1.evaluate(t, x) - 3.0 * f2.evaluate(t, x),
            depends_on="both",
        )
        lhs = rp.integrate(combo, path, 0.0, 1.0, cfg).value
        rhs = (
            2.0 * rp.integrate(f1, path, 0.0, 1.0, cfg).value
            - 3.0 * rp.integrate(f2, path, 0.0, 1.0, cfg).value
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_additivity_at_inner_point(self):
        path = rp.gen_analytic("sine", 14)
        cfg = rp.ConvergenceConfig(tol=1e-8)
        c = 0.375
        whole = rp.integrate(rp.BUILTIN_FIELDS["sin_t_x"], path, 0.0, 1.0, cfg).value
        left = rp.integrate(rp.BUILTIN_FIELDS["sin_t_x"], path, 0.0, c, cfg).value
        right = rp.integrate(rp.BUILTIN_FIELDS["sin_t_x"], path, c, 1.0, cfg).value
        assert left + right == pytest.approx(whole, abs=2e-8)

    def test_non_dyadic_interval(self):
        path = rp.gen_analytic("square", 14)
        res = rp.integrate(rp.BUILTIN_FIELDS["tx"], path, 0.3, 0.9,
                           rp.ConvergenceConfig(tol=1e-7))
        oracle = riemann_stieltjes_oracle(
            lambda t, x: t * x, lambda t: t * t, lambda t: 2.0 * t, 0.3, 0.9, 1e-12
        )
        assert res.value == pytest.approx(oracle, abs=1e-5)

    def test_starts_at_first_nonempty_level(self):
        # a short interval has no admissible cells at coarse levels; the limit
        # simply begins where the first parent fits
        path = rp.gen_analytic("square", 14)
        res = rp.integrate(rp.BUILTIN_FIELDS["x"], path, 0.3, 0.32,
                           rp.ConvergenceConfig(tol=1e-9, min_level=2))
        assert res.levels[0] > 2
        gs, ga = path.eval(0.32), path.eval(0.3)
        assert res.value == pytest.approx(0.5 * (gs * gs - ga * ga), abs=1e-8)

    def test_not_converged_flag(self):
        path = rp.gen_brownian(10, 2)
        res = rp.integrate(rp.BUILTIN_FIELDS["sin_t_x"], path, 0.0, 1.0,
                           rp.ConvergenceConfig(tol=1e-14))
        assert not res.converged
        assert np.isfinite(res.value)

    def test_error_estimate_is_sound(self):
        path = rp.gen_analytic("linear", 14)
        field = rp.ScalarField(
            evaluate=lambda t, x: np.sin(t) * x,
            depends_on="both",
            holder_beta_in_t=0.9,
            holder_const_in_t=1.0,
            sup_bound=1.0,
        )
        holder = rp.holder_seminorm(path, 1.0)
        res = rp.integrate(field, path, 0.0, 1.0, rp.ConvergenceConfig(tol=1e-9),
                           holder=holder)
        oracle = riemann_stieltjes_oracle(
            lambda t, x: np.sin(t) * x, lambda t: t, lambda t: 1.0, 0.0, 1.0, 1e-12
        )
        assert res.error_estimate is not None
        assert abs(res.value - oracle) <= res.error_estimate

    def test_min_resolution_guard(self):
        with pytest.raises(rp.LevelOutOfRange):
            rp.integrate(rp.BUILTIN_FIELDS["x"], rp.gen_analytic("linear", 3), 0.0, 1.0)

    def test_rejects_non_finite_field(self):
        path = rp.gen_analytic("linear", 8)
        bad = rp.ScalarField(evaluate=lambda t, x: 1.0 / (t - 0.5), depends_on="both")
        with np.errstate(divide="ignore"), pytest.raises(rp.NonFinite):
            rp.integrate(bad, path, 0.0, 1.0)


class TestStateOnly:
    def test_power_identity(self):
        path = rp.gen_brownian(14, 45)
        gs = path.eval(1.0)
        for beta in (0.3, 0.7):
            got = rp.integrate_state_only(lambda x: np.abs(x) ** beta, path, 0.0, 1.0)
            exact = np.sign(gs) * np.abs(gs) ** (beta + 1.0) / (beta + 1.0)
            assert got == pytest.approx(exact, rel=1e-9)

    def test_sin_exp_identity(self):
        path = rp.gen_analytic("sine", 12)
        gs = path.eval(1.0)
        got = rp.integrate_state_only(lambda x: np.sin(2.0 * x) * np.exp(x), path, 0.0, 1.0)
        anti = lambda x: np.exp(x) * (np.sin(2.0 * x) - 2.0 * np.cos(2.0 * x)) / 5.0
        assert got == pytest.approx(anti(gs) - anti(0.0), rel=1e-10)

    def test_equal_endpoints(self):
        path = rp.gen_analytic(lambda t: t * (1.0 - t), 10)
        assert rp.integrate_state_only(lambda x: x * x, path, 0.0, 1.0) == 0.0


class TestAdversarialIntegrand:
    def test_constant_path_gives_zero(self):
        pyr = rp.DyadicPath(np.full(2**10 + 1, 5.0), 10).pyramid()
        f_path, predicted = rp.adversarial_integrand(pyr, 0.5, 5)
        assert predicted == 0.0
        assert np.all(f_path.samples == 0.0)

    def test_exact_identity(self):
        for seed in (1, 2):
            pyr = rp.gen_brownian(11, seed).pyramid()
            f_path, predicted = rp.adversarial_integrand(pyr, 0.5, 3)
            got = rp.staircase_integral(
                rp.ScalarField.from_path(f_path), pyr, 0.0, 1.0, 3
            )
            assert got == pytest.approx(predicted, rel=1e-12)

    def test_beta_sweep_dichotomy_proxy(self):
        # increments keep growing below the critical exponent, shrink above it
        pyr = rp.gen_brownian(16, 11).pyramid()
        for beta, growing in ((0.4, True), (0.6, False)):
            preds = [rp.adversarial_integrand(pyr, beta, km)[1] for km in range(9, 15)]
            inc = np.diff(preds)
            tail = inc[-4:]
            if growing:
                assert np.all(np.diff(tail) > 0)
            else:
                assert np.all(np.diff(tail) < 0)

    def test_level_guard(self):
        pyr = rp.gen_brownian(8, 0).pyramid()
        with pytest.raises(rp.LevelOutOfRange):
            rp.adversarial_integrand(pyr, 0.5, 7)


class TestIndefiniteIntegral:
    def test_constant_field_reproduces_path(self):
        path = rp.gen_brownian(12, 19)
        curve = rp.indefinite_integral(rp.ScalarField.t_only(lambda t: np.ones_like(t)),
                                       path, 8)
        expect = path.eval(curve[:, 0]) - path.eval(0.0)
        assert np.abs(curve[:, 1] - expect).max() < 1e-12

    def test_state_field_on_linear_path(self):
        curve = rp.indefinite_integral(rp.BUILTIN_FIELDS["x"],
                                       rp.gen_analytic("linear", 12), 6)
        assert np.abs(curve[:, 1] - 0.5 * curve[:, 0] ** 2).max() < 1e-9

    def test_additivity_against_integrate(self):
        path = rp.gen_analytic("square", 12)
        cfg = rp.ConvergenceConfig(tol=1e-8)
        curve = rp.indefinite_integral(rp.BUILTIN_FIELDS["sin_t_x"], path, 5, cfg)
        c = round(2.0**5 / 3.0) / 2.0**5  # grid point nearest 1/3
        i = int(round(c * 2.0**5))
        part = rp.integrate(rp.BUILTIN_FIELDS["sin_t_x"], path, 0.0, c, cfg).value
        assert curve[i, 1] == pytest.approx(part, abs=2e-8)

    def test_grid_guard(self):
        with pytest.raises(rp.LevelOutOfRange):
            rp.indefinite_integral(rp.BUILTIN_FIELDS["x"], rp.gen_analytic("linear", 6), 5)


KERNEL_FIELDS = {
    "t_only": rp.ScalarField.t_only(lambda t: np.cos(3.0 * t) + t),
    "x": rp.BUILTIN_FIELDS["x"],
    "sin_t_x": rp.BUILTIN_FIELDS["sin_t_x"],
}


@st.composite
def aligned_cases(draw):
    """A Brownian path, a field, a grid level G and a level-G aligned [a, b]."""
    K = draw(st.integers(8, 12))
    G = draw(st.integers(1, K - 2))
    ia = draw(st.integers(0, (1 << G) - 1))
    ib = draw(st.integers(ia + 1, 1 << G))
    path = rp.gen_brownian(K, draw(st.integers(0, 2**16)))
    field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    return path, field, G, ia / 2.0**G, ib / 2.0**G


class TestStaircaseKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(aligned_cases())
    def test_increments_match_one_block_sums(self, case):
        # a many-block call equals one one-block call per block at the same level
        path, field, G, a, b = case
        k = max(path.resolution_level - 2, G + 1)   # the level cumulative_increments uses
        inc = rp.cumulative_increments(field, path, a, b, G)
        t = np.linspace(a, b, inc.size + 1)
        single = [
            rp.staircase_integral(field, path.pyramid(), t[i], t[i + 1], k,
                                  endpoint_values=(path.eval(t[i]), path.eval(t[i + 1])))
            for i in range(inc.size)
        ]
        scale = max(1.0, np.abs(single).max())
        assert np.abs(inc - single).max() <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(aligned_cases())
    def test_increments_add_up_to_the_whole(self, case):
        # inner closures cancel: the block sums add up to the closed sum over
        # [a, b], up to one quadrature tolerance per block
        path, field, G, a, b = case
        k = max(path.resolution_level - 2, G + 1)   # the level cumulative_increments uses
        inc = rp.cumulative_increments(field, path, a, b, G)
        whole = rp.staircase_integral(field, path.pyramid(), a, b, k,
                                      endpoint_values=(path.eval(a), path.eval(b)))
        assert abs(inc.sum() - whole) <= rp.QuadratureConfig().tol * inc.size + 1e-13
