import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import roughpath as rp
from roughpath import integrator
from roughpath.integrator import _index_range
from roughpath.experiments import riemann_stieltjes_oracle


class TestIndexRange:
    def test_full_interval(self):
        # every level-3 cell has its parent inside [0, 1]
        assert _index_range(0.0, 1.0, 3) == (0, 7)

    def test_half_interval(self):
        # parents are the level-1 cells inside [0, 1/2]: only [0, 1/2] fits,
        # so cells 0 and 1 are admitted
        assert _index_range(0.0, 0.5, 2) == (0, 1)

    def test_refinement_recursion(self):
        # for aligned intervals: n_{k+1}(a) = 2 n_k(a), n_{k+1}(b) = 2 n_k(b) + 1
        for (a, b) in ((0.0, 1.0), (0.25, 0.75), (0.5, 0.625)):
            for k in range(4, 8):
                lo, hi = _index_range(a, b, k)
                lo2, hi2 = _index_range(a, b, k + 1)
                assert lo2 == 2 * lo and hi2 == 2 * hi + 1

    def test_empty_range_flag(self):
        assert _index_range(0.3, 0.3 + 2.0**-6, 4) is None

    def test_bad_interval(self):
        with pytest.raises(rp.BadInterval):
            _index_range(0.7, 0.2, 3)

    def test_level_below_one(self):
        with pytest.raises(rp.LevelOutOfRange, match="k >= 1"):
            _index_range(0.0, 1.0, 0)


class TestStaircaseIntegral:
    def test_constant_field_telescopes(self):
        field = rp.ScalarField.t_only(lambda t: np.ones_like(t))
        pyr = rp.gen_brownian(10, 3).pyramid()
        for k in (2, 5, 8):
            lo, hi = _index_range(0.0, 1.0, k)
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
        lo, hi = _index_range(0.0, 1.0, k)
        brute = sum(
            np.sin(n * 2.0**-k) * (h[n] - h[n - 1]) for n in range(lo + 1, hi + 1)
        )
        field = rp.ScalarField.t_only(np.sin)
        assert rp.staircase_integral(field, pyr, 0.0, 1.0, k) == pytest.approx(brute, rel=1e-13)

    @pytest.mark.parametrize("name", ["cos", "tx", "x"])
    def test_two_cells_are_one_vertical(self, name):
        # two admitted cells leave one interior vertical, a skeleton block
        # with no averages of its own, at the time between the cells
        field = rp.ScalarField.t_only(np.cos) if name == "cos" else rp.BUILTIN_FIELDS[name]
        pyr = rp.gen_brownian(6, 1).pyramid()
        lo, hi = _index_range(0.1, 0.73, 3)
        assert hi == lo + 1
        h, t = pyr.level(3), hi * 2.0**-3
        got = rp.staircase_integral(field, pyr, 0.1, 0.73, 3)
        if name == "cos":
            assert got == np.cos(t) * (h[hi] - h[lo])
        else:
            weight = t if name == "tx" else 1.0
            assert got == pytest.approx(weight * 0.5 * (h[hi] ** 2 - h[lo] ** 2), rel=1e-12)

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

    def test_no_parent_cell_fits(self):
        pyr = rp.gen_analytic("linear", 8).pyramid()
        with pytest.raises(rp.BadInterval, match="no level-4 parent cell"):
            rp.staircase_integral(rp.BUILTIN_FIELDS["x"], pyr, 0.3, 0.3 + 2.0**-6, 4)


# t |x - 0.1|**0.3 bisects the verticals that cross x = 0.1: on gen_brownian(12, 3)
# over [0, 1], 31 panels per level-2 vertical
BISECTING = rp.ScalarField(lambda t, x: t * np.abs(x - 0.1) ** 0.3)


@st.composite
def integrate_cases(draw):
    """A Brownian path at K 6..14, an [a, b] on a dyadic grid or anywhere, a
    field and a tolerance."""
    K = draw(st.integers(6, 14))
    path = rp.gen_brownian(K, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        n = 1 << draw(st.integers(1, K - 3))
        ia = draw(st.integers(0, n - 1))
        a, b = ia / n, draw(st.integers(ia + 1, n)) / n
    else:
        a, b = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
        assume(_index_range(a, b, K - 2) is not None)
    field = draw(st.sampled_from([rp.BUILTIN_FIELDS["tx"], rp.BUILTIN_FIELDS["sin_t_x"],
                                  BISECTING]))
    return path, a, b, field, draw(st.sampled_from([1e-8, 1e-12]))


def quadrature_rows(field, run):
    """Every (t, x nodes) row that quadrature hands ``field`` during ``run(recording)``,
    as one byte string per row, sorted."""
    rows = []

    def record(t, x):
        if np.shape(t)[-1:] == (1,):      # a quadrature call, not the finiteness probe
            rows.append(np.hstack([t, x]))
        return field.evaluate(t, x)

    run(rp.ScalarField(record))
    rows = np.ascontiguousarray(np.concatenate(rows))
    return np.sort(rows.view(np.dtype((np.void, 64))).ravel())


class TestIntegrateLevels:
    """Each level value of ``integrate`` is the closed staircase integral at that level."""

    PATHS = {
        "brownian": lambda: rp.gen_brownian(12, 5),
        "square": lambda: rp.gen_analytic("square", 11),
        "oscillatory": lambda: rp.gen_oscillatory(0.3, 0.3, 0.5, 3, 12),
    }
    FIELDS = {
        "sin_t_x": rp.BUILTIN_FIELDS["sin_t_x"],
        "x2": rp.BUILTIN_FIELDS["x2"],
        "cos_t": rp.ScalarField.t_only(lambda t: np.cos(5.0 * t)),
    }

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.25, 0.75), (0.123456789, 0.87654321),
                                      (0.3, 0.31)])
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("path", PATHS)
    def test_level_values_are_closed_staircase_integrals(self, path, field, a, b):
        path, field = self.PATHS[path](), self.FIELDS[field]
        res = rp.integrate(field, path, a, b, rp.ConvergenceConfig(tol=1e-12))
        ends = (float(path.eval(a)), float(path.eval(b)))
        levels = [k for k in range(res.levels[0], res.levels[1] + 1)
                  if _index_range(a, b, k) is not None]
        want = [rp.staircase_integral(field, path.pyramid(), a, b, k, endpoint_values=ends)
                for k in levels]
        assert res.level_values.tobytes() == np.array(want).tobytes()

    def test_one_admitted_cell_search_per_level(self, monkeypatch):
        calls = []

        def counted(a, b, k):
            calls.append(k)
            return _index_range(a, b, k)

        monkeypatch.setattr(integrator, "_index_range", counted)
        monkeypatch.setattr(integrator, "staircase_integral", None)   # not called
        res = rp.integrate(rp.BUILTIN_FIELDS["tx"], rp.gen_brownian(10, 4), 0.1, 0.9,
                           rp.ConvergenceConfig(tol=1e-12))
        assert calls == list(range(2, res.levels[1] + 1))

    @settings(max_examples=60, deadline=None)
    @example((rp.gen_brownian(12, 3), 0.0, 1.0, BISECTING, 1e-8))
    @given(integrate_cases())
    def test_every_row_sees_its_own_levels_time(self, case):
        # integrate hands quadrature the rows, first panels and bisected leaves
        # alike, that a closed staircase sum of each level on its own does
        path, a, b, field, tol = case
        res = rp.integrate(field, path, a, b, rp.ConvergenceConfig(tol=tol))
        ends = (float(path.eval(a)), float(path.eval(b)))
        levels = [k for k in range(res.levels[0], res.levels[1] + 1)
                  if _index_range(a, b, k) is not None]
        got = quadrature_rows(field, lambda f: rp.integrate(f, path, a, b,
                                                            rp.ConvergenceConfig(tol=tol)))
        want = quadrature_rows(field, lambda f: [
            rp.staircase_integral(f, path.pyramid(), a, b, k, endpoint_values=ends)
            for k in levels])
        assert got.tobytes() == want.tobytes()

    def test_a_failing_level_names_its_own_interval(self):
        # NaN only at the odd multiples of 2**-6: level 6 is the first to meet
        # one, at its own vertical 1, and the error numbers it within that level
        field = rp.ScalarField(lambda t, x: np.where((t * 2**6) % 2 == 1, np.nan, t * x))
        with pytest.raises(rp.NonFinite, match="on interval 1: "):
            rp.integrate(field, rp.gen_brownian(12, 3), 0.0, 1.0, rp.ConvergenceConfig(tol=1e-12))

    def test_no_level_past_the_stop_is_summed(self):
        # levels 2 to 4 stop the loop; NaN at the odd multiples of 2**-9 would
        # raise if it ran on to level 9
        field = rp.ScalarField(lambda t, x: np.where((t * 2**9) % 2 == 1, np.nan, x))
        res = rp.integrate(field, rp.gen_analytic("linear", 12), 0.0, 1.0)
        assert (res.converged, res.levels, res.value) == (True, (2, 4), 0.5)


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
        cfg = rp.ConvergenceConfig(tol=1e-9)
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

    def test_equal_cell_ends_are_no_evidence(self):
        # levels 3 to 5 admit cells that all end at 1/4, so for this field,
        # linear in t, their values agree to rounding; they used to count as
        # two small differences and stop the loop 1.4e-2 from the limit
        path = rp.gen_brownian(10, 1)
        field = rp.BUILTIN_FIELDS["t_plus_x2"]
        res = rp.integrate(field, path, 0.0, 0.3)
        assert res.levels == (3, 8)
        assert np.ptp(res.level_values[:3]) < 1e-15
        assert not res.converged
        assert abs(res.value - rp.green_eval(field, path, 0.3).total) < 2e-4

    def test_min_resolution_guard(self):
        with pytest.raises(rp.LevelOutOfRange):
            rp.integrate(rp.BUILTIN_FIELDS["x"], rp.gen_analytic("linear", 3), 0.0, 1.0)

    def test_rejects_non_finite_field(self):
        path = rp.gen_analytic("linear", 8)
        bad = rp.ScalarField(evaluate=lambda t, x: 1.0 / (t - 0.5), depends_on="both")
        with np.errstate(divide="ignore"), pytest.raises(rp.NonFinite):
            rp.integrate(bad, path, 0.0, 1.0)

    def test_overflowing_field_raises_without_warnings(self):
        # the finiteness probe itself overflows in exp
        path = rp.gen_analytic("linear", 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rp.NonFinite, match="not finite on the strip"):
                rp.integrate(rp.field_from_expression("exp(1000*x)"), path, 0.0, 1.0)


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
                rp.ScalarField.t_only(f_path.eval), pyr, 0.0, 1.0, 3
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

    @pytest.mark.parametrize("beta", [0.0, 1.5, -0.5])
    def test_bad_beta(self, beta):
        with pytest.raises(rp.BadExponents, match=r"beta must lie in \(0, 1\]"):
            rp.adversarial_integrand(rp.gen_brownian(8, 0).pyramid(), beta, 4)

    def test_beta_one_keeps_the_identity(self):
        # beta = 1 is the top of the Hölder range (0, 1] that every diagnostic takes
        pyr = rp.gen_brownian(11, 1).pyramid()
        f_path, predicted = rp.adversarial_integrand(pyr, 1.0, 3)
        got = rp.staircase_integral(rp.ScalarField.t_only(f_path.eval), pyr, 0.0, 1.0, 3)
        assert np.isfinite(predicted)
        assert got == pytest.approx(predicted, rel=1e-12)

    @pytest.mark.parametrize("K, k_max", [(6, 2), (9, 5), (12, 10)])
    def test_samples_equal_the_whole_path_tent_sum(self, K, k_max):
        # every grid point takes its level-k cell's tent from its phase in the
        # cell, for k < k_max, added level by level
        pyr = rp.gen_brownian(K, K).pyramid()
        f = np.zeros((1 << K) + 1)
        idx = np.arange(f.size)
        for k in range(1, k_max):
            amp = 2.0 ** (-(k + 1) * 0.3) * np.sign(-pyr.child_gap(k))
            period = 1 << (K - k)
            cell = np.minimum(idx >> (K - k), amp.size - 1)
            f += amp[cell] * (1.0 - np.abs(2.0 * ((idx % period) / period) - 1.0))
        got, _ = rp.adversarial_integrand(pyr, 0.3, k_max)
        assert got.samples.tobytes() == f.tobytes()


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
        curve = rp.indefinite_integral(rp.BUILTIN_FIELDS["sin_t_x"], path, 5)
        c = round(2.0**5 / 3.0) / 2.0**5  # grid point nearest 1/3
        i = int(round(c * 2.0**5))
        part = rp.integrate(rp.BUILTIN_FIELDS["sin_t_x"], path, 0.0, c).value
        assert curve[i, 1] == pytest.approx(part, abs=2e-8)

    def test_grid_guard(self):
        # levels 0 .. K - 2 only; a negative level is out of range too, not a
        # numpy shift error
        path = rp.gen_analytic("linear", 6)
        for level in (5, -1):
            with pytest.raises(rp.LevelOutOfRange):
                rp.indefinite_integral(rp.BUILTIN_FIELDS["x"], path, level)
        with pytest.raises(rp.LevelOutOfRange):
            rp.cumulative_increments(rp.BUILTIN_FIELDS["x"], path, 0.0, 1.0, -2)

    @pytest.mark.parametrize("a", [0.25 + 1e-10, float("nan")])
    def test_ends_off_the_grid_are_rejected(self, a):
        # an end 1e-10 off a level-2 point is off the grid, not rounded onto
        # it; a NaN end is on no grid
        with pytest.raises(rp.BadInterval):
            rp.cumulative_increments(rp.BUILTIN_FIELDS["x"], rp.gen_brownian(10, 2), a, 0.75, 2)

    def test_t_only_field_evaluated_once_per_time(self):
        # level 8 on a K=10 path: 16 increments of 16 cells share their end times
        sizes = []

        def f(t):
            sizes.append(np.size(t))
            return np.cos(t)

        rp.indefinite_integral(rp.ScalarField.t_only(f), rp.gen_brownian(10, 2), 4)
        assert sizes == [2**8 + 1]


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
        assert abs(inc.sum() - whole) <= rp.ConvergenceConfig().quad_tol * inc.size + 1e-13


@st.composite
def skeleton_cases(draw):
    """A one-block skeleton of ``integrate``'s level loop or a many-block one of
    ``cumulative_increments``, on a Brownian path at K 3..14, rows of it, and
    the level-k averages and block end values it was built from."""
    K = draw(st.integers(3, 14))
    path = rp.gen_brownian(K, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        k = draw(st.integers(1, K - 1))
        a, b = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
        rng = _index_range(a, b, k)
        assume(rng is not None)
        g = np.array([path.eval(a), path.eval(b)])
        sk = integrator._skeleton(path.pyramid().level(k), k, rng[0], rng[1] - rng[0] + 1, g)
    else:
        G = draw(st.integers(0, K - 2))
        ia = draw(st.integers(0, (1 << G) - 1))
        ib = draw(st.integers(ia + 1, 1 << G))
        sk = integrator._increment_skeleton(path, ia / 2.0**G, ib / 2.0**G, G)
        g = path.eval(np.arange(ia, ib + 1) / 2.0**G)
    rows = draw(st.lists(st.integers(0, sk.lo.size - 1), min_size=1, max_size=64))
    return sk, np.array(rows), path.pyramid().level(sk.k), g


class TestSkeletonRowTimes:
    @settings(max_examples=100, deadline=None)
    @given(skeleton_cases())
    def test_field_sees_each_rows_own_time(self, case):
        # quadrature hands the sum every row in order on the first panels,
        # then any rows in any order on bisection; row i*(span + 1) + j is
        # vertical j of block i, at the time (first + i*span + j) * 2**-k
        sk, rows, _, _ = case
        seen = []

        def stub_refine_batch(eval_xs, lo, hi, tol, grid=None):
            for owner in (np.arange(lo.size), rows):
                eval_xs(owner, np.zeros((owner.size, 7)))
            return np.zeros(lo.size)

        def record(t, x):
            seen.append(t[:, 0].copy())
            return t * x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "refine_batch", stub_refine_batch)
            integrator._skeleton_sum(sk, rp.ScalarField(record), 1e-10)
        for owner, t in zip((np.arange(sk.lo.size), rows), seen, strict=True):
            i, j = np.divmod(owner, sk.span + 1)
            want = (sk.first + i * sk.span + j) * 2.0 ** -sk.k
            assert t.tobytes() == want.tobytes()


class TestSkeletonLayout:
    @settings(max_examples=100, deadline=None)
    @given(skeleton_cases())
    def test_columns_index_the_times_by_row(self, case):
        # row i*(span + 1) + j, vertical j of block i, reads column i*span + j
        # of the times: the gather of by_row, read-only since sums share it
        sk = case[0]
        i, j = np.divmod(np.arange(sk.lo.size), sk.span + 1)
        assert sk.columns.tobytes() == (i * sk.span + j).tobytes()
        assert not sk.columns.flags.writeable
        assert sk.times[sk.columns].tobytes() == sk.by_row(sk.times).ravel().tobytes()

    @settings(max_examples=100, deadline=None)
    @given(skeleton_cases())
    def test_blocks_share_their_ends(self, case):
        # block i runs [g_i, its span averages, g_(i+1)]; lo drops the last
        # height of each block and hi the first, as views of one array
        sk, _, h, g = case
        n, span = sk.n_blocks, sk.span
        blocks = np.empty((n, span + 2))
        blocks[:, 0] = g[:-1]
        blocks[:, 1:-1] = h[sk.first : sk.first + n * span].reshape(n, span)
        blocks[:, -1] = g[1:]
        assert sk.lo.tobytes() == blocks[:, :-1].tobytes()
        assert sk.hi.tobytes() == blocks[:, 1:].tobytes()
        assert np.shares_memory(sk.lo, sk.hi)

    @settings(max_examples=100, deadline=None)
    @given(skeleton_cases())
    def test_by_row_spreads_the_times_to_their_rows(self, case):
        # row i, column j of the verticals is at times[i*span + j]
        sk = case[0]
        index = sk.span * np.arange(sk.n_blocks)[:, None] + np.arange(sk.span + 1)
        got = sk.by_row(sk.times)
        assert got.shape == index.shape
        assert got.tobytes() == sk.times[index].tobytes()


class TestStaircaseMemory:
    @pytest.mark.parametrize("name", ["tx", "sin_t_x"])
    def test_level_16_sum_holds_under_four_level_arrays(self, name):
        # the level-16 sum on [0, 1] closes 2**16 + 1 verticals; besides
        # their heights, their sums and the slice temporaries of quadrature
        # it builds no level-sized array; three more, for the rows' times,
        # take the transient heap of an integrate call to where glibc gives
        # it back to the system on free and faults it in again on the next
        path = rp.gen_brownian(18, 1)
        pyr = path.pyramid()
        pyr.level(16)
        field = rp.BUILTIN_FIELDS[name]
        ends = (path.eval(0.0), path.eval(1.0))
        tracemalloc.start()
        try:
            rp.staircase_integral(field, pyr, 0.0, 1.0, 16, endpoint_values=ends)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**16 * 8

    @pytest.mark.parametrize("field, arrays", [(rp.BUILTIN_FIELDS["tx"], 4.5),
                                               (rp.ScalarField.t_only(np.cos), 4.5)],
                             ids=["tx", "t_only"])
    def test_many_block_sum_holds_one_heights_array(self, field, arrays):
        # 64 blocks of level-16 cells share their end heights in one array
        # that lo and hi view; quadrature rows compute their times from their
        # columns, and a t_only sum drops its values once their rows are
        # built.  The peaks measured 4.33 level arrays for tx and 4.01 for a
        # t_only field; an array of every row's time, copies of lo and hi,
        # or values kept alive next to their rows would add a level array
        path = rp.gen_brownian(18, 1)
        path.pyramid().level(16)
        tracemalloc.start()
        try:
            rp.cumulative_increments(field, path, 0.0, 1.0, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays * 2**16 * 8


@st.composite
def level_cases(draw, split=False):
    """A Brownian path, a level k and an [a, b] aligned to the level-(k-1) grid.

    With ``split``, also a level-(k-1) point c inside (a, b) and a field.
    """
    K = draw(st.integers(6, 12))
    k = draw(st.integers(2, K - 2))
    n = 1 << (k - 1)
    ia = draw(st.integers(0, n - 1 - split))
    ib = draw(st.integers(ia + 1 + split, n))
    path = rp.gen_brownian(K, draw(st.integers(0, 2**16)))
    if not split:
        return path, k, ia / n, ib / n
    ic = draw(st.integers(ia + 1, ib - 1))
    field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    return path, k, ia / n, ib / n, ic / n, field


def closed_sum(field, path, a, b, k):
    return rp.staircase_integral(field, path.pyramid(), a, b, k,
                                 endpoint_values=(path.eval(a), path.eval(b)))


class TestLevelKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(level_cases())
    def test_tx_level_difference_is_a_quadratic_gap_sum(self, case):
        # one refinement of the staircase for f = t x moves the closed sum by
        # -2**-(k+3) times the level-k sum of squared sibling gaps
        path, k, a, b = case
        tx = rp.BUILTIN_FIELDS["tx"]
        step = closed_sum(tx, path, a, b, k + 1) - closed_sum(tx, path, a, b, k)
        # a and b sit on the level-(k - 1) grid, so the level-k cells inside
        # [a, b] run from a * 2**k to b * 2**k
        gaps = path.pyramid().child_gap(k)[round(a * 2**k) : round(b * 2**k)]
        want = -(2.0 ** -(k + 3)) * float(np.square(gaps).sum())
        assert abs(step - want) <= 1e-14 * max(1.0, np.abs(path.samples).max() ** 2)

    @settings(max_examples=60, deadline=None)
    @given(level_cases())
    def test_x_closed_sum_is_the_closed_form(self, case):
        # closed at (g(a), g(b)), the sum for f = x telescopes at every level
        path, k, a, b = case
        ga, gb = path.eval(a), path.eval(b)
        want = 0.5 * (gb * gb - ga * ga)
        for level in range(k, path.resolution_level):
            got = closed_sum(rp.BUILTIN_FIELDS["x"], path, a, b, level)
            assert abs(got - want) <= 1e-13 * max(1.0, np.abs(path.samples).max() ** 2)

    @settings(max_examples=60, deadline=None)
    @given(level_cases(split=True))
    def test_additive_at_a_grid_point(self, case):
        # closed sums over [a, c] and [c, b] add up to the one over [a, b]:
        # only the three verticals at c differ, each within the quadrature
        # tolerance
        path, k, a, b, c, field = case
        parts = closed_sum(field, path, a, c, k) + closed_sum(field, path, c, b, k)
        whole = closed_sum(field, path, a, b, k)
        scale = max(1.0, np.abs(path.samples).max() ** 2)
        assert abs(parts - whole) <= 3 * rp.ConvergenceConfig().quad_tol + 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(level_cases(), st.sampled_from(sorted(rp.BUILTIN_FIELDS)))
    def test_reflecting_the_path_negates_the_sum(self, case, name):
        # the staircase of -g mirrors the staircase of g: every vertical runs
        # the other way through negated nodes, so f over -g is exactly minus
        # f(t, -x) over g
        path, k, a, b = case
        f = rp.BUILTIN_FIELDS[name]
        f_mirror = rp.ScalarField(evaluate=lambda t, x: f.evaluate(t, -x),
                                  depends_on=f.depends_on)
        mirror = rp.DyadicPath(-path.samples, path.resolution_level)
        ga, gb = path.eval(a), path.eval(b)
        got = rp.staircase_integral(f, mirror.pyramid(), a, b, k, endpoint_values=(-ga, -gb))
        want = rp.staircase_integral(f_mirror, path.pyramid(), a, b, k, endpoint_values=(ga, gb))
        assert got == -want


class TestDependsOn:
    @pytest.mark.parametrize("typo", ["t-only", "x-only"])
    def test_unknown_class_is_a_value_error(self, typo):
        # a typo would otherwise take the quadrature route ('t-only') or make
        # green_eval ask for a time partial ('x-only')
        with pytest.raises(ValueError, match="'both', 't_only', 'x_only'"):
            rp.ScalarField(evaluate=lambda t, x: t * x, depends_on=typo)

    def test_every_library_field_constructs(self):
        kinds = [f.depends_on for f in rp.BUILTIN_FIELDS.values()]
        kinds += [rp.field_from_expression(e).depends_on for e in ("t*x", "t+1", "x**2", "2")]
        kinds += [rp.ScalarField.t_only(np.cos, dt_partial=np.sin).depends_on,
                  rp.ScalarField.x_only(np.cos).depends_on,
                  rp.ScalarField.t_only(rp.gen_brownian(4, 0).eval).depends_on]
        assert set(kinds) == {"both", "t_only", "x_only"}


_LIFT_RETURNS = {
    "scalar": lambda v: 2.5,
    "float array": lambda v: 3.0 * v - 1.0,
    "integer array": lambda v: np.floor(4.0 * v).astype(np.int64),
}


class TestBroadcastShape:
    def test_constant_lift_is_the_compiled_constant(self):
        # x_only returned the bare float 2.0, which the quadrature's matmul refused
        lifted = rp.ScalarField.x_only(lambda x: 2.0)
        compiled = rp.field_from_expression("2")
        path = rp.gen_brownian(10, 3)
        got, want = (rp.integrate(f, path, 0.0, 1.0) for f in (lifted, compiled))
        assert (got.value, got.levels, got.converged) == (want.value, want.levels, want.converged)
        assert np.array_equal(got.level_values, want.level_values)
        assert got.value == pytest.approx(2.0 * (path.samples[-1] - path.samples[0]), abs=1e-12)
        for k in (2, 5, 8):
            assert (rp.staircase_integral(lifted, path.pyramid(), 0.0, 1.0, k)
                    == rp.staircase_integral(compiled, path.pyramid(), 0.0, 1.0, k))
        assert rp.green_eval(lifted, path, 0.7) == rp.green_eval(compiled, path, 0.7)

    @pytest.mark.parametrize("name, part, want", [
        ("one", "evaluate", lambda t, x: 1.0),
        ("tx", "dt_partial", lambda t, x: x),
        ("t_plus_x2", "dt_partial", lambda t, x: 1.0),
    ], ids=["one", "tx.dt_partial", "t_plus_x2.dt_partial"])
    def test_builtins_reach_the_broadcast_shape(self, name, part, want):
        # a time column against a panel, and a state column against a time panel
        column = np.linspace(0.0, 1.0, 4)[:, None]
        panel = np.linspace(-2.0, 2.0, 28).reshape(7, 4).T
        for t, x in ((column, panel), (panel, column)):
            got = getattr(rp.BUILTIN_FIELDS[name], part)(t, x)
            assert got.dtype == np.float64 and got.shape == (4, 7)
            assert not np.shares_memory(got, t) and not np.shares_memory(got, x)
            assert np.array_equal(got, np.broadcast_to(want(t, x), (4, 7)))

    @settings(max_examples=150, deadline=None)
    @given(shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=1, max_dims=3,
                                                      max_side=4),
           returns=st.sampled_from(sorted(_LIFT_RETURNS)), seed=st.integers(0, 2**32 - 1))
    def test_lifts_have_the_broadcast_shape(self, shapes, returns, seed):
        # both lifts give f's value times ones of the broadcast shape, bit for
        # bit, whether f returns a scalar or an array of its argument's shape
        f = _LIFT_RETURNS[returns]
        rng = np.random.default_rng(seed)
        t, x = (rng.uniform(-2.0, 2.0, shape) for shape in shapes.input_shapes)
        for lift, arg in ((rp.ScalarField.t_only, t), (rp.ScalarField.x_only, x)):
            got = lift(f).evaluate(t, x)
            want = f(arg) * np.ones(shapes.result_shape)
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == shapes.result_shape
            assert not np.shares_memory(got, t) and not np.shares_memory(got, x)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def green_cases(draw):
    """A path at K 8..14, a field with a time partial, b on or off the grid, a tol."""
    K = draw(st.integers(8, 14))
    if draw(st.booleans()):
        path = rp.gen_brownian(K, draw(st.integers(0, 2**16)))
    else:
        path = rp.gen_analytic(draw(st.sampled_from(("linear", "square", "sine"))), K)
    if draw(st.booleans()):
        G = draw(st.integers(4, K - 3))
        b = draw(st.integers(1 << (G - 4), 1 << G)) / 2.0**G
    else:
        b = draw(st.floats(0.0625, 1.0))
    field = rp.BUILTIN_FIELDS[draw(st.sampled_from(("tx", "sin_t_x", "t_plus_x2")))]
    return path, field, b, draw(st.sampled_from((1e-8, 1e-6, 1e-4)))


class TestConvergenceIsSound:
    @settings(max_examples=80, deadline=None)
    @given(green_cases())
    def test_converged_value_is_within_ten_tol_of_the_green_value(self, case):
        # the Green route integrates the interpolant on [0, b] cell by cell,
        # independently of the staircase
        path, field, b, tol = case
        res = rp.integrate(field, path, 0.0, b, rp.ConvergenceConfig(tol=tol))
        if res.converged:
            assert abs(res.value - rp.green_eval(field, path, b).total) <= 10 * tol
