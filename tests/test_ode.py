import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpath as rp
from roughpath import integrator, ode


def linear_problem(K=14, beta=0.9, driver=None, horizon=1.0):
    return rp.OdeProblem(
        F=rp.MatrixField.linear_in_y(),
        drivers=[driver or rp.gen_analytic("linear", K)],
        y0=np.array([1.0]),
        beta=beta,
        horizon=horizon,
    )


class TestPicardOperator:
    def test_zero_field_returns_start(self):
        prob = rp.OdeProblem(
            F=rp.MatrixField.constant(0.0),
            drivers=[rp.gen_brownian(12, 3)],
            y0=np.array([2.0]),
            beta=0.5,
        )
        y = np.full((1, 2**8 + 1), 2.0)
        out = rp.picard_operator(prob, y, 0.0, 1.0, 8)
        assert np.allclose(out, 2.0, atol=1e-14)

    def test_unit_field_telescopes_driver(self):
        driver = rp.gen_brownian(12, 8)
        prob = rp.OdeProblem(
            F=rp.MatrixField.constant(1.0),
            drivers=[driver],
            y0=np.array([0.5]),
            beta=0.5,
        )
        y = np.full((1, 2**8 + 1), 0.5)
        out = rp.picard_operator(prob, y, 0.0, 1.0, 8)
        t = np.linspace(0.0, 1.0, 2**8 + 1)
        expect = 0.5 + driver.eval(t) - driver.eval(0.0)
        assert np.abs(out[0] - expect).max() < 1e-10

    def test_exact_solution_is_fixed_point(self):
        driver = rp.gen_analytic("linear", 14)
        prob = linear_problem(driver=driver)
        t = np.linspace(0.0, 1.0, 2**10 + 1)
        y = np.exp(t)[None, :]
        out = rp.picard_operator(prob, y, 0.0, 1.0, 10)
        # gap is dominated by the level-10 interpolation of exp
        assert np.abs(out - y).max() < 1e-6

    def test_shape_guard(self):
        prob = linear_problem()
        with pytest.raises(rp.LengthMismatch):
            rp.picard_operator(prob, np.zeros((1, 7)), 0.0, 1.0, 8)

    def test_time_only_field_cannot_write_the_window_times(self):
        # the window's times are cached and handed to F on every sweep
        def write_t(t, y, x):
            t += 1.0
            return y[0]

        prob = rp.OdeProblem(F=rp.MatrixField.scalar(write_t), drivers=[rp.gen_brownian(10, 1)],
                             y0=np.array([1.0]), beta=0.5)
        with pytest.raises(ValueError, match="read-only"):
            rp.picard_operator(prob, np.ones((1, 2**6 + 1)), 0.0, 1.0, 6)
        with pytest.raises(ValueError, match="read-only"):
            rp.picard_operator(prob, np.ones((1, 2**6 + 1)), 0.0, 1.0, 6)

    def test_time_only_field_cannot_write_the_iterate(self):
        # the iterate's table at the window times is shared by the driver's components
        def write_y(t, y, x):
            y[0] += 1.0
            return y[0]

        prob = rp.OdeProblem(F=rp.MatrixField.scalar(write_y), drivers=[rp.gen_brownian(10, 1)],
                             y0=np.array([1.0]), beta=0.5)
        with pytest.raises(ValueError, match="read-only"):
            rp.picard_operator(prob, np.ones((1, 2**6 + 1)), 0.0, 1.0, 6)

    @pytest.mark.parametrize("y_start", [np.array([1.0, 2.0]), 1.0, np.ones((1, 1))],
                             ids=["two-values", "scalar", "2-d"])
    def test_y_start_holds_one_value_per_component(self, y_start):
        with pytest.raises(rp.LengthMismatch, match="y_start"):
            rp.picard_operator(linear_problem(K=10), np.ones((1, 2**6 + 1)), 0.0, 1.0, 6,
                               y_start=y_start)

    def test_negative_grid_level(self):
        with pytest.raises(rp.LevelOutOfRange, match="negative"):
            rp.picard_operator(linear_problem(K=10), np.ones((1, 2)), 0.0, 1.0, -1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_iterate_is_refused_before_F_runs(self, bad):
        calls = []

        def F(t, y, x):
            calls.append(t.shape)
            return y[0]

        prob = rp.OdeProblem(F=rp.MatrixField.scalar(F), drivers=[rp.gen_brownian(10, 1)],
                             y0=np.array([1.0]), beta=0.5)
        y = np.ones((1, 2**6 + 1))
        y[0, 17] = bad
        with pytest.raises(rp.NonFiniteIterate, match="iterate must be finite"):
            rp.picard_operator(prob, y, 0.0, 1.0, 6)
        assert calls == []


@settings(max_examples=200, deadline=None)
@given(e=st.integers(0, 6), L=st.integers(1, 8), m=st.integers(1, 2), data=st.data())
def test_iterate_table_is_np_interp(e, L, m, data):
    # spans of 2**e level-k cells per grid cell, windows that start after 0,
    # signed zeros, and values whose slope overflows: the table equals
    # np.interp bit for bit at the window times, and so do its columns that
    # quadrature rows read at their times
    k, span, n = L + e, 1 << e, 1 << L
    ia = data.draw(st.integers(1, n - 1))
    ib = data.draw(st.integers(ia + 1, n))
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.7e308, 1.7e308))
    y = np.array(data.draw(st.lists(values, min_size=m * (ib - ia + 1),
                                    max_size=m * (ib - ia + 1)))).reshape(m, -1)
    sk = integrator._skeleton(np.zeros(1 << k), k, ia * span, span, np.zeros(ib - ia + 1))
    t_grid = np.arange(ia, ib + 1) * 2.0 ** -L
    rows = np.array(data.draw(st.lists(st.integers(0, sk.lo.size - 1), min_size=1, max_size=40)))
    table = ode._iterate_table(y, sk, L)
    assert not table.flags.writeable
    for t, got in ((sk.times, table), (sk.times[sk.columns[rows]], table[:, sk.columns[rows]])):
        want = np.stack([np.interp(t, t_grid, row) for row in y])
        assert got.tobytes() == want.tobytes()


class TestMatrixField:
    @pytest.mark.parametrize("components", [[], [[]], [[], []]])
    def test_empty_matrix_rejected(self, components):
        with pytest.raises(rp.SchemaError, match="empty"):
            rp.MatrixField(components)

    def test_ragged_matrix_rejected(self):
        comp = component(lambda t, y, x: y[0])
        with pytest.raises(rp.SchemaError, match="ragged"):
            rp.MatrixField([[comp, comp], [comp]])

    @pytest.mark.parametrize("rows, match", [("flat", "list of rows"), ("none", "FieldComponents")])
    def test_malformed_matrix_rejected(self, rows, match):
        # a flat list of components used to raise a bare TypeError, and a None
        # entry passed until solve read it
        comp = component(lambda t, y, x: y[0])
        components = [comp] if rows == "flat" else [[comp, None]]
        with pytest.raises(rp.SchemaError, match=match):
            rp.MatrixField(components)
        with pytest.raises(rp.SchemaError, match=match):
            rp.OdeProblem(F=rp.MatrixField(components), drivers=[rp.gen_brownian(8, 1)] * 2,
                          y0=np.array([1.0]), beta=0.5)


class TestSolve:
    def test_dimension_mismatch(self):
        with pytest.raises(rp.LengthMismatch, match="dimension mismatch"):
            rp.OdeProblem(F=rp.MatrixField.linear_in_y(), drivers=[rp.gen_brownian(8, 1)],
                          y0=np.array([1.0, 2.0]), beta=0.5)

    @pytest.mark.parametrize("horizon", [0.0, -0.5, 1.5])
    def test_horizon_outside_the_unit_interval(self, horizon):
        with pytest.raises(rp.BadInterval, match="horizon must lie in"):
            linear_problem(K=8, horizon=horizon)

    @pytest.mark.parametrize("L", [0, 7])
    def test_grid_level_incompatible_with_the_drivers(self, L):
        with pytest.raises(rp.LevelOutOfRange, match="incompatible with driver resolution 8"):
            rp.solve(linear_problem(K=8), rp.SolverConfig(grid_level=L, check_drivers=False))

    def test_horizon_off_the_grid(self):
        with pytest.raises(rp.BadInterval, match="horizon must sit on the solver grid"):
            rp.solve(linear_problem(K=10, horizon=0.3),
                     rp.SolverConfig(grid_level=6, check_drivers=False))

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
    def test_beta_outside_the_unit_interval(self, beta):
        with pytest.raises(rp.BadExponents, match="beta must lie in"):
            linear_problem(K=8, beta=beta)

    def test_beta_one_is_checked_like_any_other_beta(self):
        # OdeProblem takes beta in (0, 1], and so does the driver check that solve runs
        cfg = rp.SolverConfig(grid_level=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rp.solve(linear_problem(K=10, beta=1.0), cfg)
        want = rp.solve(linear_problem(K=10, beta=1.0),
                        rp.SolverConfig(grid_level=6, check_drivers=False))
        assert got.y.tobytes() == want.y.tobytes()
        assert got.converged

    @pytest.mark.parametrize("y0", [np.nan, np.inf, -np.inf])
    def test_non_finite_y0_raises_before_any_sweep(self, y0):
        # a NaN or infinite start is an input fault, not a sweep that fails
        with mock.patch.object(ode, "picard_operator", wraps=ode.picard_operator) as sweep:
            with pytest.raises(rp.NonFinite, match="y0 must be finite"):
                problem = rp.OdeProblem(F=rp.MatrixField.linear_in_y(),
                                        drivers=[rp.gen_brownian(8, 1)], y0=[y0], beta=0.5)
                rp.solve(problem, rp.SolverConfig(grid_level=4, check_drivers=False))
        sweep.assert_not_called()

    def test_non_finite_sweep_is_a_non_finite_iterate(self):
        F = rp.MatrixField.scalar(lambda t, y, x: np.full_like(t, np.nan))
        problem = rp.OdeProblem(F=F, drivers=[rp.gen_analytic("linear", 8)],
                                y0=np.array([1.0]), beta=0.5)
        with pytest.raises(rp.NonFiniteIterate, match="Picard sweep"):
            rp.solve(problem, rp.SolverConfig(grid_level=4, check_drivers=False))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_change_is_a_non_finite_iterate(self):
        # the sweeps swing from about -M to about +M, both finite, so only
        # their sup-norm change leaves the float range, with no numpy warning
        M = 1.2e308
        F = rp.MatrixField.scalar(lambda t, y, x: np.where(y[0] > 0, -M, M))
        problem = rp.OdeProblem(F=F, drivers=[rp.gen_analytic("linear", 8)],
                                y0=np.array([1.0]), beta=0.5)
        with pytest.raises(rp.NonFiniteIterate, match="sup-norm"):
            rp.solve(problem, rp.SolverConfig(grid_level=4, check_drivers=False))

    def test_window_halving_floors_to_whole_cells(self):
        # 12 cells halve to 6, 3 and then 1, never to the 1.5 cells of
        # [0, 0.09375]; the window then underflows at t = 1/16, as with horizon 1
        F = rp.MatrixField.scalar(lambda t, y, x: 4.0 * y[0])
        cfg = rp.SolverConfig(grid_level=4, check_drivers=False)
        for horizon in (0.75, 1.0):
            problem = rp.OdeProblem(F=F, drivers=[rp.gen_brownian(12, 3)], y0=np.array([1.0]),
                                    beta=0.5, horizon=horizon)
            with pytest.raises(rp.WindowUnderflow, match="at t = 0.0625 without"):
                rp.solve(problem, cfg)

    def test_any_horizon_on_the_grid(self):
        # 40 level-6 cells: the solution grid and windows end at 5/8
        sol = rp.solve(linear_problem(K=12, horizon=0.625),
                       rp.SolverConfig(tol=1e-9, grid_level=6, check_drivers=False))
        assert sol.t.tolist() == [i / 64 for i in range(41)]
        assert sol.windows[0]["start"] == 0.0
        assert sol.windows[-1]["end"] == 0.625
        assert sol.converged
        assert np.abs(sol.y[0] - np.exp(sol.t)).max() < 1e-4

    def test_exponential_solution(self):
        sol = rp.solve(linear_problem(K=16), rp.SolverConfig(tol=1e-10, grid_level=12))
        assert np.abs(sol.y[0] - np.exp(sol.t)).max() < 1e-6
        assert sol.converged
        assert all(w["contraction_ratio"] < 1.0 for w in sol.windows)

    def test_windows_tile_horizon(self):
        sol = rp.solve(linear_problem(K=12), rp.SolverConfig(tol=1e-9, grid_level=8))
        assert sol.windows[0]["start"] == 0.0
        assert sol.windows[-1]["end"] == 1.0
        for prev, cur in zip(sol.windows, sol.windows[1:]):
            assert prev["end"] == cur["start"]

    def test_zero_field_single_sweep(self):
        prob = rp.OdeProblem(
            F=rp.MatrixField.constant(0.0),
            drivers=[rp.gen_brownian(12, 5)],
            y0=np.array([3.0]),
            beta=0.5,
        )
        sol = rp.solve(prob, rp.SolverConfig(grid_level=8, check_drivers=False))
        assert np.all(sol.y == 3.0)
        assert sol.windows[0]["iterations"] == 1
        assert sol.residual == 0.0

    def test_rough_driver_recovers_exponential(self):
        driver = rp.gen_oscillatory(0.45, 0.45, 0.0, 5, 14)
        prob = rp.OdeProblem(
            F=rp.MatrixField.linear_in_y(),
            drivers=[driver],
            y0=np.array([1.0]),
            beta=0.45,
        )
        sol = rp.solve(prob, rp.SolverConfig(tol=1e-10, grid_level=10, check_drivers=False))
        exact = np.exp(driver.eval(sol.t))
        assert np.abs(sol.y[0] - exact).max() < 1e-4

    def test_driver_shift_invariance(self):
        driver = rp.gen_brownian(12, 21)
        shifted = rp.DyadicPath(driver.samples + 5.0, 12)
        cfg = rp.SolverConfig(tol=1e-9, grid_level=8, check_drivers=False)
        a = rp.solve(linear_problem(driver=driver, beta=0.6), cfg)
        b = rp.solve(linear_problem(driver=shifted, beta=0.6), cfg)
        assert np.abs(a.y - b.y).max() < 1e-9

    def test_residual_matches_tolerance(self):
        cfg = rp.SolverConfig(tol=1e-9, grid_level=10)
        sol = rp.solve(linear_problem(K=14), cfg)
        assert sol.residual <= 5.0 * cfg.tol

    def test_driver_diagnostic_warning(self):
        bad = rp.gen_counterexample(0.3, 0.3, 12)
        prob = rp.OdeProblem(
            F=rp.MatrixField.constant(0.0),
            drivers=[bad],
            y0=np.array([0.0]),
            beta=0.3,
        )
        with pytest.warns(UserWarning, match="diagnostic"):
            rp.solve(prob, rp.SolverConfig(grid_level=8))

    def test_state_only_field_on_brownian_driver(self):
        # F depending on the driver alone reduces to a definite integral
        # between driver values, for any continuous driver
        driver = rp.gen_brownian(12, 77)
        comp = rp.FieldComponent(
            evaluate=lambda t, y, x: x[0],
            depends_on_driver=True,
        )
        prob = rp.OdeProblem(
            F=rp.MatrixField([[comp]]),
            drivers=[driver],
            y0=np.array([0.0]),
            beta=0.5,
        )
        sol = rp.solve(prob, rp.SolverConfig(tol=1e-9, grid_level=8, check_drivers=False))
        expect = np.array(
            [rp.integrate_state_only(lambda x: x, driver, 0.0, t) if t > 0 else 0.0
             for t in sol.t]
        )
        assert np.abs(sol.y[0] - expect).max() < 1e-8

    def test_state_dependent_driver_field(self):
        # F(t, y, x) = x needs the generic inner-quadrature route:
        # dy = x dx integrates to y0 + (x(t)^2 - x(0)^2) / 2
        driver = rp.gen_analytic("sine", 14)
        comp = rp.FieldComponent(
            evaluate=lambda t, y, x: x[0],
            depends_on_driver=True,
        )
        prob = rp.OdeProblem(
            F=rp.MatrixField([[comp]]),
            drivers=[driver],
            y0=np.array([1.0]),
            beta=0.9,
        )
        sol = rp.solve(prob, rp.SolverConfig(tol=1e-9, grid_level=10))
        exact = 1.0 + 0.5 * driver.eval(sol.t) ** 2
        assert np.abs(sol.y[0] - exact).max() < 1e-6

    def test_driver_field_value_spreads_to_the_quadrature_grid(self):
        # y[0] keeps the (rows, 1) shape of the frozen iterate on the inner
        # quadrature grid; declared as reading the driver, the value must be
        # spread to the grid and give the time-only route's solution
        driver = rp.gen_brownian(12, 9)
        cfg = rp.SolverConfig(tol=1e-10, grid_level=8, check_drivers=False)
        y = [
            rp.solve(rp.OdeProblem(
                F=rp.MatrixField.scalar(lambda t, y, x: y[0], depends_on_driver=flag),
                drivers=[driver],
                y0=np.array([1.0]),
                beta=0.5,
            ), cfg).y
            for flag in (False, True)
        ]
        assert np.abs(y[0] - y[1]).max() <= 1e-12

    def test_converged_is_residual_within_tol(self):
        cfg = rp.SolverConfig(tol=1e-9, grid_level=8)
        sol = rp.solve(linear_problem(K=12), cfg)
        assert sol.converged is True
        assert sol.residual <= cfg.tol

    def test_residual_above_tol_is_not_converged(self, monkeypatch):
        cfg = rp.SolverConfig(tol=1e-9, grid_level=8)
        monkeypatch.setattr(ode, "_fixed_point_residual", lambda *args: 2.0 * cfg.tol)
        sol = rp.solve(linear_problem(K=12), cfg)
        assert sol.converged is False
        assert sol.residual == 2.0 * cfg.tol


def analytic_drivers(K1, K2):
    """x1 = t at resolution K1 and x2 = sin t at resolution K2."""
    return [rp.gen_analytic("linear", K1), rp.gen_analytic("sine", K2)]


def component(evaluate, depends_on_driver=False):
    return rp.FieldComponent(evaluate=evaluate, depends_on_driver=depends_on_driver)


@pytest.mark.parametrize("K1, K2", [(14, 14), (12, 14)])
class TestMultiDriver:
    def test_exponential_of_driver_sum(self, K1, K2):
        # dy = y dx1 + y dx2 integrates to y0 exp(x1 + x2 - x1(0) - x2(0))
        drivers = analytic_drivers(K1, K2)
        prob = rp.OdeProblem(
            F=rp.MatrixField([[component(lambda t, y, x: y[0])] * 2]),
            drivers=drivers,
            y0=np.array([1.0]),
            beta=0.9,
        )
        sol = rp.solve(prob, rp.SolverConfig(tol=1e-9, grid_level=10))
        x_sum = sum(d.eval(sol.t) - d.eval(0.0) for d in drivers)
        exact = np.exp(x_sum)
        # relative: the gap is the level-10 interpolation of the iterate
        assert np.abs(sol.y[0] / exact - 1.0).max() < 1e-6
        assert sol.converged

    def test_components_read_the_other_driver(self, K1, K2):
        # dy1 = x2 dx1 gives 1 - cos t; dy2 = x1 x2 dx2, whose integrand reads
        # its own driver too, gives sin(2t) / 8 - t cos(2t) / 4
        zero = component(lambda t, y, x: np.zeros_like(t))
        prob = rp.OdeProblem(
            F=rp.MatrixField([
                [component(lambda t, y, x: x[1]), zero],
                [zero, component(lambda t, y, x: x[0] * x[1], depends_on_driver=True)],
            ]),
            drivers=analytic_drivers(K1, K2),
            y0=np.zeros(2),
            beta=0.9,
        )
        sol = rp.solve(prob, rp.SolverConfig(tol=1e-9, grid_level=10))
        t = sol.t
        assert np.abs(sol.y[0] - (1.0 - np.cos(t))).max() < 1e-6
        assert np.abs(sol.y[1] - (np.sin(2 * t) / 8 - t * np.cos(2 * t) / 4)).max() < 1e-6
        assert sol.converged


class TestContinuity:
    def test_identical_inputs_zero_distance(self):
        cfg = rp.SolverConfig(tol=1e-9, grid_level=8)
        rep = rp.continuity_experiment(linear_problem(K=12), linear_problem(K=12), cfg)
        assert rep["output_distance"]["sup"] == 0.0
        assert rep["input_distance"]["sup_x"] == 0.0

    def test_linear_perturbation_bound(self):
        eps = 1e-3
        cfg = rp.SolverConfig(tol=1e-10, grid_level=10)
        base = linear_problem(K=14)
        bumped = linear_problem(K=14, driver=rp.gen_analytic(lambda t: (1 + eps) * t, 14))
        rep = rp.continuity_experiment(base, bumped, cfg)
        # closed forms: sup |e^((1+eps)t) - e^t| <= 3 eps on [0, 1]
        assert rep["output_distance"]["sup"] <= 3.0 * eps
        assert rep["output_distance"]["sup"] > 0

    def test_constant_difference_has_zero_holder_distance(self):
        # on [0, 1/2] the solutions differ by the constant y0 gap, whose
        # Hölder seminorm is 0; sup |dy| / T**beta is not a seminorm
        cfg = rp.SolverConfig(grid_level=6, check_drivers=False)
        problems = [rp.OdeProblem(F=rp.MatrixField.constant(1.0), drivers=[rp.gen_brownian(10, 4)],
                                  y0=np.array([y0]), beta=0.5, horizon=0.5) for y0 in (1.0, 1.1)]
        rep = rp.continuity_experiment(*problems, cfg)
        assert rep["output_distance"]["sup"] == pytest.approx(0.1)
        assert rep["output_distance"]["holder_beta"] == 0.0

    @pytest.mark.parametrize("horizon", [0.5, 0.25])
    def test_holder_distance_below_full_horizon(self, horizon):
        # the distance is the scan of the difference held at its last value
        # to t = 1, so it bounds every adjacent quotient on the grid
        L, beta = 8, 0.6
        base = linear_problem(K=12, beta=beta, horizon=horizon)
        bumped = linear_problem(K=12, beta=beta, horizon=horizon,
                                driver=rp.gen_analytic(lambda t: t + 0.05 * np.sin(40 * t), 12))
        rep = rp.continuity_experiment(base, bumped, rp.SolverConfig(tol=1e-10, grid_level=L))
        sol_a, sol_b = rep["solutions"]
        diff = sol_a.y[0] - sol_b.y[0]
        held = np.concatenate([diff, np.full((1 << L) + 1 - diff.size, diff[-1])])
        want = rp.holder_seminorm(rp.DyadicPath(held, L), beta).seminorm_lower_bound
        assert rep["output_distance"]["holder_beta"] == want
        assert want >= np.abs(np.diff(diff)).max() * 2.0 ** (L * beta)

    def test_driver_differences_after_the_horizon_are_no_input_distance(self):
        # the drivers differ only on (1/2, 1], which a solve to 1/2 never reads
        t = np.linspace(0.0, 1.0, (1 << 12) + 1)
        bent = rp.DyadicPath(np.where(t > 0.5, t + 0.1 * (t - 0.5), t), 12)
        problems = [linear_problem(K=12, beta=0.5, horizon=0.5, driver=d)
                    for d in (rp.gen_analytic("linear", 12), bent)]
        rep = rp.continuity_experiment(*problems, rp.SolverConfig(grid_level=8))
        assert rep["input_distance"] == {"y0": 0.0, "sup_x": 0.0, "holder_x": 0.0}
        assert rep["output_distance"] == {"sup": 0.0, "holder_beta": 0.0}

    def test_input_distance_is_measured_to_the_horizon(self):
        # the driver difference is held at its horizon value to t = 1, as
        # the solution difference is
        L, K, horizon = 8, 12, 0.5
        bump = rp.gen_analytic(lambda t: t + 0.05 * np.sin(40 * t), K)
        rep = rp.continuity_experiment(
            linear_problem(K=K, beta=0.6, horizon=horizon),
            linear_problem(K=K, beta=0.6, horizon=horizon, driver=bump),
            rp.SolverConfig(tol=1e-10, grid_level=L))
        diff = (rp.gen_analytic("linear", K).samples - bump.samples)[: (1 << (K - 1)) + 1]
        held = np.concatenate([diff, np.full((1 << K) + 1 - diff.size, diff[-1])])
        want = rp.holder_seminorm(rp.DyadicPath(held, K), 0.6).seminorm_lower_bound
        assert rep["input_distance"]["sup_x"] == np.abs(diff).max()
        assert rep["input_distance"]["holder_x"] == want

    def test_problems_on_different_grids_are_rejected(self):
        with pytest.raises(rp.BadInterval, match="share horizon and grid"):
            rp.continuity_experiment(linear_problem(K=8), linear_problem(K=8, horizon=0.5),
                                     rp.SolverConfig(grid_level=4))

    def test_perturbation_sweep_is_linear(self):
        cfg = rp.SolverConfig(tol=1e-10, grid_level=8)
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3):
            base = linear_problem(K=12)
            bumped = linear_problem(
                K=12, driver=rp.gen_analytic(lambda t, e=eps: (1 + e) * t, 12)
            )
            rep = rp.continuity_experiment(base, bumped, cfg)
            ratios.append(rep["output_distance"]["sup"] / eps)
        assert max(ratios) / min(ratios) < 2.0


def reference_operator(problem, y_current, a, b, grid_level, y_start=None):
    """The Picard sweep as ``cumulative_increments`` of each composed component."""
    y_start = problem.y0 if y_start is None else np.asarray(y_start, dtype=float)
    n_grid = round((b - a) * (1 << grid_level)) + 1
    t_grid = a + np.arange(n_grid) * 2.0 ** -grid_level
    if y_current.shape != (problem.F.m, n_grid):
        raise rp.LengthMismatch("iterate shape does not match the window grid")
    out = np.repeat(y_start[:, None], n_grid, axis=1)
    for j, driver in enumerate(problem.drivers):
        for i in range(problem.F.m):
            sf = reference_field(problem.F.components[i][j], j, t_grid, y_current,
                                 problem.drivers)
            out[i, 1:] += np.cumsum(rp.cumulative_increments(sf, driver, a, b, grid_level))
    if not np.isfinite(out).all():
        raise rp.NonFiniteIterate("Picard sweep produced non-finite values")
    return out


def reference_field(comp, j, t_grid, y_grid, drivers):
    """F_ij frozen along the iterate: time-only when it does not read x_j."""

    def y_at(t):
        return np.stack([np.interp(t, t_grid, row) for row in y_grid])

    if not comp.depends_on_driver:

        def f_t(t):
            return comp.evaluate(t, y_at(t), np.stack([d.eval(t) for d in drivers]))

        return rp.ScalarField.t_only(f_t)

    def f_tx(t, x):
        x = np.asarray(x, dtype=float)
        if len(drivers) == 1:
            xx = x[None]
        else:
            xx = np.stack([x if q == j else np.broadcast_to(d.eval(t), x.shape)
                           for q, d in enumerate(drivers)])
        return np.broadcast_to(comp.evaluate(t, y_at(t), xx), x.shape)

    return rp.ScalarField(evaluate=f_tx, depends_on="both")


# Components F_ij(c, j): four time-only ones, one of which returns a scalar
# and two of which read both the first and the last driver, and two that
# read x_j on the quadrature grid.
COMPONENTS = (
    lambda c, j: component(lambda t, y, x: c),
    lambda c, j: component(lambda t, y, x: c * y[0]),
    lambda c, j: component(lambda t, y, x: c * y[-1] * np.cos(x[0] + x[-1])),
    lambda c, j: component(lambda t, y, x: c * (np.sin(3.0 * t) + x[-1] * y[0] - x[0])),
    lambda c, j: component(lambda t, y, x: c * np.sin(x[j]) * y[-1], depends_on_driver=True),
    lambda c, j: component(lambda t, y, x: c * x[-1] * (y[0] + x[0]), depends_on_driver=True),
)


@st.composite
def systems(draw, coefficients):
    """(F, drivers, y0): one or two Brownian drivers at K 6..12, m = 1 or 2."""
    d = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    drivers = [rp.gen_brownian(draw(st.integers(6, 12)), draw(st.integers(0, 2**32)))
               for _ in range(d)]
    F = rp.MatrixField([[draw(st.sampled_from(COMPONENTS))(draw(st.sampled_from(coefficients)), j)
                         for j in range(d)] for _ in range(m)])
    y0 = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    return F, drivers, y0


def problem_of(system, horizon=1.0):
    F, drivers, y0 = system
    return rp.OdeProblem(F=F, drivers=drivers, y0=y0, beta=0.5, horizon=horizon)


def outcome(fn):
    try:
        return fn()
    except rp.RoughPathError as exc:
        return type(exc), str(exc)


# Fields that read the driver on the quadrature grid, given a level c in the
# driver's range: smooth ones, and one with a kink at x = c.
GRID_FIELDS = {
    "sin(x)*y": lambda c: lambda t, y, x: np.sin(x[0]) * y[0],
    "x*y**2": lambda c: lambda t, y, x: x[0] * y[0] ** 2,
    "sqrt|x-c|*y": lambda c: lambda t, y, x: np.sqrt(np.abs(x[0] - c)) * y[0],
}


class TestSweepsMatchTheReference:
    """Sweeps on a window's cached plan equal ``cumulative_increments`` sums, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(system=systems((0.3, -1.0, 2.0)), data=st.data())
    def test_picard_operator(self, system, data):
        # windows A and B share their start, so a plan keyed without the end
        # would be handed to the wrong window; A is swept again after B
        problem = problem_of(system)
        K = min(d.resolution_level for d in problem.drivers)
        L = data.draw(st.integers(1, K - 2))
        n = 1 << L
        ia = data.draw(st.integers(0, n - 2))
        ends = data.draw(st.lists(st.integers(ia + 1, n), min_size=2, max_size=2, unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        y_start = rng.uniform(-1.0, 1.0, problem.F.m)
        for ib in ends + ends[:1]:
            a, b = ia / n, ib / n
            y = rng.uniform(-2.0, 2.0, (problem.F.m, ib - ia + 1))
            got = ode.picard_operator(problem, y, a, b, L, y_start=y_start)
            want = reference_operator(problem_of(system), y, a, b, L, y_start=y_start)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(system=systems((0.25, 4.0)), horizon=st.sampled_from((1.0, 0.5, 0.75)),
           data=st.data())
    def test_solve(self, system, horizon, data):
        # F = 4 y-type fields fail on the whole horizon and halve the window,
        # so windows with one start and different ends both get plans
        K = min(d.resolution_level for d in system[1])
        cfg = rp.SolverConfig(tol=1e-9, grid_level=data.draw(st.integers(2, min(K - 2, 7))),
                              check_drivers=False)
        got = outcome(lambda: rp.solve(problem_of(system, horizon), cfg))
        with mock.patch.object(ode, "picard_operator", reference_operator):
            want = outcome(lambda: rp.solve(problem_of(system, horizon), cfg))
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.t.tobytes() == want.t.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
        assert got.residual.hex() == want.residual.hex()
        assert got.windows == want.windows
        assert got.converged == want.converged

    def test_solve_with_halved_windows(self):
        driver = rp.gen_brownian(12, 3)
        F = rp.MatrixField.scalar(lambda t, y, x: 4.0 * y[0])
        cfg = rp.SolverConfig(grid_level=6, check_drivers=False)
        got = rp.solve(problem_of((F, [driver], np.array([1.0]))), cfg)
        with mock.patch.object(ode, "picard_operator", reference_operator):
            want = rp.solve(problem_of((F, [driver], np.array([1.0]))), cfg)
        assert len(got.windows) == 4
        assert got.windows == want.windows
        assert got.y.tobytes() == want.y.tobytes()
        assert got.residual.hex() == want.residual.hex()

    @pytest.mark.parametrize("horizon", [1.0, 0.5])
    def test_solve_two_drivers(self, horizon):
        # time-only components read the other driver, whose values the plan
        # keeps next to the window's verticals
        F = rp.MatrixField([[COMPONENTS[2](0.3, 0), COMPONENTS[4](0.5, 1)],
                            [COMPONENTS[5](-0.4, 0), COMPONENTS[3](0.2, 1)]])
        system = (F, [rp.gen_brownian(12, 5), rp.gen_brownian(10, 6)], np.array([1.0, -0.5]))
        cfg = rp.SolverConfig(tol=1e-9, grid_level=7, check_drivers=False)
        got = rp.solve(problem_of(system, horizon), cfg)
        with mock.patch.object(ode, "picard_operator", reference_operator):
            want = rp.solve(problem_of(system, horizon), cfg)
        assert got.converged
        assert got.windows == want.windows
        assert got.y.tobytes() == want.y.tobytes()
        assert got.residual.hex() == want.residual.hex()

    def test_plan_reads_drivers_by_stride_or_eval(self):
        # on grid level 4 the K = 8 driver's skeleton sits at level 6, which both
        # drivers resolve, and the K = 12 driver's at level 10, finer than the
        # K = 8 driver: the plan reads that one through eval, all others by stride
        F = rp.MatrixField([[COMPONENTS[2](0.3, 0), COMPONENTS[3](-0.2, 1)]])
        system = (F, [rp.gen_brownian(8, 5), rp.gen_brownian(12, 6)], np.array([1.0]))
        problem = problem_of(system)
        plan = ode._window_plan(problem, 0.0, 1.0, 4)
        assert [sk.k for sk, _, _ in plan] == [6, 10]
        for sk, x_at, _ in plan:
            want = np.stack([d.eval(sk.times) for d in problem.drivers])
            assert x_at.tobytes() == want.tobytes()
        cfg = rp.SolverConfig(tol=1e-9, grid_level=4, check_drivers=False)
        got = rp.solve(problem_of(system), cfg)
        with mock.patch.object(ode, "picard_operator", reference_operator):
            want = rp.solve(problem_of(system), cfg)
        assert got.converged
        assert got.windows == want.windows
        assert got.y.tobytes() == want.y.tobytes()
        assert got.residual.hex() == want.residual.hex()

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(4, 12), seed=st.integers(0, 2**32),
           name=st.sampled_from(sorted(GRID_FIELDS)), data=st.data())
    def test_first_panel_grid_changes_no_bit(self, K, seed, name, data):
        # sweeps on the plan's first-panel grid against the same sweeps with
        # every panel built from its bounds, over several windows of one
        # problem; the kinked field bisects every vertical that crosses c
        driver = rp.gen_brownian(K, seed)
        c = float(driver.samples[data.draw(st.integers(0, 1 << K))])
        F = rp.MatrixField.scalar(GRID_FIELDS[name](c), depends_on_driver=True)
        problem = rp.OdeProblem(F=F, drivers=[driver], y0=np.array([0.5]), beta=0.5)
        plan = ode._window_plan

        def gridless(*args):
            return [(sk, x_at, None) for sk, x_at, _ in plan(*args)]

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        for _ in range(data.draw(st.integers(1, 3))):
            L = data.draw(st.integers(1, K - 2))
            n = 1 << L
            ia = data.draw(st.integers(0, n - 1))
            ib = data.draw(st.integers(ia + 1, n))
            y = rng.uniform(-2.0, 2.0, (1, ib - ia + 1))
            got = outcome(lambda: ode.picard_operator(problem, y, ia / n, ib / n, L))
            assert plan(problem, ia / n, ib / n, L)[0][2] is not None
            with mock.patch.object(ode, "_window_plan", gridless):
                want = outcome(lambda: ode.picard_operator(problem, y, ia / n, ib / n, L))
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(3, 14), seed=st.integers(0, 2**32), data=st.data())
    def test_endpoints_are_the_path_at_grid_points(self, K, seed, data):
        # the increments close to the samples at grid points, which is what
        # eval returns there
        path = rp.gen_brownian(K, seed)
        G = data.draw(st.integers(1, K - 2))
        n = 1 << G
        ia = data.draw(st.integers(0, n - 1))
        ib = data.draw(st.integers(ia + 1, n))
        sk = integrator._increment_skeleton(path, ia / n, ib / n, G)
        lo = sk.lo.reshape(sk.n_blocks, sk.span + 1)
        hi = sk.hi.reshape(sk.n_blocks, sk.span + 1)
        grid = np.arange(ia, ib + 1) / n
        assert lo[:, 0].tobytes() == path.eval(grid[:-1]).tobytes()
        assert hi[:, -1].tobytes() == path.eval(grid[1:]).tobytes()


@settings(max_examples=6, deadline=None)
@given(alpha=st.floats(0.2, 0.45))
def test_rough_driver_error_falls_with_grid_level(alpha):
    # dy = y dx on a tent-packet driver of Hölder exponent alpha, down to
    # 0.2, solves to exp(x - x(0)).  From L = 9 to L = 11 the error falls
    # 16x for most alpha; around alpha = 0.38, where the L = 9 error is
    # unusually small, it falls only 5.0x, and per-level ratios are not
    # monotone (1.7x from L = 10 to 11 at alpha = 0.45).  Reading the
    # iterate one grid cell late leaves a first-order error that falls at
    # most 2.7x over the same two levels.
    driver = rp.gen_oscillatory(alpha, alpha, 0.0, 5, 14)
    problem = rp.OdeProblem(F=rp.MatrixField.linear_in_y(), drivers=[driver],
                            y0=np.array([1.0]), beta=alpha)
    errors = []
    for L in (9, 11):
        sol = rp.solve(problem, rp.SolverConfig(tol=1e-10, grid_level=L, check_drivers=False))
        exact = np.exp(driver.eval(sol.t) - driver.eval(0.0))
        errors.append(np.abs(sol.y[0] - exact).max())
    assert errors[1] * 4.0 <= errors[0]


def rough_problem(driver, alpha):
    """dy = y dx from y0 = 1: on a driver from x(0) = 0 it solves to exp(x)."""
    return rp.OdeProblem(F=rp.MatrixField.linear_in_y(), drivers=[driver],
                         y0=np.array([1.0]), beta=alpha)


@settings(max_examples=12, deadline=None)
@given(alpha=st.floats(0.2, 0.45), m_max=st.integers(3, 5), L=st.integers(8, 10),
       eps=st.floats(1e-3, 0.1))
def test_continuity_ratio_is_bounded_on_rough_drivers(alpha, m_max, L, eps):
    # Perturb a tent-packet driver of Hölder exponent alpha by eps times
    # itself, t, and a sawtooth of level-(L-3) cells.  Since y = exp(x),
    # |y_a - y_b| <= exp(max(x_a, x_b)) * sup |x_a - x_b|, so the ratio of
    # output to input distance is at most exp(max(x_a, x_b)).  The output
    # distance must also match the closed form's to 1%: the worst seen over
    # alpha, m_max, L, eps and the three perturbations is 0.26%.  Reading
    # the iterate one grid cell late misses it by 17% or more on the first.
    K = 14
    x = rp.gen_oscillatory(alpha, alpha, 0.0, m_max, K)
    t = x.grid
    phase = t * 2.0 ** (L - 3) % 1.0
    cfg = rp.SolverConfig(tol=1e-10, grid_level=L, check_drivers=False)
    for z in (x.samples, t, 1.0 - np.abs(2.0 * phase - 1.0)):
        xb = rp.DyadicPath(x.samples + eps * z, K)
        rep = rp.continuity_experiment(rough_problem(x, alpha), rough_problem(xb, alpha), cfg)
        grid = rep["solutions"][0].t
        exact = np.abs(np.exp(x.eval(grid)) - np.exp(xb.eval(grid))).max()
        assert rep["ratio"] <= 1.01 * np.exp(max(x.samples.max(), xb.samples.max()))
        assert abs(rep["output_distance"]["sup"] - exact) <= 0.01 * exact


@settings(max_examples=8, deadline=None)
@given(alpha=st.floats(0.2, 0.45), m_max=st.integers(3, 5), L=st.integers(8, 9))
def test_solve_is_consistent_across_grid_levels(alpha, m_max, L):
    # At the level-L grid points the level-(L+2) solution lies within
    # 2**(1-L) of the level-L one.  The worst seen over alpha, m_max and L
    # is half that bound; reading the iterate one grid cell late leaves a
    # first-order difference of at least 6.7 times it.
    x = rp.gen_oscillatory(alpha, alpha, 0.0, m_max, 14)
    coarse, fine = (rp.solve(rough_problem(x, alpha),
                             rp.SolverConfig(tol=1e-10, grid_level=level, check_drivers=False))
                    for level in (L, L + 2))
    assert fine.t[::4].tobytes() == coarse.t.tobytes()
    assert np.abs(fine.y[0, ::4] - coarse.y[0]).max() <= 2.0 ** (1 - L)
