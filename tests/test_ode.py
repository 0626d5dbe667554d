import numpy as np
import pytest

import roughpath as rp
from roughpath import ode


def linear_problem(K=14, beta=0.9, driver=None):
    return rp.OdeProblem(
        F=rp.MatrixField.linear_in_y(),
        drivers=[driver or rp.gen_analytic("linear", K)],
        y0=np.array([1.0]),
        beta=beta,
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
        with pytest.raises(rp.BadInterval):
            rp.picard_operator(prob, np.zeros((1, 7)), 0.0, 1.0, 8)


class TestSolve:
    def test_exponential_solution(self):
        sol = rp.solve(linear_problem(K=16), rp.SolverConfig(tol=1e-10, grid_level=12))
        assert np.abs(sol.component() - np.exp(sol.t)).max() < 1e-6
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
        assert np.abs(sol.component() - exact).max() < 1e-4

    def test_driver_shift_invariance(self):
        driver = rp.gen_brownian(12, 21)
        shifted = driver.shifted(5.0)
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
        assert np.abs(sol.component() - expect).max() < 1e-8

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
        assert np.abs(sol.component() - exact).max() < 1e-6

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
        assert np.abs(sol.component() / exact - 1.0).max() < 1e-6
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
        assert np.abs(sol.component(0) - (1.0 - np.cos(t))).max() < 1e-6
        assert np.abs(sol.component(1) - (np.sin(2 * t) / 8 - t * np.cos(2 * t) / 4)).max() < 1e-6
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
