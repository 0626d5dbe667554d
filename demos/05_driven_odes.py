#!/usr/bin/env python3
"""Differential equations driven by irregular paths.

dy = F(t, y, x) dx is solved by iterating the fixed-point map
y -> y0 + integral of F(., y, x) dx, window by window.  The driver only
needs a summable existence diagnostic, so highly oscillatory inputs far
outside bounded variation are fine.
"""

import numpy as np

import roughpath as rp

# Classical sanity check: dy = y dx with x(t) = t gives e^t.
prob = rp.OdeProblem(
    F=rp.MatrixField.linear_in_y(),
    drivers=[rp.gen_analytic("linear", 16)],
    y0=np.array([1.0]),
    beta=0.9,
)
sol = rp.solve(prob, rp.SolverConfig(tol=1e-10, grid_level=12))
print("dy = y dx, x = t:  sup |y - e^t| =", np.abs(sol.y[0] - np.exp(sol.t)).max())
print("  windows:", [(w["start"], w["end"], w["iterations"]) for w in sol.windows],
      "residual:", sol.residual)

# A genuinely rough driver: the oscillatory tent-packet path (unbounded
# variation).  The exact solution is still e^{x(t)} because the integrand is
# a function of the driver alone.
driver = rp.gen_oscillatory(0.45, 0.45, A=0.0, m_max=7, K=16)
rough = rp.OdeProblem(
    F=rp.MatrixField.linear_in_y(), drivers=[driver], y0=np.array([1.0]), beta=0.45
)
sol2 = rp.solve(rough, rp.SolverConfig(tol=1e-10, grid_level=12, check_drivers=False))
err = np.abs(sol2.y[0] - np.exp(driver.eval(sol2.t))).max()
print("\ndy = y dx, oscillatory driver:  sup |y - e^x| =", err)

# Continuity of the inputs-to-solution map: perturb the driver, watch the
# solution move linearly.
for eps in (1e-1, 1e-2, 1e-3):
    bumped = rp.OdeProblem(
        F=rp.MatrixField.linear_in_y(),
        drivers=[rp.gen_analytic(lambda t, e=eps: (1 + e) * t, 16)],
        y0=np.array([1.0]),
        beta=0.9,
    )
    rep = rp.continuity_experiment(prob, bumped, rp.SolverConfig(tol=1e-10, grid_level=10))
    print(f"eps={eps:g}: output sup distance / eps = "
          f"{rep['output_distance']['sup'] / eps:.4f}")
