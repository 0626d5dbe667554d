#!/usr/bin/env python3
"""The staircase integral: level sums, limits, and exact reductions.

The integral of f(t, x) dx along a path is the limit of line integrals over
horizontal/vertical staircases through the average pyramid.  For integrands
that depend only on the state the limit collapses to a definite integral
between path values, which is what makes closed forms available on very
rough paths.
"""

import numpy as np

import roughpath as rp

# Young-regime pair: smooth path, smooth field; the level history converges
# second order and matches classical Riemann-Stieltjes values.
path = rp.gen_analytic("square", 16)
res = rp.integrate(rp.BUILTIN_FIELDS["sin_t_x"], path, 0.0, 1.0,
                   rp.ConvergenceConfig(tol=1e-9))
print("integral of sin(t) x dx over g(t)=t^2:", res.value)
print("  levels used", res.levels, "| last deltas",
      np.round(np.diff(res.level_values[-4:]), 12))

# State-only integrands work on any continuous path.  On a Brownian path the
# classic closed forms hold exactly in the limit.
bm = rp.gen_brownian(16, seed=11)
gs = bm.eval(1.0)
print("\nBrownian path, g(1) =", gs)
print("  integral of x dx      :", rp.integrate_state_only(lambda x: x, bm, 0, 1),
      " vs g(1)^2/2 =", 0.5 * gs * gs)
print("  integral of |x|^0.3 dx:",
      rp.integrate_state_only(lambda x: np.abs(x) ** 0.3, bm, 0, 1),
      " vs sign(g) |g|^1.3/1.3 =", np.sign(gs) * np.abs(gs) ** 1.3 / 1.3)

# The full staircase limit agrees with the reduction.
cross = rp.integrate(rp.BUILTIN_FIELDS["x"], bm, 0.0, 1.0)
print("  staircase route       :", cross.value, "(converged:", cross.converged, ")")

# The adversarial integrand shows why the existence diagnostic is sharp: its
# staircase integral at level k equals the weighted gap sums exactly, so a
# divergent diagnostic produces an actual divergent integrand family.
f_path, predicted = rp.adversarial_integrand(bm.pyramid(), beta=0.45, k_max=6)
got = rp.staircase_integral(rp.ScalarField.t_only(f_path.eval), bm.pyramid(), 0.0, 1.0, 6)
print("\nadversarial identity: staircase =", got, "predicted =", predicted)

# Indefinite integral: a continuous curve accumulated over grid increments.
curve = rp.indefinite_integral(rp.BUILTIN_FIELDS["x"], rp.gen_analytic("linear", 12), 6)
print("\nindefinite integral of x dx over g(t)=t at t=1/2:", curve[32, 1], "(t^2/2 = 0.125)")
