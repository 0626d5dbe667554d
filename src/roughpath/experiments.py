"""Named verification experiments with pass/fail verdicts.

Each experiment pins its tolerances and seeds, returns a CriterionResult, and
is reachable both from the test suite and from ``roughpath reproduce``.
Statistical criteria run at fixed seeds: the asymptotic statements they probe
are almost-sure limits, so any seed is a legitimate draw and fixing one keeps
the suite deterministic.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .calculus import green_eval, ito_compare
from .diagnostics import (
    WIENER_CONSTANT,
    existence_report,
    scaling_norm,
    wiener_statistic,
)
from .dyadic import DyadicPath, average_pyramid, holder_seminorm
from .fields import BUILTIN_FIELDS
from .generators import (
    gen_analytic,
    gen_brownian,
    gen_counterexample,
    gen_oscillatory,
    oscillation_levels,
)
from .integrator import (
    ConvergenceConfig,
    ScalarField,
    adversarial_integrand,
    integrate,
    integrate_state_only,
    staircase_integral,
)
from .ode import MatrixField, OdeProblem, SolverConfig, continuity_experiment, solve


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime_s: float
    budget_s: float
    details: dict = field(default_factory=dict)


def format_result(r: CriterionResult) -> str:
    mark = "PASS" if r.passed else "FAIL"
    keys = ", ".join(f"{k}={v}" for k, v in r.details.items())
    return f"{mark} {r.name} ({r.runtime_s:.1f}s / budget {r.budget_s:.0f}s) {keys}"


def simpson_oracle(h, a: float, b: float, tol: float = 1e-10, depth: int = 0) -> float:
    """Independent adaptive-Simpson reference for smooth scalar integrands."""
    m = 0.5 * (a + b)
    s1 = (b - a) / 6.0 * (h(a) + 4.0 * h(m) + h(b))
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    s2 = (b - a) / 12.0 * (h(a) + 4.0 * h(lm) + 2.0 * h(m) + 4.0 * h(rm) + h(b))
    if abs(s2 - s1) < 15.0 * tol or depth > 40:
        return s2 + (s2 - s1) / 15.0
    return simpson_oracle(h, a, m, tol / 2.0, depth + 1) + simpson_oracle(
        h, m, b, tol / 2.0, depth + 1
    )


def riemann_stieltjes_oracle(f, g, gprime, a: float, b: float, tol: float = 1e-10) -> float:
    """Classical-route reference: integral of f(t, g(t)) g'(t) dt."""
    return simpson_oracle(lambda t: f(t, g(t)) * gprime(t), a, b, tol)


# ---------------------------------------------------------------------------
# criteria


def pyramid_exactness() -> dict:
    rng = np.random.default_rng(20250801)
    K, n_paths = 12, 1000
    worst = 0.0
    for _ in range(n_paths):
        samples = np.cumsum(rng.standard_normal((1 << K) + 1)) * 2.0 ** (-K / 2)
        pyr = average_pyramid(DyadicPath(samples, K))
        for k in range(K - 1):
            child = pyr.level(k + 1)
            err = np.abs(pyr.level(k) - 0.5 * (child[0::2] + child[1::2])).max()
            worst = max(worst, float(err))
    return {"passed": worst < 1e-12, "max_parent_mean_error": worst}


def closed_form_identities() -> dict:
    paths = [gen_brownian(16, 3000 + i) for i in range(50)]
    paths += [gen_analytic(kind, 16) for kind in ("linear", "square", "sine")]
    paths += [
        gen_analytic(fn, 16)
        for fn in (
            lambda t: np.cos(2.0 * t) - 1.0,
            lambda t: t - t * t,
            lambda t: np.sin(3.0 * t) / 3.0,
            lambda t: t / (1.0 + t),
            lambda t: np.expm1(t) / 4.0,
            lambda t: np.sqrt(t + 0.25) - 0.5,
            lambda t: t ** 3,
        )
    ]
    worst_rel = 0.0
    for path in paths:
        gs = float(path.eval(1.0))
        checks = [
            (lambda x: x, 0.5 * gs * gs),
            (lambda x: np.abs(x) ** 0.3, np.sign(gs) * np.abs(gs) ** 1.3 / 1.3),
            (lambda x: np.abs(x) ** 0.7, np.sign(gs) * np.abs(gs) ** 1.7 / 1.7),
            (
                lambda x: np.sin(2.0 * x) * np.exp(x),
                np.exp(gs) * (np.sin(2.0 * gs) - 2.0 * np.cos(2.0 * gs)) / 5.0
                - (0.0 - 2.0) / 5.0,
            ),
        ]
        for f, exact in checks:
            got = integrate_state_only(f, path, 0.0, 1.0)
            rel = abs(got - exact) / max(1e-12, abs(exact))
            worst_rel = max(worst_rel, rel)
    worst_cross = 0.0
    for path in paths[:50]:
        gs = float(path.eval(1.0))
        result = integrate(BUILTIN_FIELDS["x"], path, 0.0, 1.0, ConvergenceConfig(tol=1e-8))
        worst_cross = max(worst_cross, abs(result.value - 0.5 * gs * gs))
    return {
        "passed": worst_rel < 1e-8 and worst_cross < 1e-4,
        "max_rel_error": worst_rel,
        "max_cross_error": worst_cross,
    }


def young_regime_oracle() -> dict:
    K = 18
    cases = [
        (gen_analytic("square", K), lambda t: t * t, lambda t: 2.0 * t),
        (gen_analytic("sine", K), np.sin, np.cos),
    ]
    fields = [
        ("sin_t_x", lambda t, x: np.sin(t) * x),
        ("t_plus_x2", lambda t, x: t + np.square(x)),
    ]
    cfg = ConvergenceConfig(tol=5e-8)
    worst = 0.0
    for path, g, gp in cases:
        for name, f in fields:
            oracle = riemann_stieltjes_oracle(f, g, gp, 0.0, 1.0, tol=1e-12)
            got = integrate(BUILTIN_FIELDS[name], path, 0.0, 1.0, cfg).value
            worst = max(worst, abs(got - oracle))
    return {"passed": worst < 1e-6, "max_error": worst}


def adversarial_identity() -> dict:
    K = 12
    paths = [gen_brownian(K, 500 + i) for i in range(20)]
    paths += [
        gen_analytic("linear", K),
        gen_analytic("square", K),
        gen_analytic("sine", K),
        gen_analytic(lambda t: np.cos(3.0 * t), K),
        gen_analytic(lambda t: t * (1.0 - t), K),
    ]
    worst = 0.0
    for path in paths:
        pyr = path.pyramid()
        for k_max in (3, 5, 7):
            f_path, predicted = adversarial_integrand(pyr, 0.45, k_max)
            got = staircase_integral(ScalarField.t_only(f_path.eval), pyr, 0.0, 1.0, k_max)
            rel = abs(got - predicted) / max(1e-300, abs(predicted))
            worst = max(worst, rel)
    return {"passed": worst < 1e-12, "max_rel_error": worst}


def wiener_constant() -> dict:
    K, k, n_paths = 18, 12, 200
    stats = np.array(
        [wiener_statistic(gen_brownian(K, 9000 + i).pyramid(), k) for i in range(n_paths)]
    )
    target_var = (2.0 / 3.0) * 2.0 ** -(k + 1) - (2.0 / (3.0 * math.pi)) * 2.0 ** -k
    stderr = math.sqrt(target_var / n_paths)
    mean_gap = abs(float(stats.mean()) - WIENER_CONSTANT)
    var = float(stats.var(ddof=1))
    var_ok = abs(var - target_var) < 0.5 * target_var
    return {
        "passed": mean_gap < 3.0 * stderr and var_ok,
        "mean_gap": mean_gap,
        "three_stderr": 3.0 * stderr,
        "variance": var,
        "target_variance": target_var,
    }


def ito_residual() -> dict:
    f = lambda x: np.square(x)
    fp = lambda x: 2.0 * x
    means = {}
    for K in (12, 14, 16):
        paths = [gen_brownian(K, 7000 + i) for i in range(100)]
        means[K] = ito_compare(f, paths, s=1.0, fprime=fp)["mean_abs_residual"]
    decreasing = means[12] > means[14] > means[16]
    return {
        "passed": means[16] < 0.05 and decreasing,
        "mean_abs_residual": {k: round(v, 6) for k, v in means.items()},
    }


def oscillatory_scaling() -> dict:
    alpha = beta = 0.45
    gamma = alpha * beta / (1.0 - alpha)
    m_max = 2
    a_values = [0.0, 2.0, 4.0]
    norms, holders = [], []
    for A in a_values:
        K = oscillation_levels(alpha, A, m_max)[-1] + m_max + 10
        path = gen_oscillatory(alpha, beta, A, m_max, K)
        norms.append(scaling_norm(path.pyramid(), beta, gamma, scan_depth=4).value)
        holders.append(holder_seminorm(path, alpha, max_lag_levels=3).seminorm_lower_bound)
    slope = float(np.polyfit(a_values, np.log2(norms), 1)[0])
    target = (1.0 - alpha - beta) / (1.0 - alpha)
    holder_spread = max(holders) / min(holders) - 1.0
    return {
        "passed": abs(slope - target) < 0.15 * target and holder_spread < 0.10,
        "slope": slope,
        "target_slope": target,
        "holder_spread": holder_spread,
    }


def counterexample_divergence() -> dict:
    alpha = beta = 0.3
    path = gen_counterexample(alpha, beta, 20)
    report = existence_report(path.pyramid(), beta)
    tail = report.partial_sums[-6:]
    strictly_up = bool(np.all(np.diff(tail) > 0))
    h20 = holder_seminorm(path, alpha).seminorm_lower_bound
    h14 = holder_seminorm(gen_counterexample(alpha, beta, 14), alpha).seminorm_lower_bound
    return {
        "passed": strictly_up and report.verdict == "diverging" and h20 < 2.0 * h14,
        "verdict": report.verdict,
        "partial_sum_tail_increasing": strictly_up,
        "holder_ratio": h20 / h14,
    }


def ode_exactness() -> dict:
    cfg = SolverConfig(tol=1e-10, grid_level=12)
    linear = OdeProblem(
        F=MatrixField.linear_in_y(),
        drivers=[gen_analytic("linear", 16)],
        y0=np.array([1.0]),
        beta=0.9,
    )
    sol = solve(linear, cfg)
    err_exp = float(np.abs(sol.y[0] - np.exp(sol.t)).max())

    K_osc = 16
    driver = gen_oscillatory(0.45, 0.45, 0.0, 7, K_osc)
    rough = OdeProblem(
        F=MatrixField.linear_in_y(),
        drivers=[driver],
        y0=np.array([1.0]),
        beta=0.45,
    )
    sol2 = solve(rough, SolverConfig(tol=1e-10, grid_level=12, check_drivers=False))
    exact2 = np.exp(driver.eval(sol2.t))
    err_osc = float(np.abs(sol2.y[0] - exact2).max())

    green_gaps = []
    for field_name, path in (("tx", gen_analytic("linear", 16)),
                             ("sin_t_x", gen_analytic("square", 16))):
        field = BUILTIN_FIELDS[field_name]
        direct = integrate(field, path, 0.0, 1.0, ConvergenceConfig(tol=1e-9)).value
        green = green_eval(field, path, 1.0).total
        green_gaps.append(abs(direct - green))
    return {
        "passed": err_exp < 1e-6 and err_osc < 1e-4 and max(green_gaps) < 1e-5,
        "exp_error": err_exp,
        "oscillatory_error": err_osc,
        "green_gap": max(green_gaps),
    }


def itolyons_continuity() -> dict:
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3):
        base = OdeProblem(
            F=MatrixField.linear_in_y(),
            drivers=[gen_analytic("linear", 14)],
            y0=np.array([1.0]),
            beta=0.9,
        )
        bumped = OdeProblem(
            F=MatrixField.linear_in_y(),
            drivers=[gen_analytic(lambda t, e=eps: (1.0 + e) * t, 14)],
            y0=np.array([1.0]),
            beta=0.9,
        )
        report = continuity_experiment(base, bumped, SolverConfig(tol=1e-10, grid_level=10))
        ratios.append(report["output_distance"]["sup"] / eps)
    spread = max(ratios) / min(ratios)
    return {"passed": spread < 2.0, "sup_over_eps": [round(r, 4) for r in ratios]}


CRITERIA = {
    "pyramid-exactness": (pyramid_exactness, 5.0),
    "closed-forms": (closed_form_identities, 120.0),
    "young-oracle": (young_regime_oracle, 60.0),
    "adversarial-identity": (adversarial_identity, 60.0),
    "wiener-constant": (wiener_constant, 300.0),
    "ito-residual": (ito_residual, 180.0),
    "oscillatory-scaling": (oscillatory_scaling, 120.0),
    "counterexample-divergence": (counterexample_divergence, 60.0),
    "ode-exactness": (ode_exactness, 180.0),
    "itolyons-continuity": (itolyons_continuity, 60.0),
}

CRITERIA_ORDER = list(CRITERIA)


def run_criterion(name: str) -> CriterionResult:
    if name not in CRITERIA:
        raise KeyError(f"unknown criterion {name!r}; choices: {CRITERIA_ORDER}")
    fn, budget = CRITERIA[name]
    start = time.perf_counter()
    details = fn()
    elapsed = time.perf_counter() - start
    passed = bool(details.pop("passed")) and elapsed < budget
    return CriterionResult(
        name=name, passed=passed, runtime_s=elapsed, budget_s=budget, details=details
    )
