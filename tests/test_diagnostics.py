import math

import numpy as np
import pytest

import roughpath as rp
from roughpath.io import DIAGNOSE_SCHEMA, validate_schema


def constant_pyramid(value=1.5, K=10):
    return rp.DyadicPath(np.full((1 << K) + 1, value), K).pyramid()


class TestLevyArea:
    def test_linear_closed_form(self):
        # brute-force oracle: area = 2**-(k+1) * sum |sibling gaps|
        pyr = rp.gen_analytic("linear", 10).pyramid()
        for k in (0, 3, 6):
            child = pyr.level(k + 1)
            brute = 2.0 ** -(k + 1) * np.abs(child[0::2] - child[1::2]).sum()
            assert rp.levy_area(pyr, k) == pytest.approx(brute, abs=1e-16)
            assert rp.levy_area(pyr, k) == pytest.approx(2.0 ** -(k + 2), abs=1e-15)

    def test_constant_is_zero(self):
        pyr = constant_pyramid()
        assert all(rp.levy_area(pyr, k) == 0.0 for k in range(9))

    def test_brownian_gap_scale(self):
        # per-sibling mean |gap| tracks 2**(-k/2) sqrt(2/(3 pi))
        k, K, n = 8, 16, 40
        means = [
            np.abs(rp.gen_brownian(K, 600 + i).pyramid().child_gap(k)).mean()
            for i in range(n)
        ]
        target = 2.0 ** (-k / 2.0) * rp.WIENER_CONSTANT
        got = float(np.mean(means))
        assert abs(got - target) < 0.05 * target

    def test_level_guard(self):
        pyr = rp.gen_analytic("linear", 6).pyramid()
        with pytest.raises(rp.LevelOutOfRange):
            rp.levy_area(pyr, 5)


class TestExistenceReport:
    def test_linear_terms_and_verdict(self):
        pyr = rp.gen_analytic("linear", 12).pyramid()
        report = rp.existence_report(pyr, 0.5)
        # terms 2**(k/2) * 2**-(k+1) = 2**(-k/2 - 1)
        expect = 2.0 ** (-report.levels / 2.0 - 1.0)
        assert np.allclose(report.terms, expect, rtol=1e-12)
        assert report.verdict == "converging"
        assert np.all(np.diff(report.partial_sums) >= 0)

    def test_constant_zero_sums(self):
        report = rp.existence_report(constant_pyramid(), 0.5)
        assert np.all(report.partial_sums == 0)
        assert report.verdict == "converging"

    def test_counterexample_diverges(self):
        path = rp.gen_counterexample(0.3, 0.3, 16)
        assert rp.existence_report(path.pyramid(), 0.3).verdict == "diverging"

    def test_beta_monotonicity(self):
        # smaller beta weights every level at least as heavily
        pyr = rp.gen_brownian(12, 4).pyramid()
        lo = rp.existence_report(pyr, 0.4)
        hi = rp.existence_report(pyr, 0.7)
        assert np.all(lo.terms >= hi.terms)

    def test_json_schema(self):
        report = rp.existence_report(rp.gen_analytic("sine", 8).pyramid(), 0.6)
        validate_schema(report.to_json(), DIAGNOSE_SCHEMA)

    def test_bad_beta(self):
        with pytest.raises(rp.BadExponents):
            rp.existence_report(constant_pyramid(), 1.5)


class TestGapFunctional:
    def test_constant_is_zero(self):
        assert rp.gap_functional(constant_pyramid(), 0.0, 1.0, 0.75) == 0.0

    def test_linear_brute_force(self):
        # direct double-sum oracle over the pyramid
        pyr = rp.gen_analytic("linear", 12).pyramid()
        a, b, beta = 0.0, 1.0, 0.75
        k0 = rp.diagnostics.base_level(a, b)
        brute = 0.0
        for k in range(k0 + 1, pyr.K - 1):
            child = pyr.level(k + 1)
            gaps = np.abs(child[0::2] - child[1::2])
            for c in range(1 << k):
                if c * 2.0**-k >= a and (c + 1) * 2.0**-k <= b:
                    brute += 2.0 ** (-(k + 1) * beta + 1) * gaps[c]
        got = rp.gap_functional(pyr, a, b, beta)
        assert got == pytest.approx(brute, rel=1e-12)
        assert got > 0

    def test_smooth_holder_bound(self):
        # paths with exponent alpha = 1 obey the geometric tail bound
        for kind in ("linear", "sine"):
            path = rp.gen_analytic(kind, 14)
            pyr = path.pyramid()
            seminorm = rp.holder_seminorm(path, 1.0).seminorm_lower_bound
            for beta in (0.6, 0.75):
                bound = seminorm / (1.0 - 2.0 ** -(1.0 + beta - 1.0))
                for (a, b) in ((0.0, 1.0), (0.25, 0.75), (0.5, 0.625)):
                    mu = rp.gap_functional(pyr, a, b, beta)
                    assert mu <= bound * (b - a) ** (1.0 + beta) + 1e-12

    def test_interval_monotone(self):
        pyr = rp.gen_brownian(12, 9).pyramid()
        inner = rp.gap_functional(pyr, 0.25, 0.5, 0.6, k_min=4)
        outer = rp.gap_functional(pyr, 0.0, 1.0, 0.6, k_min=4)
        assert inner <= outer

    def test_bad_interval(self):
        with pytest.raises(rp.BadInterval):
            rp.gap_functional(constant_pyramid(), 0.5, 0.5, 0.5)


class TestScalingNorm:
    def test_constant_zero(self):
        est = rp.scaling_norm(constant_pyramid(), 0.5, 0.5)
        assert est.value == 0.0

    def test_dominates_full_interval_ratio(self):
        pyr = rp.gen_brownian(12, 21).pyramid()
        est = rp.scaling_norm(pyr, 0.6, 0.3, scan_depth=4)
        assert est.value >= rp.gap_functional(pyr, 0.0, 1.0, 0.6) - 1e-15

    def test_smooth_bounded_by_holder(self):
        path = rp.gen_analytic("linear", 14)
        seminorm = rp.holder_seminorm(path, 1.0).seminorm_lower_bound
        beta = 0.75
        est = rp.scaling_norm(path.pyramid(), beta, 1.0 - beta + 0.2, scan_depth=4)
        bound = 2.0 * seminorm / (1.0 - 2.0 ** -beta)
        assert est.value <= bound

    def test_positive_homogeneity(self):
        path = rp.gen_brownian(10, 33)
        scaled = rp.DyadicPath(-2.5 * path.samples, 10)
        a = rp.scaling_norm(path.pyramid(), 0.6, 0.3, scan_depth=3).value
        b = rp.scaling_norm(scaled.pyramid(), 0.6, 0.3, scan_depth=3).value
        assert b == pytest.approx(2.5 * a, rel=1e-12)


class TestOperatorTailConstant:
    def test_constant_zero(self):
        assert rp.operator_tail_constant(constant_pyramid(), 0.5) == 0.0

    def test_linear_geometric_tail(self):
        # closed form sup_k0 2**(k0/2) sum_{k>k0} 2**(-k/2-1) = 1/(2(sqrt2-1))
        pyr = rp.gen_analytic("linear", 16).pyramid()
        got = rp.operator_tail_constant(pyr, 0.5)
        assert got == pytest.approx(1.2071067811865472, rel=2e-2)
        # direct-summation oracle at the same truncation
        report = rp.existence_report(pyr, 0.5)
        brute = max(
            2.0 ** (0.5 * k0) * report.terms[i + 1 :].sum()
            for i, k0 in enumerate(report.levels[:-1])
        )
        assert got == pytest.approx(brute, rel=1e-12)

    def test_counterexample_flags_infinity(self):
        path = rp.gen_counterexample(0.3, 0.3, 16)
        assert math.isinf(rp.operator_tail_constant(path.pyramid(), 0.3))


class TestQuadraticGapSum:
    def test_constant_zero(self):
        assert rp.quadratic_gap_sum(constant_pyramid(), 0.0, 1.0, 3) == 0.0

    def test_linear_closed_form(self):
        pyr = rp.gen_analytic("linear", 12).pyramid()
        for k in (2, 5, 8):
            child = pyr.level(k + 1)
            brute = float(np.square(child[0::2] - child[1::2]).sum())
            got = rp.quadratic_gap_sum(pyr, 0.0, 1.0, k)
            assert got == pytest.approx(brute, rel=1e-14)
            assert got == pytest.approx(2.0 ** -(k + 2), rel=1e-12)

    def test_brownian_bounded_sweep(self):
        # per-level sums stay uniformly bounded across resolved levels
        maxima = []
        for i in range(100):
            pyr = rp.gen_brownian(12, 4000 + i).pyramid()
            maxima.append(rp.quadratic_gap_sweep(pyr, 0.0, 1.0)[2:].max())
        assert np.median(maxima) < 0.6

    def test_degree_two_homogeneity(self):
        path = rp.gen_brownian(10, 5)
        scaled = rp.DyadicPath(3.0 * path.samples, 10)
        a = rp.quadratic_gap_sum(path.pyramid(), 0.0, 1.0, 4)
        b = rp.quadratic_gap_sum(scaled.pyramid(), 0.0, 1.0, 4)
        assert b == pytest.approx(9.0 * a, rel=1e-12)


class TestWienerStatistic:
    def test_constant_zero(self):
        assert rp.wiener_statistic(constant_pyramid(value=2.0, K=12), 4) == 0.0

    def test_linear_closed_form(self):
        pyr = rp.gen_analytic("linear", 14).pyramid()
        for k in (4, 8):
            assert rp.wiener_statistic(pyr, k) == pytest.approx(
                2.0 ** (-k / 2.0 - 1.0), rel=1e-12
            )

    def test_resolution_guard(self):
        pyr = rp.gen_brownian(10, 0).pyramid()
        with pytest.raises(rp.LevelOutOfRange):
            rp.wiener_statistic(pyr, 5)

    def test_positive_homogeneity(self):
        path = rp.gen_brownian(12, 17)
        scaled = rp.DyadicPath(4.0 * path.samples, 12)
        a = rp.wiener_statistic(path.pyramid(), 5)
        b = rp.wiener_statistic(scaled.pyramid(), 5)
        assert b == pytest.approx(4.0 * a, rel=1e-12)


class TestWienerEnsemble:
    def test_singleton_matches_statistic(self):
        report = rp.wiener_ensemble([7], 1, 14, seed=77)
        direct = rp.wiener_statistic(rp.gen_brownian(14, 77).pyramid(), 7)
        assert report["levels"][0]["mean"] == pytest.approx(direct, abs=0)

    def test_mean_distance_shrinks_with_level(self):
        report = rp.wiener_ensemble([8, 9, 10, 11, 12], 150, 18, 9000)
        gaps = [abs(l["mean"] - rp.WIENER_CONSTANT) for l in report["levels"]]
        inversions = sum(1 for i in range(len(gaps) - 1) if gaps[i + 1] > gaps[i])
        assert inversions <= 1

    def test_variance_halves_per_level(self):
        report = rp.wiener_ensemble([8, 9], 400, 15, seed=0)
        ratio = report["levels"][1]["variance"] / report["levels"][0]["variance"]
        assert abs(ratio - 0.5) < 0.3 * 0.5

    def test_thread_count_independent(self):
        a = rp.wiener_ensemble([7], 8, 14, seed=5, threads=1)
        b = rp.wiener_ensemble([7], 8, 14, seed=5, threads=4)
        assert a["levels"][0]["mean"] == b["levels"][0]["mean"]

    def test_level_guard(self):
        with pytest.raises(rp.LevelOutOfRange):
            rp.wiener_ensemble([10], 2, 14, seed=1)
