import concurrent.futures
import functools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpath as rp
from roughpath import diagnostics


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


@st.composite
def report_pyramids(draw):
    """Pyramids of Brownian paths at K 2..14 and of oscillatory, counterexample
    and analytic paths."""
    kind = draw(st.sampled_from(("brownian", "oscillatory", "counterexample", "analytic")))
    if kind == "brownian":
        path = rp.gen_brownian(draw(st.integers(2, 14)), draw(st.integers(0, 2**32)))
    elif kind == "oscillatory":
        path = rp.gen_oscillatory(draw(st.sampled_from((0.2, 0.3, 0.45))), 0.3,
                                  draw(st.sampled_from((0.0, 0.5, 1.0))),
                                  draw(st.integers(1, 3)), draw(st.integers(10, 14)))
    elif kind == "counterexample":
        path = rp.gen_counterexample(draw(st.sampled_from((0.2, 0.3, 0.5))),
                                     draw(st.sampled_from((0.2, 0.3))), draw(st.integers(12, 14)))
    else:
        path = rp.gen_analytic(draw(st.sampled_from(("linear", "square", "sine"))),
                               draw(st.integers(2, 14)))
    return path.pyramid()


class TestExistenceReport:
    @settings(max_examples=80, deadline=None)
    @given(pyr=report_pyramids(), beta=st.floats(0.05, 0.95))
    def test_matches_the_per_level_loop(self, pyr, beta):
        # the one-pass report against one levy_area call per level, by float hex
        report = rp.existence_report(pyr, beta)
        ks = np.arange(1, pyr.K)
        areas = np.array([rp.levy_area(pyr, k - 1) for k in ks])
        terms = 2.0 ** (ks * (1.0 - beta)) * areas
        assert report.levels.tolist() == ks.tolist()
        for got, want in ((report.levy_areas, areas), (report.terms, terms),
                          (report.partial_sums, np.cumsum(terms))):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    def test_overflow_names_the_lowest_level(self):
        # B * [1, 1, 1, -1, -1, -1, -1, 1, 1] on [0, 1/4] overflows a level-4
        # sibling gap, and stretched over [1/2, 1] a level-3 one; levels 1 and 2
        # stay finite, and the report names level 3 without a warning
        big = np.finfo(float).max
        bump = [1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0]
        samples = big * np.concatenate([bump, np.ones(7), np.repeat(bump, 2)[1:]])
        pyr = rp.DyadicPath(samples, 5).pyramid()
        assert np.isfinite(pyr.child_gap(0)).all() and np.isfinite(pyr.child_gap(1)).all()
        message = (r"^a level-3 sibling gap h\[3\]\[2n\] - h\[3\]\[2n\+1\] "
                   r"overflows the float range$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rp.NonFinite, match=message):
                pyr.child_gap(2)
            with pytest.raises(rp.NonFinite, match="level-4 sibling gap"):
                pyr.child_gap(3)
            with pytest.raises(rp.NonFinite, match=message):
                rp.existence_report(pyr, 0.6)

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
        report = rp.existence_report(rp.gen_analytic("sine", 8).pyramid(), 0.6).to_json()
        assert isinstance(report["beta"], (int, float))
        assert isinstance(report["verdict"], str)
        assert isinstance(report["levels"], list) and report["levels"]
        for level in report["levels"]:
            assert all(isinstance(level[key], (int, float))
                       for key in ("k", "B", "term", "partial_sum"))

    def test_bad_beta(self):
        with pytest.raises(rp.BadExponents):
            rp.existence_report(constant_pyramid(), 1.5)

    def test_beta_one_weighs_every_area_by_one(self):
        # the Hölder range (0, 1] of OdeProblem, whose drivers solve checks here
        report = rp.existence_report(rp.gen_brownian(10, 4).pyramid(), 1.0)
        assert report.terms.tobytes() == report.levy_areas.tobytes()

    def test_short_series_is_inconclusive(self):
        # K = 3 resolves two terms, too few for the 4-level trend
        report = rp.existence_report(rp.gen_brownian(3, 2).pyramid(), 0.5)
        assert report.terms.size == 2 and report.terms.any()
        assert report.verdict == "inconclusive"

    def test_tail_falling_to_zero_is_converging(self):
        # a tail holding a zero term has no fitted ratio: it converges when the
        # last term is zero and is inconclusive otherwise
        assert diagnostics._trend_verdict(np.array([5.0, 4.0, 0.0, 2.0, 0.0])) == "converging"
        assert diagnostics._trend_verdict(np.array([1.0, 0.0, 2.0, 1.0])) == "inconclusive"


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
        # the outer sum starts at a coarser level, over a superset of cells
        inner = rp.gap_functional(pyr, 0.25, 0.5, 0.6)
        outer = rp.gap_functional(pyr, 0.0, 1.0, 0.6)
        assert inner <= outer

    def test_bad_interval(self):
        with pytest.raises(rp.BadInterval):
            rp.gap_functional(constant_pyramid(), 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("beta", [0.0, 1.5])
    def test_bad_beta(self, beta):
        with pytest.raises(rp.BadExponents, match=r"beta must lie in \(0, 1\]"):
            rp.gap_functional(constant_pyramid(), 0.0, 1.0, beta)

    def test_beta_one_gives_a_finite_value(self):
        # the Hölder range (0, 1] of existence_report and OdeProblem
        mu = rp.gap_functional(rp.gen_brownian(10, 4).pyramid(), 0.0, 1.0, 1.0)
        assert np.isfinite(mu) and mu > 0.0


class TestScalingNorm:
    def test_constant_zero(self):
        est = rp.scaling_norm(constant_pyramid(), 0.5, 0.5)
        assert est.value == 0.0

    @pytest.mark.parametrize("beta, gamma", [(0.0, 0.5), (0.5, 0.0), (-0.1, 0.5), (1.5, 0.5)])
    def test_bad_exponents(self, beta, gamma):
        with pytest.raises(rp.BadExponents):
            rp.scaling_norm(constant_pyramid(), beta, gamma)

    def test_beta_one_is_the_full_interval_value_or_more(self):
        pyr = rp.gen_brownian(10, 4).pyramid()
        est = rp.scaling_norm(pyr, 1.0, 0.5, scan_depth=4)
        assert np.isfinite(est.value)
        assert est.value >= rp.gap_functional(pyr, 0.0, 1.0, 1.0)

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


@functools.cache
def _scan_pyramid(kind, K, seed):
    if kind == "brownian":
        return rp.gen_brownian(K, seed).pyramid()
    if kind == "oscillatory":
        return rp.gen_oscillatory(0.3, 0.3, float(seed % 3), 3, K).pyramid()
    return rp.gen_counterexample(0.5, 0.3, K).pyramid()


def _brute_scaling_norm(pyr, beta, gamma, scan_depth):
    """The interval loop: one gap_functional per aligned cell, by depth, then left to right."""
    best, arg = 0.0, (0.0, 1.0)
    for j in range(min(scan_depth, pyr.K - 2) + 1):
        width = 2.0 ** -j
        for i in range(1 << j):
            a, b = i * width, (i + 1) * width
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # a cell with no level to sum gives a float 0.0; divide as numpy does
                val = np.float64(rp.gap_functional(pyr, a, b, beta)) / width ** (beta + gamma)
            if val > best:
                best, arg = val, (a, b)
    return best, arg


class TestScalingNormScan:
    @settings(max_examples=60, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(st.just("brownian"), st.integers(2, 10), st.integers(0, 50)),
            st.tuples(st.just("oscillatory"), st.integers(10, 11), st.integers(0, 2)),
            st.tuples(st.just("counterexample"), st.integers(10, 11), st.just(0)),
        ),
        beta=st.floats(0.01, 0.99),
        # width**(beta + gamma) underflows to 0 from depth 1 (gamma = 2000) or 3 (400)
        gamma=st.one_of(st.floats(0.01, 5.0), st.sampled_from([150.0, 400.0, 2000.0])),
        data=st.data(),
    )
    def test_equals_the_interval_loop(self, case, beta, gamma, data):
        pyr = _scan_pyramid(*case)
        depth = data.draw(st.integers(0, pyr.K - 2), label="scan_depth")
        est = rp.scaling_norm(pyr, beta, gamma, scan_depth=depth)
        value, arg = _brute_scaling_norm(pyr, beta, gamma, depth)
        assert float(est.value).hex() == float(value).hex()
        assert est.argmax_interval == arg

    def test_underflow_never_picks_a_nan(self):
        # with gamma = 2000, width**(beta + gamma) underflows to 0 from depth 1 on:
        # a cell with a positive sum scores inf and the first such cell wins, while
        # a cell whose sum is 0 (every cell of a constant path) scores NaN and never wins
        for pyr in (rp.gen_brownian(8, 3).pyramid(), rp.gen_analytic("linear", 8).pyramid()):
            est = rp.scaling_norm(pyr, 0.5, 2000.0, scan_depth=6)
            assert est.value == math.inf and est.argmax_interval == (0.0, 0.5)
        est = rp.scaling_norm(constant_pyramid(K=8), 0.5, 2000.0, scan_depth=6)
        assert est.value == 0.0 and est.argmax_interval == (0.0, 1.0)

    def test_negative_scan_depth_is_refused(self):
        # depth -1 scans no cell, which would read as the value 0.0 on (0, 1)
        with pytest.raises(rp.LevelOutOfRange, match="scan_depth"):
            rp.scaling_norm(rp.gen_brownian(8, 1).pyramid(), 0.5, 0.5, scan_depth=-1)

    def test_holds_nothing_after_the_call(self):
        pyr = rp.gen_brownian(16, 5).pyramid()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            est = rp.scaling_norm(pyr, 0.6, 0.3)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert est.value > 0
        # one level-14 prefix is 128 KiB: no prefix may outlive the call
        assert held < 16 * 1024
        assert not hasattr(pyr, "__dict__") and type(pyr).__slots__ == ("K", "_block")


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

    @pytest.mark.parametrize("k", [-1, 3])
    def test_refusal_names_the_range(self, k):
        with pytest.raises(rp.LevelOutOfRange, match=r"0 <= k <= K - 6 = 2, got "):
            rp.wiener_statistic(rp.gen_brownian(8, 0).pyramid(), k)

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

    @pytest.mark.parametrize("cores", [1, 3])
    def test_threads_capped_at_usable_cores(self, monkeypatch, cores):
        # a pool that records its size and maps serially: no thread is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(diagnostics, "_usable_cores", lambda: cores)
        got = rp.wiener_ensemble([6], 4, 12, seed=1, threads=10**6)
        assert sizes == ([cores] if cores > 1 else [])
        assert got == rp.wiener_ensemble([6], 4, 12, seed=1, threads=1)

    @pytest.mark.parametrize("bad", [{0: math.nan}, {700: math.nan}, {1 << 12: math.nan},
                                     {0: math.inf}, {700: math.inf}, {1 << 12: -math.inf},
                                     {700: math.inf, 701: -math.inf}],
                             ids=["nan-0", "nan-700", "nan-end", "inf-0", "inf-700", "-inf-end",
                                  "inf-and-minus-inf"])
    def test_non_finite_samples_raise_without_a_warning(self, monkeypatch, bad):
        # finiteness is read from the pyramid's apex; the samples are scanned
        # only when it is not finite, and before the DBL_MAX fallback, which
        # runs outside np.errstate and would warn on inf - inf
        fill = diagnostics._fill_brownian

        def spoiled(w, seed, z):
            fill(w, seed, z)
            for at, value in bad.items():
                w[at] = value

        monkeypatch.setattr(diagnostics, "_fill_brownian", spoiled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rp.NonFinite, match="^path samples must be finite$"):
                rp.wiener_ensemble([2], 3, 12, seed=4)

    def test_huge_finite_samples_take_the_fallback(self, monkeypatch):
        # pair sums past DBL_MAX make the apex infinite, the scan finds every
        # sample finite, and the pyramid is the halve-then-sum one a fresh
        # path gets
        fill = diagnostics._fill_brownian
        scale = 0.75 * np.finfo(float).max

        def huge(w, seed, z):
            fill(w, seed, z)
            w *= scale / np.abs(w).max()

        want = rp.gen_brownian(12, 4).samples
        want = rp.DyadicPath(want * (scale / np.abs(want).max()), 12)
        with np.errstate(over="ignore"):
            assert np.isinf(want.samples[1:] + want.samples[:-1]).any()
        monkeypatch.setattr(diagnostics, "_fill_brownian", huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rp.wiener_ensemble([2], 1, 12, seed=4)
        assert got["levels"][0]["mean"] == rp.wiener_statistic(want.pyramid(), 2)

    def test_one_path_workspace_holds_two_and_a_half_sample_arrays(self):
        # the samples, the bridge's second buffer (then the pyramid's
        # scratch) of 2**(K-1) + 1 values, and the 2**K - 1 averages
        K = 16
        rp.wiener_ensemble([4], 1, K, seed=3)
        tracemalloc.start()
        try:
            rp.wiener_ensemble([4], 1, K, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.52 * ((1 << K) + 1) * 8

    def test_level_guard(self):
        with pytest.raises(rp.LevelOutOfRange):
            rp.wiener_ensemble([10], 2, 14, seed=1)

    def test_path_argument_errors(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rp.wiener_ensemble([0], 2, 6, seed=-1)
        with pytest.raises(rp.ResolutionTooCoarse):
            rp.wiener_ensemble([], 2, 0, seed=1)

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(6, 10),
        n_paths=st.one_of(st.sampled_from([1, 5, 7, 11, 13]), st.integers(1, 12)),
        seed=st.one_of(st.integers(0, 1000), st.integers(2**64 - 20, 2**64 + 20)),
        threads=st.sampled_from([1, 2, 3]),
        data=st.data(),
    )
    def test_matches_fresh_paths(self, K, n_paths, seed, threads, data):
        # one reused workspace per worker gives what a fresh path per seed
        # gives, joined in seed order and reduced the same way; three cores
        # are claimed so that threads=3 runs three chunks
        k_list = data.draw(st.lists(st.integers(0, K - 6), min_size=1, max_size=3))
        rows = [[rp.wiener_statistic(rp.gen_brownian(K, s).pyramid(), k) for k in k_list]
                for s in range(seed, seed + n_paths)]
        cols = np.array(rows).T
        want = []
        for k, col in zip(k_list, cols):
            var = float(col.var(ddof=1)) if n_paths > 1 else 0.0
            want.append({"k": k, "mean": float(col.mean()), "variance": var,
                         "stderr": math.sqrt(var / n_paths) if n_paths > 1 else 0.0})
        with mock.patch.object(diagnostics, "_usable_cores", lambda: 3):
            got = rp.wiener_ensemble(k_list, n_paths, K, seed, threads=threads)
        assert got == {"K": K, "n_paths": n_paths, "seed": seed,
                       "target": rp.WIENER_CONSTANT, "levels": want}
