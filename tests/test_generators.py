import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpath as rp
from roughpath import generators


def _level_normals(seed, level, count):
    """``count`` fresh normals from the Philox stream keyed by (seed mod 2**64, level)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, level], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(count)


def index_array_bridge(K, seed):
    """The midpoint bridge with one index array per level, as a reference."""
    n = 1 << K
    w = np.zeros(n + 1)
    w[n] = _level_normals(seed, 0, 1)[0]
    for j in range(1, K + 1):
        step = 1 << (K - j)
        mids = np.arange(step, n, 2 * step)
        z = _level_normals(seed, j, mids.size)
        w[mids] = 0.5 * (w[mids - step] + w[mids + step]) + 2.0 ** (-(j + 1) / 2) * z
    return w


class TestBrownian:
    def test_starts_at_zero(self):
        for seed in (0, 7, 123):
            assert rp.gen_brownian(6, seed).samples[0] == 0.0

    def test_deterministic_and_nested(self):
        a = rp.gen_brownian(8, 42)
        b = rp.gen_brownian(8, 42)
        assert np.array_equal(a.samples, b.samples)
        coarse = rp.gen_brownian(6, 42)
        assert np.array_equal(coarse.samples, a.samples[::4])

    def test_terminal_variance(self):
        # sample-variance oracle over 10^4 seeds; 3 SE of Var estimate ~ 0.042
        n = 10_000
        g1 = np.empty(n)
        gh = np.empty(n)
        for s in range(n):
            samples = rp.gen_brownian(1, s).samples
            gh[s], g1[s] = samples[1], samples[2]
        assert abs(g1.var(ddof=1) - 1.0) < 0.043
        assert abs(gh.var(ddof=1) - 0.5) < 0.022

    def test_disjoint_increments_uncorrelated(self):
        n = 10_000
        inc = np.empty((n, 2))
        for s in range(n):
            p = rp.gen_brownian(2, s).samples
            inc[s] = (p[1] - p[0], p[3] - p[2])
        rho = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 16),
        st.one_of(st.integers(0, 1000), st.integers(2**32, 2**64 - 1)),
    )
    def test_matches_index_array_bridge(self, K, seed):
        # the strided in-place fill draws the same streams and does the same
        # arithmetic in the same order as the index-array form
        got = rp.gen_brownian(K, seed).samples
        assert got.tobytes() == index_array_bridge(K, seed).tobytes()

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            rp.gen_brownian(4, -1)
        with pytest.raises(rp.ResolutionTooCoarse):
            rp.gen_brownian(0, 1)


class TestOscillatory:
    def test_tent_count_first_packet(self):
        # A=0, m_max=1: packet on [1/2, 1] holds 2**n_1 tents
        alpha = beta = 0.45
        n1 = rp.oscillation_levels(alpha, 0.0, 1)[0]
        path = rp.gen_oscillatory(alpha, beta, 0.0, 1, n1 + 1 + 4)
        s = path.samples
        interior = s[1:-1]
        peaks = np.sum((interior > s[:-2] + 1e-15) & (interior > s[2:] + 1e-15))
        assert peaks == 1 << n1

    def test_zero_outside_support(self):
        path = rp.gen_oscillatory(0.45, 0.45, 0.0, 2, 12)
        grid = path.grid
        below = grid < 0.25 - 1e-12  # support is [2**-m_max, 1]
        assert np.all(path.samples[below] == 0.0)
        assert path.samples[-1] == 0.0

    def test_bad_exponents(self):
        with pytest.raises(rp.BadExponents):
            rp.gen_oscillatory(0.6, 0.6, 0.0, 1, 12)

    def test_no_packet(self):
        with pytest.raises(ValueError, match="m_max"):
            rp.gen_oscillatory(0.3, 0.3, 0.0, 0, 12)

    @pytest.mark.parametrize("alpha, A, m_max", [(0.45, 0.0, 1), (0.3, 0.5, 3), (0.2, 1.3, 2)])
    def test_samples_equal_the_phase_formula(self, alpha, A, m_max):
        # each grid point of packet m takes its tent from its phase in the tent's cell
        K = rp.oscillation_levels(alpha, A, m_max)[-1] + m_max + 3
        w = np.zeros((1 << K) + 1)
        for m, n in enumerate(rp.oscillation_levels(alpha, A, m_max), 1):
            idx = np.arange(1 << (K - m), (1 << (K - m + 1)) + 1)
            period = 1 << (K - n - m)
            phase = ((idx - idx[0]) % period) / period
            w[idx] += 2.0 ** (-(n + m + 1) * alpha) * (1.0 - np.abs(2.0 * phase - 1.0))
        got = rp.gen_oscillatory(alpha, 0.1, A, m_max, K).samples
        assert got.tobytes() == w.tobytes()

    @pytest.mark.parametrize("A", [-1.0, float("inf"), float("nan")])
    def test_bad_offset(self, A):
        with pytest.raises(ValueError):
            rp.gen_oscillatory(0.3, 0.3, A, 2, 16)

    def test_resolution_guard(self):
        n1 = rp.oscillation_levels(0.45, 4.0, 1)[0]
        with pytest.raises(rp.ResolutionTooCoarse):
            rp.gen_oscillatory(0.45, 0.45, 4.0, 1, n1 + 1 + 1)

    def test_huge_packet_count_fails_in_constant_memory(self):
        # listing 10**9 packet levels would take about 40 GB; K is checked first
        need = math.ceil((0.5 + 0.3 * 10**9) / 0.7 - 1e-12) + 10**9 + 2
        tracemalloc.start()
        try:
            with pytest.raises(rp.ResolutionTooCoarse, match=rf"need K >= {need}$"):
                rp.gen_oscillatory(0.3, 0.3, 0.5, 10**9, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.01, 0.99), A=st.floats(0.0, 50.0), m_max=st.integers(1, 60))
    def test_last_level_is_the_last_listed(self, alpha, A, m_max):
        assert (generators._last_oscillation_level(alpha, A, m_max)
                == rp.oscillation_levels(alpha, A, m_max)[-1])

    @pytest.mark.parametrize("number", [float, np.float64])
    def test_offset_past_the_float_range_is_too_coarse(self, number):
        # (A + alpha*m)/(1 - alpha) overflows; math.ceil(inf) used to raise OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rp.ResolutionTooCoarse, match="no grid resolves it"):
                rp.oscillation_levels(number(0.45), number(1e308), 2)
            with pytest.raises(rp.ResolutionTooCoarse, match="no grid resolves it"):
                rp.gen_oscillatory(number(0.45), number(0.45), number(1e308), 2, 12)

    def test_holder_flat_while_norm_grows(self):
        alpha = beta = 0.45
        gamma = alpha * beta / (1.0 - alpha)
        values = []
        holders = []
        for A in (0.0, 2.0):
            K = rp.oscillation_levels(alpha, A, 2)[-1] + 2 + 10
            path = rp.gen_oscillatory(alpha, beta, A, 2, K)
            values.append(rp.scaling_norm(path.pyramid(), beta, gamma, scan_depth=3).value)
            holders.append(rp.holder_seminorm(path, alpha).seminorm_lower_bound)
        assert holders[0] == pytest.approx(holders[1], rel=1e-9)
        growth = np.log2(values[1] / values[0]) / 2.0
        target = (1.0 - alpha - beta) / (1.0 - alpha)
        assert growth == pytest.approx(target, rel=0.35)


class TestCounterexample:
    def test_bad_exponents(self):
        with pytest.raises(rp.BadExponents):
            rp.gen_counterexample(0.7, 0.5, 16)

    def test_resolution_guard(self):
        with pytest.raises(rp.ResolutionTooCoarse):
            rp.gen_counterexample(0.3, 0.3, 8)

    @pytest.mark.parametrize("alpha, beta, K", [(0.3, 0.3, 12), (0.45, 0.45, 16), (0.1, 0.3, 14)])
    def test_samples_equal_the_half_cell_ramps(self, alpha, beta, K):
        # layer k raises then lowers a ramp over the first half of each of
        # its level-k cells inside the band J_k
        gamma = alpha + beta
        w = np.zeros((1 << K) + 1)
        for k in range(generators.counterexample_base_level(alpha, beta) + 1, K - 1):
            m_lo = math.ceil(2.0 ** (-k * (1.0 - gamma)) * (1 << k) - 1e-9)
            m_hi = math.floor(2.0 ** (-(k - 1) * (1.0 - gamma)) * (1 << k) + 1e-9) - 1
            quarter = 1 << (K - k - 2)
            ramp = 2.0 ** (-(k + 1) * alpha) * (np.arange(quarter + 1) / quarter)
            for m in range(m_lo, m_hi + 1):
                base = m << (K - k)
                w[base : base + quarter + 1] = ramp
                w[base + quarter : base + 2 * quarter + 1] = ramp[::-1]
        assert rp.gen_counterexample(alpha, beta, K).samples.tobytes() == w.tobytes()

    @pytest.mark.parametrize("number", [float, np.float64])
    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.4999999999999999), (1e-320, 1e-320)])
    def test_base_level_past_the_float_range_is_too_coarse(self, number, alpha, beta):
        # alpha + beta = 1 - 2**-53 rounds 2**(1 - gamma) to 1, and 1 / 2e-320
        # overflows: the base level has no float value and no grid resolves it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rp.ResolutionTooCoarse, match="no grid resolves it"):
                generators.counterexample_base_level(number(alpha), number(beta))
            with pytest.raises(rp.ResolutionTooCoarse, match="no grid resolves it"):
                rp.gen_counterexample(number(alpha), number(beta), 12)

    def test_band_keeps_its_edge_cell(self):
        # At alpha = 0.01, beta = 0.34 the layer-20 band starts at the grid
        # point 2**-13, level-20 cell 128, which the rounded power puts
        # 1.7e-13 cells to its right.  Its first tent is on level-21 cell
        # 256: at K = 22 it peaks at sample 513, and sample 511, in the cell
        # before, is 0.
        path = rp.gen_counterexample(0.01, 0.34, 22)
        assert generators.counterexample_base_level(0.01, 0.34) < 20
        assert path.samples[513] == 2.0 ** (-21 * 0.01)
        assert path.samples[511] == 0.0

    def test_partial_sums_strictly_increase(self):
        path = rp.gen_counterexample(0.3, 0.3, 16)
        report = rp.existence_report(path.pyramid(), 0.3)
        tail = report.partial_sums[-5:]
        assert np.all(np.diff(tail) > 0)

    def test_holder_stays_bounded_in_K(self):
        h14 = rp.holder_seminorm(rp.gen_counterexample(0.3, 0.3, 14), 0.3)
        h18 = rp.holder_seminorm(rp.gen_counterexample(0.3, 0.3, 18), 0.3)
        assert h18.seminorm_lower_bound < 2.0 * h14.seminorm_lower_bound


class TestAnalytic:
    def test_linear_samples(self):
        path = rp.gen_analytic("linear", 5)
        assert np.array_equal(path.samples, np.arange(33) / 32)

    def test_square_grid_value(self):
        assert rp.gen_analytic("square", 4).eval(0.75) == pytest.approx(9.0 / 16.0, abs=1e-15)

    def test_sine_endpoint(self):
        assert rp.gen_analytic("sine", 8).eval(1.0) == pytest.approx(0.8414709848078965)

    def test_custom_callable(self):
        path = rp.gen_analytic(lambda t: 2.0 * t, 4)
        assert path.eval(0.5) == 1.0

    @pytest.mark.parametrize("kind", ["linear", "square", "sine"])
    def test_builtin_samples_not_copied(self, monkeypatch, kind):
        handed = []

        def spy(samples, K):
            handed.append(samples)
            return rp.DyadicPath(samples, K)

        monkeypatch.setattr(generators, "DyadicPath", spy)
        path = rp.gen_analytic(kind, 6)
        assert path.samples is handed[0]
        assert not path.samples.flags.writeable

    def test_callable_array_stays_writeable(self):
        held = np.linspace(0.0, 2.0, 17)
        path = rp.gen_analytic(lambda t: held, 4)
        assert held.flags.writeable
        assert np.array_equal(held, np.linspace(0.0, 2.0, 17))
        held[0] = 5.0
        assert path.samples[0] == 0.0

    def test_rejects_non_finite(self):
        with np.errstate(divide="ignore"), pytest.raises(rp.NonFinite):
            rp.gen_analytic(lambda t: 1.0 / t, 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rp.gen_analytic("zigzag", 4)
