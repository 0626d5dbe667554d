import numpy as np
import pytest

import roughpath as rp


class TestBuildPath:
    def test_identity_path(self):
        path = rp.DyadicPath([0.0, 0.5, 1.0], 1)
        assert path.eval(0.25) == 0.25
        assert path.eval(1.0) == 1.0

    def test_square_grid_point_exact(self):
        t = np.linspace(0, 1, 2**10 + 1)
        path = rp.DyadicPath(t * t, 10)
        assert path.eval(0.5) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(rp.LengthMismatch):
            rp.DyadicPath([0.0, 1.0, 2.0, 3.0], 2)  # needs 5

    def test_non_finite(self):
        with pytest.raises(rp.NonFinite):
            rp.DyadicPath([0.0, np.nan, 1.0], 1)

    def test_samples_immutable(self):
        path = rp.DyadicPath([0.0, 0.5, 1.0], 1)
        with pytest.raises(ValueError):
            path.samples[0] = 2.0


class TestAveragePyramid:
    def test_linear_closed_form(self):
        pyr = rp.gen_analytic("linear", 8).pyramid()
        for k in (0, 2, 5):
            n = np.arange(1 << k)
            assert np.allclose(pyr.level(k), (n + 0.5) * 2.0**-k, atol=1e-15)
        assert pyr.level(2)[1] == pytest.approx(0.375, abs=1e-15)

    def test_constant_path(self):
        pyr = rp.DyadicPath(np.full(2**6 + 1, 3.25), 6).pyramid()
        for k in range(6):
            assert np.all(pyr.level(k) == 3.25)

    def test_square_cell_average(self):
        # oracle: 8 * integral of t^2 over [0, 1/8] = 1/192; trapezoid bias
        # at K=12 stays near 1e-8
        pyr = rp.gen_analytic("square", 12).pyramid()
        assert pyr.level(3)[0] == pytest.approx(1.0 / 192.0, abs=1e-7)
        # independent oracle: trapezoid over the raw samples
        path = rp.gen_analytic("square", 12)
        lo, hi = 0, 2**12 // 8
        brute = np.trapezoid(path.samples[lo : hi + 1], dx=2.0**-12) * 8.0
        assert pyr.level(3)[0] == pytest.approx(brute, abs=1e-14)

    def test_parent_mean_invariant_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            samples = np.cumsum(rng.standard_normal(2**9 + 1))
            pyr = rp.DyadicPath(samples, 9).pyramid()
            for k in range(8):
                child = pyr.level(k + 1)
                err = np.abs(pyr.level(k) - 0.5 * (child[0::2] + child[1::2])).max()
                assert err < 1e-15

    def test_finest_level_is_trapezoid_of_three(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(2**5 + 1)
        pyr = rp.DyadicPath(s, 5).pyramid()
        expect = (s[0:-2:2] + 2.0 * s[1:-1:2] + s[2::2]) / 4.0
        assert np.allclose(pyr.level(4), expect, atol=1e-15)

    def test_level_out_of_range(self):
        pyr = rp.gen_analytic("linear", 4).pyramid()
        with pytest.raises(rp.LevelOutOfRange):
            pyr.level(4)
        with pytest.raises(rp.LevelOutOfRange):
            pyr.child_gap(3)


class TestHolderSeminorm:
    def test_linear_exponent_one(self):
        est = rp.holder_seminorm(rp.gen_analytic("linear", 10), 1.0)
        assert est.seminorm_lower_bound == pytest.approx(1.0, abs=1e-12)

    def test_constant_is_zero(self):
        path = rp.DyadicPath(np.full(2**6 + 1, 2.0), 6)
        assert rp.holder_seminorm(path, 0.5).seminorm_lower_bound == 0.0

    def test_sqrt_half_exponent(self):
        # |sqrt(s) - sqrt(t)| / |s - t|^(1/2) attains 1 near the origin
        path = rp.gen_analytic(lambda t: np.sqrt(t), 14)
        est = rp.holder_seminorm(path, 0.5, max_lag_levels=3)
        assert est.seminorm_lower_bound >= 1.0 - 1e-3
        assert est.seminorm_lower_bound <= 1.0 + 1e-12

    def test_bad_exponent(self):
        with pytest.raises(rp.BadExponents):
            rp.holder_seminorm(rp.gen_analytic("linear", 4), 0.0)

    def test_reports_pair_count(self):
        est = rp.holder_seminorm(rp.gen_analytic("sine", 6), 0.5, max_lag_levels=2)
        assert est.pairs_scanned > 0
        assert est.max_lag_levels == 2
