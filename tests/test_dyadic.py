import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpath as rp
from roughpath import generators


@st.composite
def paths_and_times(draw):
    """A Brownian path at K 1..12 or a path of given floats at K 1..6, and
    query times mixing grid points, cell midpoints, 0, 1, out-of-range values
    and NaN."""
    if draw(st.booleans()):
        K = draw(st.integers(1, 12))
        path = rp.gen_brownian(K, draw(st.integers(0, 2**40)))
    else:
        K = draw(st.integers(1, 6))
        # signed zeros and neighbours whose difference overflows test the
        # exact values np.interp returns at grid points
        value = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 0.0, 1e308, -1e308]))
        path = rp.DyadicPath(draw(st.lists(value, min_size=(1 << K) + 1,
                                           max_size=(1 << K) + 1)), K)
    n = 1 << K
    t = st.one_of(
        st.floats(-2.0, 3.0),
        st.integers(0, n).map(lambda i: i / n),
        st.integers(0, n - 1).map(lambda i: (i + 0.5) / n),
        st.sampled_from([0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), -1e-300, 1e300,
                         np.inf, -np.inf, np.nan]),
    )
    return path, draw(t), draw(st.lists(t, max_size=50))


def nested_means(s, K):
    """Levels 0 .. K-1 as nested pairwise means over the level-K cells, as a
    reference: 0.5 * (a + b), or 0.5 * a + 0.5 * b everywhere when the first
    form overflows."""
    for mean in (lambda a, b: 0.5 * (a + b), lambda a, b: 0.5 * a + 0.5 * b):
        with np.errstate(over="ignore", invalid="ignore"):
            cur = mean(s[:-1], s[1:])
            levels = []
            for _ in range(K):
                cur = mean(cur[0::2], cur[1::2])
                levels.insert(0, cur)
        if np.isfinite(levels[0][0]):
            break
    return levels


@st.composite
def pyramid_samples(draw):
    """(samples, K): any finite floats, values near +-DBL_MAX or moderate ones
    at K 1..6, or a seeded uniform array scaled by DBL_MAX or 1 at K 1..12."""
    big = np.finfo(float).max
    if draw(st.booleans()):
        K = draw(st.integers(1, 6))
        value = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-1e6, 1e6),
            st.sampled_from([big, -big, np.nextafter(big / 2, big), big / 2, -0.0, 0.0]),
        )
        return np.array(draw(st.lists(value, min_size=(1 << K) + 1, max_size=(1 << K) + 1))), K
    K = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([big, 1.0]))
    return scale * rng.uniform(draw(st.sampled_from([-1.0, 0.4])), 1.0, (1 << K) + 1), K


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

    @pytest.mark.parametrize("stride", [1, 2])
    def test_caller_array_stays_writeable(self, stride):
        w = np.zeros(16 * stride + 1)[::stride]
        path = rp.DyadicPath(w, 4)
        w[0] = 1.0
        assert path.samples[0] == 0.0
        assert not np.shares_memory(path.samples, w)

    def test_read_only_input_is_shared(self):
        w = np.linspace(0.0, 1.0, 17)
        w.flags.writeable = False
        path = rp.DyadicPath(w, 4)
        assert path.samples is w

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda K: st.tuples(
               st.just(K),
               st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=(1 << K) + 1, max_size=(1 << K) + 1),
               st.integers(0, 1 << K),
               st.sampled_from([np.nan, np.inf, -np.inf]))),
           st.booleans())
    def test_range_is_the_finiteness_check(self, case, read_only):
        # one min and one max at construction: NaN and +-inf each reach one of them
        K, values, i, bad = case
        samples = np.array(values)
        samples.flags.writeable = not read_only
        path = rp.DyadicPath(samples, K)
        assert [v.hex() for v in path.range()] == [float(samples.min()).hex(),
                                                   float(samples.max()).hex()]
        assert (path.samples is samples) == read_only
        samples = samples.copy()
        samples[i] = bad
        samples.flags.writeable = not read_only
        with pytest.raises(rp.NonFinite, match=r"^path samples must be finite$"):
            rp.DyadicPath(samples, K)

    def test_brownian_samples_not_copied(self, monkeypatch):
        handed = []

        def spy(samples, K):
            handed.append(samples)
            return rp.DyadicPath(samples, K)

        monkeypatch.setattr(generators, "DyadicPath", spy)
        path = rp.gen_brownian(8, 3)
        assert path.samples is handed[0]
        assert not path.samples.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(paths_and_times())
    def test_eval_matches_interp(self, case):
        # the O(1) cell lookup reproduces np.interp bit for bit, scalar in and
        # scalar out, array in and array out
        path, t, ts = case
        got, ref = path.eval(t), np.interp(t, path.grid, path.samples)
        assert type(got) is type(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        ts = np.array(ts, dtype=float)
        got, ref = path.eval(ts), np.interp(ts, path.grid, path.samples)
        assert got.shape == ts.shape and got.tobytes() == ref.tobytes()


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

    def test_near_dbl_max_stays_finite(self):
        # pair sums of samples above DBL_MAX/2 overflow; the pyramid must
        # still be the exact means, which scaling by 4 leaves bit for bit
        big = np.finfo(float).max
        assert rp.DyadicPath([big, big, big], 1).pyramid().level(0)[0] == big
        assert rp.DyadicPath([big, -big, big], 1).pyramid().level(0)[0] == 0.0
        s = big * np.random.default_rng(11).uniform(-1.0, 1.0, 2**6 + 1)
        s[:3] = big
        pyr = rp.DyadicPath(s, 6).pyramid()
        quarter = rp.DyadicPath(s / 4.0, 6).pyramid()
        for k in range(6):
            np.testing.assert_array_equal(pyr.level(k), 4.0 * quarter.level(k))

    @settings(max_examples=150, deadline=None)
    @given(pyramid_samples())
    def test_matches_nested_means(self, case):
        # the in-place kernel does the reference's roundings in its order,
        # also where the one-rounding form overflows near DBL_MAX
        s, K = case
        pyr = rp.DyadicPath(s, K).pyramid()
        want = nested_means(s, K)
        for k in range(K):
            assert pyr.level(k).tobytes() == want[k].tobytes(), k

    def test_sibling_gap_overflow_is_non_finite(self):
        # the averages DBL_MAX and -DBL_MAX/2 are finite, their gap is not,
        # on every call and with either sign
        big = np.finfo(float).max
        for sign in (1.0, -1.0):
            pyr = rp.DyadicPath(sign * np.array([big, big, big, -big, -big]), 2).pyramid()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for _ in range(3):
                    with pytest.raises(rp.NonFinite, match="level-1 sibling gap"):
                        pyr.child_gap(0)
                with pytest.raises(rp.NonFinite, match="sibling gap"):
                    rp.existence_report(pyr, 0.6)

    def test_child_gaps_repeat_equal(self):
        pyr = rp.gen_brownian(10, 6).pyramid()
        for k in range(9):
            child = pyr.level(k + 1)
            first, second = pyr.child_gap(k), pyr.child_gap(k)
            assert first.tobytes() == second.tobytes() == (child[0::2] - child[1::2]).tobytes()

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

    def test_negative_lag_levels_are_refused(self):
        # 1 << -1 raised a bare "negative shift count" ValueError
        with pytest.raises(rp.LevelOutOfRange, match="max_lag_levels"):
            rp.holder_seminorm(rp.gen_analytic("linear", 4), 0.5, max_lag_levels=-1)

    def test_reports_pair_count(self):
        est = rp.holder_seminorm(rp.gen_analytic("sine", 6), 0.5, max_lag_levels=2)
        assert est.pairs_scanned > 0
        assert est.max_lag_levels == 2
