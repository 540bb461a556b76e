"""Counter-based Gaussian draws, Khinchine moments, tail statistics."""

import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from ostrovsky_lab import randomized
from ostrovsky_lab.randomized import (
    gaussian_coefficients,
    khinchine_analytic_ratio,
    khinchine_check,
    randomize,
    stochastic_continuity,
    tail_bound_curve,
    wilson_interval,
)
from ostrovsky_lab.spectral import (
    MAX_ARRAY_BYTES,
    ResolutionError,
    SpectralProfile,
    evolve_spectral,
    quadrature_row,
)
from ostrovsky_lab.windows import wiener_decompose


def _draws(p, seed, n):
    """Amplitudes of draws 0 .. n - 1 of `seed`, one row each, from one product.

    Row i is randomize(p, seed, i).amplitudes up to the rounding of the
    batched product, checked at draws 0, 4095, 4096 and n - 1.
    """
    dec = wiener_decompose(p)
    g = gaussian_coefficients(seed, np.arange(n), dec.ks)
    draws = g @ dec.table
    bound = 1e-15 * (np.abs(g) @ np.abs(dec.table))
    for i in (0, 4095, 4096, n - 1):
        assert np.all(np.abs(randomize(p, seed, i).amplitudes - draws[i]) <= bound[i]), i
    return draws


def _point_values(p, x, n, seed):
    """Values at `x` of draws 0 .. n - 1 of `seed`, each draw's linear form g @ (table @ row)."""
    dec = wiener_decompose(p)
    return gaussian_coefficients(seed, np.arange(n), dec.ks) @ (dec.table @ quadrature_row(p, x))


class TestGaussianCoefficients:
    def test_deterministic(self):
        ks = np.arange(-3, 5)
        a = gaussian_coefficients(7, 2, ks)
        b = gaussian_coefficients(7, 2, ks)
        np.testing.assert_array_equal(a, b)

    def test_single_row_matches_batch_row(self):
        ks = np.arange(-2, 9)
        batch = gaussian_coefficients(11, np.arange(6), ks)
        for i in range(6):
            np.testing.assert_array_equal(
                gaussian_coefficients(11, i, ks), batch[i])

    def test_value_independent_of_requested_neighbours(self):
        full = gaussian_coefficients(0, 0, np.arange(-5, 6))
        alone = gaussian_coefficients(0, 0, np.array([2]))
        assert alone[0] == full[7]

    def test_shape_is_the_samples_then_one_ks_axis(self):
        # a 2-d ks once gave the first row alone for a scalar sample index
        ks = np.arange(1, 5)
        assert gaussian_coefficients(0, 5, ks).shape == (4,)
        assert gaussian_coefficients(0, np.arange(6).reshape(2, 3), ks).shape == (2, 3, 4)
        for bad in ([[1, 2], [3, 4]], 3):
            with pytest.raises(ValueError, match="^ks must be 1-d"):
                gaussian_coefficients(0, 5, bad)

    def test_distinct_counters_give_distinct_values(self):
        a = gaussian_coefficients(0, 0, np.arange(8))
        b = gaussian_coefficients(0, 1, np.arange(8))
        c = gaussian_coefficients(1, 0, np.arange(8))
        assert not np.any(a == b)
        assert not np.any(a == c)

    @pytest.mark.parametrize("sample_index,digest", [
        (np.arange(4096), "58d290c56b0ba4ef5c425bdaccdfe462b0050f32a3949110efafb53375a675f6"),
        (7, "a2808e48fb97d665e3518262782dacaceabc1fb8b642fb066810cb61bc110c47"),
    ], ids=["block", "scalar-index"])
    def test_golden_bits(self, sample_index, digest):
        # pinned sha256 of the draws' bytes: any change to the hash or to the
        # Box-Muller arithmetic changes every Monte Carlo count downstream
        g = gaussian_coefficients(168667416, sample_index, np.arange(-3, 5))
        assert g.dtype == np.complex128 and g.flags.c_contiguous
        assert hashlib.sha256(g.tobytes()).hexdigest() == digest

    def test_moments(self):
        # per-component fourth moment of N(0,1) is 3, so for g = X + iY:
        # E|g|^4 = E(X^2+Y^2)^2 = 3 + 2 + 3 = 8
        fourth, _ = quad(lambda x: x**4 * norm.pdf(x), -np.inf, np.inf)
        assert abs(fourth - 3.0) <= 1e-9
        n = 200_000
        g = gaussian_coefficients(0, np.arange(n), np.array([0]))[:, 0]
        assert abs(np.mean(g)) <= 4.0 / math.sqrt(n)
        assert abs(np.mean(np.abs(g) ** 2) - 2.0) <= 0.05
        assert abs(np.mean(np.abs(g) ** 4) - 8.0) <= 0.2


class TestRandomize:
    def test_grid_beyond_int64_reach_draws_without_warning(self):
        # only the carrying point's windows count; the far point has no amplitude
        p = SpectralProfile(1.0, 1e300, np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = randomize(p, 0, 0)
        np.testing.assert_array_equal(q.amplitudes, [gaussian_coefficients(0, 0, [1])[0], 0.0])

    def test_zero_profile_gives_zeros_without_warning(self):
        p = SpectralProfile(1.0, 0.5, np.zeros(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = randomize(p, 3, 7)
        np.testing.assert_array_equal(q.amplitudes, np.zeros(5, dtype=complex))

    @pytest.mark.parametrize("x", [0.0, -1.3])
    def test_point_values_match_the_samplers_draws(self, corpus, x):
        # the samplers' batched linear form, at draws on both sides of their
        # 4096-draw block boundary
        n, seed = 4098, 5
        for entry in corpus:
            p = entry.profile
            row = quadrature_row(p, x)
            samples = _point_values(p, x, n, seed)
            for i in (0, 4095, 4096, 4097):
                a = randomize(p, seed, i).amplitudes
                assert abs(row @ a - samples[i]) <= 1e-12 * np.sum(np.abs(row * a)), \
                    (entry.profile_id, i)

    def test_mean_squared_norm(self, corpus_by_id):
        # E ||f^w||^2 = 2 * sum_xi ((1-d)^2 + d^2) |a|^2 h with d = xi - floor(xi)
        p = corpus_by_id["gauss_low"].profile
        d = p.xi - np.floor(p.xi)
        expected = 2.0 * np.sum(((1 - d) ** 2 + d**2) * np.abs(p.amplitudes) ** 2) * p.xi_step
        n = 10_000
        values = np.sum(np.abs(_draws(p, 3, n)) ** 2, axis=1) * p.xi_step  # hs_norm(draw, 0) ** 2
        sigma = np.std(values, ddof=1) / math.sqrt(n)
        assert abs(np.mean(values) - expected) <= 3.0 * sigma


def _dense_point_values(p, x, ts, n, seed, sign):
    """Per-draw reference: each draw's amplitudes, evolved, under the point row.

    Returns the unevolved values (n,) and |u_t - u_0| per draw and time
    (n, T).  Evolution is diagonal, so multiplying the stacked draws by
    what evolve_spectral does to the profile's support indicator equals
    evolve_spectral applied to each draw.
    """
    draws = _draws(p, seed, n)
    support = p.with_amplitudes((p.amplitudes != 0.0).astype(complex))
    probe = quadrature_row(p, x)
    base = draws @ probe
    evolved = np.stack([
        (draws * evolve_spectral(support, t, sign).amplitudes) @ probe
        for t in ts], axis=1)
    return base, np.abs(evolved - base[:, None])


# the benchmark's tail-curve ladders; n crosses the 4096-draw block boundary
_LADDERS = [("gauss_low", 0.4, 0.02, [1.0, 0.1, 0.01, 1e-3, 0.0]),
            ("band_mid_even", -1.3, 0.05, [1e-3, 1e-4, 1e-5, 0.0])]


class TestLinearFormsAgainstDenseReference:
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("pid,x,alpha,ts", _LADDERS, ids=[row[0] for row in _LADDERS])
    def test_samplers_match_per_draw_profiles(self, corpus_by_id, pid, x, alpha, ts, sign):
        p = corpus_by_id[pid].profile
        n, seed = 5000, 21
        base, devs = _dense_point_values(p, x, ts, n, seed, sign)
        # exceedance counts are compared exactly, which needs every reference
        # deviation to stay clear of alpha by far more than rounding
        assert np.min(np.abs(devs - alpha)) > 1e-9
        curve = stochastic_continuity(p, x, alpha, ts, n, seed=seed, sign=sign)
        np.testing.assert_array_equal(curve.empirical_probs * n,
                                      np.sum(devs > alpha, axis=0))
        assert curve.empirical_probs[-1] == 0.0

        scale = np.sum(np.abs(quadrature_row(p, x) * p.amplitudes))
        assert np.max(np.abs(_point_values(p, x, n, seed) - base)) <= 1e-12 * scale

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, corpus_by_id, x):
        p = corpus_by_id["gauss_low"].profile
        with pytest.raises(ValueError, match="non-finite"):
            stochastic_continuity(p, x, 0.1, [1e-3, 0.0], 8)


class TestKhinchine:
    def test_validation(self):
        with pytest.raises(ValueError):
            khinchine_check([], [2.0], 10)
        with pytest.raises(ValueError):
            khinchine_check([[1.0, 0.0]], [2.0], 10)
        with pytest.raises(ValueError):
            khinchine_check([1.0], [0.5], 10)
        with pytest.raises(ValueError):
            khinchine_check([1.0], [2.0], 1)
        with pytest.raises(ValueError, match="vanish"):
            khinchine_check([0.0, 0.0], [2.0], 10)

    @pytest.mark.parametrize("powers", [2.0, [], [[2.0]]], ids=["scalar", "empty", "nested"])
    def test_orders_must_be_a_flat_sequence(self, powers):
        with pytest.raises(ValueError, match="sequence of moment orders"):
            khinchine_check([1.0], powers, 10)

    def test_every_order_validated_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew samples before validating the orders")

        monkeypatch.setattr(randomized, "_draw_blocks", no_draws)
        with pytest.raises(ValueError, match="every power must be >= 1"):
            khinchine_check([1.0], [2.0, 4.0, 0.5], 10)

    def test_sample_counts_past_the_array_budget_reach_the_draws(self, monkeypatch):
        # nothing of size n_samples is allocated, so no sample count is refused for its bytes
        class Drawing(Exception):
            pass

        def drawing(*args):
            raise Drawing

        monkeypatch.setattr(randomized, "_draw_blocks", drawing)
        with pytest.raises(Drawing):
            khinchine_check([1.0], [2.0], MAX_ARRAY_BYTES // 8 + 1)

    def test_traced_peak_does_not_grow_with_the_sample_count(self):
        block = randomized._BLOCK

        def traced_peak(n_samples):
            tracemalloc.start()
            try:
                khinchine_check([0.7, 0.2, 0.9], [1.0, 2.0, 4.0], n_samples, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(block)  # first-call allocations out of the way
        # one block of complex sums is 16 * block bytes
        assert abs(traced_peak(64 * block) - traced_peak(8 * block)) < 16 * block

    @pytest.mark.parametrize("power", [1e308, 2000.0])
    def test_moments_outside_double_range_rejected(self, power):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"order {power} leave")):
                khinchine_check([1.0, 0.5], [2.0, power, 3000.0], 64)
            # two draws, as in `khinchine --p 1e308 --n 2`
            with pytest.raises(ValueError, match=re.escape("order 1e+308 leave")):
                khinchine_check([1.0], [1e308], 2)

    def test_in_range_moment_with_an_overflowing_mean_retaken(self):
        # the mean of |S|^2000 over two draws of [1.0] overflows, that of [0.5]
        # does not: the run is retaken on [0.5] and its moment scaled back by 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [big] = khinchine_check([1.0], [2000.0], 2)
        [half] = khinchine_check([0.5], [2000.0], 2)
        assert big.moment == 2.0 * half.moment and big.ratio == half.ratio
        assert big.ratio_stderr == half.ratio_stderr > 0.0

    @pytest.mark.parametrize("scale", [1e-45, 1e-80, 1e-170, 1e300])
    def test_ratio_and_stderr_kept_at_the_ends_of_the_range(self, scale):
        # at 1e-45 the order-4 M2 underflows, at 1e-80 its mean, at 1e-170 the
        # l2 norm, and at 1e300 the l2 norm's square overflows: each run is
        # retaken on the rescaled coefficients
        unit = khinchine_check([1.0, 1.0], [1, 2, 4], 1000, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = khinchine_check([scale, scale], [1, 2, 4], 1000, seed=0)
        for res, ref in zip(results, unit):
            assert res.ratio == pytest.approx(ref.ratio, rel=1e-12, abs=0.0)
            assert res.ratio_stderr == pytest.approx(ref.ratio_stderr, rel=1e-12, abs=0.0)
            assert res.ratio_stderr > 0.0
            assert res.moment == pytest.approx(scale * ref.moment, rel=1e-12, abs=0.0)

    @given(e=st.integers(-1000, 1000))
    def test_ratio_and_stderr_are_scale_free(self, e):
        c = np.array([0.7, 0.2, 0.9])
        unit = khinchine_check(c, [1, 2, 4], 1000, seed=3)
        for res, ref in zip(khinchine_check(c * 2.0**e, [1, 2, 4], 1000, seed=3), unit):
            assert res.ratio == pytest.approx(ref.ratio, rel=1e-12, abs=0.0)
            assert res.ratio_stderr == pytest.approx(ref.ratio_stderr, rel=1e-12, abs=0.0)
            assert res.ratio_stderr > 0.0

    def test_overflowing_moment_refused_without_warning(self):
        # the ratios are in range, the order-1 moment about 2.2e308 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("order 1 leave")):
                khinchine_check([1.7e308, 1.7e308], [1], 64)

    def test_second_moment_matches_l2(self):
        [res] = khinchine_check([1.0, 0.8, 0.6, 0.4, 0.2], [2.0], 20_000)
        # analytic ratio at p = 2 is exactly 1
        assert abs(res.ratio - 1.0) <= 3.0 * res.ratio_stderr
        assert res.ratio_stderr < 0.01

    def test_fourth_moment_single_spike(self):
        [res] = khinchine_check([1.0], [4.0], 20_000, seed=2)
        assert abs(res.ratio - khinchine_analytic_ratio(4.0)) <= 3.0 * res.ratio_stderr

    def test_ratio_consistent_with_moment(self):
        c = np.array([0.3, 1.2, 0.5])
        [res] = khinchine_check(c, [4.0], 256, seed=8)
        assert res.ratio == res.moment / (2.0 * float(np.linalg.norm(c)))
        assert res.power == 4.0

    def test_deterministic(self):
        a = khinchine_check([1.0, 2.0], [3.0], 512, seed=5)
        b = khinchine_check([1.0, 2.0], [3.0], 512, seed=5)
        assert a == b

    def test_each_order_has_the_bits_of_a_one_order_call(self):
        c, n, seed = [0.7, 0.2, 0.9], randomized._BLOCK + 1003, 17
        powers = [1, 2, 4, 3.5]
        results = khinchine_check(c, powers, n, seed)
        assert [res.power for res in results] == powers
        for power, res in zip(powers, results):
            assert res == khinchine_check(c, [power], n, seed)[0]

    def test_matches_moments_of_the_complex_sums(self):
        # reference: the sums of every draw block kept as one complex array,
        # the moments then read from np.mean and np.std of every |S|^p; the
        # streamed merge sums in another order, hence a tolerance
        block = randomized._BLOCK
        c = np.array([0.4, 1.1, 0.3, 0.8])
        ks = np.arange(c.size)
        l2 = float(np.linalg.norm(c))
        powers = [1.0, 2.0, 2.5, 4.0, 6.0]
        for n in (2, 3, block, block + 1, 3 * block + 517):
            for seed in (3, 11, 29):
                sums = np.concatenate([
                    gaussian_coefficients(seed, np.arange(lo, min(lo + block, n)), ks) @ c
                    for lo in range(0, n, block)])
                for power, res in zip(powers, khinchine_check(c, powers, n, seed)):
                    powered = np.abs(sums) ** power
                    mean = float(np.mean(powered))
                    stderr_mean = float(np.std(powered, ddof=1) / math.sqrt(n))
                    moment = mean ** (1.0 / power)
                    ratio = moment / (math.sqrt(power) * l2)
                    stderr = ratio * stderr_mean / (power * mean)
                    case = f"n={n} seed={seed} p={power}"
                    assert res.power == power, case
                    assert abs(res.moment - moment) <= 1e-12 * moment, case
                    assert abs(res.ratio - ratio) <= 1e-12 * ratio, case
                    assert abs(res.ratio_stderr - stderr) <= 1e-12 * stderr, case


class TestAnalyticRatio:
    def test_p2_is_one(self):
        assert abs(khinchine_analytic_ratio(2.0) - 1.0) <= 1e-15

    def test_p4_closed_form(self):
        assert abs(khinchine_analytic_ratio(4.0) - 8.0**0.25 / 2.0) <= 1e-12

    def test_decreasing_in_p(self):
        values = [khinchine_analytic_ratio(p) for p in (2.0, 4.0, 8.0, 16.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        for power in (0.9, 1e306, math.inf):
            with pytest.raises(ValueError):
                khinchine_analytic_ratio(power)


class TestWilsonInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)

    def test_extremes(self):
        lo, hi, half = wilson_interval(0, 100)
        assert 0.0 <= lo <= 1e-12 and hi < 0.05 and half > 0.0
        lo, hi, _ = wilson_interval(100, 100)
        assert hi >= 1.0 - 1e-12 and lo < 1.0

    @given(n=st.integers(1, 10_000), frac=st.floats(0.0, 1.0))
    def test_contains_point_estimate(self, n, frac):
        successes = round(frac * n)
        lo, hi, half = wilson_interval(successes, n)
        assert 0.0 <= lo <= hi <= 1.0
        assert half > 0.0
        assert lo - 1e-12 <= successes / n <= hi + 1e-12


class TestStochasticContinuity:
    def test_validation(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        with pytest.raises(ValueError):
            stochastic_continuity(p, 0.0, 0.5, [], 16)
        with pytest.raises(ValueError, match="strictly decreasing"):
            stochastic_continuity(p, 0.0, 0.5, [1e-3, 1e-2], 16)
        with pytest.raises(ValueError):
            stochastic_continuity(p, 0.0, 0.0, [1e-3], 16)
        with pytest.raises(ValueError):
            stochastic_continuity(p, 0.0, 0.5, [1e-3], 0)
        with pytest.raises(ResolutionError):
            stochastic_continuity(p, 0.0, 0.5, [100.0, 1e-3], 16)

    def test_small_threshold_curve(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        curve = stochastic_continuity(p, 0.0, 0.02, [1e-1, 1e-2, 1e-3, 0.0],
                                      800, seed=1)
        probs = curve.empirical_probs
        assert probs[0] > 0.5            # deviation dominates at the largest t
        assert np.all(np.diff(probs) <= 0.0)
        assert probs[-1] == 0.0          # t = 0 term is built bit-exactly
        # the lower endpoint of a zero-success interval lands within one
        # rounding error of zero, not exactly on it
        assert np.all(curve.wilson_lo <= probs + 1e-12)
        assert np.all(probs <= curve.wilson_hi)

    def test_deterministic(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        a = stochastic_continuity(p, 0.3, 0.05, [1e-2, 1e-3], 64, seed=9)
        b = stochastic_continuity(p, 0.3, 0.05, [1e-2, 1e-3], 64, seed=9)
        np.testing.assert_array_equal(a.empirical_probs, b.empirical_probs)

    def test_draws_only_carrying_windows(self, corpus_by_id, monkeypatch):
        # floor(min carried xi) - 1 .. ceil(max) + 1 of band_mid_even spans the
        # 15 windows -7..7; only the 8 that meet its two bands carry a piece
        # and get coefficients
        requested = []
        draw = randomized.gaussian_coefficients

        def recorded(seed, sample_index, ks):
            requested.append(np.asarray(ks).tolist())
            return draw(seed, sample_index, ks)

        monkeypatch.setattr(randomized, "gaussian_coefficients", recorded)
        stochastic_continuity(corpus_by_id["band_mid_even"].profile, 0.0, 0.05, [1e-3, 0.0], 16)
        assert requested == [[-6, -5, -4, -3, 3, 4, 5, 6]]


class TestTailBound:
    def test_validation(self):
        with pytest.raises(ValueError):
            tail_bound_curve(-1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            tail_bound_curve(1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            tail_bound_curve(1.0, 0.5, 0.0)

    def test_alpha_zero_hits_prefactor(self):
        assert tail_bound_curve(0.0, 1.0, 1.0) == 3.0 * math.e**2

    def test_closed_form(self):
        c1 = math.e**2
        expected = 3.0 * c1 * math.exp(-((1.0 / (2.0 * 2.0 * math.e * 0.5)) ** 2))
        assert tail_bound_curve(1.0, 0.5, 2.0) == expected
        assert abs(expected - 21.42971409085073) <= 1e-12

    def test_decreasing_in_alpha(self):
        values = [tail_bound_curve(a, 0.5, 2.0) for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(x > y for x, y in zip(values, values[1:]))
