"""Counter-based Gaussian draws, Khinchine moments, tail statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from ostrovsky_lab.randomized import (
    gaussian_coefficients,
    khinchine_analytic_ratio,
    khinchine_check,
    randomize,
    randomized_point_samples,
    stochastic_continuity,
    tail_bound_curve,
    wilson_interval,
)
from ostrovsky_lab.spectral import (
    SQRT_2PI,
    ResolutionError,
    SpectralProfile,
    evolve_spectral,
    hs_norm,
    quadrature_row,
    trapezoid_weights,
)
from ostrovsky_lab.windows import wiener_range


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

    def test_distinct_counters_give_distinct_values(self):
        a = gaussian_coefficients(0, 0, np.arange(8))
        b = gaussian_coefficients(0, 1, np.arange(8))
        c = gaussian_coefficients(1, 0, np.arange(8))
        assert not np.any(a == b)
        assert not np.any(a == c)

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
    def test_unit_coefficients_reproduce_input_bitwise(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        g = np.ones(6, dtype=complex)
        np.testing.assert_array_equal(randomize(p, -1, g).amplitudes, p.amplitudes)

    def test_zero_draw_annihilates(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        assert not np.any(randomize(p, -1, np.zeros(6, dtype=complex)).amplitudes)

    def test_range_mismatch_rejected(self, corpus_by_id):
        p = corpus_by_id["gauss_mid"].profile  # needs windows [0, 8]
        with pytest.raises(ValueError, match="coefficients cover windows"):
            randomize(p, 2, np.ones(7, dtype=complex))

    def test_mean_squared_norm(self, corpus_by_id):
        # E ||f^w||^2 = 2 * sum_xi ((1-d)^2 + d^2) |a|^2 h with d = xi - floor(xi)
        p = corpus_by_id["gauss_low"].profile
        d = p.xi - np.floor(p.xi)
        expected = 2.0 * np.sum(((1 - d) ** 2 + d**2) * np.abs(p.amplitudes) ** 2) * p.xi_step
        n = 10_000
        values = np.empty(n)
        coeffs = gaussian_coefficients(3, np.arange(n), np.arange(-1, 5))
        for i, g in enumerate(coeffs):
            values[i] = hs_norm(randomize(p, -1, g), 0.0) ** 2
        sigma = np.std(values, ddof=1) / math.sqrt(n)
        assert abs(np.mean(values) - expected) <= 3.0 * sigma


class TestRandomizedPointSamples:
    def test_matches_randomize_then_synthesize(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        x = 0.7
        fast = randomized_point_samples(p, x, 5, seed=4)
        probe = trapezoid_weights(p.n) * np.exp(1j * x * p.xi) * (p.xi_step / SQRT_2PI)
        for i, g in enumerate(gaussian_coefficients(4, np.arange(5), np.arange(-1, 5))):
            q = randomize(p, -1, g)
            direct = np.sum(probe * q.amplitudes)
            assert abs(fast[i] - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_zero_profile_gives_zeros(self):
        p = SpectralProfile(1.0, 0.5, np.zeros(5))
        np.testing.assert_array_equal(
            randomized_point_samples(p, 0.3, 4), np.zeros(4, dtype=complex))

    def test_validation_and_determinism(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        with pytest.raises(ValueError):
            randomized_point_samples(p, 0.0, 0)
        a = randomized_point_samples(p, 0.0, 9, seed=12)
        b = randomized_point_samples(p, 0.0, 9, seed=12)
        np.testing.assert_array_equal(a, b)


def _dense_point_values(p, x, ts, n, seed, sign):
    """Per-draw reference: randomize each draw, evolve it, apply the point row.

    Returns the unevolved values (n,) and |u_t - u_0| per draw and time
    (n, T).  Evolution is diagonal, so multiplying the stacked draws by
    what evolve_spectral does to the profile's support indicator equals
    evolve_spectral applied to each draw.
    """
    k_min, k_max = wiener_range(p)
    coeffs = gaussian_coefficients(seed, np.arange(n), np.arange(k_min, k_max + 1))
    draws = np.stack([randomize(p, k_min, g).amplitudes for g in coeffs])
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
        fast = randomized_point_samples(p, x, n, seed=seed)
        assert np.max(np.abs(fast - base)) <= 1e-12 * scale

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, corpus_by_id, x):
        p = corpus_by_id["gauss_low"].profile
        with pytest.raises(ValueError, match="non-finite"):
            stochastic_continuity(p, x, 0.1, [1e-3, 0.0], 8)
        with pytest.raises(ValueError, match="non-finite"):
            randomized_point_samples(p, x, 8)


class TestKhinchine:
    def test_validation(self):
        with pytest.raises(ValueError):
            khinchine_check([], 2.0, 10)
        with pytest.raises(ValueError):
            khinchine_check([[1.0, 0.0]], 2.0, 10)
        with pytest.raises(ValueError):
            khinchine_check([1.0], 0.5, 10)
        with pytest.raises(ValueError):
            khinchine_check([1.0], 2.0, 1)
        with pytest.raises(ValueError, match="vanish"):
            khinchine_check([0.0, 0.0], 2.0, 10)

    @pytest.mark.parametrize("power", [1e308, 2000.0])
    def test_moments_outside_double_range_rejected(self, power):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="double range"):
            khinchine_check([1.0, 0.5], power, 64)

    def test_second_moment_matches_l2(self):
        res = khinchine_check([1.0, 0.8, 0.6, 0.4, 0.2], 2.0, 20_000)
        # analytic ratio at p = 2 is exactly 1
        assert abs(res.ratio - 1.0) <= 3.0 * res.ratio_stderr
        assert res.ratio_stderr < 0.01

    def test_fourth_moment_single_spike(self):
        res = khinchine_check([1.0], 4.0, 20_000, seed=2)
        assert abs(res.ratio - khinchine_analytic_ratio(4.0)) <= 3.0 * res.ratio_stderr

    def test_ratio_consistent_with_moment(self):
        c = np.array([0.3, 1.2, 0.5])
        res = khinchine_check(c, 4.0, 256, seed=8)
        assert res.ratio == res.moment / (2.0 * float(np.linalg.norm(c)))
        assert res.n_samples == 256 and res.power == 4.0

    def test_deterministic(self):
        a = khinchine_check([1.0, 2.0], 3.0, 512, seed=5)
        b = khinchine_check([1.0, 2.0], 3.0, 512, seed=5)
        assert a == b


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
        assert curve.n_samples == 800 and curve.alpha == 0.02

    def test_deterministic(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        a = stochastic_continuity(p, 0.3, 0.05, [1e-2, 1e-3], 64, seed=9)
        b = stochastic_continuity(p, 0.3, 0.05, [1e-2, 1e-3], 64, seed=9)
        np.testing.assert_array_equal(a.empirical_probs, b.empirical_probs)


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
