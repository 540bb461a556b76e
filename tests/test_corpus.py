"""The twelve-profile corpus and its purpose-built spatial grids."""

import numpy as np
import pytest

from ostrovsky_lab.corpus import (
    band_profile,
    gaussian_profile,
    observation_grid,
    parseval_grid,
    profile_from_function,
)
from ostrovsky_lab.spectral import (
    SpaceGrid,
    SpectralProfile,
    evolve_spectral,
    hs_norm,
    lp_norm_space,
    synthesize,
    validate_resolution,
)

EXPECTED_IDS = [
    "gauss_low", "gauss_low_even", "band_unit", "band_low_even",
    "gauss_mid", "band_mid_even", "chirped_mid", "band_narrow",
    "gauss_high", "band_high_even", "mix_two_scale", "mix_band_gauss_even",
]


class TestCorpusShape:
    def test_twelve_unique_ids_in_order(self, corpus):
        assert [e.profile_id for e in corpus] == EXPECTED_IDS

    def test_grids_are_binary_aligned(self, corpus):
        # xi_min is an exact multiple of xi_step, so every grid point,
        # window offset and band edge is exactly representable
        for e in corpus:
            ratio = e.profile.xi_min / e.profile.xi_step
            assert ratio == round(ratio), e.profile_id

    def test_end_points_carry_no_amplitude(self, corpus):
        for e in corpus:
            assert e.profile.amplitudes[0] == 0.0, e.profile_id
            assert e.profile.amplitudes[-1] == 0.0, e.profile_id

    def test_support_avoids_the_singularity(self, corpus):
        for e in corpus:
            supported = np.abs(e.profile.xi[e.profile.amplitudes != 0.0])
            assert supported.min() >= 0.25, e.profile_id
            assert supported.max() <= 10.5, e.profile_id

    def test_nothing_was_truncated(self, corpus):
        for e in corpus:
            assert e.profile.truncated_mass == 0.0, e.profile_id

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_resolved_at_design_time(self, corpus, sign):
        for e in corpus:
            rep = validate_resolution(e.profile, e.max_resolved_t, sign)
            assert rep.ok, e.profile_id


class TestBuilders:
    def test_profile_from_function_samples_closed_grid(self):
        p = profile_from_function(lambda xi: xi * 0 + 2.0, 1.0, 2.0, 0.25)
        assert p.n == 5
        assert p.xi[0] == 1.0 and p.xi[-1] == 2.0
        assert np.all(p.amplitudes == 2.0)

    def test_gaussian_profile_even_is_symmetric(self):
        p = gaussian_profile(1.5, 0.3, 0.5, 2.5, -3.0, 3.0, 0.25, even=True)
        np.testing.assert_array_equal(p.amplitudes, p.amplitudes[::-1])

    def test_gaussian_profile_truncates_outside_band(self):
        p = gaussian_profile(1.5, 0.3, 1.0, 2.0, 0.0, 3.0, 0.25)
        xi = p.xi
        outside = (xi < 1.0) | (xi > 2.0)
        assert np.all(p.amplitudes[outside] == 0.0)
        assert np.all(p.amplitudes[~outside] != 0.0)

    def test_chirp_preserves_magnitude(self):
        plain = gaussian_profile(4.0, 0.5, 1.5, 6.5, 1.0, 7.0, 0.125)
        chirped = gaussian_profile(4.0, 0.5, 1.5, 6.5, 1.0, 7.0, 0.125, chirp=2.0)
        np.testing.assert_allclose(np.abs(chirped.amplitudes),
                                   np.abs(plain.amplitudes), rtol=3e-16, atol=0.0)

    def test_chirp_translates_the_field(self):
        # exp(i * c * xi) turns u(x) into u(x + c): the peak moves left by c
        plain = gaussian_profile(4.0, 0.5, 1.5, 6.5, 1.0, 7.0, 0.125)
        chirped = gaussian_profile(4.0, 0.5, 1.5, 6.5, 1.0, 7.0, 0.125, chirp=2.0)
        grid = SpaceGrid.spanning(-6.0, 6.0, 4801)
        peak_plain = grid.points[np.argmax(np.abs(synthesize(plain, grid).values))]
        peak_chirped = grid.points[np.argmax(np.abs(synthesize(chirped, grid).values))]
        assert abs((peak_plain - peak_chirped) - 2.0) <= 2 * grid.x_step

    def test_band_profile_is_flat_indicator(self):
        p = band_profile(1.0, 2.0, 0.7, 0.5, 2.5, 0.25)
        inside = (p.xi >= 1.0) & (p.xi <= 2.0)
        assert np.all(p.amplitudes[inside] == 0.7)
        assert np.all(p.amplitudes[~inside] == 0.0)

    def test_band_profile_even_includes_both_signs(self):
        p = band_profile(1.0, 2.0, 1.0, -2.5, 2.5, 0.25, even=True)
        assert p.amplitudes[p.xi == -1.5][0] == 1.0
        assert p.amplitudes[p.xi == 1.5][0] == 1.0


class TestParsevalGrid:
    def test_covers_one_alias_period(self, corpus):
        p = corpus[0].profile
        g = parseval_grid(p)
        period = 2.0 * np.pi / p.xi_step
        assert g.n == p.n + 1
        assert abs((g.points[-1] - g.points[0]) - period) <= 1e-9 * period

    @pytest.mark.parametrize("t", [0.0, 1e-3, 1.0])
    def test_trapezoid_l2_matches_spectral_l2(self, corpus, t):
        # DFT orthogonality over the exact period: holds for any t because
        # the evolved amplitudes are still just amplitudes on the same grid
        for e in corpus:
            p = evolve_spectral(e.profile, t, "+")
            field_l2 = lp_norm_space(synthesize(p, parseval_grid(p)), 2.0)
            spectral_l2 = hs_norm(e.profile, 0.0)
            assert abs(field_l2 - spectral_l2) <= 1e-12 * spectral_l2, e.profile_id


class TestObservationGrid:
    def test_shape_and_margin(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        g = observation_grid(p, n=512)
        assert g.n == 512
        period = 2.0 * np.pi / p.xi_step
        assert g.points[0] >= -0.5 * period
        assert g.points[-1] <= 0.5 * period

    def test_contains_the_field_peak(self, corpus):
        for e in corpus:
            p = e.profile
            g = observation_grid(p, n=256)
            period = 2.0 * np.pi / p.xi_step
            probe = synthesize(p, SpaceGrid.spanning(-0.5 * period, 0.5 * period, 512))
            x_peak = probe.x[np.argmax(np.abs(probe.values))]
            assert g.points[0] <= x_peak <= g.points[-1], e.profile_id

    def test_zero_profile_falls_back_to_unit_box(self):
        p = SpectralProfile(0.5, 0.25, np.zeros(9))
        g = observation_grid(p, n=64)
        assert (g.points[0], g.points[-1]) == (-1.0, 1.0)
        assert g.n == 64
