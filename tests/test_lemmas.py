"""Self-auditing estimate checks and the corpus harness."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrovsky_lab import lemmas, spectral, windows
from ostrovsky_lab.corpus import CorpusEntry, band_profile, observation_grid
from ostrovsky_lab.lemmas import (
    EPSILON,
    HIGH_TIMES,
    LEMMA_IDS,
    MAX_WINDOW_INDEX,
    OBSERVATION_POINTS,
    SPLIT_SCALE,
    SQUARE_TIMES,
    T_LOW,
    WINDOW_EPSILON,
    LemmaReport,
    _run_ends,
    bernstein_report,
    check_high_frequency,
    check_low_frequency,
    check_square_function,
    check_wiener_low,
    delta_epsilon,
    high_frequency_part,
    norm_equivalence_reports,
    run_corpus,
)
from ostrovsky_lab.spectral import (
    SQRT_2PI,
    ZERO_EXCLUSION,
    SpectralProfile,
    _chirp_plan,
    evolve_spectral,
    hs_norm,
    phase,
    phase_moments,
    synthesize,
)
from ostrovsky_lab.windows import (
    project_low,
    square_function,
    wiener_decompose,
    wiener_project,
    wiener_window,
)

EXPECTED_ROW_COUNTS = {
    "L2_2": 12,
    "L2_3": 16,
    "L2_4": 12,
    "L2_5": 59,
    "L2_6": 12,
    "L2_7": 24,
    "NORM_EQUIV": 24,
    "BERNSTEIN": 12,
}


def _spike(xi0=20.0, h=0.5):
    return SpectralProfile(xi0 - h, h, np.array([0.0, 1.0, 0.0]))


def _grid(p):
    """The grid the corpus run reads p's sups on."""
    return observation_grid(p, OBSERVATION_POINTS)


class TestLemmaReport:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown lemma id"):
            LemmaReport("L9_9", "p", {}, 0.0, 1.0, 0.0)

    def test_verdict_follows_the_sides(self):
        # the report stores its two sides and no verdict; passed is read from them
        assert [f.name for f in dataclasses.fields(LemmaReport)] == [
            "lemma_id", "profile_id", "params", "measured_lhs", "bound_rhs", "fitted_c"]
        for lhs, rhs, passed in ((1.0, 1.0, True), (0.5, 1.0, True), (1.0, 0.5, False),
                                 (math.nan, 1.0, False), (0.0, math.nan, False)):
            assert LemmaReport("L2_6", "p", {}, lhs, rhs, 0.0).passed is passed


class TestDeltaEpsilon:
    @staticmethod
    def _oracle(p, epsilon):
        # linear scan over the positive candidate radii, no bisection bookkeeping
        radii = np.unique(np.abs(p.xi))
        radii = radii[(radii > 0.0) & (radii <= 0.5)]
        ok = [r for r in radii
              if np.sum(np.abs(p.amplitudes[np.abs(p.xi) <= r]) ** 2) * p.xi_step
              <= epsilon**2]
        if radii.size == 0 or len(ok) == radii.size:
            return 0.5
        if not ok:
            return ZERO_EXCLUSION
        return float(ok[-1])

    def test_validation(self, corpus_by_id):
        with pytest.raises(ValueError):
            delta_epsilon(corpus_by_id["gauss_low"].profile, 0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_refused(self, corpus_by_id, epsilon):
        # a nan budget used to give the capped radius, and nan L2_5 bounds
        p = corpus_by_id["gauss_low"].profile
        for check in (lambda: delta_epsilon(p, epsilon),
                      lambda: check_low_frequency(p, 1e-3, epsilon, grid=_grid(p)),
                      lambda: check_wiener_low(p, 1e-3, epsilon, grid=_grid(p))):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                check()

    def test_overflowing_mass_refused_without_warning(self):
        # the partial L2 norms of 1.7e308 amplitudes leave the double range;
        # at 1e300 only their squares do, and the radius is the unit one
        unit = SpectralProfile(0.125, 0.125, np.ones(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="L2 mass of the profile leaves"):
                delta_epsilon(unit.with_amplitudes(np.full(9, 1.7e308)), EPSILON)
            # the partial norms of the unit profile are sqrt(k / 8) at radius k / 8
            for epsilon, radius in ((0.3, ZERO_EXCLUSION), (0.5, 0.25), (0.75, 0.5)):
                assert delta_epsilon(unit, epsilon) == radius
                assert delta_epsilon(unit.with_amplitudes(np.full(9, 1e300)), epsilon * 1e300) == radius

    @given(data=st.data())
    def test_radius_is_scale_free(self, data):
        # delta_epsilon(2^e p, 2^e eps) == delta_epsilon(p, eps) at every e at
        # which the amplitudes, eps and the L2 norm stay normal doubles
        part = st.one_of(st.just(0.0), st.floats(2.0**-30, 1.0).flatmap(
            lambda v: st.sampled_from([v, -v])))
        parts = data.draw(st.lists(part, min_size=2, max_size=24).filter(any))
        amps = np.array(parts[0::2], dtype=np.complex128)
        amps[: len(parts[1::2])] += 1j * np.array(parts[1::2])
        p = SpectralProfile(data.draw(st.sampled_from([-1.0, -0.5625, 0.0625])), 0.125, amps)
        epsilon = hs_norm(p, 0.0) * data.draw(st.floats(0.01, 1.2))
        inputs = np.abs(np.concatenate([amps.real, amps.imag, [epsilon]]))
        e_lo = -1021 - math.frexp(float(np.min(inputs[inputs > 0.0])))[1]
        e_hi = 1023 - max(math.frexp(hs_norm(p, 0.0))[1], math.frexp(float(np.max(inputs)))[1])
        e = data.draw(st.integers(e_lo, e_hi))
        scaled = p.with_amplitudes(amps * 2.0 ** (e // 2) * 2.0 ** (e - e // 2))
        assert delta_epsilon(scaled, math.ldexp(epsilon, e)) == delta_epsilon(p, epsilon)

    def test_zero_profile_hits_cap(self):
        p = SpectralProfile(-1.0, 0.25, np.zeros(9))
        assert delta_epsilon(p, 1e-3) == 0.5

    def test_support_away_from_origin_hits_cap(self, corpus_by_id):
        assert delta_epsilon(corpus_by_id["gauss_high"].profile, 1e-6) == 0.5

    def test_heavy_innermost_point_falls_back(self):
        p = SpectralProfile(0.25, 0.25, np.array([3.0, 0.0, 1.0]))
        assert delta_epsilon(p, 1e-3) == ZERO_EXCLUSION

    @given(st.integers(0, 8), st.integers(-40, 0), st.booleans(),
           st.lists(st.floats(0.0, 1e3), min_size=1, max_size=60),
           st.sampled_from([1e-3, 1e-2, 1e-1, 1.0]))
    def test_radius_is_positive(self, log_step, start, on_zero, amps, epsilon):
        # grids through xi = 0 (on_zero, when the points reach it) and grids
        # offset by half a step from it
        h = 2.0**-log_step
        p = SpectralProfile((start + (0.0 if on_zero else 0.5)) * h, h, np.array(amps))
        assert delta_epsilon(p, epsilon) > 0.0

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-2, 1e-1, 1.0])
    def test_matches_linear_scan(self, corpus, epsilon):
        for entry in corpus:
            assert delta_epsilon(entry.profile, epsilon) == \
                self._oracle(entry.profile, epsilon), entry.profile_id

    def test_matches_linear_scan_near_origin(self):
        # mass straddles the budget inside radius 1/2
        p = SpectralProfile(0.125, 0.125, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        for epsilon in (0.03, 0.06, 0.1, 0.2, 0.5):
            assert delta_epsilon(p, epsilon) == self._oracle(p, epsilon)

    @staticmethod
    def _assert_run_ends_match_unique(values):
        mask = _run_ends(values)
        distinct = np.unique(values)
        assert np.array_equal(values[mask], distinct)
        # each kept entry is the last of its run, where the cumulative mass is inclusive
        assert np.array_equal(np.flatnonzero(mask),
                              np.searchsorted(values, distinct, side="right") - 1)

    def test_run_ends_match_unique_on_corpus_radii(self, corpus):
        for entry in corpus:
            self._assert_run_ends_match_unique(np.sort(np.abs(entry.profile.xi)))

    @given(st.lists(st.sampled_from([0.0, 2.0**-20, 0.125, 0.5, 0.5000000000000001, 3.0]),
                    min_size=1, max_size=40))
    def test_run_ends_match_unique_with_repeats(self, values):
        self._assert_run_ends_match_unique(np.sort(np.array(values)))


class TestLowFrequency:
    def test_t_zero_deviation_vanishes(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        for report in check_low_frequency(p, 0.0, 1e-2, profile_id="gauss_low", grid=_grid(p)):
            assert report.measured_lhs == 0.0
            assert report.fitted_c == 0.0
            assert report.passed

    def test_uniform_variant_records_epsilon_radius(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        low, uniform = check_low_frequency(p, 1e-3, 1e-2, profile_id="gauss_low", grid=_grid(p))
        assert (low.lemma_id, uniform.lemma_id) == ("L2_2", "L2_4")
        assert low.params["delta"] == delta_epsilon(p, 1e-2)
        assert uniform.params["delta"] == 1e-2

    def test_lhs_matches_direct_synthesis(self, corpus_by_id):
        p = corpus_by_id["band_high_even"].profile
        grid = _grid(p)
        report, _ = check_low_frequency(p, 1e-3, 1e-2, profile_id="band_high_even", grid=grid)
        low = project_low(p, SPLIT_SCALE)
        evolved = synthesize(evolve_spectral(low, 1e-3, "+"), grid)
        still = synthesize(low, grid)
        lhs = float(np.max(np.abs(evolved - still)))
        assert abs(lhs - report.measured_lhs) <= 1e-12 * max(1.0, lhs)
        assert report.params["delta"] == 0.5
        assert report.fitted_c <= 1e4
        assert report.passed

    def test_epsilon_validated_before_the_gate(self, corpus_by_id):
        p = corpus_by_id["band_high_even"].profile
        with pytest.raises(ValueError, match="positive"):
            check_low_frequency(p, 1e3, 0.0, grid=_grid(p))  # t = 1e3 would be refused

    @pytest.mark.parametrize("xi_min", [-2**-7, 2**-8], ids=["through-zero", "off-zero"])
    def test_heavy_grid_near_zero_gets_a_measured_row(self, xi_min):
        # every point within radius 1/2 is heavy; the point at xi = 0 carries
        # nothing, so with or without it on the grid the low-mass radius falls
        # back to ZERO_EXCLUSION and both rows are measured
        p = SpectralProfile(xi_min, 2**-8, np.full(299, 1e3))
        assert delta_epsilon(p, 1e-2) == ZERO_EXCLUSION
        low, uniform = check_low_frequency(p, 1e-5, 1e-2, profile_id="dense_low",
                                            grid=_grid(p))
        assert low.params == {"epsilon": 1e-2, "t": 1e-5, "delta": ZERO_EXCLUSION}
        assert uniform.params == {"epsilon": 1e-2, "t": 1e-5, "delta": 1e-2}
        assert low.measured_lhs == uniform.measured_lhs > 0.0


class TestHighFrequency:
    def test_split_is_exact_complement(self, corpus):
        for entry in corpus:
            p = entry.profile
            low = project_low(p, SPLIT_SCALE)
            high = high_frequency_part(p)
            np.testing.assert_array_equal(low.amplitudes + high.amplitudes,
                                          p.amplitudes)

    def test_majorant_zero_for_low_profiles(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        assert phase_moments(high_frequency_part(p), "+", (1,)) == (0.0,)

    def test_majorant_in_range_passes_where_curvature_overflows(self):
        # L = 1.885e306 is in range although L2 is not: the rows are kept, without a warning
        p = SpectralProfile(9.0, 0.125, np.full(9, 1e305))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            constant, slope = check_high_frequency(p, HIGH_TIMES, grid=_grid(p))
        assert constant.passed and slope.passed
        assert 1.88e306 < constant.bound_rhs < 1.89e306

    def test_majorant_single_mode_closed_form(self):
        p = _spike()
        expected = abs(phase(20.0)) * 0.5 / SQRT_2PI
        majorant, = phase_moments(high_frequency_part(p), "+", (1,))
        assert abs(majorant - expected) <= 1e-15 * expected

    def test_validation(self, corpus_by_id):
        p = corpus_by_id["gauss_high"].profile
        with pytest.raises(ValueError, match="positive times"):
            check_high_frequency(p, [1e-3, 1e-4], grid=_grid(p))
        with pytest.raises(ValueError, match="positive times"):
            check_high_frequency(p, [1e-3, 1e-4, 0.0], grid=_grid(p))

    def test_repeated_times_refused(self, corpus_by_id):
        # one distinct time is a one-point fit, which np.polyfit warns about
        p = corpus_by_id["gauss_high"].profile
        for times in ([1e-4, 1e-4, 1e-4], [1e-4, 1e-3, 1e-4, 1e-3]):
            with pytest.raises(ValueError, match="3 distinct positive times"):
                check_high_frequency(p, times, grid=_grid(p))

    def test_zero_high_part_skips(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        rows = check_high_frequency(p, [1e-5, 1e-4, 1e-3], profile_id="gauss_low", grid=_grid(p))
        assert len(rows) == 1
        assert rows[0].params["skip"] == "zero_high_frequency_part"
        assert rows[0].passed

    def test_single_mode_rows_match_closed_form(self):
        # sup_x |(e^{it phi} - 1) a e^{ix xi}| = 2|sin(t phi / 2)| at any x,
        # so the fitted constant is exactly the max of that over t, and the
        # sweep slope sits within O((t_max phi)^2) of 1
        p = _spike()
        ts = np.geomspace(1e-7, 1e-4, 7)
        const, slope = check_high_frequency(p, ts, profile_id="spike20", grid=_grid(p))
        phi = phase(20.0)
        closed = max(2.0 * abs(math.sin(t * phi / 2.0)) / t for t in ts) * 0.5 / SQRT_2PI
        assert abs(const.measured_lhs - closed) <= 1e-12 * closed
        assert const.measured_lhs <= const.bound_rhs  # linearization majorant
        assert const.passed
        assert slope.measured_lhs == abs(slope.fitted_c - 1.0)
        assert slope.measured_lhs <= 0.01
        assert slope.bound_rhs == 0.05
        assert slope.passed


class TestWienerLow:
    def test_out_of_scope_window(self, corpus_by_id):
        # gauss_high's windows run past MAX_WINDOW_INDEX; only those inside get rows
        p = corpus_by_id["gauss_high"].profile
        assert wiener_decompose(p).ks.max() > MAX_WINDOW_INDEX
        rows = check_wiener_low(p, 1e-3, 1e-1, profile_id="gauss_high", grid=_grid(p))
        assert rows and all(abs(r.params["k"]) <= MAX_WINDOW_INDEX for r in rows)
        with pytest.raises(ValueError, match="positive"):
            check_wiener_low(p, 1e-3, 0.0, grid=_grid(p))

    def test_disjoint_window_gives_zero(self, corpus_by_id):
        # a window disjoint from the support (k = 8 for gauss_low) has a zero
        # piece and no row; the rows are the non-zero pieces, in k order
        p = corpus_by_id["gauss_low"].profile
        dec = wiener_decompose(p)
        nonzero = [int(k) for k, row in zip(dec.ks, dec.table) if np.any(row != 0.0)]
        rows = check_wiener_low(p, 1e-3, 1e-1, profile_id="gauss_low", grid=_grid(p))
        assert [r.params["k"] for r in rows] == nonzero
        assert 8 not in nonzero
        assert all(r.measured_lhs > 0.0 and r.passed for r in rows)

    def test_l1_mass_recorded(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        expected = float(np.sum(np.abs(p.amplitudes)) * p.xi_step)
        for report in check_wiener_low(p, 1e-3, 1e-1, profile_id="gauss_low", grid=_grid(p)):
            assert report.params["l1_mass"] == expected
            assert report.lemma_id == "L2_5"

    def test_huge_amplitudes_follow_the_range_rule(self):
        # the sups and the l1 mass are linear in the amplitudes: in range they
        # scale with them, out of range the refusal names the mass
        unit = SpectralProfile(1.0, 0.125, np.ones(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = check_wiener_low(unit, 1e-3, 0.5, grid=_grid(unit))
            p = unit.with_amplitudes(np.full(9, 1e300))
            big = check_wiener_low(p, 1e-3, 0.5, grid=_grid(p))
            p = unit.with_amplitudes(np.full(9, 1.7e308))
            with pytest.raises(ValueError, match="^the l1 mass leaves the double range$"):
                check_wiener_low(p, 1e-3, 0.5, grid=_grid(p))
        assert [r.params["k"] for r in big] == [r.params["k"] for r in plain]
        for a, b in zip(plain, big):
            assert b.measured_lhs == pytest.approx(1e300 * a.measured_lhs, rel=1e-14)
            assert b.params["l1_mass"] == pytest.approx(1e300 * a.params["l1_mass"], rel=1e-15)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_rows_match_one_window_syntheses(self, corpus, lemma_reports, sign):
        # each batched L2_5 deviation against the synthesis of its own
        # (U(t) - I) wiener_project(p, k), and one shared L2_2 / L2_4 deviation
        reports = lemma_reports if sign == "+" else run_corpus(corpus, sign)
        for entry in corpus:
            p, pid = entry.profile, entry.profile_id
            rows = [r for r in reports if r.profile_id == pid]
            low, uniform = [r for r in rows if r.lemma_id in ("L2_2", "L2_4")]
            assert low.measured_lhs == uniform.measured_lhs, pid
            grid = _grid(p)
            for report in (r for r in rows if r.lemma_id == "L2_5"):
                piece = wiener_project(p, report.params["k"])
                evolved = evolve_spectral(piece, T_LOW, sign)
                moved = piece.with_amplitudes(evolved.amplitudes - piece.amplitudes)
                direct = float(np.max(np.abs(synthesize(moved, grid))))
                assert abs(report.measured_lhs - direct) <= 1e-12 * direct, (pid, report.params)


class TestRefusedGates:
    """A profile whose low part, high part and window 8 fail the resolution gate."""

    @staticmethod
    def _profile():
        return band_profile(0.5, 12.0, 1.0, 0.0, 12.5, 0.5)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_checks_return_skip_rows(self, sign):
        p = self._profile()
        refused = {"skip": "resolution_refused"}
        low = check_low_frequency(p, T_LOW, EPSILON, sign=sign, profile_id="b", grid=_grid(p))
        assert [(r.lemma_id, r.params) for r in low] == [
            ("L2_2", {**refused, "t": T_LOW}), ("L2_4", {**refused, "t": T_LOW})]
        (high,) = check_high_frequency(p, HIGH_TIMES, sign=sign, profile_id="b", grid=_grid(p))
        assert (high.lemma_id, high.params) == ("L2_3", refused)
        windows = check_wiener_low(p, T_LOW, WINDOW_EPSILON, sign=sign, profile_id="b",
                                   grid=_grid(p))
        assert [r.params["k"] for r in windows] == list(range(9))
        assert windows[-1].params == {**refused, "k": 8, "t": T_LOW}
        assert all("skip" not in r.params and r.measured_lhs > 0.0 for r in windows[:-1])
        for report in (*low, high, windows[-1]):
            assert (report.measured_lhs, report.bound_rhs, report.fitted_c) == (0.0, 0.0, 0.0)
            assert report.passed

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_corpus_run_keeps_row_order(self, sign):
        reports = run_corpus([CorpusEntry("b", self._profile())], sign)
        order = [r.lemma_id for r in reports]
        assert order == ["L2_2", "L2_3", "L2_4"] + ["L2_5"] * 9 + [
            "L2_6", "L2_7", "L2_7", "NORM_EQUIV", "NORM_EQUIV", "BERNSTEIN"]
        skipped = [(r.lemma_id, r.params.get("k")) for r in reports if "skip" in r.params]
        assert skipped == [("L2_2", None), ("L2_3", None), ("L2_4", None), ("L2_5", 8)]


class TestSquareFunction:
    def test_static_and_evolved_ids(self, corpus_by_id):
        p = corpus_by_id["band_unit"].profile
        static = check_square_function(p, profile_id="band_unit", grid=_grid(p))
        evolved = check_square_function(p, 0.5, profile_id="band_unit", grid=_grid(p))
        assert static.lemma_id == "L2_6" and static.params == {}
        assert evolved.lemma_id == "L2_7" and evolved.params == {"t": 0.5}
        assert static.passed and evolved.passed

    def test_in_range_sup_of_a_huge_profile(self):
        # the sums of squares overflow, the sup and the norm do not: both are
        # retaken on rescaled magnitudes, exactly 2^531 times the unit case
        unit = SpectralProfile(1.0, 0.125, np.ones(9))
        small = check_square_function(unit, grid=_grid(unit))
        p = unit.with_amplitudes(np.full(9, 2.0**531))
        big = check_square_function(p, grid=_grid(p))
        assert big.measured_lhs == 2.0**531 * small.measured_lhs
        assert big.bound_rhs == 2.0**531 * small.bound_rhs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = unit.with_amplitudes(np.full(9, 1e160))
            found = check_square_function(p, grid=_grid(p))
        assert found.measured_lhs == pytest.approx(2.8209449e159, rel=1e-7) and found.passed

    def test_zero_profile_passes_vacuously(self):
        p = SpectralProfile(1.0, 0.5, np.zeros(5))
        report = check_square_function(p, grid=_grid(p))
        assert report.measured_lhs == 0.0 and report.bound_rhs == 0.0
        assert report.passed and report.fitted_c == 0.0

    def test_no_resolution_gate(self, corpus_by_id):
        # the grid max of the exact discrete square sum stays below the
        # norm bound at times far beyond the synthesis resolution limit
        p = corpus_by_id["band_high_even"].profile
        report = check_square_function(p, 1.0, profile_id="band_high_even", grid=_grid(p))
        assert report.passed
        assert report.bound_rhs == hs_norm(p, 0.0) * (1.0 + 1e-6)


class TestNormEquivalence:
    def test_overflowing_squares_refused_naming_the_profile(self):
        # the L2 norm, about 1.06e160, is in range; its square is not.  The
        # corpus harness names the profile, once
        p = SpectralProfile(1.0, 0.125, np.full(9, 1e160))
        message = "NORM_EQUIV: the squared L2 norms leave the double range$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}"):
                norm_equivalence_reports(p, profile_id="huge")
            with pytest.raises(ValueError, match=f"^huge: {message}"):
                run_corpus([CorpusEntry("huge", p)], only=["NORM_EQUIV"])

    def test_underflowing_squares_refused_and_zero_profile_kept(self):
        # the L2 norm, about 1.06e-300, is in range; its square underflows to 0
        p = SpectralProfile(1.0, 0.125, np.full(9, 1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^NORM_EQUIV: the squared L2 norms leave the double range$"):
                norm_equivalence_reports(p, profile_id="tiny")
            rows = norm_equivalence_reports(p.with_amplitudes(np.zeros(9)), profile_id="zero")
        assert [r.params["ratio"] for r in rows] == [1.0, 1.0]
        assert all(r.passed for r in rows)

    def test_two_sided_rows(self, corpus_by_id):
        p = corpus_by_id["mix_two_scale"].profile
        lower, upper = norm_equivalence_reports(p, profile_id="mix_two_scale")
        assert {lower.params["side"], upper.params["side"]} == {"lower", "upper"}
        assert lower.passed and upper.passed
        ratio = lower.params["ratio"]
        assert 1.0 / 3.0 < ratio <= 1.0 + 1e-12
        assert upper.params["ratio"] == ratio


class TestCarryingWindowTable:
    """Outputs of the carrying-window table against a contiguous table of windows."""

    @staticmethod
    def _contiguous_table(p):
        # every window of floor(min carried xi) - 1 .. ceil(max) + 1, zero edge and gap pieces included
        carried = p.xi[p.amplitudes != 0.0]
        ks = np.arange(math.floor(carried.min()) - 1, math.ceil(carried.max()) + 2)
        return p.amplitudes * wiener_window(p.xi - ks[:, None])

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_square_function_bits(self, corpus, sign):
        for entry in corpus:
            p = entry.profile
            grid = _grid(p)
            for q in (p, *(evolve_spectral(p, t, sign) for t in SQUARE_TIMES)):
                fields = spectral._synthesize_rows(q, grid, self._contiguous_table(q))
                reference = np.sqrt(np.sum(np.abs(fields) ** 2, axis=0))
                values = square_function(q, grid)
                assert values.tobytes() == reference.tobytes(), entry.profile_id

    def test_norm_equivalence_bits(self, corpus):
        for entry in corpus:
            p = entry.profile
            piece_sum = float(sum(hs_norm(p.with_amplitudes(row), 0.0) ** 2
                                  for row in self._contiguous_table(p)))
            _, upper = norm_equivalence_reports(p, profile_id=entry.profile_id)
            assert upper.measured_lhs.hex() == piece_sum.hex(), entry.profile_id
            assert upper.params["ratio"] == piece_sum / hs_norm(p, 0.0) ** 2


class TestBernstein:
    def test_corpus_ratios_capped(self, corpus_by_id):
        p = corpus_by_id["band_unit"].profile
        report = bernstein_report(p, profile_id="band_unit", grid=_grid(p))
        assert report.lemma_id == "BERNSTEIN"
        assert 0.0 < report.measured_lhs <= 2.0
        assert report.params["pieces"] >= 1
        assert report.passed

    def test_huge_amplitudes_give_the_unit_ratio(self):
        # each window row is brought to unit size, and the ratio is scale-free
        unit = SpectralProfile(1.0, 0.125, np.ones(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = unit.with_amplitudes(np.full(9, 1.7e308))
            huge = bernstein_report(p, grid=_grid(p))
        plain = bernstein_report(unit, grid=_grid(unit))
        assert huge.measured_lhs == pytest.approx(plain.measured_lhs, rel=1e-14)

    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    def test_subnormal_window_is_measured_as_if_alone(self, tiny):
        # windows 1 and 4 each carry one amplitude, window 4 a subnormal one;
        # its ratio is that of the same amplitude times 2**1074, a normal double
        def report(amplitudes):
            a = np.zeros(33, dtype=np.complex128)
            for index, value in amplitudes.items():
                a[index] = value
            p = SpectralProfile(0.5, 0.25, a)
            return bernstein_report(p, grid=_grid(p))

        both = report({2: 1.0, 14: tiny})
        alone = [report({2: 1.0}), report({14: math.ldexp(tiny, 1074)})]
        assert both.params == {"pieces": 2}
        assert both.fitted_c == max(r.fitted_c for r in alone)

    def test_zero_profile_skips(self):
        p = SpectralProfile(1.0, 0.5, np.zeros(5))
        report = bernstein_report(p, grid=_grid(p))
        assert report.params["skip"] == "zero_profile"
        assert report.passed


class TestRunCorpus:
    def test_row_counts_frozen(self, lemma_reports):
        assert len(lemma_reports) == 171
        counts = {}
        for report in lemma_reports:
            counts[report.lemma_id] = counts.get(report.lemma_id, 0) + 1
        assert counts == EXPECTED_ROW_COUNTS

    def test_everything_passes(self, lemma_reports):
        failures = [r for r in lemma_reports if not r.passed]
        assert failures == []

    def test_only_expected_skips(self, lemma_reports):
        skips = [r for r in lemma_reports if "skip" in r.params]
        assert len(skips) == 8
        assert {r.params["skip"] for r in skips} == {"zero_high_frequency_part"}
        assert {r.lemma_id for r in skips} == {"L2_3"}

    def test_rows_grouped_in_corpus_order(self, corpus, lemma_reports):
        corpus_order = [entry.profile_id for entry in corpus]
        seen = []
        for report in lemma_reports:
            if report.profile_id not in seen:
                seen.append(report.profile_id)
        assert seen == corpus_order

    def test_serial_run_matches_threaded(self, corpus, lemma_reports):
        # each run starts from a cleared plan cache, so the threaded run
        # builds its plans concurrently instead of reading the serial run's;
        # a short switch interval makes the threads interleave inside it
        interval = sys.getswitchinterval()
        for sign in "+-":
            _chirp_plan.cache_clear()
            serial = run_corpus(corpus, sign=sign, threads=1)
            _chirp_plan.cache_clear()
            sys.setswitchinterval(1e-5)
            try:
                threaded = run_corpus(corpus, sign=sign, threads=4)
            finally:
                sys.setswitchinterval(interval)
            assert serial == threaded, sign
            if sign == "+":
                assert serial == lemma_reports

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_work_counts(self, corpus, sign, monkeypatch):
        # the benchmark tracer sees neither _synthesize_rows nor plan builds:
        # per profile the probe grid and the observation grid need one plan
        # each, and each of the six window consumers builds its own table
        counts = {"syntheses": 0, "decompositions": 0, "rows": 0, "zero_rows": 0}
        builds = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        synthesize_rows = spectral._synthesize_rows

        def rows_counted(p, grid, rows):
            rows = np.atleast_2d(rows)
            counts["rows"] += len(rows)
            counts["zero_rows"] += int(np.sum(~np.any(rows != 0.0, axis=1)))
            return synthesize_rows(p, grid, rows)

        synth = counted("syntheses", rows_counted)
        for module in (spectral, lemmas, windows):
            monkeypatch.setattr(module, "_synthesize_rows", synth)
        decompose = counted("decompositions", windows.wiener_decompose)
        for module in (lemmas, windows):
            monkeypatch.setattr(module, "wiener_decompose", decompose)
        profile_reports = lemmas._profile_reports

        def per_profile(entry, sign):
            before = _chirp_plan.cache_info().misses
            reports = profile_reports(entry, sign)
            builds.append(_chirp_plan.cache_info().misses - before)
            return reports

        monkeypatch.setattr(lemmas, "_profile_reports", per_profile)
        _chirp_plan.cache_clear()
        reports = run_corpus(corpus, sign=sign, threads=1)
        assert len(reports) == sum(EXPECTED_ROW_COUNTS.values())
        assert len(builds) == len(corpus) == 12
        assert max(builds) <= 2
        # the parent's contiguous window range synthesized 581 rows, 174 of them zero;
        # every check batches its rows, bernstein_report its 74 pieces in one call per profile
        assert counts == {"syntheses": 88, "decompositions": 72, "rows": 407, "zero_rows": 0}

    def test_in_range_values_are_not_retaken(self, corpus, monkeypatch):
        # every value of the built-in audit is a normal double; the exact zero
        # partial norms inside delta_epsilon's first carrying radius are no underflow
        retakes = []
        downscaled = spectral._downscaled

        def counted(values):
            retakes.append(values.shape)
            return downscaled(values)

        monkeypatch.setattr(spectral, "_downscaled", counted)
        for sign in "+-":
            run_corpus(corpus, sign=sign)
        assert retakes == []

    def test_only_filter(self, corpus):
        rows = run_corpus(corpus, only={"L2_6"})
        assert len(rows) == 12
        assert all(r.lemma_id == "L2_6" for r in rows)

    def test_unknown_only_ids_rejected(self, corpus):
        with pytest.raises(ValueError, match="unknown lemma ids"):
            run_corpus(corpus, only={"L2_6", "NOT_A_LEMMA"})

    def test_ids_cover_declared_set(self, lemma_reports):
        assert {r.lemma_id for r in lemma_reports} == set(LEMMA_IDS)
