"""Self-auditing estimate checks and the corpus harness."""

import math

import numpy as np
import pytest

from ostrovsky_lab.corpus import observation_grid
from ostrovsky_lab.lemmas import (
    LEMMA_IDS,
    MAX_WINDOW_INDEX,
    SPLIT_SCALE,
    LemmaReport,
    bernstein_report,
    check_high_frequency,
    check_low_frequency,
    check_square_function,
    check_wiener_low,
    delta_epsilon,
    high_frequency_majorant,
    high_frequency_part,
    norm_equivalence_reports,
    run_corpus,
)
from ostrovsky_lab.spectral import (
    SQRT_2PI,
    SpectralProfile,
    evolve_spectral,
    hs_norm,
    phase,
    synthesize,
)
from ostrovsky_lab.windows import project_low

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


class TestLemmaReport:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown lemma id"):
            LemmaReport("L9_9", "p", {}, 0.0, 1.0, 0.0, True)

    def test_audit_matches_recorded_verdict(self, lemma_reports):
        for report in lemma_reports:
            assert report.audit() == report.passed


class TestDeltaEpsilon:
    @staticmethod
    def _oracle(p, epsilon):
        # linear scan over candidate radii, no bisection bookkeeping
        radii = np.unique(np.abs(p.xi))
        radii = radii[radii <= 0.5]
        ok = [r for r in radii
              if np.sum(np.abs(p.amplitudes[np.abs(p.xi) <= r]) ** 2) * p.xi_step
              <= epsilon**2]
        if radii.size == 0 or len(ok) == radii.size:
            return 0.5
        if not ok:
            return p.zero_exclusion
        return float(ok[-1])

    def test_validation(self, corpus_by_id):
        with pytest.raises(ValueError):
            delta_epsilon(corpus_by_id["gauss_low"].profile, 0.0)

    def test_zero_profile_hits_cap(self):
        p = SpectralProfile(-1.0, 0.25, np.zeros(9))
        assert delta_epsilon(p, 1e-3) == 0.5

    def test_support_away_from_origin_hits_cap(self, corpus_by_id):
        assert delta_epsilon(corpus_by_id["gauss_high"].profile, 1e-6) == 0.5

    def test_heavy_innermost_point_falls_back(self):
        p = SpectralProfile(0.25, 0.25, np.array([3.0, 0.0, 1.0]))
        assert delta_epsilon(p, 1e-3) == p.zero_exclusion

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


class TestLowFrequency:
    def test_t_zero_deviation_vanishes(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        report = check_low_frequency(p, 0.0, 1e-2, profile_id="gauss_low")
        assert report.measured_lhs == 0.0
        assert report.fitted_c == 0.0
        assert report.passed

    def test_uniform_variant_records_epsilon_radius(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        report = check_low_frequency(p, 1e-3, 1e-2, delta=1e-2, profile_id="gauss_low")
        assert report.lemma_id == "L2_4"
        assert report.params["delta"] == 1e-2

    def test_lhs_matches_direct_synthesis(self, corpus_by_id):
        p = corpus_by_id["band_high_even"].profile
        report = check_low_frequency(p, 1e-3, 1e-2, profile_id="band_high_even")
        low = project_low(p, SPLIT_SCALE)
        grid = observation_grid(p)
        evolved = synthesize(evolve_spectral(low, 1e-3, "+"), grid)
        still = synthesize(low, grid)
        lhs = float(np.max(np.abs(evolved.values - still.values)))
        assert abs(lhs - report.measured_lhs) <= 1e-12 * max(1.0, lhs)
        assert report.params["delta"] == 0.5
        assert report.fitted_c <= 1e4
        assert report.passed


    def test_zero_radius_fallback_skips(self):
        # all mass sits inside radius 1/2 and the exclusion radius is 0, so
        # the low-mass radius falls back to 0 and the bound has no value
        p = SpectralProfile(2**-8, 2**-8, np.full(299, 1e3), zero_exclusion=0.0)
        assert delta_epsilon(p, 1e-2) == 0.0
        report = check_low_frequency(p, 1e-5, 1e-2, profile_id="dense_low")
        assert report.params["skip"] == "no_low_mass_radius"
        assert report.passed and report.audit()


class TestHighFrequency:
    def test_split_is_exact_complement(self, corpus):
        for entry in corpus:
            p = entry.profile
            low = project_low(p, SPLIT_SCALE)
            high = high_frequency_part(p)
            np.testing.assert_array_equal(low.amplitudes + high.amplitudes,
                                          p.amplitudes)

    def test_majorant_zero_for_low_profiles(self, corpus_by_id):
        assert high_frequency_majorant(corpus_by_id["gauss_low"].profile) == 0.0

    def test_majorant_single_mode_closed_form(self):
        p = _spike()
        expected = abs(phase(20.0)) * 0.5 / SQRT_2PI
        assert abs(high_frequency_majorant(p) - expected) <= 1e-15 * expected

    def test_validation(self, corpus_by_id):
        p = corpus_by_id["gauss_high"].profile
        with pytest.raises(ValueError, match="positive times"):
            check_high_frequency(p, [1e-3, 1e-4])
        with pytest.raises(ValueError, match="positive times"):
            check_high_frequency(p, [1e-3, 1e-4, 0.0])

    def test_zero_high_part_skips(self, corpus_by_id):
        rows = check_high_frequency(corpus_by_id["gauss_low"].profile,
                                    [1e-5, 1e-4, 1e-3], profile_id="gauss_low")
        assert len(rows) == 1
        assert rows[0].params["skip"] == "zero_high_frequency_part"
        assert rows[0].passed

    def test_single_mode_rows_match_closed_form(self):
        # sup_x |(e^{it phi} - 1) a e^{ix xi}| = 2|sin(t phi / 2)| at any x,
        # so the fitted constant is exactly the max of that over t, and the
        # sweep slope sits within O((t_max phi)^2) of 1
        p = _spike()
        ts = np.geomspace(1e-7, 1e-4, 7)
        const, slope = check_high_frequency(p, ts, profile_id="spike20")
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
        p = corpus_by_id["gauss_low"].profile
        with pytest.raises(ValueError, match="out of scope"):
            check_wiener_low(p, 1e-3, 1e-1, MAX_WINDOW_INDEX + 1)
        with pytest.raises(ValueError, match="positive"):
            check_wiener_low(p, 1e-3, 0.0, 1)

    def test_disjoint_window_gives_zero(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile  # support ends below xi = 3
        report = check_wiener_low(p, 1e-3, 1e-1, 8, profile_id="gauss_low")
        assert report.measured_lhs == 0.0
        assert report.passed

    def test_l1_mass_recorded(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        report = check_wiener_low(p, 1e-3, 1e-1, 1, profile_id="gauss_low")
        expected = float(np.sum(np.abs(p.amplitudes)) * p.xi_step)
        assert report.params["l1_mass"] == expected
        assert report.params["k"] == 1
        assert report.lemma_id == "L2_5"


class TestSquareFunction:
    def test_static_and_evolved_ids(self, corpus_by_id):
        p = corpus_by_id["band_unit"].profile
        static = check_square_function(p, profile_id="band_unit")
        evolved = check_square_function(p, 0.5, profile_id="band_unit")
        assert static.lemma_id == "L2_6" and static.params == {}
        assert evolved.lemma_id == "L2_7" and evolved.params == {"t": 0.5}
        assert static.passed and evolved.passed

    def test_zero_profile_passes_vacuously(self):
        p = SpectralProfile(1.0, 0.5, np.zeros(5))
        report = check_square_function(p)
        assert report.measured_lhs == 0.0 and report.bound_rhs == 0.0
        assert report.passed and report.fitted_c == 0.0

    def test_no_resolution_gate(self, corpus_by_id):
        # the grid max of the exact discrete square sum stays below the
        # norm bound at times far beyond the synthesis resolution limit
        p = corpus_by_id["band_high_even"].profile
        report = check_square_function(p, 1.0, profile_id="band_high_even")
        assert report.passed
        assert report.bound_rhs == hs_norm(p, 0.0) * (1.0 + 1e-6)


class TestNormEquivalence:
    def test_two_sided_rows(self, corpus_by_id):
        p = corpus_by_id["mix_two_scale"].profile
        lower, upper = norm_equivalence_reports(p, profile_id="mix_two_scale")
        assert {lower.params["side"], upper.params["side"]} == {"lower", "upper"}
        assert lower.passed and upper.passed
        ratio = lower.params["ratio"]
        assert 1.0 / 3.0 < ratio <= 1.0 + 1e-12
        assert upper.params["ratio"] == ratio


class TestBernstein:
    def test_corpus_ratios_capped(self, corpus_by_id):
        report = bernstein_report(corpus_by_id["band_unit"].profile,
                                  profile_id="band_unit")
        assert report.lemma_id == "BERNSTEIN"
        assert 0.0 < report.measured_lhs <= 2.0
        assert report.params["pieces"] >= 1
        assert report.passed

    def test_zero_profile_skips(self):
        report = bernstein_report(SpectralProfile(1.0, 0.5, np.zeros(5)))
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
        serial = run_corpus(corpus, threads=1)
        assert serial == lemma_reports

    def test_only_filter(self, corpus):
        rows = run_corpus(corpus, only={"L2_6"})
        assert len(rows) == 12
        assert all(r.lemma_id == "L2_6" for r in rows)

    def test_unknown_only_ids_rejected(self, corpus):
        with pytest.raises(ValueError, match="unknown lemma ids"):
            run_corpus(corpus, only={"L2_6", "NOT_A_LEMMA"})

    def test_ids_cover_declared_set(self, lemma_reports):
        assert {r.lemma_id for r in lemma_reports} == set(LEMMA_IDS)
