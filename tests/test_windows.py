"""Dyadic cutoffs, unit windows, decomposition and the square function."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrovsky_lab import spectral, windows
from ostrovsky_lab.spectral import (
    _SYNTHESIS_BLOCK,
    SpaceGrid,
    SpectralProfile,
    hs_norm,
    synthesize,
)
from ostrovsky_lab.windows import (
    dyadic_cutoff,
    project_low,
    square_function,
    wiener_decompose,
    wiener_project,
    wiener_range,
    wiener_window,
)

EPS = np.finfo(float).eps

plain_floats = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


class TestDyadicCutoff:
    def test_plateau_and_tail(self):
        assert dyadic_cutoff(0.0) == 1.0
        assert dyadic_cutoff(1.0) == 1.0
        assert dyadic_cutoff(-1.0) == 1.0
        assert dyadic_cutoff(2.0) == 0.0
        assert dyadic_cutoff(-3.5) == 0.0

    def test_transition_values(self):
        # quintic smoothstep: the midpoint is exactly 1/2 and the quarter
        # point matches the polynomial evaluated directly
        assert dyadic_cutoff(1.5) == 0.5
        assert dyadic_cutoff(1.25) == 0.896484375

    def test_transition_monotone(self):
        xs = np.linspace(1.0, 2.0, 2001)
        vals = dyadic_cutoff(xs)
        assert np.all(np.diff(vals) <= 0.0)

    @given(plain_floats)
    def test_even_and_bounded(self, xi):
        v = dyadic_cutoff(xi)
        assert dyadic_cutoff(-xi) == v
        assert 0.0 <= v <= 1.0

    def test_scalar_type(self):
        assert isinstance(dyadic_cutoff(1.3), float)


class TestWienerWindow:
    def test_hat_shape(self):
        assert wiener_window(0.0) == 1.0
        assert wiener_window(1.0) == 0.0
        assert wiener_window(-1.0) == 0.0
        assert wiener_window(0.25) == 0.75
        assert wiener_window(7.0) == 0.0

    def test_partition_of_unity_massive_sweep(self):
        # acceptance-grade sweep: a million random points, deviation <= 1e-15
        rng = np.random.default_rng(20260814)
        pts = rng.uniform(-100.0, 100.0, 1_000_000)
        k0 = np.floor(pts)
        total = wiener_window(pts - k0) + wiener_window(pts - (k0 + 1.0))
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    @given(plain_floats)
    def test_partition_of_unity_pointwise(self, xi):
        k0 = math.floor(xi)
        total = wiener_window(xi - k0) + wiener_window(xi - (k0 + 1))
        assert abs(total - 1.0) <= 1e-15


class TestProjections:
    def test_low_keeps_plateau_and_kills_tail(self, corpus_by_id):
        p = corpus_by_id["mix_two_scale"].profile
        low = project_low(p, 2.0)
        inner = np.abs(p.xi) <= 2.0
        outer = np.abs(p.xi) >= 4.0
        np.testing.assert_array_equal(low.amplitudes[inner], p.amplitudes[inner])
        assert np.all(low.amplitudes[outer] == 0.0)

    def test_telescoping_is_bitwise_exact(self):
        # cutoff(xi/N) == cutoff(2 xi/N) + band multiplier, bit for bit: the
        # two transition regions only overlap where one factor is exactly 0/1
        xi = np.linspace(-40.0, 40.0, 200_001)
        for scale in (2.0, 5.0, 8.0):
            c1 = dyadic_cutoff(xi / scale)
            c2 = dyadic_cutoff(2.0 * xi / scale)
            band = c1 - c2
            assert np.array_equal(c2 + band, c1)

    @pytest.mark.parametrize("scale", [0.0, -2.0, math.inf, math.nan])
    def test_scale_validation(self, corpus, scale):
        with pytest.raises(ValueError):
            project_low(corpus[0].profile, scale)


class TestWienerDecomposition:
    def test_project_restricts_support(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        piece = wiener_project(p, 1)
        outside = np.abs(p.xi - 1.0) >= 1.0
        assert np.all(piece.amplitudes[outside] == 0.0)

    def test_window_centre_is_passed_through(self):
        h = 0.25
        amps = np.zeros(17)
        amps[8] = 1.7  # xi = 3.0 exactly
        p = SpectralProfile(1.0, h, amps)
        assert wiener_project(p, 3).amplitudes[8] == 1.7

    def test_cover_range(self, corpus_by_id):
        # support [0.25, 2.5]: the edge windows -1 and 4 of wiener_range vanish on it
        p = corpus_by_id["gauss_low"].profile
        assert wiener_range(p) == (-1, 4)
        np.testing.assert_array_equal(wiener_decompose(p).ks, [0, 1, 2, 3])

    def test_table_rows_match_wiener_project_bitwise(self, corpus):
        assert len(corpus) == 12
        for entry in corpus:
            p = entry.profile
            dec = wiener_decompose(p)
            assert dec.table.shape == (dec.ks.size, p.n)
            assert np.all(np.diff(dec.ks) > 0)
            for k, row in zip(dec.ks, dec.table):
                np.testing.assert_array_equal(row, wiener_project(p, int(k)).amplitudes)
                assert np.any(row != 0.0)
            # every window of wiener_range left out of the table projects to zero
            k_min, k_max = wiener_range(p)
            for k in sorted(set(range(k_min, k_max + 1)) - set(dec.ks.tolist())):
                assert np.all(wiener_project(p, k).amplitudes == 0.0), (entry.profile_id, k)

    def test_windows_come_from_the_carrying_points(self):
        # two frequencies 1e9 apart: two rows, not the 1000000003 windows of wiener_range
        dec = wiener_decompose(SpectralProfile(1.0, 1e9, np.ones(2)))
        np.testing.assert_array_equal(dec.ks, [1, 1000000001])
        assert dec.table.shape == (2, 2)
        np.testing.assert_array_equal(dec.table, np.eye(2))

    def test_table_over_memory_budget_refused(self, monkeypatch):
        # xi = 0.5 .. 2.5 reaches the windows 0 .. 3: a table of 4 rows over 9 frequencies
        p = SpectralProfile(0.5, 0.25, np.ones(9))
        need = windows._TABLE_PEAK_BYTES * 4 * 9
        monkeypatch.setattr(spectral, "MAX_ARRAY_BYTES", need - 1)
        with pytest.raises(ValueError, match=rf"^a table of 4 windows over 9 frequencies needs "
                                             rf"{need} bytes, above the budget of {need - 1} bytes$"):
            wiener_decompose(p)
        monkeypatch.setattr(spectral, "MAX_ARRAY_BYTES", need)
        np.testing.assert_array_equal(wiener_decompose(p).ks, [0, 1, 2, 3])

    @pytest.mark.parametrize("p", [
        SpectralProfile(0.5, 1.0, np.ones(1000)),   # every row carries: the table is copied whole
        SpectralProfile(1.0, 100.0, np.ones(101)),  # integer points: half the rows are dropped
    ], ids=["all-rows-carry", "half-the-rows-carry"])
    def test_traced_peak_within_the_budgeted_bytes(self, p):
        floors = np.floor(p.xi)
        rows = len(set(floors.tolist()) | set((floors + 1.0).tolist()))
        wiener_decompose(p)  # first call: any lazy numpy state is allocated outside the trace
        tracemalloc.start()
        try:
            wiener_decompose(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the lower bound shows that the trace sees numpy's allocations
        assert 0.5 * windows._TABLE_PEAK_BYTES < peak / (rows * p.n) <= windows._TABLE_PEAK_BYTES

    def test_refused_where_integers_stop_being_doubles(self):
        # from 2**53 on, xi - k rounds, and these profiles had column sums [1, 3, 1] and [1, 1, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p, reach in ((SpectralProfile(2.0**53 + 2, 2.0, np.ones(3)), 2.0**53 + 6),
                             (SpectralProfile(2.0**53 - 4, 2.0, np.ones(3)), 2.0**53),
                             (SpectralProfile(-(2.0**53 + 6), 2.0, np.ones(3)), 2.0**53 + 6)):
                with pytest.raises(ValueError, match=rf"^the profile carries \|xi\| = {reach!r}, "
                                                     r"at or beyond 2\*\*53, "):
                    wiener_decompose(p)
        dec = wiener_decompose(SpectralProfile(2.0**52, 1.0, np.ones(3)))
        np.testing.assert_array_equal(dec.ks, 2**52 + np.arange(3))
        np.testing.assert_array_equal(dec.table.sum(axis=0), np.ones(3))

    def test_zero_profile_has_no_windows(self):
        p = SpectralProfile(0.5, 0.25, np.zeros(5))
        dec = wiener_decompose(p)
        assert dec.ks.shape == (0,)
        assert dec.table.shape == (0, 5)

    def test_reconstruction_is_amplitude_exact(self, corpus):
        # the hat windows sum to exactly 1, so summing the rows in k order
        # returns each amplitude to within a couple of product roundings
        for entry in corpus:
            a = entry.profile.amplitudes
            rec = np.zeros_like(a)
            for row in wiener_decompose(entry.profile).table:
                rec += row
            diff = np.abs(rec - a)
            assert np.all(diff[a == 0.0] == 0.0)
            assert np.all(diff <= 2 * EPS * np.abs(a))


class TestSquareFunction:
    def test_single_integer_spike_equals_field_magnitude(self):
        # support on one exact integer frequency: only that window fires,
        # with weight 1, so the aggregate is just |u|
        h = 2.0**-6
        n = int(round(2.0 / h)) + 1
        amps = np.zeros(n)
        amps[n // 2] = 1.3  # xi = 3.0
        p = SpectralProfile(2.0, h, amps)
        grid = SpaceGrid.spanning(-5.0, 5.0, 101)
        sf = square_function(p, grid)
        direct = np.abs(synthesize(p, grid).values)
        assert np.max(np.abs(sf.values.real - direct)) <= 1e-15

    def test_overflow_refused_without_warning(self, monkeypatch):
        # one window fires with |u| about 5e297, whose square leaves the
        # double range while the square function does not
        h = 2.0**-6
        amps = np.zeros(129)
        amps[64] = 1e300  # xi = 3.0
        p = SpectralProfile(2.0, h, amps)
        grid = SpaceGrid.spanning(-5.0, 5.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sf = square_function(p, grid)
            direct = np.abs(synthesize(p, grid).values)
            assert np.max(np.abs(sf.values.real - direct)) <= 4 * EPS * np.max(direct)
            # four pieces of 1e308 at a point aggregate to 2e308: refused
            monkeypatch.setattr(windows, "_synthesize_rows",
                                lambda p, grid, rows: np.full((4, grid.n), 1e308 + 0j))
            with pytest.raises(ValueError, match="square function leaves the double range"):
                square_function(p, grid)

    def test_overflowing_synthesis_retaken_without_warning(self):
        # the chirp-z synthesis of this piece overflows, its square function
        # does not: the synthesis is retaken on the rescaled window table
        p = SpectralProfile(-1.5, 0.125, [0, 0, 0, 2.0**1023 * 1j, 0])
        grid = SpaceGrid.spanning(-4.0, 4.0, 33)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sup = float(np.max(square_function(p, grid).values.real))
        unit = square_function(p.with_amplitudes(p.amplitudes / 2.0**1023), grid)
        assert sup == 2.0**1023 * float(np.max(unit.values.real)) == 3.9618739886899645e+306

    def test_values_are_real(self, corpus_by_id):
        p = corpus_by_id["band_unit"].profile
        sf = square_function(p, SpaceGrid.spanning(-3.0, 3.0, 65))
        assert np.all(sf.values.imag == 0.0)
        assert np.all(sf.values.real >= 0.0)

    def test_controlled_by_l2_norm(self, corpus_by_id):
        p = corpus_by_id["band_unit"].profile
        sf = square_function(p, SpaceGrid.spanning(-30.0, 30.0, 2048))
        assert np.max(sf.values.real) <= hs_norm(p, 0.0) * (1.0 + 1e-6)

    def test_equals_root_sum_of_piece_syntheses(self, corpus_by_id):
        # the batched synthesis of all pieces agrees with one call per piece
        p = corpus_by_id["mix_band_gauss_even"].profile
        grid = SpaceGrid.spanning(-20.0, 20.0, 1500)
        table = wiener_decompose(p).table
        assert len(table) > _SYNTHESIS_BLOCK  # the rows span more than one transform block
        direct = np.sqrt(sum(np.abs(synthesize(p.with_amplitudes(row), grid).values) ** 2
                             for row in table))
        sf = square_function(p, grid).values.real
        assert np.max(np.abs(sf - direct)) <= 4 * EPS * np.max(direct)
