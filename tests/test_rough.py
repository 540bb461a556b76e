"""Rough-data family, maximal scans, scaling fits, convergence traces."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ostrovsky_lab import rough
from ostrovsky_lab.rough import (
    BAND_CELLS,
    MIN_BAND_CELLS,
    TIME_SPAN,
    WINDOW_POINTS,
    CounterexampleSpec,
    convergence_trace,
    counterexample_profile,
    counterexample_ratio,
    maximal_scan,
    maximal_time_grid,
    scaling_fit,
)
from ostrovsky_lab.spectral import (
    MAX_ARRAY_BYTES,
    SQRT_2PI,
    ResolutionError,
    SpaceField,
    SpaceGrid,
    SpectralProfile,
    evolution_multipliers,
    evolve_spectral,
    hs_norm,
    phase,
    quadrature_row,
    trapezoid_weights,
)


class TestCounterexampleSpec:
    def test_derived_quantities(self):
        spec = CounterexampleSpec(k=4, s=0.25)
        assert spec.band == (16.0, 32.0)
        assert spec.amplitude == 2.0 ** (-4 * 0.75)
        assert spec.t_max == 2.0**-12 / 100.0
        assert spec.x_window == 2.0**-4

    def test_validation(self):
        with pytest.raises(ValueError):
            CounterexampleSpec(k=0, s=0.0)
        with pytest.raises(ValueError):
            CounterexampleSpec(k=3, s=math.nan)


class TestCounterexampleProfile:
    def test_indicator_on_both_signs(self):
        spec = CounterexampleSpec(k=3, s=0.0)
        p = counterexample_profile(spec, 2.0**3 / 64)
        xi = p.xi
        assert xi[0] == -16.0 and xi[-1] == 16.0
        inside = (np.abs(xi) >= 8.0) & (np.abs(xi) <= 16.0)
        assert np.all(p.amplitudes[inside] == spec.amplitude)
        assert np.all(p.amplitudes[~inside] == 0.0)
        np.testing.assert_array_equal(p.amplitudes, p.amplitudes[::-1])

    def test_step_must_divide_band(self):
        with pytest.raises(ValueError, match="whole cells"):
            counterexample_profile(CounterexampleSpec(3, 0.0), 3e-2)

    def test_step_must_resolve_band(self):
        with pytest.raises(ValueError, match=str(MIN_BAND_CELLS)):
            counterexample_profile(CounterexampleSpec(3, 0.0), 2.0**3 / 32)

    def test_h_quarter_norm_frozen(self):
        # plain-sum value on 256 cells per band; the continuum integral
        # 2 * int_64^128 (1+xi^2)^(1/4) * 2^(-2*6*(3/4)) dxi evaluates to
        # 1.5614014... (quadrature oracle below) and the grid sum sits a
        # half cell above it, (257/256 - 1)/2 relative
        p = counterexample_profile(CounterexampleSpec(6, 0.25), 2.0**6 / 256)
        value = hs_norm(p, 0.25)
        assert abs(value - 1.5644183611246836) <= 1e-12
        amp = CounterexampleSpec(6, 0.25).amplitude
        oracle = math.sqrt(2.0 * amp**2 * quad(
            lambda xi: (1.0 + xi * xi) ** 0.25, 64.0, 128.0)[0])
        assert abs(oracle - 1.561401401449564) <= 1e-9
        assert abs(value - oracle) / oracle <= 2.5e-3

    def test_l2_norm_near_sqrt_band_mass(self):
        # s = 0: norm^2 = 2 * amp^2 * band width (up to the half-cell ends)
        p = counterexample_profile(CounterexampleSpec(6, 0.0), 2.0**6 / 256)
        value = hs_norm(p, 0.0)
        assert abs(value - 1.4169730060943293) <= 1e-12
        assert abs(value - math.sqrt(2.0)) / math.sqrt(2.0) <= 2.5e-3

    def test_h_quarter_norm_flat_in_k(self):
        norms = [hs_norm(counterexample_profile(CounterexampleSpec(k, 0.25),
                                                2.0**k / 256), 0.25)
                 for k in range(3, 9)]
        mean = sum(norms) / len(norms)
        assert max(abs(v - mean) / mean for v in norms) <= 0.01


class TestMaximalTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            maximal_time_grid(0.0, 4)
        with pytest.raises(ValueError):
            maximal_time_grid(1.0, 0)

    def test_single_point(self):
        np.testing.assert_array_equal(maximal_time_grid(0.5, 1), [0.5])

    def test_endpoints(self):
        ts = maximal_time_grid(1e-2, 9)
        assert ts[0] == 1e-2 * TIME_SPAN
        assert ts[-1] == 1e-2
        assert np.all(np.diff(ts) > 0.0)

    @pytest.mark.parametrize("n", [2, 5, 9, 33])
    def test_refinement_keeps_existing_nodes_bitwise(self, n):
        coarse = maximal_time_grid(1e-2, n)
        fine = maximal_time_grid(1e-2, 2 * n - 1)
        assert np.array_equal(fine[::2], coarse)


@pytest.fixture(scope="module")
def scan_setup():
    spec = CounterexampleSpec(3, 0.0)
    p = counterexample_profile(spec, 2.0**3 / 64)
    grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, 65)
    return spec, p, grid


def _literal_scan(p, sign, t_max, grid, n_t, refine):
    # one dense exp(i x xi) sum per time, then eight bracket times per point
    nz = p.amplitudes != 0.0
    phi = phase(p.xi[nz], sign)
    coeff = (trapezoid_weights(p.n) * p.amplitudes * (p.xi_step / SQRT_2PI))[nz]
    basis = np.exp(1j * np.outer(grid.points, p.xi[nz]))
    ts = maximal_time_grid(t_max, n_t)
    magnitudes = np.array([np.abs(basis @ (coeff * np.exp(1j * t * phi))) for t in ts])
    sup = magnitudes.max(axis=0)
    if refine and n_t > 1:
        peak = magnitudes.argmax(axis=0)
        for m in range(grid.n):
            t_lo, t_hi = ts[max(peak[m] - 1, 0)], ts[min(peak[m] + 1, n_t - 1)]
            for j in range(1, 9):
                tj = t_lo * (t_hi / t_lo) ** (j / 9.0)
                sup[m] = max(sup[m], abs(basis[m] @ (coeff * np.exp(1j * tj * phi))))
    return sup


@pytest.fixture(scope="module")
def family_k5():
    spec = CounterexampleSpec(5, 0.1)
    p = counterexample_profile(spec, 2.0**5 / 64)
    return spec, p, SpaceGrid.spanning(-spec.x_window, spec.x_window, 65)


class TestMaximalScan:
    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("setup", ["scan_setup", "family_k5"])
    def test_matches_literal_per_time_scan(self, request, setup, sign, refine):
        # 600 times cross two coarse-block boundaries; over 40 times the
        # family's window most points peak inside it, so refining raises
        # their sup (by ~3.5e-5 relative) and a wrong argmax would show
        spec, p, grid = request.getfixturevalue(setup)
        t_max = 40.0 * spec.t_max
        scan = maximal_scan(p, sign, t_max, grid, n_t=600, refine_around_peak=refine)
        literal = _literal_scan(p, sign, t_max, grid, 600, refine)
        assert np.max(np.abs(scan.values.real - literal)) <= 1e-13 * np.max(literal)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_matches_literal_per_time_scan_at_production_shape(self, sign):
        # counterexample_ratio's grids at k = 8 (257 x 1025, 257 support
        # columns per sign of xi), with 300 times crossing a block boundary
        spec = CounterexampleSpec(8, 0.1)
        p = counterexample_profile(spec, 2.0**spec.k / BAND_CELLS)
        grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, WINDOW_POINTS)
        scan = maximal_scan(p, sign, spec.t_max, grid, n_t=300)
        literal = _literal_scan(p, sign, spec.t_max, grid, 300, True)
        assert np.max(np.abs(scan.values.real - literal)) <= 1e-13 * np.max(literal)

    def test_refinement_builds_one_row_per_distinct_peak(self, monkeypatch):
        # at counterexample_ratio's shape every point's coarse argmax is one
        # of a few times, and each of the eight refinement tables has one
        # row per distinct peak, not one per point
        spec = CounterexampleSpec(8, 0.1)
        p = counterexample_profile(spec, 2.0**spec.k / BAND_CELLS)
        grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, WINDOW_POINTS)
        tables = []

        def recording(*args):
            tables.append(np.array(args[1]))
            return evolution_multipliers(*args)

        monkeypatch.setattr(rough, "evolution_multipliers", recording)
        for sign in ("+", "-"):
            tables.clear()
            maximal_scan(p, sign, spec.t_max, grid, n_t=1024)
            coarse, refine = tables[:4], tables[4:]
            assert [t.size for t in coarse] == [256] * 4 and len(refine) == 8
            peaks = refine[0].size
            assert 1 <= peaks < 16
            for tj in refine:
                assert tj.size == peaks and np.unique(tj).size == peaks

    @pytest.mark.parametrize("cells, widest", [(64, "block products"), (256, "point rows")])
    def test_budget_refused_before_allocating(self, monkeypatch, cells, widest):
        # the time vector, the point rows (n_x x 2m doubles for m support
        # columns) and the block products (n_x x _BLOCK doubles) are sized
        # from n_t, grid.n and the support before any of them is built
        spec = CounterexampleSpec(3, 0.0)
        p = counterexample_profile(spec, 2.0**spec.k / cells)
        columns = max(2 * (cells + 1), rough._BLOCK)
        assert (columns == rough._BLOCK) == (widest == "block products")

        def guarded(real):
            def build(shape, *args, **kwargs):
                # the profile's own xi grid is all a refusal may build
                if math.prod(shape if isinstance(shape, tuple) else (shape,)) > p.n:
                    raise AssertionError(f"allocated {shape} before the budget check")
                return real(shape, *args, **kwargs)
            return build

        for name in ("arange", "empty", "zeros", "full"):
            monkeypatch.setattr(np, name, guarded(getattr(np, name)))
        with pytest.raises(ValueError, match=f"above the budget of {MAX_ARRAY_BYTES} bytes"):
            maximal_scan(p, "+", spec.t_max, SpaceGrid(-1.0, 1e-3, 8),
                         n_t=MAX_ARRAY_BYTES // 8 + 1)
        at_budget = MAX_ARRAY_BYTES // (8 * columns)
        for n_x in (at_budget + 1, 10**12):
            with pytest.raises(ValueError, match=f"{cells + 1} support columns needs"):
                maximal_scan(p, "+", spec.t_max, SpaceGrid(-1.0, 1e-12, n_x), n_t=8)
        with pytest.raises(AssertionError, match="allocated"):  # at the budget: allowed
            maximal_scan(p, "+", spec.t_max, SpaceGrid(-1.0, 1e-12, at_budget), n_t=8)

    @pytest.mark.parametrize("change", ["shifted grid", "complex", "not even"])
    def test_refuses_profiles_outside_the_fold(self, scan_setup, change):
        # the folded sum over xi > 0 holds only for a real, even profile on
        # a grid exactly symmetric about 0
        spec, p, grid = scan_setup
        amps = p.amplitudes.real.copy()
        if change == "shifted grid":
            p = SpectralProfile(p.xi_min + p.xi_step / 2, p.xi_step, amps)
        elif change == "complex":
            p = p.with_amplitudes(amps * (1.0 + 1e-3j))
        else:
            amps[-1] *= 2.0
            p = p.with_amplitudes(amps)
        with pytest.raises(ValueError, match="real, even amplitudes on a grid exactly symmetric"):
            maximal_scan(p, "+", spec.t_max, grid, n_t=8)

    def test_resolution_gate(self, scan_setup):
        spec, p, grid = scan_setup
        with pytest.raises(ResolutionError):
            maximal_scan(p, "+", 1.0, grid, n_t=8)

    def test_sup_monotone_under_time_refinement(self, scan_setup):
        spec, p, grid = scan_setup
        coarse = maximal_scan(p, "+", spec.t_max, grid, n_t=32, refine_around_peak=False)
        fine = maximal_scan(p, "+", spec.t_max, grid, n_t=63, refine_around_peak=False)
        assert np.all(fine.values.real >= coarse.values.real)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("n_t", [5, 100, 200, 300])
    @pytest.mark.parametrize("setup", ["scan_setup", "family_k5"])
    def test_sup_monotone_under_refinement_across_blocks(self, request, setup, sign, n_t):
        # a time's value does not depend on how many times share its block,
        # so the refined grid's sup at each shared node is the same double
        spec, p, grid = request.getfixturevalue(setup)
        coarse = maximal_scan(p, sign, 10 * spec.t_max, grid, n_t=n_t, refine_around_peak=False)
        fine = maximal_scan(p, sign, 10 * spec.t_max, grid, n_t=2 * n_t - 1,
                            refine_around_peak=False)
        assert np.all(fine.values.real >= coarse.values.real)

    def test_peak_refinement_only_raises(self, scan_setup):
        spec, p, grid = scan_setup
        plain = maximal_scan(p, "+", spec.t_max, grid, n_t=32, refine_around_peak=False)
        refined = maximal_scan(p, "+", spec.t_max, grid, n_t=32, refine_around_peak=True)
        assert np.all(refined.values.real >= plain.values.real)

    def test_field_view(self, scan_setup):
        # the scan is the field of the sups on the scanned grid
        spec, p, grid = scan_setup
        scan = maximal_scan(p, "+", spec.t_max, grid, n_t=8)
        assert isinstance(scan, SpaceField)
        np.testing.assert_array_equal(scan.x, grid.points)
        assert np.all(scan.values.imag == 0.0) and np.all(scan.values.real > 0.0)


class TestCounterexampleRatio:
    def test_growth_at_s_zero(self):
        ratios = [counterexample_ratio(CounterexampleSpec(k, 0.0), n_t=64)
                  for k in (3, 4, 5)]
        assert all(r > 0 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2]


class TestScalingFit:
    def test_exact_power_law(self):
        points = [(k, 2.0 ** (0.25 * k + 1.5)) for k in range(3, 9)]
        fit = scaling_fit(points)
        assert abs(fit.slope - 0.25) <= 1e-12
        assert abs(fit.intercept - 1.5) <= 1e-12
        assert fit.residual <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="three"):
            scaling_fit([(3, 1.0), (4, 2.0)])
        with pytest.raises(ValueError, match="positive"):
            scaling_fit([(3, 1.0), (4, -2.0), (5, 1.0)])
        with pytest.raises(ValueError, match="degenerate"):
            scaling_fit([(3, 1.0), (3, 2.0), (3, 4.0)])


class TestConvergenceTrace:
    def test_t_zero_entry_is_exactly_zero(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        devs = convergence_trace(p, 0.4, [1e-2, 1e-3, 0.0])
        assert devs[-1] == 0.0

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_matches_literal_difference_of_point_values(self, corpus, sign):
        x = 0.3
        for entry in corpus:
            p = entry.profile
            t_max = entry.max_resolved_t
            ts = [t_max, t_max / 10.0, t_max / 1000.0, 0.0]
            probe = quadrature_row(p, x)
            u0 = probe @ p.amplitudes
            literal = [abs(probe @ evolve_spectral(p, t, sign).amplitudes - u0)
                       for t in ts]
            scale = np.sum(np.abs(probe * p.amplitudes))
            devs = convergence_trace(p, x, ts, sign)
            assert np.max(np.abs(devs - literal)) <= 1e-12 * scale
            assert devs[-1] == 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_point_rejected(self, corpus_by_id, x):
        with pytest.raises(ValueError, match="non-finite"):
            convergence_trace(corpus_by_id["gauss_low"].profile, x, [1e-3, 0.0])

    def test_decreasing_times_enforced(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        with pytest.raises(ValueError, match="strictly decreasing"):
            convergence_trace(p, 0.0, [1e-3, 1e-2])
        with pytest.raises(ValueError, match="strictly decreasing"):
            convergence_trace(p, 0.0, [1e-3, 1e-3])
        with pytest.raises(ValueError, match="non-empty"):
            convergence_trace(p, 0.0, [])

    def test_resolution_gate(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        with pytest.raises(ResolutionError):
            convergence_trace(p, 0.0, [1e3, 1.0])

    def test_smooth_profile_converges(self, corpus_by_id):
        p = corpus_by_id["gauss_mid"].profile
        devs = convergence_trace(p, 0.3, [1e-3, 1e-4, 1e-5, 1e-6])
        assert np.all(np.diff(devs) < 0.0)
        assert devs[-1] <= 1e-4

    def test_high_frequency_deviation_is_linear_in_t(self):
        # single mode at xi0: |U(t)f - f|(x) = 2|sin(t*phi/2)| * h/sqrt(2pi),
        # so deviation/t tends to h*|phi|/sqrt(2pi)
        h = 0.5
        p = SpectralProfile(19.5, h, np.array([0.0, 1.0, 0.0]))
        ts = np.array([1e-4, 1e-5, 1e-6])
        devs = convergence_trace(p, 0.0, ts)
        limit = h / SQRT_2PI * abs(phase(20.0))
        assert abs(devs[-1] / ts[-1] - limit) / limit <= 1e-4
