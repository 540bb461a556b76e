"""Rough-data family, maximal scans, scaling fits, convergence traces."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from ostrovsky_lab import rough
from ostrovsky_lab.corpus import band_profile
from ostrovsky_lab.rough import (
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
    SpaceGrid,
    SpectralProfile,
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


def family_shaped(spec, cells):
    """The family's band indicator with `cells` cells per band (BAND_CELLS in the family)."""
    lo, hi = spec.band
    return band_profile(lo, hi, spec.amplitude, -hi, hi, lo / cells, even=True)


class TestCounterexampleProfile:
    def test_indicator_on_both_signs(self):
        spec = CounterexampleSpec(k=3, s=0.0)
        p = counterexample_profile(spec)
        xi = p.xi
        assert xi[0] == -16.0 and xi[-1] == 16.0
        inside = (np.abs(xi) >= 8.0) & (np.abs(xi) <= 16.0)
        assert np.all(p.amplitudes[inside] == spec.amplitude)
        assert np.all(p.amplitudes[~inside] == 0.0)
        np.testing.assert_array_equal(p.amplitudes, p.amplitudes[::-1])

    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.25])
    def test_matches_the_explicit_grid_bitwise(self, s):
        # the grid [-2^(k+1), 2^(k+1)] in steps of 2^k / 256 (1025 points),
        # the amplitude on 2^k <= |xi| <= 2^(k+1) and 0 elsewhere
        for k in range(1, 13):
            spec = CounterexampleSpec(k, s)
            lo, hi, step = 2.0**k, 2.0 ** (k + 1), 2.0**k / 256
            xi = -hi + step * np.arange(1025)
            amps = np.where((np.abs(xi) >= lo) & (np.abs(xi) <= hi), spec.amplitude, 0.0)
            p = counterexample_profile(spec)
            assert (p.xi_min, p.xi_step, p.truncated_mass) == (-hi, step, 0.0)
            assert p.xi.tobytes() == xi.tobytes()
            assert p.amplitudes.tobytes() == amps.astype(np.complex128).tobytes()

    def test_h_quarter_norm_frozen(self):
        # plain-sum value on 256 cells per band; the continuum integral
        # 2 * int_64^128 (1+xi^2)^(1/4) * 2^(-2*6*(3/4)) dxi evaluates to
        # 1.5614014... (quadrature oracle below) and the grid sum sits a
        # half cell above it, (257/256 - 1)/2 relative
        p = counterexample_profile(CounterexampleSpec(6, 0.25))
        value = hs_norm(p, 0.25)
        assert abs(value - 1.5644183611246836) <= 1e-12
        amp = CounterexampleSpec(6, 0.25).amplitude
        oracle = math.sqrt(2.0 * amp**2 * quad(
            lambda xi: (1.0 + xi * xi) ** 0.25, 64.0, 128.0)[0])
        assert abs(oracle - 1.561401401449564) <= 1e-9
        assert abs(value - oracle) / oracle <= 2.5e-3

    def test_l2_norm_near_sqrt_band_mass(self):
        # s = 0: norm^2 = 2 * amp^2 * band width (up to the half-cell ends)
        p = counterexample_profile(CounterexampleSpec(6, 0.0))
        value = hs_norm(p, 0.0)
        assert abs(value - 1.4169730060943293) <= 1e-12
        assert abs(value - math.sqrt(2.0)) / math.sqrt(2.0) <= 2.5e-3

    def test_h_quarter_norm_flat_in_k(self):
        norms = [hs_norm(counterexample_profile(CounterexampleSpec(k, 0.25)), 0.25)
                 for k in range(3, 9)]
        mean = sum(norms) / len(norms)
        assert max(abs(v - mean) / mean for v in norms) <= 0.01


class TestMaximalTimeGrid:
    def test_validation(self):
        for t_max in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_max must be positive and finite"):
                maximal_time_grid(t_max, 4)
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
    p = family_shaped(spec, 64)
    grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, 65)
    return spec, p, grid


def _literal_scan(p, sign, t_max, grid, n_t):
    # one dense exp(i x xi) sum per time
    nz = p.amplitudes != 0.0
    phi = phase(p.xi[nz], sign)
    coeff = (trapezoid_weights(p.n) * p.amplitudes * (p.xi_step / SQRT_2PI))[nz]
    basis = np.exp(1j * np.outer(grid.points, p.xi[nz]))
    ts = maximal_time_grid(t_max, n_t)
    return np.max([np.abs(basis @ (coeff * np.exp(1j * t * phi))) for t in ts], axis=0)


def _exp_scan(p, sign, t_max, grid, n_t):
    """maximal_scan written with np.exp(1j * ...) and one zero-padded block buffer."""
    xi, amps = p.xi, p.amplitudes
    support = np.flatnonzero((xi > 0.0) & (amps != 0.0))
    weights = trapezoid_weights(p.n) * (p.xi_step / SQRT_2PI)
    rows = np.exp(1j * np.multiply.outer(grid.points, xi[support])) * weights[support]
    rows = np.conj(rows * amps[support]).view(np.float64)
    phi = phase(xi[support], sign)
    ts = maximal_time_grid(t_max, n_t)
    factors = np.zeros((rough._BLOCK, support.size), dtype=np.complex128)
    sup = np.full(grid.n, -np.inf)
    for lo in range(0, n_t, rough._BLOCK):
        count = min(rough._BLOCK, n_t - lo)
        factors[:count] = np.exp(1j * np.outer(ts[lo:lo + count], phi))
        magnitudes = np.abs((rows @ factors.view(np.float64).T)[:, :count])
        sup = np.maximum(sup, magnitudes.max(axis=1))
    return 2.0 * sup


@pytest.fixture(scope="module")
def family_k5():
    spec = CounterexampleSpec(5, 0.1)
    p = family_shaped(spec, 64)
    return spec, p, SpaceGrid.spanning(-spec.x_window, spec.x_window, 65)


class TestMaximalScan:
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("setup", ["scan_setup", "family_k5"])
    def test_matches_literal_per_time_scan(self, request, setup, sign):
        # 600 times cross several block boundaries; over 40 times the
        # family's window most points peak inside it
        spec, p, grid = request.getfixturevalue(setup)
        t_max = 40.0 * spec.t_max
        scan = maximal_scan(p, sign, t_max, grid, n_t=600)
        literal = _literal_scan(p, sign, t_max, grid, 600)
        assert np.max(np.abs(scan - literal)) <= 1e-13 * np.max(literal)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_matches_literal_per_time_scan_at_production_shape(self, sign):
        # counterexample_ratio's grids at k = 8 (257 x 1025, 257 support
        # columns per sign of xi), with 300 times crossing block boundaries
        spec = CounterexampleSpec(8, 0.1)
        p = counterexample_profile(spec)
        grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, WINDOW_POINTS)
        scan = maximal_scan(p, sign, spec.t_max, grid, n_t=300)
        literal = _literal_scan(p, sign, spec.t_max, grid, 300)
        assert np.max(np.abs(scan - literal)) <= 1e-13 * np.max(literal)

    @pytest.mark.parametrize("cells, widest", [(16, "block products"), (256, "point rows")])
    def test_budget_refused_before_allocating(self, monkeypatch, cells, widest):
        # the time vector, the point rows (n_x x 2m doubles for m support
        # columns) and the block products (n_x x _BLOCK doubles) are sized
        # from n_t, grid.n and the support before any of them is built
        spec = CounterexampleSpec(3, 0.0)
        p = family_shaped(spec, cells)
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

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("k", [3, 6])
    def test_hermitian_data_matches_literal_scan(self, k, sign):
        # random a(xi) on the family's xi > 0 support, mirrored as
        # a(-xi) = conj(a(xi)): amplitudes neither real nor even whose field
        # is real, scanned 200 times over 40 times the family window
        spec = CounterexampleSpec(k, 0.0)
        family = counterexample_profile(spec)
        half = (family.xi > 0.0) & (family.amplitudes != 0.0)
        rng = np.random.default_rng(k)
        amps = np.zeros(family.n, dtype=np.complex128)
        amps[half] = rng.standard_normal(half.sum()) + 1j * rng.standard_normal(half.sum())
        p = family.with_amplitudes(amps + np.conj(amps[::-1]))
        assert np.array_equal(p.amplitudes, np.conj(p.amplitudes[::-1]))
        assert np.any(p.amplitudes.imag != 0.0)
        grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, 65)
        t_max = 40.0 * spec.t_max
        scan = maximal_scan(p, sign, t_max, grid, n_t=200)
        literal = _literal_scan(p, sign, t_max, grid, 200)
        assert np.max(np.abs(scan - literal)) <= 1e-13 * np.max(literal)

    @pytest.mark.parametrize("change", ["shifted grid", "complex", "not even"])
    def test_refuses_profiles_outside_the_fold(self, scan_setup, change):
        # the folded sum over xi > 0 holds only for Hermitian amplitudes on
        # a grid exactly symmetric about 0; even amplitudes times 1 + 1e-3j
        # are not Hermitian
        spec, p, grid = scan_setup
        amps = p.amplitudes.real.copy()
        if change == "shifted grid":
            p = SpectralProfile(p.xi_min + p.xi_step / 2, p.xi_step, amps)
        elif change == "complex":
            p = p.with_amplitudes(amps * (1.0 + 1e-3j))
        else:
            amps[-1] *= 2.0
            p = p.with_amplitudes(amps)
        with pytest.raises(ValueError, match="Hermitian amplitudes on a grid exactly symmetric"):
            maximal_scan(p, "+", spec.t_max, grid, n_t=8)

    @pytest.mark.filterwarnings("error")
    def test_sup_beyond_the_double_range_refused_by_name(self, monkeypatch):
        # two Hermitian bands of 50 amplitudes A on a 1/16 grid: at A = 1.7e308
        # the block products overflow, at A = 1e307 the sup (about 2.4e307) does not
        grid = SpaceGrid.spanning(-0.1, 0.1, 9)
        amps = np.zeros(257)
        amps[57:107] = amps[150:200] = 1.7e308
        with pytest.raises(ValueError, match="^the maximal scan leaves the double range$"):
            maximal_scan(SpectralProfile(-8.0, 1 / 16, amps), "+", 1e-4, grid, n_t=4)
        amps[57:107] = amps[150:200] = 1e307
        scan = maximal_scan(SpectralProfile(-8.0, 1 / 16, amps), "+", 1e-4, grid, n_t=4)
        assert np.all(np.isfinite(scan)) and 2e307 < np.max(scan) < 3e307
        # 128 columns of 1.7e308, then 128 of -1.7e308: the sup is about 2.1e306, but
        # a product that sums them in two parts overflows each way and meets
        # inf - inf, which is nan.  OpenBLAS splits the sum so for 256-time
        # blocks, and sums 64-time blocks in range: bit for bit 2^1000 times
        # the scan of the amplitudes over 2^1000
        half = np.zeros(513)
        half[257:] = np.where(np.arange(256) < 128, 1.7e308, -1.7e308)
        p = SpectralProfile(-8.0, 1 / 32, half + half[::-1])
        grid = SpaceGrid.spanning(-1e-3, 1e-3, 5)
        with monkeypatch.context() as patched:
            patched.setattr(rough, "_BLOCK", 256)
            with pytest.raises(ValueError, match="^the maximal scan leaves the double range$"):
                maximal_scan(p, "+", 1e-9, grid, n_t=4)
        scaled = maximal_scan(p.with_amplitudes(p.amplitudes * 2.0**-1000), "+", 1e-9,
                              grid, n_t=4)
        scan = maximal_scan(p, "+", 1e-9, grid, n_t=4)
        assert scan.tobytes() == (scaled * 2.0**1000).tobytes()

    def test_resolution_gate(self, scan_setup):
        spec, p, grid = scan_setup
        with pytest.raises(ValueError, match="phase advance"):
            maximal_scan(p, "+", 1.0, grid, n_t=8)

    def test_sup_monotone_under_time_refinement(self, scan_setup):
        spec, p, grid = scan_setup
        coarse = maximal_scan(p, "+", spec.t_max, grid, n_t=32)
        fine = maximal_scan(p, "+", spec.t_max, grid, n_t=63)
        assert np.all(fine >= coarse)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("n_t", [5, 100, 200, 300])
    @pytest.mark.parametrize("setup", ["scan_setup", "family_k5"])
    def test_sup_monotone_under_refinement_across_blocks(self, request, setup, sign, n_t):
        # a time's value does not depend on how many times share its block,
        # so the refined grid's sup at each shared node is the same double
        spec, p, grid = request.getfixturevalue(setup)
        coarse = maximal_scan(p, sign, 10 * spec.t_max, grid, n_t=n_t)
        fine = maximal_scan(p, sign, 10 * spec.t_max, grid, n_t=2 * n_t - 1)
        assert np.all(fine >= coarse)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("s", [0.0, 0.1, 0.2371, 0.25])
    def test_equals_complex_exponential_scan_bitwise(self, s, sign):
        # the scan's cos/sin tables, real point rows and direct block
        # operands keep every counterexample byte: the scan written with
        # complex exponentials and one padded block buffer is its reference.
        # 1000 times give full blocks and a padded one
        for k in range(3, 9):
            spec = CounterexampleSpec(k, s)
            p = counterexample_profile(spec)
            grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, WINDOW_POINTS)
            scan = maximal_scan(p, sign, spec.t_max, grid, n_t=1000)
            reference = _exp_scan(p, sign, spec.t_max, grid, 1000)
            assert scan.tobytes() == reference.tobytes(), k

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("k", [3, 8])
    def test_block_size_keeps_every_bit(self, monkeypatch, k, sign):
        # the same scan in 256-time and 64-time blocks, at counterexample_ratio's grids
        spec = CounterexampleSpec(k, 0.1)
        p = counterexample_profile(spec)
        grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, WINDOW_POINTS)
        scans = []
        for block in (256, 64):
            monkeypatch.setattr(rough, "_BLOCK", block)
            scans.append(maximal_scan(p, sign, spec.t_max, grid, n_t=1024).tobytes())
        assert scans[0] == scans[1]

    def test_field_view(self, scan_setup):
        # the scan is the array of the sups on the scanned grid, one per point
        spec, p, grid = scan_setup
        scan = maximal_scan(p, "+", spec.t_max, grid, n_t=8)
        assert type(scan) is np.ndarray and scan.dtype == np.float64
        assert scan.shape == (grid.n,) and np.all(scan > 0.0)


class TestPointRowTable:
    def test_scan_keeps_no_rows_alive(self):
        # each scan builds its point rows from quadrature_row and drops them
        # on return: a scan on a grid pair no other test uses leaves the
        # traced memory where it found it, and the time blocks keep its peak
        # from growing with n_t (the rows are 826 kB here, a block's factors
        # 263 kB and its product 103 kB)
        spec = CounterexampleSpec(4, 0.1)
        p = counterexample_profile(spec)
        maximal_scan(p, "+", spec.t_max, SpaceGrid.spanning(-0.1, 0.1, 33), n_t=300)
        grid = SpaceGrid(-0.3, 0.003, 201)
        peaks = []
        tracemalloc.start()
        try:
            for n_t in (1024, 8192):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                maximal_scan(p, "+", spec.t_max, grid, n_t)
                current, peak = tracemalloc.get_traced_memory()
                assert current - start < 64 * 1024, n_t
                peaks.append(peak - start)
        finally:
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.1e6

    def test_production_scan_peak(self):
        # one k = 8 scan at counterexample_ratio's grids and n_t = 1024 holds
        # its point rows (1.06 MB) and one 64-time block, 1.7 MB in all
        spec = CounterexampleSpec(8, 0.1)
        p = counterexample_profile(spec)
        grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, WINDOW_POINTS)
        maximal_scan(p, "+", spec.t_max, grid, n_t=8)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            maximal_scan(p, "+", spec.t_max, grid, n_t=1024)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_builds_the_table_once(self, tmp_path, monkeypatch, threads):
        # the benchmark tracer sees maximal_scan but not the row builds: each
        # scan of a k = 3..8 counterexample run builds its point-row table
        # once, by one quadrature_row, also with scans running side by side,
        # and forms one multiplier block per _BLOCK times of each scan, none
        # copied into a padded buffer
        from ostrovsky_lab import cli

        counts = {"rows": 0, "blocks": 0, "pads": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rough, "quadrature_row", counted("rows", rough.quadrature_row))
        monkeypatch.setattr(rough, "evolution_multipliers",
                            counted("blocks", rough.evolution_multipliers))
        monkeypatch.setattr(np, "pad", counted("pads", np.pad))
        argv = ["counterexample", "--s", "0.1", "--k-min", "3", "--k-max", "8", "--nt", "1024",
                "--threads", str(threads), "--out", str(tmp_path / "ce.csv")]
        assert cli.main(argv) == 0
        assert counts == {"rows": 6, "blocks": 6 * 1024 // rough._BLOCK, "pads": 0}


class TestWindowBound:
    @pytest.mark.parametrize("window", [1.0, 100.0])
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("k", [3, 8])
    def test_refined_sup_inside_the_bound(self, k, sign, window):
        # counterexample_ratio's grids, at its window and at 100 times it
        # (tau = 2^(3k) t up to 1); the 16x refined time grid keeps every
        # node, and its sup must stay below the certified bound at each point
        spec = CounterexampleSpec(k, 0.1)
        p = counterexample_profile(spec)
        grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, WINDOW_POINTS)
        t_max = window * spec.t_max
        coarse = maximal_scan(p, sign, t_max, grid, n_t=1024)
        fine = maximal_scan(p, sign, t_max, grid, n_t=16 * 1023 + 1)
        upper = rough._window_bound(p, sign, coarse, t_max, 1024)
        assert np.any(fine > coarse)  # some points peak between the nodes
        assert np.all(fine >= coarse) and np.all(fine <= upper)
        # and the bound stays narrow: 3.85e-6 and 8.87e-4 relative measured
        assert np.max((upper - coarse) / coarse) < (4e-6 if window == 1.0 else 9e-4)

    @pytest.mark.parametrize("window", [1.0, 100.0])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_single_time_bound_covers_the_window(self, sign, window):
        # at n_t = 1 the only node is t_max, and the bound must still cover
        # the whole window down to t_max * TIME_SPAN
        spec = CounterexampleSpec(3, 0.1)
        p = counterexample_profile(spec)
        grid = SpaceGrid.spanning(-spec.x_window, spec.x_window, WINDOW_POINTS)
        t_max = window * spec.t_max
        single = maximal_scan(p, sign, t_max, grid, n_t=1)
        fine = maximal_scan(p, sign, t_max, grid, n_t=4097)
        upper = rough._window_bound(p, sign, single, t_max, 1)
        assert np.any(fine > single) and np.all(fine <= upper)


class TestCounterexampleRatio:
    def test_growth_at_s_zero(self):
        ratios, uppers = zip(*(counterexample_ratio(CounterexampleSpec(k, 0.0), n_t=64)
                               for k in (3, 4, 5)))
        assert all(r > 0 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2]
        assert all(r < u < 1.01 * r for r, u in zip(ratios, uppers))

    @pytest.mark.parametrize("norm,ratio", [(1e-320, "inf"), (math.inf, "0.0")])
    def test_ratio_beyond_the_double_range_refused(self, monkeypatch, norm, ratio):
        # hs_norm refuses a norm that leaves the range itself; a ratio that
        # still did would be refused here rather than reported
        monkeypatch.setattr(rough, "hs_norm", lambda p, s: norm)
        with pytest.raises(ValueError, match=f"^R_k = {ratio} at k = 3, s = 0.0: the norms "
                                             "leave the double range$"):
            counterexample_ratio(CounterexampleSpec(3, 0.0), n_t=4)

    def test_bound_stays_in_range_at_large_k(self):
        # the unscaled phase moment L2 overflows from k = 147 at s = 0; the
        # bound takes the moments per time step, so it stays finite at k = 340,
        # the last k whose phase xi**3 is a finite double
        for n_t in (1, 4):
            r, upper = counterexample_ratio(CounterexampleSpec(340, 0.0), n_t=n_t)
            assert r < upper < 1.1 * r


class TestScalingFit:
    def test_exact_power_law(self):
        ks = range(3, 9)
        ratios = [2.0 ** (0.25 * k + 1.5) for k in ks]
        fit = scaling_fit(ks, ratios, ratios)
        assert abs(fit.slope - 0.25) <= 1e-12
        assert abs(fit.intercept - 1.5) <= 1e-12
        assert fit.residual <= 1e-12

    def test_slope_range_brackets_the_fit(self):
        # equal ends give the least-squares slope; widening any end widens the range
        ks = list(range(3, 9))
        ratios = [2.0 ** (0.25 * k + 1.5 + 0.01 * (-1) ** k) for k in ks]
        fit = scaling_fit(ks, ratios, ratios)
        assert fit.slope_range == (fit.slope, fit.slope)
        uppers = [r * 2.0**0.1 for r in ratios]
        wide = scaling_fit(ks, ratios, uppers)
        assert (wide.slope, wide.intercept, wide.residual) == (fit.slope, fit.intercept,
                                                               fit.residual)
        lo, hi = wide.slope_range
        # each extreme raises log2 R_k by 0.1 on one side of the mean k, which
        # moves the slope by 0.1 * sum |c_k| / 2, c_k the slope's weights
        weights = sum(abs(k - 5.5) for k in ks) / sum((k - 5.5) ** 2 for k in ks)
        assert abs((fit.slope - lo) - 0.05 * weights) <= 1e-12
        assert abs((hi - fit.slope) - 0.05 * weights) <= 1e-12

    @given(st.lists(st.tuples(st.integers(-1000, 1000),
                              st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)),
                    min_size=3, max_size=12, unique_by=lambda point: point[0]))
    def test_slope_lies_in_its_range(self, points):
        # at the range's least end each term c_k log2 R_k is at most its term at
        # the lower ends, at the largest end at least, and both sums add in one order
        ks = [k for k, _, _ in points]
        lower = [min(a, b) for _, a, b in points]
        upper = [max(a, b) for _, a, b in points]
        fit = scaling_fit(ks, lower, upper)
        assert fit.slope_range[0] <= fit.slope <= fit.slope_range[1]
        plain = scaling_fit(ks, lower, lower)
        assert plain.slope == fit.slope and plain.slope_range == (fit.slope, fit.slope)

    def test_slope_matches_polyfit(self):
        rng = np.random.default_rng(29)
        for ks in (np.arange(3, 9), np.arange(1, 41), np.array([-7, 2, 3, 11, 12])):
            lower = 2.0 ** (0.25 * ks + rng.normal(scale=5.0, size=ks.size))
            slope, intercept = np.polyfit(ks, np.log2(lower), 1)
            fit = scaling_fit(ks, lower, lower)
            assert abs(fit.slope - slope) <= 1e-12
            assert abs(fit.intercept - intercept) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="three"):
            scaling_fit([3, 4], [1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            scaling_fit([3, 4, 5], [1.0, -2.0, 1.0], [1.0, -2.0, 1.0])
        with pytest.raises(ValueError, match="degenerate"):
            scaling_fit([3, 3, 3], [1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="finite"):
            scaling_fit([3, 4, 5], [1.0, math.inf, 1.0], [1.0, math.inf, 1.0])
        # both ends are refused as the ratios are, and ordered
        ks = [3, 4, 5]
        for lower, upper, match in [
            ([1.0, 2.0, 3.0], [1.0, 2.0], "matching lengths"),
            ([1.0, 2.0], [1.0, 2.0, 3.0], "matching lengths"),
            ([0.0, 2.0, 3.0], [1.0, 2.0, 3.0], "positive"),
            ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0], "positive"),
            ([1.0, 2.0, 3.0], [1.0, 2.0, math.inf], "finite"),
            ([1.0, 2.0, 3.0], [1.0, 1.5, 3.0], "lower ends must not exceed"),
        ]:
            with pytest.raises(ValueError, match=match):
                scaling_fit(ks, lower, upper)
        with pytest.raises(ValueError, match="three"):
            scaling_fit([3], [1.0], [2.0])
        with pytest.raises(ValueError, match="degenerate"):
            scaling_fit([3, 3, 3], [1, 2, 3], [1, 2, 3])

    def test_k_outside_the_double_range_refused_without_warning(self):
        # the weights divide by the centred sum of squares of k: non-finite k,
        # and k whose sum overflows or underflows, are refused before it
        match = "^k values must be finite, with a centred sum of squares inside the normal"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ks in ([math.nan, 2, 3], [3, 4, math.inf], [-math.inf, 4, math.inf],
                       [1e200, 2e200, 3e200], [1e-200, 2e-200, 3e-200],
                       [1e308, 1.5e308, 1.7e308]):
                with pytest.raises(ValueError, match=match):
                    scaling_fit(ks, [1, 1, 1], [1, 1, 2])
                with pytest.raises(ValueError, match=match):
                    scaling_fit(ks, [1, 1, 2], [1, 1, 2])
        # integer k reach the fit as the same doubles
        ratios = [1.0, 2.0, 4.1]
        assert scaling_fit([3, 4, 5], ratios, ratios) == scaling_fit([3.0, 4.0, 5.0], ratios,
                                                                     ratios)


class TestConvergenceTrace:
    def test_t_zero_entry_is_exactly_zero(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        devs = convergence_trace(p, 0.4, [1e-2, 1e-3, 0.0])
        assert devs[-1] == 0.0

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_matches_literal_difference_of_point_values(self, corpus, design_t, sign):
        x = 0.3
        for entry in corpus:
            p = entry.profile
            t_max = design_t[entry.profile_id]
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
        with pytest.raises(ValueError, match="phase advance"):
            convergence_trace(p, 0.0, [1e3, 1.0])

    def test_subnormal_profile_is_traced_as_if_normal(self, corpus_by_id):
        # at 1e-320 the plain product read 3% low at t = 1 and 0.0 at t = 1e-3;
        # times 2**1074 the same amplitudes are normal and exact, and their
        # trace scaled back rounds once.  Only the t = 0 entry is 0
        unit = corpus_by_id["gauss_low"].profile
        a = unit.amplitudes * 1e-320
        p = unit.with_amplitudes(a)
        ts = [1.0, 0.5, 1e-3, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            devs = convergence_trace(p, 0.0, ts)
        normal = convergence_trace(p.with_amplitudes(a * 2.0**537 * 2.0**537), 0.0, ts)
        assert devs.tolist() == np.ldexp(normal, -1074).tolist()
        assert np.all(devs[:-1] > 0.0) and devs[-1] == 0.0

    @given(e=st.integers(-1000, 1000))
    def test_scale_covariant(self, corpus_by_id, e):
        p = corpus_by_id["gauss_low"].profile
        ts = [1.0, 0.5, 1e-3, 0.0]
        unit = convergence_trace(p, 0.0, ts)
        scaled = convergence_trace(p.with_amplitudes(p.amplitudes * 2.0**e), 0.0, ts)
        assert scaled == pytest.approx(np.ldexp(unit, e), rel=1e-12, abs=0.0)

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
