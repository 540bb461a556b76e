"""Containers, propagator phase, synthesis and norms."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import czt

from ostrovsky_lab.corpus import observation_grid
from ostrovsky_lab.lemmas import HIGH_TIMES, T_LOW
from ostrovsky_lab.spectral import (
    DEFAULT_ZERO_EXCLUSION,
    MAX_PHASE_INCREMENT,
    SQRT_2PI,
    ResolutionError,
    SpaceField,
    SpaceGrid,
    SpectralProfile,
    evolution_multipliers,
    evolve_spectral,
    hs_norm,
    lp_norm_space,
    phase,
    phase_derivative,
    _synthesize_rows,
    propagate,
    quadrature_row,
    require_resolution,
    synthesize,
    trapezoid_weights,
    validate_resolution,
)

EPS = np.finfo(float).eps

nonzero_xi = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
).flatmap(lambda v: st.sampled_from([v, -v]))


def small_profile(amps, xi_min=0.5, xi_step=0.25, **kwargs):
    return SpectralProfile(xi_min, xi_step, np.asarray(amps, dtype=np.complex128), **kwargs)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


class TestSpectralProfile:
    def test_grid_points(self):
        p = small_profile([1.0, 2.0, 3.0])
        assert p.n == 3
        np.testing.assert_array_equal(p.xi, [0.5, 0.75, 1.0])

    def test_zero_exclusion_zeroes_and_records_mass(self):
        h = 0.25
        p = SpectralProfile(-2 * h, h, np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                            zero_exclusion=0.3)
        # |xi| = 0.5, 0.25, 0, 0.25, 0.5; the middle three fall inside 0.3
        np.testing.assert_array_equal(p.amplitudes, [1.0, 0.0, 0.0, 0.0, 5.0])
        assert p.truncated_mass == (2.0 + 3.0 + 4.0) * h

    def test_default_exclusion_only_touches_the_origin(self):
        h = 0.25
        p = SpectralProfile(-h, h, np.array([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(p.amplitudes, [1.0, 0.0, 1.0])
        assert p.truncated_mass == h
        assert p.zero_exclusion == DEFAULT_ZERO_EXCLUSION

    def test_amplitude_exactly_at_zero_rejected_without_exclusion(self):
        with pytest.raises(ValueError, match="may not carry amplitude"):
            SpectralProfile(-0.25, 0.25, np.array([1.0, 1.0, 1.0]), zero_exclusion=0.0)

    def test_zero_amplitude_at_origin_is_fine(self):
        p = SpectralProfile(-0.25, 0.25, np.array([1.0, 0.0, 1.0]), zero_exclusion=0.0)
        assert p.truncated_mass == 0.0

    def test_amplitudes_are_read_only(self):
        p = small_profile([1.0, 2.0])
        with pytest.raises(ValueError):
            p.amplitudes[0] = 0.0

    def test_constructor_copies_input(self):
        raw = np.array([1.0 + 0j, 2.0])
        p = SpectralProfile(0.5, 0.25, raw)
        raw[0] = 9.0
        assert p.amplitudes[0] == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(xi_min=math.nan, xi_step=0.25, amplitudes=np.ones(2)),
        dict(xi_min=0.5, xi_step=0.0, amplitudes=np.ones(2)),
        dict(xi_min=0.5, xi_step=-1.0, amplitudes=np.ones(2)),
        dict(xi_min=0.5, xi_step=0.25, amplitudes=np.ones((2, 2))),
        dict(xi_min=0.5, xi_step=0.25, amplitudes=np.array([])),
        dict(xi_min=0.5, xi_step=0.25, amplitudes=np.array([1.0, math.inf])),
        dict(xi_min=0.5, xi_step=0.25, amplitudes=np.ones(2), zero_exclusion=-1.0),
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            SpectralProfile(**kwargs)

    def test_with_amplitudes_keeps_grid_and_exclusion(self):
        p = small_profile([1.0, 2.0], zero_exclusion=0.1)
        q = p.with_amplitudes(np.array([3.0, 4.0]))
        assert (q.xi_min, q.xi_step, q.zero_exclusion) == (0.5, 0.25, 0.1)
        np.testing.assert_array_equal(q.amplitudes, [3.0, 4.0])


class TestGrids:
    def test_spanning_endpoints(self):
        g = SpaceGrid.spanning(-1.0, 3.0, 5)
        np.testing.assert_allclose(g.points, [-1.0, 0.0, 1.0, 2.0, 3.0], rtol=1e-12)
        assert g.points[0] == -1.0

    def test_spanning_validation(self):
        with pytest.raises(ValueError):
            SpaceGrid.spanning(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            SpaceGrid.spanning(1.0, 1.0, 4)

    def test_single_point_grid(self):
        g = SpaceGrid(2.0, 1.0, 1)
        np.testing.assert_array_equal(g.points, [2.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpaceGrid(0.0, -1.0, 4)
        with pytest.raises(ValueError):
            SpaceGrid(math.inf, 1.0, 4)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            SpaceField(0.0, 1.0, np.array([]))
        with pytest.raises(ValueError):
            SpaceField(0.0, 1.0, np.array([1.0, math.nan]))
        u = SpaceField(0.0, 0.5, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(u.x, [0.0, 0.5, 1.0])

    def test_propagator_config_validation(self):
        # every entry point that takes the (t, sign) pair checks it
        p = small_profile([1.0, 2.0, 1.0])
        grid = SpaceGrid(0.0, 1.0, 4)
        for call in (lambda t, sign: evolve_spectral(p, t, sign),
                     lambda t, sign: validate_resolution(p, t, sign),
                     lambda t, sign: require_resolution(p, t, sign),
                     lambda t, sign: propagate(p, t, sign, grid)):
            with pytest.raises(ValueError, match="sign"):
                call(0.0, "x")
            with pytest.raises(ValueError, match="t must be finite"):
                call(math.inf, "+")
            with pytest.raises(ValueError, match="t must be finite"):
                call(math.nan, "-")


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------


class TestPhase:
    def test_values(self):
        assert phase(1.0, "+") == 2.0
        assert phase(1.0, "-") == 0.0
        assert phase_derivative(1.0, "+") == 2.0
        assert phase_derivative(1.0, "-") == 4.0

    def test_scalar_and_array_forms(self):
        assert isinstance(phase(2.0), float)
        out = phase(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(out, [2.0, 8.5])

    @given(nonzero_xi)
    def test_phase_is_odd(self, xi):
        # the cube goes through numpy's vector pow, which is not exactly
        # odd, so symmetry only holds to a couple of ulp of the large term
        scale = abs(xi) ** 3 + 1.0 / abs(xi)
        assert abs(phase(-xi, "+") + phase(xi, "+")) <= 4 * EPS * scale

    @given(nonzero_xi)
    def test_derivative_is_even(self, xi):
        scale = 3 * xi * xi + 1.0 / (xi * xi)
        assert abs(phase_derivative(-xi, "+") - phase_derivative(xi, "+")) \
            <= 4 * EPS * scale

    @given(nonzero_xi)
    def test_derivative_matches_sign_flip(self, xi):
        # the two branches differ only through the sign of the 1/xi term;
        # near |xi| = 1 the difference cancels, so bound the absolute error
        # by ulps of the summands rather than of the result
        scale = abs(xi) ** 3 + 1.0 / abs(xi)
        assert abs(phase(xi, "-") - (xi**3 - 1.0 / xi)) <= 4 * EPS * scale

    def test_singular_at_zero(self):
        with pytest.raises(ValueError, match="singular"):
            phase(0.0)
        with pytest.raises(ValueError, match="singular"):
            phase_derivative(np.array([1.0, 0.0]))

    def test_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            phase(1.0, "plus")

    def test_overflow_names_the_frequency_reach_without_warning(self):
        # xi**3 leaves the double range above about 5.6e102
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"frequency reach \|xi\| = 1e\+104"):
                phase(np.array([2.0, -1e104, 1e103]), "-")
            assert math.isfinite(phase(5e102))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


class TestEvolutionMultipliers:
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_rows_equal_per_time_phase_factors_bitwise(self, corpus, sign):
        # the table must reproduce the per-time factor bit for bit, so that
        # every lemma deviation and scan keeps its bytes
        ts = [*HIGH_TIMES, T_LOW, 0.1, 1.0]
        for entry in corpus:
            p = entry.profile
            nz = p.amplitudes != 0.0
            table = evolution_multipliers(p, ts, sign)
            assert table.shape == (len(ts), p.n)
            for t, row in zip(ts, table):
                np.testing.assert_array_equal(
                    row[nz], np.exp(1j * float(t) * phase(p.xi[nz], sign)))
                assert np.all(row[~nz] == 1.0)

    def test_t_zero_row_minus_one_is_exactly_zero(self, corpus):
        for entry in corpus:
            row = evolution_multipliers(entry.profile, [0.0], "-")[0]
            assert not np.any(row - 1.0)


class TestEvolve:
    def test_t_zero_is_identity_bitwise(self, corpus):
        for entry in corpus:
            out = evolve_spectral(entry.profile, 0.0, "+")
            np.testing.assert_array_equal(out.amplitudes, entry.profile.amplitudes)

    def test_zero_amplitudes_stay_exactly_zero(self, corpus):
        p = corpus[0].profile
        mask = p.amplitudes == 0.0
        out = evolve_spectral(p, 3.7, "+")
        assert np.all(out.amplitudes[mask] == 0.0)

    def test_unitarity_over_corpus(self, corpus):
        # the multiplier is unimodular, so the l2 norm survives any t
        for entry in corpus:
            base = hs_norm(entry.profile, 0.0)
            for t in (1e-3, 1.0, 17.0):
                ev = evolve_spectral(entry.profile, t, "+")
                assert abs(hs_norm(ev, 0.0) - base) <= 1e-13 * base

    def test_grid_is_unchanged(self, corpus):
        p = corpus[0].profile
        out = evolve_spectral(p, 0.5, "-")
        assert (out.xi_min, out.xi_step, out.n) == (p.xi_min, p.xi_step, p.n)

    @pytest.mark.parametrize("t1,t2", [(1e-3, 1e-3), (1.0, 1.0), (0.0, 1.0)])
    def test_group_law_for_exactly_representable_sums(self, corpus, t1, t2):
        assert Fraction(t1) + Fraction(t2) == Fraction(t1 + t2)
        for entry in corpus:
            p = entry.profile
            twice = evolve_spectral(evolve_spectral(p, t1, "+"),
                                    t2, "+")
            once = evolve_spectral(p, t1 + t2, "+")
            diff = np.abs(twice.amplitudes - once.amplitudes)
            assert np.all(diff <= 1e-14 * (1.0 + np.abs(p.amplitudes)))


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


class TestSynthesize:
    def test_trapezoid_weights(self):
        np.testing.assert_array_equal(trapezoid_weights(1), [1.0])
        np.testing.assert_array_equal(trapezoid_weights(2), [0.5, 0.5])
        w = trapezoid_weights(6)
        assert w[0] == w[-1] == 0.5 and np.all(w[1:-1] == 1.0)

    def test_single_mode_closed_form(self):
        # one interior amplitude A at xi0: u(x) = A * h * exp(i x xi0) / sqrt(2 pi)
        h = 0.25
        amps = np.zeros(5, dtype=np.complex128)
        amps[2] = 1.5 - 0.5j
        p = SpectralProfile(0.5, h, amps)
        xi0 = 1.0
        u = synthesize(p, SpaceGrid(-2.0, 1.7, 4))
        for x, v in zip(u.x, u.values):
            expected = amps[2] * h / SQRT_2PI * np.exp(1j * x * xi0)
            assert abs(v - expected) <= 4 * EPS * abs(expected)

    def test_gaussian_transform_pair(self):
        # exp(-xi^2/2) synthesises back to exp(-x^2/2): the half-cell offset
        # grid avoids xi = 0 and the alias images sit ~100 away, so plain
        # trapezoid summation is accurate to rounding here
        h = 1.0 / 32
        n = int(round(32.0 / h)) + 1
        xi_min = -16.0 + h / 2
        xi = xi_min + h * np.arange(n)
        p = SpectralProfile(xi_min, h, np.exp(-xi**2 / 2.0))
        grid = SpaceGrid.spanning(-3.0, 3.0, 401)
        u = synthesize(p, grid)
        err = np.max(np.abs(u.values - np.exp(-grid.points**2 / 2.0)))
        assert err <= 1e-12

    def test_linearity(self, corpus):
        p = corpus[2].profile  # band_unit
        rng = np.random.default_rng(7)
        other = p.with_amplitudes(rng.standard_normal(p.n) * (p.amplitudes != 0))
        grid = SpaceGrid.spanning(-4.0, 4.0, 64)
        combined = synthesize(p.with_amplitudes(p.amplitudes + other.amplitudes), grid)
        split = synthesize(p, grid).values + synthesize(other, grid).values
        scale = np.max(np.abs(combined.values))
        assert np.max(np.abs(combined.values - split)) <= 1e-13 * scale


def _node_rounding(grid):
    """Exact x_min + m * x_step minus grid.points[m], for every m.

    grid.points rounds twice: the product x_step * m and the sum with
    x_min.  Splitting x_step into 26-bit halves makes each partial product
    with m < 2**26 exact, and Knuth's two-sum recovers the rounding of the
    sum, so both errors come back without extended precision.
    """
    m = np.arange(grid.n, dtype=np.float64)
    prod = grid.x_step * m
    c = 134217729.0 * grid.x_step  # 2**27 + 1
    hi = c - (c - grid.x_step)
    lo = grid.x_step - hi
    prod_err = (hi * m - prod) + lo * m
    total = grid.x_min + prod
    assert np.array_equal(total, grid.points)
    back = total - grid.x_min
    sum_err = (grid.x_min - (total - back)) + (prod - back)
    return sum_err + prod_err


def _dense_basis(p, grid, rows):
    """exp(i x xi) at the exact grid nodes x_min + m * x_step.

    The rounding of each node in grid.points alone moves the field of a
    band profile by ~1e-13 of its sup, so it is applied as a separate
    factor.  The corpus xi nodes are exact binary fractions.
    """
    shift = _node_rounding(grid)[rows]
    return np.exp(1j * np.outer(grid.points[rows], p.xi)) * np.exp(1j * np.outer(shift, p.xi))


def _dense(p, grid, rows, basis=None):
    """Direct trapezoid sum: the reference the chirp-z synthesis is held to."""
    if basis is None:
        basis = _dense_basis(p, grid, rows)
    return basis @ (trapezoid_weights(p.n) * p.amplitudes * (p.xi_step / SQRT_2PI))


class TestChirpSynthesis:
    """The chirp-z synthesis against the dense trapezoid sum it replaces."""

    def test_node_rounding_matches_fractions(self, corpus_by_id):
        grid = observation_grid(corpus_by_id["band_narrow"].profile, n=4096)
        shift = _node_rounding(grid)
        assert np.count_nonzero(shift) > 0
        for m in range(0, grid.n, 257):
            exact = Fraction(grid.x_min) + m * Fraction(grid.x_step) - Fraction(grid.points[m])
            assert abs(shift[m] - float(exact)) <= 2 * EPS * abs(float(exact))

    def test_matches_dense_sum_over_corpus(self, corpus):
        rng = np.random.default_rng(20)
        for entry in corpus:
            for n, rows in ((4096, np.arange(4096)),
                            (65536, np.sort(rng.choice(65536, size=64, replace=False)))):
                grid = observation_grid(entry.profile, n=n)
                basis = _dense_basis(entry.profile, grid, rows)
                for t in (0.0, entry.max_resolved_t):
                    p = evolve_spectral(entry.profile, t, "+")
                    fast = synthesize(p, grid).values
                    sup = np.max(np.abs(fast))
                    err = np.max(np.abs(fast[rows] - _dense(p, grid, rows, basis)))
                    assert err <= 1e-13 * sup, (entry.profile_id, t, n, err / sup)

    def test_chirp_phase_split_is_needed(self, corpus_by_id):
        # a narrow band spreads its field over the whole 65536-point grid,
        # where the chirp phase a*k^2/2 reaches ~1e5 rad; rounding the
        # product a*k^2 instead of splitting a leaves errors ~4e-12 of sup
        p = corpus_by_id["band_narrow"].profile
        grid = observation_grid(p, n=65536)
        fast = synthesize(p, grid).values
        rows = np.arange(0, grid.n, 8)
        err = np.max(np.abs(fast[rows] - _dense(p, grid, rows)))
        assert err <= 1e-13 * np.max(np.abs(fast))

    def test_matches_scipy_czt(self, corpus_by_id):
        # a second, independent chirp-z: scipy forms its chirps as complex
        # powers, whose phase error grows with k^2, so it agrees to ~1e-11
        p = corpus_by_id["gauss_low"].profile
        grid = observation_grid(p, n=4096)
        coeff = trapezoid_weights(p.n) * p.amplitudes * (p.xi_step / SQRT_2PI)
        w = np.exp(1j * grid.x_step * p.xi_step)
        a = np.exp(-1j * grid.x_min * p.xi_step)
        ref = np.exp(1j * grid.points * p.xi_min) * czt(coeff, grid.n, w, a)
        fast = synthesize(p, grid).values
        assert np.max(np.abs(fast - ref)) <= 1e-10 * np.max(np.abs(fast))

    def test_batched_rows_equal_single_calls(self, corpus_by_id):
        p = corpus_by_id["mix_two_scale"].profile
        grid = observation_grid(p, n=777)
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((6, p.n)) + 1j * rng.standard_normal((6, p.n))
        batched = _synthesize_rows(p, grid, rows)
        single = np.stack([_synthesize_rows(p, grid, row)[0] for row in rows])
        assert batched.shape == (6, grid.n)
        assert np.max(np.abs(batched - single)) <= 4 * EPS * np.max(np.abs(single))

    def test_degenerate_sizes(self):
        # one frequency and one observation point: a 1-point transform
        p = SpectralProfile(0.75, 0.5, np.array([2.0 - 1.0j]))
        u = synthesize(p, SpaceGrid(1.25, 1.0, 1))
        expected = (2.0 - 1.0j) * 0.5 / SQRT_2PI * np.exp(1j * 1.25 * 0.75)
        assert abs(u.values[0] - expected) <= 4 * EPS * abs(expected)

    def test_quadrature_row_over_points_stacks_scalar_calls_bitwise(self, corpus):
        for entry in corpus:
            p = entry.profile
            xs = observation_grid(p, n=33).points
            rows = quadrature_row(p, xs)
            single = np.stack([quadrature_row(p, x) for x in xs])
            assert rows.shape == (33, p.n)
            assert np.array_equal(rows.view(np.uint64), single.view(np.uint64))

    def test_grid_beyond_phase_reach_refused_like_point_rows(self, corpus_by_id):
        # the reach is max(|x_min|, |x_last|), so a grid that crosses the
        # limit at either end is refused, as quadrature_row refuses its points
        p = corpus_by_id["gauss_low"].profile
        limit = 2.0**52 / max(abs(p.xi[0]), abs(p.xi[-1]))
        for grid in (SpaceGrid.spanning(1e17, 1.00000000001e17, 8),
                     SpaceGrid.spanning(0.0, 2.0 * limit, 8),
                     SpaceGrid.spanning(-2.0 * limit, 0.0, 8)):
            with pytest.raises(ValueError, match="unresolved synthesis phases"):
                synthesize(p, grid)
            with pytest.raises(ValueError, match="unresolved synthesis phases"):
                quadrature_row(p, grid.points)
        inside = SpaceGrid.spanning(-0.5 * limit, 0.5 * limit, 8)
        assert synthesize(p, inside).n == 8

    def test_quadrature_row_matches_synthesis(self, corpus_by_id):
        p = corpus_by_id["chirped_mid"].profile
        grid = SpaceGrid(-0.375, 0.25, 8)  # exact nodes
        fast = synthesize(p, grid).values
        points = np.array([quadrature_row(p, x) @ p.amplitudes for x in grid.points])
        assert np.max(np.abs(fast - points)) <= 1e-13 * np.max(np.abs(fast))


# ---------------------------------------------------------------------------
# resolution rule and propagate
# ---------------------------------------------------------------------------


class TestResolution:
    def test_t_zero_always_ok(self, corpus):
        rep = validate_resolution(corpus[4].profile, 0.0, "+")
        assert rep.ok and rep.max_phase_increment == 0.0

    def test_zero_profile_always_ok(self):
        p = small_profile([0.0, 0.0, 0.0])
        rep = validate_resolution(p, 1e9, "+")
        assert rep.ok and rep.max_phase_increment == 0.0

    def test_increment_matches_direct_recomputation(self, corpus_by_id):
        p = corpus_by_id["gauss_mid"].profile
        t = 2.5e-3
        rep = validate_resolution(p, t, "+")
        supported = p.xi[p.amplitudes != 0.0]
        direct = abs(t) * max(abs(phase_derivative(float(x))) for x in supported) * p.xi_step
        assert abs(rep.max_phase_increment - direct) <= 1e-12 * direct

    def test_report_carries_truncated_mass(self):
        p = SpectralProfile(-0.25, 0.25, np.array([1.0, 2.0, 1.0]), zero_exclusion=0.1)
        rep = validate_resolution(p, 0.0, "+")
        assert rep.truncated_mass == p.truncated_mass == 0.5

    def test_gate_threshold(self, corpus_by_id):
        entry = corpus_by_id["gauss_mid"]
        assert validate_resolution(entry.profile, entry.max_resolved_t, "+").ok
        assert not validate_resolution(entry.profile, 1.0, "+").ok

    def test_require_resolution_returns_or_raises_the_report(self, corpus_by_id):
        p = corpus_by_id["gauss_mid"].profile
        ok = require_resolution(p, 1e-3, "+")
        assert ok == validate_resolution(p, 1e-3, "+") and ok.ok
        with pytest.raises(ResolutionError) as err:
            require_resolution(p, 1.0, "-")
        assert err.value.report == validate_resolution(p, 1.0, "-")
        assert not err.value.report.ok

    def test_propagate_refuses_with_report_attached(self, corpus_by_id):
        entry = corpus_by_id["gauss_mid"]
        grid = SpaceGrid.spanning(-1.0, 1.0, 8)
        with pytest.raises(ResolutionError, match="phase advance") as err:
            propagate(entry.profile, 1.0, "+", grid)
        assert err.value.report.max_phase_increment > MAX_PHASE_INCREMENT

    def test_propagate_at_t_zero_matches_synthesize_bitwise(self, corpus):
        p = corpus[0].profile
        grid = SpaceGrid.spanning(-2.0, 2.0, 33)
        out = propagate(p, 0.0, "+", grid)
        np.testing.assert_array_equal(out.values, synthesize(p, grid).values)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


class TestNorms:
    def test_hs_norm_plain_sum(self):
        p = small_profile([1.0, 2.0j, -2.0])
        expected = math.sqrt((1.0 + 4.0 + 4.0) * 0.25)
        assert abs(hs_norm(p, 0.0) - expected) <= 1e-15

    def test_hs_norm_weights(self):
        p = small_profile([0.0, 1.0, 0.0])  # mass at xi = 0.75
        expected = math.sqrt((1.0 + 0.75**2) ** 2 * 0.25)
        assert abs(hs_norm(p, 2.0) - expected) <= 1e-14

    def test_hs_norm_monotone_in_s(self, corpus):
        p = corpus[0].profile
        norms = [hs_norm(p, s) for s in (-1.0, 0.0, 0.25, 1.0, 2.0)]
        assert all(a < b for a, b in zip(norms, norms[1:]))

    def test_hs_norm_rejects_non_finite_s(self, corpus):
        with pytest.raises(ValueError):
            hs_norm(corpus[0].profile, math.nan)

    def test_lp_norm_constant_field(self):
        h = 0.125
        n = 17
        u = SpaceField(0.0, h, np.full(n, 3.0 + 0j))
        width = (n - 1) * h
        for power in (1.0, 2.0, 4.0):
            assert abs(lp_norm_space(u, power) - 3.0 * width ** (1.0 / power)) <= 1e-12

    def test_lp_norm_sup(self):
        u = SpaceField(0.0, 1.0, np.array([1.0, -5.0j, 2.0]))
        assert lp_norm_space(u, math.inf) == 5.0

    def test_lp_norm_rejects_p_below_one(self):
        u = SpaceField(0.0, 1.0, np.ones(3))
        with pytest.raises(ValueError):
            lp_norm_space(u, 0.5)

    @settings(max_examples=30)
    @given(st.floats(min_value=1.0, max_value=64.0))
    def test_lp_norm_single_point(self, power):
        u = SpaceField(0.0, 2.0, np.array([-3.0 + 4.0j]))
        # one point, weight 1: norm = |v| * step^(1/p)
        assert abs(lp_norm_space(u, power) - 5.0 * 2.0 ** (1.0 / power)) <= 1e-12
