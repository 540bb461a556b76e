"""Containers, propagator phase, synthesis and norms."""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import czt

from ostrovsky_lab.corpus import PROBE_POINTS, observation_grid, period_grid
from ostrovsky_lab.lemmas import HIGH_TIMES, T_LOW
from ostrovsky_lab.rough import maximal_scan
from ostrovsky_lab.spectral import (
    MAX_ARRAY_BYTES,
    MAX_PHASE_INCREMENT,
    SQRT_2PI,
    ZERO_EXCLUSION,
    ResolutionReport,
    SpaceGrid,
    SpectralProfile,
    evolution_multipliers,
    evolve_spectral,
    hs_norm,
    lp_norm_space,
    phase,
    phase_derivative,
    phase_moments,
    _SYNTHESIS_BLOCK,
    _chirp_plan,
    _fft_length,
    _synthesize_rows,
    propagate,
    quadrature_row,
    require_resolution,
    synthesize,
    trapezoid_weights,
    validate_resolution,
)
from ostrovsky_lab.windows import square_function

EPS = np.finfo(float).eps

nonzero_xi = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
).flatmap(lambda v: st.sampled_from([v, -v]))


def small_profile(amps, xi_min=0.5, xi_step=0.25, **kwargs):
    return SpectralProfile(xi_min, xi_step, np.asarray(amps, dtype=np.complex128), **kwargs)


# Exact power-of-two scaling still fails for the L^4 norm: it takes |v|**4 and
# the 1/4-th root through pow, which is not exactly scale covariant, so it can
# differ in the last bit anywhere in the range.
_INEXACT_SCALING = pytest.mark.xfail(strict=True, reason="pow is not exactly scale covariant")


def _scaling_norm(name, p, s):
    """The norm the power-of-two scaling tests apply to amplitudes on p's grid."""
    return {
        "hs_norm": lambda a: hs_norm(p.with_amplitudes(a), s),
        "L^2": lambda a: lp_norm_space(a, 0.25, 2.0),
        "L^4": lambda a: lp_norm_space(a, 0.25, 4.0),
        "L^inf": lambda a: lp_norm_space(a, 0.25, math.inf),
        "square function": lambda a: float(np.max(
            square_function(p.with_amplitudes(a), SpaceGrid.spanning(-4.0, 4.0, 33)))),
    }[name]


def _scaled(amps, e):
    return amps * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)  # 2^e itself may not be a double


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


class TestSpectralProfile:
    def test_grid_points(self):
        p = small_profile([1.0, 2.0, 3.0])
        assert p.n == 3
        np.testing.assert_array_equal(p.xi, [0.5, 0.75, 1.0])

    def test_zero_exclusion_zeroes_and_records_mass(self):
        # on a 2^-22 grid the 7 points with |xi| <= 3 * 2^-22 fall inside
        # ZERO_EXCLUSION = 4 * 2^-22; the points at 4 and 5 * 2^-22 do not
        h = 2.0**-22
        p = SpectralProfile(-5 * h, h, np.arange(1.0, 12.0))
        assert ZERO_EXCLUSION == 4 * h
        np.testing.assert_array_equal(p.amplitudes, [1.0, 2.0] + [0.0] * 7 + [10.0, 11.0])
        assert p.truncated_mass == sum(range(3, 10)) * h

    def test_truncated_mass_follows_the_range_rule(self):
        # seven excluded amplitudes of 1.7e308 sum beyond the double range, their
        # step-weighted mass does not; at a step of 2^1019 the mass itself leaves it
        h = 2.0**-22
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = SpectralProfile(-5 * h, h, np.full(11, 1.7e308))
            assert p.truncated_mass == pytest.approx(1.7e308 * (7 * h), rel=1e-15)
            with pytest.raises(ValueError, match="^the truncated mass leaves the double range$"):
                SpectralProfile(-(2.0**1019), 2.0**1019, np.array([0.0, 32j]))

    def test_default_exclusion_only_touches_the_origin(self):
        h = 0.25
        p = SpectralProfile(-h, h, np.array([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(p.amplitudes, [1.0, 0.0, 1.0])
        assert p.truncated_mass == h

    def test_zero_amplitude_at_origin_is_fine(self):
        p = SpectralProfile(-0.25, 0.25, np.array([1.0, 0.0, 1.0]))
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
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            SpectralProfile(**kwargs)

    def test_with_amplitudes_keeps_grid_and_exclusion(self):
        p = small_profile([1.0, 2.0, 3.0], xi_min=-0.25)
        q = p.with_amplitudes(np.array([3.0, 4.0, 5.0]))
        assert (q.xi_min, q.xi_step) == (-0.25, 0.25)
        # the new amplitude at xi = 0 is excluded too
        np.testing.assert_array_equal(q.amplitudes, [3.0, 0.0, 5.0])
        assert q.truncated_mass == 4.0 * 0.25


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
        with pytest.raises(ValueError, match="^grid needs at least one point$"):
            SpaceGrid(0.0, 1.0, 0)

    def test_overflowing_last_point_refused_without_warning(self):
        # origin, step and size are each fine; origin + step * (n - 1) is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: SpectralProfile(1e308, 1e308, np.ones(3)),
                          lambda: SpaceGrid(-1e308, 1e308, 3)):
                with pytest.raises(ValueError, match=r"last grid point .* leaves the double range$"):
                    build()
            # the largest last point is fine
            top = SpaceGrid(np.nextafter(np.inf, 0.0) / 2, np.nextafter(np.inf, 0.0) / 4, 3)
            assert top.points[-1] == np.nextafter(np.inf, 0.0)

    def test_points_that_round_to_one_double_refused_without_warning(self):
        # the doubles from 2**53 on are 2 apart: 2**53 + 3 rounds to 2**53 + 4, the next point,
        # and -(2**53 + 3) to the first point -(2**53 + 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^grid points do not increase strictly: "
                                                 r"two of them round to one double$"):
                SpectralProfile(2.0**53 + 2, 1.0, np.ones(3))
            # a step of one spacing of the doubles there is fine
            p = SpectralProfile(2.0**53 + 2, 2.0, np.ones(3))
            np.testing.assert_array_equal(p.xi - 2.0**53, [2.0, 4.0, 6.0])

    def test_overflowing_span_refused_without_warning(self):
        # a finite last point, but last - origin leaves the double range, so
        # the reader could not take the step of the written grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"grid span .* leaves the double range$"):
                SpectralProfile(-3 * 2.0**970, 1.7976931348623157e308, np.ones(2))
            # the largest span is fine
            wide = SpaceGrid(-2.0**1023, np.nextafter(np.inf, 0.0), 2)
            assert wide.points[-1] - wide.points[0] == np.nextafter(np.inf, 0.0)

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

    def test_derivative_overflow_names_the_frequency_reach_without_warning(self):
        # 3 * xi**2 leaves the double range above about 7.7e153
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"frequency reach \|xi\| = 1e\+200"):
                phase_derivative(np.array([2.0, -1e200, 1e160]), "+")
            assert math.isfinite(phase_derivative(7e153, "-"))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


class TestEvolutionMultipliers:
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_rows_equal_per_time_phase_factors_bitwise(self, corpus, sign):
        # the table must reproduce the per-time factor bit for bit, so that
        # every lemma deviation and scan keeps its bytes; a column without
        # amplitude is exactly 1 and never sees its phase, which overflows at
        # xi = 1e103, over the full grid and over a subset holding the column
        ts = [*HIGH_TIMES, T_LOW, 0.1, 1.0]
        overflowing = SpectralProfile(1.0, 1e103, np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (*(entry.profile for entry in corpus), overflowing):
                for columns in (slice(None), np.arange(p.n)[::-2]):
                    xi, nz = p.xi[columns], p.amplitudes[columns] != 0.0
                    table = evolution_multipliers(p, ts, sign, columns)
                    assert table.shape == (len(ts), xi.size)
                    for t, row in zip(ts, table):
                        np.testing.assert_array_equal(
                            row[nz], np.exp(1j * float(t) * phase(xi[nz], sign)))
                        assert np.all(row[~nz] == 1.0)

    def test_t_zero_row_minus_one_is_exactly_zero(self, corpus):
        for entry in corpus:
            row = evolution_multipliers(entry.profile, [0.0], "-")[0]
            assert not np.any(row - 1.0)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_cos_sin_tables_equal_complex_exponentials_bitwise(self, corpus, sign):
        # evolution_multipliers and quadrature_row write cos and sin of the
        # phase into one complex array; this platform's libm must give the
        # bits of the complex exponentials below, signed zeros included,
        # or every CSV would change without notice.  The times cover t = 0
        # and t < 0, where t * phase is -0.0 or negative
        ts = [*HIGH_TIMES, T_LOW, 0.1, 1.0, 0.0, -1e-3]
        for entry in corpus:
            p = entry.profile
            support = np.flatnonzero(p.amplitudes != 0.0)
            xs = np.append(observation_grid(p, n=33).points, [0.0, -0.0])
            for columns in (slice(None), support):
                assert _bits(evolution_multipliers(p, ts, sign, columns)) == \
                    _bits(_exp_multipliers(p, ts, sign, columns))
                assert _bits(quadrature_row(p, xs, columns)) == \
                    _bits(_exp_quadrature_row(p, xs, columns))
            assert _bits(quadrature_row(p, 0.7)) == _bits(_exp_quadrature_row(p, 0.7))


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _exp_multipliers(p, ts, sign, columns=slice(None)):
    """evolution_multipliers written with np.exp(1j * ...): its bitwise reference."""
    ts = np.asarray(ts, dtype=np.float64)
    xi, amps = p.xi[columns], p.amplitudes[columns]
    nz = amps != 0.0
    out = np.ones((ts.size, xi.size), dtype=np.complex128)
    out[:, nz] = np.exp(1j * np.outer(ts, phase(xi[nz], sign)))
    return out


def _exp_quadrature_row(p, x, columns=slice(None)):
    """quadrature_row written with np.exp(1j * ...): its bitwise reference."""
    weights = trapezoid_weights(p.n) * (p.xi_step / SQRT_2PI)
    return np.exp(1j * np.multiply.outer(np.asarray(x, dtype=np.float64), p.xi[columns])) * \
        weights[columns]


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
        grid = SpaceGrid(-2.0, 1.7, 4)
        for x, v in zip(grid.points, synthesize(p, grid)):
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
        err = np.max(np.abs(u - np.exp(-grid.points**2 / 2.0)))
        assert err <= 1e-12

    def test_linearity(self, corpus):
        p = corpus[2].profile  # band_unit
        rng = np.random.default_rng(7)
        other = p.with_amplitudes(rng.standard_normal(p.n) * (p.amplitudes != 0))
        grid = SpaceGrid.spanning(-4.0, 4.0, 64)
        combined = synthesize(p.with_amplitudes(p.amplitudes + other.amplitudes), grid)
        split = synthesize(p, grid) + synthesize(other, grid)
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(combined - split)) <= 1e-13 * scale


@pytest.mark.parametrize("name,dtype", [("synthesize", np.complex128),
                                        ("propagate", np.complex128),
                                        ("square_function", np.float64),
                                        ("maximal_scan", np.float64)])
def test_fields_are_arrays_on_the_callers_grid(name, dtype):
    # a profile the maximal scan takes: Hermitian on a grid symmetric about 0
    xi = -2.0 + 0.125 * np.arange(33)
    p = SpectralProfile(-2.0, 0.125, np.exp(-(np.abs(xi) - 1.0) ** 2))
    grid = SpaceGrid.spanning(-1.5, 2.5, 17)
    values = {"synthesize": lambda: synthesize(p, grid),
              "propagate": lambda: propagate(p, 1e-3, "-", grid),
              "square_function": lambda: square_function(p, grid),
              "maximal_scan": lambda: maximal_scan(p, "+", 1e-3, grid, 8)}[name]()
    assert type(values) is np.ndarray and values.dtype == dtype and values.shape == (grid.n,)
    if dtype == np.float64:
        assert np.all(values >= 0.0)


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

    def test_matches_dense_sum_over_corpus(self, corpus, design_t):
        rng = np.random.default_rng(20)
        for entry in corpus:
            for n, rows in ((4096, np.arange(4096)),
                            (65536, np.sort(rng.choice(65536, size=64, replace=False)))):
                grid = observation_grid(entry.profile, n=n)
                basis = _dense_basis(entry.profile, grid, rows)
                for t in (0.0, design_t[entry.profile_id]):
                    p = evolve_spectral(entry.profile, t, "+")
                    fast = synthesize(p, grid)
                    sup = np.max(np.abs(fast))
                    err = np.max(np.abs(fast[rows] - _dense(p, grid, rows, basis)))
                    assert err <= 1e-13 * sup, (entry.profile_id, t, n, err / sup)

    def test_chirp_phase_split_is_needed(self, corpus_by_id):
        # a narrow band spreads its field over the whole 65536-point grid,
        # where the chirp phase a*k^2/2 reaches ~1e5 rad; rounding the
        # product a*k^2 instead of splitting a leaves errors ~4e-12 of sup
        p = corpus_by_id["band_narrow"].profile
        grid = observation_grid(p, n=65536)
        fast = synthesize(p, grid)
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
        fast = synthesize(p, grid)
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

    def test_rows_transformed_in_blocks_give_single_call_bits(self, corpus_by_id, monkeypatch):
        p = corpus_by_id["mix_band_gauss_even"].profile
        grid = observation_grid(p, n=500)
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((2 * _SYNTHESIS_BLOCK + 3, p.n)) + 0j
        single = np.stack([_synthesize_rows(p, grid, row)[0] for row in rows])
        batches = []  # the plan is cached now, so only row transforms are recorded
        fft = np.fft.fft

        def recorded(a, *args, **kwargs):
            batches.append(len(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recorded)
        blocked = _synthesize_rows(p, grid, rows)
        assert batches == [_SYNTHESIS_BLOCK, _SYNTHESIS_BLOCK, 3]
        assert blocked.tobytes() == single.tobytes()

    def test_short_last_block_gives_row_by_row_synthesis_bits(self, corpus):
        # 13 rows: one full block, then a short one through the same buffer
        rng = np.random.default_rng(13)
        for entry in corpus:
            p = entry.profile
            grid = observation_grid(p, n=1000)
            draws = rng.standard_normal((13, p.n)) + 1j * rng.standard_normal((13, p.n))
            profiles = [p.with_amplitudes(row) for row in draws]
            single = np.stack([synthesize(q, grid) for q in profiles])
            blocked = _synthesize_rows(p, grid, np.stack([q.amplitudes for q in profiles]))
            assert blocked.tobytes() == single.tobytes(), entry.profile_id

    def test_blocks_share_one_transform_buffer(self, corpus_by_id):
        # the peak is one (_SYNTHESIS_BLOCK, L) buffer plus the output; the
        # slack holds the loop's Python objects, well below one transform row
        p = corpus_by_id["band_low_even"].profile
        grid = observation_grid(p, n=20000)
        rows = np.random.default_rng(5).standard_normal((13, p.n)) + 0j
        _synthesize_rows(p, grid, rows[0])  # builds and caches the plan
        length = _fft_length(grid.n + p.n - 1)
        tracemalloc.start()
        try:
            fields = _synthesize_rows(p, grid, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * _SYNTHESIS_BLOCK * length + fields.nbytes + 16 * 1024

    def test_degenerate_sizes(self):
        # one frequency and one observation point: a 1-point transform
        p = SpectralProfile(0.75, 0.5, np.array([2.0 - 1.0j]))
        u = synthesize(p, SpaceGrid(1.25, 1.0, 1))
        expected = (2.0 - 1.0j) * 0.5 / SQRT_2PI * np.exp(1j * 1.25 * 0.75)
        assert abs(u[0] - expected) <= 4 * EPS * abs(expected)

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
        assert synthesize(p, inside).shape == (8,)

    def test_transform_budget_refused_before_allocating(self, corpus_by_id, monkeypatch):
        # K rows pad to K transforms of _fft_length(n_x + n_xi - 1) complex
        # values, and that length is a power of two exactly at the budget:
        # one point more is refused from the sizes alone
        p = corpus_by_id["gauss_low"].profile
        rows = np.stack([p.amplitudes, p.amplitudes])

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        for name in ("arange", "empty", "zeros"):
            monkeypatch.setattr(np, name, no_allocation)
        for n_x, batch in ((MAX_ARRAY_BYTES // 16 - p.n + 2, p.amplitudes),
                           (MAX_ARRAY_BYTES // 32 - p.n + 2, rows),
                           (10**12, p.amplitudes)):
            with pytest.raises(ValueError, match=f"above the budget of {MAX_ARRAY_BYTES} bytes"):
                _synthesize_rows(p, SpaceGrid(0.0, 1e-9, n_x), batch)
        with pytest.raises(AssertionError, match="allocated"):  # at the budget: allowed
            _synthesize_rows(p, SpaceGrid(0.0, 1e-9, MAX_ARRAY_BYTES // 16 - p.n + 1), rows[0])

    def test_cold_and_warm_plans_give_the_same_bits(self, corpus):
        for entry in corpus:
            p = entry.profile
            probe = period_grid(p, PROBE_POINTS)
            for grid in (probe, observation_grid(p, n=4096)):
                _chirp_plan.cache_clear()
                cold = _synthesize_rows(p, grid, p.amplitudes)
                hits = _chirp_plan.cache_info().hits
                warm = _synthesize_rows(p, grid, p.amplitudes)
                assert _chirp_plan.cache_info().hits == hits + 1
                assert cold.tobytes() == warm.tobytes(), entry.profile_id

    def test_plan_arrays_are_read_only(self, corpus_by_id):
        p = corpus_by_id["chirped_mid"].profile
        grid = observation_grid(p, n=300)
        synthesize(p, grid)
        plan = _chirp_plan(grid.x_min, grid.x_step, grid.n, p.xi_min, p.xi_step, p.n)
        assert [array.flags.writeable for array in plan] == [False, False, False]
        with pytest.raises(ValueError, match="read-only"):
            plan[0][0] = 0.0

    def test_plan_cache_stays_within_its_bound(self, corpus):
        _chirp_plan.cache_clear()
        bound = _chirp_plan.cache_info().maxsize
        assert bound == 4
        for entry in corpus:
            synthesize(entry.profile, observation_grid(entry.profile, n=64))
            assert _chirp_plan.cache_info().currsize <= bound
        assert _chirp_plan.cache_info().misses > bound

    def test_budget_refusal_leaves_plan_cache_unchanged(self, corpus_by_id):
        p = corpus_by_id["gauss_low"].profile
        _chirp_plan.cache_clear()
        synthesize(p, observation_grid(p, n=64))
        before = _chirp_plan.cache_info()
        with pytest.raises(ValueError, match="above the budget"):
            _synthesize_rows(p, SpaceGrid(0.0, 1e-9, MAX_ARRAY_BYTES // 16), p.amplitudes)
        assert _chirp_plan.cache_info() == before

    def test_quadrature_row_matches_synthesis(self, corpus_by_id):
        p = corpus_by_id["chirped_mid"].profile
        grid = SpaceGrid(-0.375, 0.25, 8)  # exact nodes
        fast = synthesize(p, grid)
        points = np.array([quadrature_row(p, x) @ p.amplitudes for x in grid.points])
        assert np.max(np.abs(fast - points)) <= 1e-13 * np.max(np.abs(fast))


# ---------------------------------------------------------------------------
# resolution rule and propagate
# ---------------------------------------------------------------------------


class TestResolution:
    def test_verdict_follows_the_increment(self):
        # the report stores the increment alone; ok is read from it
        assert [f.name for f in dataclasses.fields(ResolutionReport)] == ["max_phase_increment"]
        for increment, ok in ((0.0, True), (MAX_PHASE_INCREMENT, True),
                              (math.nextafter(MAX_PHASE_INCREMENT, 1.0), False),
                              (math.inf, False), (math.nan, False)):
            assert ResolutionReport(increment).ok is ok

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

    def test_increment_bits_match_the_array_formula(self, corpus_by_id):
        p = corpus_by_id["gauss_mid"].profile
        dphi = np.abs(phase_derivative(p.xi[p.amplitudes != 0.0]))
        for t in (2.5e-3, np.float64(-0.7), 1e-300):
            expected = float(abs(t) * np.max(dphi) * p.xi_step)
            assert validate_resolution(p, t, "+").max_phase_increment == expected

    def test_overflowing_increment_is_inf_without_warning(self, corpus_by_id):
        p = corpus_by_id["gauss_mid"].profile
        grid = SpaceGrid.spanning(-1.0, 1.0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e308, np.float64(-1e308)):
                report = validate_resolution(p, t, "+")
                assert report.max_phase_increment == math.inf and not report.ok
            with pytest.raises(ValueError, match="phase advance inf rad per cell"):
                propagate(p, 1e308, "+", grid)

    def test_gate_threshold(self, corpus_by_id, design_t):
        entry = corpus_by_id["gauss_mid"]
        assert validate_resolution(entry.profile, design_t["gauss_mid"], "+").ok
        assert not validate_resolution(entry.profile, 1.0, "+").ok

    def test_require_resolution_returns_none_or_names_the_increment(self, corpus_by_id):
        p = corpus_by_id["gauss_mid"].profile
        assert validate_resolution(p, 1e-3, "+").ok
        assert require_resolution(p, 1e-3, "+") is None
        increment = validate_resolution(p, 1.0, "-").max_phase_increment
        with pytest.raises(ValueError) as err:
            require_resolution(p, 1.0, "-")
        assert type(err.value) is ValueError
        assert str(err.value) == (f"phase advance {increment:.3g} rad per cell exceeds "
                                  f"{MAX_PHASE_INCREMENT}; refine xi_step or reduce |t|")

    def test_propagate_refusal_names_the_increment(self, corpus_by_id):
        p = corpus_by_id["gauss_mid"].profile
        grid = SpaceGrid.spanning(-1.0, 1.0, 8)
        increment = validate_resolution(p, 1.0, "+").max_phase_increment
        assert increment > MAX_PHASE_INCREMENT
        with pytest.raises(ValueError, match=f"^phase advance {increment:.3g} rad per cell "):
            propagate(p, 1.0, "+", grid)

    def test_propagate_at_t_zero_matches_synthesize_bitwise(self, corpus):
        p = corpus[0].profile
        grid = SpaceGrid.spanning(-2.0, 2.0, 33)
        out = propagate(p, 0.0, "+", grid)
        np.testing.assert_array_equal(out, synthesize(p, grid))


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

    def test_hs_norm_overflow_names_s_and_reach_without_warning(self):
        # (1 + 4^2)^s leaves the double range for s above about 250
        p = SpectralProfile(-4.0, 1.0, np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"s = 300.0, frequency reach \|xi\| = 4$"):
                hs_norm(p, 300.0)
            assert math.isfinite(hs_norm(p, 200.0))

    def test_norms_refuse_overflow_without_warning(self):
        p = SpectralProfile(0.125, 0.125, np.full(9, 1e300))
        u = np.full(3, 1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the sum of squares overflows, the norm sqrt(9/8) * 1e300 does not
            assert hs_norm(p, 0.0) == pytest.approx(math.sqrt(1.125) * 1e300, rel=1e-15)
            with pytest.raises(ValueError, match=r"^H\^s norm at s = 0.0 leaves the double range$"):
                hs_norm(p.with_amplitudes(np.full(9, 1.7e308)), 0.0)
            # the sum of |u|^4 overflows, the norm does not
            assert lp_norm_space(u, 1.0, 4.0) == pytest.approx(2.0**0.25 * 1e100, rel=1e-15)
            assert lp_norm_space(u, 1.0, 2.0) == pytest.approx(math.sqrt(2.0) * 1e100, rel=1e-15)
            # (0.5 + 1 + 0.5) * 4 * 1e308 is out of range whatever the scaling
            with pytest.raises(ValueError, match=r"^L\^1 norm leaves the double range$"):
                lp_norm_space(np.full(3, 1e308), 4.0, 1.0)

    @pytest.mark.parametrize("power", [1074.0, 1100.0, 2000.0])
    def test_non_zero_field_never_gets_norm_zero(self, power):
        # the retake scales |u| into [1/2, 1), whose power-th power underflows
        u = np.array([2.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp_norm_space(u, 1.0, 1000.0) == 2.0
            with pytest.raises(ValueError, match=rf"^L\^{power:g} norm of a non-zero field "):
                lp_norm_space(u, 1.0, power)
            assert lp_norm_space(np.zeros(2), 1.0, power) == 0.0

    def test_overflowing_sums_retaken_exactly(self):
        # past the overflow of the plain sum, a power-of-two amplitude
        # scales each norm by exactly that power
        unit = SpectralProfile(1.0, 0.125, np.ones(9))
        grid = SpaceGrid.spanning(-2.0, 2.0, 33)
        u = synthesize(unit, grid)
        # max |u| in [1/2, 1), so the retake divides by exactly the power applied
        u = u * 2.0**-math.frexp(np.max(np.abs(u)))[1]
        for e in (600, 1000):
            big = unit.with_amplitudes(np.full(9, 2.0**e))
            assert hs_norm(big, 0.0) == 2.0**e * hs_norm(unit, 0.0)
            assert hs_norm(big, 0.5) == 2.0**e * hs_norm(unit, 0.5)
            scaled = u * 2.0**e
            for power in (1.0, 2.0, 4.0):  # the L^1 sum stays in range
                assert (lp_norm_space(scaled, grid.x_step, power)
                        == 2.0**e * lp_norm_space(u, grid.x_step, power))

    def test_underflowing_sums_retaken(self):
        # the sums of powers underflow to 0.0, the norms do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hs_norm(SpectralProfile(1.0, 0.125, np.full(9, 1e-200)), 0.0) == pytest.approx(
                math.sqrt(1.125) * 1e-200, rel=1e-15, abs=0.0)
            assert lp_norm_space(np.full(3, 1e-100), 1.0, 4.0) == pytest.approx(
                2.0**0.25 * 1e-100, rel=1e-15, abs=0.0)

    def test_overflowing_modulus_retaken_from_the_parts(self):
        # |a| = 1.84e308 overflows; its parts and the norms are finite
        amps = np.zeros(5, dtype=np.complex128)
        amps[2] = 1.3e308 + 1.3e308j
        p = SpectralProfile(1.0, 0.125, amps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hs_norm(p, 0.0) == 4.0 * hs_norm(p.with_amplitudes(amps / 4.0), 0.0)
            for power in (1.0, 2.0, 4.0):
                assert lp_norm_space(amps, 0.125, power) == pytest.approx(
                    4.0 * lp_norm_space(amps / 4.0, 0.125, power), rel=1e-15)

    @pytest.mark.parametrize("name", ["hs_norm", "L^2", "L^inf", "square function"])
    @given(data=st.data())
    def test_norms_scale_exactly_by_powers_of_two(self, name, data):
        # norm(2^e f) == 2^e norm(f) bit for bit, over every e at which the
        # scaled norm is finite and the smallest non-zero input stays normal
        part = st.one_of(st.just(0.0), st.floats(2.0**-30, 1.0).flatmap(
            lambda v: st.sampled_from([v, -v])))
        parts = data.draw(st.lists(part, min_size=4, max_size=24).filter(any))
        amps = np.array(parts[0::2], dtype=np.complex128)
        amps[: len(parts[1::2])] += 1j * np.array(parts[1::2])
        s = data.draw(st.sampled_from([-0.5, 0.0, 0.25, 1.0]))
        xi_min = data.draw(st.sampled_from([-1.5, 0.5, 3.0]))
        norm = _scaling_norm(name, small_profile(amps, xi_min=xi_min, xi_step=0.125), s)
        base = norm(amps)
        inputs = np.abs(np.concatenate([amps.real, amps.imag]))
        e_lo = -1021 - math.frexp(float(np.min(inputs[inputs > 0.0])))[1]
        e_hi = 1024 - max(math.frexp(base)[1], math.frexp(float(np.max(inputs)))[1])
        e = data.draw(st.integers(e_lo, e_hi))
        assert norm(_scaled(amps, e)) == math.ldexp(base, e)

    @pytest.mark.parametrize("name,amps,xi_min,e", [
        ("L^2", [1.0 + 1.0j, 0.0], 0.5, 1),
        pytest.param("L^4", [0.018673273334944535, 0.74509279019269, 0.8196638788259062,
                             0.8207494644508068], 0.5, 195, marks=_INEXACT_SCALING),
        *(("square function", [0.6733730894363845j, 0.0, -0.4967093678554467,
                               0.7516712129995261 + 0.2680530616693582j,
                               0.3333333333333333], 3.0, e)
          for e in (-1019, 1024)),
        ("square function", [0.0, 1.0 + 1.0j, 0.9999999999999999j, 0.0], -1.5, -1020),
    ], ids=["L^2", "L^4", "square function-bottom", "square function-top",
            "square function-window-table"])
    @pytest.mark.filterwarnings("error")
    def test_known_inexact_scalings(self, name, amps, xi_min, e):
        # rare inputs inside the range of the property above, which a property
        # run need not meet: an L^2 root through pow, a square-function
        # synthesis at either end of the range and a window table formed before
        # the retake (rounded to 2^-1022) broke it there, L^4 still does
        amps = np.array(amps, dtype=np.complex128)
        norm = _scaling_norm(name, small_profile(amps, xi_min=xi_min, xi_step=0.125), 0.0)
        assert norm(_scaled(amps, e)) == math.ldexp(norm(amps), e)

    def test_in_range_norms_keep_their_bits(self, corpus):
        # the retakes only add a range check to the plain formulas
        for entry in corpus:
            p = entry.profile
            for s in (-1.0, 0.0, 0.5):
                weight = (1.0 + p.xi * p.xi) ** s
                plain = float(np.sqrt(np.sum(weight * np.abs(p.amplitudes) ** 2) * p.xi_step))
                assert hs_norm(p, s) == plain
            grid = observation_grid(p, n=4096)
            u = synthesize(p, grid)
            w = trapezoid_weights(grid.n)
            for power in (1.0, 2.0, 4.0, 7.5):
                total = np.sum(w * np.abs(u) ** power * grid.x_step)
                plain = float(np.sqrt(total) if power == 2.0 else total ** (1.0 / power))
                assert lp_norm_space(u, grid.x_step, power) == plain

    def test_lp_norm_constant_field(self):
        h = 0.125
        n = 17
        u = np.full(n, 3.0 + 0j)
        width = (n - 1) * h
        for power in (1.0, 2.0, 4.0):
            assert abs(lp_norm_space(u, h, power) - 3.0 * width ** (1.0 / power)) <= 1e-12

    def test_lp_norm_sup(self):
        assert lp_norm_space(np.array([1.0, -5.0j, 2.0]), 1.0, math.inf) == 5.0

    def test_lp_norm_rejects_p_below_one(self):
        for power in (0.5, math.nan):  # nan compares False with 1 either way
            with pytest.raises(ValueError, match="p >= 1"):
                lp_norm_space(np.ones(3), 1.0, power)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.filterwarnings("error")
    def test_lp_norm_refuses_non_finite_values(self, bad):
        values = np.array([1.0, bad, 2.0])
        for power in (1.0, 2.0, 4.0, math.inf):
            with pytest.raises(ValueError, match="^values must be finite$"):
                lp_norm_space(values, 1.0, power)

    def test_phase_moments_literal_sums(self):
        p = small_profile([1.0, -2.0j, 0.0, 0.5])  # xi = 0.5, 0.75, 1.0, 1.25
        w = trapezoid_weights(4) * 0.25 / SQRT_2PI
        mass = np.abs(p.amplitudes)
        for sign in ("+", "-"):
            phi = np.abs(phase(p.xi, sign))
            expected = [np.sum(w * mass * phi**m) for m in (0, 1, 2)]
            moments = phase_moments(p, sign, (0, 1, 2))
            np.testing.assert_allclose(moments, expected, rtol=1e-15)
            # a time scale t multiplies L by t and L2 by t^2
            np.testing.assert_allclose(phase_moments(p, sign, (0, 1, 2), 1e-3),
                                       [expected[0], expected[1] * 1e-3, expected[2] * 1e-6],
                                       rtol=1e-15)
            # each order is its own sum: any subset, in any order, has the same bits
            assert phase_moments(p, sign, (2, 0)) == (moments[2], moments[0])
        assert phase_moments(small_profile([0.0, 0.0]), "+", (0, 1, 2)) == (0.0, 0.0, 0.0)

    def test_phase_moments_follow_the_range_rule(self):
        # each sum is linear in the amplitudes: a power-of-two amplitude whose
        # plain sums underflow or overflow scales them exactly, and a sum
        # beyond the double range is refused without a warning
        unit = SpectralProfile(9.0, 0.125, np.ones(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments = phase_moments(unit, "+", (0, 1, 2))
            for e in (-1060, 1000):
                scaled = phase_moments(unit.with_amplitudes(np.full(9, 2.0**e)), "+", (0, 1, 2))
                assert scaled == tuple(m * 2.0**e for m in moments)
            for amplitude in (1e305, 1e308):
                with pytest.raises(ValueError, match="^a phase moment leaves the double range$"):
                    phase_moments(unit.with_amplitudes(np.full(9, amplitude)), "+", (0, 1, 2))
            # at 1e305 only L2 leaves the range: S and L, asked for alone, are kept
            big = unit.with_amplitudes(np.full(9, 1e305))
            np.testing.assert_allclose(phase_moments(big, "+", (0, 1)),
                                       [m * 1e305 for m in moments[:2]], rtol=1e-14)

    @settings(max_examples=30)
    @given(st.floats(min_value=1.0, max_value=64.0))
    def test_lp_norm_single_point(self, power):
        # one point, weight 1: norm = |v| * step^(1/p)
        assert abs(lp_norm_space(np.array([-3.0 + 4.0j]), 2.0, power)
                   - 5.0 * 2.0 ** (1.0 / power)) <= 1e-12
