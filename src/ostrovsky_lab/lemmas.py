"""Numerical checks of the deterministic frequency-localized estimates.

Each check measures both sides of one inequality on a concrete profile
and emits a :class:`LemmaReport`, whose verdict ``passed`` is computed
from the two sides (``measured_lhs <= bound_rhs``) and never stored, so a
report file audits itself: ``fileio.read_reports`` refuses a row whose
``pass`` cell disagrees with its sides.

Suprema over x are maxima over the finite grid each check is passed; the
corpus run passes each profile's observation grid.  For the upper-bound
checks (square function, Bernstein) a coarse grid can only under-estimate
the left side, never produce a false failure; but that under-read can turn
a failure into a pass (the observation grid reads the L2_2 deviation of
band_low_even 5.44% low).  For the deviation checks the observation grid
spans the numerically supported region plus a margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import CorpusEntry, observation_grid
from .parallel import parallel_map
from .spectral import (
    ZERO_EXCLUSION,
    SpaceGrid,
    SpectralProfile,
    _downscaled,
    _in_range,
    _rescaled,
    _synthesize_rows,
    evolution_multipliers,
    evolve_spectral,
    hs_norm,
    lp_norm_space,
    phase_moments,
    validate_resolution,
)
from .windows import _run_ends, project_low, square_function, wiener_decompose

__all__ = [
    "LemmaReport",
    "check_high_frequency",
    "check_low_frequency",
    "check_square_function",
    "check_wiener_low",
    "delta_epsilon",
    "run_corpus",
]

LEMMA_IDS = (
    "L2_2",
    "L2_3",
    "L2_4",
    "L2_5",
    "L2_6",
    "L2_7",
    "NORM_EQUIV",
    "BERNSTEIN",
)

# Frequencies at or below this scale are "low" for the split estimates;
# the smooth cutoff of project_low is 1 there and vanishes beyond twice it.
SPLIT_SCALE = 8.0

# The Wiener-window deviation estimate is stated only for |k| <= 8.
MAX_WINDOW_INDEX = 8

# Harness calibration of the corpus run.
EPSILON = 1e-2            # low-frequency mass budget
T_LOW = 1e-3              # evaluation time for the low/window checks
OBSERVATION_POINTS = 4096 # points of each profile's observation grid
WINDOW_EPSILON = 1e-1     # epsilon in the eps + t/eps window bound
HIGH_TIMES = tuple(float(t) for t in np.geomspace(1e-6, 1e-3, 7))  # linearity sweep
SQUARE_TIMES = (0.1, 1.0)
CORPUS_CONSTANT = 1e4     # calibrated cap for fitted deviation constants
SLOPE_TOLERANCE = 0.05
SQUARE_SLACK = 1e-6
NORM_EQUIV_SLACK = 1e-12
BERNSTEIN_CONSTANT = 2.0


@dataclass(frozen=True)
class LemmaReport:
    """One measured inequality: lhs, rhs and the fitted constant; the verdict follows from them."""

    lemma_id: str
    profile_id: str
    params: dict
    measured_lhs: float
    bound_rhs: float
    fitted_c: float

    def __post_init__(self):
        if self.lemma_id not in LEMMA_IDS:
            raise ValueError(f"unknown lemma id {self.lemma_id!r}")

    @property
    def passed(self) -> bool:
        return bool(self.measured_lhs <= self.bound_rhs)


def _report(lemma_id: str, profile_id: str, params: dict,
            lhs: float, rhs: float, fitted_c: float) -> LemmaReport:
    return LemmaReport(
        lemma_id=lemma_id,
        profile_id=profile_id,
        params=params,
        measured_lhs=float(lhs),
        bound_rhs=float(rhs),
        fitted_c=float(fitted_c),
    )


def _skip_report(lemma_id: str, profile_id: str, reason: str, params: dict | None = None) -> LemmaReport:
    """A check that could not run: record why, count as vacuously true."""
    merged = {"skip": reason}
    if params:
        merged.update(params)
    return _report(lemma_id, profile_id, merged, 0.0, 0.0, 0.0)


def _sup_deviations(p: SpectralProfile, amplitudes: np.ndarray, ts, sign: str,
                    grid: SpaceGrid) -> np.ndarray:
    """max over `grid` of |(U(t) - I) a| per time t and amplitude row a on p's grid.

    `amplitudes` is one row (one value per time) or a stack of rows at one
    time (one value per row); the rows times the multiplier of U(t) - I
    broadcast to one batched synthesis.  The sups are linear in the
    amplitudes, so they follow spectral._rescaled.
    """
    def sups(a):
        rows = a * (evolution_multipliers(p, ts, sign) - 1.0)
        return np.max(np.abs(_synthesize_rows(p, grid, rows)), axis=1)

    return _rescaled(sups, np.atleast_2d(amplitudes), 1.0, "the sup deviation")


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def delta_epsilon(p: SpectralProfile, epsilon: float) -> float:
    """Largest grid radius delta <= 1/2 whose L2 mass on |xi| <= delta is <= epsilon.

    Found by bisection over the partial L2 norms at the distinct positive
    grid radii; capped at 1/2.  The norms inside the first carrying radius
    are exact zeros, and the rest follow spectral._rescaled.  If even the
    innermost radius carries more than epsilon, falls back to ZERO_EXCLUSION
    (mass there is zero), so the radius is always positive.  Raises
    ValueError when a partial norm leaves the double range.
    """
    _check_epsilon(epsilon)
    radii = np.abs(p.xi)
    order = np.argsort(radii, kind="stable")
    sorted_radii, sorted_amps = radii[order], p.amplitudes[order]
    carrying = np.flatnonzero(sorted_amps)
    first = carrying[0] if carrying.size else p.n
    partial = np.zeros(p.n)
    partial[first:] = _rescaled(lambda a: np.sqrt(np.cumsum(np.abs(a) ** 2 * p.xi_step)),
                                sorted_amps[first:], 2.0, "the L2 mass of the profile")

    last = _run_ends(sorted_radii)
    distinct, inclusive = sorted_radii[last], partial[last]
    keep = (distinct > 0.0) & (distinct <= 0.5)
    candidates, norms = distinct[keep], inclusive[keep]
    if candidates.size == 0 or norms[-1] <= epsilon:
        return 0.5
    last_ok = int(np.searchsorted(norms, epsilon, side="right")) - 1
    if last_ok < 0:
        return ZERO_EXCLUSION
    return float(candidates[last_ok])


def check_low_frequency(p: SpectralProfile, t: float, epsilon: float, *,
                        sign: str = "+", profile_id: str = "profile",
                        grid: SpaceGrid) -> list[LemmaReport]:
    """Deviation of the low-frequency part against eps + C*|t|/delta * ||p||.

    Returns the rows [L2_2, L2_4] from one synthesis: both measure the same
    deviation, L2_2 against the measured low-mass radius delta_epsilon(p,
    epsilon) and L2_4 against the uniform radius delta = epsilon.  The
    fitted constant is the smallest C making the bound hold; the verdict
    compares against CORPUS_CONSTANT.  A refused resolution gate gives two
    resolution_refused skip rows.
    """
    radius = delta_epsilon(p, epsilon)  # validates epsilon before the gate
    low = project_low(p, SPLIT_SCALE)
    if not validate_resolution(low, t, sign).ok:
        return [_skip_report(lemma_id, profile_id, "resolution_refused", {"t": t})
                for lemma_id in ("L2_2", "L2_4")]
    lhs = float(_sup_deviations(p, low.amplitudes, [t], sign, grid)[0])
    norm = hs_norm(p, 0.0)
    params = {"epsilon": epsilon, "t": t}
    rows = []
    for lemma_id, delta in (("L2_2", radius), ("L2_4", epsilon)):
        rhs = epsilon + CORPUS_CONSTANT * abs(t) * norm / delta
        scale = abs(t) * norm / delta
        fitted = max(0.0, lhs - epsilon) / scale if scale > 0 else 0.0
        rows.append(_report(lemma_id, profile_id, {**params, "delta": delta}, lhs, rhs, fitted))
    return rows


def high_frequency_part(p: SpectralProfile) -> SpectralProfile:
    """Complement of the low-frequency projection at the split scale.

    Computed as a subtraction so low part + high part reproduces the
    profile bit-for-bit.
    """
    low = project_low(p, SPLIT_SCALE)
    return p.with_amplitudes(p.amplitudes - low.amplitudes)


def check_high_frequency(p: SpectralProfile, t_values, *, sign: str = "+",
                         profile_id: str = "profile",
                         grid: SpaceGrid) -> list[LemmaReport]:
    """Linear-in-t deviation of the high-frequency part.

    Emits two rows: the fitted constant max_t(sup dev / t) against the
    phase-weighted l1 majorant, and the log-log slope of the deviation curve
    against 1 within SLOPE_TOLERANCE.  A profile with no high-frequency
    content, or a refused resolution gate at the largest time, yields a
    single skip row.  Raises ValueError when a deviation, the fitted
    constant or the majorant is not a normal double.
    """
    ts = np.asarray(t_values, dtype=np.float64)
    # a slope needs distinct times; one repeated time makes np.polyfit warn
    if len(set(ts.flat)) < 3 or not np.all(ts > 0.0):
        raise ValueError("need at least 3 distinct positive times for the linearity sweep")
    high = high_frequency_part(p)
    if not np.any(high.amplitudes != 0.0):
        return [_skip_report("L2_3", profile_id, "zero_high_frequency_part")]
    if not validate_resolution(high, float(np.max(ts)), sign).ok:
        return [_skip_report("L2_3", profile_id, "resolution_refused")]

    deviations = _sup_deviations(p, high.amplitudes, ts, sign, grid)
    with np.errstate(over="ignore"):  # an overflowing constant is refused below
        fitted_c = float(np.max(deviations / ts))
    # |exp(i t phi) - 1| <= |t phi|: the phase-weighted l1 mass bounds dev / t
    majorant = phase_moments(high, sign, (1,))[0]
    for what, value in (("a sup deviation", deviations), ("the fitted constant", fitted_c),
                        ("the majorant", majorant)):
        if not _in_range(value):
            raise ValueError(f"L2_3: {what} is not a normal double")
    slope = float(np.polyfit(np.log(ts), np.log(deviations), 1)[0])

    shared = {"t_min": float(np.min(ts)), "t_max": float(np.max(ts)), "n_t": ts.size}
    constant_row = _report("L2_3", profile_id, {"check": "constant", **shared},
                           fitted_c, majorant, fitted_c)
    slope_row = _report("L2_3", profile_id, {"check": "slope", **shared},
                        abs(slope - 1.0), SLOPE_TOLERANCE, slope)
    return [constant_row, slope_row]


def check_wiener_low(p: SpectralProfile, t: float, epsilon: float, *,
                     sign: str = "+", profile_id: str = "profile",
                     grid: SpaceGrid) -> list[LemmaReport]:
    """Deviation of each unit window piece against CORPUS_CONSTANT*(eps + |t|/eps).

    One row per piece of wiener_decompose(p) with |k| <= MAX_WINDOW_INDEX
    (the estimate is stated only there), in k order; a piece whose
    resolution gate refuses gives a resolution_refused skip row.  The grid
    l1 mass of the amplitudes rides along in params because the estimate's
    constant is tied to it.
    """
    _check_epsilon(epsilon)
    dec = wiener_decompose(p)
    keep = np.abs(dec.ks) <= MAX_WINDOW_INDEX
    ks, pieces = dec.ks[keep].tolist(), dec.table[keep]
    gated = np.array([validate_resolution(p.with_amplitudes(row), t, sign).ok
                      for row in pieces], dtype=bool)
    lhs = np.zeros(len(ks))
    if np.any(gated):
        lhs[gated] = _sup_deviations(p, pieces[gated], [t], sign, grid)
    scale = epsilon + abs(t) / epsilon
    l1_mass = float(_rescaled(lambda a: np.sum(np.abs(a)) * p.xi_step, p.amplitudes, 1.0,
                              "the l1 mass"))
    return [_report("L2_5", profile_id, {"epsilon": epsilon, "t": t, "k": k, "l1_mass": l1_mass},
                    value, CORPUS_CONSTANT * scale, value / scale) if ok
            else _skip_report("L2_5", profile_id, "resolution_refused", {"k": k, "t": t})
            for k, value, ok in zip(ks, lhs, gated)]


def check_square_function(p: SpectralProfile, t: float | None = None, *,
                          sign: str = "+", profile_id: str = "profile",
                          grid: SpaceGrid) -> LemmaReport:
    """Grid max of the window square function against the L2 norm.

    ``t=None`` checks the profile itself (lemma id L2_6); a time value
    checks the evolved profile with the same right-hand side (L2_7).  The
    grid max of the exact discrete sum only under-estimates a continuum
    sup, so no resolution gate applies to this upper-bound check.
    """
    if t is None:
        values = square_function(p, grid)
        lemma_id, params = "L2_6", {}
    else:
        values = square_function(evolve_spectral(p, t, sign), grid)
        lemma_id, params = "L2_7", {"t": t}
    lhs = float(np.max(values))
    norm = hs_norm(p, 0.0)
    fitted = lhs / norm if norm > 0 else 0.0
    return _report(lemma_id, profile_id, params, lhs, norm * (1.0 + SQUARE_SLACK), fitted)


def norm_equivalence_reports(p: SpectralProfile, *,
                             profile_id: str = "profile") -> list[LemmaReport]:
    """Two-sided comparison of the window piece norms with the full norm.

    Upper row: sum of squared piece norms <= ||p||^2.  Lower row:
    ||p||^2 <= 3 * sum.  Both inflated by NORM_EQUIV_SLACK to absorb rounding.
    Raises ValueError when either side of a non-zero profile is not a normal
    double (a square overflows or underflows), although the norms themselves
    may be in range.
    """
    norm = hs_norm(p, 0.0)
    try:  # a float square that overflows raises, a sum of squares gives inf
        piece_sum = float(sum(hs_norm(p.with_amplitudes(row), 0.0) ** 2
                              for row in wiener_decompose(p).table))
        total = norm ** 2
    except OverflowError:
        piece_sum = total = math.inf
    if norm > 0.0 and not _in_range((piece_sum, total)):
        raise ValueError("NORM_EQUIV: the squared L2 norms leave the double range")
    ratio = piece_sum / total if total > 0 else 1.0
    upper = _report("NORM_EQUIV", profile_id, {"side": "upper", "ratio": ratio},
                    piece_sum, total * (1.0 + NORM_EQUIV_SLACK), ratio)
    lower = _report("NORM_EQUIV", profile_id, {"side": "lower", "ratio": ratio},
                    total, 3.0 * piece_sum * (1.0 + NORM_EQUIV_SLACK), ratio)
    return [lower, upper]


def bernstein_report(p: SpectralProfile, *, profile_id: str = "profile",
                     grid: SpaceGrid) -> LemmaReport:
    """Largest norm ratio ||piece||_q / ||piece||_r over windows and 2<=r<q<=inf.

    Unit-width frequency support bounds every such ratio by an absolute
    constant; the empirical corpus maximum is recorded and compared to
    BERNSTEIN_CONSTANT.  A piece's ratios do not depend on its scale, so
    each row of the window table is divided in place by the power of two
    above its largest part, which is exact, and the fields are one batched
    synthesis of that table; every piece is measured, however small or
    large its amplitudes.  A zero profile, which has no piece, is skipped.
    """
    table = wiener_decompose(p).table
    if not len(table):
        return _skip_report("BERNSTEIN", profile_id, "zero_profile")
    for row in table:
        row[:] = _downscaled(row)[0]
    fields = _synthesize_rows(p, grid, table)
    worst = 0.0
    for fld in fields:
        norms = {q: lp_norm_space(fld, grid.x_step, q) for q in (2.0, 4.0, math.inf)}
        for low_p, high_p in ((2.0, 4.0), (2.0, math.inf), (4.0, math.inf)):
            worst = max(worst, norms[high_p] / norms[low_p])
    return _report("BERNSTEIN", profile_id, {"pieces": len(fields)}, worst, BERNSTEIN_CONSTANT,
                   worst)


def _profile_reports(entry: CorpusEntry, sign: str) -> list[LemmaReport]:
    """Every check on one profile, each passed its observation grid, which is chosen here alone.

    A refusal names the profile it came from.
    """
    p, pid = entry.profile, entry.profile_id
    try:
        grid = observation_grid(p, OBSERVATION_POINTS)
        low, uniform = check_low_frequency(p, T_LOW, EPSILON, sign=sign, profile_id=pid, grid=grid)
        return [
            low,
            *check_high_frequency(p, HIGH_TIMES, sign=sign, profile_id=pid, grid=grid),
            uniform,
            *check_wiener_low(p, T_LOW, WINDOW_EPSILON, sign=sign, profile_id=pid, grid=grid),
            *(check_square_function(p, t, sign=sign, profile_id=pid, grid=grid)
              for t in (None, *SQUARE_TIMES)),
            *norm_equivalence_reports(p, profile_id=pid),
            bernstein_report(p, profile_id=pid, grid=grid),
        ]
    except ValueError as exc:
        raise ValueError(f"{pid}: {exc}") from exc


def run_corpus(entries: Sequence[CorpusEntry], sign: str = "+",
               only: Iterable[str] | None = None, threads: int = 1) -> list[LemmaReport]:
    """Run every applicable check on every profile, in stable order.

    A check that cannot run (a refused resolution gate, an empty part)
    gives skip rows and never aborts the run.  The report sequence is
    keyed by (corpus order, check order), so a threaded run returns the
    identical list.
    """
    wanted: set[str] | None = None
    if only is not None:
        wanted = set(only)
        unknown = wanted.difference(LEMMA_IDS)
        if unknown:
            raise ValueError(f"unknown lemma ids: {sorted(unknown)}")

    per_profile = parallel_map(lambda e: _profile_reports(e, sign), entries, threads)
    reports = [r for group in per_profile for r in group]
    if wanted is not None:
        reports = [r for r in reports if r.lemma_id in wanted]
    return reports
