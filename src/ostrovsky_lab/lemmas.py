"""Numerical checks of the deterministic frequency-localized estimates.

Each check measures both sides of one inequality on a concrete profile
and emits a :class:`LemmaReport` whose ``passed`` flag is recomputable
from the stored fields (``passed == measured_lhs <= bound_rhs``), so a
report file audits itself.

Suprema over x are maxima over a finite observation grid.  For the
upper-bound checks (square function, Bernstein) a coarse grid can only
under-estimate the left side, never produce a false failure; for the
deviation checks the grid spans the numerically supported region plus a
margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import CorpusEntry, default_corpus, observation_grid
from .parallel import parallel_map
from .spectral import (
    ResolutionError,
    SpaceField,
    SpaceGrid,
    SpectralProfile,
    _synthesize_rows,
    _weights,
    evolution_multipliers,
    evolve_spectral,
    hs_norm,
    lp_norm_space,
    phase,
    require_resolution,
)
from .windows import project_low, square_function, wiener_decompose, wiener_project

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
    """One measured inequality: lhs, rhs, the fitted constant, verdict."""

    lemma_id: str
    profile_id: str
    params: dict
    measured_lhs: float
    bound_rhs: float
    fitted_c: float
    passed: bool

    def __post_init__(self):
        if self.lemma_id not in LEMMA_IDS:
            raise ValueError(f"unknown lemma id {self.lemma_id!r}")

    def audit(self) -> bool:
        """Recompute the verdict from the stored sides."""
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
        passed=bool(lhs <= rhs),
    )


def _skip_report(lemma_id: str, profile_id: str, reason: str, params: dict | None = None) -> LemmaReport:
    """A check that could not run: record why, count as vacuously true."""
    merged = {"skip": reason}
    if params:
        merged.update(params)
    return _report(lemma_id, profile_id, merged, 0.0, 0.0, 0.0)


def _sup_deviations(p: SpectralProfile, ts, sign: str, grid: SpaceGrid) -> np.ndarray:
    """max over `grid` of |U(t)p - p| per time, from one batched synthesis of (U(t)-I)p."""
    rows = p.amplitudes * (evolution_multipliers(p, ts, sign) - 1.0)
    return np.max(np.abs(_synthesize_rows(p, grid, rows)), axis=1)


def delta_epsilon(p: SpectralProfile, epsilon: float) -> float:
    """Largest grid radius delta <= 1/2 whose L2 mass on |xi| <= delta is <= epsilon.

    Found by bisection over the cumulative mass at the distinct grid radii;
    capped at 1/2.  If even the innermost occupied radius carries more than
    epsilon, falls back to the zero-exclusion radius (mass there is zero).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    radii = np.abs(p.xi)
    order = np.argsort(radii, kind="stable")
    sorted_radii = radii[order]
    cumulative = np.cumsum(np.abs(p.amplitudes[order]) ** 2 * p.xi_step)

    distinct = np.unique(sorted_radii)
    inclusive = cumulative[np.searchsorted(sorted_radii, distinct, side="right") - 1]
    keep = distinct <= 0.5
    candidates, masses = distinct[keep], inclusive[keep]
    if candidates.size == 0 or masses[-1] <= epsilon**2:
        return 0.5
    last_ok = int(np.searchsorted(masses, epsilon**2, side="right")) - 1
    if last_ok < 0:
        return p.zero_exclusion
    return float(candidates[last_ok])


def check_low_frequency(p: SpectralProfile, t: float, epsilon: float, *,
                        sign: str = "+", profile_id: str = "profile",
                        delta: float | None = None,
                        grid: SpaceGrid | None = None) -> LemmaReport:
    """Deviation of the low-frequency part against eps + C*|t|/delta * ||p||.

    With ``delta=None`` the radius is the measured low-mass radius
    (lemma id L2_2); passing ``delta=epsilon`` gives the uniform variant
    (lemma id L2_4).  The fitted constant is the smallest C making the
    bound hold; the verdict compares against CORPUS_CONSTANT.
    A measured radius of 0 (the fallback for a profile whose zero-exclusion
    radius is 0) leaves the bound undefined and yields a skip row.
    """
    lemma_id = "L2_2" if delta is None else "L2_4"
    low = project_low(p, SPLIT_SCALE)
    require_resolution(low, t, sign)
    params = {"epsilon": epsilon, "t": t}
    if delta is None:
        delta = delta_epsilon(p, epsilon)
        if delta == 0.0:
            return _skip_report(lemma_id, profile_id, "no_low_mass_radius", params)
    if grid is None:
        grid = observation_grid(p)
    lhs = float(_sup_deviations(low, [t], sign, grid)[0])
    norm = hs_norm(p, 0.0)
    rhs = epsilon + CORPUS_CONSTANT * abs(t) * norm / delta
    scale = abs(t) * norm / delta
    fitted = max(0.0, lhs - epsilon) / scale if scale > 0 else 0.0
    return _report(lemma_id, profile_id, {**params, "delta": delta}, lhs, rhs, fitted)


def high_frequency_part(p: SpectralProfile) -> SpectralProfile:
    """Complement of the low-frequency projection at the split scale.

    Computed as a subtraction so low part + high part reproduces the
    profile bit-for-bit.
    """
    low = project_low(p, SPLIT_SCALE)
    return p.with_amplitudes(p.amplitudes - low.amplitudes)


def high_frequency_majorant(p: SpectralProfile, sign: str = "+") -> float:
    """Grid value of the phase-weighted l1 mass of the high part.

    Since |exp(i*t*phi) - 1| <= |t|*|phi|, the deviation field of the high
    part is bounded by t times this sum for every t; the fitted constant
    of the linearity sweep must sit below it.
    """
    high = high_frequency_part(p)
    nz = high.amplitudes != 0.0
    if not np.any(nz):
        return 0.0
    weights = _weights(high)[nz] * np.abs(phase(high.xi[nz], sign))
    return float(np.sum(weights * np.abs(high.amplitudes[nz])))


def check_high_frequency(p: SpectralProfile, t_values, *, sign: str = "+",
                         profile_id: str = "profile",
                         grid: SpaceGrid | None = None) -> list[LemmaReport]:
    """Linear-in-t deviation of the high-frequency part.

    Emits two self-auditing rows: the fitted constant max_t(sup dev / t)
    against the phase-weighted l1 majorant, and the log-log slope of the
    deviation curve against 1 within SLOPE_TOLERANCE.  A profile with
    no high-frequency content yields a single skip row.
    """
    ts = np.asarray(t_values, dtype=np.float64)
    if ts.size < 3 or np.any(ts <= 0):
        raise ValueError("need at least 3 positive times for the linearity sweep")
    high = high_frequency_part(p)
    if not np.any(high.amplitudes != 0.0):
        return [_skip_report("L2_3", profile_id, "zero_high_frequency_part")]
    require_resolution(high, float(np.max(ts)), sign)
    if grid is None:
        grid = observation_grid(p)

    deviations = _sup_deviations(high, ts, sign, grid)
    fitted_c = float(np.max(deviations / ts))
    majorant = high_frequency_majorant(p, sign)
    slope = float(np.polyfit(np.log(ts), np.log(deviations), 1)[0])

    shared = {"t_min": float(np.min(ts)), "t_max": float(np.max(ts)), "n_t": ts.size}
    constant_row = _report("L2_3", profile_id, {"check": "constant", **shared},
                           fitted_c, majorant, fitted_c)
    slope_row = _report("L2_3", profile_id, {"check": "slope", **shared},
                        abs(slope - 1.0), SLOPE_TOLERANCE, slope)
    return [constant_row, slope_row]


def check_wiener_low(p: SpectralProfile, t: float, epsilon: float, k: int, *,
                     sign: str = "+", profile_id: str = "profile",
                     grid: SpaceGrid | None = None) -> LemmaReport:
    """Deviation of one unit window piece against CORPUS_CONSTANT*(eps + |t|/eps).

    Only stated for window indices |k| <= 8; larger k is out of scope and
    rejected.  The grid l1 mass of the amplitudes rides along in params
    because the estimate's constant is tied to it.
    """
    if abs(k) > MAX_WINDOW_INDEX:
        raise ValueError(f"window index {k} out of scope; need |k| <= {MAX_WINDOW_INDEX}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    piece = wiener_project(p, k)
    require_resolution(piece, t, sign)
    if grid is None:
        grid = observation_grid(p)
    lhs = float(_sup_deviations(piece, [t], sign, grid)[0])
    scale = epsilon + abs(t) / epsilon
    l1_mass = float(np.sum(np.abs(p.amplitudes)) * p.xi_step)
    params = {"epsilon": epsilon, "t": t, "k": k, "l1_mass": l1_mass}
    return _report("L2_5", profile_id, params, lhs, CORPUS_CONSTANT * scale, lhs / scale)


def check_square_function(p: SpectralProfile, t: float | None = None, *,
                          sign: str = "+", profile_id: str = "profile",
                          grid: SpaceGrid | None = None) -> LemmaReport:
    """Grid max of the window square function against the L2 norm.

    ``t=None`` checks the profile itself (lemma id L2_6); a time value
    checks the evolved profile with the same right-hand side (L2_7).  The
    grid max of the exact discrete sum only under-estimates a continuum
    sup, so no resolution gate applies to this upper-bound check.
    """
    if grid is None:
        grid = observation_grid(p)
    if t is None:
        evolved = p
        lemma_id, params = "L2_6", {}
    else:
        evolved = evolve_spectral(p, t, sign)
        lemma_id, params = "L2_7", {"t": t}
    values = square_function(evolved, grid)
    lhs = float(np.max(values.values.real))
    norm = hs_norm(p, 0.0)
    fitted = lhs / norm if norm > 0 else 0.0
    return _report(lemma_id, profile_id, params, lhs, norm * (1.0 + SQUARE_SLACK), fitted)


def norm_equivalence_reports(p: SpectralProfile, *,
                             profile_id: str = "profile") -> list[LemmaReport]:
    """Two-sided comparison of the window piece norms with the full norm.

    Upper row: sum of squared piece norms <= ||p||^2.  Lower row:
    ||p||^2 <= 3 * sum.  Both inflated by NORM_EQUIV_SLACK to absorb rounding.
    """
    table = wiener_decompose(p).table
    piece_sum = float(sum(hs_norm(p.with_amplitudes(row), 0.0) ** 2 for row in table))
    total = hs_norm(p, 0.0) ** 2
    ratio = piece_sum / total if total > 0 else 1.0
    upper = _report("NORM_EQUIV", profile_id, {"side": "upper", "ratio": ratio},
                    piece_sum, total * (1.0 + NORM_EQUIV_SLACK), ratio)
    lower = _report("NORM_EQUIV", profile_id, {"side": "lower", "ratio": ratio},
                    total, 3.0 * piece_sum * (1.0 + NORM_EQUIV_SLACK), ratio)
    return [lower, upper]


def bernstein_report(p: SpectralProfile, *, profile_id: str = "profile",
                     grid: SpaceGrid | None = None) -> LemmaReport:
    """Largest norm ratio ||piece||_q / ||piece||_r over windows and 2<=r<q<=inf.

    Unit-width frequency support bounds every such ratio by an absolute
    constant; the empirical corpus maximum is recorded and compared to
    BERNSTEIN_CONSTANT.
    """
    if grid is None:
        grid = observation_grid(p)
    table = wiener_decompose(p).table
    rows = table[np.any(table != 0.0, axis=1)]
    fields = _synthesize_rows(p, grid, rows) if rows.size else []
    worst = 0.0
    measured = 0
    for values in fields:
        fld = SpaceField(grid.x_min, grid.x_step, values)
        norms = {q: lp_norm_space(fld, q) for q in (2.0, 4.0, math.inf)}
        if norms[2.0] == 0.0:
            continue
        measured += 1
        for low_p, high_p in ((2.0, 4.0), (2.0, math.inf), (4.0, math.inf)):
            if norms[low_p] > 0:
                worst = max(worst, norms[high_p] / norms[low_p])
    if measured == 0:
        return _skip_report("BERNSTEIN", profile_id, "zero_profile")
    return _report("BERNSTEIN", profile_id, {"pieces": measured}, worst, BERNSTEIN_CONSTANT, worst)


def _window_indices(p: SpectralProfile) -> list[int]:
    """In-scope window indices whose piece is not identically zero."""
    dec = wiener_decompose(p)
    return [k for k, row in enumerate(dec.table, start=dec.k_min)
            if abs(k) <= MAX_WINDOW_INDEX and np.any(row != 0.0)]


def _profile_reports(entry: CorpusEntry, sign: str) -> list[LemmaReport]:
    p = entry.profile
    pid = entry.profile_id
    grid = observation_grid(p)
    reports: list[LemmaReport] = []

    def guarded(lemma_id: str, params: dict, fn: Callable[[], list[LemmaReport]]):
        try:
            reports.extend(fn())
        except ResolutionError:
            reports.append(_skip_report(lemma_id, pid, "resolution_refused", params))

    guarded("L2_2", {"t": T_LOW}, lambda: [check_low_frequency(
        p, T_LOW, EPSILON, sign=sign, profile_id=pid, grid=grid)])
    guarded("L2_3", {}, lambda: check_high_frequency(
        p, HIGH_TIMES, sign=sign, profile_id=pid, grid=grid))
    guarded("L2_4", {"t": T_LOW}, lambda: [check_low_frequency(
        p, T_LOW, EPSILON, sign=sign, profile_id=pid, delta=EPSILON, grid=grid)])
    for k in _window_indices(p):
        guarded("L2_5", {"k": k, "t": T_LOW}, lambda k=k: [check_wiener_low(
            p, T_LOW, WINDOW_EPSILON, k, sign=sign, profile_id=pid, grid=grid)])
    reports.append(check_square_function(p, None, sign=sign, profile_id=pid, grid=grid))
    for t in SQUARE_TIMES:
        reports.append(check_square_function(p, t, sign=sign, profile_id=pid, grid=grid))
    reports.extend(norm_equivalence_reports(p, profile_id=pid))
    reports.append(bernstein_report(p, profile_id=pid, grid=grid))
    return reports


def run_corpus(entries: Sequence[CorpusEntry] | None = None,
               sign: str = "+",
               only: Iterable[str] | None = None,
               threads: int = 1) -> list[LemmaReport]:
    """Run every applicable check on every profile, in stable order.

    Per-check failures become skip rows, never abort the run.  The report
    sequence is keyed by (corpus order, check order), so a threaded run
    returns the identical list.
    """
    if entries is None:
        entries = default_corpus()
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
