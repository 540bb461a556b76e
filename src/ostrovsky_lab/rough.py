"""Maximal-function experiments for rough (low-regularity) data.

The family under test concentrates on the dyadic band 2^k <= |xi| <= 2^(k+1)
with amplitude 2^(-k(s+1/2)), which pins its H^s norm near a k-independent
constant.  Scanning sup_t |U(t) f_k| over a shrinking time window
t <= 2^(-3k)/100 and measuring its L4 norm on |x| <= 2^(-k) produces ratios
R_k whose log2 grows linearly in k with slope 1/4 - s; fitting that slope is
the point of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    SpaceField,
    SpaceGrid,
    SpectralProfile,
    evolution_multipliers,
    hs_norm,
    lp_norm_space,
    quadrature_row,
    require_resolution,
)

__all__ = [
    "CounterexampleSpec",
    "MaximalScan",
    "ScalingFit",
    "counterexample_profile",
    "counterexample_ratio",
    "convergence_trace",
    "maximal_scan",
    "maximal_time_grid",
    "scaling_fit",
]

#: Ratio between the smallest and largest scanned time.
TIME_SPAN = 1e-4

#: Minimum number of grid cells across one dyadic band.
MIN_BAND_CELLS = 64

#: Grid cells across each dyadic band in counterexample_ratio.
BAND_CELLS = 256

#: Points of the spatial grid on |x| <= 2^-k in counterexample_ratio.
WINDOW_POINTS = 257

#: Times per coarse-scan block: bounds memory whatever n_t.
_BLOCK = 256


@dataclass
class CounterexampleSpec:
    """Band index k >= 1 and Sobolev exponent s of the rough family."""

    k: int
    s: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("band index k must be >= 1")
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")
        try:
            in_range = all(0.0 < v < math.inf
                           for v in (*self.band, self.amplitude, self.t_max))
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(f"k = {self.k}, s = {self.s!r}: band, amplitude or time "
                             "window leaves the positive double range")

    @property
    def band(self) -> tuple[float, float]:
        return (2.0**self.k, 2.0 ** (self.k + 1))

    @property
    def amplitude(self) -> float:
        return 2.0 ** (-self.k * (self.s + 0.5))

    @property
    def t_max(self) -> float:
        return 2.0 ** (-3 * self.k) / 100.0

    @property
    def x_window(self) -> float:
        return 2.0**-self.k


def counterexample_profile(spec: CounterexampleSpec, xi_step: float) -> SpectralProfile:
    """Indicator of 2^k <= |xi| <= 2^(k+1) (both signs) at the family amplitude.

    The grid spans [-2^(k+1), 2^(k+1)] and `xi_step` must cut each band
    into at least MIN_BAND_CELLS whole cells.
    """
    lo, hi = spec.band
    cells = (hi - lo) / xi_step
    if abs(cells - round(cells)) > 1e-9 * cells:
        raise ValueError("xi_step must divide the dyadic band into whole cells")
    if round(cells) < MIN_BAND_CELLS:
        raise ValueError(
            f"xi_step cuts the band into {int(round(cells))} cells; "
            f"need at least {MIN_BAND_CELLS}"
        )
    n = int(round(2.0 * hi / xi_step)) + 1
    xi = -hi + xi_step * np.arange(n)
    amps = np.where((np.abs(xi) >= lo) & (np.abs(xi) <= hi), spec.amplitude, 0.0)
    return SpectralProfile(-hi, xi_step, amps)


def maximal_time_grid(t_max: float, n_t: int) -> np.ndarray:
    """Geometric times over [t_max * TIME_SPAN, t_max], largest last.

    Refining n_t -> 2*n_t - 1 keeps every existing node, so sup scans over
    refined grids are monotone.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    if n_t == 1:
        return np.array([t_max])
    exponents = 1.0 - np.arange(n_t) / (n_t - 1)
    return t_max * TIME_SPAN**exponents


@dataclass
class MaximalScan:
    """Pointwise sup over scanned times of |U(t) f| on a spatial grid."""

    x_min: float
    x_step: float
    sup_values: np.ndarray
    t_count: int
    t_max: float

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.x_step * np.arange(self.sup_values.size)

    def as_field(self) -> SpaceField:
        return SpaceField(self.x_min, self.x_step, self.sup_values)


def maximal_scan(p: SpectralProfile, sign: str, t_max: float, grid: SpaceGrid,
                 n_t: int = 256, refine_around_peak: bool = True) -> MaximalScan:
    """Scan |U(t) f (x)| over the geometric time grid and keep the sup per x.

    Every field value is a point row of p (weights times amplitudes) dotted
    with the propagator factors; the coarse pass takes the times in blocks
    of _BLOCK and keeps each point's first largest time.  With
    `refine_around_peak` a second pass samples eight extra times inside the
    bracket around each point's coarse argmax, which only ever raises the sup.
    """
    require_resolution(p, t_max, sign)
    ts = maximal_time_grid(t_max, n_t)
    rows = quadrature_row(p, grid.points) * p.amplitudes  # (n_x, n_xi)
    sup = np.full(grid.n, -np.inf)
    peak = np.zeros(grid.n, dtype=np.intp)
    for lo in range(0, n_t, _BLOCK):
        magnitudes = np.abs(evolution_multipliers(p, ts[lo:lo + _BLOCK], sign) @ rows.T)
        best = magnitudes.argmax(axis=0)
        top = magnitudes[best, np.arange(grid.n)]
        larger = top > sup  # strict, so an earlier block keeps a tie
        sup = np.where(larger, top, sup)
        peak = np.where(larger, lo + best, peak)

    if refine_around_peak and n_t > 1:
        t_lo = ts[np.maximum(peak - 1, 0)]
        t_hi = ts[np.minimum(peak + 1, n_t - 1)]
        for j in range(8):
            # bracket around each point's own argmax: a per-x time, so only
            # the row-wise product with that point's row is needed
            tj = t_lo * (t_hi / t_lo) ** ((j + 1) / 9.0)
            refined = np.einsum("xj,xj->x", evolution_multipliers(p, tj, sign), rows)
            sup = np.maximum(sup, np.abs(refined))
    return MaximalScan(grid.x_min, grid.x_step, sup, n_t, t_max)


def counterexample_ratio(spec: CounterexampleSpec, n_t: int = 256, sign: str = "+") -> float:
    """R_k: L4 norm of the maximal scan on |x| <= 2^-k over the H^s norm.

    Raises ValueError when either norm leaves the double range, so that
    R_k is never 0, inf or nan.
    """
    xi_step = 2.0**spec.k / BAND_CELLS
    p = counterexample_profile(spec, xi_step)
    w = spec.x_window
    grid = SpaceGrid.spanning(-w, w, WINDOW_POINTS)
    scan = maximal_scan(p, sign, spec.t_max, grid, n_t)
    norm = hs_norm(p, spec.s)
    ratio = lp_norm_space(scan.as_field(), 4.0) / norm if norm > 0.0 else math.nan
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"R_k = {ratio} at k = {spec.k}, s = {spec.s!r}: "
                         "the norms leave the double range")
    return ratio


@dataclass
class ScalingFit:
    """Least-squares line through (k, log2 R_k)."""

    points: list  # (k, R_k) pairs
    slope: float
    intercept: float
    residual: float  # max |log2 R_k - fit|


def scaling_fit(points) -> ScalingFit:
    """Fit log2(R_k) = slope * k + intercept over >= 3 distinct k."""
    pts = [(int(k), float(r)) for k, r in points]
    if len(pts) < 3:
        raise ValueError("need at least three (k, R_k) points")
    ks = np.array([k for k, _ in pts], dtype=np.float64)
    rs = np.array([r for _, r in pts])
    if np.any(rs <= 0.0):
        raise ValueError("ratios must be positive")
    if np.all(ks == ks[0]):
        raise ValueError("k values are degenerate (all equal)")
    logs = np.log2(rs)
    design = np.stack([ks, np.ones_like(ks)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, logs, rcond=None)
    residual = float(np.max(np.abs(logs - (slope * ks + intercept))))
    return ScalingFit(pts, float(slope), float(intercept), residual)


def convergence_trace(p: SpectralProfile, x: float, t_sequence, sign: str = "+") -> np.ndarray:
    """|U(t) f (x) - f (x)| along a time sequence decreasing towards 0.

    Each deviation is the point synthesis of (U(t) - I) f, whose amplitude
    multiplier ``M - 1`` is exactly zero in a t = 0 row, so a t = 0 entry
    is exactly 0.0.
    """
    ts = np.asarray(t_sequence, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("need a non-empty t sequence")
    if ts.size > 1 and np.any(np.diff(ts) >= 0.0):
        raise ValueError("t_sequence must be strictly decreasing")
    require_resolution(p, float(np.max(np.abs(ts))), sign)
    rows = p.amplitudes * (evolution_multipliers(p, ts, sign) - 1.0)
    return np.abs(rows @ quadrature_row(p, x))
