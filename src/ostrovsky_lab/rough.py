"""Maximal-function experiments for rough (low-regularity) data.

The family under test concentrates on the dyadic band 2^k <= |xi| <= 2^(k+1),
cut into BAND_CELLS cells, with amplitude 2^(-k(s+1/2)), which pins its H^s
norm near a k-independent constant.  Scanning sup_t |U(t) f_k| over a
shrinking time window t <= 2^(-3k)/100 and measuring its L4 norm on
|x| <= 2^(-k) produces ratios R_k whose log2 grows linearly in k with slope
1/4 - s; fitting that slope is the point of the module.

The scan samples a geometric time grid.  The sup between its nodes is not
searched for but bounded from the phase moments of the profile, so
counterexample_ratio reports R_k with a certified upper end, and
slope_range gives the fitted slopes that bracket allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import band_profile
from .spectral import (
    SpaceField,
    SpaceGrid,
    SpectralProfile,
    _deviation_multipliers,
    _require_budget,
    evolution_multipliers,
    hs_norm,
    lp_norm_space,
    phase_moments,
    quadrature_row,
    require_resolution,
)

__all__ = [
    "CounterexampleSpec",
    "ScalingFit",
    "counterexample_profile",
    "counterexample_ratio",
    "convergence_trace",
    "maximal_scan",
    "maximal_time_grid",
    "scaling_fit",
    "slope_range",
]

#: Ratio between the smallest and largest scanned time.
TIME_SPAN = 1e-4

#: Grid cells across each dyadic band of the family.
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


def counterexample_profile(spec: CounterexampleSpec) -> SpectralProfile:
    """Indicator of 2^k <= |xi| <= 2^(k+1) (both signs) at the family amplitude.

    The grid spans [-2^(k+1), 2^(k+1)] and cuts each band into BAND_CELLS
    cells.
    """
    lo, hi = spec.band
    return band_profile(lo, hi, spec.amplitude, -hi, hi, lo / BAND_CELLS, even=True)


def maximal_time_grid(t_max: float, n_t: int) -> np.ndarray:
    """Geometric times over [t_max * TIME_SPAN, t_max], largest last.

    Refining n_t -> 2*n_t - 1 keeps every existing node, so sup scans over
    refined grids are monotone.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    if n_t == 1:
        return np.array([t_max])
    exponents = 1.0 - np.arange(n_t) / (n_t - 1)
    return t_max * TIME_SPAN**exponents


def maximal_scan(p: SpectralProfile, sign: str, t_max: float, grid: SpaceGrid,
                 n_t: int) -> SpaceField:
    """Field on `grid` of the sup of |U(t) f (x)| over the geometric time grid.

    p must be Hermitian, a(-xi) = conj(a(xi)) bit for bit, on a grid exactly
    symmetric about 0, as every counterexample_profile is; anything else
    raises ValueError.  The phase xi**3 + sign/xi is odd, so the -xi term of
    the field is the conjugate of the xi term and

        U(t) f (x) = 2 Re sum_{xi > 0} q(x, xi) exp(i t phase(xi)),

    with q a point row of p (weights times amplitudes).  The scan keeps the
    xi > 0 support columns of quadrature_row and takes the real rows
    [Re q, -Im q] once.  Each block of _BLOCK times is one real product of
    the rows with the block from evolution_multipliers, whose [cos, sin] of
    t * phase viewed as doubles is the product's operand as it stands.  The
    sup between the nodes is not sampled; see counterexample_ratio for its
    certified bound.  A scan whose time vector, point rows or block products
    would exceed MAX_ARRAY_BYTES is refused before they are built.
    """
    _require_budget(8 * n_t, f"a scan over {n_t} times")
    xi, amps = p.xi, p.amplitudes
    if not (np.array_equal(xi[::-1], -xi) and np.array_equal(amps, np.conj(amps[::-1]))):
        raise ValueError("maximal_scan needs Hermitian amplitudes on a grid "
                         "exactly symmetric about xi = 0")
    support = np.flatnonzero((xi > 0.0) & (amps != 0.0))
    # the point rows are n_x x 2m doubles and each block's product n_x x _BLOCK
    _require_budget(8 * grid.n * max(2 * support.size, _BLOCK),
                    f"scanning {grid.n} points over {support.size} support columns")
    require_resolution(p, t_max, sign)
    ts = maximal_time_grid(t_max, n_t)
    # conj(q) viewed as doubles interleaves [Re q, -Im q], and exp(i t phi)
    # interleaves [cos, sin]: their real product is Re(q exp(i t phi))
    rows = quadrature_row(p, grid.points, support)
    rows *= amps[support]
    rows = np.conj(rows, out=rows).view(np.float64)
    sup = np.full(grid.n, -np.inf)
    for lo in range(0, n_t, _BLOCK):
        block = evolution_multipliers(p, ts[lo:lo + _BLOCK], sign, support)
        sup = np.maximum(sup, _block_sup(rows, block))
    return SpaceField(grid.x_min, grid.x_step, 2.0 * sup)


def _block_sup(rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Per point, the max of half |U(t) f| over the times of one block of factors.

    Every block is the same (n_x, 2m) x (2m, _BLOCK) product, a short one
    zero-padded, so a time's value does not depend on how many times are
    scanned or where it sits in its block, and refined time grids give
    monotone sups.  The block's arrays die on return, before the next block
    is built.
    """
    count = len(factors)
    if count < _BLOCK:
        factors = np.pad(factors, ((0, _BLOCK - count), (0, 0)))
    magnitudes = rows @ factors.view(np.float64).T
    np.abs(magnitudes, out=magnitudes)
    return magnitudes[:, :count].max(axis=1)


def _window_bound(p: SpectralProfile, sign: str, sup: np.ndarray, t_max: float,
                  n_t: int) -> np.ndarray:
    """Per point, an upper bound of |U(t) f (x)| over [t_max * TIME_SPAN, t_max].

    `sup` is the maximal scan of p on its n_t times.  With (S, L, L2) =
    phase_moments(p, sign), |U(t) f|^2 has zero slope at an interior maximum,
    and its second derivative 2 |F'|^2 + 2 Re(conj(F) F'') is at least
    -2 S L2.  The nearest node lies within half the largest step `gap`, so
    the bound is sqrt(sup^2 + S L2 gap^2 / 4).  At n_t = 1 the window's left
    end is not a node and the sup may sit there with a non-zero slope, so
    the first-order sup + L (1 - TIME_SPAN) t_max is used instead.
    """
    # moments per time step (or window width) stay in range at every k the
    # family admits; the unscaled L2 overflows from k = 147 at s = 0
    if n_t == 1:
        return sup + phase_moments(p, sign, (1.0 - TIME_SPAN) * t_max)[1]
    gap = float(np.max(np.diff(maximal_time_grid(t_max, n_t))))
    total, _, curvature = phase_moments(p, sign, gap)
    return np.hypot(sup, math.sqrt(total * curvature) / 2.0)


def counterexample_ratio(spec: CounterexampleSpec, n_t: int,
                         sign: str = "+") -> tuple[float, float]:
    """(R_k, R_k_upper): L4 norms on |x| <= 2^-k of the scan and of its bound, over the H^s norm.

    R_k reads the maximal scan on its n_t times, and R_k_upper the certified
    bound of the sup over the whole time window at each point (see
    _window_bound), so R_k <= the window's true ratio <= R_k_upper.  Raises
    ValueError when either ratio leaves the double range, so that neither
    is 0, inf or nan.
    """
    p = counterexample_profile(spec)
    w = spec.x_window
    grid = SpaceGrid.spanning(-w, w, WINDOW_POINTS)
    sup = maximal_scan(p, sign, spec.t_max, grid, n_t).values.real
    norm = hs_norm(p, spec.s)
    upper = _window_bound(p, sign, sup, spec.t_max, n_t)
    ratios = tuple(lp_norm_space(SpaceField(grid.x_min, grid.x_step, field), 4.0) / norm
                   if norm > 0.0 else math.nan for field in (sup, upper))
    for ratio in ratios:
        if not 0.0 < ratio < math.inf:
            raise ValueError(f"R_k = {ratio} at k = {spec.k}, s = {spec.s!r}: "
                             "the norms leave the double range")
    return ratios


@dataclass
class ScalingFit:
    """Least-squares line through (k, log2 R_k)."""

    slope: float
    intercept: float
    residual: float  # max |log2 R_k - fit|


def _log2_ratios(ks, *ends) -> tuple[np.ndarray, list[np.ndarray]]:
    """k as doubles and log2 of each ratio sequence, after the checks both slope fits share."""
    ks, ends = np.asarray(ks, dtype=np.float64), [np.asarray(r, dtype=np.float64) for r in ends]
    if ks.ndim != 1 or ks.size < 3:
        raise ValueError("need at least three (k, R_k) points")
    if any(r.shape != ks.shape for r in ends):
        raise ValueError("k and R_k sequences must have matching lengths")
    if np.all(ks == ks[0]):
        raise ValueError("k values are degenerate (all equal)")
    if not all(np.all((r > 0.0) & (r < np.inf)) for r in ends):
        raise ValueError("ratios must be positive and finite")
    if len(ends) == 2 and np.any(ends[0] > ends[1]):
        raise ValueError("lower ends must not exceed upper ends")
    return ks, [np.log2(r) for r in ends]


def scaling_fit(points) -> ScalingFit:
    """Fit log2(R_k) = slope * k + intercept over >= 3 distinct k."""
    pts = [(int(k), float(r)) for k, r in points]
    ks, (logs,) = _log2_ratios([k for k, _ in pts], [r for _, r in pts])
    design = np.stack([ks, np.ones_like(ks)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, logs, rcond=None)
    residual = float(np.max(np.abs(logs - (slope * ks + intercept))))
    return ScalingFit(float(slope), float(intercept), residual)


def slope_range(ks, lower, upper) -> tuple[float, float]:
    """Extreme least-squares slopes of log2 R_k in k when R_k may lie anywhere in [lower, upper].

    The slope is sum c_k log2 R_k with c_k = (k - mean k) / sum (k - mean k)^2,
    so its least value takes the lower end where c_k > 0 and the upper end
    elsewhere, and its largest value the other way round.
    """
    ks, (lo, hi) = _log2_ratios(ks, lower, upper)
    centred = ks - np.mean(ks)
    c = centred / np.sum(centred * centred)
    return (float(np.sum(c * np.where(c > 0.0, lo, hi))),
            float(np.sum(c * np.where(c > 0.0, hi, lo))))


def convergence_trace(p: SpectralProfile, x: float, t_sequence, sign: str = "+") -> np.ndarray:
    """|U(t) f (x) - f (x)| along a time sequence decreasing towards 0.

    Each deviation is the point synthesis of (U(t) - I) f, whose amplitude
    multiplier ``M - 1`` is exactly zero in a t = 0 row, so a t = 0 entry
    is exactly 0.0.
    """
    _, deviation = _deviation_multipliers(p, t_sequence, sign)
    return np.abs(p.amplitudes * deviation @ quadrature_row(p, x))
