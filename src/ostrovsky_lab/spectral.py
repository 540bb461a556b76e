"""Frequency-side data containers, the free propagator, and discrete norms.

The propagator acts on Fourier data by the unimodular multiplier

    exp(i * t * (xi**3 + sign / xi)),      sign in {+1, -1},

and fields are recovered by the inverse transform with the symmetric
1/sqrt(2*pi) normalisation.  Everything here is plain trapezoid quadrature
on uniform grids; the two design points that deserve a comment are

* the multiplier phase blows up at xi = 0, so profiles carry a hard
  exclusion radius: grid points with |xi| below it are zeroed at
  construction and the removed l1 mass is recorded rather than silently
  dropped;
* time evolution is only trusted while the phase advances by at most
  MAX_PHASE_INCREMENT radians per grid cell at every point that carries
  amplitude; `propagate` refuses to synthesise otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "DEFAULT_ZERO_EXCLUSION",
    "MAX_PHASE_INCREMENT",
    "SQRT_2PI",
    "ResolutionError",
    "ResolutionReport",
    "SpaceField",
    "SpaceGrid",
    "SpectralProfile",
    "evolution_multipliers",
    "evolve_spectral",
    "hs_norm",
    "lp_norm_space",
    "phase",
    "phase_derivative",
    "propagate",
    "quadrature_row",
    "require_resolution",
    "synthesize",
    "trapezoid_weights",
    "validate_resolution",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Default exclusion radius around the singular frequency xi = 0.
DEFAULT_ZERO_EXCLUSION = 2.0**-20

#: Largest tolerated phase advance per grid cell, in radians.
MAX_PHASE_INCREMENT = 0.1

_SIGNS = {"+": 1.0, "-": -1.0}


def _check_sign(sign: str) -> float:
    try:
        return _SIGNS[sign]
    except KeyError:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}") from None


def _check_evolution(t: float, sign: str) -> None:
    """Reject a non-finite evolution time or a sign other than '+' / '-'."""
    _check_sign(sign)
    if not math.isfinite(t):
        raise ValueError("t must be finite")


@dataclass
class SpectralProfile:
    """Complex Fourier amplitudes sampled on a uniform frequency grid.

    Grid point j sits at ``xi_min + j * xi_step``.  Construction zeroes
    every amplitude with ``|xi| < zero_exclusion`` and stores the removed
    l1 mass (step-weighted) in ``truncated_mass``.
    """

    xi_min: float
    xi_step: float
    amplitudes: np.ndarray
    zero_exclusion: float = DEFAULT_ZERO_EXCLUSION
    truncated_mass: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not (math.isfinite(self.xi_min) and math.isfinite(self.xi_step)):
            raise ValueError("grid origin and step must be finite")
        if self.xi_step <= 0.0:
            raise ValueError(f"xi_step must be positive, got {self.xi_step}")
        if not (math.isfinite(self.zero_exclusion) and self.zero_exclusion >= 0.0):
            raise ValueError("zero_exclusion must be finite and >= 0")
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d array")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        self.amplitudes = amps
        xi = self.xi
        inside = np.abs(xi) < self.zero_exclusion
        if np.any(inside):
            self.truncated_mass = float(np.sum(np.abs(amps[inside])) * self.xi_step)
            amps[inside] = 0.0
        if np.any((xi == 0.0) & (amps != 0.0)):
            raise ValueError("xi = 0 may not carry amplitude (phase is singular there)")
        self.amplitudes.setflags(write=False)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def xi(self) -> np.ndarray:
        return self.xi_min + self.xi_step * np.arange(self.n)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "SpectralProfile":
        """Same grid and exclusion radius, new amplitude array."""
        return SpectralProfile(self.xi_min, self.xi_step, amplitudes, self.zero_exclusion)


@dataclass
class SpaceGrid:
    """Uniform grid of observation points x_min + j * x_step, j < n."""

    x_min: float
    x_step: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_step)):
            raise ValueError("grid origin and step must be finite")
        if self.x_step <= 0.0:
            raise ValueError(f"x_step must be positive, got {self.x_step}")
        if self.n < 1:
            raise ValueError("grid needs at least one point")

    @classmethod
    def spanning(cls, lo: float, hi: float, n: int) -> "SpaceGrid":
        if n < 2:
            raise ValueError("spanning grid needs n >= 2")
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        return cls(lo, (hi - lo) / (n - 1), n)

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.x_step * np.arange(self.n)


@dataclass
class SpaceField:
    """Complex field values sampled on a uniform spatial grid."""

    x_min: float
    x_step: float
    values: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_step)):
            raise ValueError("grid origin and step must be finite")
        if self.x_step <= 0.0:
            raise ValueError(f"x_step must be positive, got {self.x_step}")
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("values must be finite")
        self.values = vals

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.x_step * np.arange(self.n)


@dataclass
class ResolutionReport:
    """Outcome of the per-cell phase-increment check."""

    max_phase_increment: float
    truncated_mass: float
    ok: bool


class ResolutionError(ValueError):
    """A propagation request failed the phase-resolution rule."""

    def __init__(self, report: ResolutionReport):
        super().__init__(
            f"phase advance {report.max_phase_increment:.3g} rad per cell exceeds "
            f"{MAX_PHASE_INCREMENT}; refine xi_step or reduce |t|"
        )
        self.report = report


# ---------------------------------------------------------------------------
# propagator phase
# ---------------------------------------------------------------------------


def phase(xi, sign: str = "+"):
    """Dispersion phase xi**3 + sign/xi.

    Rejects xi = 0, and any xi whose phase leaves the double range (xi**3
    overflows for |xi| above about 5.6e102), naming the frequency reach.
    """
    s = _check_sign(sign)
    x = np.asarray(xi, dtype=np.float64)
    if np.any(x == 0.0):
        raise ValueError("phase is singular at xi = 0")
    with np.errstate(over="ignore"):
        out = x**3 + s / x
    if not np.all(np.isfinite(out)):
        reach = float(np.max(np.abs(x[~np.isfinite(out)])))
        raise ValueError(f"phase xi**3 + sign/xi overflows at frequency reach |xi| = {reach:.6g}")
    return out if out.ndim else float(out)


def phase_derivative(xi, sign: str = "+"):
    """d/dxi of the dispersion phase: 3*xi**2 - sign/xi**2."""
    s = _check_sign(sign)
    x = np.asarray(xi, dtype=np.float64)
    if np.any(x == 0.0):
        raise ValueError("phase derivative is singular at xi = 0")
    out = 3.0 * x**2 - s / x**2
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def evolution_multipliers(p: SpectralProfile, ts, sign: str) -> np.ndarray:
    """Propagator factors exp(i t phase(xi)) on p's grid, one row per time: shape (T, n).

    Entries where p has no amplitude are exactly 1 and never see the phase,
    which keeps excluded near-singular frequencies out of the arithmetic.
    A t = 0 row of ``M - 1``, the multiplier of U(t) - I, is exactly zero.
    """
    ts = np.asarray(ts, dtype=np.float64)
    out = np.ones((ts.size, p.n), dtype=np.complex128)
    nz = p.amplitudes != 0.0
    if np.any(nz):
        out[:, nz] = np.exp(1j * np.outer(ts, phase(p.xi[nz], sign)))
    return out


def evolve_spectral(p: SpectralProfile, t: float, sign: str) -> SpectralProfile:
    """Multiply amplitudes by the propagator phase factor at time t.

    The grid is unchanged and the multiplier is unimodular, so the l2 norm
    is preserved to rounding.
    """
    _check_evolution(t, sign)
    return p.with_amplitudes(p.amplitudes * evolution_multipliers(p, [t], sign)[0])


def trapezoid_weights(n: int) -> np.ndarray:
    """Composite-trapezoid weights: interior 1, the two end points 1/2."""
    w = np.ones(n)
    if n >= 2:
        w[0] = w[-1] = 0.5
    return w


def _weights(p: SpectralProfile) -> np.ndarray:
    """Trapezoid synthesis weights w_j * xi_step / sqrt(2*pi) on p's grid."""
    return trapezoid_weights(p.n) * (p.xi_step / SQRT_2PI)


def _check_phase_reach(p: SpectralProfile, x_reach: float) -> None:
    """Raise ValueError unless x_reach * max|xi| <= 2**52.

    Beyond that, adjacent doubles of the synthesis phase x * xi lie a radian
    or more apart (and a non-finite x has no phase at all).
    """
    xi_reach = max(abs(p.xi_min), abs(p.xi_min + p.xi_step * (p.n - 1)))
    if not x_reach * xi_reach <= 2.0**52:
        raise ValueError(f"|x| up to {x_reach} gives non-finite or unresolved synthesis "
                         "phases; need |x| * max|xi| <= 2**52")


def quadrature_row(p: SpectralProfile, x) -> np.ndarray:
    """Synthesis weights at points: u(x) = quadrature_row(p, x) @ amps.

    An array of points gives one row per point, shape x.shape + (p.n,).
    Raises ValueError unless |x| * max|xi| <= 2**52.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_phase_reach(p, float(np.max(np.abs(x))))
    return np.exp(1j * np.multiply.outer(x, p.xi)) * _weights(p)


def _fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n (lengths numpy.fft transforms fastest)."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def _exact_phases(terms) -> np.ndarray:
    """exp(i * sum c * k) over pairs (c, k) of an exact rational c and an integer array k.

    Each c is split into a head of 52 - bit_length(max |k|) significant bits,
    whose products with k are exact doubles and so reach cos/sin unrounded,
    and a small tail; the tails are summed into one final factor.
    """
    out, tail = 1.0, 0.0
    for coef, index in terms:
        keep = 52 - int(np.max(np.abs(index))).bit_length()
        mant, expo = math.frexp(float(coef))
        head = math.ldexp(round(math.ldexp(mant, keep)), expo - keep)
        k = index.astype(np.float64)
        out = out * np.exp(1j * (head * k))
        tail = tail + float(coef - Fraction(head)) * k
    return out * np.exp(1j * tail)


def _synthesize_rows(p: SpectralProfile, grid: SpaceGrid, rows: np.ndarray) -> np.ndarray:
    """Trapezoid synthesis of amplitude rows on p's xi grid onto `grid`.

    Returns ``(xi_step/sqrt(2*pi)) * sum_j w_j rows[:, j] * exp(i x_m xi_j)``
    with shape (K, grid.n).  Both grids are uniform, so with a = dx * h the
    kernel factors by m*j = (m^2 + j^2 - (m - j)^2) / 2 into a pre-chirp, a
    convolution with exp(-i a k^2 / 2) done by one zero-padded FFT, and a
    post-chirp (Bluestein's chirp-z algorithm).  Every phase is formed from
    the exact products of the grid parameters, so no phase loses digits to
    the size of the index, and the nodes are the exact x_min + m * x_step
    (``grid.points`` rounds each of them to a double).  Raises ValueError
    unless |x| * max|xi| <= 2**52 over the grid.
    """
    _check_phase_reach(p, max(abs(grid.x_min), abs(grid.x_min + grid.x_step * (grid.n - 1))))
    rows = np.atleast_2d(rows)
    n_xi, n_x = p.n, int(grid.n)
    x0, dx = Fraction(grid.x_min), Fraction(grid.x_step)
    xi0, h = Fraction(p.xi_min), Fraction(p.xi_step)
    half_a = dx * h / 2
    j = np.arange(n_xi, dtype=np.int64)
    m = np.arange(n_x, dtype=np.int64)
    k = np.arange(max(n_x, n_xi), dtype=np.int64)

    pre = _weights(p) * _exact_phases([(x0 * h, j), (half_a, j * j)])
    post = _exact_phases([(x0 * xi0, np.ones(1, dtype=np.int64)),
                          (dx * xi0, m), (half_a, m * m)])
    chirp = np.conj(_exact_phases([(half_a, k * k)]))

    length = _fft_length(n_x + n_xi - 1)
    kernel = np.zeros(length, dtype=np.complex128)
    kernel[:n_x] = chirp[:n_x]
    kernel[length - n_xi + 1:] = chirp[1:n_xi][::-1]
    spectrum = np.fft.fft(rows * pre, n=length, axis=-1) * np.fft.fft(kernel)
    return np.fft.ifft(spectrum, axis=-1)[:, :n_x] * post


def synthesize(p: SpectralProfile, grid: SpaceGrid) -> SpaceField:
    """Inverse transform of the sampled profile by trapezoid quadrature.

    u(x) = (1/sqrt(2*pi)) * sum_j w_j * exp(i*x*xi_j) * amp_j * xi_step
    """
    values = _synthesize_rows(p, grid, p.amplitudes)[0]
    return SpaceField(grid.x_min, grid.x_step, values)


def validate_resolution(p: SpectralProfile, t: float, sign: str) -> ResolutionReport:
    """Check |t| * |phase'(xi)| * xi_step <= 0.1 over amplitude-carrying points."""
    _check_evolution(t, sign)
    nz = p.amplitudes != 0.0
    if not np.any(nz) or t == 0.0:
        increment = 0.0
    else:
        dphi = phase_derivative(p.xi[nz], sign)
        increment = float(abs(t) * np.max(np.abs(dphi)) * p.xi_step)
    return ResolutionReport(increment, p.truncated_mass, increment <= MAX_PHASE_INCREMENT)


def require_resolution(p: SpectralProfile, t: float, sign: str) -> ResolutionReport:
    """The resolution report for (p, t, sign); raises ResolutionError carrying it on refusal."""
    report = validate_resolution(p, t, sign)
    if not report.ok:
        raise ResolutionError(report)
    return report


def propagate(p: SpectralProfile, t: float, sign: str, grid: SpaceGrid) -> SpaceField:
    """Evolve by the propagator and synthesise on `grid`.

    Refuses (raising ResolutionError with the report attached) when the
    phase-increment rule fails; at t = 0 the output is bit-identical to
    `synthesize(p, grid)`.
    """
    require_resolution(p, t, sign)
    return synthesize(evolve_spectral(p, t, sign), grid)


def hs_norm(p: SpectralProfile, s: float) -> float:
    """Discrete Sobolev norm: sqrt(sum (1+xi^2)^s |amp|^2 * xi_step)."""
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    xi = p.xi
    weight = (1.0 + xi * xi) ** s
    return float(np.sqrt(np.sum(weight * np.abs(p.amplitudes) ** 2) * p.xi_step))


def lp_norm_space(u: SpaceField, power: float) -> float:
    """Trapezoid L^p norm over the field's grid; power = inf gives the sup."""
    a = np.abs(u.values)
    if power == math.inf:
        return float(np.max(a))
    if power < 1.0:
        raise ValueError(f"L^p norm needs p >= 1, got {power}")
    w = trapezoid_weights(u.n)
    return float(np.sum(w * a**power * u.x_step) ** (1.0 / power))
