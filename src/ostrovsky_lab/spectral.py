"""Frequency-side data containers, the free propagator, and discrete norms.

The propagator acts on Fourier data by the unimodular multiplier

    exp(i * t * (xi**3 + sign / xi)),      sign in {+1, -1},

and fields are recovered by the inverse transform with the symmetric
1/sqrt(2*pi) normalisation.  Everything here is plain trapezoid quadrature
on uniform grids; the two design points that deserve a comment are

* the multiplier phase blows up at xi = 0, so profiles have a hard
  exclusion radius, ZERO_EXCLUSION: grid points with |xi| below it are
  zeroed at construction and the removed l1 mass is recorded rather than
  silently dropped;
* time evolution is only trusted while the phase advances by at most
  MAX_PHASE_INCREMENT radians per grid cell at every point that carries
  amplitude; `propagate` refuses to synthesise otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "MAX_ARRAY_BYTES",
    "MAX_PHASE_INCREMENT",
    "SQRT_2PI",
    "ZERO_EXCLUSION",
    "ResolutionError",
    "ResolutionReport",
    "SpaceGrid",
    "SpectralProfile",
    "evolution_multipliers",
    "evolve_spectral",
    "hs_norm",
    "lp_norm_space",
    "phase",
    "phase_derivative",
    "phase_moments",
    "propagate",
    "quadrature_row",
    "require_resolution",
    "synthesize",
    "trapezoid_weights",
    "validate_resolution",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Exclusion radius around the singular frequency xi = 0.
ZERO_EXCLUSION = 2.0**-20

#: Largest tolerated phase advance per grid cell, in radians.
MAX_PHASE_INCREMENT = 0.1

#: Largest array a synthesis, a window table or a maximal scan may allocate (1 GiB);
#: a call whose sizes ask for more is refused before it allocates.
MAX_ARRAY_BYTES = 2**30

_SIGNS = {"+": 1.0, "-": -1.0}


def _require_budget(need: int, what: str) -> None:
    """Refuse `what` when it needs more than MAX_ARRAY_BYTES bytes."""
    if need > MAX_ARRAY_BYTES:
        raise ValueError(f"{what} needs {need} bytes, above the budget of {MAX_ARRAY_BYTES} bytes")


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


def _check_grid(origin: float, step: float, n: int, step_name: str) -> None:
    """Refuse the grid origin + j * step, j < n, unless it has a point, a positive step and a
    finite origin, step, last point and span last - origin."""
    if not (math.isfinite(origin) and math.isfinite(step)):
        raise ValueError("grid origin and step must be finite")
    if step <= 0.0:
        raise ValueError(f"{step_name} must be positive, got {step}")
    if n < 1:
        raise ValueError("grid needs at least one point")
    # Python floats: a last point or a span beyond the double range is inf, without a warning
    last = float(origin) + float(step) * (int(n) - 1)
    if not math.isfinite(last):
        raise ValueError(f"the last grid point {origin:g} + {step:g} * {int(n) - 1} "
                         "leaves the double range")
    if not math.isfinite(last - float(origin)):
        raise ValueError(f"the grid span {last:g} - {origin:g} leaves the double range")


def _increasing(points: np.ndarray) -> np.ndarray:
    """`points`; a ValueError unless they increase strictly (rounding can merge two)."""
    if not np.all(points[1:] > points[:-1]):
        raise ValueError("grid points do not increase strictly: two of them round to one double")
    return points


@dataclass
class SpectralProfile:
    """Complex Fourier amplitudes sampled on a uniform frequency grid.

    Grid point j sits at ``xi_min + j * xi_step``.  Construction zeroes
    every amplitude with ``|xi| < ZERO_EXCLUSION``, xi = 0 included, and
    stores the removed l1 mass (step-weighted, by _rescaled) in
    ``truncated_mass``; a mass beyond the double range is refused.
    """

    xi_min: float
    xi_step: float
    amplitudes: np.ndarray
    truncated_mass: float = field(init=False, default=0.0)

    def __post_init__(self):
        amps = self.amplitudes = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d array")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        _check_grid(self.xi_min, self.xi_step, amps.size, "xi_step")
        inside = np.abs(_increasing(self.xi)) < ZERO_EXCLUSION
        if np.any(amps[inside] != 0.0):
            self.truncated_mass = float(_rescaled(lambda a: np.sum(np.abs(a)) * self.xi_step,
                                                  amps[inside], 1.0, "the truncated mass"))
        amps[inside] = 0.0
        self.amplitudes.setflags(write=False)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def xi(self) -> np.ndarray:
        return self.xi_min + self.xi_step * np.arange(self.n)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "SpectralProfile":
        """Same grid, new amplitude array."""
        return SpectralProfile(self.xi_min, self.xi_step, amplitudes)


@dataclass
class SpaceGrid:
    """Uniform grid of points x_min + j * x_step, j < n; O(1) to build, `points` formed on read."""

    x_min: float
    x_step: float
    n: int

    def __post_init__(self):
        _check_grid(self.x_min, self.x_step, self.n, "x_step")

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
class ResolutionReport:
    """Outcome of the per-cell phase-increment check."""

    max_phase_increment: float

    @property
    def ok(self) -> bool:
        return self.max_phase_increment <= MAX_PHASE_INCREMENT


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


def _of_xi(f, xi, what: str):
    """f(xi) as a float or an array; a ValueError, `what` and the largest |xi| where it overflows."""
    x = np.asarray(xi, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = f(x)
    if not np.all(np.isfinite(out)):
        reach = float(np.max(np.abs(x[~np.isfinite(out)])))
        raise ValueError(f"{what} frequency reach |xi| = {reach:.6g}")
    return out if out.ndim else float(out)


def phase(xi, sign: str = "+"):
    """Dispersion phase xi**3 + sign/xi.

    Rejects xi = 0, and any xi whose phase leaves the double range (xi**3
    overflows for |xi| above about 5.6e102), naming the frequency reach.
    """
    s = _check_sign(sign)
    if np.any(np.asarray(xi) == 0.0):
        raise ValueError("phase is singular at xi = 0")
    return _of_xi(lambda x: x**3 + s / x, xi, "phase xi**3 + sign/xi overflows at")


def phase_derivative(xi, sign: str = "+"):
    """d/dxi of the dispersion phase: 3*xi**2 - sign/xi**2.

    Rejects xi = 0, and any xi whose derivative leaves the double range
    (3*xi**2 overflows for |xi| above about 7.7e153), naming the frequency reach.
    """
    s = _check_sign(sign)
    if np.any(np.asarray(xi) == 0.0):
        raise ValueError("phase derivative is singular at xi = 0")
    return _of_xi(lambda x: 3.0 * x**2 - s / x**2, xi,
                  "phase derivative 3*xi**2 - sign/xi**2 overflows at")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _phasors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(1j * outer(a, b)) for real arrays, bit for bit, as one new C-ordered array.

    The phases are written into the imaginary half of the output, and cos
    and sin of them into its two halves, so no complex temporary is formed.
    exp(1j * -0.0) is 1 + 0j where sin(-0.0) is -0.0, so adding 0.0 first
    turns -0.0 into +0.0 and leaves every other phase alone.
    """
    out = np.empty(np.shape(a) + np.shape(b), dtype=np.complex128)
    arg = out.imag
    np.multiply.outer(a, b, out=arg)
    arg += 0.0
    np.cos(arg, out=out.real)
    np.sin(arg, out=arg)
    return out


def evolution_multipliers(p: SpectralProfile, ts, sign: str, columns=slice(None)) -> np.ndarray:
    """Propagator factors exp(i t phase(xi)) on p's grid, one row per time: shape (T, n).

    Entries where p has no amplitude are exactly 1 and never see the phase,
    which keeps excluded near-singular frequencies out of the arithmetic:
    their phase is taken at xi = 1 and then overwritten.  A t = 0 row of
    ``M - 1``, the multiplier of U(t) - I, is exactly zero.  `columns` (an
    index array or slice of p's grid) keeps only those n columns, with the
    bits of the same columns of the full table.  The factors are cos and sin
    of t * phase, bit for bit the complex exponential, written into one new
    C-ordered array.
    """
    empty = p.amplitudes[columns] == 0.0
    out = _phasors(np.ravel(np.asarray(ts, dtype=np.float64)),
                   phase(np.where(empty, 1.0, p.xi[columns]), sign))
    out[:, empty] = 1.0
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


def _weights(n: int, xi_step: float) -> np.ndarray:
    """Trapezoid synthesis weights w_j * xi_step / sqrt(2*pi) on an n-point xi grid."""
    return trapezoid_weights(n) * (xi_step / SQRT_2PI)


def phase_moments(p: SpectralProfile, sign: str, orders,
                  t: float = 1.0) -> tuple[float, ...]:
    """Sums over p's amplitude support of |w a| |t phi|^m, one per order m in `orders`.

    w are the synthesis weights and phi = phase(xi, sign).  Orders 0, 1, 2
    give (S, L, L2), which at t = 1 bound the field F(s) = U(s) f (x) at any
    point: |F| <= S, |F'| <= L and |F''| <= L2 in s.  A time scale t gives
    the same bounds per unit of s / t, and keeps L and L2 in the double
    range on bands where phi * xi_step or phi**2 would overflow.  Every sum
    is 0 for a zero profile.  Each sum is linear in the amplitudes and
    follows _rescaled on its own, so only a requested sum that leaves the
    double range raises ValueError.
    """
    nz = p.amplitudes != 0.0
    amplitudes = p.amplitudes[nz]
    w = _weights(p.n, p.xi_step)[nz]
    phi = np.abs(phase(p.xi[nz], sign)) * t

    def moment(order):
        def weighted_sum(a):
            weight = w
            for _ in range(order):  # w * phi * phi, in that order
                weight = weight * phi
            return np.sum(weight * np.abs(a))
        return float(_rescaled(weighted_sum, amplitudes, 1.0, "a phase moment"))

    return tuple(map(moment, orders))


def _check_phase_reach(p: SpectralProfile, x_reach: float) -> None:
    """Raise ValueError unless x_reach * max|xi| <= 2**52.

    Beyond that, adjacent doubles of the synthesis phase x * xi lie a radian
    or more apart (and a non-finite x has no phase at all).
    """
    xi_reach = max(abs(p.xi_min), abs(p.xi_min + p.xi_step * (p.n - 1)))
    if not x_reach * xi_reach <= 2.0**52:
        raise ValueError(f"|x| up to {x_reach} gives non-finite or unresolved synthesis "
                         "phases; need |x| * max|xi| <= 2**52")


def quadrature_row(p: SpectralProfile, x, columns=slice(None)) -> np.ndarray:
    """Synthesis weights at points: u(x) = quadrature_row(p, x) @ amps.

    An array of points gives one row per point, shape x.shape + (p.n,).
    `columns` (an index array or slice of p's grid) keeps only those
    columns, with the bits of the same columns of the full row.  Raises
    ValueError unless |x| * max|xi| <= 2**52.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_phase_reach(p, float(np.max(np.abs(x))))
    rows = _phasors(x, p.xi[columns])
    rows *= _weights(p.n, p.xi_step)[columns]
    return rows


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


#: Rows per padded transform of a grid synthesis: the transforms in flight
#: hold at most 2 * _SYNTHESIS_BLOCK * length values, whatever the row count.
_SYNTHESIS_BLOCK = 8


@functools.lru_cache(maxsize=4)
def _chirp_plan(x_min: float, x_step: float, n_x: int,
                xi_min: float, xi_step: float, n_xi: int) -> tuple:
    """Read-only (pre-chirp, post-chirp, FFT of the kernel) of one grid pair.

    They depend on the two grids alone, so every synthesis between the same
    pair shares them; the cache keeps the 4 most recently used pairs.
    """
    length = _fft_length(n_x + n_xi - 1)
    x0, dx = Fraction(x_min), Fraction(x_step)
    xi0, h = Fraction(xi_min), Fraction(xi_step)
    half_a = dx * h / 2
    j = np.arange(n_xi, dtype=np.int64)
    m = np.arange(n_x, dtype=np.int64)
    k = np.arange(max(n_x, n_xi), dtype=np.int64)

    pre = _weights(n_xi, xi_step) * _exact_phases([(x0 * h, j), (half_a, j * j)])
    post = _exact_phases([(x0 * xi0, np.ones(1, dtype=np.int64)),
                          (dx * xi0, m), (half_a, m * m)])
    chirp = np.conj(_exact_phases([(half_a, k * k)]))

    kernel = np.zeros(length, dtype=np.complex128)
    kernel[:n_x] = chirp[:n_x]
    kernel[length - n_xi + 1:] = chirp[1:n_xi][::-1]
    plan = (pre, post, np.fft.fft(kernel))
    for array in plan:
        array.setflags(write=False)
    return plan


def _synthesize_rows(p: SpectralProfile, grid: SpaceGrid, rows: np.ndarray) -> np.ndarray:
    """Trapezoid synthesis of amplitude rows on p's xi grid onto `grid`.

    Returns ``(xi_step/sqrt(2*pi)) * sum_j w_j rows[:, j] * exp(i x_m xi_j)``
    with shape (K, grid.n).  Both grids are uniform, so with a = dx * h the
    kernel factors by m*j = (m^2 + j^2 - (m - j)^2) / 2 into a pre-chirp, a
    convolution with exp(-i a k^2 / 2) done by one zero-padded FFT, and a
    post-chirp (Bluestein's chirp-z algorithm).  Every phase is formed from
    the exact products of the grid parameters, so no phase loses digits to
    the size of the index, and the nodes are the exact x_min + m * x_step
    (``grid.points`` rounds each of them to a double).  The chirps and the
    kernel's FFT come from `_chirp_plan`, built once per grid pair.  The rows
    are transformed _SYNTHESIS_BLOCK at a time through one padded buffer per
    call: each block writes its pre-chirped rows into the buffer's head and
    zeroes its tail, and the FFT, the kernel product and the inverse FFT then
    run in place, so a block allocates no transform-sized temporary.  Raises
    ValueError unless |x| * max|xi| <= 2**52 over the grid, and before
    building or allocating anything when the padded transforms would exceed
    MAX_ARRAY_BYTES.
    """
    _check_phase_reach(p, max(abs(grid.x_min), abs(grid.x_min + grid.x_step * (grid.n - 1))))
    rows = np.atleast_2d(rows)
    n_xi, n_x = p.n, int(grid.n)
    length = _fft_length(n_x + n_xi - 1)
    _require_budget(16 * len(rows) * length,
                    f"synthesizing {len(rows)} rows of {n_xi} frequencies onto {n_x} points")
    pre, post, kernel_fft = _chirp_plan(float(grid.x_min), float(grid.x_step), n_x,
                                        float(p.xi_min), float(p.xi_step), n_xi)
    fields = np.empty((len(rows), n_x), dtype=np.complex128)
    buffer = np.empty((min(len(rows), _SYNTHESIS_BLOCK), length), dtype=np.complex128)
    for start in range(0, len(rows), _SYNTHESIS_BLOCK):
        block = rows[start:start + _SYNTHESIS_BLOCK]
        spectrum = buffer[:len(block)]
        # row by row, so the ufunc writes the strided heads without a buffer
        for head, row in zip(spectrum, block):
            np.multiply(row, pre, out=head[:n_xi])
        spectrum[:, n_xi:] = 0.0
        np.fft.fft(spectrum, axis=-1, out=spectrum)
        spectrum *= kernel_fft
        np.fft.ifft(spectrum, axis=-1, out=spectrum)
        np.multiply(spectrum[:, :n_x], post, out=fields[start:start + len(block)])
    return fields


def synthesize(p: SpectralProfile, grid: SpaceGrid) -> np.ndarray:
    """Inverse transform of the sampled profile by trapezoid quadrature.

    u(x) = (1/sqrt(2*pi)) * sum_j w_j * exp(i*x*xi_j) * amp_j * xi_step

    Returns u at the points of `grid`: complex128 of shape (grid.n,).  The
    field is linear in the amplitudes, so one whose modulus leaves the
    normal range is retaken by _rescaled; raises ValueError when it leaves
    the double range.
    """
    return _rescaled(lambda a: _synthesize_rows(p, grid, a)[0], p.amplitudes, 1.0,
                     "the synthesized field")


def validate_resolution(p: SpectralProfile, t: float, sign: str) -> ResolutionReport:
    """Check |t| * |phase'(xi)| * xi_step <= 0.1 over amplitude-carrying points."""
    _check_evolution(t, sign)
    nz = p.amplitudes != 0.0
    if not np.any(nz) or t == 0.0:
        increment = 0.0
    else:
        # Python floats: an increment beyond the double range is inf, without a warning
        dphi = float(np.max(np.abs(phase_derivative(p.xi[nz], sign))))
        increment = abs(float(t)) * dphi * float(p.xi_step)
    return ResolutionReport(increment)


def require_resolution(p: SpectralProfile, t: float, sign: str) -> ResolutionReport:
    """The resolution report for (p, t, sign); raises ResolutionError carrying it on refusal."""
    report = validate_resolution(p, t, sign)
    if not report.ok:
        raise ResolutionError(report)
    return report


def _deviation_multipliers(p: SpectralProfile, t_values, sign: str) -> tuple[np.ndarray, np.ndarray]:
    """(ts, M - 1): a strictly decreasing time ladder, resolved at max |t|, and U(t) - I on p's grid."""
    ts = np.asarray(t_values, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("need a non-empty t sequence")
    if np.any(np.diff(ts) >= 0.0):
        raise ValueError("the times must be strictly decreasing")
    require_resolution(p, float(np.max(np.abs(ts))), sign)
    return ts, evolution_multipliers(p, ts, sign) - 1.0


def propagate(p: SpectralProfile, t: float, sign: str, grid: SpaceGrid) -> np.ndarray:
    """Evolve by the propagator and synthesise on `grid`: complex128 of shape (grid.n,).

    Refuses (raising ResolutionError with the report attached) when the
    phase-increment rule fails; at t = 0 the output is bit-identical to
    `synthesize(p, grid)`.
    """
    require_resolution(p, t, sign)
    return synthesize(evolve_spectral(p, t, sign), grid)


def hs_norm(p: SpectralProfile, s: float) -> float:
    """Discrete Sobolev norm: sqrt(sum (1+xi^2)^s |amp|^2 * xi_step).

    Raises ValueError, naming s and the frequency reach, when the weight
    (1+xi^2)^s leaves the double range on p's grid, and naming s when the
    norm itself does; a weighted sum that leaves the range alone is retaken
    by _rescaled.
    """
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    weight = _of_xi(lambda xi: (1.0 + xi * xi) ** s, p.xi,
                    f"H^s weight (1+xi^2)^s overflows at s = {s!r},")
    return float(_rescaled(lambda a: np.sqrt(np.sum(weight * np.abs(a) ** 2) * p.xi_step),
                           p.amplitudes, 2.0, f"H^s norm at s = {s!r}"))


def lp_norm_space(values: np.ndarray, x_step: float, power: float) -> float:
    """Trapezoid L^p norm of `values` on a grid of step `x_step`; power = inf gives the sup.

    `values` are real or complex, one per grid point.  The root at p = 2 is
    np.sqrt.  Raises ValueError when a value is not finite, and, naming p,
    when the norm leaves the double range, or when a non-zero field gets the
    norm 0 (from about p = 1074 on, |u|^p of the retake underflows); a sum of
    |u|^p alone is retaken by _rescaled.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if power == math.inf:
        return float(np.max(np.abs(values)))
    if not power >= 1.0:
        raise ValueError(f"L^p norm needs p >= 1, got {power}")
    w = trapezoid_weights(len(values))
    root = np.sqrt if power == 2.0 else lambda total: total ** (1.0 / power)
    norm = float(_rescaled(lambda v: root(np.sum(w * np.abs(v) ** power * x_step)),
                           values, power, f"L^{power:g} norm"))
    if norm == 0.0 and np.any(values != 0.0):
        raise ValueError(f"L^{power:g} norm of a non-zero field underflows to 0")
    return norm


def _downscaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(values / 2^e, e), with 2^e above their largest real or imaginary part: an exact division."""
    parts = np.ascontiguousarray(values).view(np.float64)
    e = math.frexp(float(np.max(np.abs(parts), initial=0.0)))[1]
    return np.ldexp(parts, -e).view(values.dtype), e


def _in_range(value, power: float = 1.0) -> bool:
    """Whether `value` is finite and |value|**power a normal double throughout (0 is not)."""
    return bool(np.isfinite(value).all()
                and not np.any(np.abs(value)**power < np.finfo(np.float64).tiny))


def _rescaled(norm, values: np.ndarray, power: float, what: str):
    """norm(values) for a computation of degree 1 in `values`, kept wherever its result is in range.

    The plain result is taken first, so in-range bits do not change; one that
    is not _in_range is retaken once on _downscaled(values) and scaled back.
    Raises ValueError, naming `what`, when the result leaves the double range.
    """
    # an underflowed weight times an overflowed power is nan, so invalid is ignored too
    with np.errstate(over="ignore", invalid="ignore"):
        value = norm(values)
        if _in_range(value, power):
            return value
        scaled, e = _downscaled(values)
        value = norm(scaled)
        # np.ldexp takes no complex input: scale the real and imaginary parts
        value = np.ldexp(value.view(np.float64), e).view(value.dtype)
    if not np.isfinite(value).all():
        raise ValueError(f"{what} leaves the double range")
    return value
