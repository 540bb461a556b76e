"""Wiener randomisation of profiles and its Monte Carlo statistics.

A draw attaches an independent standard complex Gaussian g_k (real and
imaginary parts independent N(0,1), so E|g_k|^2 = 2) to every unit window
k.  Coefficients are generated counter-based: each value is a pure hash of
(seed, sample_index, k) pushed through a Box-Muller step, so draws are
reproducible regardless of evaluation order, chunking, or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    SpectralProfile,
    evolution_multipliers,
    quadrature_row,
    require_resolution,
)
from .windows import wiener_decompose, wiener_range

__all__ = [
    "KhinchineResult",
    "TailCurve",
    "gaussian_coefficients",
    "khinchine_analytic_ratio",
    "khinchine_check",
    "randomize",
    "randomized_point_samples",
    "stochastic_continuity",
    "tail_bound_curve",
    "wilson_interval",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53

#: Draws per Monte Carlo block: bounds memory whatever the sample count.
_BLOCK = 4096


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser (64-bit avalanche)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform(bits: np.ndarray) -> np.ndarray:
    """Map 64 hash bits to a double in the open interval (0, 1)."""
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _U53


def gaussian_coefficients(seed: int, sample_index, ks) -> np.ndarray:
    """Standard complex Gaussians indexed by (seed, sample_index, k).

    `sample_index` and `ks` broadcast against each other (an array of
    sample indices yields one row per sample).  The value at a given
    (seed, sample_index, k) never depends on which other indices are
    requested alongside it.
    """
    samples = np.asarray(sample_index, dtype=np.uint64)
    kbits = np.asarray(ks, dtype=np.int64).astype(np.uint64)  # two's complement
    with np.errstate(over="ignore"):
        h = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        h = _mix64(h + _GOLDEN * (samples + np.uint64(1)))
        h = _mix64(h[..., None] + _GOLDEN * (kbits + np.uint64(1)))
        u1 = _uniform(_mix64(h + _GOLDEN))
        u2 = _uniform(_mix64(h + _GOLDEN + _GOLDEN))
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = radius * np.cos(angle) + 1j * radius * np.sin(angle)
    return out if np.ndim(sample_index) else out[0] if out.ndim > 1 else out


def randomize(p: SpectralProfile, k_min: int, coefficients) -> SpectralProfile:
    """Multiply each unit-window component of `p` by its coefficient.

    ``coefficients[i]`` is the g_k of window k = k_min + i.  At every grid
    point at most the two windows flooring/ceiling xi contribute, with
    weights (1 - d) and d for d = xi - floor(xi); their exact sum is 1, so
    unit coefficients reproduce the input bit for bit.  This per-draw
    profile is the reference the samplers' linear forms are checked against.
    """
    g = np.asarray(coefficients, dtype=np.complex128)
    k_max = k_min + g.size - 1
    dec_lo, dec_hi = wiener_range(p)
    if g.ndim != 1 or dec_lo < k_min or dec_hi > k_max:
        raise ValueError(
            f"coefficients cover windows [{k_min}, {k_max}] but the profile "
            f"needs [{dec_lo}, {dec_hi}]"
        )
    if not np.any(p.amplitudes):
        return p.with_amplitudes(p.amplitudes)
    k0 = np.floor(p.xi).astype(np.int64)
    d = p.xi - k0
    # clipped so idx + 1 stays in range on zero-amplitude points outside the band
    idx = np.clip(k0, k_min, k_max - 1) - k_min
    mix = g[idx] * (1.0 - d) + g[idx + 1] * d
    return p.with_amplitudes(p.amplitudes * mix)


def _draw_blocks(seed: int, n_samples: int, ks, table: np.ndarray):
    """Yield (draws, g @ table) over consecutive blocks of draw indices.

    ``draws`` is the slice of sample indices in the block and ``g`` their
    (block, K) coefficients over the windows `ks`, so each row of the
    product is one draw's linear form.
    """
    for lo in range(0, n_samples, _BLOCK):
        draws = slice(lo, min(lo + _BLOCK, n_samples))
        g = gaussian_coefficients(seed, np.arange(draws.start, draws.stop), ks)
        yield draws, g @ table


@dataclass
class KhinchineResult:
    """Empirical p-th moment of sum_k g_k c_k against the sqrt(p) l2 bound."""

    power: float
    n_samples: int
    moment: float       # (E |S|^p)^(1/p), empirical
    ratio: float        # moment / (sqrt(p) * ||c||_2)
    ratio_stderr: float


def khinchine_check(coefficients, power: float, n_samples: int, seed: int = 0) -> KhinchineResult:
    """Monte Carlo estimate of ||sum g_k c_k||_{L^p} / (sqrt(p) ||c||_2)."""
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a non-empty coefficient sequence")
    if power < 1.0:
        raise ValueError("power must be >= 1")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    l2 = float(np.linalg.norm(c))
    if l2 == 0.0:
        raise ValueError("coefficient sequence must not vanish")
    sums = np.empty(n_samples, dtype=np.complex128)
    for draws, values in _draw_blocks(seed, n_samples, np.arange(c.size), c):
        sums[draws] = values
    powered = np.abs(sums) ** power
    mean = float(np.mean(powered))
    stderr_mean = float(np.std(powered, ddof=1) / math.sqrt(n_samples))
    if not (mean > 0.0 and math.isfinite(stderr_mean)):
        raise ValueError(f"moments of order {power} leave the double range for these coefficients")
    moment = mean ** (1.0 / power)
    ratio = moment / (math.sqrt(power) * l2)
    # delta method: d ratio / d mean = ratio / (p * mean)
    ratio_stderr = ratio * stderr_mean / (power * mean)
    return KhinchineResult(power, n_samples, moment, ratio, ratio_stderr)


def randomized_point_samples(p: SpectralProfile, x: float, n_samples: int,
                             seed: int = 0) -> np.ndarray:
    """Values of the window-randomized profile at one point, per draw.

    Sample ``i`` is the synthesis of ``randomize(p, draw_i)`` evaluated at
    ``x``.  That value is linear in the window coefficients g, so it is
    formed as ``g @ W`` with ``W[k]`` the point synthesis of window piece
    k, built once; each draw then costs O(K).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    dec = wiener_decompose(p)
    out = np.empty(n_samples, dtype=np.complex128)
    for draws, values in _draw_blocks(seed, n_samples, dec.ks, dec.table @ quadrature_row(p, x)):
        out[draws] = values
    return out


def khinchine_analytic_ratio(power: float) -> float:
    """Exact limit of the moment ratio for complex Gaussian sums.

    |sum g_k c_k| is Rayleigh with E|S|^2 = 2 ||c||^2, so
    (E|S|^p)^(1/p) / (sqrt(p) ||c||) = sqrt(2) * Gamma(p/2 + 1)^(1/p) / sqrt(p).
    """
    if not 1.0 <= power < math.inf:
        raise ValueError(f"power must be finite and >= 1, got {power}")
    try:
        log_gamma = math.lgamma(power / 2.0 + 1.0)
    except OverflowError:
        raise ValueError(f"Gamma(p/2 + 1) leaves the double range for p = {power}") from None
    return math.sqrt(2.0) * math.exp(log_gamma / power) / math.sqrt(power)


_WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, n: int) -> tuple[float, float, float]:
    """Wilson score interval: (lo, hi, halfwidth).  Halfwidth is always > 0."""
    if n < 1:
        raise ValueError("need n >= 1 trials")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    phat = successes / n
    z = _WILSON_Z
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half), half


@dataclass
class TailCurve:
    """Empirical exceedance probabilities of |U(t) f^w - f^w| at one point."""

    alpha: float
    t_values: np.ndarray
    empirical_probs: np.ndarray
    n_samples: int
    wilson_halfwidth: np.ndarray
    x: float = 0.0
    seed: int = 0
    wilson_lo: np.ndarray = field(default=None, repr=False)
    wilson_hi: np.ndarray = field(default=None, repr=False)


def stochastic_continuity(p: SpectralProfile, x: float, alpha: float, t_values,
                          n_samples: int, seed: int = 0, sign: str = "+") -> TailCurve:
    """Fraction of draws with |U(t) f^w (x) - f^w (x)| > alpha, per time.

    The same `n_samples` draws are reused across every t (common random
    numbers).  A deviation is linear in the window coefficients g, so it is
    formed as ``g @ D`` with ``D[k, t]`` the point synthesis of (U(t) - I)
    applied to window piece k, built once.  The multiplier ``M - 1`` of
    U(t) - I is exactly zero in a t = 0 row, so that column of D, every
    deviation there, and its exceedance count are exactly zero.
    """
    ts = np.asarray(t_values, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("need a non-empty t sequence")
    if np.any(np.diff(ts) >= 0.0):
        raise ValueError("t_values must be strictly decreasing")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    require_resolution(p, float(np.max(np.abs(ts))), sign)

    dec = wiener_decompose(p)
    probe = quadrature_row(p, x) * (evolution_multipliers(p, ts, sign) - 1.0)  # (T, n)
    exceed = np.zeros(ts.size, dtype=np.int64)
    for _, values in _draw_blocks(seed, n_samples, dec.ks, dec.table @ probe.T):
        exceed += np.sum(np.abs(values) > alpha, axis=0)

    probs = exceed / n_samples
    intervals = np.array([wilson_interval(int(c), n_samples) for c in exceed])
    return TailCurve(
        alpha=alpha,
        t_values=ts,
        empirical_probs=probs,
        n_samples=n_samples,
        wilson_halfwidth=intervals[:, 2],
        x=x,
        seed=seed,
        wilson_lo=intervals[:, 0],
        wilson_hi=intervals[:, 1],
    )


_C1 = math.e**2


def tail_bound_curve(alpha: float, epsilon: float, c_fit: float) -> float:
    """Gaussian-type tail majorant 3*c1*exp(-(alpha / (2*c_fit*e*epsilon))**2), c1 = e^2."""
    if alpha < 0.0 or epsilon <= 0.0 or c_fit <= 0.0:
        raise ValueError("need alpha >= 0, epsilon > 0, c_fit > 0")
    return 3.0 * _C1 * math.exp(-((alpha / (2.0 * c_fit * math.e * epsilon)) ** 2))
