"""Wiener randomisation of profiles and its Monte Carlo statistics.

Draw i of a seed attaches an independent standard complex Gaussian g_k
(real and imaginary parts independent N(0,1), so E|g_k|^2 = 2) to every
unit window k of windows.wiener_decompose; randomize(p, seed, i) is that
draw as a profile.  Coefficients are generated counter-based: each value
is a pure hash of (seed, sample_index, k) pushed through a Box-Muller step,
so draws are reproducible regardless of evaluation order, chunking, or
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    SpectralProfile,
    _deviation_multipliers,
    _downscaled,
    _in_range,
    quadrature_row,
)
from .windows import wiener_decompose

__all__ = [
    "KhinchineResult",
    "TailCurve",
    "gaussian_coefficients",
    "khinchine_analytic_ratio",
    "khinchine_check",
    "randomize",
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

    `ks` is 1-d, of length K; any other shape raises ValueError.  A scalar
    `sample_index` gives shape (K,), and an array of them its shape + (K,),
    one row per sample.  The value at a given (seed, sample_index, k) never
    depends on which other indices are requested alongside it.
    """
    samples = np.asarray(sample_index, dtype=np.uint64)
    kbits = np.asarray(ks, dtype=np.int64).astype(np.uint64)  # two's complement
    if kbits.ndim != 1:
        raise ValueError(f"ks must be 1-d, got shape {kbits.shape}")
    with np.errstate(over="ignore"):
        h = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        h = _mix64(h + _GOLDEN * (samples + np.uint64(1)))
        h = _mix64(h[..., None] + _GOLDEN * (kbits + np.uint64(1)))
        u1 = _uniform(_mix64(h + _GOLDEN))
        u2 = _uniform(_mix64(h + _GOLDEN + _GOLDEN))
    # Box-Muller written in place into one complex array: the same operations
    # as radius * cos + 1j * radius * sin, without its complex temporaries
    radius = np.log(u1, out=u1)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = u2
    angle *= 2.0 * math.pi
    out = np.empty(radius.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    out.real *= radius
    out.imag *= radius
    return out


def randomize(p: SpectralProfile, seed: int, draw: int) -> SpectralProfile:
    """Draw `draw` of `seed`: the window pieces of wiener_decompose(p), each times its g_k, summed.

    The coefficients are those every sampler uses for that draw, so this
    per-draw profile is the reference the samplers' linear forms are
    checked against.
    """
    dec = wiener_decompose(p)
    return p.with_amplitudes(gaussian_coefficients(seed, draw, dec.ks) @ dec.table)


def _draw_blocks(seed: int, n_samples: int, ks, table: np.ndarray):
    """Yield g @ table over consecutive blocks of draw indices.

    ``g`` holds the block's (block, K) coefficients over the windows `ks`,
    so each row of the product is one draw's linear form.
    """
    for lo in range(0, n_samples, _BLOCK):
        g = gaussian_coefficients(seed, np.arange(lo, min(lo + _BLOCK, n_samples)), ks)
        yield g @ table


@dataclass
class KhinchineResult:
    """Empirical p-th moment of sum_k g_k c_k against the sqrt(p) l2 bound."""

    power: float
    moment: float       # (E |S|^p)^(1/p), empirical
    ratio: float        # moment / (sqrt(p) * ||c||_2)
    ratio_stderr: float


def khinchine_check(coefficients, powers, n_samples: int, seed: int = 0) -> list[KhinchineResult]:
    """Monte Carlo estimates of ||sum g_k c_k||_{L^p} / (sqrt(p) ||c||_2), one per order.

    The `n_samples` sums are drawn once, one block of draws at a time, and
    each block is reduced as it arrives: every order in `powers` takes the
    block's |S|^p, its mean and its centred sum of squares, and merges them
    into that order's running (count, mean, M2) by the pairwise update of
    Chan, Golub & LeVeque (1983).  So memory is one block whatever
    `n_samples`, the results come back in input order, and each order has
    the bits a one-order call would give.  When ||c||_2, a mean or an M2 is
    not a finite normal double, the run is retaken on spectral._downscaled(c)
    and the moment scaled back; the ratio and its error are scale-free.
    """
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.ndim != 1 or not np.any(c):
        raise ValueError("need a 1-d coefficient sequence; it must not vanish")
    if np.ndim(powers) != 1 or len(powers) == 0:
        raise ValueError("need a non-empty sequence of moment orders")
    if not all(power >= 1.0 for power in powers):
        raise ValueError("every power must be >= 1")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    # a sum that overflows is inf, or nan from inf - inf: retaken, then refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for scaled, e in ((c, 0), _downscaled(c)):
            l2 = float(np.linalg.norm(scaled))
            totals = [(0, 0.0, 0.0)] * len(powers)  # (count, mean, M2) of |S|^p per order
            for values in _draw_blocks(seed, n_samples, np.arange(c.size), scaled):
                magnitudes = np.abs(values)
                size = magnitudes.size
                for i, power in enumerate(powers):
                    centred = magnitudes ** power
                    block_mean = float(np.sum(centred)) / size
                    centred -= block_mean
                    count, mean, m2 = totals[i]
                    total = count + size
                    delta = block_mean - mean
                    # count is 0 on the first block: the last term is 0 even if delta * delta overflows
                    m2 = m2 + float(np.dot(centred, centred)) + delta * (count * size / total) * delta
                    totals[i] = (total, mean + delta * (size / total), m2)
            if _in_range(np.array([l2, *(v for _, mean, m2 in totals for v in (mean, m2))])):
                break
        results = []
        for power, (_, mean, m2) in zip(powers, totals):
            root = mean ** (1.0 / power)
            moment = float(np.ldexp(root, e))
            if not (_in_range(np.array([mean, m2])) and math.isfinite(moment)):
                raise ValueError(f"moments of order {power} leave the double range for these coefficients")
            stderr_mean = math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)
            ratio = root / (math.sqrt(power) * l2)
            # delta method: d ratio / d mean = ratio / (p * mean)
            ratio_stderr = ratio * stderr_mean / (power * mean)
            results.append(KhinchineResult(power, moment, ratio, ratio_stderr))
    return results


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
    """Empirical exceedance probabilities of |U(t) f^w - f^w| at one point, one per time."""

    empirical_probs: np.ndarray
    wilson_halfwidth: np.ndarray
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray


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
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    ts, deviation = _deviation_multipliers(p, t_values, sign)

    dec = wiener_decompose(p)
    probe = quadrature_row(p, x) * deviation  # (T, n)
    exceed = np.zeros(ts.size, dtype=np.int64)
    for values in _draw_blocks(seed, n_samples, dec.ks, dec.table @ probe.T):
        exceed += np.sum(np.abs(values) > alpha, axis=0)

    probs = exceed / n_samples
    intervals = np.array([wilson_interval(int(c), n_samples) for c in exceed])
    return TailCurve(probs, intervals[:, 2], intervals[:, 0], intervals[:, 1])


_C1 = math.e**2


def tail_bound_curve(alpha: float, epsilon: float, c_fit: float) -> float:
    """Gaussian-type tail majorant 3*c1*exp(-(alpha / (2*c_fit*e*epsilon))**2), c1 = e^2."""
    if alpha < 0.0 or epsilon <= 0.0 or c_fit <= 0.0:
        raise ValueError("need alpha >= 0, epsilon > 0, c_fit > 0")
    return 3.0 * _C1 * math.exp(-((alpha / (2.0 * c_fit * math.e * epsilon)) ** 2))
