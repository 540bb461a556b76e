"""Deterministic profile corpus used by the lemma checks and the test gate.

Twelve profiles in three frequency tiers.  Grid bounds and steps are exact
binary fractions (steps 2**-8 / 2**-6, bounds multiples of the step) so
grid points, window offsets and band edges are exactly representable.  The
low tier stays under |xi| <= 2.5 and resolves evolution out to t = 1; the
mid and high tiers carry content up to |xi| = 10.5 and are meant for
t <= ~1e-2, where the phase-increment rule still passes.

Supports are padded with a margin of explicitly zero cells so that grid
end points never carry amplitude, and every profile avoids a neighbourhood
of xi = 0 (the propagator phase is singular there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpaceGrid, SpectralProfile, synthesize

__all__ = [
    "CorpusEntry",
    "band_profile",
    "default_corpus",
    "gaussian_profile",
    "observation_grid",
    "parseval_grid",
    "profile_from_function",
]


@dataclass
class CorpusEntry:
    profile_id: str
    profile: SpectralProfile
    max_resolved_t: float  # largest |t| the entry is designed to propagate at


def profile_from_function(fn, xi_min: float, xi_max: float, xi_step: float,
                          **kwargs) -> SpectralProfile:
    """Sample ``fn`` on the closed uniform grid [xi_min, xi_max]."""
    n = int(round((xi_max - xi_min) / xi_step)) + 1
    xi = xi_min + xi_step * np.arange(n)
    return SpectralProfile(xi_min, xi_step, np.asarray(fn(xi), dtype=np.complex128), **kwargs)


def gaussian_profile(center: float, sigma: float, lo: float, hi: float,
                     xi_min: float, xi_max: float, xi_step: float,
                     even: bool = False, chirp: float = 0.0) -> SpectralProfile:
    """Gaussian bump truncated to [lo, hi] (mirrored when `even`).

    `chirp` adds a linear phase exp(i * chirp * xi), which translates the
    synthesised field.
    """

    def fn(xi):
        a = np.abs(xi) if even else xi
        amp = np.exp(-((a - center) ** 2) / (2.0 * sigma**2))
        amp = np.where((a >= lo) & (a <= hi), amp, 0.0)
        return amp * np.exp(1j * chirp * xi)

    return profile_from_function(fn, xi_min, xi_max, xi_step)


def band_profile(lo: float, hi: float, amplitude: float,
                 xi_min: float, xi_max: float, xi_step: float,
                 even: bool = False) -> SpectralProfile:
    """Flat indicator of [lo, hi] (of lo <= |xi| <= hi when `even`)."""

    def fn(xi):
        a = np.abs(xi) if even else xi
        return np.where((a >= lo) & (a <= hi), amplitude, 0.0)

    return profile_from_function(fn, xi_min, xi_max, xi_step)


_H_LOW = 2.0**-8
_H_MID = 2.0**-6


def default_corpus() -> list[CorpusEntry]:
    """The standard twelve profiles (four per frequency tier)."""
    entries = [
        # --- low tier: supports inside [0.25, 2.5], resolved out to t = 1
        CorpusEntry(
            "gauss_low",
            gaussian_profile(1.375, 0.225, 0.25, 2.5, 0.1875, 2.5625, _H_LOW),
            1.0,
        ),
        CorpusEntry(
            "gauss_low_even",
            gaussian_profile(1.375, 0.225, 0.25, 2.5, -2.5625, 2.5625, _H_LOW, even=True),
            1.0,
        ),
        CorpusEntry(
            "band_unit",
            band_profile(1.0, 2.0, 1.0, 0.9375, 2.0625, _H_LOW),
            1.0,
        ),
        CorpusEntry(
            "band_low_even",
            band_profile(1.25, 2.5, 0.75, -2.5625, 2.5625, _H_LOW, even=True),
            1.0,
        ),
        # --- mid tier: supports inside [1.5, 7]
        CorpusEntry(
            "gauss_mid",
            gaussian_profile(4.5, 0.5, 2.0, 7.0, 1.875, 7.125, _H_MID),
            1e-3,
        ),
        CorpusEntry(
            "band_mid_even",
            band_profile(3.0, 6.0, 0.5, -6.125, 6.125, _H_MID, even=True),
            1e-3,
        ),
        CorpusEntry(
            "chirped_mid",
            gaussian_profile(4.0, 0.5, 1.5, 6.5, 1.375, 6.625, _H_MID, chirp=2.0),
            1e-3,
        ),
        CorpusEntry(
            "band_narrow",
            band_profile(3.0, 3.5, 2.0, 2.875, 3.625, _H_MID),
            1e-3,
        ),
        # --- high tier: content above |xi| = 8 (kept under 10.5 so that the
        #     phase stays in its near-linear response over t <= 1e-3)
        CorpusEntry(
            "gauss_high",
            gaussian_profile(9.0, 0.3, 7.5, 10.5, 7.375, 10.625, _H_MID),
            1e-3,
        ),
        CorpusEntry(
            "band_high_even",
            band_profile(8.0, 10.0, 0.6, -10.125, 10.125, _H_MID, even=True),
            1e-3,
        ),
        CorpusEntry(
            "mix_two_scale",
            profile_from_function(
                lambda xi: (
                    np.where((xi >= 0.25) & (xi <= 2.75),
                             np.exp(-((xi - 1.5) ** 2) / (2 * 0.25**2)), 0.0)
                    + np.where((xi >= 7.5) & (xi <= 10.0),
                               np.exp(-((xi - 8.75) ** 2) / (2 * 0.25**2)), 0.0)
                ),
                0.125, 10.125, _H_MID,
            ),
            1e-3,
        ),
        CorpusEntry(
            "mix_band_gauss_even",
            profile_from_function(
                lambda xi: (
                    np.where((np.abs(xi) >= 0.75) & (np.abs(xi) <= 1.5), 0.8, 0.0)
                    + np.where((np.abs(xi) >= 8.5) & (np.abs(xi) <= 10.5),
                               np.exp(-((np.abs(xi) - 9.5) ** 2) / (2 * 0.2**2)), 0.0)
                ),
                -10.6875, 10.6875, _H_MID,
            ),
            1e-3,
        ),
    ]
    return entries


def parseval_grid(p: SpectralProfile) -> SpaceGrid:
    """Spatial grid covering one full alias period of the sampled transform.

    A profile sampled with step h synthesises to a field that is periodic
    with period 2*pi/h, so one closed period holds all of its mass.  With
    n - 1 = p.n segments the trapezoid L2 norm over the period matches the
    spectral l2 norm to rounding whenever the grid end points carry no
    amplitude (DFT orthogonality; the duplicated end point is halved).
    """
    period = 2.0 * math.pi / p.xi_step
    segments = p.n
    return SpaceGrid(-0.5 * period, period / segments, segments + 1)


#: Points of the coarse probe over one alias period.
PROBE_POINTS = 512

#: Fraction of the probe's peak |u| that counts as supported.
SUPPORT_FLOOR = 1e-6

#: Widening of the supported window on each side, relative to its width.
SUPPORT_MARGIN = 0.5


def observation_grid(p: SpectralProfile, n: int = 4096) -> SpaceGrid:
    """Grid over the numerically supported region of the field, plus margin.

    A coarse probe over one alias period locates where |u| exceeds
    SUPPORT_FLOOR times its peak; that window is widened by SUPPORT_MARGIN
    of its width on each side.
    """
    period = 2.0 * math.pi / p.xi_step
    probe = synthesize(p, SpaceGrid.spanning(-0.5 * period, 0.5 * period, PROBE_POINTS))
    mag = np.abs(probe.values)
    peak = mag.max()
    if peak == 0.0:
        return SpaceGrid.spanning(-1.0, 1.0, n)
    idx = np.nonzero(mag >= SUPPORT_FLOOR * peak)[0]
    x = probe.x
    lo, hi = x[idx[0]], x[idx[-1]]
    width = max(hi - lo, probe.x_step)
    lo = max(lo - SUPPORT_MARGIN * width, x[0])
    hi = min(hi + SUPPORT_MARGIN * width, x[-1])
    return SpaceGrid.spanning(lo, hi, n)
