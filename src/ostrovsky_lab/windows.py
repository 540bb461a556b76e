"""Littlewood-Paley cutoffs, unit-scale Wiener windows, and the square function.

Two partitions of frequency space are used side by side:

* dyadic: a radial bump `dyadic_cutoff` equal to 1 on |xi| <= 1 and 0 on
  |xi| >= 2, with a quintic smoothstep in between, rescaled to N to build
  the low-frequency projection;
* unit-scale: the triangle hat ``max(0, 1 - |xi|)`` translated to every
  integer, which sums to exactly 1 pointwise, so the translated windows
  reassemble a profile without error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (SpaceField, SpaceGrid, SpectralProfile, _require_budget, _rescaled,
                       _synthesize_rows)

__all__ = [
    "WienerDecomposition",
    "dyadic_cutoff",
    "project_low",
    "square_function",
    "wiener_decompose",
    "wiener_project",
    "wiener_range",
    "wiener_window",
]


def dyadic_cutoff(xi):
    """Radial bump: 1 on |xi| <= 1, 0 on |xi| >= 2, quintic smoothstep between."""
    a = np.abs(np.asarray(xi, dtype=np.float64))
    out = np.ones_like(a)
    out[a >= 2.0] = 0.0
    mid = (a > 1.0) & (a < 2.0)
    u = a[mid] - 1.0
    # descending smoothstep 1 - (10 u^3 - 15 u^4 + 6 u^5); C^2 at both ends
    out[mid] = 1.0 - u**3 * (10.0 + u * (-15.0 + 6.0 * u))
    return out if out.ndim else float(out)


def wiener_window(xi):
    """Triangle hat max(0, 1 - |xi|); its integer translates sum to 1."""
    x = np.asarray(xi, dtype=np.float64)
    out = np.maximum(0.0, 1.0 - np.abs(x))
    return out if out.ndim else float(out)


def project_low(p: SpectralProfile, scale: float) -> SpectralProfile:
    """Frequencies |xi| <~ scale: multiplier dyadic_cutoff(xi / scale)."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"projection scale must be finite and positive, got {scale}")
    return p.with_amplitudes(p.amplitudes * dyadic_cutoff(p.xi / float(scale)))


def wiener_project(p: SpectralProfile, k: int) -> SpectralProfile:
    """Restrict to the unit window centred at integer k."""
    return p.with_amplitudes(p.amplitudes * wiener_window(p.xi - k))


@dataclass(frozen=True)
class WienerDecomposition:
    """Profile split over the integer-translated unit windows that carry it.

    ``ks`` holds the window indices in ascending order and row i of
    ``table`` the amplitudes of window piece ``ks[i]``, so the table has
    shape (ks.size, n) and no row is all zero; its rows, summed in k order,
    return each amplitude to within a couple of product roundings.
    """

    ks: np.ndarray
    table: np.ndarray


def wiener_range(p: SpectralProfile) -> tuple[int, int]:
    """Inclusive range of the unit windows covering the amplitude support of `p`.

    The range is [floor(min supported xi) - 1, ceil(max supported xi) + 1],
    which always includes the two edge windows that vanish on the support
    itself; a zero profile gets the single window 0.
    """
    supported = p.xi[p.amplitudes != 0.0]
    if supported.size == 0:
        return 0, 0
    return int(math.floor(supported.min())) - 1, int(math.ceil(supported.max())) + 1


def _run_ends(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the last entry of each run of equal values in a sorted, non-empty array.

    ``sorted_values[_run_ends(sorted_values)]`` equals ``np.unique(sorted_values)``
    without the import of numpy.ma that np.unique triggers.
    """
    return np.append(sorted_values[1:] != sorted_values[:-1], True)


#: Bytes budgeted per window table cell: 32 live at the peak (float windows and complex table,
#: or table and carrying copy), 8 for numpy's cast buffers and length-n arrays above ~2 MB.
_TABLE_PEAK_BYTES = 40


def wiener_decompose(p: SpectralProfile) -> WienerDecomposition:
    """Split `p` over the unit windows floor(xi), floor(xi) + 1 of its carrying points.

    Rows that are all zero are dropped.  Row i is the same product as
    ``wiener_project(p, ks[i]).amplitudes``, so it holds the same bits; a
    zero profile has no rows.  A table above MAX_ARRAY_BYTES at
    _TABLE_PEAK_BYTES a cell is refused before it is built, and so is a
    carrying |xi| >= 2**53, where xi - k rounds and the hats stop summing to 1.
    """
    carried = p.xi[p.amplitudes != 0.0]
    if carried.size == 0:
        return WienerDecomposition(np.zeros(0, dtype=np.int64), np.zeros((0, p.n), np.complex128))
    reach = max(-float(carried[0]), float(carried[-1]))
    if reach >= 2.0**53:
        raise ValueError(f"the profile carries |xi| = {reach!r}, at or beyond 2**53, where "
                         "not every integer is a double and unit windows do not sum to 1")
    floors = np.floor(carried)
    ks = np.sort(np.concatenate([floors, floors + 1.0]))
    ks = ks[_run_ends(ks)].astype(np.int64)
    _require_budget(_TABLE_PEAK_BYTES * ks.size * p.n,
                    f"a table of {ks.size} windows over {p.n} frequencies")
    table = p.amplitudes * wiener_window(p.xi - ks[:, None])
    carrying = np.any(table != 0.0, axis=1)
    return WienerDecomposition(ks[carrying], table[carrying])


def square_function(p: SpectralProfile, grid: SpaceGrid) -> SpaceField:
    """Pointwise l2 aggregate of the synthesised Wiener pieces.

    Returns sqrt(sum_k |piece_k(x)|^2) as a real-valued field; its sup is
    controlled by the L2 norm of `p` with room to spare.  The window table,
    its synthesis and the sum run inside spectral._rescaled, so only a value
    that leaves the double range itself raises ValueError.
    """
    def root_sum_of_squares(amplitudes):
        table = wiener_decompose(p.with_amplitudes(amplitudes)).table
        # squared in place: one float temporary per synthesis, not two
        modulus = np.abs(_synthesize_rows(p, grid, table))
        return np.sqrt(np.sum(np.square(modulus, out=modulus), axis=0))

    values = _rescaled(root_sum_of_squares, p.amplitudes, 2.0, "the window square function")
    return SpaceField(grid.x_min, grid.x_step, values)
