"""CSV serialization for profiles, fields and reports.

All files are UTF-8 with LF line endings and shortest-roundtrip float
formatting (``repr``), so identical inputs produce byte-identical files
on every platform and the written values parse back exactly.  Float
tables are formatted a block at a time by ``_ryu.format_rows``.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, Sequence

import numpy as np

from .lemmas import LemmaReport
from .spectral import SpaceGrid, SpectralProfile, _increasing

PROFILE_HEADER = ["xi", "re", "im"]
FIELD_HEADER = ["x", "re", "im", "abs"]
REPORT_HEADER = ["lemma_id", "profile_id", "params", "measured_lhs",
                 "bound_rhs", "fitted_C", "pass"]

# relative tolerance for the uniform-spacing test on read
SPACING_RTOL = 1e-9

# rows _write_columns formats at a time, so its memory stays bounded
# whatever the table size (formatting holds about 0.5 kB a cell)
FIELD_ROWS = 2048


def format_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def write_table(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of formatted cells, streaming the rows."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def _write_columns(path, header: Sequence[str], columns) -> None:
    """Write a header and the rows of equal-length columns of finite doubles."""
    from ._ryu import format_rows  # compiled only by processes that write float tables

    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for lo in range(0, len(columns[0]), FIELD_ROWS):
            handle.write(format_rows(np.stack([c[lo:lo + FIELD_ROWS] for c in columns], axis=1)))


def write_profile(p: SpectralProfile, path) -> None:
    _write_columns(path, PROFILE_HEADER, (p.xi, p.amplitudes.real, p.amplitudes.imag))


def _read_table(path, header: list[str]) -> tuple[float, float, np.ndarray]:
    """Parse a table whose first column is a uniform grid: (origin, step, samples).

    The samples are the complex numbers of the next two columns, assembled
    from their doubles, so signed zeros keep their sign.  Rejects a wrong
    header, an empty body, unparsable or non-finite cells, ragged rows, and
    a grid column that is not strictly increasing, whose spacing is not uniform
    within SPACING_RTOL plus the rounding of its points, or whose span leaves
    the double range.  A single row gets unit step.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: expected header {','.join(header)}")
    body = [row for row in rows[1:] if row]
    if len(body) == 0:
        raise ValueError(f"{path}: no data rows")
    try:
        table = np.array(body, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed numeric field: {exc}") from exc
    if table.shape[1] != len(header):
        raise ValueError(f"{path}: expected {len(header)} columns per row")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{path}: every value must be finite")
    grid, name = table[:, 0], header[0]
    if grid.size > 1:
        with np.errstate(over="ignore"):  # a difference beyond the double range is refused below
            steps = np.diff(grid)
            step = float(grid[-1] - grid[0]) / (grid.size - 1)
        if step <= 0.0 or np.any(steps <= 0.0):
            raise ValueError(f"{path}: {name} must be strictly increasing")
        if not math.isfinite(step):
            raise ValueError(f"{path}: {name} spacing leaves the double range")
        # written points are rounded, so gaps may be off by a few spacings at the largest |point|
        rounding = 4.0 * math.ulp(max(abs(float(grid[0])), abs(float(grid[-1]))))
        if float(np.max(np.abs(steps - step))) > SPACING_RTOL * step + rounding:
            raise ValueError(f"{path}: {name} spacing is not uniform within {SPACING_RTOL:g} relative")
    else:
        step = 1.0
    return float(grid[0]), step, np.ascontiguousarray(table[:, 1:3]).view(np.complex128).ravel()


def read_profile(path) -> SpectralProfile:
    """Read a profile table, rejecting non-uniform or non-increasing grids."""
    xi_min, step, amplitudes = _read_table(path, PROFILE_HEADER)
    return SpectralProfile(xi_min=xi_min, xi_step=step, amplitudes=amplitudes)


def write_field(grid: SpaceGrid, values: np.ndarray, path) -> None:
    """Write complex `values`, one per point of `grid`, as the x,re,im,abs rows of `write_table`.

    The modulus is ``np.hypot`` of the parts, the libm ``hypot`` that
    Python's ``abs`` of a complex calls (numpy's array ``abs`` is not).
    Values that are not finite or not one per point, grid points that round
    to one double, and a modulus beyond the double range are refused before
    the file is opened, so a refusal leaves any file at `path` as it was.
    """
    if np.shape(values) != (grid.n,):
        raise ValueError(f"{path}: {np.shape(values)} values for a grid of {grid.n} points")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: values must be finite")
    x = _increasing(grid.points)
    with np.errstate(over="ignore"):
        modulus = np.hypot(values.real, values.imag)
    if np.isinf(modulus).any():
        raise ValueError(f"{path}: |value| leaves the double range")
    _write_columns(path, FIELD_HEADER, (x, values.real, values.imag, modulus))


def read_field(path) -> tuple[SpaceGrid, np.ndarray]:
    """The grid and complex values of a field table; refuses non-uniform or non-increasing grids."""
    x_min, step, values = _read_table(path, FIELD_HEADER)
    grid = SpaceGrid(x_min, step, values.size)
    _increasing(grid.points)
    return grid, values


def _format_param(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def params_to_text(params: dict) -> str:
    """Semicolon-joined ``key=value`` pairs, insertion-ordered."""
    parts = []
    for key, value in params.items():
        text = _format_param(value)
        if ";" in text or "," in text or "=" in text:
            raise ValueError(f"param value {text!r} contains a reserved character")
        parts.append(f"{key}={text}")
    return ";".join(parts)


def text_to_params(text: str) -> dict:
    params = {}
    if not text:
        return params
    for part in text.split(";"):
        key, _, value = part.partition("=")
        try:
            params[key] = float(value)
        except ValueError:
            params[key] = value
    return params


def write_reports(reports: Sequence[LemmaReport], path) -> None:
    write_table(path, REPORT_HEADER, ([
        r.lemma_id,
        r.profile_id,
        params_to_text(r.params),
        format_float(r.measured_lhs),
        format_float(r.bound_rhs),
        format_float(r.fitted_c),
        "true" if r.passed else "false",
    ] for r in reports))


def read_reports(path) -> list[LemmaReport]:
    """Read a report table, each report from its sides.

    A malformed row, or one whose pass cell disagrees with its sides, raises
    ValueError naming the file and line.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != REPORT_HEADER:
        raise ValueError(f"{path}: expected header {','.join(REPORT_HEADER)}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            lemma_id, profile_id, params, lhs, rhs, fitted, passed = row
            if passed not in ("true", "false"):
                raise ValueError(f"pass must be true or false, got {passed!r}")
            report = LemmaReport(lemma_id, profile_id, text_to_params(params),
                                 float(lhs), float(rhs), float(fitted))
            if report.passed != (passed == "true"):
                raise ValueError(f"pass {passed} disagrees with measured_lhs {lhs} "
                                 f"and bound_rhs {rhs}")
            out.append(report)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out
