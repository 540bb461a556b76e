"""CSV serialization for profiles, fields and reports.

All files are UTF-8 with LF line endings and shortest-roundtrip float
formatting (``repr``), so identical inputs produce byte-identical files
on every platform and the written values parse back exactly.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

import numpy as np

from .lemmas import LemmaReport
from .spectral import SpaceField, SpectralProfile

PROFILE_HEADER = ["xi", "re", "im"]
FIELD_HEADER = ["x", "re", "im", "abs"]
REPORT_HEADER = ["lemma_id", "profile_id", "params", "measured_lhs",
                 "bound_rhs", "fitted_C", "pass"]

# relative tolerance for the uniform-spacing test on read
SPACING_RTOL = 1e-9


def format_float(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def write_table(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of formatted cells, streaming the rows."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def write_profile(p: SpectralProfile, path) -> None:
    write_table(path, PROFILE_HEADER,
                ([format_float(xi), format_float(a.real), format_float(a.imag)]
                 for xi, a in zip(p.xi, p.amplitudes)))


def _read_table(path, header: list[str]) -> tuple[float, float, np.ndarray]:
    """Parse a table whose first column is a uniform grid: (origin, step, rows).

    Rejects a wrong header, an empty body, unparsable or non-finite cells,
    ragged rows, and a grid column that is not strictly increasing with
    uniform spacing within SPACING_RTOL.  A single row gets unit step.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: expected header {','.join(header)}")
    body = [row for row in rows[1:] if row]
    if len(body) == 0:
        raise ValueError(f"{path}: no data rows")
    try:
        table = np.array([[float(cell) for cell in row] for row in body])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed numeric field: {exc}") from exc
    if table.shape[1] != len(header):
        raise ValueError(f"{path}: expected {len(header)} columns per row")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{path}: every value must be finite")
    grid, name = table[:, 0], header[0]
    if grid.size > 1:
        steps = np.diff(grid)
        step = float(grid[-1] - grid[0]) / (grid.size - 1)
        if step <= 0.0 or np.any(steps <= 0.0):
            raise ValueError(f"{path}: {name} must be strictly increasing")
        if float(np.max(np.abs(steps - step))) > SPACING_RTOL * abs(step):
            raise ValueError(f"{path}: {name} spacing is not uniform within {SPACING_RTOL:g} relative")
    else:
        step = 1.0
    return float(grid[0]), step, table


def read_profile(path) -> SpectralProfile:
    """Read a profile table, rejecting non-uniform or non-increasing grids."""
    xi_min, step, table = _read_table(path, PROFILE_HEADER)
    return SpectralProfile(xi_min=xi_min, xi_step=step,
                           amplitudes=table[:, 1] + 1j * table[:, 2])


def write_field(u: SpaceField, path) -> None:
    write_table(path, FIELD_HEADER,
                ([format_float(x), format_float(v.real), format_float(v.imag),
                  format_float(abs(v))] for x, v in zip(u.x, u.values)))


def read_field(path) -> SpaceField:
    """Read a field table, rejecting non-uniform or non-increasing grids."""
    x_min, step, table = _read_table(path, FIELD_HEADER)
    return SpaceField(x_min=x_min, x_step=step, values=table[:, 1] + 1j * table[:, 2])


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
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != REPORT_HEADER:
        raise ValueError(f"{path}: expected header {','.join(REPORT_HEADER)}")
    out = []
    for row in rows[1:]:
        if not row:
            continue
        lemma_id, profile_id, params, lhs, rhs, fitted, passed = row
        out.append(LemmaReport(
            lemma_id=lemma_id,
            profile_id=profile_id,
            params=text_to_params(params),
            measured_lhs=float(lhs),
            bound_rhs=float(rhs),
            fitted_c=float(fitted),
            passed={"true": True, "false": False}[passed],
        ))
    return out
