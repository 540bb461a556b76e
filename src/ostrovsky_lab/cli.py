"""Command-line entry point: config parsing, dispatch, CSV/JSON reports.

Every subcommand writes one CSV (LF endings, shortest-roundtrip floats)
plus a JSON sidecar ``<out>.meta.json``: ``version``, ``subcommand``, the
resolved ``config`` and ``wall_clock_s``, so a run is reproducible from its
artifacts alone, and the derived values its CSV does not hold: ``resolution``
(propagate), ``rk_upper`` and ``fit`` (counterexample), ``fit.l2_norm``
(stochastic-continuity), ``summary`` (verify-lemmas); none for khinchine, trace.

Exit codes: 0 success, 2 when a verification check ran fine but failed
its inequality, 1 for usage or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .corpus import CorpusEntry, default_corpus, observation_grid
from .fileio import format_float, read_profile, write_field, write_reports, write_table
from .lemmas import run_corpus
from .parallel import parallel_map
from .randomized import khinchine_analytic_ratio, khinchine_check, stochastic_continuity
from .rough import (CounterexampleSpec, convergence_trace, counterexample_ratio, scaling_fit,
                    slope_range)
from .spectral import SpaceGrid, hs_norm, propagate, validate_resolution


class UsageError(ValueError):
    """Bad invocation (missing/unknown/malformed parameters)."""


@dataclass(frozen=True)
class _Param:
    name: str                 # flag / config-file key
    kind: str                 # float | int | str | path | sign | floats | strs
    required: bool = False
    default: object = None
    help: str = ""
    least: float | None = None  # lower bound; for a list kind, of every item


_LISTS = ("floats", "strs")
_COMMON = [
    _Param("config", "path", help="line-oriented key = value file; flags override it"),
    _Param("out", "path", required=True, help="output CSV path"),
]
_THREADS = _Param("threads", "int", default=1, help="worker threads (>= 1)", least=1)
_SIGN = _Param("sign", "sign", default="+", help="sign of the 1/xi phase term")
_PROFILE = _Param("profile", "path", required=True, help="input profile CSV (xi,re,im)")
_SEED = _Param("seed", "int", default=0, help="seed of the counter-based Gaussian draws")


@dataclass(frozen=True)
class RunConfig:
    """A fully-resolved invocation: subcommand plus validated parameters."""

    subcommand: str
    params: dict


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text.strip()!r}")
    return value


def _convert(param: _Param, text: str):
    kind = param.kind
    try:
        if kind == "float":
            return _finite(text)
        if kind == "int":
            return int(text)
        if kind in _LISTS:
            parts = tuple(piece.strip() for piece in text.split(",") if piece.strip())
            if not parts:
                raise ValueError("empty list")
            return tuple(map(_finite, parts)) if kind == "floats" else parts
        if kind == "sign" and text not in ("+", "-"):
            raise ValueError(f"sign must be + or -, got {text!r}")
        return text
    except ValueError as exc:
        raise UsageError(f"--{param.name}: {exc}") from exc


def _read_config_file(path: str, params: dict[str, _Param]) -> dict[str, object]:
    values: dict[str, object] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key = key.strip().replace("_", "-")
        if key == "config" or key not in params:
            raise UsageError(f"{path}:{lineno}: unknown key {key.strip()!r}")
        try:
            values[key] = _convert(params[key], value.strip())
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ostrovsky-lab", allow_abbrev=False,
                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, (_, params) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False)
        for param in params:
            sub.add_argument(f"--{param.name}", dest=param.name.replace("-", "_"),
                             type=str, default=None, help=param.help)
    return parser


def parse_config(argv: Sequence[str] | None = None) -> RunConfig:
    """argv (+ optional config file) -> validated RunConfig.

    File values fill in unset flags; explicit flags always win; whatever
    is still missing falls back to the declared default or is reported
    as a usage error naming the parameter.
    """
    namespace = _build_parser().parse_args(argv)
    if namespace.subcommand is None:
        raise UsageError(f"choose a subcommand: {', '.join(_SUBCOMMANDS)}")
    declared = {p.name: p for p in _SUBCOMMANDS[namespace.subcommand][1]}

    flags: dict[str, object] = {}
    for param in declared.values():
        raw = getattr(namespace, param.name.replace("-", "_"))
        if raw is not None:
            flags[param.name] = _convert(param, raw)

    merged = _read_config_file(str(flags["config"]), declared) if "config" in flags else {}
    merged.update(flags)

    resolved: dict[str, object] = {}
    for param in declared.values():
        if param.required and param.name not in merged:
            raise UsageError(f"missing required parameter --{param.name}")
        resolved[param.name.replace("-", "_")] = merged.get(param.name, param.default)
    for param in declared.values():
        value, listed = resolved[param.name.replace("-", "_")], param.kind in _LISTS
        if param.least is not None and min(value if listed else (value,)) < param.least:
            values = " values" if listed else ""
            raise UsageError(f"--{param.name}{values} must be >= {param.least:g}")
    _validate(namespace.subcommand, resolved)
    return RunConfig(namespace.subcommand, resolved)


def _validate(subcommand: str, params: dict) -> None:
    if subcommand == "counterexample" and params["k_min"] > params["k_max"]:
        raise UsageError("--k-min must not exceed --k-max")
    if subcommand == "propagate":
        given = (params["x_min"] is not None) + (params["x_max"] is not None)
        if given == 1:
            raise UsageError("--x-min and --x-max must be given together")
        if given == 2 and params["x_min"] >= params["x_max"]:
            raise UsageError("--x-min must be below --x-max")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _run_propagate(params: dict) -> tuple[dict, int]:
    p = read_profile(params["profile"])
    if params["x_min"] is not None:
        grid = SpaceGrid.spanning(params["x_min"], params["x_max"], params["nx"])
    else:
        grid = observation_grid(p, n=params["nx"])
    write_field(propagate(p, params["t"], params["sign"], grid), params["out"])
    report = validate_resolution(p, params["t"], params["sign"])
    block = {"resolution": {"max_phase_increment": report.max_phase_increment,
                            "truncated_mass": p.truncated_mass}}
    return block, 0


def _run_counterexample(params: dict) -> tuple[dict, int]:
    ks = list(range(params["k_min"], params["k_max"] + 1))

    def ratio_at(k: int) -> tuple[float, float]:
        spec = CounterexampleSpec(k=k, s=params["s"])
        return counterexample_ratio(spec, n_t=params["nt"], sign=params["sign"])

    ratios, uppers = zip(*parallel_map(ratio_at, ks, params["threads"]))
    write_table(params["out"], ["k", "Rk", "log2Rk"],
                ([str(k), format_float(r), format_float(math.log2(r))]
                 for k, r in zip(ks, ratios)))
    block: dict = {"rk_upper": list(uppers), "fit": None}
    if len(ks) >= 3:
        fit = scaling_fit(list(zip(ks, ratios)))
        block["fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                        "residual": fit.residual, "expected_slope": 0.25 - params["s"],
                        "slope_range": list(slope_range(ks, ratios, uppers))}
    return block, 0


def _run_khinchine(params: dict) -> tuple[dict, int]:
    results = khinchine_check(params["coeffs"], params["p"], params["n"], params["seed"])
    write_table(params["out"], ["p", "ratio", "stderr", "analytic"],
                ([format_float(value) for value in (res.power, res.ratio, res.ratio_stderr,
                                                    khinchine_analytic_ratio(res.power))]
                 for res in results))
    return {}, 0


def _run_stochastic_continuity(params: dict) -> tuple[dict, int]:
    p = read_profile(params["profile"])
    curve = stochastic_continuity(p, params["x"], params["alpha"], params["t"],
                                  params["n"], params["seed"], params["sign"])
    # the sidecar values come first, so a refused norm leaves no CSV behind
    block = {"fit": {"l2_norm": hs_norm(p, 0.0)}}
    columns = (curve.t_values, curve.empirical_probs, curve.wilson_lo, curve.wilson_hi)
    write_table(params["out"], ["t", "prob", "wilson_lo", "wilson_hi"],
                ([format_float(value) for value in row] for row in zip(*columns)))
    return block, 0


def _load_corpus_dir(path: str) -> list[CorpusEntry]:
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise UsageError(f"no profile CSVs found in {path}")
    return [CorpusEntry(f.stem, read_profile(f), max_resolved_t=0.0) for f in files]


def _run_verify_lemmas(params: dict) -> tuple[dict, int]:
    entries = (_load_corpus_dir(params["corpus"]) if params["corpus"] is not None
               else default_corpus())
    reports = run_corpus(entries, params["sign"], only=params["only"],
                         threads=params["threads"])
    write_reports(reports, params["out"])
    failed = sum(1 for r in reports if not r.passed)
    skipped_by_reason = Counter(r.params["skip"] for r in reports if "skip" in r.params)
    worst: dict = {}
    for r in reports:
        best = worst.get(r.lemma_id)
        # strict, so the first of equal constants in report order is kept
        if "skip" not in r.params and (best is None or r.fitted_c > best.fitted_c):
            worst[r.lemma_id] = r
    block = {"summary": {
        "reports": len(reports), "passed": len(reports) - failed, "failed": failed,
        "skipped": sum(skipped_by_reason.values()),
        "skipped_by_reason": dict(skipped_by_reason),
        "worst_fitted_c": {lemma_id: {"fitted_c": r.fitted_c, "profile_id": r.profile_id}
                           for lemma_id, r in worst.items()},
    }}
    return block, (2 if failed else 0)


def _run_trace(params: dict) -> tuple[dict, int]:
    p = read_profile(params["profile"])
    deviations = convergence_trace(p, params["x"], params["t"], params["sign"])
    write_table(params["out"], ["t", "deviation"],
                ([format_float(t), format_float(d)] for t, d in zip(params["t"], deviations)))
    return {}, 0


#: Every subcommand, its handler and its parameters, in the order help lists them.
_SUBCOMMANDS: dict[str, tuple[Callable[[dict], tuple[dict, int]], list[_Param]]] = {
    "propagate": (_run_propagate, _COMMON + [
        _PROFILE,
        _Param("t", "float", required=True, help="evolution time"),
        _SIGN,
        _Param("nx", "int", default=4096, help="number of output x points", least=2),
        _Param("x-min", "float", help="left edge of an explicit x grid"),
        _Param("x-max", "float", help="right edge of an explicit x grid"),
    ]),
    "counterexample": (_run_counterexample, _COMMON + [
        _Param("s", "float", required=True, help="Sobolev regularity of the family"),
        _Param("k-min", "int", required=True, help="first dyadic scale"),
        _Param("k-max", "int", required=True, help="last dyadic scale"),
        _SIGN,
        _Param("nt", "int", default=256, help="time samples per scale", least=1),
        _THREADS,
    ]),
    "khinchine": (_run_khinchine, _COMMON + [
        _Param("p", "floats", required=True, help="comma-separated moment orders", least=1),
        # a Khinchine ratio needs two samples for its standard error
        _Param("n", "int", required=True, help="Monte Carlo sample count", least=2),
        _SEED,
        _Param("coeffs", "floats", default=(1.0,), help="coefficient sequence"),
    ]),
    "stochastic-continuity": (_run_stochastic_continuity, _COMMON + [
        _Param("alpha", "float", required=True, help="exceedance threshold"),
        _Param("t", "floats", required=True, help="strictly decreasing times"),
        _Param("n", "int", required=True, help="Monte Carlo sample count", least=1),
        _SEED,
        _Param("x", "float", default=0.0, help="observation point"),
        _PROFILE,
        _SIGN,
    ]),
    "verify-lemmas": (_run_verify_lemmas, _COMMON + [
        _Param("corpus", "path", help="directory of profile CSVs (default: built-in corpus)"),
        _Param("only", "strs", help="comma-separated lemma ids to keep"),
        _THREADS,
        _SIGN,
    ]),
    "trace": (_run_trace, _COMMON + [
        _PROFILE,
        _Param("x", "float", required=True, help="observation point"),
        _Param("t", "floats", required=True, help="strictly decreasing times (0 allowed last)"),
        _SIGN,
    ]),
}


def dispatch(cfg: RunConfig) -> int:
    """Run the configured experiment, write CSV + sidecar, return exit code."""
    start = time.perf_counter()
    block, code = _SUBCOMMANDS[cfg.subcommand][0](cfg.params)
    meta = {
        "version": __version__,
        "subcommand": cfg.subcommand,
        "config": dict(sorted(cfg.params.items())),
        "wall_clock_s": time.perf_counter() - start,
    }
    meta.update(block)
    # serialised before the file is opened, so a nan or inf leaves no partial sidecar
    text = json.dumps(meta, indent=2, allow_nan=False)
    with open(f"{cfg.params['out']}.meta.json", "w", encoding="utf-8", newline="") as handle:
        handle.write(text + "\n")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cfg = parse_config(argv)
        return dispatch(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
