"""Command-line entry point: config parsing, dispatch, CSV/JSON reports.

Every subcommand writes one CSV (LF endings, shortest-roundtrip floats)
plus a JSON sidecar ``<out>.meta.json`` echoing the resolved config and
any fitted constants, so a run is reproducible from its artifacts alone.

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
from .parallel import parallel_map, resolve_threads
from .randomized import khinchine_analytic_ratio, khinchine_check, stochastic_continuity
from .rough import CounterexampleSpec, convergence_trace, counterexample_ratio, scaling_fit
from .spectral import SpaceGrid, evolve_spectral, hs_norm, require_resolution, synthesize

SUBCOMMANDS = ("propagate", "counterexample", "khinchine",
               "stochastic-continuity", "verify-lemmas", "trace")


class UsageError(ValueError):
    """Bad invocation (missing/unknown/malformed parameters)."""


@dataclass(frozen=True)
class _Param:
    name: str                 # flag / config-file key
    kind: str                 # float | int | str | path | sign | floats | strs
    required: bool = False
    default: object = None
    help: str = ""


_COMMON = [
    _Param("config", "path", help="line-oriented key = value file; flags override it"),
    _Param("out", "path", required=True, help="output CSV path"),
]

_PARAMS: dict[str, list[_Param]] = {
    "propagate": _COMMON + [
        _Param("profile", "path", required=True, help="input profile CSV (xi,re,im)"),
        _Param("t", "float", required=True, help="evolution time"),
        _Param("sign", "sign", default="+", help="sign of the 1/xi phase term"),
        _Param("nx", "int", default=4096, help="number of output x points"),
        _Param("x-min", "float", help="left edge of an explicit x grid"),
        _Param("x-max", "float", help="right edge of an explicit x grid"),
    ],
    "counterexample": _COMMON + [
        _Param("s", "float", required=True, help="Sobolev regularity of the family"),
        _Param("k-min", "int", required=True, help="first dyadic scale"),
        _Param("k-max", "int", required=True, help="last dyadic scale"),
        _Param("sign", "sign", default="+"),
        _Param("nt", "int", default=256, help="time samples per scale"),
        _Param("threads", "int", help="worker threads (env OSTROVSKY_LAB_THREADS)"),
    ],
    "khinchine": _COMMON + [
        _Param("p", "floats", required=True, help="comma-separated moment orders"),
        _Param("n", "int", required=True, help="Monte Carlo sample count"),
        _Param("seed", "int", default=0),
        _Param("coeffs", "floats", default=(1.0,), help="coefficient sequence"),
    ],
    "stochastic-continuity": _COMMON + [
        _Param("alpha", "float", required=True, help="exceedance threshold"),
        _Param("t", "floats", required=True, help="strictly decreasing times"),
        _Param("n", "int", required=True, help="Monte Carlo sample count"),
        _Param("seed", "int", default=0),
        _Param("x", "float", default=0.0, help="observation point"),
        _Param("profile", "path", required=True),
        _Param("sign", "sign", default="+"),
    ],
    "verify-lemmas": _COMMON + [
        _Param("corpus", "path", help="directory of profile CSVs (default: built-in corpus)"),
        _Param("only", "strs", help="comma-separated lemma ids to keep"),
        _Param("threads", "int"),
        _Param("sign", "sign", default="+"),
    ],
    "trace": _COMMON + [
        _Param("profile", "path", required=True),
        _Param("x", "float", required=True, help="observation point"),
        _Param("t", "floats", required=True, help="strictly decreasing times (0 allowed last)"),
        _Param("sign", "sign", default="+"),
    ],
}


@dataclass(frozen=True)
class RunConfig:
    """A fully-resolved invocation: subcommand plus validated parameters."""

    subcommand: str
    params: dict

    @property
    def out_path(self) -> str:
        return self.params["out"]

    def echo(self) -> dict:
        """JSON-ready parameter echo (tuples as lists, stable key order)."""
        out = {}
        for key in sorted(self.params):
            value = self.params[key]
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


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
        if kind == "floats":
            parts = [piece.strip() for piece in text.split(",") if piece.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(_finite(piece) for piece in parts)
        if kind == "strs":
            return tuple(piece.strip() for piece in text.split(",") if piece.strip())
        if kind == "sign":
            if text not in ("+", "-"):
                raise ValueError(f"sign must be + or -, got {text!r}")
            return text
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
    for name, params in _PARAMS.items():
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
        raise UsageError(f"choose a subcommand: {', '.join(SUBCOMMANDS)}")
    declared = {p.name: p for p in _PARAMS[namespace.subcommand]}

    flags: dict[str, object] = {}
    for param in declared.values():
        raw = getattr(namespace, param.name.replace("-", "_"))
        if raw is not None:
            flags[param.name] = _convert(param, raw)

    merged: dict[str, object] = {}
    if "config" in flags:
        merged.update(_read_config_file(str(flags["config"]), declared))
    merged.update(flags)

    resolved: dict[str, object] = {}
    for param in declared.values():
        if param.name in merged:
            resolved[param.name.replace("-", "_")] = merged[param.name]
        elif param.required:
            raise UsageError(f"missing required parameter --{param.name}")
        else:
            resolved[param.name.replace("-", "_")] = param.default
    _validate(namespace.subcommand, resolved)
    return RunConfig(namespace.subcommand, resolved)


def _validate(subcommand: str, params: dict) -> None:
    if subcommand == "counterexample":
        if params["k_min"] > params["k_max"]:
            raise UsageError("--k-min must not exceed --k-max")
        if params["nt"] < 1:
            raise UsageError("--nt must be >= 1")
    if subcommand == "propagate":
        given = (params["x_min"] is not None) + (params["x_max"] is not None)
        if given == 1:
            raise UsageError("--x-min and --x-max must be given together")
        if given == 2 and params["x_min"] >= params["x_max"]:
            raise UsageError("--x-min must be below --x-max")
        if params["nx"] < 2:
            raise UsageError("--nx must be >= 2")
    if subcommand in ("khinchine", "stochastic-continuity") and params["n"] < 1:
        raise UsageError("--n must be >= 1")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _run_propagate(params: dict) -> tuple[dict, int]:
    p = read_profile(params["profile"])
    if params["x_min"] is not None:
        grid = SpaceGrid.spanning(params["x_min"], params["x_max"], params["nx"])
    else:
        grid = observation_grid(p, n=params["nx"])
    report = require_resolution(p, params["t"], params["sign"])
    u = synthesize(evolve_spectral(p, params["t"], params["sign"]), grid)
    write_field(u, params["out"])
    block = {"resolution": {"max_phase_increment": report.max_phase_increment,
                            "truncated_mass": report.truncated_mass}}
    return block, 0


def _run_counterexample(params: dict) -> tuple[dict, int]:
    ks = list(range(params["k_min"], params["k_max"] + 1))
    threads = resolve_threads(params["threads"])

    def ratio_at(k: int) -> float:
        spec = CounterexampleSpec(k=k, s=params["s"])
        return counterexample_ratio(spec, n_t=params["nt"], sign=params["sign"])

    ratios = parallel_map(ratio_at, ks, threads)
    write_table(params["out"], ["k", "Rk", "log2Rk"],
                ([str(k), format_float(r), format_float(math.log2(r))]
                 for k, r in zip(ks, ratios)))
    block: dict = {"fit": None}
    if len(ks) >= 3:
        fit = scaling_fit(list(zip(ks, ratios)))
        block["fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                        "residual": fit.residual, "expected_slope": 0.25 - params["s"]}
    return block, 0


def _run_khinchine(params: dict) -> tuple[dict, int]:
    results = []
    for power in params["p"]:
        res = khinchine_check(params["coeffs"], power, params["n"], params["seed"])
        results.append({"p": power, "ratio": res.ratio, "stderr": res.ratio_stderr,
                        "analytic": khinchine_analytic_ratio(power)})
    header = ["p", "ratio", "stderr", "analytic"]
    write_table(params["out"], header,
                ([format_float(result[key]) for key in header] for result in results))
    return {"results": results}, 0


def _run_stochastic_continuity(params: dict) -> tuple[dict, int]:
    p = read_profile(params["profile"])
    curve = stochastic_continuity(p, params["x"], params["alpha"], params["t"],
                                  params["n"], params["seed"], params["sign"])
    columns = (curve.t_values, curve.empirical_probs, curve.wilson_lo, curve.wilson_hi)
    write_table(params["out"], ["t", "prob", "wilson_lo", "wilson_hi"],
                ([format_float(value) for value in row] for row in zip(*columns)))
    block = {"fit": {"alpha": params["alpha"], "x": params["x"],
                     "n_samples": params["n"],
                     "l2_norm": hs_norm(p, 0.0),
                     "final_prob": float(curve.empirical_probs[-1])}}
    return block, 0


def _load_corpus_dir(path: str) -> list[CorpusEntry]:
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise UsageError(f"no profile CSVs found in {path}")
    return [CorpusEntry(f.stem, read_profile(f), max_resolved_t=0.0) for f in files]


def _run_verify_lemmas(params: dict) -> tuple[dict, int]:
    entries = (_load_corpus_dir(params["corpus"]) if params["corpus"] is not None
               else default_corpus())
    threads = resolve_threads(params["threads"])
    reports = run_corpus(entries, params["sign"], only=params["only"], threads=threads)
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
    return {"final_deviation": float(deviations[-1])}, 0


_HANDLERS: dict[str, Callable[[dict], tuple[dict, int]]] = {
    "propagate": _run_propagate,
    "counterexample": _run_counterexample,
    "khinchine": _run_khinchine,
    "stochastic-continuity": _run_stochastic_continuity,
    "verify-lemmas": _run_verify_lemmas,
    "trace": _run_trace,
}


def dispatch(cfg: RunConfig) -> int:
    """Run the configured experiment, write CSV + sidecar, return exit code."""
    start = time.perf_counter()
    block, code = _HANDLERS[cfg.subcommand](cfg.params)
    meta = {
        "version": __version__,
        "subcommand": cfg.subcommand,
        "config": cfg.echo(),
        "wall_clock_s": time.perf_counter() - start,
    }
    meta.update(block)
    # serialised before the file is opened, so a nan or inf leaves no partial sidecar
    text = json.dumps(meta, indent=2, allow_nan=False)
    with open(f"{cfg.out_path}.meta.json", "w", encoding="utf-8", newline="") as handle:
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
