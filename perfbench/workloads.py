"""The four benchmark workloads: inputs drawn from a seed, and output checks.

A workload is a list of CLI invocations run one after another (a closed
loop with one client).  Everything the program sees is generated here from
the seed: the profile files written by ``setup_inputs.py`` (built-in corpus
profiles, optionally translated by a linear phase ``exp(i c xi)``) and the
flags of each invocation.  Argument templates use ``{inputs}`` for the
directory of generated profiles, ``{out}`` for the pass's fresh output
directory and ``{threads}`` for the worker count.

Each invocation names the check applied to its CSV; the checks here use only
the CSV text and the benchmark's own reference formulas, never the library.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# |ratio - analytic| may reach this many of the run's own standard errors
# before a Khinchine row fails.  For a normal estimate the two-sided chance of
# a false alarm is 2e-9 per row, negligible over every run and seed.
KHINCHINE_Z = 6.0

# Largest admissible |fitted slope - (1/4 - s)| for the rough family.
SLOPE_TOLERANCE = 0.05

# Dense-sum check of propagate output: rows sampled per file, and the largest
# error relative to the field's sup norm.  Loose enough for a chirp-z or other
# fast synthesis backend (4.5e-13 measured) while catching a wrong phase.
DENSE_ROWS = 16
DENSE_REL_TOL = 1e-9

ZERO_EXCLUSION = 2.0**-20


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]   # subcommand and flags, as templates; --out is appended
    out: str                # output CSV name inside the pass directory
    check: str              # key into CHECKS
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    profiles: tuple[tuple[str, float], ...]  # (corpus profile id, phase slope c)
    invocations: tuple[Invocation, ...]
    headline: tuple[str, ...]                 # spans that must record calls when traced

    def argv(self, inv: Invocation, inputs: Path, out: Path, threads: int) -> list[str]:
        return [a.format(inputs=inputs, out=out, threads=threads) for a in inv.args] + [
            "--out", str(out / inv.out)]


def _r(x: float) -> str:
    return repr(float(x))


def _corpus_audit(rng: random.Random) -> tuple:
    ids = ("gauss_low", "gauss_low_even", "band_unit", "band_low_even", "gauss_mid",
           "band_mid_even", "chirped_mid", "band_narrow", "gauss_high",
           "band_high_even", "mix_two_scale", "mix_band_gauss_even")
    sign = rng.choice("+-")
    profiles = tuple((pid, rng.uniform(-4.0, 4.0)) for pid in ids)
    inv = Invocation(("verify-lemmas", "--corpus", "{inputs}", "--threads", "{threads}",
                      "--sign", sign), "reports.csv", "reports")
    return profiles, (inv,), ("windows.square_function", "lemmas.run_corpus")


def _scaling_sweep(rng: random.Random) -> tuple:
    invs = []
    for i in range(3):
        s = rng.uniform(0.0, 0.25)
        for sign in "+-":
            invs.append(Invocation(
                ("counterexample", "--s", _r(s), "--k-min", "3", "--k-max", "8",
                 "--nt", "1024", "--threads", "{threads}", "--sign", sign),
                f"scaling_{i}{'p' if sign == '+' else 'm'}.csv", "slope", {"s": s}))
    return (), tuple(invs), ("rough.maximal_scan",)


def _tail_curves(rng: random.Random) -> tuple:
    sign = rng.choice("+-")
    ladders = (("gauss_low", "0.02", "1,0.1,0.01,0.001,0", 200_000),
               ("band_mid_even", "0.05", "0.001,0.0001,0.00001,0", 100_000))
    invs = []
    for pid, alpha, ts, n in ladders:
        invs.append(Invocation(
            ("stochastic-continuity", "--profile", f"{{inputs}}/{pid}.csv",
             "--alpha", alpha, "--t", ts, "--n", str(n), "--seed", str(rng.randrange(2**31)),
             "--x", _r(rng.uniform(-2.0, 2.0)), "--sign", sign),
            f"tail_{pid}.csv", "zero_baseline"))
    coeffs = ",".join(_r(rng.uniform(0.1, 1.0)) for _ in range(5))
    invs.append(Invocation(
        ("khinchine", "--p", "1,2,4", "--n", "1000000", "--coeffs", coeffs,
         "--seed", str(rng.randrange(2**31))), "khinchine.csv", "khinchine"))
    profiles = tuple((pid, 0.0) for pid, *_ in ladders)
    return profiles, tuple(invs), ("randomized.stochastic_continuity",
                                   "randomized.khinchine_check")


def _field_export(rng: random.Random) -> tuple:
    sign = rng.choice("+-")
    profiles = (("gauss_high", rng.uniform(-4.0, 4.0)),
                ("band_low_even", rng.uniform(-4.0, 4.0)))
    invs = [Invocation(("propagate", "--profile", f"{{inputs}}/{pid}.csv", "--t", t,
                        "--nx", "65536", "--sign", sign),
                       f"field_{pid}.csv", "dense",
                       {"profile": f"{pid}.csv", "t": float(t), "sign": sign,
                        "rows_seed": rng.randrange(2**31)})
            for (pid, _), t in zip(profiles, ("1e-3", "0.5"))]
    invs.append(Invocation(("trace", "--profile", "{inputs}/gauss_high.csv",
                            "--x", _r(rng.uniform(-1.0, 1.0)),
                            "--t", "1e-3,1e-4,1e-5,0", "--sign", sign),
                           "trace.csv", "zero_trace"))
    return profiles, tuple(invs), ("spectral.synthesize", "fileio.write_field")


_PLANNERS = {
    "corpus-audit": _corpus_audit,
    "scaling-sweep": _scaling_sweep,
    "tail-curves": _tail_curves,
    "field-export": _field_export,
}

WORKLOADS = tuple(_PLANNERS)


def plan_for(workload: str, seed: int) -> Plan:
    if workload not in _PLANNERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    profiles, invocations, headline = _PLANNERS[workload](rng)
    return Plan(workload, seed, profiles, invocations, headline)


# ---------------------------------------------------------------------------
# checks: each returns (errors, stats) for one invocation's CSV
# ---------------------------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _check_reports(path: Path, inv: Invocation, inputs: Path):
    rows = _rows(path)
    errors = []
    if not rows:
        errors.append("report is empty")
    for row in rows:
        verdict = float(row["measured_lhs"]) <= float(row["bound_rhs"])
        if row["pass"] != "true":
            errors.append(f"{row['lemma_id']}/{row['profile_id']} failed")
        if (row["pass"] == "true") != verdict:
            errors.append(f"{row['lemma_id']}/{row['profile_id']}: verdict disagrees with sides")
    return errors, {}


def _check_slope(path: Path, inv: Invocation, inputs: Path):
    rows = _rows(path)
    ks = np.array([float(r["k"]) for r in rows])
    logs = np.array([float(r["log2Rk"]) for r in rows])
    slope = float(np.polyfit(ks, logs, 1)[0])
    expected = 0.25 - inv.params["s"]
    if not abs(slope - expected) <= SLOPE_TOLERANCE:
        return [f"slope {slope:.4f} is not within {SLOPE_TOLERANCE} of {expected:.4f}"], {}
    return [], {}


def _check_zero_baseline(path: Path, inv: Invocation, inputs: Path):
    last = _rows(path)[-1]
    if float(last["t"]) != 0.0 or float(last["prob"]) != 0.0:
        return [f"t = 0 probability is {last['prob']}, not exactly 0"], {}
    return [], {}


def khinchine_ratio(power: float) -> float:
    """(E|S|^p)^(1/p) / (sqrt(p) ||c||) for S a complex Gaussian sum (Rayleigh |S|)."""
    return math.sqrt(2.0) * math.exp(math.lgamma(power / 2.0 + 1.0) / power) / math.sqrt(power)


def _check_khinchine(path: Path, inv: Invocation, inputs: Path):
    errors = []
    for row in _rows(path):
        p, ratio, stderr = float(row["p"]), float(row["ratio"]), float(row["stderr"])
        if not abs(ratio - khinchine_ratio(p)) <= KHINCHINE_Z * stderr:
            errors.append(f"p={p}: ratio {ratio} is more than {KHINCHINE_Z} stderr "
                          f"({stderr}) from {khinchine_ratio(p)}")
    return errors, {}


def _check_zero_trace(path: Path, inv: Invocation, inputs: Path):
    last = _rows(path)[-1]
    if float(last["t"]) != 0.0 or float(last["deviation"]) != 0.0:
        return [f"t = 0 deviation is {last['deviation']}, not exactly 0"], {}
    return [], {}


def dense_field(profile: Path, t: float, sign: str, x: np.ndarray) -> np.ndarray:
    """Reference synthesis by a direct trapezoid sum over the profile CSV."""
    table = np.array([[float(r["xi"]), float(r["re"]), float(r["im"])]
                      for r in _rows(profile)])
    xi = table[:, 0]
    amps = table[:, 1] + 1j * table[:, 2]
    amps[np.abs(xi) < ZERO_EXCLUSION] = 0.0
    keep = amps != 0.0
    step = (xi[-1] - xi[0]) / (xi.size - 1)
    weights = np.ones(xi.size)
    weights[0] = weights[-1] = 0.5
    xi, amps, weights = xi[keep], amps[keep], weights[keep]
    s = 1.0 if sign == "+" else -1.0
    evolved = weights * amps * np.exp(1j * t * (xi**3 + s / xi))
    return np.exp(1j * np.outer(x, xi)) @ evolved * (step / math.sqrt(2.0 * math.pi))


def _check_dense(path: Path, inv: Invocation, inputs: Path):
    rows = _rows(path)
    picked = random.Random(inv.params["rows_seed"]).sample(range(len(rows)), DENSE_ROWS)
    x = np.array([float(rows[j]["x"]) for j in picked])
    got = np.array([float(rows[j]["re"]) + 1j * float(rows[j]["im"]) for j in picked])
    sup = max(float(r["abs"]) for r in rows)
    want = dense_field(inputs / inv.params["profile"], inv.params["t"], inv.params["sign"], x)
    err = float(np.max(np.abs(got - want))) / sup
    errors = [] if err <= DENSE_REL_TOL else [
        f"field differs from the dense sum by {err:.3g} of its sup (tolerance {DENSE_REL_TOL})"]
    return errors, {"max_rel_err": err}


CHECKS = {
    "reports": _check_reports,
    "slope": _check_slope,
    "zero_baseline": _check_zero_baseline,
    "khinchine": _check_khinchine,
    "zero_trace": _check_zero_trace,
    "dense": _check_dense,
}
