"""Benchmark of the ostrovsky-lab CLI: four workloads, end to end and by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus-audit --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each workload is a fixed list of CLI invocations generated from ``--seed``
(see ``workloads.py``) and run as a closed loop with one client: one
invocation at a time, each a fresh ``python3 -m ostrovsky_lab.cli`` process
importing the package from ``src/`` of this checkout.  Children run with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` and ``--threads`` equal
to the usable CPU count, so BLAS threads never multiply the worker threads.

``--trace 0`` times whole passes over the invocations for ``--seconds`` and
reports medians over passes of the end-to-end metrics listed in
``BENCHMARK.json``; set-up time is the median of several fresh interpreters
that import the package and write the inputs.  ``--trace 1`` runs the same
invocations in-process through ``cli.main`` with every layer wrapped (see
``traced.py``) and reports the per-layer metrics.

Every invocation is checked: exit code 0, an all-finite CSV that is
byte-identical across passes, a strict-JSON sidecar, and the workload's own
correctness check.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every check passed.  A benchmark error (missing sources, a
tracer that cannot cover a layer) exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import ITEM_SPAN, TARGETS  # noqa: E402
from workloads import CHECKS, WORKLOADS, Plan, plan_for  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3
RUN_LIMIT_S = 170.0   # no child may outlive this, measured from the start of the run
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "OSTROVSKY_LAB_THREADS")}
    env.update(PINNED_ENV, PYTHONPATH=str(SRC))
    return env


def spawn(argv: list[str], log: Path, deadline: float) -> tuple[int, float, object]:
    """Run one child to completion: (exit code, wall seconds, rusage)."""
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=handle, stderr=subprocess.STDOUT)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                proc.kill()

        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise BenchError(f"{' '.join(argv[:4])} ... exceeded the run's time limit")
    return proc.returncode, wall, usage


def log_tail(log: Path) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-3:])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_invocation(plan: Plan, index: int, code: int, out_dir: Path, inputs: Path,
                     reference: dict[str, str]) -> tuple[list[str], dict]:
    """Every check on one invocation's outputs; fills ``reference`` with hashes."""
    inv = plan.invocations[index]
    if code != 0:
        return [f"exit code {code}"], {}
    csv_path = out_dir / inv.out
    errors = []
    try:
        data = csv_path.read_bytes()
        json.loads((out_dir / f"{inv.out}.meta.json").read_text(encoding="utf-8"),
                   parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return [str(exc)], {}
    for line in data.decode("utf-8").splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                errors.append(f"non-finite value {cell!r} in {inv.out}")
                break
    digest = hashlib.sha256(data).hexdigest()
    if reference.setdefault(inv.out, digest) != digest:
        errors.append(f"{inv.out} differs from the first pass's bytes")
    found, stats = CHECKS[inv.check](csv_path, inv, inputs)
    return errors + found, stats


def check_pass(plan: Plan, codes: list[int], out_dir: Path, inputs: Path,
               reference: dict[str, str], failures: list[str]) -> dict:
    """Check one pass; append one message per failed invocation; merge stats."""
    merged: dict[str, float] = {}
    for index, code in enumerate(codes):
        errors, stats = check_invocation(plan, index, code, out_dir, inputs, reference)
        if errors:
            failures.append(f"{out_dir.name}/{plan.invocations[index].out}: "
                            + "; ".join(errors))
        for key, value in stats.items():
            merged[key] = max(merged.get(key, 0.0), value)
    return merged


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------


def setup_inputs(plan: Plan, work: Path, repeats: int, deadline: float) -> tuple[Path, list[float]]:
    """Write the inputs ``repeats`` times in fresh interpreters; keep the first set."""
    spec = json.dumps([[pid, c] for pid, c in plan.profiles])
    walls, first = [], None
    for rep in range(repeats):
        target = work / f"inputs-{rep}"
        target.mkdir()
        code, wall, _ = spawn([sys.executable, str(HERE / "setup_inputs.py"), str(SRC),
                               str(target), spec], work / f"setup-{rep}.log", deadline)
        if code != 0:
            raise BenchError(f"input set-up failed: {log_tail(work / f'setup-{rep}.log')}")
        walls.append(wall)
        files = {f.name: f.read_bytes() for f in sorted(target.iterdir())}
        if first is None:
            first = files
        elif files != first:
            raise BenchError("input set-up is not byte-identical across repeats")
        else:
            shutil.rmtree(target)
    return work / "inputs-0", walls


def run_passes(plan: Plan, inputs: Path, work: Path, threads: int, seconds: float,
               deadline: float) -> tuple[list[dict], list[str], int]:
    """Closed loop of subprocess passes for ``seconds`` (at least MIN_PASSES)."""
    passes, failures, reference = [], [], {}
    begin = time.perf_counter()
    attempted = 0
    while True:
        out_dir = work / f"pass-{len(passes)}"
        out_dir.mkdir()
        codes, cpu, rss = [], 0.0, 0
        start = time.perf_counter()
        for index, inv in enumerate(plan.invocations):
            argv = [sys.executable, "-m", "ostrovsky_lab.cli"] + plan.argv(
                inv, inputs, out_dir, threads)
            log = out_dir / f"{index}.log"
            code, _, usage = spawn(argv, log, deadline)
            if code != 0:
                print(f"  {inv.out}: exit {code}: {log_tail(log)}", file=sys.stderr)
            codes.append(code)
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss)
        wall = time.perf_counter() - start
        attempted += len(codes)
        check_pass(plan, codes, out_dir, inputs, reference, failures)
        shutil.rmtree(out_dir)
        passes.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss / 1024.0})
        elapsed = time.perf_counter() - begin
        if len(passes) >= MIN_PASSES and elapsed + wall > seconds:
            return passes, failures, attempted


def traced_run(plan: Plan, inputs: Path, work: Path, threads: int, seconds: float,
               deadline: float) -> tuple[dict, list[str], int, dict]:
    spec = {"workload": plan.workload, "seed": plan.seed, "src": str(SRC),
            "inputs": str(inputs), "work": str(work), "threads": threads,
            "seconds": seconds, "result": str(work / "traced.json"),
            "spans": str(OUT / f"{plan.workload}.spans.json")}
    spec_path = work / "traced-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log = work / "traced.log"
    code, _, _ = spawn([sys.executable, str(HERE / "traced.py"), str(spec_path)], log, deadline)
    if code != 0:
        raise BenchError(f"traced run exited {code}: {log_tail(log)}")
    result = json.loads((work / "traced.json").read_text(encoding="utf-8"))

    failures, reference, attempted, stats = [], {}, 0, {}
    for p in result["passes"]:
        attempted += len(p["codes"])
        found = check_pass(plan, p["codes"], Path(p["dir"]), inputs, reference, failures)
        for key, value in found.items():
            stats[key] = max(stats.get(key, 0.0), value)
        if p["kind"] == "traced":
            rewritten = Path(p["dir"]) / "inputs"
            if any((rewritten / f.name).read_bytes() != f.read_bytes() for f in inputs.iterdir()):
                failures.append(f"{Path(p['dir']).name}: traced set-up wrote different inputs")
            p["handler_s"] = sum(
                json.loads((Path(p["dir"]) / f"{inv.out}.meta.json").read_text(
                    encoding="utf-8"))["wall_clock_s"]
                for inv, c in zip(plan.invocations, p["codes"]) if c == 0)
    traced = [p for p in result["passes"] if p["kind"] == "traced"]
    for p in traced[1:]:
        if p["counts"] != traced[0]["counts"]:
            failures.append(f"{Path(p['dir']).name}: layer counts differ from the first "
                            "traced pass")
    for name in plan.headline:
        if traced[0]["counts"].get(f"{name}.calls", 0) < 1:
            raise BenchError(f"headline layer {name} recorded no call; was it renamed?")
    kinds = [p["kind"] for p in result["passes"]]
    # parallel_map's self time is its caller waiting for worker threads, not work
    top = sorted(((name, value) for name, value in traced[0]["self_s"].items()
                  if name != "parallel.parallel_map"), key=lambda item: -item[1])[:4]
    info = {"passes": {kind: kinds.count(kind) for kind in dict.fromkeys(kinds)},
            "top self_s": {name: round(value, 3) for name, value in top}}
    return layer_metrics(result, stats), failures, attempted, info


def layer_metrics(result: dict, stats: dict) -> dict[str, float]:
    """Per-layer values: counts from the first traced pass, times as medians."""
    by_kind: dict[str, list[dict]] = {}
    for p in result["passes"]:
        by_kind.setdefault(p["kind"], []).append(p)
    traced = by_kind["traced"]
    metrics = {name: value for name, value in traced[0]["counts"].items()}
    for key in ("self_s", "duration_s"):
        names = {n for p in traced for n in p[key]}
        for name in names:
            metrics[f"{name}.{key}"] = statistics.median(p[key].get(name, 0.0) for p in traced)
    wall = {kind: statistics.median(p["wall_s"] for p in ps) for kind, ps in by_kind.items()}
    metrics.update({
        "cli.import_s": result["import_s"],
        "cli.handler_s": statistics.median(p["handler_s"] for p in traced),
        "parallel.parallel_map.wall_s": metrics.get("parallel.parallel_map.duration_s", 0.0),
        "parallel.parallel_map.busy_s": metrics.get("parallel.item.duration_s", 0.0),
        "parallel.speedup": wall["serial"] / wall["plain"] if "serial" in wall else 0.0,
        "lemmas.reports": metrics.get("lemmas.run_corpus.reports", 0.0),
        "lemmas.skipped": metrics.get("lemmas.run_corpus.skipped", 0.0),
        "spectral.synthesize.max_rel_err": stats.get("max_rel_err", 0.0),
        "bench.trace_overhead": wall["traced"] / wall["plain"],
    })
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def machine_record(threads: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": threads, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "child_env": PINNED_ENV}


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def select(values: dict[str, float], declared: list[dict], trace: bool) -> dict:
    """The declared metrics in order; a traced layer the workload never calls reads 0."""
    traced_spans = {target.span_name for target in TARGETS} | {ITEM_SPAN}
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif trace and name.rsplit(".", 1)[0] in traced_spans:
            value = 0.0
        else:
            raise BenchError(f"declared metric {name} is not measured")
        out[name] = {"value": float(value), "unit": metric["unit"]}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    plan = plan_for(workload, seed)
    work = OUT / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, setup_walls = setup_inputs(plan, work, 1 if trace else SETUP_REPEATS, deadline)
        remaining = seconds - (time.perf_counter() - start) if trace else seconds
        if trace:
            values, failures, attempted, info = traced_run(plan, inputs, work, threads,
                                                           max(remaining, 0.0), deadline)
        else:
            passes, failures, attempted = run_passes(plan, inputs, work, threads,
                                                     seconds, deadline)
            samples = {key: [p[key] for p in passes] for key in passes[0]}
            samples["setup_s"] = setup_walls
            values = {key: statistics.median(v) for key, v in samples.items()}
            info = {f"{key} (median of {len(v)})": f"{min(v):.4g}..{max(v):.4g}"
                    for key, v in samples.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = select(values, declared_metrics(trace), trace)
    return {"workload": workload, "seed": seed, "threads": threads, "info": info,
            "failures": failures, "attempted": attempted, "metrics": metrics}


def print_report(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} threads={report['threads']} "
          f"attempted={report['attempted']} failed={len(report['failures'])} "
          f"fail_frac={len(report['failures']) / report['attempted']:.6g}")
    for key, value in report["info"].items():
        print(f"#   {key}: {value}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<45} {metric['value']:.6g} {metric['unit']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ostrovsky_lab" / "cli.py").is_file():
        print(f"no package sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
            "run_seconds"]
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    machine = machine_record(reports[0]["threads"])
    print(f"# machine {json.dumps(machine)}")
    for report in reports:
        print_report(report)
    failed = sum(len(r["failures"]) for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in reports for name, m in r["metrics"].items()}
    result = {"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-{'trace' if args.trace else 'e2e'}.json").write_text(
        json.dumps(dict(result, machine=machine, seed=args.seed)), encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
