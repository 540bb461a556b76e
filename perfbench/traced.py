"""Traced in-process run of one workload through ``cli.main``.

Usage: python3 traced.py SPEC_JSON_PATH

The spec names the workload, seed, input directory, work directory, thread
count, time budget and result path.  Each repetition runs three kinds of
pass over the workload's invocations, each into a fresh directory:

* ``traced``: every layer wrapped by :class:`tracer.Tracer`, including a
  rewrite of the inputs through the library (the set-up step);
* ``plain``: the same invocations untraced, for the tracing overhead;
* ``serial``: untraced with ``--threads 1``, the plain serial baseline,
  only for workloads that pass ``--threads``.

The first statement times the package import, so nothing heavy may be
imported above it.  Outputs are checked by the parent process.
"""

import json
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    start = time.perf_counter()
    import ostrovsky_lab.cli as cli
    import_s = time.perf_counter() - start

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from setup_inputs import write_inputs
    from tracer import Tracer, TracerError
    from workloads import plan_for

    plan = plan_for(spec["workload"], spec["seed"])
    inputs, work = Path(spec["inputs"]), Path(spec["work"])
    threaded = any("{threads}" in arg for inv in plan.invocations for arg in inv.args)
    tracer = Tracer()
    invocation = 0

    def run_pass(kind: str, rep: int, threads: int) -> dict:
        nonlocal invocation
        out = work / f"{kind}-{rep}"
        out.mkdir()
        codes = []
        if kind == "traced":
            tracer.invocation = invocation
            invocation += 1
            (out / "inputs").mkdir()
            write_inputs(out / "inputs", plan.profiles)
        begin = time.perf_counter()
        for inv in plan.invocations:
            tracer.invocation = invocation
            invocation += 1
            try:
                codes.append(cli.main(plan.argv(inv, inputs, out, threads)))
            except Exception:  # a crash is a failed operation, not a lost run
                traceback.print_exc()
                codes.append(-1)
        return {"kind": kind, "dir": str(out), "wall_s": time.perf_counter() - begin,
                "codes": codes}

    passes, spans = [], None
    rep = 0
    while True:
        rep_start = time.perf_counter()
        tracer.reset()
        try:
            tracer.install()
        except TracerError as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            return 3
        try:
            traced = run_pass("traced", rep, spec["threads"])
        finally:
            tracer.uninstall()
        traced.update(self_s=tracer.self_times(), duration_s=tracer.durations(),
                      counts=dict(tracer.counts))
        if spans is None:
            spans = [vars(span) for span in tracer.spans]
        passes.append(traced)
        passes.append(run_pass("plain", rep, spec["threads"]))
        if threaded:
            passes.append(run_pass("serial", rep, 1))
        rep += 1
        now = time.perf_counter()
        if now - start + (now - rep_start) > spec["seconds"]:
            break

    Path(spec["spans"]).write_text(json.dumps(spans), encoding="utf-8")
    Path(spec["result"]).write_text(
        json.dumps({"import_s": import_s, "passes": passes}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
