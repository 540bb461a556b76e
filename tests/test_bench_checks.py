"""Every benchmark workload passes the benchmark's own output checks.

``perfbench/workloads.py`` plans each workload's CLI invocations from a seed
and checks their CSVs against its own reference formulas (the slope gate,
the Khinchine ratios, the dense sum, the exact-zero baselines).  Running the
seed-0 plan here, in process, shows a failing check in the test suite
rather than only when the benchmark runs.  The seed-0 `khinchine` run also
passes its check with its coefficients scaled to the ends of the double
range.
"""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from ostrovsky_lab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
setup_inputs = _load("setup_inputs")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_zero_plan_passes_its_checks(tmp_path, workload):
    plan = workloads.plan_for(workload, 0)
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    setup_inputs.write_inputs(inputs, plan.profiles)
    for inv in plan.invocations:
        assert cli.main(plan.argv(inv, inputs, out, 2)) == 0, inv.args
        errors, _ = workloads.CHECKS[inv.check](out / inv.out, inv, inputs)
        assert not errors, (inv.args, errors)


@pytest.mark.parametrize("e", [-600, 600])
def test_khinchine_check_passes_with_rescaled_coefficients(tmp_path, e):
    plan = workloads.plan_for("tail-curves", 0)
    [inv] = [inv for inv in plan.invocations if inv.check == "khinchine"]
    at = inv.args.index("--coeffs") + 1
    coeffs = ",".join(repr(math.ldexp(float(c), e)) for c in inv.args[at].split(","))
    inv = dataclasses.replace(inv, args=(*inv.args[:at], coeffs, *inv.args[at + 1:]))
    assert cli.main(plan.argv(inv, tmp_path, tmp_path, 2)) == 0, inv.args
    errors, _ = workloads.CHECKS[inv.check](tmp_path / inv.out, inv, tmp_path)
    assert not errors, (inv.args, errors)
