"""The benchmark tracer's targets still exist with the parameters it reads.

``perfbench/tracer.py`` wraps library functions by name and binds some of
their arguments by name to count work.  A rename or a signature change would
only surface when the benchmark runs; this test makes it fail here instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# argument names each counter hook reads from the bound call
BOUND_BY_HOOK = {
    "_cells_xi_x": ("p", "grid"),
    "_cells_maximal_scan": ("p", "grid", "n_t"),
    "_bytes_read": ("path",),
    "_bytes_written": ("path",),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_with_its_bound_parameters():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{target.module}")
        fn = getattr(module, target.function, None)
        assert inspect.isfunction(fn), target.span_name
        parameters = inspect.signature(fn).parameters
        for hook in (target.before, target.after):
            if hook is None:
                continue
            for name in BOUND_BY_HOOK.get(hook.__name__, ()):
                assert name in parameters, f"{target.span_name} lost parameter {name!r}"
