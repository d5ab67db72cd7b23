"""The names the benchmark's tracer wraps must exist in the package.

The tracer (perfbench/tracer.py) binds each TARGETS entry by name when it
is installed; a rename or deletion here would break the traced benchmark
run, so it fails this test first.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PACKAGE, tracer.TARGETS


PACKAGE, TARGETS = _targets()


@pytest.mark.parametrize("module, qualname", [(m, q) for m, q, _ in TARGETS])
def test_tracer_target_resolves(module, qualname):
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        # the tracer replaces the class's own attribute, not an inherited one
        assert attr in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, qualname))


def test_benchmark_entry_points():
    # what perfbench/workloads.py re-steps a portrait row through and what
    # perfbench/child.py reads off the built system
    from denjoy_twist import cli

    built = cli.BuiltSystem(cli.load_config(None, ["params.M=16"]))
    system = built.system
    assert type(system.curve_height(0.3)) is float
    step = system.forward(0.3, 0.01)
    assert type(step) is tuple and len(step) == 2
    assert all(type(v) is float for v in step)
    arr_t, arr_r = system.forward(np.array([0.3]), np.array([0.01]))
    assert step == (float(arr_t[0]), float(arr_r[0]))
    assert built.g.n_pieces > 0 and len(built.g.local) == 2 * 16
