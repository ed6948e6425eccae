"""Every aspo name that the benchmark's span recorder looks up still exists.

``perfbench/spans.py`` finds the functions and methods it wraps by string,
so a renamed or deleted one would fail only a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from aspo.evaluation import EvalHarness

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans",
    Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

#: (module, dotted name) of everything ``Tracer.install`` looks up
LOOKED_UP = [(f"aspo.{short}", attr)
             for short, table in spans.FUNCTIONS.items() for attr in table] \
    + [(f"aspo.{short}", f"{cls}.{attr}")
       for short, cls, attr in spans.METHODS] \
    + [("aspo.gp", "minimize"), ("aspo.acquisition", "minimize"),
       ("aspo.checkpoints", "CheckpointStore.insert")]


@pytest.mark.parametrize("module, name", LOOKED_UP)
def test_name_resolves(module, name):
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_evaluate_binds_the_observed_arguments():
    # the evaluate observer binds each call and reads these three by name
    params = inspect.signature(EvalHarness.evaluate).parameters
    assert {"cfg", "strategy", "db"} <= set(params)
