"""The benchmark tracer can still find every method it wraps.

perfbench/tracer.py looks each traced method up in its class's own
`__dict__`, so moving one onto a base class breaks traced benchmark runs.
Planning the wrappers installs nothing, so this runs with the suite.
"""

import importlib
from pathlib import Path

import ncfree
import ncfree.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_plans_every_traced_method(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    plan = tracer.Tracer(ncfree)
    patched = {(owner, attr) for owner, attr, _, _ in plan._patches}
    for name in tracer.TENSOR2_METHODS:
        assert (ncfree.tensor.TensorPoly2, name) in patched
    for name in tracer.TENSOR3_METHODS:
        assert (ncfree.tensor.TensorPoly3, name) in patched
    for name in ("__init__", "__mul__", "__rmul__", "evaluate"):
        assert (ncfree.ncpoly.NcPoly, name) in patched
    # planning leaves the classes as they were
    for owner, attr, original, _ in plan._patches:
        assert vars(owner)[attr] is original
