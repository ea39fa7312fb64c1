"""The benchmark tracer's targets exist in the package under the names it uses.

`perfbench/tracer.py` rebinds every function, method and entry point it names
by module and name, and a renamed target only fails there, in a traced
benchmark run.  This reads its three tables, without changing them, and checks
each name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module, name",
    [(m, f) for m, f, _, _ in tracer.FUNCTIONS] + list(tracer.ENTRY_POINTS),
)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"mamp.{module}"), name, None))


@pytest.mark.parametrize("module, cls_name, method", [m[:3] for m in tracer.METHODS])
def test_traced_method_is_defined_on_its_class(module, cls_name, method):
    cls = getattr(importlib.import_module(f"mamp.{module}"), cls_name, None)
    assert isinstance(cls, type)
    # the tracer wraps the method where a class in the hierarchy defines it
    assert any(method in vars(c) for c in tracer.subclasses(cls))
