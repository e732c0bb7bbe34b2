"""Every name the benchmark's tracer patches still exists in cakecut.

``perfbench/tracer.py`` rebinds the functions and ``Valuation`` methods in its
``TARGETS`` table to timing wrappers.  A target renamed or deleted in cakecut
breaks ``perfbench/run.py --trace 1``; this test catches that in the tier-1
suite.  The tracer is imported by path, as a file, and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module_name, attr, span", tracer.TARGETS,
                         ids=[span for _, _, span in tracer.TARGETS])
def test_every_traced_name_is_a_callable_of_cakecut(module_name, attr, span):
    module = importlib.import_module(module_name)
    owner, _, name = attr.rpartition(".")
    # The tracer reads a method from its class's own __dict__, a function from the module.
    target = vars(getattr(module, owner)).get(name) if owner else getattr(module, name, None)
    assert callable(target), f"{span}: {module_name}.{attr} is not a callable"
