"""Every benchmark wrap point still names a function of the package.

The traced benchmark replaces these functions by name; a refactor that
drops or renames one leaves its layer absent from the trace. The smoke
tests under perfbench/ are not part of this suite, so check it here.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module_name, attr",
    [(p[1], p[2]) for p in tracer.WRAP_POINTS],
    ids=[f"{p[1]}.{p[2]}" for p in tracer.WRAP_POINTS],
)
def test_wrap_point_resolves(module_name, attr):
    assert tracer._resolve(module_name, attr) is not None
