"""The functions perfbench/spans.py traces by name must exist in the package.

spans.py skips a traced name the package no longer has, so a rename would
make that layer's metrics read 0 without any error. The module is loaded
from its path and only its tables are read; no tracer is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# wrapped by name, but eig has not imported them since its sine transform
# replaced scipy's DST; the eig.precond_* metrics read 0 until the tracer
# moves into the package
STALE = {("eig", "dstn"), ("eig", "idstn")}


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans_module()


@pytest.mark.parametrize(
    "span, owner, attr, only_in",
    [entry for entry in SPANS.SPANS if entry[1:3] not in STALE],
)
def test_traced_function_resolves(span, owner, attr, only_in):
    module = importlib.import_module(f"fermisurf.{owner}")
    assert callable(getattr(module, attr, None)), f"{span}: fermisurf.{owner}.{attr}"
    for name in only_in or ():
        importlib.import_module(f"fermisurf.{name}")


@pytest.mark.parametrize("span, owner, cls, method", SPANS.METHOD_SPANS)
def test_traced_method_resolves(span, owner, cls, method):
    module = importlib.import_module(f"fermisurf.{owner}")
    assert callable(getattr(getattr(module, cls, None), method, None)), span


def test_solve_ivp_keeps_the_t_span_parameter():
    # spans.py binds solve_ivp's arguments and reads args["t_span"] to count
    # forward and backward integrations; a rename would fail every traced run
    from fermisurf.tf_atom import solve_ivp

    assert "t_span" in inspect.signature(solve_ivp).parameters
