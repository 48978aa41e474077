"""The functions perfbench/spans.py traces by name must exist in the package.

spans.py skips a traced name the package no longer has, so a rename would
make that layer's metrics read 0 without any error; its hooks read the
traced calls' arguments by parameter name, so those names must stay too.
The module is loaded from its path and only its tables and hook sources
are read; no tracer is installed.
"""

import importlib
import importlib.util
import inspect
import re
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


def _hook_reads():
    """(owner, attr, name) for every argument a hook reads of a traced function.

    A hook reads its bound arguments as args["name"] or args.get("name", ...).
    """
    reads = []
    for key, hook in vars(SPANS.Tracer).items():
        if not key.startswith("_after_"):
            continue
        source = inspect.getsource(hook)
        names = sorted(set(re.findall(r'args(?:\[|\.get\()"(\w+)"', source)))
        for span, owner, attr, _ in SPANS.SPANS:
            if span == key[len("_after_"):] and (owner, attr) not in STALE:
                reads += [pytest.param(owner, attr, name, id=f"{attr}-{name}")
                          for name in names]
    return reads


@pytest.mark.parametrize("owner, attr, name", _hook_reads())
def test_hook_reads_parameters_of_its_traced_function(owner, attr, name):
    # spans.py binds a traced call's arguments and its hooks read them by
    # name: a renamed t_span fails every traced run, and a renamed psi makes
    # eig.h_applies count 1 per call instead of k with no error
    function = getattr(importlib.import_module(f"fermisurf.{owner}"), attr)
    assert name in inspect.signature(function).parameters, f"{owner}.{attr}: {name}"
