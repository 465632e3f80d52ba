"""The names the benchmark's tracer patches exist in graphcodes.

``perfbench/tracer.py`` looks every traced function and method up with
``getattr``, so a deleted or renamed one breaks only the traced
benchmark pass.  This test resolves each of them, and checks that every
count-wrapped callable takes only plain positional parameters, as the
tracer's count wrapper requires.  The tracer is loaded by path, so the
test needs no package layout for perfbench.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _tracer()


def _resolve(mod_name, *attrs):
    obj = importlib.import_module(mod_name)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("target", tracer.SPAN_FUNCTIONS + tracer.COUNT_FUNCTIONS,
                         ids=lambda t: t[-1])
def test_traced_function_resolves(target):
    mod_name, attr, _ = target
    assert callable(_resolve(mod_name, attr))


@pytest.mark.parametrize("target", tracer.SPAN_METHODS + tracer.COUNT_METHODS,
                         ids=lambda t: t[-1])
def test_traced_method_resolves(target):
    mod_name, cls_name, meth, _ = target
    assert callable(_resolve(mod_name, cls_name, meth))


@pytest.mark.parametrize("target", [t[:-1] for t in tracer.COUNT_FUNCTIONS + tracer.COUNT_METHODS],
                         ids="-".join)
def test_count_wrapped_callables_take_plain_positional_parameters(target):
    params = inspect.signature(_resolve(*target)).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in params), target
