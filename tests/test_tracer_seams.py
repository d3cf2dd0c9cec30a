"""The traced benchmark wraps convlab functions by name; keep those names alive.

bench/tracer.py is loaded read-only from the checkout: install() is never
called, so nothing in convlab is wrapped.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("_bench_tracer_seams", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_function_exists():
    wrapped = _wrapped()
    assert wrapped
    for span, (modname, funcs) in wrapped.items():
        module = importlib.import_module(f"convlab.{modname}")
        for fname in funcs:
            assert callable(getattr(module, fname, None)), f"{span}: convlab.{modname}.{fname}"


def test_additive_convolution_binds_f_g_spec():
    from convlab.convolution import additive_convolution

    bound = inspect.signature(additive_convolution).bind("f", "g", "spec")
    assert set(bound.arguments) == {"f", "g", "spec"}



def test_tabulate_binds_kind():
    # the tabulate span records its "kind" argument by name
    from convlab.arith import tabulate

    bound = inspect.signature(tabulate).bind("sieve", "kind", "N")
    assert bound.arguments["kind"] == "kind"
