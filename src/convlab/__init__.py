"""Exact additive convolution sums of arithmetic functions.

The library sieves arithmetic functions (d, sigma_s, mu, phi, Lambda),
evaluates additive and shifted convolution sums exactly, computes
Ramanujan sums and truncated Ramanujan expansions, and checks the exact
values against asymptotic main terms with explicit error envelopes.

The package exports each module's __all__, in the order of _MODULES.
The exports are lazy (PEP 562): `import convlab` loads no module and no
numpy, and the first name asked of the package loads every module, so
a command-line entry can set BLAS's thread count before numpy loads.
"""

import os

__version__ = "0.1.0"

_MODULES = ("arith", "asymptotics", "convolution", "errors", "ramanujan", "special")

# OpenBLAS reads its thread count once, as numpy loads, from the first of
# these that holds a positive count, else it runs one thread per CPU
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads():
    # the thread count the environment gives OpenBLAS, None where it gives none
    for var in _BLAS_THREAD_VARS:
        try:
            count = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if count > 0:
            return count
    return None


def _pin_one_blas_thread() -> None:
    # a CLI entry, before numpy loads: one BLAS thread unless the user gave a count
    if _blas_threads() is None:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def __getattr__(name: str):
    # the first name asked binds every module's __all__ here, once, so a
    # name rebound on the package stays bound
    if "__all__" not in globals():
        from importlib import import_module

        modules = [import_module(f"{__name__}.{m}") for m in _MODULES]
        exports = {n: getattr(module, n) for module in modules for n in module.__all__}
        globals().update(exports, __all__=["__version__", *exports])
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
