"""Exact additive convolution sums of arithmetic functions.

The library sieves arithmetic functions (d, sigma_s, mu, phi, Lambda),
evaluates additive and shifted convolution sums exactly, computes
Ramanujan sums and truncated Ramanujan expansions, and checks the exact
values against asymptotic main terms with explicit error envelopes.

The package exports each module's __all__, in the order below.
"""

from . import arith, asymptotics, convolution, errors, ramanujan, special
from .arith import *
from .asymptotics import *
from .convolution import *
from .errors import *
from .ramanujan import *
from .special import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *arith.__all__,
    *asymptotics.__all__,
    *convolution.__all__,
    *errors.__all__,
    *ramanujan.__all__,
    *special.__all__,
]
