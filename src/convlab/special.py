"""Riemann zeta and the gamma function for real arguments, double precision.

zeta_real uses Euler-Maclaurin with cutoff K = 64 and Bernoulli
corrections through the B_6 term; absolute error is below 1e-12 for
1 < s <= 50.  gamma_real is math.gamma on the domain 0 < x <= 50.
"""

from __future__ import annotations

import math

from .errors import UsageError

__all__ = ["gamma_real", "zeta_real"]

_ZETA_CUTOFF = 64


def zeta_real(s: float) -> float:
    """zeta(s) for real 1 < s <= 50."""
    if not s > 1.0:
        raise UsageError(f"zeta_real requires s > 1, got {s}")
    if s > 50.0:
        raise UsageError(f"zeta_real supports s <= 50, got {s}")
    K = _ZETA_CUTOFF
    acc = math.fsum(k ** -s for k in range(1, K))
    acc += K ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * K**-s
    kinv2 = 1.0 / (K * K)
    t = s * K ** (-s - 1.0)
    acc += t / 12.0                           # B_2/2! * s * K**-(s+1)
    t *= (s + 1.0) * (s + 2.0) * kinv2
    acc -= t / 720.0                          # B_4/4! * s(s+1)(s+2) * K**-(s+3)
    t *= (s + 3.0) * (s + 4.0) * kinv2
    acc += t / 30240.0                        # B_6/6! * s...(s+4) * K**-(s+5)
    return acc


def gamma_real(x: float) -> float:
    """Gamma(x) for real 0 < x <= 50."""
    if not x > 0.0:
        raise UsageError(f"gamma_real requires x > 0, got {x}")
    if x > 50.0:
        raise UsageError(f"gamma_real supports x <= 50, got {x}")
    return math.gamma(x)
