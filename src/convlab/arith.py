"""Sieve-backed arithmetic functions.

A single smallest-prime-factor table is the source of truth: factorizations
come out of it in O(log n) divisions, and the classical point functions
d(n), sigma_s(n), mu(n), phi(n), Lambda(n) are evaluated from the
factorization.  Bulk tables over [1, N] are vectorised rather than built
per n: the sieve derives its own mu and phi tables from spf on first use,
Lambda comes from the sieve's primes, and divisor sums from hyperbola
enumeration, so tabulation costs O(N log N) array element updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .errors import UsageError

__all__ = [
    "FactorSieve",
    "Factorization",
    "ArithTable",
    "build_sieve",
    "factorize",
    "divisors",
    "divisor_count",
    "sigma_real",
    "sigma_rational",
    "mobius",
    "euler_phi",
    "von_mangoldt",
    "tabulate",
]

_BLOCK = 1 << 20


@dataclass(frozen=True)
class FactorSieve:
    """Smallest-prime-factor table for 1..limit.

    Conventions: spf[0] = 0, spf[1] = 1, spf[p] = p for primes.  The table
    is immutable and safe to share between threads.  Memory is about
    4 bytes per entry (int32) for limits below 2**31.

    The read-only mobius (int8) and phi (int64) tables cover 0..limit and
    are built from spf on first use, about 9 more bytes per entry.  memo
    holds tables other modules derive from this sieve, keyed by name.
    """

    limit: int
    spf: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def primes(self) -> np.ndarray:
        """All primes up to the sieve limit, ascending."""
        idx = np.arange(self.limit + 1, dtype=self.spf.dtype)
        mask = self.spf == idx
        mask[:2] = False
        return np.nonzero(mask)[0]

    @cached_property
    def mobius(self) -> np.ndarray:
        """mu(n) for n = 0..limit (mu[0] = 0), read-only int8."""
        return self._from_spf(
            np.int8, lambda mu_m, p, p_divides_m: np.where(p_divides_m, 0, -mu_m)
        )

    @cached_property
    def phi(self) -> np.ndarray:
        """phi(n) for n = 0..limit (phi[0] = 0), read-only int64."""
        return self._from_spf(
            np.int64, lambda phi_m, p, p_divides_m: phi_m * np.where(p_divides_m, p, p - 1)
        )

    def _from_spf(self, dtype, step) -> np.ndarray:
        # f(n) = step(f(m), p, p | m) for n = p m with p = spf(n).  Blocks
        # [lo, hi) have hi <= 2 lo, so m <= n / 2 < lo is already filled.
        out = np.zeros(self.limit + 1, dtype=dtype)
        out[1] = 1
        lo = 2
        while lo <= self.limit:
            hi = min(2 * lo, lo + _BLOCK, self.limit + 1)
            p = self.spf[lo:hi]
            m = np.arange(lo, hi, dtype=p.dtype) // p
            out[lo:hi] = step(out[m], p, m % p == 0)
            lo = hi
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p_i**e_i with p_i strictly increasing."""

    n: int
    factors: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class ArithTable:
    """Values of one arithmetic function on 1..N.

    values has length N + 1 and is 1-indexed; values[0] is unused and zero.
    kind is a canonical tag such as "divisor", "sigma(2)", "sigma_norm(0.5)",
    "mobius", "phi", "lambda" or "custom".
    """

    kind: str
    N: int
    values: np.ndarray
    s: float | None = None

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)


def build_sieve(limit: int) -> FactorSieve:
    """Build the smallest-prime-factor table for 1..limit.

    Raises UsageError for limit < 2 and propagates MemoryError if the
    table (about 4*limit bytes) cannot be allocated.
    """
    if limit < 2:
        raise UsageError(f"sieve limit must be >= 2, got {limit}")
    dtype = np.int32 if limit < 2**31 else np.int64
    spf = np.zeros(limit + 1, dtype=dtype)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    spf[1] = 1
    return FactorSieve(limit=limit, spf=spf)


def factorize(sieve: FactorSieve, n: int) -> Factorization:
    """Factor n by repeated division by the sieve's smallest prime factors."""
    if not 1 <= n <= sieve.limit:
        raise UsageError(f"n must lie in [1, {sieve.limit}], got {n}")
    spf = sieve.spf
    factors: List[Tuple[int, int]] = []
    m = n
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return Factorization(n=n, factors=tuple(factors))


def divisors(f: Factorization) -> List[int]:
    """All positive divisors of f.n, ascending."""
    out = [1]
    for p, e in f.factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def divisor_count(f: Factorization) -> int:
    """d(n) = prod (e_i + 1)."""
    out = 1
    for _, e in f.factors:
        out *= e + 1
    return out


def sigma_real(f: Factorization, s: float) -> float:
    """sigma_s(n) = sum_{d | n} d**s for real s, via the Euler product.

    Each local factor is (p**(s(e+1)) - 1) / (p**s - 1), evaluated with
    expm1 for stability; s = 0 degenerates to the divisor count.
    """
    if s == 0.0:
        return float(divisor_count(f))
    out = 1.0
    for p, e in f.factors:
        lp = math.log(p)
        out *= math.expm1(s * (e + 1) * lp) / math.expm1(s * lp)
    return out


def sigma_rational(f: Factorization, k: int) -> Fraction:
    """sigma_k(n) as an exact rational, for integer k >= -1.

    sigma_{-1}(n) = sigma_1(n) / n is the case the main terms consume;
    conversion to float is left to the caller so it happens exactly once.
    """
    if k < -1:
        raise UsageError(f"sigma_rational supports k >= -1, got {k}")
    if k == 0:
        return Fraction(divisor_count(f))
    out = Fraction(1)
    for p, e in f.factors:
        pk = Fraction(p) ** k
        out *= (pk ** (e + 1) - 1) / (pk - 1)
    return out


def mobius(f: Factorization) -> int:
    for _, e in f.factors:
        if e > 1:
            return 0
    return -1 if len(f.factors) % 2 else 1


def euler_phi(f: Factorization) -> int:
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def von_mangoldt(f: Factorization) -> float:
    """log p when n is a prime power p**e, else 0."""
    if len(f.factors) == 1:
        return math.log(f.factors[0][0])
    return 0.0


# --- bulk tables -------------------------------------------------------


def _divisor_table(N: int) -> np.ndarray:
    # hyperbola pairing: each d <= sqrt(n) pairs with n/d, squares once
    out = np.zeros(N + 1, dtype=np.int32)
    for d in range(1, math.isqrt(N) + 1):
        out[d * d :: d] += 2
        out[d * d] -= 1
    return out


def _sigma_table(N: int, s: int | float) -> np.ndarray:
    # sum_{d | n} d**s by hyperbola pairing: exact int64 for an int s >= 1,
    # double precision for a float s
    if isinstance(s, int) and N**s >= 2**61:
        raise UsageError(
            f"sigma({s}) table to N={N} would overflow 64-bit accumulation; "
            "use sigma_norm or sigma_real instead"
        )
    dtype = np.int64 if isinstance(s, int) else np.float64
    out = np.zeros(N + 1, dtype=dtype)
    for d in range(1, math.isqrt(N) + 1):
        out[d * d :: d] += d**s + np.arange(d, N // d + 1, dtype=dtype) ** s
        out[d * d] -= d**s
    return out


def _lambda_table(sieve: FactorSieve, N: int) -> np.ndarray:
    out = np.zeros(N + 1, dtype=np.float64)
    for p in sieve.primes().tolist():
        if p > N:
            break
        logp = math.log(p)
        pk = p
        while pk <= N:
            out[pk] = logp
            pk *= p
    return out


_TABLE_KINDS = ("divisor", "sigma", "mobius", "phi", "lambda", "sigma_norm")


def tabulate(sieve: FactorSieve, kind: str, N: int, s: float | None = None) -> ArithTable:
    """Tabulate one arithmetic function on 1..N.

    kind is one of "divisor", "sigma", "mobius", "phi", "lambda",
    "sigma_norm"; the sigma kinds take the exponent s.  sigma with a
    non-negative integer s yields an exact integer table, any other s a
    float table.  sigma_norm(s) tabulates sigma_s(n) / n**s.  Requires
    N <= sieve.limit.
    """
    if kind not in _TABLE_KINDS:
        raise UsageError(f"unknown table kind {kind!r}")
    if not 1 <= N <= sieve.limit:
        raise UsageError(f"N must lie in [1, {sieve.limit}], got {N}")
    if kind in ("sigma", "sigma_norm"):
        if s is None:
            raise UsageError(f"kind {kind!r} needs an exponent s")
        s = float(s)
    elif s is not None:
        raise UsageError(f"kind {kind!r} takes no exponent")

    if kind == "divisor":
        return ArithTable("divisor", N, _divisor_table(N))
    if kind == "sigma":
        if s >= 0 and s.is_integer():
            k = int(s)
            values = _divisor_table(N).astype(np.int64) if k == 0 else _sigma_table(N, k)
        else:
            values = _sigma_table(N, s)
        return ArithTable(f"sigma({s:g})", N, values, s=s)
    if kind == "sigma_norm":
        return ArithTable(f"sigma_norm({s:g})", N, _sigma_table(N, -s), s=s)
    if kind == "mobius":
        return ArithTable("mobius", N, sieve.mobius[: N + 1].copy())
    if kind == "phi":
        return ArithTable("phi", N, sieve.phi[: N + 1].copy())
    return ArithTable("lambda", N, _lambda_table(sieve, N))
