"""Sieve-backed arithmetic functions.

A single smallest-prime-factor table is the source of truth: factorizations
come out of it in O(log n) divisions, and the classical point functions
d(n), sigma_s(n), mu(n), phi(n), Lambda(n) are evaluated from the
factorization; above the sieve's limit, to about its square, the sieve's
primes factor n by trial division.  Bulk tables over [1, N] are vectorised
rather than built per n: the sieve derives mu and phi from spf, only up
to the largest N or R a caller has asked for (FactorSieve.upto), Lambda
comes from the sieve's primes, and divisor sums from hyperbola
enumeration, so tabulation costs O(N log N) array element updates.  The
hyperbola tables (d, sigma, sigma_norm) never read the sieve, so their N
may exceed its limit.  The sieve and the tables are written in blocks of
at most _BLOCK entries, so the strided updates stay in cache; the order
of the updates each entry receives does not depend on the block size, and
neither do the bits of any table.  mu, phi and the hyperbola tables read
their own entries at m <= n/2, below n's block: mu and phi walk their
blocks up, and the hyperbola tables start from n**s and walk down, so a
cofactor j = n/d with d >= 2 still holds j**s.  Every table tabulate
returns is read-only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Hashable, List, Tuple

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

# f(p m) from f(m), p = spf(p m) and whether p divides m, for the tables
# FactorSieve derives from spf; dtype None is spf's own, which holds
# phi(n) <= n
_FROM_SPF = {
    "mobius": (np.int8, lambda mu_m, p, p_divides_m: np.where(p_divides_m, 0, -mu_m)),
    "phi": (None, lambda phi_m, p, p_divides_m: phi_m * np.where(p_divides_m, p, p - 1)),
}


@dataclass(frozen=True)
class FactorSieve:
    """Smallest-prime-factor table for 1..limit.

    Conventions: spf[0] = 0, spf[1] = 1, spf[p] = p for primes.  The table
    is immutable, but memo is filled lazily and has no lock, so a sieve
    is not safe to share between threads.  Memory is about
    4 bytes per entry (int32) for limits below 2**31.  build_sieve fills
    it one _BLOCK-sized segment at a time.

    Every table derived from it goes through memo: the primes, and the
    tables a caller reads only on 0..R, which prefix(key, R, build) keeps
    one per key at the largest R asked for so far.  upto(name, R) is that
    cache over the mu and phi tables built from spf; other modules keep
    their own keys.
    """

    limit: int
    spf: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def primes(self) -> np.ndarray:
        """All primes up to the sieve limit, ascending, read-only; built once."""
        primes = self.memo.get("primes")
        if primes is None:
            primes = self.memo["primes"] = _primes(self.spf)
            primes.setflags(write=False)
        return primes

    def upto(self, name: str, R: int) -> np.ndarray:
        """mu ("mobius", int8) or phi ("phi", spf's dtype) on 0..R, read-only.

        Entry 0 is 0.
        """
        return self.prefix(name, R, lambda n_max: self._from_spf(name, n_max))

    def prefix(self, key: Hashable, R: int, build: Callable[[int], np.ndarray]) -> np.ndarray:
        """build(R) on 0..R, read-only, for 0 <= R <= limit.

        memo keeps one table per key, at the largest R asked for so far.
        A longer table is built only after memo has let go of the shorter
        one, so the two never sit in the cache together.
        """
        if not 0 <= R <= self.limit:
            raise UsageError(f"R must lie in [0, {self.limit}], got {R}")
        if len(self.memo.get(key, ())) <= R:
            self.memo.pop(key, None)
            self.memo[key] = build(R)
            self.memo[key].setflags(write=False)
        return self.memo[key][: R + 1]

    def _from_spf(self, name: str, n_max: int) -> np.ndarray:
        # f(n) = step(f(m), p, p | m) for n = p m with p = spf(n); the
        # blocks run up, so m <= n / 2 is already filled
        dtype, step = _FROM_SPF[name]
        out = np.zeros(n_max + 1, dtype=dtype or self.spf.dtype)
        out[1:2] = 1
        for lo, hi in _halving_blocks(n_max):
            p = self.spf[lo:hi]
            m = np.arange(lo, hi, dtype=p.dtype) // p
            out[lo:hi] = step(out[m], p, m % p == 0)
        return out


def _halving_blocks(n_max: int) -> List[Tuple[int, int]]:
    # [lo, hi) over 2..n_max, ascending, at most _BLOCK long and hi <= 2 lo,
    # so each m <= n/2 of an n in a block lies below it: finished when the
    # blocks run up, untouched when they run down
    edges = [2]
    while edges[-1] <= n_max:
        edges.append(min(2 * edges[-1], edges[-1] + _BLOCK, n_max + 1))
    return list(zip(edges, edges[1:]))


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p_i**e_i with p_i strictly increasing."""

    n: int
    factors: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class ArithTable:
    """Values of one arithmetic function on 1..N, N = len(values) - 1.

    values is 1-indexed; values[0] is unused and zero.
    kind is a canonical tag such as "divisor", "sigma(2)", "sigma_norm(0.5)",
    "mobius", "phi", "lambda" or "custom".  Every table tabulate returns
    is read-only; the mobius and phi values are views of the sieve's own
    tables, not copies.  abs_max, the table-wide max |value| that proves
    an exact sum fits int64, is computed once on first use.
    """

    kind: str
    values: np.ndarray

    @property
    def N(self) -> int:
        return len(self.values) - 1

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)

    @cached_property
    def abs_max(self) -> int:
        """max |values[n]| over the whole integer table, cached.

        The cache is only as good as the values staying put, so the
        convolution kernels read it only from read-only tables that view
        no writable array.
        """
        return max(-int(self.values.min()), int(self.values.max()))


def build_sieve(limit: int) -> FactorSieve:
    """Build the smallest-prime-factor table for 1..limit.

    Raises UsageError for limit < 2 or a table too large for numpy to
    address, and propagates MemoryError if the table (about 4*limit bytes)
    cannot be allocated.
    """
    if limit < 2:
        raise UsageError(f"sieve limit must be >= 2, got {limit}")
    check_addressable(limit, "sieve limit")
    return FactorSieve(limit=limit, spf=_spf_table(limit))


def check_addressable(n: int, what: str) -> None:
    """Raise UsageError when an 8-byte table over 0..n is past numpy's index type."""
    if (n + 1) * 8 > np.iinfo(np.intp).max:
        raise UsageError(f"{what} {n} is too large for one array")


def _spf_table(limit: int) -> np.ndarray:
    # Segment by segment, each prime p <= sqrt(limit) (from the sieve of
    # sqrt(limit)) writes p over its multiples from p*p on, the largest p
    # first, so the smallest prime factor of a composite writes last.  What
    # is still 0 after that is n itself: 0, 1 or a prime.
    dtype = np.int32 if limit < 2**31 else np.int64
    spf = np.zeros(limit + 1, dtype=dtype)
    root = math.isqrt(limit)
    primes = _primes(_spf_table(root)).tolist() if root >= 2 else []
    for lo in range(0, limit + 1, _BLOCK):
        hi = min(lo + _BLOCK, limit + 1)
        for p in reversed(primes[: bisect.bisect_right(primes, math.isqrt(hi - 1))]):
            spf[max(p * p, -(-lo // p) * p) : hi : p] = p
        seg = spf[lo:hi]
        rest = np.flatnonzero(seg == 0)
        seg[rest] = rest + lo
    return spf


def _primes(spf: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [_primes_in(spf, lo, min(lo + _BLOCK, len(spf))) for lo in range(0, len(spf), _BLOCK)]
    )


def _primes_in(spf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # the primes n in [lo, hi): n >= 2 with spf[n] == n
    lo = max(lo, 2)
    return np.flatnonzero(spf[lo:hi] == np.arange(lo, hi, dtype=spf.dtype)) + lo


def factorize(sieve: FactorSieve, n: int) -> Factorization:
    """Factor n, for 1 <= n < (sieve.limit + 1)**2.

    Up to the limit, by repeated division by the sieve's smallest prime
    factors.  Above it, the primes p <= sqrt(n) dividing n come out of one
    vectorised remainder over the sieve's primes, with no scan of spf, and
    what is left of n above 1 has no prime factor up to sqrt(n), so it is
    prime.  From (limit + 1)**2 on, sqrt(n) passes the limit and a prime
    factor of n could be missing from the sieve.
    """
    top = (sieve.limit + 1) ** 2 - 1
    if not 1 <= n <= top:
        raise UsageError(f"n must lie in [1, {top}], got {n}")
    factors: List[Tuple[int, int]] = []
    m = n
    if n <= sieve.limit:
        while m > 1:
            p = int(sieve.spf[m])
            m, e = _divide_out(m, p)
            factors.append((p, e))
    else:
        primes = sieve.primes()
        primes = primes[: np.searchsorted(primes, math.isqrt(n), side="right")]
        if n > np.iinfo(np.int64).max:
            primes = primes.astype(object)
        for p in primes[n % primes == 0].tolist():
            m, e = _divide_out(m, p)
            factors.append((p, e))
        if m > 1:
            factors.append((m, 1))
    return Factorization(n=n, factors=tuple(factors))


def _divide_out(m: int, p: int) -> Tuple[int, int]:
    # (m / p**e, e) for the largest e with p**e | m
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return m, e


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
    """sigma_s(n) = sum_{d | n} d**s for real s, in double precision.

    The d(n) powers float(d)**s are added by math.fsum, so the sum is
    correctly rounded from them.  The main terms of the sigma sums read
    sigma of their N from here.
    """
    return math.fsum(float(d) ** s for d in divisors(f))


def sigma_rational(f: Factorization, k: int) -> int | Fraction:
    """sigma_k(n) exactly, for integer k >= -1.

    An int for k >= 0, from the Euler product in integers; for k = -1 the
    Fraction sigma_1(n) / n, the case the main terms consume.  Conversion
    to float is left to the caller so it happens exactly once.
    """
    if k < -1:
        raise UsageError(f"sigma_rational supports k >= -1, got {k}")
    if k == -1:
        return Fraction(sigma_rational(f, 1), f.n)
    if k == 0:
        return divisor_count(f)
    out = 1
    for p, e in f.factors:
        pk = p**k
        out *= (pk ** (e + 1) - 1) // (pk - 1)
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


def _hyperbola_table(N: int, s: int | float, dtype) -> np.ndarray:
    # sum_{d | n} d**s by hyperbola pairing: each d <= sqrt(n) dividing n
    # adds d**s + (n/d)**s, and d = sqrt(n) takes its d**s back.  out
    # starts as n**s and the blocks run down, so each d >= 2 reads its
    # cofactor n/d while it is still (n/d)**s.  d ascends in each block, so
    # every n gets the same additions in the same order as whole-range passes.
    # sigma_s(n) <= d(n) n**s, and d(n) < 2**17 for any addressable n.  This
    # check comes first, so N**s below has at most about 1000 bits
    if s * math.log2(N) > 1000:
        raise UsageError(f"divisor powers d**{s:g} to N={N} would overflow float64")
    if isinstance(s, int) and N**s >= 2**61:
        raise UsageError(
            f"sigma({s}) table to N={N} would overflow 64-bit accumulation; "
            "use sigma_norm or sigma_real instead"
        )
    if s == 0:
        out = np.ones(N + 1, dtype=dtype)  # n**0, with no pass of powers
    else:
        out = np.arange(N + 1, dtype=dtype)
        out[0] = 1
        out **= s
    out[0] = 0
    for lo, hi in reversed(_halving_blocks(N)):
        out[lo:hi] += 1
        for d in range(2, math.isqrt(hi - 1) + 1):
            ds = d**s
            j0 = max(d, -(-lo // d))
            if s == 0:
                out[j0 * d : hi : d] += 2
            else:
                out[j0 * d : hi : d] += ds + out[j0 : (hi - 1) // d + 1]
            if lo <= d * d:
                out[d * d] -= ds
    return out


def _lambda_table(sieve: FactorSieve, N: int) -> np.ndarray:
    # math.log, not np.log: the two differ in the last bit for some p.  The
    # primes and their logs are found one _BLOCK of n at a time, so no
    # array or Python list of all the primes is ever built
    out = np.zeros(N + 1, dtype=np.float64)
    for lo in range(0, N + 1, _BLOCK):
        primes = _primes_in(sieve.spf, lo, min(lo + _BLOCK, N + 1))
        out[primes] = np.fromiter(map(math.log, primes.tolist()), np.float64, len(primes))
    for p in _primes_in(sieve.spf, 0, math.isqrt(N) + 1).tolist():
        pk = p * p
        while pk <= N:
            out[pk] = out[p]
            pk *= p
    return out


_TABLE_KINDS = ("divisor", "sigma", "mobius", "phi", "lambda", "sigma_norm")
# the kinds tabulate reads from the sieve; the others are hyperbola tables
SIEVE_KINDS = ("mobius", "phi", "lambda")


def tabulate(sieve: FactorSieve, kind: str, N: int, s: float | None = None) -> ArithTable:
    """Tabulate one arithmetic function on 1..N.

    kind is one of "divisor", "sigma", "mobius", "phi", "lambda",
    "sigma_norm"; the sigma kinds take the exponent s.  sigma with a
    non-negative integer s yields an exact integer table, any other s a
    float table.  sigma_norm(s) tabulates sigma_s(n) / n**s, which is
    sigma_{-s}(n).  A table that could overflow raises UsageError before
    anything is allocated: any one with t log2 N > 1000 for its powers
    d**t (t = s, or -s for sigma_norm), checked first, and an integer one
    past int64.
    mobius, phi and lambda read the sieve and require N <= sieve.limit;
    the hyperbola kinds (divisor, sigma, sigma_norm) never read it.
    """
    if kind not in _TABLE_KINDS:
        raise UsageError(f"unknown table kind {kind!r}")
    if kind in SIEVE_KINDS and N > sieve.limit:
        raise UsageError(f"{kind} table: N must lie in [1, {sieve.limit}], got {N}")
    if N < 1:
        raise UsageError(f"N must be >= 1, got {N}")
    check_addressable(N, "table to N =")
    if kind in ("sigma", "sigma_norm"):
        if s is None:
            raise UsageError(f"kind {kind!r} needs an exponent s")
        s = float(s)
    elif s is not None:
        raise UsageError(f"kind {kind!r} takes no exponent")

    if kind == "divisor":
        kind, values = "divisor", _hyperbola_table(N, 0, np.int32)
    elif kind == "sigma":
        if s >= 0 and s.is_integer():
            values = _hyperbola_table(N, int(s), np.int64)
        else:
            values = _hyperbola_table(N, s, np.float64)
        kind = f"sigma({s:g})"
    elif kind == "sigma_norm":
        kind, values = f"sigma_norm({s:g})", _hyperbola_table(N, -s, np.float64)
    elif kind in ("mobius", "phi"):
        values = sieve.upto(kind, N)
    else:
        values = _lambda_table(sieve, N)
    values.setflags(write=False)
    return ArithTable(kind, values)
