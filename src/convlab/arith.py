"""Sieve-backed arithmetic functions.

A single smallest-prime-factor table is the source of truth: factorizations
come out of it in O(log n) divisions, and the point functions sigma_s(n)
(d(n) as sigma_0) and mu(n) are evaluated from the factorization; above
the sieve's limit, to about its square, the sieve's primes factor n by
trial division.  Every argument a sieve serves, a factorization or a
table to n, is an integer below (limit + 1)**2 by one rule (as_index).
Bulk tables over [1, N] are vectorised rather than built per n.  mu,
phi, d, sigma_t for any real t, and the Ramanujan expansions' mu/phi and
phi**2 (+inf where mu = 0) are walked up from spf segments sieved on the
fly by the sieve's primes up to isqrt(N) (or sliced from spf where the
sieve reaches N): f(n) for n = p m, p = spf(n), comes from f(m) and,
where p divides m, from f(m / p), entries below n's block.  So their N
may reach the square of the sieve's limit, no spf to N is read, the
tables a caller reads together share one walk (FactorSieve.prepare), and
as the walk reads no entry above N / 2, a caller may hold only those and
take the rest block by block (FactorSieve.stream).  Lambda reads the
same segments, and prime_mask marks their primes, one byte per n, for
sums that read Lambda only at prime powers.  spf is sieved in segments of
_SEGMENT entries and the walk runs blocks of as many; the bits of no
table depend on the block size.  An integer table comes in the narrowest
dtype proven to hold it (int16 for d below 2**31, int32 for phi and for
sigma_k while N**k (2 + ln N) < 2**31), so a caller widens before it
multiplies values; sigma_t for any other t, sigma_norm and the Ramanujan
tables are float64.  mu, phi and the Ramanujan tables are cached per sieve
up to the largest N or R asked for (FactorSieve.upto), the divisor sums
only where a caller prepares them.
Every table tabulate returns is read-only.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import UsageError

__all__ = [
    "FactorSieve",
    "Factorization",
    "ArithTable",
    "build_sieve",
    "factorize",
    "divisors",
    "sigma_real",
    "sigma_rational",
    "mobius",
    "tabulate",
]

# At 2**18 int32 entries a segment of the sieve stays in L2 while the
# primes stride over it, and build_sieve(10**7) takes about 0.05 s
# against 0.08 s at 2**20 (2-vCPU Xeon).
_SEGMENT = 1 << 18
_WHEEL = 210  # 2 * 3 * 5 * 7, the period of the primes the sieve does not stride with


@dataclass(frozen=True)
class FactorSieve:
    """Smallest-prime-factor table for 1..limit.

    Conventions: spf[0] = 0, spf[1] = 1, spf[p] = p for primes.  The table
    is immutable, but memo is filled lazily and has no lock, so a sieve
    is not safe to share between threads.  Memory is about
    4 bytes per entry (int32) for limits below 2**31.  build_sieve fills
    it one _SEGMENT at a time, as the tables of the spf walk and Lambda
    sieve their own segments from its primes up to the root of their N.

    Every table derived from it goes through memo: the primes, and the
    tables of the spf walk, one per name at the largest R asked for so
    far.  The walk's tables sieve their own spf segments from the primes
    up to isqrt(R), so R may reach (limit + 1)**2 - 1 (as_index):
    prepare(names, R) caches any of them (_walk) built in one walk,
    upto(name, R) reads that cache, and walked(name, R) reads a divisor
    sum from it or walks the table alone, uncached.  Each of these walks
    holds its tables whole; stream(names, n_max, held) is the same walk
    holding them only on 0..held, at least n_max // 2, which is all the
    walk reads, and passing the blocks above through one reused buffer
    per table, so a sum that reads each table once holds about half of
    it.  Beside them ramanujan keeps its compact mu-power prefixes, which
    it grows in memo itself.
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
        """The walk's table name on 0..R, read-only, cached by prepare.

        Any name of prepare: mu ("mobius", int8), phi ("phi", int32 below
        2**31) and the float64 "mobius/phi" and "phi^2/mobius^2" the
        Ramanujan expansions read among them.  Entry 0 is 0, and R may
        reach (limit + 1)**2 - 1.
        """
        self.prepare((name,), R)
        return self.memo[name][: R + 1]

    def prepare(self, names: Sequence[str], R: int) -> None:
        """Cache each of names on at least 0..R, in one spf walk.

        names are the walk's tables: "mobius", "phi", "divisor",
        "sigma(k)" for an integer k >= 1 and "sigma(t)" for a real t
        written as a float (walk_name), and "mobius/phi" and
        "phi^2/mobius^2" (_walk).  The named tables cached shorter are
        dropped first and then built together, sharing each block's spf
        segment, so a caller that reads two of them, such as mu and phi,
        sigma_1 and d or mu and the singular-series weights, asks for them
        here and walks spf once, in either order.  R may reach
        (limit + 1)**2 - 1.
        """
        R = as_index("R", R, 0, self)
        short = [name for name in dict.fromkeys(names) if len(self.memo.get(name, ())) <= R]
        if not short:
            return
        for name in short:
            self.memo.pop(name, None)
        for name, table in zip(short, self.stream(short, R, R)[0]):
            table.setflags(write=False)
            self.memo[name] = table

    def walked(self, name: str, R: int) -> np.ndarray:
        """The walk's table name on 0..R, read-only, for d and sigma.

        A view of the table prepare cached, where it holds 0..R in the
        dtype of a table to R; otherwise a walk of its own, which memo
        does not keep: a d table to 10**7 is 20 MB, a float64 one 80 MB.
        """
        R = as_index("R", R, 0, self)
        dtype = _walk(name, R)[0]
        cached = self.memo.get(name)
        if cached is not None and len(cached) > R and cached.dtype == dtype:
            return cached[: R + 1]
        (table,), _ = self.stream([name], R, R)
        table.setflags(write=False)
        return table

    def stream(
        self, names: Sequence[str], n_max: int, held: int
    ) -> Tuple[List[np.ndarray], Iterator[Tuple[int, List[np.ndarray]]]]:
        """The walk's tables of names on 0..held, and their blocks above it.

        One walk to n_max, which may reach (limit + 1)**2 - 1.  Every
        entry it reads lies at or below n_max // 2, so held must lie in
        [n_max // 2, n_max], and the tables come back filled on 0..held.
        The iterator walks on over held + 1..n_max: per block, ascending,
        it yields (lo, views), one view per name of its values on
        [lo, lo + len), in one buffer per name that the next block
        overwrites.  Every block is at most _SEGMENT long, and all but the
        first and the last are _SEGMENT long.  Held whole (held = n_max),
        the walk yields no block, as for prepare and walked.
        """
        n_max = as_index("n_max", n_max, 0, self)
        held = as_index("held", held, n_max // 2)
        if held > n_max:
            raise UsageError(f"held must lie in [{n_max // 2}, {n_max}], got {held}")
        walks = [_walk(name, n_max) for name in names]
        tables = [np.zeros(held + 1, dtype) for dtype, _, _, _ in walks]
        for out in tables:
            out[1:2] = 1
        blocks = _spf_blocks(self, n_max)
        for lo, p in blocks:
            # a block that crosses held is split there
            cut = min(held + 1 - lo, len(p))
            if cut:
                _walk_block(tables, tables, walks, lo, p[:cut], 0)
            if cut < len(p):
                size = min(_SEGMENT, n_max - held)
                above = itertools.chain([(lo + cut, p[cut:])], blocks)
                return tables, _walk_above(tables, walks, size, above)
        return tables, iter(())


def _walk_above(tables, walks, size, blocks):
    # the (lo, spf) blocks of the walk above its held tables, each written
    # into one buffer per table of size entries, the longest block
    bufs = [np.empty(size, out.dtype) for out in tables]
    for lo, p in blocks:
        views = [buf[: len(p)] for buf in bufs]
        _walk_block(tables, views, walks, lo, p, lo)
        yield lo, views


def _walk_block(tables, dests, walks, lo, p, shift) -> None:
    # f(n) for n = p m, p = spf(n), over the block [lo, lo + len(p)), of
    # each f of walks (_walk), into dests[n - shift]: m <= n / 2 lies below
    # the block, in tables, filled as the blocks run up, and the tables
    # share the block's spf, m, the positions where p divides m and m / p
    # there.  The n with p = 2 or 3 read m = n / p and m / p from slices:
    # p divides m where n = 0 mod 4 or n = 9 mod 18.  So only the n prime
    # to 6 divide: phi and mu to 10**7 took about a fifth less time with
    # the even n so (2-vCPU host)
    hi = lo + len(p)
    for out, dest, (_, base, prime, power) in zip(tables, dests, walks):
        for q, r, step in _SMALL_PRIMES:
            b = base(p.dtype.type(q))
            n = slice(lo + (r - lo) % step, hi, step)
            at = _shifted(n, shift)
            fm = out[_divided(n, q)]
            if r % (q * q):
                np.multiply(fm, prime(b), out=dest[at])
            else:
                power(fm, out[_divided(n, q * q)], b, dest[at])
    for n, m, p_n, div, m_div, q in _coprime_parts(lo, p):
        at = _shifted(n, shift)
        for out, dest, (_, base, prime, power) in zip(tables, dests, walks):
            # np.take: out[m] took twice as long with int32 m.  Where p
            # divides m, power overwrites prime(b) f(m), which may pass
            # the dtype there
            b = base(p_n)
            t = np.take(out, m)
            t *= prime(b)
            fq = np.take(out, q)
            power(np.take(out, m_div), fq, b[div], fq)
            t[div] = fq
            dest[at] = t


def _shifted(n: slice, shift: int) -> slice:
    return slice(n.start - shift, n.stop - shift, n.step)


# (p, r, step): the n = r mod step have spf(n) = p, and p divides n / p
# where p * p divides r
_SMALL_PRIMES = ((2, 2, 4), (2, 0, 4), (3, 3, 18), (3, 15, 18), (3, 9, 18))


def _divided(n: slice, d: int) -> slice:
    # the entries n / d of the slice n of multiples of d, as a slice
    return slice(n.start // d, (n.stop - 1) // d + 1, n.step // d)


# The n of an spf block prime to 6 are walked at most _STEP at a time, so
# each part's temporaries stay about half a megabyte
_STEP = 1 << 15


def _coprime_parts(lo: int, p: np.ndarray):
    # (n, m, p, div, m[div], q) over the n prime to 6 of the block [lo,
    # lo + len(p)), p their spf, one residue mod 6 at a time: n = p m,
    # div the positions where p divides m and q = m / p there.  The parts
    # of a residue are of about equal length: parts of _STEP and a short
    # rest raised the session bench's peak RSS by 3 MB (glibc's mmap
    # threshold follows the sizes freed)
    hi = lo + len(p)
    for r in (1, 5):
        ns = range(lo + (r - lo) % 6, hi, 6)
        parts = -(-len(ns) // _STEP)
        for i in range(parts):
            part = ns[len(ns) * i // parts : len(ns) * (i + 1) // parts]
            a, b = part.start, part.stop
            p_n = p[a - lo : b - lo : 6]
            m = np.arange(a, b, 6, dtype=p.dtype)
            m //= p_n
            div = np.flatnonzero(m % p_n == 0)
            m_div = m[div]
            yield slice(a, b, 6), m, p_n, div, m_div, m_div // p_n[div]


def _walk(name: str, n_max: int):
    # (dtype, base, prime, power) of a table FactorSieve builds in its spf
    # walk: b = base(p) is computed once for the p of each part, f(n) =
    # prime(b) f(m) for n = p m, p = spf(n), where p does not divide m,
    # and power(f(m), f(m / p), b, out) writes f(n) into out where it
    # does.  mu is int8 and phi the spf dtype of n_max, which holds
    # phi(n) <= n
    if name == "mobius":
        return np.int8, _same, lambda b: -1, lambda fm, fq, b, out: out.fill(0)
    if name == "phi":
        return (_spf_dtype(n_max), _same, lambda b: b - 1,
                lambda fm, fq, b, out: np.multiply(fm, b, out=out))
    # mu/phi, the Hardy coefficients, and the singular-series weights
    # phi**2, +inf where mu = 0, in float64: products of -1/(p - 1) and of
    # (p - 1)**2 over the primes of n, 0 and +inf once p divides m.  Each
    # weight is an exact integer while phi(n)**2 < 2**53
    if name == "mobius/phi":
        return np.float64, _same, lambda b: -1.0 / (b - 1), lambda fm, fq, b, out: out.fill(0.0)
    if name == "phi^2/mobius^2":
        return (np.float64, _same, lambda b: np.square(b - 1.0),
                lambda fm, fq, b, out: out.fill(np.inf))
    # sigma_k, k an integer >= 0 in the integer dtype of _sigma_dtype, or
    # a real k written as a float in float64
    arg = "0" if name == "divisor" else name[len("sigma(") : -1]
    if arg.isdigit():
        k = int(arg)
        dtype = _sigma_dtype(n_max, k)
    else:
        k = float(arg)
        _check_powers(n_max, k)
        dtype = np.float64
    # b = p**k in the table's dtype: p itself for k = 1, and d reads none
    base = _same if k in (0, 1) else lambda p: np.power(p, k, dtype=dtype)

    def prime(b):
        return b + 1 if k else 2

    def power(fm, fq, b, out):
        # sigma_k(p m) = f(m) + p**k (f(m) - f(m / p)), from S_e =
        # (1 + p**k) S_{e-1} - p**k S_{e-2} on the powers of p.  f(m / p)
        # <= f(m), so every integer value on the way lies in
        # [0, sigma_k(p m)] and the table's dtype holds it
        np.subtract(fm, fq, out=out)
        if k:
            out *= b
        out += fm

    return dtype, base, prime, power


def _same(p):
    return p


def _halving_blocks(n_max: int, size: int) -> List[Tuple[int, int]]:
    # [lo, hi) over 2..n_max, ascending, at most size long and hi <= 2 lo,
    # so each m <= n/2 of an n in a block lies below it, finished when the
    # blocks run up
    edges = [2]
    while edges[-1] <= n_max:
        edges.append(min(2 * edges[-1], edges[-1] + size, n_max + 1))
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
    is read-only, and an integer one is in the narrowest dtype proven to
    hold it (int16 for d below 2**31), so widen before multiplying
    values; the mobius and phi values are views of the sieve's own
    tables, not copies.
    """

    kind: str
    values: np.ndarray

    @property
    def N(self) -> int:
        return len(self.values) - 1

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)


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


_INTP_MAX = int(np.iinfo(np.intp).max)


def check_addressable(n: int, what: str) -> None:
    """Raise UsageError when an 8-byte table over 0..n is past numpy's index type."""
    if (n + 1) * 8 > _INTP_MAX:
        raise UsageError(f"{what} {n} is too large for one array")


def as_index(name: str, value, lo: int, sieve: FactorSieve | None = None) -> int:
    """value as a Python int >= lo, else UsageError.

    numpy integers pass; a float does not, even an integral one, so no
    NaN, infinity or fraction is ever truncated into an index.  With a
    sieve, value is an argument the sieve serves, a factorization or a
    table to value, and must also lie below (sieve.limit + 1)**2, where
    the sieve's primes stop reaching isqrt(value), and be addressable.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if sieve is None:
        if value < lo:
            raise UsageError(f"{name} must be >= {lo}, got {value}")
        return value
    top = (sieve.limit + 1) ** 2 - 1
    if not lo <= value <= top:
        raise UsageError(f"{name} must lie in [{lo}, {top}], got {value}")
    check_addressable(value, name)
    return value


def as_real(name: str, value):
    """value unchanged if it is a real number (numbers.Real), else UsageError.

    Python and numpy integers and floats pass, NaN and infinities too, so
    a caller checks the type once, before it compares the value, and then
    bounds it with its own message.
    """
    if not isinstance(value, numbers.Real):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    return value


def _spf_table(limit: int) -> np.ndarray:
    # segment by segment, from the primes up to sqrt(limit) (from the
    # sieve of sqrt(limit))
    dtype = _spf_dtype(limit)
    spf = np.empty(limit + 1, dtype=dtype)
    root = math.isqrt(limit)
    primes = _primes(_spf_table(root)) if root >= 2 else np.zeros(0, dtype=dtype)
    wheel = _wheel(min(_SEGMENT, limit + 1) + _WHEEL, dtype)
    for lo in range(0, limit + 1, _SEGMENT):
        _spf_segment(spf[lo : lo + _SEGMENT], lo, primes, wheel)
    return spf


def _spf_dtype(limit: int):
    return np.int32 if limit < 2**31 else np.int64


def _wheel(length: int, dtype) -> np.ndarray:
    # the smallest of 2, 3, 5 and 7 dividing n for n = 0..length-1, and
    # dtype's max where none does
    n = np.arange(_WHEEL)
    period = np.full(_WHEEL, np.iinfo(dtype).max, dtype=dtype)
    for p in (7, 5, 3, 2):
        period[n % p == 0] = p
    return np.resize(period, length)


def _spf_segment(seg: np.ndarray, lo: int, primes: np.ndarray, wheel: np.ndarray) -> None:
    # spf of lo..lo+len(seg)-1 into seg, from the primes (ascending) up to
    # at least the root of its last entry and a _wheel at least
    # len(seg) + _WHEEL long.  seg starts as n itself.  Each prime
    # 7 < p <= sqrt(hi - 1) writes p over its odd multiples from p*p on,
    # the largest p first, so a composite's smallest prime factor writes
    # last; then the minimum with the wheel writes 2, 3, 5 or 7 where one
    # divides n, and leaves what is below it: 0, 1 and every other entry
    hi = lo + len(seg)
    seg[:] = np.arange(lo, hi, dtype=seg.dtype)
    first, last = np.searchsorted(primes, [7, math.isqrt(hi - 1)], side="right")
    p = primes[first:last][::-1].astype(np.int64)
    start = np.maximum(p * p, -(-lo // p) * p)
    start += p * (start // p % 2 == 0)
    for q, i in zip(p.tolist(), (start - lo).tolist()):
        seg[i :: 2 * q] = q
    offset = lo % _WHEEL
    np.minimum(seg, wheel[offset : offset + len(seg)], out=seg)


def _spf_blocks(sieve: FactorSieve, n_max: int):
    # (lo, spf of lo..hi-1) over the _halving_blocks of 2..n_max at most
    # _SEGMENT long: slices of the sieve's own spf where it reaches
    # n_max, else each sieved from its primes up to isqrt(n_max) into one
    # buffer, which the next block overwrites
    if n_max <= sieve.limit:
        for lo, hi in _halving_blocks(n_max, _SEGMENT):
            yield lo, sieve.spf[lo:hi]
        return
    root = _primes_in(sieve.spf[: math.isqrt(n_max) + 1], 0)
    buf = np.empty(min(_SEGMENT, n_max + 1), dtype=_spf_dtype(n_max))
    wheel = _wheel(len(buf) + _WHEEL, buf.dtype)
    for lo, hi in _halving_blocks(n_max, _SEGMENT):
        _spf_segment(buf[: hi - lo], lo, root, wheel)
        yield lo, buf[: hi - lo]


def _primes(spf: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [_primes_in(spf[lo : lo + _SEGMENT], lo) for lo in range(0, len(spf), _SEGMENT)]
    )


def _primes_in(seg: np.ndarray, lo: int) -> np.ndarray:
    # the primes n in [lo, lo + len(seg)), seg the spf of those n: the
    # n >= 2 with spf(n) == n
    skip = max(2 - lo, 0)
    n = np.arange(lo + skip, lo + len(seg), dtype=seg.dtype)
    return np.flatnonzero(seg[skip:] == n) + (lo + skip)


def factorize(sieve: FactorSieve, n: int) -> Factorization:
    """Factor n, for 1 <= n < (sieve.limit + 1)**2.

    Up to the limit, by repeated division by the sieve's smallest prime
    factors.  Above it, the primes p <= sqrt(n) dividing n come out of one
    vectorised remainder over the sieve's primes, with no scan of spf, and
    what is left of n above 1 has no prime factor up to sqrt(n), so it is
    prime.  From (limit + 1)**2 on, sqrt(n) passes the limit and a prime
    factor of n could be missing from the sieve (as_index).
    """
    n = as_index("n", n, 1, sieve)
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


def sigma_real(f: Factorization, s: float) -> float:
    """sigma_s(n) = sum_{d | n} d**s for real s, in double precision.

    The d(n) powers float(d)**s are added by math.fsum, so the sum is
    correctly rounded from them.  The main terms of the sigma sums read
    sigma of their N from here.
    """
    return math.fsum(float(d) ** s for d in divisors(f))


def sigma_rational(f: Factorization, k: int) -> int | Fraction:
    """sigma_k(n) exactly, for integer k >= -1.

    An int for k >= 0, from the Euler product in integers (prod (e + 1)
    for k = 0, where each factor's geometric sum is e + 1); for k = -1 the
    Fraction sigma_1(n) / n, the case the main terms consume.  Conversion
    to float is left to the caller so it happens exactly once.
    """
    if k < -1:
        raise UsageError(f"sigma_rational supports k >= -1, got {k}")
    if k == -1:
        return Fraction(sigma_rational(f, 1), f.n)
    out = 1
    for p, e in f.factors:
        pk = p**k
        out *= (pk ** (e + 1) - 1) // (pk - 1) if k else e + 1
    return out


def mobius(f: Factorization) -> int:
    for _, e in f.factors:
        if e > 1:
            return 0
    return -1 if len(f.factors) % 2 else 1


# --- bulk tables -------------------------------------------------------


def _check_powers(N: int, s: float) -> None:
    # sigma_s(n) <= d(n) n**s, and d(n) < 2**17 for any addressable n
    if s * math.log2(N) > 1000:
        raise UsageError(f"divisor powers d**{s:g} to N={N} would overflow float64")


def _sigma_dtype(N: int, k: int):
    # the narrowest dtype proven to hold sigma_k on 0..N, for an int k >= 0,
    # after the float64 check of the powers, which comes first, so N**k
    # below has at most about 1000 bits: int16 for d = sigma_0 below
    # N = 2**31, where d(n) < 1750 (Nicolas and Robin, Canad. Math. Bull.
    # 26, 1983), int32 above.  For k >= 1, int32 while k log2 N +
    # log2(2 + ln N) < 31: sigma_k(n) <= n**k H_n <= n**k (1 + ln n), and
    # the extra N**k is the margin an earlier build of these tables
    # needed, kept so no dtype changed; int64 above, up to 2**61
    _check_powers(N, k)
    if N**k >= 2**61:
        raise UsageError(
            f"sigma({k}) table to N={N} would overflow 64-bit accumulation; "
            "use sigma_norm or sigma_real instead"
        )
    if k == 0:
        return np.int16 if N < 2**31 else np.int32
    if k * math.log2(N) + math.log2(2 + math.log(N)) < 31:
        return np.int32
    return np.int64


def prime_mask(sieve: FactorSieve, n_max: int) -> np.ndarray:
    """Whether n is prime, for n = 0..n_max: one byte per n.

    The primes are the n >= 2 with spf(n) == n in spf segments sieved from
    the sieve's primes up to isqrt(n_max), so n_max may reach
    (limit + 1)**2 - 1, and no spf to n_max is kept.
    """
    n_max = as_index("n_max", n_max, 0, sieve)
    out = np.zeros(n_max + 1, dtype=bool)
    for lo, seg in _spf_blocks(sieve, n_max):
        n = np.arange(lo, lo + len(seg), dtype=seg.dtype)
        np.equal(seg, n, out=out[lo : lo + len(seg)])
    return out


def higher_prime_powers(sieve: FactorSieve, n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """(q, p): the prime powers q = p**e <= n_max, e >= 2, ascending, and their p.

    Read from the sieve's primes up to isqrt(n_max).
    """
    powers, bases = [], []
    for p in _primes_in(sieve.spf[: math.isqrt(n_max) + 1], 0).tolist():
        q = p * p
        while q <= n_max:
            powers.append(q)
            bases.append(p)
            q *= p
    order = np.argsort(powers, kind="stable")
    return np.array(powers, dtype=np.int64)[order], np.array(bases, dtype=np.int64)[order]


def _lambda_table(sieve: FactorSieve, N: int) -> np.ndarray:
    # Lambda(p**k) = log p.  The primes to N come out of _spf_blocks, so
    # neither spf to N nor a list of all the primes is built.  math.log,
    # not np.log: the two differ in the last bit for some p
    out = np.zeros(N + 1, dtype=np.float64)
    for lo, seg in _spf_blocks(sieve, N):
        primes = _primes_in(seg, lo)
        out[primes] = np.fromiter(map(math.log, primes.tolist()), np.float64, len(primes))
    powers, bases = higher_prime_powers(sieve, N)
    out[powers] = out[bases]
    return out


_TABLE_KINDS = ("divisor", "sigma", "mobius", "phi", "lambda", "sigma_norm")


def walk_name(kind: str, s: float | None = None) -> str | None:
    """The FactorSieve.prepare name of a kind table, None for lambda.

    "mobius", "phi" and "divisor"; sigma_s is "divisor" for s = 0 and
    "sigma(k)" for an integer s = k >= 1, and any other sigma_t is
    "sigma(t)", t written as a float: t = s for sigma and -s for
    sigma_norm(s) = sigma_{-s}, so sigma_norm(s) and sigma(-s) name one
    float64 table, unless -s is an integer >= 0 and sigma(-s) is exact.
    """
    if kind in ("mobius", "phi", "divisor"):
        return kind
    if kind == "lambda":
        return None
    t = float(s) if kind == "sigma" else -float(s)
    if kind == "sigma" and t >= 0 and t.is_integer():
        return f"sigma({int(t)})" if t else "divisor"
    return f"sigma({t + 0.0!r})"  # + 0.0 reads -0.0 as 0.0


def tabulate(sieve: FactorSieve, kind: str, N: int, s: float | None = None) -> ArithTable:
    """Tabulate one arithmetic function on 1..N.

    kind is one of "divisor", "sigma", "mobius", "phi", "lambda",
    "sigma_norm"; the sigma kinds take the exponent s.  sigma with a
    non-negative integer s yields an exact integer table, any other s a
    float64 one.  Each integer table comes in the narrowest dtype proven
    to hold it (_sigma_dtype; int8 mu, int32 phi below 2**31), so widen
    before multiplying values.  sigma_norm(s) tabulates
    sigma_s(n) / n**s, which is sigma_{-s}(n), in float64.  A table that
    could overflow raises UsageError before anything is allocated: any
    one with t log2 N > 1000 for its powers d**t (t = s, or -s for
    sigma_norm), checked first, and an integer one past int64.
    Every kind reads the sieve's primes up to isqrt(N), so
    N < (sieve.limit + 1)**2, as for factorize.  mu and phi are views of
    the sieve's cached tables (FactorSieve.upto); d and sigma are views
    of the tables FactorSieve.prepare cached, where it did, and otherwise
    walked on their own and not cached.
    """
    if kind not in _TABLE_KINDS:
        raise UsageError(f"unknown table kind {kind!r}")
    N = as_index(f"{kind} table: N", N, 1, sieve)
    if kind in ("sigma", "sigma_norm"):
        if s is None:
            raise UsageError(f"kind {kind!r} needs an exponent s")
        if not math.isfinite(as_real("s", s)):
            raise UsageError(f"exponent s must be finite, got {s}")
        s = float(s)
    elif s is not None:
        raise UsageError(f"kind {kind!r} takes no exponent")

    if kind in ("mobius", "phi"):
        values = sieve.upto(kind, N)
    elif kind == "lambda":
        values = _lambda_table(sieve, N)
    else:
        values = sieve.walked(walk_name(kind, s), N)
    if kind in ("sigma", "sigma_norm"):
        kind = f"{kind}({s:g})"
    values.setflags(write=False)
    return ArithTable(kind, values)
