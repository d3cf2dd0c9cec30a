"""Sieve-backed arithmetic functions.

A sieve holds no table to its limit.  Every argument it serves, a
factorization or a table to n, is an integer below (limit + 1)**2 by one
rule (as_index), and it finds its primes once, up to the root of the
largest argument asked so far.  factorize divides n by those up to
isqrt(n), and sigma_s(n) (d(n) as sigma_0) and mu(n) are evaluated from
the factorization.  Bulk tables over [1, N] are vectorised rather than
built per n.  mu, phi, d, sigma_t for any real t, and the Ramanujan
expansions' mu/phi and phi**2 (+inf where mu = 0) are walked up from spf
(smallest prime factor), sieved on the fly by the primes up to isqrt(N)
for the n = 1 and the n = 5 mod 6 only, one run each: f(n) for n = p m,
p = spf(n), comes from f(m) and, where p divides m, from f(m / p),
entries below n's block, which the n with spf 2 or 3 read from slices.
Each table's rule is one record (Walk): its name, its dtype and its
local factors at p; walk(kind, s) is the record of a tabulate kind.  So
the tables a caller reads together share one walk (FactorSieve.prepare),
a walk resumes above a table memo caches shorter, and as it reads no
entry above N / 2, a caller may hold only those and take the rest block
by block (FactorSieve.stream).  Lambda has no table: prime_powers marks
the prime powers from the same runs, one byte per n, for
convolution.lambda_convolution.  Each walk block is at most _SEGMENT
long; the bits of no table depend on the block size.  An
integer table comes in the narrowest dtype proven to hold it (int16 for
d below 2**31, int32 for phi and for sigma_k while N**k (2 + ln N) <
2**31), so a caller widens before it multiplies values; sigma_t for any
other t, sigma_norm and the Ramanujan tables are float64.  A table is
cached per sieve only where a caller prepares it (FactorSieve.prepare, or
upto through it), up to the largest R asked for; tabulate reads that
cache and otherwise walks its table alone, uncached.  Every table
tabulate returns is read-only.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Sequence, Tuple

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

# The walk runs up in blocks of at most _SEGMENT n.  Their spf comes from
# two int32 runs of about _RUN entries (_spf_blocks), the n = 1 and the
# n = 5 mod 6 among 6 * _RUN consecutive n, 1 MB for both, which stay in
# L2 while the primes stride over them: spf to 10**7 took about 0.01 s,
# against 0.021 s for every n in segments of 2**18 with a period-210
# wheel (2-vCPU Xeon)
_SEGMENT = 1 << 18
_RUN = 1 << 17


@dataclass(frozen=True)
class FactorSieve:
    """The arithmetic of the integers below (limit + 1)**2.

    memo is filled lazily and has no lock, so a sieve is not safe to
    share between threads.  It holds every table derived from the sieve:
    its primes (primes), and the tables of the spf walk that callers
    prepared, one per rule (Walk) under its name, at the largest R asked
    for so far.  The walk sieves its own spf runs from the primes up
    to isqrt(R), so R may reach (limit + 1)**2 - 1 (as_index):
    prepare(walks, R) caches any of them built in one walk, and upto(w, R)
    reads that cache.  Nothing else fills it: tabulate reads a table from
    it, or walks the table alone and does not keep it.  Those walks hold
    their tables whole; stream(walks, n_max, held) is the same walk
    holding them only on 0..held, at least n_max // 2, which is all the
    walk reads, and passing the blocks above through one reused buffer
    per table, so a sum that reads each table once holds about half of
    it: the half that prepare(walks, held) cached, which stream hands
    back uncopied.  Every walk resumes each table above the prefix memo
    caches.  Beside them ramanujan keeps in memo what depends only on the
    sieve: its compact mu-power prefixes, which it grows itself, the
    singular series' d = 1 sums and the periods of c_r for small r.
    """

    limit: int
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def primes(self, top: int) -> np.ndarray:
        """The primes up to top, ascending, read-only, for 0 <= top <= limit.

        Sieved once, and again only for a larger top, then to at least
        twice the last (at most the limit), so growing tops cost in all
        about two sieves of the last.
        """
        top = as_index("top", top, 0)
        if top > self.limit:
            raise UsageError(f"top must lie in [0, {self.limit}], got {top}")
        return _primes_upto(self, top)

    def upto(self, w: Walk, R: int) -> np.ndarray:
        """The walk's table w on 0..R, read-only, cached by prepare.

        Any walk of prepare: mu (MOBIUS, int8), phi (PHI, int32 below
        2**31) and the float64 HARDY and SINGULAR the Ramanujan expansions
        read among them.  Entry 0 is 0, and R may reach (limit + 1)**2 - 1.
        """
        self.prepare((w,), R)
        return self.memo[w.name][: R + 1]

    def prepare(self, walks: Sequence[Walk], R: int) -> None:
        """Cache each of walks on at least 0..R, in one spf walk.

        walks are records of the walk's tables (Walk): MOBIUS, PHI, HARDY,
        SINGULAR and the divisor sums of walk(kind, s), each cached in
        memo under its name.  Those cached shorter are walked together,
        sharing each block's spf, so a caller that reads two of
        them, such as mu and phi, sigma_1 and d or mu and the
        singular-series weights, asks for them here and walks spf once,
        in either order.  Each is resumed above its cached length
        (stream), so a table grown by doubling R is walked about once in
        all.  R may reach (limit + 1)**2 - 1.
        """
        R = as_index("R", R, 0, self)
        short = [w for w in dict.fromkeys(walks) if len(self.memo.get(w.name, ())) <= R]
        if not short:
            return
        for w, table in zip(short, self.stream(short, R, R)[0]):
            table.setflags(write=False)
            self.memo[w.name] = table

    def stream(
        self, walks: Sequence[Walk], n_max: int, held: int
    ) -> Tuple[List[np.ndarray], Iterator[Tuple[int, List[np.ndarray]]]]:
        """The walk's tables of walks on 0..held, and their blocks above it.

        One walk to n_max, which may reach (limit + 1)**2 - 1.  Every
        entry it reads lies at or below n_max // 2, so held must lie in
        [n_max // 2, n_max], and the tables come back filled on 0..held.
        Where memo caches a table on 0..held in the dtype of a table to
        n_max, it is memo's own, a read-only view that the walk only
        reads; otherwise a new array: a copy of what memo caches, widened
        to that dtype (views of memo's table are out), that the walk
        resumes above.  The iterator walks on over held + 1..n_max: per
        block, ascending, it yields (lo, views), one view per walk of its
        values on [lo, lo + len), in one buffer per walk that the next
        block overwrites.  Every block is at most _SEGMENT long, and all
        but the first and the last are _SEGMENT long.  Held whole
        (held = n_max), the walk yields no block, as for prepare and tabulate.
        """
        n_max = as_index("n_max", n_max, 0, self)
        held = as_index("held", held, n_max // 2)
        if held > n_max:
            raise UsageError(f"held must lie in [{n_max // 2}, {n_max}], got {held}")
        tables, starts = [], []
        for w, dtype in zip(walks, [w.dtype(n_max) for w in walks]):
            cached = self.memo.get(w.name)
            if cached is not None and len(cached) > held and cached.dtype == dtype:
                tables.append(cached[: held + 1])
                starts.append(held + 1)
                continue
            if cached is None or len(cached) < 2:
                cached = np.arange(2, dtype=dtype)  # f(0) = 0 and f(1) = 1
            start = min(len(cached), held + 1)
            out = np.empty(held + 1, dtype)
            out[:start] = cached[:start]
            tables.append(out)
            starts.append(start)
        # the block that crosses held is split at held + 1; below it the
        # walk passes over the tables that hold the block already
        root = self.primes(math.isqrt(n_max))
        blocks = _spf_blocks(root, n_max, min(starts, default=2), held + 1)
        for lo, hi, spf in blocks:
            if lo > held:
                size = min(_SEGMENT, n_max - held)
                above = itertools.chain([(lo, hi, spf)], blocks)
                return tables, _walk_above(tables, walks, size, above)
            live = [i for i, start in enumerate(starts) if start < hi]
            if live:
                got = [tables[i] for i in live]
                _walk_block(got, got, [walks[i] for i in live], lo, hi, spf, 0)
        return tables, iter(())


def _primes_upto(sieve: FactorSieve, top: int) -> np.ndarray:
    # FactorSieve.primes for a top already checked, as factorize reads them
    found, primes = sieve.memo.get("primes", (-1, None))
    if found < top:
        found = min(max(top, 2 * found), sieve.limit)
        primes = _sieved_primes(found)
        primes.setflags(write=False)
        sieve.memo["primes"] = found, primes
    return primes[: np.searchsorted(primes, top, side="right")]


def _walk_above(tables, walks, size, blocks):
    # the (lo, hi, spf) blocks of the walk above its held tables, each
    # written into one buffer per table of size entries, the longest block
    bufs = [np.empty(size, out.dtype) for out in tables]
    for lo, hi, spf in blocks:
        views = [buf[: hi - lo] for buf in bufs]
        _walk_block(tables, views, walks, lo, hi, spf, lo)
        yield lo, views


def _walk_block(tables, dests, walks, lo, hi, spf, shift) -> None:
    # f(n) for n = p m, p = spf(n), over the block [lo, hi), of each f of
    # walks (Walk), into dests[n - shift]: m <= n / 2 lies below the
    # block, in tables, filled as the blocks run up, and the tables share
    # the block's spf (of its n prime to 6, _spf_blocks), m, the positions
    # where p divides m and m / p there.  The n with p = 2 or 3 read
    # m = n / p and m / p from slices: p divides m where n = 0 mod 4 or
    # n = 9 mod 18.  So only the n prime to 6 divide: phi and mu to 10**7
    # took about a fifth less time with the even n so (2-vCPU host)
    for out, dest, w in zip(tables, dests, walks):
        for q, r, step in _SMALL_PRIMES:
            b = w.base(spf[0].dtype.type(q), out.dtype)
            n = slice(lo + (r - lo) % step, hi, step)
            at = _shifted(n, shift)
            fm = out[_divided(n, q)]
            if r % (q * q):
                np.multiply(fm, w.prime(b), out=dest[at])
            else:
                w.power(fm, out[_divided(n, q * q)], b, dest[at])
    for n, m, p_n, div, m_div, q in _coprime_parts(lo, hi, spf):
        at = _shifted(n, shift)
        for out, dest, w in zip(tables, dests, walks):
            # np.take: out[m] took twice as long with int32 m.  Where p
            # divides m, power overwrites prime(b) f(m), which may pass
            # the dtype there
            b = w.base(p_n, out.dtype)
            t = np.take(out, m)
            t *= w.prime(b)
            fq = np.take(out, q)
            w.power(np.take(out, m_div), fq, b[div], fq)
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


# The n of a walk block prime to 6 are walked at most _STEP at a time, so
# each part's temporaries stay about half a megabyte
_STEP = 1 << 15


def _coprime_parts(lo: int, hi: int, spf):
    # (n, m, p, div, m[div], q) over the n prime to 6 of the block [lo,
    # hi), one residue mod 6 at a time, p their spf read contiguously from
    # spf, the views of the block's runs: n = p m, div the positions where
    # p divides m and q = m / p there.  The parts of a residue are of about
    # equal length: parts of _STEP and a short rest raised the session
    # bench's peak RSS by 3 MB (glibc's mmap threshold follows the sizes
    # freed)
    for r, run in zip((1, 5), spf):
        ns = range(lo + (r - lo) % 6, hi, 6)
        parts = -(-len(ns) // _STEP)
        for i in range(parts):
            j, k = len(ns) * i // parts, len(ns) * (i + 1) // parts
            a, b = ns[j:k].start, ns[j:k].stop
            p_n = run[j:k]
            m = np.arange(a, b, 6, dtype=p_n.dtype)
            m //= p_n
            div = np.flatnonzero(m % p_n == 0)
            m_div = m[div]
            yield slice(a, b, 6), m, p_n, div, m_div, m_div // p_n[div]


def _halving_blocks(n_max: int, size: int, start: int = 2) -> List[Tuple[int, int]]:
    # [lo, hi) over start..n_max, start >= 2, ascending, at most size long
    # and hi <= 2 lo, so each m <= n/2 of an n in a block lies below it,
    # finished when the blocks run up
    edges = [start]
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

    values is a 1-D numpy array of an integer or real floating dtype,
    else UsageError (bool included), and 1-indexed; values[0] is unused
    and zero.  kind names the function: for a table tabulate returns, the
    name of its walk record (walk(kind, s).name), such as "divisor" (for
    sigma with s = 0 too), "sigma(2)", "sigma(-0.5)" (for sigma_norm(0.5)
    too), "mobius" or "phi"; or a caller's own, such as "custom" or
    "lambda" for a dense table.  Every table tabulate returns is
    read-only, and an integer one is in the narrowest dtype proven to
    hold it (int16 for d below 2**31), so widen before multiplying
    values; a table a caller prepared comes back as a view of the
    sieve's own, not a copy.
    """

    kind: str
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not isinstance(v, np.ndarray) or v.ndim != 1 or v.dtype.kind not in "iuf":
            got = f"{v.ndim}-D {v.dtype}" if isinstance(v, np.ndarray) else type(v).__name__
            raise UsageError(f"table values must be a 1-D integer or real array, got {got}")

    @property
    def N(self) -> int:
        return len(self.values) - 1

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)


def build_sieve(limit: int) -> FactorSieve:
    """A sieve for the integers below (limit + 1)**2, which sieves nothing yet.

    Raises UsageError unless limit is an integer >= 2.
    """
    return FactorSieve(limit=as_index("sieve limit", limit, 2))


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
    """value unchanged if it is a finite real number, else UsageError.

    Python and numpy integers and floats pass (numbers.Real), and NaN,
    the infinities and an integer past float64's range do not, so a
    caller checks the value once, before it compares or converts it, and
    then bounds it with its own message: no comparison it makes is false
    for a NaN, and no float() of it overflows.
    """
    if not isinstance(value, numbers.Real):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        bits = abs(int(value)).bit_length()
        raise UsageError(f"{name} must lie in float64's range, got {bits} bits") from None
    if not finite:
        raise UsageError(f"{name} must be finite, got {value}")
    return value


def _sieved_primes(top: int) -> np.ndarray:
    # the primes up to top, int64, from spf runs sieved by the primes up
    # to isqrt(top)
    root = _sieved_primes(math.isqrt(top)) if top >= 4 else np.zeros(0, np.int64)
    return np.flatnonzero(_primality(root, top)).astype(np.int64, copy=False)


def _spf_dtype(limit: int):
    return np.int32 if limit < 2**31 else np.int64


def _sieve_runs(runs: np.ndarray, base: int, primes: np.ndarray) -> None:
    # spf of n = base + 6 i + r into runs[k, i], r = 1 for k = 0 and 5 for
    # k = 1, base a multiple of 6, from the primes (ascending) up to at
    # least the root of the last n.  Each entry starts as n itself, and
    # each prime 5 <= p <= that root, the largest first, writes p over its
    # multiples from p * p on, at every p-th entry from the first i with
    # 6 i = -r - base mod p, so a composite's smallest prime factor writes
    # last
    g, top = base // 6, base + 6 * runs.shape[1] - 1
    first, last = np.searchsorted(primes, [4, math.isqrt(top)], side="right")
    p = primes[first:last][::-1].astype(np.int64)
    inverse = np.where(p % 6 == 1, 5 * p + 1, p + 1) // 6  # of 6, mod p
    for r, run in zip((1, 5), runs):
        run[:] = np.arange(base + r, top + 1, 6, dtype=run.dtype)
        i = np.maximum((p * p - r + 5) // 6, g)
        i += (-r * inverse - i) % p - g
        for q, at in zip(p.tolist(), i.tolist()):
            run[at::q] = q


def _spf_blocks(primes: np.ndarray, n_max: int, start: int = 2, cut: int = 0):
    # (lo, hi, spf) over the _halving_blocks of start..n_max at most
    # _SEGMENT long, the block across cut split there: spf holds the spf
    # of the block's n = 1 mod 6 and of its n = 5 mod 6, ascending, as
    # views of two runs (_sieve_runs), which the first block past them
    # sieves anew from its own lo.  A run has _RUN + 1 entries, so that
    # it holds three whole blocks (3 * _SEGMENT = 6 * _RUN n) from any lo,
    # not only from a lo divisible by 6.  primes ascend up to at least
    # isqrt(n_max).  The last n of a run may pass n_max by up to 5, in the
    # runs' dtype too
    buf = np.empty((2, min(_RUN + 1, n_max // 6 + 1)), dtype=_spf_dtype(n_max + 5))
    end = 0
    for lo, hi in _halving_blocks(n_max, _SEGMENT, start):
        if hi > end:
            base = lo - lo % 6
            runs = buf[:, : min(buf.shape[1], (n_max - base) // 6 + 1)]
            end = base + 6 * runs.shape[1]
            _sieve_runs(runs, base, primes)
        edges = [lo, cut, hi] if lo < cut < hi else [lo, hi]
        for a, b in zip(edges, edges[1:]):
            yield a, b, [run[(a - base - r + 5) // 6 : (b - base - r + 5) // 6]
                         for r, run in zip((1, 5), runs)]


def _primality(primes: np.ndarray, n_max: int) -> np.ndarray:
    # whether n is prime, for n = 0..n_max, one byte per n: 2, 3 and the
    # n prime to 6 that are their own spf in the runs (_spf_blocks)
    marked = np.zeros(n_max + 1, dtype=bool)
    marked[2:4] = True
    for lo, hi, spf in _spf_blocks(primes, n_max):
        for r, run in zip((1, 5), spf):
            n = lo + (r - lo) % 6
            np.equal(run, np.arange(n, hi, 6, dtype=run.dtype), out=marked[n:hi:6])
    return marked


def factorize(sieve: FactorSieve, n: int) -> Factorization:
    """Factor n, for 1 <= n < (sieve.limit + 1)**2.

    The primes p <= sqrt(n) dividing n come out of one vectorised
    remainder over the sieve's primes, and what is left of n above 1 has
    no prime factor up to sqrt(n), so it is prime.  From
    (limit + 1)**2 on, sqrt(n) passes the limit and a prime factor of n
    could be missing from the sieve (as_index).
    """
    n = as_index("n", n, 1, sieve)
    primes = _primes_upto(sieve, math.isqrt(n))
    factors: List[Tuple[int, int]] = []
    m = n
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
    sigma of their N from here.  s must be finite, with s log2 n <= 1000
    as for a float sigma table to n, so that no power overflows float64.
    """
    _check_powers(f.n, as_real("s", s))
    return math.fsum(float(d) ** s for d in divisors(f))


def sigma_rational(f: Factorization, k: int) -> int | Fraction:
    """sigma_k(n) exactly, for integer k >= -1.

    An int for k >= 0, from the Euler product in integers (prod (e + 1)
    for k = 0, where each factor's geometric sum is e + 1); for k = -1 the
    Fraction sigma_1(n) / n (the main terms divide the int sigma_1(n) by
    n instead, a true division of ints, rounded once as float() of the
    Fraction is).  Conversion to float is left to the caller so it happens
    exactly once.  k is an integer (operator.index, as for as_index): a
    float, even an integral one, raises UsageError (sigma_real takes a
    real s).
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise UsageError(f"sigma_rational needs an integer k, got {k!r}") from None
    if k < -1:
        raise UsageError(f"sigma_rational supports k >= -1, got {k}")
    if k == -1:
        from fractions import Fraction  # imports decimal: only this case pays for it

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


def _sigma_dtype(N: int, k: int | float):
    # the narrowest dtype proven to hold sigma_k on 0..N, after the
    # float64 check of the powers, which comes first: float64 for a float
    # k; for an int k >= 0 (N**k below then has at most about 1000 bits)
    # int16 for d = sigma_0 below N = 2**31, where d(n) < 1750
    # (Nicolas and Robin, Canad. Math. Bull. 26, 1983), int32 above.  For
    # k >= 1, int32 while k log2 N + log2(2 + ln N) < 31: sigma_k(n) <=
    # n**k H_n <= n**k (1 + ln n), and the extra N**k is the margin an
    # earlier build of these tables needed, kept so no dtype changed;
    # int64 above, up to 2**61
    _check_powers(N, k)
    if isinstance(k, float):
        return np.float64
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


@dataclass(frozen=True)
class Walk:
    """One table of the spf walk: its rule, written once.

    For n = p m, p = spf(n), f(n) = prime(b) f(m) where p does not divide
    m, and power(f(m), f(m / p), b, out) writes f(n) into out where it
    does, with b = base(p, dtype) computed once for the p of each part in
    the table's dtype.  dtype(n_max) is the narrowest dtype proven to
    hold the table on 0..n_max; it raises UsageError where none does,
    before the walk allocates anything.  name is the key of the table in
    FactorSieve.memo, and records compare and hash by it alone.
    """

    name: str
    dtype: Callable = field(compare=False, repr=False)
    base: Callable = field(compare=False, repr=False)
    prime: Callable = field(compare=False, repr=False)
    power: Callable = field(compare=False, repr=False)


def _same(p, dtype):
    return p


def _fill(value):
    # power where p divides m sets f(n) to value
    return lambda fm, fq, b, out: out.fill(value)


# mu in int8 and phi in the spf dtype of n_max, which holds phi(n) <= n
MOBIUS = Walk("mobius", lambda n_max: np.int8, _same, lambda b: -1, _fill(0))
PHI = Walk("phi", _spf_dtype, _same, lambda b: b - 1,
           lambda fm, fq, b, out: np.multiply(fm, b, out=out))
# mu/phi, the Hardy coefficients, and the singular-series weights phi**2,
# +inf where mu = 0, in float64: products of -1/(p - 1) and of (p - 1)**2
# over the primes of n, 0 and +inf once p divides m.  Each weight is an
# exact integer while phi(n)**2 < 2**53
HARDY = Walk("mobius/phi", lambda n_max: np.float64, _same, lambda b: -1.0 / (b - 1), _fill(0.0))
SINGULAR = Walk("phi^2/mobius^2", lambda n_max: np.float64, _same,
                lambda b: np.square(b - 1.0), _fill(np.inf))


def _sigma_walk(k: int | float) -> Walk:
    # sigma_k in the dtype of _sigma_dtype: exact for an int k >= 0, named
    # "divisor" for k = 0, and float64 for a float k.  A table to 0 is
    # typed as one to 1
    def base(p, dtype):
        # p**k in the table's dtype: p itself for k = 1, and d reads none
        return p if k in (0, 1) else np.power(p, k, dtype=dtype)

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

    name = "divisor" if k == 0 and isinstance(k, int) else f"sigma({k!r})"
    return Walk(name, lambda n_max: _sigma_dtype(max(n_max, 1), k), base, prime, power)


def walk(kind: str, s: float | None = None) -> Walk:
    """The record of the spf walk that builds tabulate's kind: the one reader of a kind.

    MOBIUS and PHI; sigma_s is "divisor" for s = 0 and "sigma(k)" for an
    integer s = k >= 1, exact, and any other sigma_t is "sigma(t)", t
    written as a float, in float64: t = s for sigma and -s for
    sigma_norm(s) = sigma_{-s}, so sigma_norm(s) and sigma(-s) are one
    record and one table, unless -s is an integer >= 0 and sigma(-s) is
    exact.  The record's name is the key of its table in FactorSieve.memo
    and the kind of the ArithTable tabulate returns, so each table has
    one name.  UsageError for any other kind, a sigma kind without s or
    with an s that is no finite real (as_real), and an s given to another
    kind.
    """
    if kind not in ("divisor", "sigma", "sigma_norm", "mobius", "phi"):
        raise UsageError(f"unknown table kind {kind!r}")
    if kind not in ("sigma", "sigma_norm"):
        if s is not None:
            raise UsageError(f"kind {kind!r} takes no exponent")
        return _sigma_walk(0) if kind == "divisor" else {"mobius": MOBIUS, "phi": PHI}[kind]
    if s is None:
        raise UsageError(f"kind {kind!r} needs an exponent s")
    t = float(as_real("s", s)) if kind == "sigma" else -float(as_real("s", s))
    return _sigma_walk(int(t) if kind == "sigma" and t >= 0 and t.is_integer() else t + 0.0)


def prime_powers(sieve: FactorSieve, n_max: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(marked, q, p): the prime powers up to n_max.

    marked[n] is whether n is a prime power, for n = 0..n_max, one byte
    per n; q holds the p**e <= n_max with e >= 2, ascending, and p their
    primes.  The primes are 2, 3 and the n prime to 6 with spf(n) == n in
    spf runs sieved from the sieve's primes up to isqrt(n_max), so n_max
    may reach (limit + 1)**2 - 1, and no spf to n_max is held; the higher
    powers are those of the primes up to isqrt(n_max).
    """
    n_max = as_index("n_max", n_max, 0, sieve)
    root = sieve.primes(math.isqrt(n_max))
    marked = _primality(root, n_max)
    powers, bases = [], []
    for p in root.tolist():
        q = p * p
        while q <= n_max:
            powers.append(q)
            bases.append(p)
            q *= p
    order = np.argsort(powers, kind="stable")
    powers = np.array(powers, dtype=np.int64)[order]
    marked[powers] = True
    return marked, powers, np.array(bases, dtype=np.int64)[order]


def tabulate(sieve: FactorSieve, kind: str, N: int, s: float | None = None) -> ArithTable:
    """Tabulate one arithmetic function on 1..N.

    kind is one of "divisor", "sigma", "mobius", "phi", "sigma_norm",
    checked with s first by walk; the sigma kinds take the exponent s.
    sigma with a non-negative integer s yields an exact integer table,
    any other s a float64 one.  Each integer table comes in the narrowest dtype proven
    to hold it (_sigma_dtype; int8 mu, int32 phi below 2**31), so widen
    before multiplying values.  sigma_norm(s) tabulates
    sigma_s(n) / n**s, which is sigma_{-s}(n), in float64.  A table that
    could overflow raises UsageError before anything is allocated: any
    one with t log2 N > 1000 for its powers d**t (t = s, or -s for
    sigma_norm), checked first, and an integer one past int64.
    Every kind reads the sieve's primes up to isqrt(N), so
    N < (sieve.limit + 1)**2, as for factorize.  Every kind is read
    alike, through FactorSieve.stream held whole, whose rule it is: a
    view of the table FactorSieve.prepare cached, where that holds 0..N
    in the dtype of a table to N, and otherwise a walk of the table
    alone, which memo does not keep: a d table to 10**7 is 20 MB, a
    float64 one 80 MB.  The table's kind is its walk record's name.
    Lambda has no table: see convolution.lambda_convolution.
    """
    w = walk(kind, s)
    N = as_index(f"{kind} table: N", N, 1, sieve)
    (values,), _ = sieve.stream([w], N, N)
    values.setflags(write=False)
    return ArithTable(w.name, values)


def walked_halves(sieve: FactorSieve, f: Tuple[str, float | None], g: Tuple[str, float | None],
                  N: int) -> Tuple[ArithTable, ArithTable, Iterator]:
    """f and g, two (kind, s) of tabulate, on 1..N // 2 from one walk.

    Returns the two tables and the blocks of both above N // 2, (lo,
    f block, g block), from that walk resumed to N - 1 (FactorSieve.stream):
    the above of additive_convolution(s).  A table is refused where one
    to N would be, and a kind walk refuses, before the walk.
    """
    fw, gw = walk(*f), walk(*g)
    walks = list(dict.fromkeys((fw, gw)))
    for w in walks:
        w.dtype(N)
    sieve.prepare(walks, N // 2)
    ftab = tabulate(sieve, f[0], N // 2, s=f[1])
    gtab = ftab if gw == fw else tabulate(sieve, g[0], N // 2, s=g[1])
    # stream hands back the halves prepare cached, and walks on above them
    _, blocks = sieve.stream(walks, N - 1, N // 2)
    i, j = walks.index(fw), walks.index(gw)
    return ftab, gtab, ((lo, views[i], views[j]) for lo, views in blocks)
