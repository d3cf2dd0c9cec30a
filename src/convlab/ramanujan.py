"""Ramanujan sums, Ramanujan expansions, the singular series, orthogonality.

The working definition is the Mobius-divisor form

    c_r(n) = sum_{d | gcd(n, r)} mu(r/d) d,

an exact integer.  The root-of-unity definition

    c_r(n) = sum_{a in (Z/rZ)*} e(a n / r),      e(t) = exp(2 pi i t),

is the independent oracle of the test suite (tests/brute.py).

Expansions f(n) = sum_r a_f(r) c_r(n) are truncated at a level R; a
provider gives the coefficient vector a_f(1..R) and, in partial_sums, the
evaluator of sum_{r <= R} a(r) c_r(n) behind expansion_partial_sum,
expansion_adaptive and the general main term (M times such a sum for
product_provider).  For coefficients with proven decay
|a(r)| <= K r**-(1+delta) the tail beyond R is bounded by
K sigma_1(n) R**-delta / delta; providers without decay metadata (the
divisor and Hardy expansions converge only conditionally) must be summed
in increasing r and carry no tail bound.

The Hardy coefficients mu(r)/phi(r) and the singular-series weights
phi(r)**2 (+inf where mu(r) = 0) are tables of the sieve's spf walk
(FactorSieve.upto), and this module reads no phi.  The literal partial
sums (Hardy, divisor, custom) dot the coefficients with a float64 c_r(n)
table.  singular_series keeps its own kernel, regrouped over the divisors
of N, whose d = 1 sum is the same for every N; it builds no c_r(N) table.
Beside the walk's tables, memo keeps what depends only on the sieve: the
mu-power prefixes of the sigma partial sums, that d = 1 sum per R, and
the periods of c_r for r up to _PERIODS_CACHED that orthogonality_defect
reads.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .arith import (
    HARDY, MOBIUS, SINGULAR, FactorSieve, Factorization, as_index, as_real, divisors, factorize,
    mobius, sigma_rational,
)
from .convolution import real_dot
from .errors import ConsistencyError, UsageError
from .special import one_plus, zeta_real

__all__ = [
    "CoefficientProvider",
    "ExpansionSum",
    "OrthogonalityRecord",
    "ramanujan_sum",
    "ramanujan_sum_table",
    "sigma_provider",
    "divisor_provider",
    "hardy_provider",
    "custom_provider",
    "product_provider",
    "expansion_partial_sum",
    "expansion_adaptive",
    "singular_series",
    "orthogonality_defect",
]

_START_R = 256  # first truncation level of expansion_adaptive


def ramanujan_sum(sieve: FactorSieve, r: int, n: int) -> int:
    """c_r(n) = sum_{d | gcd(n, r)} mu(r/d) d, exact, for any n >= 1."""
    r, n = as_index("r", r, 1, sieve), as_index("n", n, 1)
    g = factorize(sieve, math.gcd(r, n))
    return sum(mobius(factorize(sieve, r // d)) * d for d in divisors(g))


def ramanujan_sum_table(sieve: FactorSieve, n: int, R: int) -> np.ndarray:
    """c_r(n) for r = 1..R as an int64 array (index 0 unused).

    Accumulates d * mu(r/d) over the divisors d of n, vectorised over the
    multiples of each d, with mu read up to R only: d = 1 is mu itself,
    and each larger d <= R adds its multiples in ascending d.  n and R
    reach as far as the sieve's tables (as_index).
    """
    n, R = as_index("n", n, 1, sieve), as_index("R", R, 1, sieve)
    return _sum_table(sieve, factorize(sieve, n), R, np.int64)


def _sum_table(sieve: FactorSieve, f: Factorization, R: int, dtype) -> np.ndarray:
    # ramanujan_sum_table at n = f.n in dtype: int64, or float64, which
    # holds the same integers, as |c_r(n)| <= sigma_1(r) < 2**53 for every
    # r below 2**47, far past any table's R
    mu = sieve.upto(MOBIUS, R)
    out = mu.astype(dtype)
    for d in divisors(f)[1:]:
        if d > R:
            break
        out[d :: d] += np.multiply(mu[1 : R // d + 1], d, dtype=dtype)
    return out


# --- expansion coefficient providers ------------------------------------


@dataclass(frozen=True)
class CoefficientProvider:
    """Coefficients a(r) of a Ramanujan expansion.

    coefficients(R) returns a(r) for r = 1..R as a float64 array (index 0
    zero); it may be a read-only view of a cached table, so copy it before
    writing to it.  delta/bound record a proven decay
    |a(r)| <= bound * r**-(1+delta); providers without them are
    conditionally convergent and must be summed in increasing r.
    """

    kind: str
    coefficients: Callable[[int], np.ndarray] = field(repr=False)
    delta: Optional[float] = None
    bound: Optional[float] = None

    @property
    def conditional(self) -> bool:
        return self.delta is None

    def partial_sums(self, sieve: FactorSieve, f: Factorization) -> Callable[[int], float]:
        """R -> sum_{r <= R} a(r) c_r(n), terms in increasing r, f factoring n.

        The literal dot product with the c_r(n) table, built in float64.
        Sigma-type providers override it with an O(d(n)) regrouping that
        takes the powers of the divisors of n once, in this call, not once
        per R.
        """
        return lambda R: real_dot(
            self.coefficients(R)[1:], _sum_table(sieve, f, R, np.float64)[1:]
        )


class _SigmaProvider(CoefficientProvider):
    # a(r) = z r**-(s+1), s = delta and z = bound.  The partial sum regroups
    # exactly over the divisors of n:
    #   sum_{r <= R} z r**-(s+1) c_r(n)
    #     = z sum_{d | n} d**-s sum_{q <= R/d} mu(q) q**-(s+1),
    # so with prefix sums of mu(q) q**-(s+1) each R is one O(d(n)) float
    # loop over the ascending pairs (d, d**-s), built once per call.  The
    # reads R // d past the prefix's dense part, those of d <= R // _DENSE,
    # come first and are recomputed together, one batch per R; the dense
    # reads come out as Python floats, which add with the same bits.
    def partial_sums(self, sieve: FactorSieve, f: Factorization) -> Callable[[int], float]:
        s, z = self.delta, self.bound
        ds = divisors(f)
        terms = [(d, float(d) ** -s) for d in ds]
        # memo's prefix, grown in place; R comes checked from the callers
        pref = _mu_power_prefix(sieve, s + 1.0, 0)

        def at(R: int) -> float:
            if R >= len(pref):
                _mu_power_prefix(sieve, s + 1.0, R)
            k = bisect.bisect_right(ds, R // _DENSE)
            total = 0.0
            if k:
                reads = pref.sampled(sieve, [R // d for d in ds[:k]])
                for (_, weight), value in zip(terms, reads):
                    total += weight * value
            dense = pref.dense.item
            for d, weight in terms[k:]:
                if d > R:
                    break
                total += weight * dense(R // d)
            return float(z * total)

        return at


def _sigma_type(kind: str, s: float, z: float) -> CoefficientProvider:
    def coefficients(R: int) -> np.ndarray:
        # in place, so building it holds one float64 table, not three
        out = np.arange(R + 1, dtype=np.float64)
        out[0] = 1.0
        out **= -(s + 1.0)
        out *= z
        out[0] = 0.0
        return out

    return _SigmaProvider(kind=kind, coefficients=coefficients, delta=s, bound=z)


def sigma_provider(s: float) -> CoefficientProvider:
    """Coefficients of sigma_s(n)/n**s = zeta(s+1) sum_r c_r(n) / r**(s+1), s > 0."""
    if as_real("s", s) <= 0:
        raise UsageError(f"sigma provider needs s > 0, got {s}")
    s = float(s)
    return _sigma_type(f"sigma({s:g})", s, zeta_real(one_plus("s", s)))


def divisor_provider() -> CoefficientProvider:
    """Coefficients of d(n) = -sum_r (log r / r) c_r(n), conditionally convergent."""

    def coefficients(R: int) -> np.ndarray:
        out = np.zeros(R + 1, dtype=np.float64)
        r = np.arange(1, R + 1, dtype=np.float64)
        out[1:] = -np.log(r) / r
        return out

    return CoefficientProvider(kind="divisor", coefficients=coefficients)


def hardy_provider(sieve: FactorSieve) -> CoefficientProvider:
    """Coefficients of (phi(n)/n) Lambda(n) = sum_r (mu(r)/phi(r)) c_r(n)."""
    return CoefficientProvider(kind="hardy", coefficients=lambda R: sieve.upto(HARDY, R))


def custom_provider(
    rule: Callable[[int], float],
    delta: float | None = None,
    bound: float | None = None,
    kind: str = "custom",
) -> CoefficientProvider:
    """Coefficients a(r) = rule(r), optionally with decay metadata."""
    if (delta is None) != (bound is None):
        raise UsageError("decay metadata needs both delta and bound")
    if delta is not None and not (as_real("delta", delta) > 0 and as_real("bound", bound) > 0):
        raise UsageError("decay metadata must be positive")

    def coefficients(R: int) -> np.ndarray:
        out = np.zeros(R + 1, dtype=np.float64)
        out[1:] = np.fromiter(map(rule, range(1, R + 1)), np.float64, R)
        return out

    return CoefficientProvider(kind=kind, coefficients=coefficients, delta=delta, bound=bound)


def product_provider(pf: CoefficientProvider, pg: CoefficientProvider) -> CoefficientProvider:
    """Coefficients a_f(r) a_g(r) of the product expansion.

    M times its partial sum at N is the main term of
    sum_{n < M} f(n) g(N - n).  When both carry decay metadata the product
    decays with delta = 1 + delta_f + delta_g and bound K_f K_g; otherwise
    it is conditional.  Two sigma-type providers multiply to the
    sigma-type z_f z_g r**-(s_f+s_g+2), which keeps the regrouped sums.
    """
    kind = f"{pf.kind}*{pg.kind}"
    delta = bound = None
    if not (pf.conditional or pg.conditional):
        delta, bound = 1.0 + pf.delta + pg.delta, pf.bound * pg.bound
    if isinstance(pf, _SigmaProvider) and isinstance(pg, _SigmaProvider):
        return _sigma_type(kind, delta, bound)
    return CoefficientProvider(
        kind, lambda R: pf.coefficients(R) * pg.coefficients(R), delta, bound
    )


@dataclass(frozen=True)
class ExpansionSum:
    """Truncated expansion sum_{r <= R} a(r) c_r(n) with its tail bound.

    tail_bound is None for conditional providers.
    """

    value: float
    tail_bound: Optional[float]
    R: int


def _expansion_sum(
    provider: CoefficientProvider, f: Factorization, value: float, R: int
) -> ExpansionSum:
    # |c_r(n)| <= sigma_1(n) and sum_{r > R} r**-(1+delta) <= R**-delta / delta
    tail = None
    if not provider.conditional:
        sigma1_n = sigma_rational(f, 1)
        tail = provider.bound * sigma1_n * R**-provider.delta / provider.delta
    return ExpansionSum(value=value, tail_bound=tail, R=R)


def expansion_partial_sum(
    sieve: FactorSieve, provider: CoefficientProvider, n: int | Factorization, R: int
) -> ExpansionSum:
    """sum_{r <= R} a(r) c_r(n), by provider.partial_sums, with its tail bound.

    n may come as its Factorization, which is then not factored again.
    """
    f = n if isinstance(n, Factorization) else factorize(sieve, n)
    R = as_index("R", R, 1, sieve)
    return _expansion_sum(provider, f, provider.partial_sums(sieve, f)(R), R)


# The sigma-type partial sums read P(x) = sum_{q <= x} mu(q) q**-expo on
# 0..R only, one prefix per exponent in the sieve's memo: s + 1 for an
# expansion of sigma_s, and a + b + 2 for the main term of a sigma_a,
# sigma_b pair.  It holds P(x) for every x below _DENSE and, above, for
# every x divisible by _STRIDE, so to 10**7 it takes 9.5 MB, not 80.  A
# read past the dense part adds the terms of (_STRIDE floor(x / _STRIDE),
# x] to the stored sum in order, each from the same np.power of a float64
# q as the build, so every P(x) keeps the bits of one np.cumsum over the
# whole table.  It grows by blocks of _GROW entries whose cumsum continues
# from the last value, as the adaptive loop doubles R, and never holds a
# table to R.

_DENSE = 1 << 20
_STRIDE = 64
_GROW = 1 << 18


class _MuPowerPrefix:
    """P(x) = sum_{q <= x} mu(q) q**-expo for x = 0..len - 1, held compactly.

    dense holds P(x) for x < min(len, _DENSE), and sampled reads the x
    from _DENSE on.
    """

    def __init__(self, expo: float):
        self.expo = expo
        self.dense = np.zeros(0)
        self.samples = np.zeros(0)  # P(_DENSE + _STRIDE k), k = 0, 1, ...
        self.last = 0.0  # P(len - 1)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def grow(self, sieve: FactorSieve, n_max: int) -> None:
        # P on len..n_max, block by block
        mu = sieve.upto(MOBIUS, n_max)
        self.dense = _lengthened(self.dense, min(n_max + 1, _DENSE))
        self.samples = _lengthened(self.samples, max(n_max - _DENSE + _STRIDE, 0) // _STRIDE)
        for lo in range(self.size, n_max + 1, _GROW):
            hi = min(lo + _GROW, n_max + 1)
            t = np.arange(lo, hi, dtype=np.float64)
            if lo == 0:
                t[0] = 1.0  # not 0**-expo = inf: mu(0) = 0 makes the term 0.0
            t **= -self.expo
            t *= mu[lo:hi]
            t[0] += self.last
            np.cumsum(t, out=t)
            if lo < _DENSE:
                self.dense[lo:hi] = t[: _DENSE - lo]
            first = max(lo, _DENSE)
            first += -first % _STRIDE
            kept = t[first - lo :: _STRIDE]
            k = (first - _DENSE) // _STRIDE
            self.samples[k : k + len(kept)] = kept
            self.last, self.size = t[-1], hi

    def sampled(self, sieve: FactorSieve, xs: List[int]) -> List[float]:
        """P(x) for each x of xs, _DENSE <= x < len.

        Each is the stored sum at x's multiple of _STRIDE and then the
        terms after it, added in order; the terms of every x come from one
        np.power and one read of mu.
        """
        out, spans = [], []
        for x in xs:
            k, r = divmod(x - _DENSE, _STRIDE)
            out.append(self.samples.item(k))
            if r:
                spans.append(np.arange(x - r + 1, x + 1))
        if spans:
            q = np.concatenate(spans)
            t = q.astype(np.float64)
            t **= -self.expo
            t *= sieve.upto(MOBIUS, max(xs))[q]
            terms = iter(t.tolist())
            for i, x in enumerate(xs):
                for _ in range((x - _DENSE) % _STRIDE):
                    out[i] += next(terms)
        return out


def _lengthened(a: np.ndarray, n: int) -> np.ndarray:
    # a itself if it has room for n entries, else a copy of it with room for n
    if len(a) >= n:
        return a
    out = np.empty(n)
    out[: len(a)] = a
    return out


def _mu_power_prefix(sieve: FactorSieve, expo: float, R: int) -> _MuPowerPrefix:
    R = as_index("R", R, 0, sieve)
    key = ("mu_power_prefix", expo)
    pref = sieve.memo.get(key)
    if pref is None:
        pref = sieve.memo[key] = _MuPowerPrefix(expo)
    if len(pref) <= R:
        pref.grow(sieve, R)
    return pref


def expansion_adaptive(
    sieve: FactorSieve,
    provider: CoefficientProvider,
    n: int,
    tol: float = 1e-6,
) -> ExpansionSum:
    """Grow R by doubling until successive partial sums stabilise within tol.

    Starts at R = 256 and, at each level, evaluates the function that
    provider.partial_sums(sieve, n) returns once per call.  Stops once two
    consecutive doublings move the partial sum by at most tol/4 each, and
    raises ConsistencyError if R reaches the sieve's limit first.  The cap
    is the limit, not the (limit + 1)**2 - 1 the sieve's tables reach:
    where a slow expansion stops, and so its value and R, follow the cap
    (sigma_1 at n = 720720 stops at R = 10**7 in a sieve to 10**7 and
    raises in one to 10**6).  Only decay providers qualify; conditional
    expansions have no usable truncation rule.
    """
    if provider.conditional:
        raise UsageError("adaptive truncation needs a provider with decay metadata")
    if as_real("tol", tol) <= 0:
        raise UsageError(f"tol must be positive, got {tol}")
    f = factorize(sieve, n)
    partial_sum = provider.partial_sums(sieve, f)
    R = min(_START_R, sieve.limit)
    value = partial_sum(R)
    stable = 0
    while True:
        R_next = min(2 * R, sieve.limit)
        nxt = partial_sum(R_next)
        stable = stable + 1 if abs(nxt - value) <= 0.25 * tol else 0
        value, R = nxt, R_next
        if stable >= 2:
            break
        if R >= sieve.limit:
            raise ConsistencyError(f"partial sums not stable within {tol} by R = {R}")
    return _expansion_sum(provider, f, value, R)


def singular_series(sieve: FactorSieve, N: int, R: int) -> float:
    """Partial singular series sum_{r <= R} mu(r)**2 / phi(r)**2 * c_r(N).

    Absolutely convergent.  For even N the partial sums settle at
    2 C2 prod_{p | N, p > 2} (p-1)/(p-2), the classical twin-product
    value; for odd N they approach zero.  Summed regrouped over the
    divisors d of N, r = d q:

        sum_{d | N, d <= R} d sum_{q <= R/d} mu(q) mu(d q)**2 / phi(d q)**2,

    d ascending, each inner sum in fixed chunks of _CHUNK from q = 1; a d
    with mu(d) = 0, whose inner sum is zero, is skipped.  The d = 1 sum
    is the same for every N and is kept in the sieve's memo, one float
    per R asked for.
    """
    N, R = as_index("N", N, 2, sieve), as_index("R", R, 1, sieve)
    sieve.prepare((MOBIUS, SINGULAR), R)
    mu, w = sieve.upto(MOBIUS, R), sieve.upto(SINGULAR, R)
    key = ("singular_first", R)
    total = sieve.memo.get(key)
    if total is None:
        total = sieve.memo[key] = _singular_inner(mu, w, 1)
    for d in divisors(factorize(sieve, N))[1:]:
        if d > R:
            break
        if mu[d]:  # else every mu(d q) is 0 and the inner sum adds only zeros
            total += d * _singular_inner(mu, w, d)
    return total


_CHUNK = 1 << 16  # the inner sums of singular_series add chunks of this many terms


def _singular_inner(mu: np.ndarray, w: np.ndarray, d: int) -> float:
    # sum_{q <= R/d} mu(q) / w(d q), mu and w on 0..R, w the weights
    # phi**2, +inf where mu = 0, so each term is mu(q) mu(d q)**2 /
    # phi(d q)**2, a zero where mu(q) = 0 or mu(d q) = 0, and the r = 1
    # term is 1.  Chunk sums are added in ascending q
    top = (len(mu) - 1) // d + 1
    total = 0.0
    for lo in range(1, top, _CHUNK):
        hi = min(lo + _CHUNK, top)
        total += float(np.sum(np.divide(mu[lo:hi], w[d * lo : d * hi : d])))
    return total


@dataclass(frozen=True)
class OrthogonalityRecord:
    """Exact pair correlation of c_r and c_s against the diagonal main term."""

    exact: int
    main: int
    defect: int


def check_orthogonality_range(N: int, M: int) -> Tuple[int, int]:
    """(N, M) as ints, or UsageError unless they are integers with 1 <= M <= N.

    The range rule of orthogonality_defect, which a caller can check
    before it builds a sieve.
    """
    N, M = as_index("N", N, 1), as_index("M", M, 1)
    if M > N:
        raise UsageError(f"need 1 <= M <= N, got M={M}, N={N}")
    return N, M


def orthogonality_defect(
    sieve: FactorSieve, r: int, s: int, N: int, M: int
) -> OrthogonalityRecord:
    """sum_{1 <= n < M} c_r(n) c_s(N - n) against delta_{r,s} M c_r(N).

    Exact integer arithmetic throughout.  One period of c_r and of c_s
    comes from the divisor form in O(d(r)) array steps, once per sieve
    for r up to _PERIODS_CACHED (it is kept in memo).  The summand is
    periodic in n with period lcm(r, s), so the range folds into one
    period plus a partial block; the folded sum equals the direct one
    exactly.
    """
    r, s = as_index("r", r, 1, sieve), as_index("s", s, 1, sieve)
    N, M = check_orthogonality_range(N, M)
    L = math.lcm(r, s)
    if L > 2**24:
        raise UsageError(f"lcm(r, s) = {L} is too large to fold")

    cr = _period_table(sieve, r)
    cs = cr if s == r else _period_table(sieve, s)

    K = M - 1  # half-open range [1, M)
    j = np.arange(1, min(L, K) + 1, dtype=np.int64)
    block = cr[j % r] * cs[(N % s - j) % s]
    exact = (K // L) * int(block.sum()) + int(block[: K % L].sum())

    main = M * int(cr[N % r]) if r == s else 0
    return OrthogonalityRecord(exact=exact, main=main, defect=exact - main)


# The periods of c_r for r up to _PERIODS_CACHED are kept in the sieve's
# memo, read-only, at most 8 (2**10)**2 / 2 bytes, about 4 MB, in all
_PERIODS_CACHED = 1 << 10


def _period_table(sieve: FactorSieve, r: int) -> np.ndarray:
    # c_r(j) for j = 0..r-1, one period: each d | r adds mu(r/d) d to the
    # j divisible by d, O(d(r)) numpy steps
    key = ("period", r)
    out = sieve.memo.get(key)
    if out is not None:
        return out
    mu = sieve.upto(MOBIUS, r)
    out = np.zeros(r, dtype=np.int64)
    for d in divisors(factorize(sieve, r)):
        m = int(mu[r // d])
        if m:
            out[::d] += m * d
    if r <= _PERIODS_CACHED:
        out.setflags(write=False)
        sieve.memo[key] = out
    return out
