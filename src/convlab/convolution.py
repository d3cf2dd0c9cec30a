"""Exact additive and shifted convolution sums and the tau harmonic sum.

Both boundary conventions are first-class and must be chosen explicitly:
"half_open" sums over 1 <= n < M, "closed" over 1 <= n <= M.  M may be
real; the effective index ranges are n <= ceil(M) - 1 and n <= floor(M).
Integer sums are exact.  Additive sums run in three tiers chosen by
B = max|f| * max|g|, shifted sums in the last two:

  * float64, while 2**16 * B <= 2**53: the sum runs in blocks of 2**16
    summands, each cast to float64 and reduced by one np.dot (BLAS
    ddot).  Every product and every partial sum of a block is then an
    integer of magnitude at most 2**53, so float64 holds each exactly
    in any summation order, whatever BLAS does with threads or fused
    multiply-adds, and the blocks add up in a Python int.
    additive_convolutions walks g in fixed absolute blocks, reverses
    and casts each block once, and takes from it every sum of the grid
    that reads it, against a forward slice of f;
  * int64 runs of at most 2**16 summands, each short enough that
    run * B <= 2**62, multiplied and reduced in int64 and added up in a
    Python int;
  * Python ints, where B allows no int64 run of 64 summands.

Where a block's products could pass 2**53 the int64 runs are at least
as long and cheaper than shorter float64 blocks, so the float64 tier
takes whole blocks only.  B reads the max|value| of what the sums read:
of f over the union of a grid's f slices and of g over the union of its
g slices, scanned once per call, and of each sum's own two slices where
that bound allows no int64 run.

Real sums follow one chunk rule, with no BLAS call, so their bits do
not depend on the thread count: the summands are cut into chunks of
2**16 from the first index, each chunk's float64 products are reduced
by np.sum, and the chunk sums are added in index order, starting from
0.0.  real_dot is that rule.  The real sums of a grid of one N go
through one kernel that keeps it: each n reads min(n, N - n), at most
N // 2, from the low halves of f and g and its upper entry
max(n, N - n) from blocks of the rest, so the tables above N // 2 may
be whole (additive_convolutions) or pass once through a reused buffer
(streamed_convolutions, which holds only the low halves of two walked
tables).  Every sum shares the full chunks of its N and sums its own
short last chunk, and has the bits of its own real_dot.
lambda_convolution keeps the rule with no Lambda table: Lambda(n)
Lambda(N - n) is nonzero only where n and N - n are both prime powers,
so each chunk is a zeroed buffer with those products scattered into it,
the very array the dense product holds, and its np.sum has the same
bits; a chunk with no pair adds 0.0 and is skipped.  The prime powers
below N are marked one byte each, from the spf segments' primes and the
powers of the primes up to sqrt(N), and math.log is taken only of the
primes of the pairs, with the bits the Lambda table holds.

tau_exact evaluates the coprime-pair harmonic sum by Mobius inversion over
the square of the gcd and the Dirichlet hyperbola method,

    tau(y) = sum_{d <= sqrt(Y), mu(d) != 0} mu(d)/d**2 * T(Y // d**2),
    T(x)   = sum_{ab <= x} 1/(ab) = 2 sum_{a <= sqrt(x)} H(x // a)/a - H(isqrt(x))**2,

with Y = floor(y) and harmonic numbers H: O(sqrt(y) log y) work, summed
in ascending d, so every call gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    ArithTable, FactorSieve, as_index, as_real, build_sieve, higher_prime_powers, prime_mask,
)
from .errors import UsageError

__all__ = [
    "ConvolutionSpec",
    "additive_convolution",
    "additive_convolutions",
    "lambda_convolution",
    "shifted_divisor_convolution",
    "streamed_convolutions",
    "tau_exact",
]

_CHUNK = 1 << 16
# shortest int64 run of an exact sum; below it, Python ints are faster
_MIN_RUN = 64
# float64 holds every integer of magnitude up to 2**53
_FLOAT_EXACT = 2**53
_TAU_CAP = 10_000_000.0
# H(k) is an exact prefix below _H_EXACT and the Euler-Maclaurin series above
_H_EXACT = 64
_H_PREFIX = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, _H_EXACT))))
_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class ConvolutionSpec:
    """Range of one additive convolution sum_n f(n) g(N - n)."""

    N: int
    M: float
    boundary: str

    def __post_init__(self):
        # a numpy integer N is kept as a Python int, which no index arithmetic wraps
        object.__setattr__(self, "N", as_index("N", self.N, 2))
        if self.boundary not in ("half_open", "closed"):
            raise UsageError(f"boundary must be 'half_open' or 'closed', got {self.boundary!r}")
        if not 1 <= as_real("M", self.M) <= self.N:
            raise UsageError(f"M must lie in [1, N], got M={self.M}, N={self.N}")
        if self.boundary == "closed" and self.M > self.N - 1:
            raise UsageError("closed boundary requires M <= N - 1 so N - n >= 1 everywhere")

    @property
    def last_index(self) -> int:
        """Largest summation index n; 0 means the range is empty."""
        if self.boundary == "closed":
            return math.floor(self.M)
        return math.ceil(self.M) - 1


def real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a[i] b[i] in float64, in fixed 2**16 chunks combined in index order.

    Each chunk is cast to float64 and multiplied on its own, so no
    len(a)-sized product is built and no BLAS call can reorder the sum.
    """
    total = 0.0
    for i in range(0, len(a), _CHUNK):
        ca = a[i : i + _CHUNK].astype(np.float64, copy=False)
        cb = b[i : i + _CHUNK].astype(np.float64, copy=False)
        total += float(np.sum(ca * cb))
    return total


def _abs_max(a: np.ndarray) -> int:
    return max(-int(a.min()), int(a.max()))


def _exact_int_sum(fa: np.ndarray, ga: np.ndarray, fmax=None, gmax=None) -> int:
    # the int64 and Python-int tiers; fmax, gmax: bounds on |fa| and |ga|,
    # and the slices are scanned when a bound is missing or too loose to
    # allow runs of _MIN_RUN summands
    k = len(fa)
    if k == 0:
        return 0
    if fmax is None or gmax is None or _run_length(fmax, gmax) < _MIN_RUN:
        fmax, gmax = _abs_max(fa), _abs_max(ga)
    run = _run_length(fmax, gmax)
    if run < _MIN_RUN:
        # int64 runs this short cost more than Python ints
        return sum(int(a) * int(b) for a, b in zip(fa.tolist(), ga.tolist()))
    # no run's sum can leave int64, and the runs add up in a Python int
    buf = np.empty(min(run, k), dtype=np.int64)
    total = 0
    for i in range(0, k, run):
        prod = buf[: min(run, k - i)]
        np.multiply(fa[i : i + run], ga[i : i + run], out=prod, dtype=np.int64)
        total += int(prod.sum())
    return total


def _run_length(fmax: int, gmax: int) -> int:
    # summands per int64 run: at most _CHUNK, and few enough that
    # run * fmax * gmax <= 2**62
    return min(_CHUNK, 2**62 // max(fmax * gmax, 1))


def _float_sums(fv: np.ndarray, gv: np.ndarray, ranges) -> list:
    # sum_{n <= k} fv[n] gv[N - n] for each (N, k) of ranges, exact while
    # _CHUNK * max|fv| * max|gv| <= 2**53.  The g indices are cut into
    # fixed blocks [b0, b0 + _CHUNK); each block a range reads is reversed
    # into gbuf once (gbuf[j] = gv[top - j]), and every range reading it
    # takes one dot of a slice of gbuf with a forward slice of f
    readers: dict = {}
    for i, (N, k) in enumerate(ranges):
        if k >= 1:
            for b in range((N - k) // _CHUNK, (N - 1) // _CHUNK + 1):
                readers.setdefault(b, []).append(i)
    totals = [0] * len(ranges)
    gbuf, fbuf = np.empty(_CHUNK), np.empty(_CHUNK)
    for b in sorted(readers):
        b0 = b * _CHUNK
        block = gv[b0 : b0 + _CHUNK]
        top = b0 + len(block) - 1
        rev = gbuf[: len(block)]
        np.copyto(rev, block[::-1])
        for i in readers[b]:
            N, k = ranges[i]
            lo, hi = max(N - k, b0), min(N - 1, top)
            fw = fbuf[: hi - lo + 1]
            np.copyto(fw, fv[N - hi : N - lo + 1])
            totals[i] += int(np.dot(rev[top - hi : top - lo + 1], fw))
    return totals


def _real_sums(f_low, g_low, blocks, N: int, ks) -> list:
    # sum_{n <= k} f(n) g(N - n) for each k of ks, by real_dot's rule, and
    # UsageError where one overflows.  f and g up to held = N // 2 are
    # f_low and g_low, and blocks are (lo, f on [lo, hi), g on [lo, hi)),
    # ascending from held + 1, each but the first and the last at least
    # _CHUNK long.  n reads min(n, N - n) <= held from f_low or g_low and
    # its upper entry max(n, N - n) from a block; a chunk's upper entries
    # lie within _CHUNK of each other, so it is summed when the block that
    # holds the largest arrives, from that block and a copy of the last
    # _CHUNK entries of the one before.  The full chunks are shared by
    # every k; each k's short last chunk is its own
    held = N // 2
    top = max(ks, default=0)
    jobs = [(c * _CHUNK + 1, (c + 1) * _CHUNK) for c in range(top // _CHUNK)]
    jobs += [(k - k % _CHUNK + 1, k) for k in sorted(set(ks)) if k % _CHUNK]
    queue = sorted(((max(N - a, b), j) for j, (a, b) in enumerate(jobs)), reverse=True)
    sums = [0.0] * len(jobs)
    prod = np.empty(_CHUNK)
    window = []  # the end of the block before and the current block

    def upper(i, x, y):
        # entries x..y of f (i = 1) or g (i = 2) from the window
        parts = [block[i][max(x - block[0], 0) : y - block[0] + 1] for block in window
                 if block[0] <= y and x < block[0] + len(block[i])]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def chunk(a, b):
        out = prod[: b - a + 1]
        # the n whose g(N - n), both or f(n) lie above held
        e = min(b, N - held - 1)
        if a <= e:
            np.multiply(f_low[a : e + 1], upper(2, N - e, N - a)[::-1],
                        out=out[: e - a + 1], dtype=np.float64)
        s, e = max(a, N - held), min(b, held)
        if s <= e:
            np.multiply(f_low[s : e + 1], g_low[N - e : N - s + 1][::-1],
                        out=out[s - a : e - a + 1], dtype=np.float64)
        s = max(a, held + 1)
        if s <= b:
            np.multiply(upper(1, s, b), g_low[N - b : N - s + 1][::-1],
                        out=out[s - a :], dtype=np.float64)
        return float(np.sum(out))

    def finish(hi):
        # every queued chunk whose upper entries all lie below hi
        while queue and queue[-1][0] < hi:
            j = queue.pop()[1]
            sums[j] = chunk(*jobs[j])

    with np.errstate(over="ignore", invalid="ignore"):
        finish(held + 1)
        for lo, fb, gb in blocks:
            hi = lo + max(len(fb), len(gb))
            window = [*window[-1:], (lo, fb, gb)]
            finish(hi)
            # the next block may overwrite this one, whose entries from
            # hi - _CHUNK on are all that a later chunk reads of it
            t = max(hi - _CHUNK, lo)
            ft = fb[t - lo :].copy()
            window[-1] = (t, ft, ft if gb is fb else gb[t - lo :].copy())
    full = top // _CHUNK
    prefix = [0.0]
    for s in sums[:full]:
        prefix.append(prefix[-1] + s)
    last = dict(zip((k for k in sorted(set(ks)) if k % _CHUNK), sums[full:]))
    totals = [prefix[k // _CHUNK] + last[k] if k in last else prefix[k // _CHUNK] for k in ks]
    for total in totals:
        if not math.isfinite(total):
            raise UsageError(f"the sum overflows float64: {total}")
    return totals


def additive_convolutions(f: ArithTable, g: ArithTable, specs) -> list:
    """[additive_convolution(f, g, spec) for spec in specs], in one pass.

    Every range is checked before any sum.  Integer sums share each block
    of g between the specs that read it, and real sums the full chunks of
    their N (see the module docstring); each keeps the bits of its own
    call.
    """
    ranges = [(spec.N, spec.last_index) for spec in specs]
    for N, k in ranges:
        if k >= 1 and f.N < k:
            raise UsageError(f"f table covers 1..{f.N}, need 1..{k}")
        if k >= 1 and g.N < N - 1:
            raise UsageError(f"g table covers 1..{g.N}, need 1..{N - 1}")
    fv, gv = f.values, g.values
    if not (f.is_integer and g.is_integer):
        # one _real_sums grid per N, over the whole tables as one block
        sums = {}
        for N in dict.fromkeys(N for N, _ in ranges):
            ks = [k for n, k in ranges if n == N]
            h = N // 2
            blocks = [(h + 1, fv[h + 1 : N], gv[h + 1 : N])]
            sums[N] = dict(zip(ks, _real_sums(fv[: h + 1], gv[: h + 1], blocks, N, ks)))
        return [sums[N][k] for N, k in ranges]
    live = [(N, k) for N, k in ranges if k >= 1]
    if not live:
        return [0] * len(ranges)
    fmax = _abs_max(fv[1 : max(k for _, k in live) + 1])
    gmax = _abs_max(gv[min(N - k for N, k in live) : max(N for N, _ in live)])
    if _CHUNK * fmax * gmax <= _FLOAT_EXACT:
        return _float_sums(fv, gv, ranges)
    return [_exact_int_sum(fv[1 : k + 1], gv[N - 1 : N - k - 1 : -1], fmax, gmax)
            for N, k in ranges]


def streamed_convolutions(sieve: FactorSieve, f: str, g: str, specs) -> list:
    """The real sums of additive_convolutions of two walked tables, neither held whole.

    f and g name the walk's tables (FactorSieve.prepare), and every spec
    has one N.  One walk to N - 1 (FactorSieve.stream) holds both tables
    on 0..N // 2, where each summand reads min(n, N - n), and passes the
    entries above through one reused buffer per table, which every sum of
    the grid reads as the blocks arrive.  Each sum is a float by
    real_dot's rule, with the bits of additive_convolutions of the two
    whole tables where either is real, and UsageError where it overflows.
    """
    specs = list(specs)
    if len({spec.N for spec in specs}) > 1:
        raise UsageError("streamed sums need one N for every spec")
    if not specs:
        return []
    N = specs[0].N
    names = list(dict.fromkeys((f, g)))
    i, j = names.index(f), names.index(g)
    low, blocks = sieve.stream(names, N - 1, N // 2)
    pairs = ((lo, views[i], views[j]) for lo, views in blocks)
    return _real_sums(low[i], low[j], pairs, N, [spec.last_index for spec in specs])


def additive_convolution(f: ArithTable, g: ArithTable, spec: ConvolutionSpec):
    """sum f(n) g(N - n) over the range selected by spec, for any pair.

    Exact, as a Python int, when both tables are integer-valued; a float
    otherwise, and UsageError when that float overflows or the range
    runs past the end of either table's values.  The one-spec grid of
    additive_convolutions.
    """
    return additive_convolutions(f, g, [spec])[0]


def lambda_convolution(sieve: FactorSieve, spec: ConvolutionSpec) -> float:
    """sum Lambda(n) Lambda(N - n) over the range selected by spec, with no Lambda table.

    Only the n with both n and N - n prime powers add anything, and the
    sum is equal bit for bit to additive_convolution of two Lambda tables
    (see the module docstring).  Lambda is read on 1..N-1 (prime_mask), so
    N <= (sieve.limit + 1)**2.
    """
    N, k = spec.N, spec.last_index
    marked = prime_mask(sieve, N - 1)  # then the prime powers below N
    powers, bases = higher_prime_powers(sieve, N - 1)
    marked[powers] = True
    # fwd[j] marks n = j + 1 and rev[j] marks N - n.  Each of real_dot's
    # chunks holds Lambda(n) Lambda(N - n) at n - 1 - i where both are
    # prime powers and zeros elsewhere, as the dense product does
    fwd, rev = marked[1:], marked[::-1]
    total = 0.0
    buf = np.zeros(min(_CHUNK, k))
    for i in range(0, k, _CHUNK):
        size = min(_CHUNK, k - i)
        at = np.flatnonzero(fwd[i : i + size] & rev[i : i + size])
        if len(at):
            n = at + (1 + i)
            buf[at] = _prime_logs(n, powers, bases) * _prime_logs(N - n, powers, bases)
            total += float(np.sum(buf[:size]))
            buf[at] = 0.0
    return total


def _prime_logs(q: np.ndarray, powers: np.ndarray, bases: np.ndarray) -> np.ndarray:
    # Lambda(q) = math.log(p), whose bits the Lambda table holds, for
    # prime powers q = p**e; powers: the q with e >= 2, ascending, bases
    # their p, each read past its end as 0, which no q is
    pos = np.searchsorted(powers, q)
    p = np.where(np.append(powers, 0)[pos] == q, np.append(bases, 0)[pos], q)
    return np.fromiter(map(math.log, p.tolist()), np.float64, len(p))


def shifted_divisor_convolution(dtable: ArithTable, N: int, h: int) -> int:
    """sum_{n <= N} d(n) d(n + h), exact."""
    if dtable.kind != "divisor":
        raise UsageError(f"need a divisor table, got kind {dtable.kind!r}")
    N, h = as_index("N", N, 1), as_index("h", h, 1)
    if dtable.N < N + h:
        raise UsageError(f"divisor table covers 1..{dtable.N}, need 1..{N + h}")
    return _exact_int_sum(dtable.values[1 : N + 1], dtable.values[1 + h : N + h + 1])


def _harmonic(k: np.ndarray) -> np.ndarray:
    # H(k) for k >= 1, an int or an int64 array
    kf = np.maximum(k, _H_EXACT).astype(np.float64)
    inv2 = 1.0 / (kf * kf)
    series = np.log(kf) + _EULER_GAMMA + 0.5 / kf - inv2 * (
        1.0 / 12 - inv2 * (1.0 / 120 - inv2 / 252)
    )
    return np.where(k < _H_EXACT, _H_PREFIX[np.minimum(k, _H_EXACT - 1)], series)


def _pair_harmonic(x: int) -> float:
    # T(x) = sum_{ab <= x} 1/(ab) by the hyperbola method
    r = math.isqrt(x)
    a = np.arange(1, r + 1, dtype=np.int64)
    return 2.0 * float(np.sum(_harmonic(x // a) / a)) - float(_harmonic(r)) ** 2


def tau_exact(y: float) -> float:
    """sum over coprime pairs (lam, mu) with lam * mu <= y of 1/(lam * mu).

    Evaluated as sum_{d <= sqrt(Y), mu(d) != 0} mu(d)/d**2 * T(Y // d**2)
    with Y = floor(y), mu from the spf sieve up to isqrt(Y), and the
    pair harmonic sum T(x) by the hyperbola method (see the module
    docstring): O(sqrt(y) log y) work.  Deterministic order: d ascending.
    Capped at y <= 10**7.
    """
    if not math.isfinite(as_real("y", y)):
        raise UsageError(f"y must be finite, got {y}")
    if y < 1:
        raise UsageError(f"y must be >= 1, got {y}")
    if y > _TAU_CAP:
        raise UsageError(f"tau_exact is capped at y <= {_TAU_CAP:g}")
    Y = math.floor(y)
    dmax = math.isqrt(Y)
    mu = build_sieve(max(dmax, 2)).upto("mobius", dmax)
    total = 0.0
    for d in range(1, dmax + 1):
        if mu[d]:
            total += int(mu[d]) / (d * d) * _pair_harmonic(Y // (d * d))
    return total
