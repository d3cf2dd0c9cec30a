"""Exact additive and shifted convolution sums and the tau harmonic sum.

Both boundary conventions are first-class and must be chosen explicitly:
"half_open" sums over 1 <= n < M, "closed" over 1 <= n <= M.  M may be
real; the effective index ranges are n <= ceil(M) - 1 and n <= floor(M).
Integer sums are exact.  Every additive one goes through one kernel,
_int_sums, which walks the blocks of one operand in pieces of 2**16
entries and takes from each piece every sum of the grid that reads it,
against a forward slice of the other table.  Over whole tables that
operand is g, from min(N - k) to max(N) - 1, against f; over tables
held only to N // 2 (additive_convolutions' above) it is the walk's f
and g blocks above N // 2: n <= N / 2 reads g's blocks against f's half
and n > N / 2 f's blocks against g's half, and g(N / 2) at even N is a
block of one entry.  Each piece some sum reads is scanned once for its
max|value|, the other table once per call (f on 1..max(k), or the held
half), and with B the product of the two each sum's part in the piece
takes one of three tiers; shifted sums take the last two, with B from
their own two slices:

  * float64, while 2**16 * B <= 2**53: the piece is reversed and cast to
    float64 once, and each sum reduces its part by one np.dot (BLAS
    ddot) against its integer slice of the other table, which np.dot
    casts to float64 exactly.  A grid of two or more sums over whole
    tables first casts f on 1..K to one read-only float64 image, K =
    min(max(k), bytes of g // 8), so the image is never larger than g
    (20 MB, n <= 2.5 * 10**6, for d to 10**7); a dot reads f from the
    image up to K and from f's own table above it, split in two dots
    where its slice straddles K, so the cast of f's slice is done once
    per grid rather than once per sum.  The image holds the same
    integers, and one sum, or a grid whose f allows no float64 dot,
    builds none.  Every product and every partial sum is then an
    integer of magnitude at most 2**53, so float64 holds each exactly in
    any summation order, whatever BLAS does with threads or fused
    multiply-adds, and the dots add up in a Python int;
  * int64 runs of at most 2**16 summands, each short enough that
    run * B <= 2**62, multiplied and reduced in int64 and added up in a
    Python int;
  * Python ints, where B allows no int64 run of 64 summands, after a
    scan of the sum's own two slices finds no tighter bound.

Where a piece's products could pass 2**53 the int64 runs are at least
as long and cheaper than shorter float64 dots, so the float64 tier
takes whole pieces only.

Real sums follow one chunk rule, with no BLAS call, so their bits do
not depend on the thread count: the summands are cut into chunks of
2**16 from the first index, each chunk's float64 products are reduced
by np.sum, and the chunk sums are added in index order, starting from
0.0.  real_dot is that rule.  The real sums of a grid of one N go
through one kernel that keeps it, _block_sums: each n reads
min(n, N - n), at most N // 2, from the low halves of f and g and its
upper entry max(n, N - n) from blocks of the rest, so the tables above
N // 2 may be whole or pass once through a reused buffer (the above of
additive_convolutions, such as the blocks of FactorSieve.stream, whose
walk holds only the low halves).  A block on [lo, hi) holds the upper
entries of two runs of n, [lo, hi) and [N - hi + 1, N - lo], and
writes their products straight into the buffer of the 2**16 chunk of n
that holds each; a chunk is summed once all its products are in, so
the blocks may have any lengths and no block is kept or copied.  Every
sum shares the full chunks of its N and sums its own short last chunk,
and has the bits of its own real_dot.
lambda_convolution keeps the rule with no Lambda table, for Lambda
against itself or against any table: f(n) g(N - n) is nonzero only
where the Lambda side is, at the live n where n (f = Lambda), N - n
(g = Lambda) or both are prime powers, so each chunk is a zeroed buffer
with the products at the live n scattered into it, the very array the
dense product holds up to the sign of its zeros, and its np.sum has the
same bits; a chunk with no live n adds 0.0 and is skipped.  The prime
powers below N are marked one byte each (arith.prime_powers), a given
table is read only at the live n, and math.log is taken only of the
primes there, with the bits a dense Lambda table would hold.

tau_exact evaluates the coprime-pair harmonic sum by Mobius inversion over
the square of the gcd and the Dirichlet hyperbola method,

    tau(y) = sum_{d <= sqrt(Y), mu(d) != 0} mu(d)/d**2 * T(Y // d**2),
    T(x)   = sum_{ab <= x} 1/(ab) = 2 sum_{a <= sqrt(x)} H(x // a)/a - H(isqrt(x))**2,

with Y = floor(y) and harmonic numbers H: O(sqrt(y) log y) work.  The
terms H(x // a)/a of every d are evaluated in one array pass, and each
T is reduced by its own np.sum and added in ascending d, so every call
gives the bits of T summed d by d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arith import MOBIUS, ArithTable, FactorSieve, as_index, as_real, build_sieve, prime_powers
from .errors import UsageError

__all__ = [
    "ConvolutionSpec",
    "additive_convolution",
    "additive_convolutions",
    "lambda_convolution",
    "shifted_divisor_convolution",
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
    return max(-int(a.min(initial=0)), int(a.max(initial=0)))


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


def _int_sums(blocks, readers, image=None) -> list:
    # exact sum_{a <= m <= b} P(m) Q(N - m) for each reader (p, N, a, b,
    # Q, qmax): P is part p of blocks, (lo, values of each part on [lo,
    # lo + len)), and Q a table with |Q| <= qmax at N - b..N - a.  Each
    # block is cut into pieces of _CHUNK; a piece some reader reads is
    # scanned once and, for the float64 dots, reversed and cast once
    # (rev[j] = P(top - j)), and each reader takes from it one dot with a
    # forward slice of Q, or the int64 runs or Python ints of
    # _exact_int_sum.  image, where given, is every reader's Q on 1..K
    # in float64 (image[j] = Q(j + 1)): a dot reads Q there from the
    # image and above K from Q, so it casts no slice of Q that the image
    # holds.  A block is done with when the next one arrives
    K = 0 if image is None else len(image)
    totals = [0] * len(readers)
    rbuf = np.empty(_CHUNK)
    which, first, last = (np.array([r[j] for r in readers], dtype=np.int64) for j in (0, 2, 3))
    for lo, *parts in blocks:
        for p, part in enumerate(parts):
            for at in range(0, len(part), _CHUNK):
                piece = part[at : at + _CHUNK]
                base, top = lo + at, lo + at + len(piece) - 1
                reads = (which == p) & (first <= np.minimum(last, top)) & (last >= base)
                live = np.flatnonzero(reads)
                if not len(live):
                    continue
                pmax, rev = _abs_max(piece), None
                for i in live.tolist():
                    _, N, a, b, Q, qmax = readers[i]
                    x, y = max(a, base), min(b, top)
                    if _CHUNK * pmax * qmax > _FLOAT_EXACT:
                        totals[i] += _exact_int_sum(piece[x - base : y - base + 1],
                                                    Q[N - y : N - x + 1][::-1], pmax, qmax)
                        continue
                    # every product and partial sum of the dot stays within
                    # 2**53, exact in float64 whatever order BLAS adds them in
                    if rev is None:
                        rev = rbuf[: len(piece)]
                        np.copyto(rev, piece[::-1])
                    # rev[r + j] meets Q(q + j), read from the image up to
                    # K and from Q above it
                    r, q, end = top - y, N - y, N - x + 1
                    cut = min(max(K + 1, q), end)
                    if cut > q:
                        totals[i] += int(np.dot(rev[r : r + cut - q], image[q - 1 : cut - 1]))
                    if cut < end:
                        totals[i] += int(np.dot(rev[r + cut - q : r + end - q], Q[cut:end]))
    return totals


def _block_sums(f_low, g_low, blocks, N: int, ks) -> list:
    # sum_{n <= k} f(n) g(N - n) for each k of ks by real_dot's rule, and
    # UsageError where one overflows.  f and g up to held = N // 2 are
    # f_low and g_low, and blocks are (lo, f on [lo, hi), g on [lo, hi))
    # tiling held + 1..N - 1; f may stop early past max(ks).  A block
    # holds the upper entry of n in [lo, hi), against g(N - n) in g_low,
    # and of n in [N - hi + 1, N - lo], against f(n) in f_low; n = N / 2
    # at even N reads both halves.  Each product goes straight into the
    # buffer of its _CHUNK chunk of n, which np.sum reduces once all its
    # products are in: whole, and up to each k that ends inside it.  The
    # full chunks are shared by every k; each k's short last chunk is its own
    held, top = N // 2, max(ks, default=0)
    ends = {}  # chunk -> the k that end inside it
    for k in set(ks):
        if k % _CHUNK:
            ends.setdefault(k // _CHUNK, []).append(k)
    sums, last, filling = [0.0] * (top // _CHUNK), {}, {}

    def put(n0, fa, ga):
        # the products fa[j] * ga[j] of n = n0 + j, up to top
        n, stop = n0, min(n0 + len(ga), top + 1)
        while n < stop:
            c = (n - 1) // _CHUNK
            base = c * _CHUNK + 1
            size = min(_CHUNK, top + 1 - base)
            e = min(stop, base + size)
            buf, got = filling.pop(c, None) or (np.empty(_CHUNK), 0)
            np.multiply(fa[n - n0 : e - n0], ga[n - n0 : e - n0], out=buf[n - base : e - base],
                        dtype=np.float64)
            got += e - n
            if got < size:
                filling[c] = buf, got
            else:
                if c < len(sums):
                    sums[c] = float(np.sum(buf))
                for k in ends.get(c, ()):
                    last[k] = float(np.sum(buf[: k - base + 1]))
            n = e

    with np.errstate(over="ignore", invalid="ignore"):
        if N % 2 == 0:
            put(held, f_low[held:], g_low[held:])
        for lo, fb, gb in blocks:
            hi = lo + len(gb)
            # n <= N / 2 first: the chunk at N / 2 is then done before
            # the n above it open another
            put(N - hi + 1, f_low[N - hi + 1 : N - lo + 1], gb[::-1])
            put(lo, fb, g_low[N - hi + 1 : N - lo + 1][::-1])
    prefix = list(itertools.accumulate(sums, initial=0.0))
    return [_finite(prefix[k // _CHUNK] + last[k] if k % _CHUNK else prefix[k // _CHUNK])
            for k in ks]


def _finite(total: float) -> float:
    # a real sum, else UsageError where it overflowed
    if not math.isfinite(total):
        raise UsageError(f"the sum overflows float64: {total}")
    return total


def _check_covers(f, g, N: int, k: int) -> None:
    # the whole tables f, g (None for Lambda, read from no table) reach
    # what sum_{n <= k} f(n) g(N - n) reads of them: 1..k and 1..N - 1
    if k >= 1 and f is not None and f.N < k:
        raise UsageError(f"f table covers 1..{f.N}, need 1..{k}")
    if k >= 1 and g is not None and g.N < N - 1:
        raise UsageError(f"g table covers 1..{g.N}, need 1..{N - 1}")


def _tiled(blocks, N: int):
    # blocks as they arrive, checked to tile N // 2 + 1..N - 1 in order,
    # each with f and g parts of one length
    end, tiling = N // 2 + 1, f"the blocks above N // 2 must tile {N // 2 + 1}..{N - 1}"
    for lo, fb, gb in blocks:
        if len(fb) != len(gb):
            raise UsageError(f"{tiling}; the one from {lo} has {len(fb)} f and {len(gb)} g entries")
        if lo != end or lo + len(fb) > N:
            raise UsageError(f"{tiling}; one covers {lo}..{lo + len(fb) - 1} after {end - 1}")
        end += len(fb)
        yield lo, fb, gb
    if end != N:
        raise UsageError(f"{tiling}; they end at {end - 1}")


def additive_convolutions(f: ArithTable, g: ArithTable, specs, above=None) -> list:
    """[additive_convolution(f, g, spec) for spec in specs], in one pass.

    Every range is checked before any sum.  Integer sums share each
    piece of the table they walk between the specs that read it, and a
    grid of them over whole tables one float64 image of f, no larger
    than g; real sums share the full chunks of their N (see the module
    docstring);
    each keeps the bits of its own call.  Given above, the blocks of f
    and g above N // 2 for the one N of every spec, the tables hold
    1..N // 2 only: above yields (lo, f block, g block), as from
    FactorSieve.stream(walks, N - 1, N // 2).  The blocks may have any
    lengths but must tile N // 2 + 1..N - 1 in order, each starting where
    the one before ended and with f and g blocks of one length;
    UsageError otherwise, raised as the first block out of place
    arrives or, where they end short of N - 1, after the last.  Each
    block is read once, as it arrives, and the sums keep the values and
    bits of those over the whole tables.
    """
    specs = list(specs)
    ranges = [(spec.N, spec.last_index) for spec in specs]
    fv, gv = f.values, g.values
    if above is not None:
        if len({N for N, _ in ranges}) > 1:
            raise UsageError("streamed sums need one N for every spec")
        if not ranges:
            return []
        N = ranges[0][0]
        held = N // 2
        if not f.N == g.N == held:
            raise UsageError(f"streamed sums need f and g on 1..{held}, got 1..{f.N}, 1..{g.N}")
        above = _tiled(above, N)
    else:
        for N, k in ranges:
            _check_covers(f, g, N, k)
    if not (f.is_integer and g.is_integer):
        # one _block_sums grid per N, over the blocks of above, where the
        # tables end at N // 2, or over the whole tables' upper part as one
        sums = {}
        for N in dict.fromkeys(N for N, _ in ranges):
            ks = [k for n, k in ranges if n == N]
            h = N // 2
            blocks = [(h + 1, fv[h + 1 : N], gv[h + 1 : N])] if above is None else above
            sums[N] = dict(zip(ks, _block_sums(fv[: h + 1], gv[: h + 1], blocks, N, ks)))
        return [sums[N][k] for N, k in ranges]
    top = max((k for _, k in ranges), default=0)
    fmax = _abs_max(fv[1 : top + 1])
    if above is not None:
        # n <= N / 2 reads g's blocks, and g(N / 2) at even N a block of
        # one entry, against f's half; n > N / 2 reads f's blocks against
        # g's half
        gmax = _abs_max(gv[N - top : N - held])
        readers = [(1, N, N - min(k, held), N - 1, fv, fmax) for _, k in ranges]
        readers += [(0, N, held + 1, k, gv, gmax) for _, k in ranges]
        sums = _int_sums(itertools.chain([(held, fv[held:], gv[held:])], above), readers)
        return [x + y for x, y in zip(sums, sums[len(ranges) :])]
    # g on the union of what the grid reads of it, min(N - k)..max(N) - 1
    lo = min((N - k for N, k in ranges if k), default=0)
    hi = max((N for N, k in ranges if k), default=0)
    image = None
    if len(ranges) > 1 and _CHUNK * fmax <= _FLOAT_EXACT:
        # f on 1..K in float64 for the grid's float64 dots, no larger than g
        image = fv[1 : min(top, gv.nbytes // 8) + 1].astype(np.float64)
        image.setflags(write=False)
    return _int_sums([(lo, gv[lo:hi])], [(0, N, N - k, N - 1, fv, fmax) for N, k in ranges],
                     image)


def additive_convolution(f: ArithTable, g: ArithTable, spec: ConvolutionSpec, above=None):
    """sum f(n) g(N - n) over the range selected by spec, for any pair.

    Exact, as a Python int, when both tables are integer-valued; a float
    otherwise, and UsageError when that float overflows or the range
    runs past the end of either table's values.  The one-spec grid of
    additive_convolutions, whose above passes the blocks of two tables
    held only to N // 2.
    """
    return additive_convolutions(f, g, [spec], above)[0]


def lambda_convolution(sieve: FactorSieve, spec: ConvolutionSpec, f: ArithTable | None = None,
                       g: ArithTable | None = None) -> float:
    """sum f(n) g(N - n) over the range selected by spec, Lambda for each of f, g that is None.

    f and g are tables as for additive_convolution, and at least one is
    None, which stands for Lambda and builds no Lambda table: only the n
    where each Lambda side is nonzero add anything, and a given table is
    read there alone.  For finite table values the sum is equal bit for
    bit to additive_convolution with a dense Lambda table in place of
    each None (see the module docstring), and UsageError where it
    overflows float64 or a given table is too short for spec, as there.
    Lambda is read on 1..N-1 (prime_powers), so N <= (sieve.limit + 1)**2.
    """
    if f is not None and g is not None:
        raise UsageError("lambda_convolution needs Lambda on one side: pass None for f or g")
    N, k = spec.N, spec.last_index
    _check_covers(f, g, N, k)
    marked, powers, bases = prime_powers(sieve, N - 1)
    # marked[1:][j] marks n = j + 1 and marked[::-1][j] marks N - n: the
    # live n are those marked on each Lambda side.  Each of real_dot's
    # chunks holds f(n) g(N - n) at n - 1 - i where n is live and zeros
    # elsewhere, as the dense product does
    sides = [mask for mask, table in ((marked[1:], f), (marked[::-1], g)) if table is None]
    total = 0.0
    buf = np.zeros(min(_CHUNK, k))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, k, _CHUNK):
            size = min(_CHUNK, k - i)
            at = np.flatnonzero(np.logical_and.reduce([mask[i : i + size] for mask in sides]))
            if len(at):
                n = at + (1 + i)
                fn = _prime_logs(n, powers, bases) if f is None else f.values[n]
                gn = _prime_logs(N - n, powers, bases) if g is None else g.values[N - n]
                buf[at] = np.multiply(fn, gn, dtype=np.float64)
                total += float(np.sum(buf[:size]))
                buf[at] = 0.0
    return _finite(total)


def _prime_logs(q: np.ndarray, powers: np.ndarray, bases: np.ndarray) -> np.ndarray:
    # Lambda(q) = math.log(p), whose bits a dense Lambda table holds, for
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


def tau_exact(y: float) -> float:
    """sum over coprime pairs (lam, mu) with lam * mu <= y of 1/(lam * mu).

    Evaluated as sum_{d <= sqrt(Y), mu(d) != 0} mu(d)/d**2 * T(Y // d**2)
    with Y = floor(y), mu from the spf sieve up to isqrt(Y), and the
    pair harmonic sum T(x) by the hyperbola method (see the module
    docstring): O(sqrt(y) log y) work.  Deterministic order: d ascending.
    Capped at y <= 10**7.
    """
    if as_real("y", y) < 1:
        raise UsageError(f"y must be >= 1, got {y}")
    if y > _TAU_CAP:
        raise UsageError(f"tau_exact is capped at y <= {_TAU_CAP:g}")
    Y = math.floor(y)
    dmax = math.isqrt(Y)
    mu = build_sieve(max(dmax, 2)).upto(MOBIUS, dmax)
    d = np.flatnonzero(mu)
    x = Y // (d * d)
    r = np.array([math.isqrt(v) for v in x.tolist()], dtype=np.int64)
    # the terms H(x // a)/a, a = 1..r, of every d in one array, d after d
    ends = np.cumsum(r)
    starts = ends - r
    a = np.arange(1, ends[-1] + 1) - np.repeat(starts, r)
    terms = _harmonic(np.repeat(x, r) // a) / a
    total = 0.0
    for k, m, s, e, h in zip(d.tolist(), mu[d].tolist(), starts.tolist(), ends.tolist(),
                             _harmonic(r).tolist()):
        # one np.sum per d keeps the bits of T(x) summed on its own
        total += m / (k * k) * (2.0 * float(np.sum(terms[s:e])) - h**2)
    return total
