"""Exact additive and shifted convolution sums and the tau harmonic sum.

Both boundary conventions are first-class and must be chosen explicitly:
"half_open" sums over 1 <= n < M, "closed" over 1 <= n <= M.  M may be
real; the effective index ranges are n <= ceil(M) - 1 and n <= floor(M).
Integer sums are exact.  They run in int64 runs of at most 2**16
summands, each short enough that run * max|f| * max|g| <= 2**62, so no
run's sum can leave int64, and the runs add up in a Python int: one
multiply per run, in the tables' common integer type when
max|f| * max|g| fits it (int64 otherwise), reduced to int64.  The bound
reads each table's max|value|, computed once per ArithTable
(ArithTable.abs_max) when the table and every array it views are
read-only, and scans the summed slices when they are not or when that
bound allows no run of 64 summands; products too large for that are
summed in Python ints.  Real sums and dot products (real_dot) are
reduced in the same fixed chunks combined in index order, with no BLAS
call, so results are reproducible whatever the thread count.

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

from .arith import ArithTable, build_sieve
from .errors import UsageError

__all__ = [
    "ConvolutionSpec",
    "additive_convolution",
    "shifted_divisor_convolution",
    "tau_exact",
]

_CHUNK = 1 << 16
# shortest int64 run of an exact sum; below it, Python ints are faster
_MIN_RUN = 64
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
        if self.N < 2:
            raise UsageError(f"N must be >= 2, got {self.N}")
        if self.boundary not in ("half_open", "closed"):
            raise UsageError(f"boundary must be 'half_open' or 'closed', got {self.boundary!r}")
        if not 1 <= self.M <= self.N:
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


def _table_bound(t: ArithTable) -> int | None:
    # the cached bound holds only while nothing can write the values: a
    # read-only view of a writable array changes with that array
    a = t.values
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return None
        a = a.base
    return t.abs_max if a is None else None


def _exact_int_sum(fa: np.ndarray, ga: np.ndarray, fmax=None, gmax=None) -> int:
    # fmax, gmax: bounds on |fa| and |ga|; the slices are scanned when a
    # bound is missing or too loose to allow runs of _MIN_RUN summands
    k = len(fa)
    if k == 0:
        return 0
    if fmax is None or gmax is None or _run_length(fmax, gmax) < _MIN_RUN:
        fmax, gmax = _abs_max(fa), _abs_max(ga)
    run = _run_length(fmax, gmax)
    if run < _MIN_RUN:
        # int64 runs this short cost more than Python ints
        return sum(int(a) * int(b) for a, b in zip(fa.tolist(), ga.tolist()))
    # no run's sum can leave int64, and the runs add up in a Python int;
    # each product is formed in the common type when no product can wrap it
    ctype = np.result_type(fa, ga)
    if ctype.kind not in "iu" or fmax * gmax > np.iinfo(ctype).max:
        ctype = np.dtype(np.int64)
    buf = np.empty(min(run, k), dtype=ctype)
    total = 0
    for i in range(0, k, run):
        prod = buf[: min(run, k - i)]
        np.multiply(fa[i : i + run], ga[i : i + run], out=prod, dtype=ctype)
        total += int(prod.sum(dtype=np.int64))
    return total


def _run_length(fmax: int, gmax: int) -> int:
    # summands per int64 run: at most _CHUNK, and few enough that
    # run * fmax * gmax <= 2**62
    return min(_CHUNK, 2**62 // max(fmax * gmax, 1))


def additive_convolution(f: ArithTable, g: ArithTable, spec: ConvolutionSpec):
    """sum f(n) g(N - n) over the range selected by spec, for any pair.

    Exact, as a Python int, when both tables are integer-valued; a float
    otherwise, and UsageError when that float overflows or the range
    runs past the end of either table's values.
    """
    exact = f.is_integer and g.is_integer
    k = spec.last_index
    if k < 1:
        return 0 if exact else 0.0
    if f.N < k:
        raise UsageError(f"f table covers 1..{f.N}, need 1..{k}")
    if g.N < spec.N - 1:
        raise UsageError(f"g table covers 1..{g.N}, need 1..{spec.N - 1}")
    fa = f.values[1 : k + 1]
    ga = g.values[spec.N - 1 : spec.N - k - 1 : -1]
    if not exact:
        with np.errstate(over="ignore", invalid="ignore"):
            total = real_dot(fa, ga)
        if not math.isfinite(total):
            raise UsageError(f"the sum overflows float64: {total}")
        return total
    return _exact_int_sum(fa, ga, _table_bound(f), _table_bound(g))


def shifted_divisor_convolution(dtable: ArithTable, N: int, h: int) -> int:
    """sum_{n <= N} d(n) d(n + h), exact."""
    if dtable.kind != "divisor":
        raise UsageError(f"need a divisor table, got kind {dtable.kind!r}")
    if N < 1 or h < 1:
        raise UsageError(f"need N >= 1 and h >= 1, got N={N}, h={h}")
    if dtable.N < N + h:
        raise UsageError(f"divisor table covers 1..{dtable.N}, need 1..{N + h}")
    bound = _table_bound(dtable)
    return _exact_int_sum(
        dtable.values[1 : N + 1], dtable.values[1 + h : N + h + 1], bound, bound
    )


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
    if not math.isfinite(y):
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
