"""Brute-force oracles, deliberately independent of the library internals.

Everything here is trial division, direct enumeration, or plain cmath;
slow but obviously correct on small inputs.  The lattice count and the
root-of-unity Ramanujan sum are the oracles of the paper's two identities
(their domain errors are the library's, so the tests read the same
exceptions).  The bulk oracles at the end are whole-table algorithms the
library has replaced, kept to check the replacements bit for bit.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from convlab.arith import Factorization, sigma_rational
from convlab.errors import ConsistencyError, UsageError


def divisors(n: int) -> list:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def factorize(n: int) -> list:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(math.isqrt(n)) + 1))


def divisor_count(n: int) -> int:
    return len(divisors(n))


def sigma_int(n: int, k: int) -> Fraction:
    return sum((Fraction(d) ** k for d in divisors(n)), Fraction(0))


def sigma_float(n: int, s: float) -> float:
    return math.fsum(d**s for d in divisors(n))


def sigma_fsum(n: int, t: float) -> float:
    """sigma_t(n) as math.fsum of float(d)**t over the divisors from factorize.

    Correctly rounded from the powers, each within about an ulp; trial
    division to sqrt(n), so it serves n far past divisors' range.
    """
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return math.fsum(float(d) ** t for d in ds)


def mobius(n: int) -> int:
    fs = factorize(n)
    if any(e >= 2 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def von_mangoldt(n: int) -> float:
    fs = factorize(n)
    if len(fs) == 1:
        return math.log(fs[0][0])
    return 0.0


def ramanujan_sum(r: int, n: int) -> int:
    """Direct primitive-root-of-unity sum, evaluated in complex arithmetic."""
    z = sum(
        cmath.exp(2j * math.pi * a * n / r)
        for a in range(1, r + 1)
        if math.gcd(a, r) == 1
    )
    assert abs(z.imag) < 1e-6
    val = round(z.real)
    assert abs(z.real - val) < 1e-6
    return int(val)


def additive_sum(f, g, N: int, k: int) -> int:
    """sum_{n=1}^{k} f[n] g[N - n], one Python-int product at a time.

    f and g are 1-indexed sequences of integers (lists are fastest).
    """
    return sum(int(f[n]) * int(g[N - n]) for n in range(1, k + 1))


def eisenstein_sum(f: Factorization, a: int, b: int) -> int:
    """sum_{0 < n < N} sigma_a(n) sigma_b(N - n), from the factorization f of N alone.

    The quasi-modular identities among the Eisenstein series E_2, E_4,
    E_6 and E_8 (Ramanujan 1916; Lahiri 1946), for (a, b) = (1, 1),
    (1, 3) and (3, 3), with sigma_k(N) from sigma_rational.
    """
    N, s = f.n, {k: sigma_rational(f, k) for k in (1, 3, 5, 7)}
    num, den = {
        (1, 1): (5 * s[3] + (1 - 6 * N) * s[1], 12),
        (1, 3): (21 * s[5] - 30 * N * s[3] + 10 * s[3] - s[1], 240),
        (3, 3): (s[7] - s[3], 120),
    }[a, b]
    q, r = divmod(num, den)
    assert r == 0, (N, a, b)
    return q


def lattice_count(N: int, M: int) -> int:
    """|{(l, r, m, s) : lr + ms = N, ms <= M}| by quadruple enumeration."""
    count = 0
    for l in range(1, N + 1):
        for r in range(1, N + 1):
            for m in range(1, N + 1):
                for s in range(1, N + 1):
                    if l * r + m * s == N and m * s <= M:
                        count += 1
    return count


def _divisor_pairs(k: int) -> int:
    # ordered pairs (l, r) with l * r = k, counted by trial division
    cnt = 0
    for j in range(1, math.isqrt(k) + 1):
        if k % j == 0:
            cnt += 1 if j * j == k else 2
    return cnt


def lattice_count_S(N: int, M: float) -> int:
    """|{(l, r, m, s) in N^4 : l r + m s = N, m s <= M}|.

    Enumerates (m, s) directly and counts the (l, r) factor pairs of
    N - m s by trial division, independent of any sieve.  Equals the
    closed-boundary divisor convolution up to M (the constraint never
    binds past n = N - 1).  Capped at N <= 10**4.
    """
    if N < 2:
        raise UsageError(f"N must be >= 2, got {N}")
    if not 1 <= M <= N:
        raise UsageError(f"M must lie in [1, N], got M={M}")
    if N > 10_000:
        raise UsageError("lattice enumeration is capped at N <= 10000")
    cache: dict = {}
    total = 0
    for m in range(1, int(M) + 1):
        for s in range(1, int(M / m) + 1):
            rem = N - m * s
            if rem < 1:
                continue
            pairs = cache.get(rem)
            if pairs is None:
                pairs = cache[rem] = _divisor_pairs(rem)
            total += pairs
    return total


@lru_cache(maxsize=512)
def _unit_roots(r: int) -> np.ndarray:
    roots = np.exp((2j * math.pi / r) * np.arange(r))
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=512)
def _primitive_residues(r: int) -> np.ndarray:
    a = np.arange(r, dtype=np.int64)
    res = a[np.gcd(a, r) == 1]
    res.setflags(write=False)
    return res


def ramanujan_sum_oracle(r: int, n: int) -> int:
    """c_r(n) summed over primitive r-th roots of unity, vectorised.

    O(r) per call; refuses r > 10**4.  Raises ConsistencyError if the
    imaginary part or the rounding residue reaches 1e-6.
    """
    if r < 1 or n < 1:
        raise UsageError(f"oracle needs r >= 1 and n >= 1, got r={r}, n={n}")
    if r > 10_000:
        raise UsageError("oracle is O(r) and is capped at r <= 10000")
    z = _unit_roots(r)[(_primitive_residues(r) * n) % r].sum()
    val = round(z.real)
    if abs(z.imag) >= 1e-6 or abs(z.real - val) >= 1e-6:
        raise ConsistencyError(
            f"root-of-unity sum for c_{r}({n}) did not round cleanly: {z!r}"
        )
    return int(val)


def orthogonality_exact(r: int, s: int, N: int, M: int) -> int:
    return sum(ramanujan_sum(r, n) * ramanujan_sum(s, N - n) for n in range(1, M))


def zeta(s: float) -> float:
    """Partial sum plus midpoint integral tail; error well under 1e-12."""
    K = 10_000 if s >= 2 else 200_000
    head = math.fsum(k**-s for k in range(1, K + 1))
    return head + (K + 0.5) ** (1.0 - s) / (s - 1.0)


def tau(y: float) -> float:
    total = 0.0
    lam = 1
    while lam <= y:
        mu = 1
        while lam * mu <= y:
            if math.gcd(lam, mu) == 1:
                total += 1.0 / (lam * mu)
            mu += 1
        lam += 1
    return total


# --- bulk oracles ---------------------------------------------------------
#
# A boolean prime sieve with one pass per prime for mu, phi and Lambda, a
# masked ascending pass per prime for spf, whole-range hyperbola loops
# for d and sigma, and the blocked hyperbola build of the exact sigma_k
# tables that the spf walk replaced.  The integer tables are exact, so
# comparisons against them are too; the real sigma_t tables of the walk
# are held to an ulp bound against sigma_longdouble instead.


def spf_table(limit: int) -> np.ndarray:
    """Smallest prime factor of 0..limit: each prime fills the still-empty
    entries among its multiples from p*p on, smallest prime first."""
    spf = np.zeros(limit + 1, dtype=np.int32 if limit < 2**31 else np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    spf[1] = 1
    return spf


def exact_sigma_dtype(N: int, s: int):
    """The dtype of an exact sigma_s table to N, from the proven bounds.

    d(n) < 1750 below 2**31 (Nicolas-Robin) fits int16, and
    sigma_s(n) + n**(s/2) <= N**s (2 + ln N) < 2**31 fits int32.
    """
    if s == 0:
        return np.int16 if N < 2**31 else np.int32
    return np.int32 if N**s * (2 + math.log(N)) < 2**31 else np.int64


def _narrow(values: np.ndarray, dtype) -> np.ndarray:
    # the int64 values in dtype, which must hold every one of them
    out = values.astype(dtype)
    assert np.array_equal(out, values), f"{dtype.__name__} does not hold the table"
    return out


def divisor_table(N: int) -> np.ndarray:
    """d(n): each d <= sqrt(N) adds 2 to its multiples from d*d."""
    out = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, math.isqrt(N) + 1):
        out[d * d :: d] += 2
        out[d * d] -= 1
    return _narrow(out, exact_sigma_dtype(N, 0))


def primes_upto(N: int) -> np.ndarray:
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0]


def mobius_table(N: int) -> np.ndarray:
    mu = np.ones(N + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_upto(N).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def phi_table(N: int) -> np.ndarray:
    phi = np.arange(N + 1, dtype=np.int64)
    for p in primes_upto(N).tolist():
        block = phi[p::p]
        block -= block // p
    return phi


def hardy_coefficients(N: int) -> np.ndarray:
    """mu(n)/phi(n) for n = 0..N as products of rounded factors, n by n.

    a(n) = a(n / p) (-1/(p - 1)) for p = spf(n), and 0 where p divides
    n / p: the recurrence the spf walk runs in blocks, so its last bits,
    not those of the correctly rounded mu(n) / phi(n).
    """
    spf = spf_table(N).tolist()
    a = [0.0] * (N + 1)
    a[1:2] = [1.0]
    for n in range(2, N + 1):
        p = spf[n]
        m = n // p
        a[n] = 0.0 if m % p == 0 else a[m] * (-1.0 / (p - 1))
    return np.array(a)


def singular_weights(N: int) -> np.ndarray:
    """phi(n)**2 in float64, +inf where mu(n) = 0, for n = 0..N, entry 0 zero."""
    out = phi_table(N).astype(np.float64) ** 2
    out[mobius_table(N) == 0] = np.inf
    out[0] = 0.0
    return out


def lambda_table(N: int) -> np.ndarray:
    out = np.zeros(N + 1, dtype=np.float64)
    for p in primes_upto(N).tolist():
        pk = p
        while pk <= N:
            out[pk] = math.log(p)
            pk *= p
    return out


def lambda_pair_sum(lam: np.ndarray, N: int, k: int) -> float:
    """sum_{n <= k} Lambda(n) Lambda(N - n) over a dense Lambda table lam to at least N - 1.

    The path the prime-power pair sum replaced: the products of the two
    dense slices in chunks of 2**16, each reduced by np.sum and added in
    index order, as the library's real sums are.
    """
    prod = lam[1 : k + 1] * lam[N - 1 : N - k - 1 : -1]
    total = 0.0
    for i in range(0, k, 1 << 16):
        total += float(np.sum(prod[i : i + (1 << 16)]))
    return total


def sigma_table(N: int, s: int) -> np.ndarray:
    """sum_{d | n} d**s for an int s >= 0, exactly, in exact_sigma_dtype."""
    out = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, math.isqrt(N) + 1):
        idx = np.arange(d * d, N + 1, d, dtype=np.int64)
        out[idx] += d**s + (idx // d) ** s
        out[d * d] -= d**s
    return _narrow(out, exact_sigma_dtype(N, s))


def sigma_longdouble(N: int, t: float) -> np.ndarray:
    """sum_{d | n} d**t for a real t by whole-range hyperbola pairing, in np.longdouble.

    The build the float64 sigma_t tables had before the spf walk, carried
    in extended precision (a 64-bit significand on x86-64), so each entry
    is within a small fraction of a float64 ulp of the exact sum.  The
    powers j**t are computed once, to N.
    """
    n = np.arange(N + 1, dtype=np.longdouble)
    n[0] = 1
    powers = n ** np.longdouble(t)
    out = np.zeros(N + 1, dtype=np.longdouble)
    for d in range(1, math.isqrt(N) + 1):
        out[d * d :: d] += powers[d] + powers[d : N // d + 1]
        out[d * d] -= powers[d]
    return out


def hyperbola_sigma_table(N: int, k: int) -> np.ndarray:
    """sigma_k for an int k >= 0 as the library built it before its spf walk.

    Hyperbola pairing in blocks [lo, hi) of at most 2**20 with hi <= 2 lo,
    from the top down: each block starts as n**k (1 for d, with no pass of
    powers) and adds d**k + (n/d)**k for each d <= sqrt(n) dividing n,
    reading the cofactor n/d from the table while it still holds
    (n/d)**k, in exact_sigma_dtype(N, k).
    """
    dtype = exact_sigma_dtype(N, k)
    if k == 0:
        out = np.ones(N + 1, dtype=dtype)
    else:
        out = np.arange(N + 1, dtype=dtype)
        out **= k
    out[0] = 0
    edges = [2]
    while edges[-1] <= N:
        edges.append(min(2 * edges[-1], edges[-1] + (1 << 20), N + 1))
    for lo, hi in reversed(list(zip(edges, edges[1:]))):
        out[lo:hi] += 1
        for d in range(2, math.isqrt(hi - 1) + 1):
            j0 = max(d, -(-lo // d))
            if k == 0:
                out[j0 * d : hi : d] += 2
            else:
                out[j0 * d : hi : d] += d**k + out[j0 : (hi - 1) // d + 1]
            if lo <= d * d:
                out[d * d] -= d**k
    return out


def tau_fsum(y: float) -> float:
    """The replaced per-lambda coprimality loop, summed exactly by math.fsum.

    Each term 1/(lam mu) is rounded once, so the result is within about
    half an ulp per term of the true tau(y).
    """

    def terms():
        for lam in range(1, int(y) + 1):
            m = np.arange(1, int(y / lam) + 1, dtype=np.int64)
            cop = m[np.gcd(m, lam) == 1]
            yield from (1.0 / (lam * cop.astype(np.float64))).tolist()

    return math.fsum(terms())


def _harmonic(k):
    # H(k) for k >= 1: the exact prefix below 64 and the Euler-Maclaurin
    # series above, term for term as tau_exact evaluates it
    prefix = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, 64))))
    kf = np.maximum(k, 64).astype(np.float64)
    inv2 = 1.0 / (kf * kf)
    series = np.log(kf) + 0.5772156649015329 + 0.5 / kf - inv2 * (
        1.0 / 12 - inv2 * (1.0 / 120 - inv2 / 252)
    )
    return np.where(k < 64, prefix[np.minimum(k, 63)], series)


def tau_per_d(y: float) -> float:
    """The replaced per-d loop of tau_exact: one hyperbola sum T(Y // d**2)
    of its own arrays for each square-free d <= sqrt(Y), ascending, with
    the bits tau_exact must keep."""
    Y = math.floor(y)
    dmax = math.isqrt(Y)
    mu = mobius_table(dmax)
    total = 0.0
    for d in range(1, dmax + 1):
        if mu[d]:
            x = Y // (d * d)
            r = math.isqrt(x)
            a = np.arange(1, r + 1, dtype=np.int64)
            T = 2.0 * float(np.sum(_harmonic(x // a) / a)) - float(_harmonic(r)) ** 2
            total += int(mu[d]) / (d * d) * T
    return total


# --- per-call forms of the Ramanujan queries --------------------------------
#
# The queries as they were before their invariants were computed once per
# call or once per sieve: each call here redoes all of its set-up.  They
# use the bulk oracles above for mu and phi, and are given zeta(s+1)
# itself, so comparisons against the library are exact.


def mu_power_prefix(R: int, expo: float) -> np.ndarray:
    """sum_{q <= m} mu(q) q**-expo for m = 0..R, one running sum."""
    q = np.arange(R + 1, dtype=np.float64)
    q[0] = 1.0
    return np.cumsum(q**-expo * mobius_table(R))


def sigma_partial_regrouped(z: float, pref: np.ndarray, s: float, n: int, R: int) -> float:
    """z sum_{d | n, d <= R} d**-s pref[R // d], z = zeta(s+1), one call per R.

    pref is mu_power_prefix(R', s + 1) for any R' >= R; the divisors of n
    and their powers are found afresh on every call.
    """
    total = 0.0
    for d in divisors(n):
        if d > R:
            break
        total += float(d) ** -s * pref[R // d]
    return z * total


def ramanujan_sum_table(n: int, R: int) -> np.ndarray:
    """c_r(n) for r = 0..R: each divisor d <= R of n adds d mu(r/d) to r = d, 2d, ..."""
    mu = _mu_phi(R)[0]
    out = np.zeros(R + 1, dtype=np.int64)
    for d in divisors(n):
        if d > R:
            continue
        out[d::d] += d * mu[1 : R // d + 1].astype(np.int64)
    return out


def singular_series(N: int, R: int) -> float:
    """sum_{r <= R} mu(r)**2 c_r(N) / phi(r)**2, zeros masked by np.where."""
    mu, phi = _mu_phi(R)
    c = ramanujan_sum_table(N, R)
    phi = phi.astype(np.float64)
    terms = np.where(mu[1:] != 0, c[1:].astype(np.float64) / phi[1:] ** 2, 0.0)
    return float(np.sum(terms))


def singular_series_exact(N: int, Rs) -> dict:
    """{R: (series, scale)} for each R of Rs, both exact Fractions.

    series is sum_{r <= R} mu(r)**2 c_r(N) / phi(r)**2 and scale the sum
    of the absolute values of its terms, which sets the size of a float
    sum's rounding errors.  Every term is an integer over the common
    denominator D = lcm of the phi(r)**2, so both are integer sums over D.
    """
    top = max(Rs)
    D, E = _singular_denominator(top)
    c = ramanujan_sum_table(N, top).tolist()
    ends = set(Rs)
    total = scale = 0
    out = {}
    for r in range(1, top + 1):
        total += c[r] * E[r]
        scale += abs(c[r]) * E[r]
        if r in ends:
            out[r] = Fraction(total, D), Fraction(scale, D)
    return out


@lru_cache(maxsize=4)
def _singular_denominator(R: int):
    # D = lcm of phi(r)**2 over the squarefree r <= R, and D / phi(r)**2
    # for each of them, 0 for the others
    mu, phi = _mu_phi(R)
    D = 1
    for r in np.flatnonzero(mu).tolist():
        D = math.lcm(D, int(phi[r]) ** 2)
    return D, [D // int(phi[r]) ** 2 if mu[r] else 0 for r in range(R + 1)]


@lru_cache(maxsize=16)
def _mu_phi(R: int):
    mu, phi = mobius_table(R), phi_table(R)
    mu.setflags(write=False)
    phi.setflags(write=False)
    return mu, phi
