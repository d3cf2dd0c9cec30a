import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from convlab import (
    UsageError,
    build_sieve,
    divisor_count,
    divisors,
    euler_phi,
    factorize,
    mobius,
    sigma_rational,
    sigma_real,
    tabulate,
    von_mangoldt,
)


def test_build_sieve_small_values():
    sv = build_sieve(10)
    assert list(sv.spf[1:11]) == [1, 2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_build_sieve_minimal():
    sv = build_sieve(2)
    assert sv.spf[2] == 2


def test_build_sieve_rejects_tiny_limit():
    with pytest.raises(UsageError):
        build_sieve(1)


def test_sieve_large_prime(sieve_10m):
    assert sieve_10m.spf[9999991] == 9999991
    assert brute.is_prime(9999991)


def test_sieve_invariants_sampled(sieve_small):
    for n in range(2, 2000):
        p = int(sieve_small.spf[n])
        assert n % p == 0
        assert brute.is_prime(p)
    for p in (2, 3, 5, 97, 7919):
        assert sieve_small.spf[p] == p


def test_factorize_examples(sieve_10m):
    assert factorize(sieve_10m, 1).factors == ()
    assert factorize(sieve_10m, 12).factors == ((2, 2), (3, 1))
    assert factorize(sieve_10m, 9699690).factors == (
        (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
    )


def test_factorize_range_errors(sieve_small):
    # the sieve's primes reach every n < (limit + 1)**2
    with pytest.raises(UsageError):
        factorize(sieve_small, 0)
    with pytest.raises(UsageError):
        factorize(sieve_small, 10_001**2)


def test_factorize_past_the_limit_matches_brute():
    # limit 100: trial division by its primes covers (100, 101**2 - 1]
    sv = build_sieve(100)
    top = 101**2 - 1
    cases = (
        list(range(101, 400))
        + [p for p in range(9000, top + 1) if brute.is_prime(p)][:40]  # primes
        + [p * p for p in (11, 47, 97)]  # prime squares
        + [100**2, 97 * 101, 2 * 5003]
        + list(range(top - 50, top + 1))
    )
    for n in cases:
        assert list(factorize(sv, n).factors) == brute.factorize(n), n
    with pytest.raises(UsageError):
        factorize(sv, top + 1)  # 101**2: 101 is past the limit
    with pytest.raises(UsageError):
        factorize(sv, 10**30)


def test_factorize_past_the_limit_scans_nothing_per_call():
    # the primes are found once per sieve; past the limit a call reads them
    # and never spf
    sv = build_sieve(1000)
    primes = sv.primes()
    spf = sv.spf
    object.__setattr__(sv, "spf", None)
    try:
        for n in (999_983, 997**2, 1000**2, 510_510, 1001**2 - 1):
            assert list(factorize(sv, n).factors) == brute.factorize(n), n
        assert sv.primes() is primes
    finally:
        object.__setattr__(sv, "spf", spf)


def test_divisor_count_examples(sieve_small):
    assert divisor_count(factorize(sieve_small, 1)) == 1
    assert divisor_count(factorize(sieve_small, 6)) == 4
    assert divisor_count(factorize(sieve_small, 360)) == 24
    assert divisor_count(factorize(sieve_small, 360)) == len(brute.divisors(360))


def test_divisors_sorted(sieve_small):
    assert divisors(factorize(sieve_small, 60)) == brute.divisors(60)


def test_sigma_real_examples(sieve_small):
    assert sigma_real(factorize(sieve_small, 6), 1.0) == pytest.approx(12.0, rel=1e-14)
    assert sigma_real(factorize(sieve_small, 6), -1.0) == pytest.approx(2.0, rel=1e-14)
    assert sigma_real(factorize(sieve_small, 10), 2.0) == pytest.approx(130.0, rel=1e-14)
    # s = 0 degenerates to the divisor count
    assert sigma_real(factorize(sieve_small, 360), 0.0) == 24.0


def test_sigma_real_matches_enumeration(sieve_small):
    for n in (1, 2, 12, 97, 360, 1024):
        for s in (0.5, 1.7, -0.3, 2.0):
            ref = brute.sigma_float(n, s)
            assert sigma_real(factorize(sieve_small, n), s) == pytest.approx(ref, rel=1e-12)


def test_sigma_real_is_correctly_summed(sieve_small):
    # within 2**-51 of the exact sum: each power d**s is within about an
    # ulp, and math.fsum rounds their sum once
    for n in range(1, 5001):
        ds = brute.divisors(n)
        f = factorize(sieve_small, n)
        for s in (-2, -1, 1, 2, 3):
            exact = sum((Fraction(d) ** s for d in ds), Fraction(0))
            assert abs(Fraction(sigma_real(f, s)) - exact) <= exact / 2**51, (n, s)


def test_sigma_rational_examples(sieve_small):
    assert sigma_rational(factorize(sieve_small, 6), -1) == Fraction(2)
    assert sigma_rational(factorize(sieve_small, 28), 1) == 56
    assert sigma_rational(factorize(sieve_small, 12), -1) == Fraction(7, 3)
    with pytest.raises(UsageError):
        sigma_rational(factorize(sieve_small, 6), -2)


def test_sigma_rational_matches_divisor_sums(sieve_small):
    # ints for k >= 0 and sigma_1(n) / n for k = -1, each equal to the
    # brute divisor sum, so float() and int() of it are unchanged
    for n in range(1, 3001):
        f = factorize(sieve_small, n)
        for k in (-1, 0, 1, 2, 3):
            got, want = sigma_rational(f, k), brute.sigma_int(n, k)
            assert got == want and float(got) == float(want), (n, k)
            assert isinstance(got, Fraction if k == -1 else int), (n, k)


def test_mobius_phi_lambda_examples(sieve_small):
    assert mobius(factorize(sieve_small, 1)) == 1
    assert mobius(factorize(sieve_small, 30)) == -1
    assert mobius(factorize(sieve_small, 12)) == 0
    assert euler_phi(factorize(sieve_small, 1)) == 1
    assert euler_phi(factorize(sieve_small, 12)) == 4
    assert von_mangoldt(factorize(sieve_small, 8)) == pytest.approx(math.log(2))
    assert von_mangoldt(factorize(sieve_small, 6)) == 0.0
    assert von_mangoldt(factorize(sieve_small, 7919)) == pytest.approx(math.log(7919))


def test_phi_of_large_prime(sieve_10m):
    assert euler_phi(factorize(sieve_10m, 9999991)) == 9999990


def test_tabulate_examples(sieve_small):
    assert list(tabulate(sieve_small, "divisor", 6).values[1:]) == [1, 2, 2, 3, 2, 4]
    assert list(tabulate(sieve_small, "mobius", 5).values[1:]) == [1, -1, -1, 0, -1]
    sn = tabulate(sieve_small, "sigma_norm", 4, s=1.0)
    assert list(sn.values[1:]) == pytest.approx([1.0, 1.5, 4 / 3, 1.75], rel=1e-14)


def test_tabulate_rejects_overlong(sieve_small):
    with pytest.raises(UsageError):
        tabulate(sieve_small, "mobius", 10_001)
    with pytest.raises(UsageError):
        tabulate(sieve_small, "no_such_kind", 10)


def test_float_sigma_past_float64_is_rejected(sieve_small):
    # s log2 N <= 1000 leaves 2**24 of headroom for d(n): at N = 2**10,
    # s = 99.5 builds a finite table and s = 100.5 is refused before any
    # allocation, for sigma and for sigma_norm's exponent -s alike
    assert np.isfinite(tabulate(sieve_small, "sigma", 2**10, s=99.5).values).all()
    with pytest.raises(UsageError, match="overflow float64"):
        tabulate(sieve_small, "sigma", 2**10, s=100.5)
    with pytest.raises(UsageError, match="overflow float64"):
        tabulate(sieve_small, "sigma_norm", 2**10, s=-100.5)


def test_tabulate_matches_pointwise(sieve_small):
    # every kind agrees with per-n evaluation on [1, 10^4]
    N = 10_000
    facts = [None] + [factorize(sieve_small, n) for n in range(1, N + 1)]
    dt = tabulate(sieve_small, "divisor", N)
    mt = tabulate(sieve_small, "mobius", N)
    pt = tabulate(sieve_small, "phi", N)
    lt = tabulate(sieve_small, "lambda", N)
    s2 = tabulate(sieve_small, "sigma", N, s=2)
    sr = tabulate(sieve_small, "sigma", N, s=0.5)
    sn = tabulate(sieve_small, "sigma_norm", N, s=1.0)
    assert s2.is_integer and not sr.is_integer
    for n in range(1, N + 1):
        f = facts[n]
        assert dt.values[n] == divisor_count(f)
        assert mt.values[n] == mobius(f)
        assert pt.values[n] == euler_phi(f)
        assert lt.values[n] == pytest.approx(von_mangoldt(f), abs=1e-12)
        assert s2.values[n] == sigma_rational(f, 2)
        assert sr.values[n] == pytest.approx(sigma_real(f, 0.5), rel=1e-12)
        assert sn.values[n] == pytest.approx(
            float(sigma_rational(f, 1)) / n, rel=1e-12
        )


@pytest.mark.parametrize(
    "limit", [2, 3, 4, 2**21 - 1, 2**21, 2**21 + 1, 2**21 + 12345, 1451**2]
)
def test_tabulate_bit_identical_to_bulk_oracles(limit):
    # crosses the 2**20 block cap of the spf-derived tables, of the sieve's
    # segments and of the hyperbola blocks at a limit that is no power of
    # two, and covers the smallest sieves; at 1451**2 the last entry of the
    # last segment is a prime square.  At 2**21 - 1, 2**21 and 2**21 + 1 the
    # cofactors N//2 and N//2 + 1 of the top block sit on or next to the
    # block edge 2**20
    sv = build_sieve(limit)
    expected_spf = brute.spf_table(limit)
    assert sv.spf.dtype == expected_spf.dtype
    assert np.array_equal(sv.spf, expected_spf)
    cases = [
        ("divisor", None, brute.divisor_table(limit)),
        ("mobius", None, brute.mobius_table(limit)),
        ("phi", None, brute.phi_table(limit).astype(sv.spf.dtype)),
        ("lambda", None, brute.lambda_table(limit)),
        ("sigma", 1, brute.sigma_table(limit, 1)),
        ("sigma", 2, brute.sigma_table(limit, 2)),
        ("sigma", 0.5, brute.sigma_table(limit, 0.5)),
        ("sigma_norm", 0.5, brute.sigma_table(limit, -0.5)),
        ("sigma", 0, brute.sigma_table(limit, 0)),
        ("sigma", 1.5, brute.sigma_table(limit, 1.5)),
        ("sigma_norm", 2, brute.sigma_table(limit, -2.0)),
    ]
    # the hyperbola kinds never read the sieve: one to isqrt(limit), all
    # the CLI builds for them, gives the same bytes
    root = build_sieve(max(math.isqrt(limit), 2))
    for kind, s, expected in cases:
        values = tabulate(sv, kind, limit, s=s).values
        assert values.dtype == expected.dtype, (kind, s)
        assert np.array_equal(values, expected), (kind, s)
        if kind not in ("mobius", "phi", "lambda"):
            assert tabulate(root, kind, limit, s=s).values.tobytes() == values.tobytes(), (kind, s)


def test_phi_is_spf_dtype_and_exact(sieve_1m):
    # phi(n) <= n, so spf's int32 holds it below 2**31
    expected = brute.phi_table(sieve_1m.limit)
    for phi in (
        sieve_1m.upto("phi", sieve_1m.limit),
        sieve_1m.upto("phi", 777),
        tabulate(sieve_1m, "phi", 5000).values,
    ):
        assert phi.dtype == np.int32
        assert np.array_equal(phi, expected[: len(phi)])


def test_tables_agree_across_sieve_limits(sieve_small, sieve_1m):
    # mu, phi and Lambda depend on nothing but n, whatever the sieve's limit
    N = sieve_small.limit
    for kind in ("mobius", "phi", "lambda"):
        small = tabulate(sieve_small, kind, N).values
        large = tabulate(sieve_1m, kind, sieve_1m.limit).values
        assert np.array_equal(small, large[: N + 1]), kind


def test_sieve_tables_are_read_only(sieve_small):
    for name in ("mobius", "phi"):
        table = sieve_small.upto(name, sieve_small.limit)
        assert len(table) == sieve_small.limit + 1
        with pytest.raises(ValueError):
            table[1] = 0


def test_tabulate_tables_reject_writes(sieve_small):
    for kind, s in (("divisor", None), ("sigma", 1), ("sigma", 0.5), ("sigma_norm", 0.5),
                    ("mobius", None), ("phi", None), ("lambda", None)):
        table = tabulate(sieve_small, kind, 5000, s=s)
        assert not table.values.flags.writeable, kind
        with pytest.raises(ValueError):
            table.values[1] = 0
        with pytest.raises(ValueError):
            table.values[1:] += 1


def test_sigma_table_peak_memory(sieve_10m):
    # the table starts as n**s and reads its cofactors from itself, so
    # beside the result only one block's temporaries are live: about 1.06x
    # the result at 2**23 (1.625x with powers j**s to N//2 beside it)
    for kind, s in (("sigma", 1), ("sigma_norm", 0.5)):
        tracemalloc.start()
        try:
            table = tabulate(sieve_10m, kind, 2**23, s=s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * table.values.nbytes, (kind, peak / table.values.nbytes)


def test_tabulate_mobius_phi_are_sieve_views(sieve_small):
    # no copy: the table's values are the sieve's own read-only memory
    for kind in ("mobius", "phi"):
        table = sieve_small.upto(kind, sieve_small.limit)
        values = tabulate(sieve_small, kind, 5000).values
        assert not values.flags.writeable
        assert np.shares_memory(values, table)
        with pytest.raises(ValueError):
            values[1] = 0


def test_upto_prefix_matches_full_tables():
    sv = build_sieve(10_000)
    prefixes = {name: sv.upto(name, 777) for name in ("mobius", "phi")}
    # one cache entry per name, no longer than asked for
    assert {k: len(v) for k, v in sv.memo.items()} == {"mobius": 778, "phi": 778}
    for name in ("mobius", "phi"):
        full = sv.upto(name, sv.limit)
        assert prefixes[name].dtype == full.dtype
        assert not prefixes[name].flags.writeable
        assert np.array_equal(prefixes[name], full[:778])
        # once the full table is built it is sliced, not a second prefix
        assert np.shares_memory(sv.upto(name, 500), full)
    assert {k: len(v) for k, v in sv.memo.items()} == {"mobius": 10_001, "phi": 10_001}
    with pytest.raises(UsageError):
        sv.upto("phi", 10_001)


def test_sigma_minus_one_identity(sieve_small):
    # sigma_{-1}(n) * n = sigma_1(n) exactly in rational arithmetic
    for n in range(1, 10_001):
        f = factorize(sieve_small, n)
        assert sigma_rational(f, -1) * n == sigma_rational(f, 1)


def test_mobius_divisor_sum(sieve_small):
    # sum_{d|n} mu(d) = [n == 1] on [1, 10^4]
    N = 10_000
    mu = tabulate(sieve_small, "mobius", N).values
    acc = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        acc[d::d] += mu[d]
    assert acc[1] == 1
    assert not acc[2:].any()


def test_multiplicativity_tables(sieve_1m):
    # d, sigma_2, mu, phi on coprime pairs a, b <= 1000 via outer products
    L = 1000
    idx = np.arange(1, L + 1)
    coprime = np.gcd.outer(idx, idx) == 1
    prod = np.outer(idx, idx)
    for kind, s in (("divisor", None), ("sigma", 2), ("mobius", None), ("phi", None)):
        small = tabulate(sieve_1m, kind, L, s=s).values
        big = tabulate(sieve_1m, kind, L * L, s=s).values
        lhs = big[prod[coprime]]
        rhs = np.outer(small[1:], small[1:])[coprime]
        assert (lhs == rhs).all(), kind


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=9_999))
def test_factorize_roundtrip(n):
    sv = _hyp_sieve()
    f = factorize(sv, n)
    prod = 1
    for p, e in f.factors:
        assert e >= 1
        assert brute.is_prime(p)
        prod *= p**e
    assert prod == n
    primes = [p for p, _ in f.factors]
    assert primes == sorted(primes)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=999),
    st.integers(min_value=1, max_value=999),
)
def test_sigma_multiplicative_on_coprime(a, b):
    if math.gcd(a, b) != 1:
        return
    sv = _hyp_sieve()
    fa, fb, fab = factorize(sv, a), factorize(sv, b), factorize(sv, a * b)
    assert sigma_rational(fa, 1) * sigma_rational(fb, 1) == sigma_rational(fab, 1)
    assert mobius(fa) * mobius(fb) == mobius(fab)
    assert euler_phi(fa) * euler_phi(fb) == euler_phi(fab)


_HYP_SIEVE = None


def _hyp_sieve():
    global _HYP_SIEVE
    if _HYP_SIEVE is None:
        _HYP_SIEVE = build_sieve(1_000_000)
    return _HYP_SIEVE
