import math
import re
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from convlab import (
    ArithTable,
    ConvolutionSpec,
    UsageError,
    additive_convolution,
    build_sieve,
    divisors,
    factorize,
    lambda_convolution,
    mobius,
    sigma_rational,
    sigma_real,
    tabulate,
)
from convlab import arith
from convlab.arith import (
    HARDY, MOBIUS, PHI, SINGULAR, _SEGMENT, _halving_blocks, _sigma_dtype, walk,
)
from convlab.convolution import _prime_logs


def _spf(sieve, n_max):
    # spf on 0..n_max as the walks read it (spf(0) = 0 and spf(1) = 1):
    # 2 and 3 from slices, and the n = 1 and 5 mod 6 of each block from
    # its views of the runs, copied out before the runs are sieved anew
    spf = np.arange(n_max + 1, dtype=arith._spf_dtype(n_max))
    spf[3::3] = 3
    spf[2::2] = 2
    for lo, hi, runs in arith._spf_blocks(sieve.primes(math.isqrt(n_max)), n_max):
        for r, run in zip((1, 5), runs):
            spf[lo + (r - lo) % 6 : hi : 6] = run
    return spf


def _cached(sieve):
    # the lengths of the tables in memo, beside the primes the walks read
    return {k: len(v) for k, v in sieve.memo.items() if k != "primes"}


def _lambda(sieve, N):
    # Lambda on 0..N as lambda_convolution reads it: _prime_logs at every
    # prime power that prime_powers marks, and 0 elsewhere
    marked, powers, bases = arith.prime_powers(sieve, N)
    q = np.flatnonzero(marked)
    out = np.zeros(N + 1)
    out[q] = _prime_logs(q, powers, bases)
    return out


def test_build_sieve_small_values():
    sv = build_sieve(10)
    assert list(_spf(sv, 10)[1:11]) == [1, 2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_build_sieve_minimal():
    sv = build_sieve(2)
    assert _spf(sv, 2)[2] == 2


def test_build_sieve_rejects_tiny_limit():
    with pytest.raises(UsageError):
        build_sieve(1)


def test_sieve_large_prime(sieve_10m):
    assert _spf(sieve_10m, 9999991)[9999991] == 9999991
    assert brute.is_prime(9999991)


def test_sieve_invariants_sampled(sieve_small):
    spf = _spf(sieve_small, 7919)
    for n in range(2, 2000):
        p = int(spf[n])
        assert n % p == 0
        assert brute.is_prime(p)
    for p in (2, 3, 5, 97, 7919):
        assert spf[p] == p


# every n_max to 64, where the runs are shorter than a period of the
# small primes, both sides of the first two run edges, where a walk from 2
# sieves its second and third run (the first block past 6 * 2**17 + 6 and
# past 12 * 2**17 + 6), and a limit past 2**21 that ends inside a run
_RUN_NS = list(range(65)) + sorted({k * 6 * arith._RUN + d for k in (1, 2) for d in range(-7, 8)}
                                   | {2**21 + 5})


@pytest.mark.parametrize("n_max", _RUN_NS)
def test_spf_runs_hold_a_plain_sieve_at_the_n_prime_to_6(n_max):
    # each block's two views hold the spf of exactly its n = 1 and its
    # n = 5 mod 6, the blocks tile start..n_max, from 2 and from above
    # n_max / 2, whose runs start at a lo not divisible by 6, and the
    # primes and prime powers marked from the runs are those of a plain
    # sieve
    sv = build_sieve(max(math.isqrt(n_max), 2))
    expected = brute.spf_table(max(n_max, 2))
    for start in sorted({2, max(n_max // 2 + 1, 2)}):
        at = start
        for lo, hi, (one, five) in arith._spf_blocks(sv.primes(math.isqrt(n_max)), n_max, start):
            assert lo == at and hi > lo
            assert np.array_equal(one, expected[lo + (1 - lo) % 6 : hi : 6]), (lo, hi)
            assert np.array_equal(five, expected[lo + (5 - lo) % 6 : hi : 6]), (lo, hi)
            at = hi
        assert at == max(n_max + 1, start)
    primes = brute.primes_upto(n_max)
    assert np.array_equal(arith._sieved_primes(n_max), primes)
    marked, powers, bases = arith.prime_powers(sv, n_max)
    assert np.array_equal(marked, brute.lambda_table(n_max) > 0)
    root = primes[primes <= math.isqrt(n_max)].tolist()
    higher = sorted((p**e, p) for p in root for e in range(2, 64) if p**e <= n_max)
    assert powers.tolist() == [q for q, _ in higher]
    assert bases.tolist() == [p for _, p in higher]


def test_prime_counts_to_ten_million():
    # pi(10**6) = 78498 and pi(10**7) = 664579, the last prime 9999991
    primes = build_sieve(10**7).primes(10**7)
    assert len(primes) == 664_579 and primes[-1] == 9_999_991
    assert np.searchsorted(primes, 10**6, side="right") == 78_498


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
    # the primes are sieved once, to the root of the largest n asked; a
    # call reads them and sieves nothing
    sv = build_sieve(1000)
    assert list(factorize(sv, 1001**2 - 1).factors) == brute.factorize(1001**2 - 1)
    found = sv.memo["primes"]
    for n in (999_983, 997**2, 1000**2, 510_510, 12, 1):
        assert list(factorize(sv, n).factors) == brute.factorize(n), n
    assert sv.memo["primes"] is found and found[0] == 1000


def test_primes_are_sieved_on_demand_to_twice_the_last_top():
    # build_sieve sieves nothing; the primes grow to the largest top asked,
    # and at least twice the last, up to the limit
    sv = build_sieve(10_000)
    assert sv.memo == {}
    oracle = [p for p in range(10_001) if brute.is_prime(p)]
    for top, found in ((100, 100), (50, 100), (101, 200), (9000, 9000), (9001, 10_000),
                       (10_000, 10_000), (0, 10_000), (2, 10_000)):
        primes = sv.primes(top)
        assert primes.dtype == np.int64 and not primes.flags.writeable
        assert primes.tolist() == [p for p in oracle if p <= top], top
        assert sv.memo["primes"][0] == found, top
    for bad in (-1, 10_001, 5.0, "5"):
        with pytest.raises(UsageError, match="top must"):
            sv.primes(bad)


def test_primes_are_cut_from_one_array_at_every_top():
    # memo holds the primes found once, one array, and primes(top) is a
    # view of its prefix cut right at top, at the edges of it as well
    sv = build_sieve(1000)
    for top in range(301):
        assert sv.primes(top).tolist() == brute.primes_upto(top).tolist(), top
    sv = build_sieve(1000)
    sv.primes(100)
    sv.primes(101)
    found = sv.memo["primes"][0]
    assert found == 200
    for top in (found - 1, found, found + 1):
        cut = sv.primes(top)
        assert cut.tolist() == brute.primes_upto(top).tolist(), top
        assert np.shares_memory(cut, sv.memo["primes"][1]), top


def test_primes_to_ten_million_hold_one_array():
    # the 664 579 primes are 5.3 MB as int64; a Python list of them
    # beside the array held about 30 MB in all
    tracemalloc.start()
    try:
        sv = build_sieve(10**7)
        primes = sv.primes(10**7)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(primes) == 664_579
    assert held < 8 * 2**20, held


def test_divisor_count_examples(sieve_small):
    # d(n) of one n is sigma_0(n), prod (e + 1)
    for n, d in ((1, 1), (6, 4), (360, 24)):
        assert sigma_rational(factorize(sieve_small, n), 0) == d == brute.divisor_count(n)


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


def test_sigma_rational_takes_only_integer_k(sieve_small):
    # a float k, even an integral one, is refused: floor division of
    # float powers gave sigma_2.5(12) = 608.0 (it is 641.2576...) and the
    # float 210.0 for k = 2.0; numpy integers pass, as for as_index
    f = factorize(sieve_small, 12)
    for k in (2.5, 0.5, 2.0, -1.0, "2", None):
        with pytest.raises(UsageError, match="sigma_rational needs an integer k"):
            sigma_rational(f, k)
    assert sigma_rational(f, np.int64(2)) == 210 and type(sigma_rational(f, 2)) is int
    with pytest.raises(UsageError, match=r"sigma_rational supports k >= -1, got -2"):
        sigma_rational(f, -2)


def test_integers_past_float64_are_usage_errors(sieve_small):
    # as_real refuses a Python int that float() would overflow, so no
    # caller converts one into a raw OverflowError
    from convlab import (
        envelope_ramanujan, expansion_adaptive, main_term_sigma_full, main_term_sigma_norm,
        sigma_provider,
    )

    huge = 10**400
    calls = {
        "s": [lambda: tabulate(sieve_small, "sigma", 10, s=huge),
              lambda: tabulate(sieve_small, "sigma_norm", 10, s=huge),
              lambda: tabulate(sieve_small, "sigma_norm", 10, s=-huge),
              lambda: sigma_provider(huge),
              lambda: sigma_real(factorize(sieve_small, 12), huge)],
        "alpha": [lambda: main_term_sigma_norm(sieve_small, huge, 1.0, 12, 3.0),
                  lambda: main_term_sigma_full(sieve_small, huge, 1.0, 12)],
        "M": [lambda: envelope_ramanujan(0.5, huge)],
        "tol": [lambda: expansion_adaptive(sieve_small, sigma_provider(1.0), 12, tol=huge)],
    }
    for name, fs in calls.items():
        for call in fs:
            with pytest.raises(UsageError, match=rf"^{name} must lie in float64's range"):
                call()
    assert arith.as_real("s", 2**1000) == 2**1000  # within range, unchanged


def test_arith_table_takes_one_axis_of_integers_or_reals():
    for values in ([0, 1, 2], np.zeros((3, 2)), np.zeros(3, complex), np.zeros(3, object),
                   np.zeros(3, bool), np.float64(1.0)):
        with pytest.raises(UsageError, match="table values must be a 1-D integer or real array"):
            arith.ArithTable("custom", values)
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.float32, np.float64):
        assert arith.ArithTable("custom", np.zeros(4, dtype)).N == 3


def test_mobius_phi_lambda_examples(sieve_small):
    assert mobius(factorize(sieve_small, 1)) == 1
    assert mobius(factorize(sieve_small, 30)) == -1
    assert mobius(factorize(sieve_small, 12)) == 0
    # phi of one n comes from its table, Lambda from the prime-power logs
    phi = tabulate(sieve_small, "phi", 12).values
    lam = _lambda(sieve_small, 7919)
    assert phi[1] == brute.phi(1) == 1
    assert phi[12] == brute.phi(12) == 4
    assert lam[8] == brute.von_mangoldt(8) == pytest.approx(math.log(2))
    assert lam[6] == brute.von_mangoldt(6) == 0.0
    assert lam[7919] == brute.von_mangoldt(7919) == pytest.approx(math.log(7919))


def test_phi_of_large_prime():
    # from a sieve to isqrt(9999991), as factorize reaches it
    assert tabulate(build_sieve(3162), "phi", 9999991).values[9999991] == 9999990


def test_tabulate_examples(sieve_small):
    assert list(tabulate(sieve_small, "divisor", 6).values[1:]) == [1, 2, 2, 3, 2, 4]
    assert list(tabulate(sieve_small, "mobius", 5).values[1:]) == [1, -1, -1, 0, -1]
    sn = tabulate(sieve_small, "sigma_norm", 4, s=1.0)
    assert list(sn.values[1:]) == pytest.approx([1.0, 1.5, 4 / 3, 1.75], rel=1e-14)


def test_tabulate_rejects_overlong(sieve_small):
    # mu reads the sieve's primes to isqrt(N), so it reaches (limit + 1)**2 - 1
    with pytest.raises(UsageError):
        tabulate(sieve_small, "mobius", 10_001**2)
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


def test_sigma_real_past_float64_is_rejected(sieve_small):
    # sigma_real takes tabulate's rule for the powers of one n, where
    # float(d)**s raised a raw OverflowError, and so does the full-sum
    # main term that reads sigma_{a+b+1}(N) from it; s log2 N = 953 at
    # a = b = 20 and N = 10**7 still passes
    from convlab import main_term_sigma_full

    with pytest.raises(UsageError, match="overflow float64"):
        sigma_real(factorize(sieve_small, 10**6), 200.0)
    sv = build_sieve(4000)
    with pytest.raises(UsageError, match="overflow float64"):
        main_term_sigma_full(sv, 24.0, 24.0, 10**7)
    assert main_term_sigma_full(sv, 20.0, 20.0, 10**7)[0] == 1.769378407730722e+274


def test_tabulate_matches_pointwise(sieve_small):
    # every kind agrees with per-n evaluation on [1, 10^4]
    N = 10_000
    facts = [None] + [factorize(sieve_small, n) for n in range(1, N + 1)]
    dt = tabulate(sieve_small, "divisor", N)
    mt = tabulate(sieve_small, "mobius", N)
    pt = tabulate(sieve_small, "phi", N)
    lt = _lambda(sieve_small, N)
    s2 = tabulate(sieve_small, "sigma", N, s=2)
    sr = tabulate(sieve_small, "sigma", N, s=0.5)
    sn = tabulate(sieve_small, "sigma_norm", N, s=1.0)
    assert s2.is_integer and not sr.is_integer
    phi = brute.phi_table(N)
    for n in range(1, N + 1):
        f = facts[n]
        assert dt.values[n] == sigma_rational(f, 0)
        assert mt.values[n] == mobius(f)
        assert pt.values[n] == phi[n]
        assert lt[n] == pytest.approx(brute.von_mangoldt(n), abs=1e-12)
        assert s2.values[n] == sigma_rational(f, 2)
        assert sr.values[n] == pytest.approx(sigma_real(f, 0.5), rel=1e-12)
        assert sn.values[n] == pytest.approx(
            float(sigma_rational(f, 1)) / n, rel=1e-12
        )


# cross the 2**20 block cap of the spf-derived tables and the 2**18 walk
# blocks at a limit that is no power of two, end on, before and after
# 210 = 2 * 3 * 5 * 7 and on, before and after the first block edge, and
# cover the smallest sieves; at 1451**2 the last entry of the last run
# is a prime square.  At 2**21 - 1, 2**21 and
# 2**21 + 1 the cofactors N//2 and N//2 + 1 of the top block sit on or
# next to the block edge 2**20
_ORACLE_LIMITS = [2, 3, 4, 209, 210, 211, 2**18 - 1, 2**18, 2**18 + 1,
                  2**21 - 1, 2**21, 2**21 + 1, 2**21 + 12345, 1451**2]

# (kind, s) of the real sigma_t tables, t = s for sigma and -s for sigma_norm
_REAL_KINDS = [("sigma", 0.5), ("sigma_norm", 0.5), ("sigma", 1.5), ("sigma_norm", 2)]


@pytest.mark.parametrize("limit", _ORACLE_LIMITS)
def test_tabulate_bit_identical_to_bulk_oracles(limit):
    # the exact tables against the bulk oracles, byte for byte; the real
    # sigma tables are held to an ulp bound by the test below
    sv = build_sieve(limit)
    expected_spf = brute.spf_table(limit)
    spf = _spf(sv, limit)
    assert spf.dtype == expected_spf.dtype
    assert np.array_equal(spf, expected_spf)
    cases = [
        ("divisor", None, brute.divisor_table(limit)),
        ("mobius", None, brute.mobius_table(limit)),
        ("phi", None, brute.phi_table(limit).astype(expected_spf.dtype)),
        ("sigma", 1, brute.sigma_table(limit, 1)),
        ("sigma", 2, brute.sigma_table(limit, 2)),
        ("sigma", 0, brute.sigma_table(limit, 0)),
    ]
    for kind, s, expected in cases:
        values = tabulate(sv, kind, limit, s=s).values
        assert values.dtype == expected.dtype, (kind, s)
        assert np.array_equal(values, expected), (kind, s)
    # every kind reads only the sieve's primes to isqrt(limit): one to
    # isqrt(limit), all the CLI builds, gives the bytes of the sieve to
    # limit
    root = build_sieve(max(math.isqrt(limit), 2))
    for kind, s in [case[:2] for case in cases] + _REAL_KINDS:
        values = tabulate(sv, kind, limit, s=s).values
        assert tabulate(root, kind, limit, s=s).values.tobytes() == values.tobytes(), (kind, s)


_LONGDOUBLE_TOP = 2**18 + 1


@lru_cache(maxsize=None)
def _longdouble_sigma(t):
    return brute.sigma_longdouble(_LONGDOUBLE_TOP, t)


def _ulps(values, ref):
    # |values - ref| in units of the float64 spacing at ref
    ref = np.asarray(ref, dtype=np.longdouble)
    return np.abs(values.astype(np.longdouble) - ref) / np.spacing(ref.astype(np.float64))


@pytest.mark.parametrize("limit", _ORACLE_LIMITS)
def test_real_sigma_tables_within_ulp_of_an_exact_oracle(limit):
    # sigma_t for a real t from the spf walk, f(p m) = f(m) + p**t (f(m) -
    # f(m / p)) where p | m, against sums carried in extended precision:
    # every entry up to 2**18 + 1, and above it a seeded sample of 10**4 n
    # against math.fsum over their divisors (a longdouble table to 2*10**6
    # takes seconds).  At 9 990 176 the walk measured 9.1, 6.2, 18.0 and
    # 17.3 ulp for t = -0.5, -2, 0.5 and 1.5, the hyperbola build it
    # replaced 9.9, 12.4, 10.2 and 11.9
    sv = build_sieve(max(math.isqrt(limit), 2))
    if limit <= _LONGDOUBLE_TOP:
        n = np.arange(1, limit + 1)
    else:
        rng = np.random.default_rng(limit)
        n = np.unique(np.concatenate([rng.integers(1, limit + 1, 10**4), [limit]]))
    for kind, s in _REAL_KINDS:
        t = s if kind == "sigma" else -s
        values = tabulate(sv, kind, limit, s=s).values
        assert values.dtype == np.float64
        if limit <= _LONGDOUBLE_TOP:
            ref = _longdouble_sigma(t)[1 : limit + 1]
        else:
            ref = [brute.sigma_fsum(int(i), t) for i in n]
        err = _ulps(values[n], ref)
        assert err.max() <= (12 if t < 0 else 24), (kind, s, n[np.argmax(err)], err.max())


@pytest.mark.parametrize("N", [2**17, 2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 7])
def test_real_sigma_table_is_a_prefix_of_a_longer_one(N):
    # a real table to N is the first N + 1 entries of one to 2N + 1: the
    # last block of the shorter walk ends inside a block of the longer one
    sv = build_sieve(math.isqrt(2 * N + 1))
    for kind, s in _REAL_KINDS:
        short = tabulate(sv, kind, N, s=s).values
        long = tabulate(sv, kind, 2 * N + 1, s=s).values
        assert short.tobytes() == long[: N + 1].tobytes(), (kind, s, N)


@pytest.mark.parametrize("N, dtype", [
    (2**31 - 1, np.int16), (2**31, np.int32), (2**40, np.int32),
])
def test_divisor_dtype_rule_at_2_31(N, dtype):
    # d(n) < 1750 below 2**31 (Nicolas-Robin), so d and sigma(0) are int16
    # there; the rule alone, no table this size is built
    assert _sigma_dtype(N, 0) == dtype == brute.exact_sigma_dtype(N, 0)


def test_sigma_2_dtype_crosses_to_int64_where_bound_reaches_2_31():
    # N**2 (2 + ln N) crosses 2**31 near N = 13650: the last int32 table
    # and the first int64 one both hold the exact values
    top = max(N for N in range(13_000, 14_000) if _sigma_dtype(N, 2) == np.int32)
    assert 13_600 < top < 13_700
    assert top**2 * (2 + math.log(top)) < 2**31 <= (top + 1) ** 2 * (2 + math.log(top + 1))
    sv = build_sieve(math.isqrt(top + 1))
    for N, dtype in ((top, np.int32), (top + 1, np.int64)):
        values = tabulate(sv, "sigma", N, s=2).values
        expected = brute.sigma_table(N, 2)
        assert values.dtype == expected.dtype == dtype
        assert np.array_equal(values, expected)


def test_sigma_3_table_is_refused_where_N_cubed_reaches_2_61():
    # 1321122**3 < 2**61 <= 1321123**3: the last int64 table is built,
    # and the next is refused before any walk
    sv = build_sieve(1150)
    assert tabulate(sv, "sigma", 1_321_122, s=3).values.dtype == np.int64
    with pytest.raises(UsageError, match="would overflow 64-bit accumulation"):
        tabulate(sv, "sigma", 1_321_123, s=3)


@pytest.mark.parametrize("r", [2, 3, 10, 31])
def test_lambda_reaches_the_square_of_the_sieve(r):
    # Lambda reads the sieve's primes to isqrt(N - 1), as factorize does,
    # so a Lambda sum over 1..N - 1 reaches N = (r + 1)**2
    sieve = build_sieve(r)
    N = (r + 1) ** 2
    lam = ArithTable("lambda", brute.lambda_table(N))
    spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
    got = lambda_convolution(sieve, spec)
    assert np.float64(got).tobytes() == np.float64(additive_convolution(lam, lam, spec)).tobytes()
    with pytest.raises(UsageError, match=rf"n_max must lie in \[0, {N - 1}\], got {N}"):
        lambda_convolution(sieve, ConvolutionSpec(N=N + 1, M=float(N + 1), boundary="half_open"))


@pytest.mark.parametrize("limit", _ORACLE_LIMITS)
def test_prime_logs_bit_identical_to_the_lambda_oracle(limit):
    # Lambda at every prime power to limit, across the block edges of the
    # oracle limits, byte for byte, and the same from a sieve to
    # isqrt(limit), all the CLI builds
    expected = brute.lambda_table(limit)
    values = _lambda(build_sieve(limit), limit)
    assert values.tobytes() == expected.tobytes()
    assert _lambda(build_sieve(max(math.isqrt(limit), 2)), limit).tobytes() == values.tobytes()


def test_phi_is_spf_dtype_and_exact(sieve_1m):
    # phi(n) <= n, so spf's int32 holds it below 2**31
    expected = brute.phi_table(sieve_1m.limit)
    for phi in (
        sieve_1m.upto(PHI, sieve_1m.limit),
        sieve_1m.upto(PHI, 777),
        tabulate(sieve_1m, "phi", 5000).values,
    ):
        assert phi.dtype == np.int32
        assert np.array_equal(phi, expected[: len(phi)])


def test_tables_agree_across_sieve_limits(sieve_small, sieve_1m):
    # mu, phi and Lambda depend on nothing but n, whatever the sieve's limit
    N = sieve_small.limit
    for kind in ("mobius", "phi"):
        small = tabulate(sieve_small, kind, N).values
        large = tabulate(sieve_1m, kind, sieve_1m.limit).values
        assert np.array_equal(small, large[: N + 1]), kind
    assert np.array_equal(_lambda(sieve_small, N), _lambda(sieve_1m, sieve_1m.limit)[: N + 1])


def test_sieve_tables_are_read_only(sieve_small):
    for w in (MOBIUS, PHI):
        table = sieve_small.upto(w, sieve_small.limit)
        assert len(table) == sieve_small.limit + 1
        with pytest.raises(ValueError):
            table[1] = 0


def test_tabulate_tables_reject_writes(sieve_small):
    for kind, s in (("divisor", None), ("sigma", 1), ("sigma", 0.5), ("sigma_norm", 0.5),
                    ("mobius", None), ("phi", None)):
        table = tabulate(sieve_small, kind, 5000, s=s)
        assert not table.values.flags.writeable, kind
        with pytest.raises(ValueError):
            table.values[1] = 0
        with pytest.raises(ValueError):
            table.values[1:] += 1


def test_sigma_table_peak_memory(sieve_10m):
    # beside the result only one part's temporaries are live, and the
    # walk reads the sieve's own spf in slices: sigma(1) and
    # sigma_norm(0.5) at 2**23, both walked from spf
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
        table = sieve_small.upto(walk(kind), sieve_small.limit)
        values = tabulate(sieve_small, kind, 5000).values
        assert not values.flags.writeable
        assert np.shares_memory(values, table)
        with pytest.raises(ValueError):
            values[1] = 0


def test_upto_prefix_matches_full_tables():
    sv = build_sieve(10_000)
    prefixes = {w: sv.upto(w, 777) for w in (MOBIUS, PHI)}
    # one cache entry per name, no longer than asked for
    assert _cached(sv) == {"mobius": 778, "phi": 778}
    for w in (MOBIUS, PHI):
        full = sv.upto(w, sv.limit)
        assert prefixes[w].dtype == full.dtype
        assert not prefixes[w].flags.writeable
        assert np.array_equal(prefixes[w], full[:778])
        # once the full table is built it is sliced, not a second prefix
        assert np.shares_memory(sv.upto(w, 500), full)
    assert _cached(sv) == {"mobius": 10_001, "phi": 10_001}
    # mu and phi sieve their own spf runs from the primes to isqrt(R)
    with pytest.raises(UsageError):
        sv.upto(PHI, 10_001**2)
    small = build_sieve(30)
    for w, oracle in ((MOBIUS, brute.mobius_table), (PHI, brute.phi_table)):
        assert np.array_equal(small.upto(w, 31**2 - 1), oracle(31**2 - 1)), w.name


# R on both sides of every edge of mu and phi's halving blocks to 3 * 2**18,
# and around the first edge of the spf runs: a walk to R sieves a second
# run from R = 6 * 2**17 + 6 = 3 * 2**18 + 6 on
_WALK_RS = sorted({R for lo, _ in _halving_blocks(3 * _SEGMENT, _SEGMENT)
                   for R in (lo - 1, lo) if R >= 1}
                  | {6 * arith._RUN + d for d in range(-7, 8)})


def test_prepare_walks_once_for_mu_and_phi_byte_identical_to_their_own_walks(monkeypatch):
    calls = []
    sieve_runs = arith._sieve_runs
    monkeypatch.setattr(arith, "_sieve_runs", lambda *a: calls.append(a[1]) or sieve_runs(*a))
    for R in _WALK_RS:
        alone = build_sieve(math.isqrt(R) + 2)
        alone.primes(math.isqrt(R))
        del calls[:]  # finding the primes sieves runs too
        own = {w: alone.upto(w, R) for w in (MOBIUS, PHI)}
        one_walk = len(calls) // 2
        assert calls[:one_walk] == calls[one_walk:]
        for walks in ((PHI, MOBIUS), (MOBIUS, PHI)):
            sv = build_sieve(math.isqrt(R) + 2)
            sv.primes(math.isqrt(R))
            del calls[:]
            sv.prepare(walks, R)
            assert len(calls) == one_walk, (R, walks)
            for w, table in own.items():
                got = sv.upto(w, R)
                assert not got.flags.writeable and np.shares_memory(got, sv.memo[w.name])
                assert got.dtype == table.dtype and got.tobytes() == table.tobytes(), (R, w)
                assert np.shares_memory(sv.upto(w, R // 2), got)
            sv.prepare(walks, R)
            assert len(calls) == one_walk  # nothing walked again
    assert one_walk > 1  # the last R sieves more than one run


@pytest.mark.parametrize("N", [2, 3, 1000, 262_147, 1_000_003])
def test_streamed_blocks_are_slices_of_the_whole_tables(N):
    # the walk that holds its tables to held passes each entry above
    # through one buffer per table, in ascending blocks of _SEGMENT but
    # the first and the last, with the bytes of the tables held whole,
    # whether the sieve reaches isqrt(N) or N
    walks = [walk("divisor"), walk("sigma", 1), walk("sigma", -0.5), MOBIUS, PHI]
    for sieve in (build_sieve(max(math.isqrt(N), 2)), build_sieve(max(N, 2))):
        whole, _ = sieve.stream(walks, N, N)
        for held in sorted({N // 2, N // 2 + 1, N - 1, N} & set(range(N // 2, N + 1))):
            low, blocks = sieve.stream(walks, N, held)
            assert [t.tobytes() for t in low] == [t[: held + 1].tobytes() for t in whole]
            start, sizes = held + 1, []
            for lo, views in blocks:
                assert lo == start
                for table, view in zip(whole, views):
                    assert view.tobytes() == table[lo : lo + len(view)].tobytes(), (held, lo)
                sizes.append(len(views[0]))
                start += sizes[-1]
            assert start == N + 1 and all(size == _SEGMENT for size in sizes[1:-1])
    with pytest.raises(UsageError, match="held"):
        sieve.stream(walks, N, N // 2 - 1)
    with pytest.raises(UsageError, match="held"):
        sieve.stream(walks, N, N + 1)


def test_prepare_resumes_only_the_shorter_tables(monkeypatch):
    sv = build_sieve(100)
    sv.upto(PHI, 3000)
    assert "mobius" not in sv.memo  # phi alone builds no mu
    sv.upto(MOBIUS, 5000)
    longer = sv.memo["mobius"]
    built = []
    stream = arith.FactorSieve.stream
    monkeypatch.setattr(arith.FactorSieve, "stream",
                        lambda self, walks, n_max, held: built.append([w.name for w in walks])
                        or stream(self, walks, n_max, held))
    sv.prepare((MOBIUS, PHI), 4000)
    assert built == [["phi"]] and sv.memo["mobius"] is longer
    seen = []
    blocks = arith._spf_blocks

    def watching(primes, n_max, start=2, cut=0):
        for lo, hi, spf in blocks(primes, n_max, start, cut):
            seen.append((lo, hi))
            yield lo, hi, spf

    monkeypatch.setattr(arith, "_spf_blocks", watching)
    phi = sv.upto(PHI, 4000)
    sv.prepare((PHI, MOBIUS, PHI), 8000)
    # one walk of both, resumed at phi's cached length: its blocks run on
    # from 4001, and mu joins where it stopped, at 5001
    assert built[1:] == [["phi", "mobius"]]
    assert seen[0][0] == 4001 and seen[-1][1] == 8001
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    # into new tables: the view handed out of the shorter one is unchanged
    assert not np.shares_memory(phi, sv.memo["phi"])
    assert not np.shares_memory(longer, sv.memo["mobius"])
    assert np.array_equal(phi, brute.phi_table(4000))
    assert len(sv.memo["mobius"]) == 8001 and len(sv.memo["phi"]) == 8001
    assert np.array_equal(sv.memo["mobius"], brute.mobius_table(8000))
    assert np.array_equal(sv.memo["phi"], brute.phi_table(8000))
    with pytest.raises(UsageError, match=r"R must lie in \[0, 10200\]"):
        sv.prepare((PHI,), 101**2)
    # a table whose dtype grows is resumed in the wider dtype, which holds
    # the values copied exactly: sigma_2 is int32 to 13000, int64 to 20000
    sv = build_sieve(200)
    sv.prepare((walk("sigma", 2),), 13_000)
    sv.primes(200)  # whose sieve walks blocks too
    del seen[:]
    sv.prepare((walk("sigma", 2),), 20_000)
    assert seen[0][0] == 13_001 and sv.memo["sigma(2)"].dtype == np.int64
    assert np.array_equal(sv.memo["sigma(2)"], brute.sigma_table(20_000, 2))


# R doubled from 256 past the block edges 2**18 and 2**20
_DOUBLED_RS = [256 << k for k in range(14)]


def test_stream_hands_back_the_tables_memo_holds():
    # where memo holds 0..held in the dtype of a table to n_max, stream
    # returns memo's own read-only table, which the walk above only reads;
    # otherwise a copy, widened or resumed above memo's length
    sv = build_sieve(100)
    sv.prepare((PHI, MOBIUS, walk("sigma", 3)), 500)
    walks = [PHI, MOBIUS]
    low, blocks = sv.stream(walks, 999, 500)
    for w, table in zip(walks, low):
        assert np.shares_memory(table, sv.memo[w.name]) and not table.flags.writeable
        assert len(table) == 501
    ((lo, views),) = list(blocks)
    assert lo == 501
    assert np.array_equal(views[0], brute.phi_table(999)[501:])
    assert np.array_equal(views[1], brute.mobius_table(999)[501:])
    assert np.array_equal(sv.memo["phi"], brute.phi_table(500))  # untouched
    # sigma_3 to 500 is int32, a table to 999 int64: a widened copy
    assert sv.memo["sigma(3)"].dtype == np.int32
    (table,), blocks = sv.stream([walk("sigma", 3)], 999, 499)
    assert table.dtype == np.int64 and not np.shares_memory(table, sv.memo["sigma(3)"])
    assert table.flags.writeable and np.array_equal(table, brute.sigma_table(499, 3))
    ((lo, (view,)),) = list(blocks)
    assert lo == 500 and np.array_equal(view, brute.sigma_table(999, 3)[500:])
    # memo shorter than held: a copy, resumed above memo's 0..500
    (table, mu), _ = sv.stream([PHI, MOBIUS], 1400, 700)
    for got, name in ((table, "phi"), (mu, "mobius")):
        assert len(got) == 701 and not np.shares_memory(got, sv.memo[name])
    assert np.array_equal(table, brute.phi_table(700))
    assert np.array_equal(mu, brute.mobius_table(700))


def test_tables_grown_by_doubling_R_match_one_shot_walks():
    # every table prepare caches, grown by doubling R, mu and phi cached
    # at different lengths and then grown together, has the bytes of one
    # walk to the top; so do a divisor sum and a real sigma grown so
    walks = (MOBIUS, PHI, HARDY, SINGULAR, walk("divisor"), walk("sigma", -0.5))
    names = [w.name for w in walks]
    top = _DOUBLED_RS[-1]
    oneshot = build_sieve(math.isqrt(top))
    oneshot.prepare(walks, top)
    grown = build_sieve(math.isqrt(top))
    for R in _DOUBLED_RS:
        grown.upto(MOBIUS, R)
        grown.prepare((HARDY, walk("divisor")), R // 2)
        grown.prepare((PHI, SINGULAR, walk("sigma", -0.5)), R // 3)
        grown.prepare(walks, R - 1)
        for name in names:
            got = grown.memo[name]
            assert got.tobytes() == oneshot.memo[name][: len(got)].tobytes(), (R, name)
    grown.prepare(walks, top)
    for name in names:
        assert grown.memo[name].tobytes() == oneshot.memo[name].tobytes(), name


# ... around the edges of the walk's parts inside a full block (a residue
# mod 6 splits into two at _SEGMENT + _SEGMENT / 2 + 1 or + 3), and on both
# sides of sigma_2's crossover from int32 to int64
_DIVISOR_SUM_RS = sorted(set(_WALK_RS) | {13_651, 13_652}
                         | {_SEGMENT + _SEGMENT // 2 + d for d in range(-1, 6)})


# The walked mu/phi is a product of rounded factors: at most this many ulp
# from the correctly rounded mu(n) / phi(n).  To 3 * 2**18 the walk
# measured 3.0 ulp, at n = 177289 = 7 * 19 * 31 * 43
_HARDY_ULPS = 4


def test_walked_divisor_sums_match_the_oracles_at_every_block_edge():
    # d, sigma_1 and sigma_2 from the spf walk, each alone and all in one
    # walk with mu and phi, against the whole-range hyperbola sums and the
    # blocked hyperbola build the walk replaced, in the dtype of each R; and
    # so the Ramanujan tables, the singular-series weights against the
    # masked phi**2 and mu/phi against its n-by-n recurrence, bit for bit
    top = _DIVISOR_SUM_RS[-1]
    oracles = {k: brute.sigma_table(top, k) for k in (0, 1, 2)}
    for k, table in oracles.items():
        assert np.array_equal(table, brute.hyperbola_sigma_table(top, k)), k
    ramanujan = {HARDY: brute.hardy_coefficients(top), SINGULAR: brute.singular_weights(top)}
    exact = brute.mobius_table(top)[1:] / brute.phi_table(top)[1:]
    err = np.abs(ramanujan[HARDY][1:] - exact) / np.abs(np.spacing(exact))
    assert err.max() <= _HARDY_ULPS, (np.argmax(err) + 1, err.max())
    names = {0: "divisor", 1: "sigma(1)", 2: "sigma(2)"}
    for R in _DIVISOR_SUM_RS:
        sv, together = (build_sieve(max(math.isqrt(R), 2)) for _ in range(2))
        together.prepare((MOBIUS, PHI, *(walk("sigma", k) for k in names), *ramanujan), R)
        assert np.array_equal(together.memo["mobius"], brute.mobius_table(R)), R
        assert np.array_equal(together.memo["phi"], brute.phi_table(R)), R
        for k, name in names.items():
            kind, s = ("sigma", k) if k else ("divisor", None)
            alone = tabulate(sv, kind, R, s=s).values
            assert alone.dtype == brute.exact_sigma_dtype(R, k), (R, k)
            assert np.array_equal(alone, oracles[k][: R + 1]), (R, k)
            assert together.memo[name].tobytes() == alone.tobytes(), (R, k)
        for w, oracle in ramanujan.items():
            alone = sv.stream([w], R, R)[0][0]
            assert alone.tobytes() == oracle[: R + 1].tobytes(), (R, w)
            assert together.memo[w.name].tobytes() == alone.tobytes(), (R, w)
        assert _cached(sv) == {}


def test_bare_tabulate_caches_no_divisor_sum_table():
    # a d table to 10**7 is 20 MB, so only prepare keeps one in memo, for
    # every kind alike (tabulate cached mu and phi); a prepared table is
    # read back as a view in the dtype of the N asked for
    sv = build_sieve(200)
    for kind, s in (("divisor", None), ("sigma", 0), ("sigma", 1), ("sigma", 2),
                    ("mobius", None), ("phi", None)):
        tabulate(sv, kind, 20_000, s=s)
    assert list(sv.memo) == ["primes"]
    sv.prepare((walk("divisor"), walk("sigma", 2)), 20_000)
    assert np.shares_memory(tabulate(sv, "divisor", 5000).values, sv.memo["divisor"])
    assert np.shares_memory(tabulate(sv, "sigma", 5000, s=0).values, sv.memo["divisor"])
    s2 = tabulate(sv, "sigma", 13_000, s=2).values  # int32 to 13000, int64 to 20000
    assert s2.dtype == np.int32 and not np.shares_memory(s2, sv.memo["sigma(2)"])
    assert np.array_equal(s2, sv.memo["sigma(2)"][:13_001])
    assert sorted(_cached(sv)) == ["divisor", "sigma(2)"]
    # walk names are canonical: sigma_norm(s) is sigma(-s), one float64
    # table, while sigma_norm(-2) stays float64 beside the exact sigma(2)
    assert walk("sigma_norm", 0.5).name == walk("sigma", -0.5).name == "sigma(-0.5)"
    sv.prepare((walk("sigma", -0.5), walk("sigma_norm", -2)), 20_000)
    for kind, s in (("sigma_norm", 0.5), ("sigma", -0.5)):
        assert np.shares_memory(tabulate(sv, kind, 5000, s=s).values, sv.memo["sigma(-0.5)"])
    assert tabulate(sv, "sigma_norm", 5000, s=-2).values.dtype == np.float64
    assert sorted(_cached(sv)) == ["divisor", "sigma(-0.5)", "sigma(2)", "sigma(2.0)"]


_WALKS = (MOBIUS, PHI, walk("divisor"), walk("sigma", 1), walk("sigma", 2), walk("sigma", 0.5),
          walk("sigma", -0.5), HARDY, SINGULAR)


@pytest.mark.parametrize("n_max", [0, 1])
def test_every_walk_to_below_two_holds_f0_and_f1(n_max):
    # f(0) = 0 and f(1) = 1 in the dtype of a longer table, through stream
    # and prepare, for every walk name; the divisor sums to 0 raised
    # ValueError from log2(0) in their dtype check
    longer = build_sieve(10)
    longer.prepare(_WALKS, 10)
    for w in _WALKS:
        sv = build_sieve(10)
        for got in (sv.stream([w], n_max, n_max)[0][0], sv.upto(w, n_max)):
            assert got.tolist() == [0, 1][: n_max + 1], w.name
            assert got.dtype == longer.memo[w.name].dtype, w.name


# (kind, s) of tabulate and the name its walk's table is kept under in memo
_MEMO_KEYS = [
    ("divisor", None, "divisor"), ("sigma", 0, "divisor"), ("sigma", -0.0, "divisor"),
    ("sigma", 2, "sigma(2)"), ("sigma", 2.0, "sigma(2)"), ("sigma", 0.5, "sigma(0.5)"),
    ("sigma_norm", 0.5, "sigma(-0.5)"), ("sigma", -0.5, "sigma(-0.5)"),
    ("sigma_norm", -2, "sigma(2.0)"), ("sigma_norm", 0.0, "sigma(0.0)"),
    ("sigma_norm", -0.0, "sigma(0.0)"), ("sigma", 1e-320, "sigma(1e-320)"),
    ("mobius", None, "mobius"), ("phi", None, "phi"),
]


def test_walk_records_keep_their_memo_keys(monkeypatch):
    # each kind's record is named as its table's memo key always was, and
    # records of one name are equal, hash alike and are walked once
    walks = [walk(kind, s) for kind, s, _ in _MEMO_KEYS]
    for w, (kind, s, name) in zip(walks, _MEMO_KEYS):
        assert w.name == name, (kind, s)
        sv = build_sieve(10)
        # a tabulated table is named as its record: sigma_norm(0.5) was
        # tagged "sigma_norm(0.5)" and sigma with s = 0 "sigma(0)"
        assert tabulate(sv, kind, 50, s=s).kind == name, (kind, s)
        sv.prepare((w,), 50)
        assert list(_cached(sv)) == [name], (kind, s)
    assert walk("mobius") is MOBIUS and walk("phi") is PHI
    sv = build_sieve(10)
    for read in (lambda: walk("lambda"), lambda: tabulate(sv, "lambda", 50)):
        with pytest.raises(UsageError, match="unknown table kind 'lambda'"):
            read()
    assert _cached(sv) == {}
    names = list(dict.fromkeys(name for _, _, name in _MEMO_KEYS))
    assert len(set(walks)) == len(names)
    for w in walks:
        for v in walks:
            assert (w == v) == (w.name == v.name) and (w != v or hash(w) == hash(v))
    built = []
    stream = arith.FactorSieve.stream
    monkeypatch.setattr(arith.FactorSieve, "stream",
                        lambda self, walks, n_max, held: built.append([w.name for w in walks])
                        or stream(self, walks, n_max, held))
    sv.prepare(walks, 50)
    assert built == [names] and sorted(_cached(sv)) == sorted(names)


_BAD_KINDS = [
    (("lambda", None), "unknown table kind 'lambda'"),
    (("foo", None), "unknown table kind 'foo'"),
    (("sigma", None), "kind 'sigma' needs an exponent s"),
    (("sigma_norm", None), "kind 'sigma_norm' needs an exponent s"),
    (("sigma", math.nan), "s must be finite, got nan"),
    (("sigma_norm", "2"), "s must be a real number, got '2'"),
    (("divisor", 1), "kind 'divisor' takes no exponent"),
    (("mobius", 0.5), "kind 'mobius' takes no exponent"),
]


@pytest.mark.parametrize("kind, match", _BAD_KINDS, ids=[repr(k) for k, _ in _BAD_KINDS])
def test_walk_checks_every_kind_before_any_walk(monkeypatch, kind, match):
    # walk is the one reader of a kind, for tabulate and walked_halves
    # alike, on either side: a Lambda kind raised AttributeError, a sigma
    # with no s or an unknown kind TypeError, and a NaN s walked a NaN
    # table to N/2 before tabulate refused it
    streamed = []
    monkeypatch.setattr(arith.FactorSieve, "stream", lambda *args: streamed.append(args))
    sv = build_sieve(10)
    calls = [lambda: walk(*kind), lambda: tabulate(sv, kind[0], 100, s=kind[1]),
             lambda: arith.walked_halves(sv, kind, ("divisor", None), 100),
             lambda: arith.walked_halves(sv, ("sigma", 1), kind, 100)]
    for call in calls:
        with pytest.raises(UsageError, match=re.escape(match)):
            call()
    assert streamed == [] and _cached(sv) == {}


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
        # sigma_2 to 1000 is int32, whose products would wrap
        rhs = np.outer(small[1:].astype(np.int64), small[1:])[coprime]
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
    phi = sv.upto(PHI, 999 * 999)
    assert int(phi[a]) * int(phi[b]) == phi[a * b]


_HYP_SIEVE = None


def _hyp_sieve():
    global _HYP_SIEVE
    if _HYP_SIEVE is None:
        _HYP_SIEVE = build_sieve(1_000_000)
    return _HYP_SIEVE
