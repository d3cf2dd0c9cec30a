import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from convlab import (
    UsageError,
    build_sieve,
    divisors,
    factorize,
    mobius,
    sigma_rational,
    sigma_real,
    tabulate,
)
from convlab import arith
from convlab.arith import _SEGMENT, _halving_blocks, _sigma_dtype


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


def test_mobius_phi_lambda_examples(sieve_small):
    assert mobius(factorize(sieve_small, 1)) == 1
    assert mobius(factorize(sieve_small, 30)) == -1
    assert mobius(factorize(sieve_small, 12)) == 0
    # phi and Lambda of one n come from their tables
    phi = tabulate(sieve_small, "phi", 12).values
    lam = tabulate(sieve_small, "lambda", 7919).values
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
    phi = brute.phi_table(N)
    for n in range(1, N + 1):
        f = facts[n]
        assert dt.values[n] == sigma_rational(f, 0)
        assert mt.values[n] == mobius(f)
        assert pt.values[n] == phi[n]
        assert lt.values[n] == pytest.approx(brute.von_mangoldt(n), abs=1e-12)
        assert s2.values[n] == sigma_rational(f, 2)
        assert sr.values[n] == pytest.approx(sigma_real(f, 0.5), rel=1e-12)
        assert sn.values[n] == pytest.approx(
            float(sigma_rational(f, 1)) / n, rel=1e-12
        )


# cross the 2**20 block cap of the spf-derived tables and the 2**18 sieve
# segments at a limit that is no power of two, end on, before and after
# one period 210 of the sieve's wheel and on, before and after the first
# segment edge, and cover the smallest sieves; at 1451**2 the last entry
# of the last segment is a prime square.  At 2**21 - 1, 2**21 and
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
    assert sv.spf.dtype == expected_spf.dtype
    assert np.array_equal(sv.spf, expected_spf)
    cases = [
        ("divisor", None, brute.divisor_table(limit)),
        ("mobius", None, brute.mobius_table(limit)),
        ("phi", None, brute.phi_table(limit).astype(sv.spf.dtype)),
        ("lambda", None, brute.lambda_table(limit)),
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
    # limit, whose spf the walk reads in slices
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


@pytest.mark.parametrize("r", [2, 3, 10, 31])
def test_lambda_reaches_the_square_of_the_sieve(r):
    # Lambda reads the sieve's primes to isqrt(N), as factorize does
    sieve = build_sieve(r)
    top = (r + 1) ** 2 - 1
    values = tabulate(sieve, "lambda", top).values
    assert values.tobytes() == brute.lambda_table(top).tobytes()
    with pytest.raises(UsageError, match=rf"lambda table: N must lie in \[1, {top}\]"):
        tabulate(sieve, "lambda", top + 1)


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
    # mu and phi sieve their own segments from the primes to isqrt(R)
    with pytest.raises(UsageError):
        sv.upto("phi", 10_001**2)
    small = build_sieve(30)
    for name, oracle in (("mobius", brute.mobius_table), ("phi", brute.phi_table)):
        assert np.array_equal(small.upto(name, 31**2 - 1), oracle(31**2 - 1)), name


# R on both sides of every edge of mu and phi's halving blocks to 3 * 2**18
_WALK_RS = sorted({R for lo, _ in _halving_blocks(3 * _SEGMENT, _SEGMENT)
                   for R in (lo - 1, lo) if R >= 1} | {3 * _SEGMENT})


def test_prepare_walks_once_for_mu_and_phi_byte_identical_to_their_own_walks(monkeypatch):
    calls = []
    segment = arith._spf_segment
    monkeypatch.setattr(arith, "_spf_segment", lambda *a: calls.append(a[1]) or segment(*a))
    for R in _WALK_RS:
        alone = build_sieve(math.isqrt(R) + 2)
        del calls[:]  # build_sieve sieves segments too
        own = {name: alone.upto(name, R) for name in ("mobius", "phi")}
        one_walk = len(calls) // 2
        assert calls[:one_walk] == calls[one_walk:]
        for names in (("phi", "mobius"), ("mobius", "phi")):
            sv = build_sieve(math.isqrt(R) + 2)
            del calls[:]
            sv.prepare(names, R)
            assert len(calls) == one_walk, (R, names)
            for name, table in own.items():
                got = sv.upto(name, R)
                assert not got.flags.writeable and np.shares_memory(got, sv.memo[name])
                assert got.dtype == table.dtype and got.tobytes() == table.tobytes(), (R, name)
                assert np.shares_memory(sv.upto(name, R // 2), got)
            sv.prepare(names, R)
            assert len(calls) == one_walk  # nothing walked again
    assert one_walk > 1  # the last R walks several segments


def test_tables_on_a_sieve_to_N_sieve_no_segment(monkeypatch):
    # where the sieve reaches N, the walk and Lambda read slices of its own
    # spf: no segment is sieved, and the bytes are those of a sieve to
    # isqrt(N), which sieves every segment from its primes
    N = 3 * _SEGMENT + 12345
    root, full = build_sieve(math.isqrt(N)), build_sieve(N)
    kinds = [("divisor", None), ("mobius", None), ("phi", None), ("lambda", None),
             ("sigma", 1), ("sigma_norm", 0.5)]
    expected = {(kind, s): tabulate(root, kind, N, s=s).values.tobytes() for kind, s in kinds}
    primes = arith.prime_mask(root, N)

    def no_segment(*args):
        raise AssertionError("a segment was sieved")

    monkeypatch.setattr(arith, "_spf_segment", no_segment)
    for kind, s in kinds:
        assert tabulate(full, kind, N, s=s).values.tobytes() == expected[kind, s], kind
    assert np.array_equal(arith.prime_mask(full, N), primes)


@pytest.mark.parametrize("N", [2, 3, 1000, 262_147, 1_000_003])
def test_streamed_blocks_are_slices_of_the_whole_tables(N):
    # the walk that holds its tables to held passes each entry above
    # through one buffer per table, in ascending blocks of _SEGMENT but
    # the first and the last, with the bytes of the tables held whole;
    # from segments sieved to N and from slices of a sieve's own spf
    names = ["divisor", "sigma(1)", "sigma(-0.5)", "mobius", "phi"]
    for sieve in (build_sieve(max(math.isqrt(N), 2)), build_sieve(max(N, 2))):
        whole, _ = sieve.stream(names, N, N)
        for held in sorted({N // 2, N // 2 + 1, N - 1, N} & set(range(N // 2, N + 1))):
            low, blocks = sieve.stream(names, N, held)
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
        sieve.stream(names, N, N // 2 - 1)
    with pytest.raises(UsageError, match="held"):
        sieve.stream(names, N, N + 1)


def test_prepare_rebuilds_only_the_shorter_tables_dropping_them_first(monkeypatch):
    sv = build_sieve(100)
    sv.upto("phi", 3000)
    assert "mobius" not in sv.memo  # phi alone builds no mu
    sv.upto("mobius", 5000)
    longer = sv.memo["mobius"]
    built = []
    stream = arith.FactorSieve.stream
    monkeypatch.setattr(arith.FactorSieve, "stream",
                        lambda self, names, n_max, held: built.append(list(names))
                        or stream(self, names, n_max, held))
    sv.prepare(("mobius", "phi"), 4000)
    assert built == [["phi"]] and sv.memo["mobius"] is longer
    seen = []
    blocks = arith._spf_blocks

    def watching(sieve, n_max):
        for block in blocks(sieve, n_max):
            seen.append(("mobius" in sieve.memo, "phi" in sieve.memo))
            yield block

    monkeypatch.setattr(arith, "_spf_blocks", watching)
    sv.prepare(("phi", "mobius", "phi"), 8000)
    # both shorter tables were let go before the one walk that filled them
    assert built[1:] == [["phi", "mobius"]]
    assert seen and not any(any(s) for s in seen)
    assert len(sv.memo["mobius"]) == 8001 and len(sv.memo["phi"]) == 8001
    assert np.array_equal(sv.memo["mobius"], brute.mobius_table(8000))
    assert np.array_equal(sv.memo["phi"], brute.phi_table(8000))
    with pytest.raises(UsageError, match=r"R must lie in \[0, 10200\]"):
        sv.prepare(("phi",), 101**2)


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
    ramanujan = {"mobius/phi": brute.hardy_coefficients(top),
                 "phi^2/mobius^2": brute.singular_weights(top)}
    exact = brute.mobius_table(top)[1:] / brute.phi_table(top)[1:]
    err = np.abs(ramanujan["mobius/phi"][1:] - exact) / np.abs(np.spacing(exact))
    assert err.max() <= _HARDY_ULPS, (np.argmax(err) + 1, err.max())
    names = {0: "divisor", 1: "sigma(1)", 2: "sigma(2)"}
    for R in _DIVISOR_SUM_RS:
        sv, together = (build_sieve(max(math.isqrt(R), 2)) for _ in range(2))
        together.prepare(("mobius", "phi", *names.values(), *ramanujan), R)
        assert np.array_equal(together.memo["mobius"], brute.mobius_table(R)), R
        assert np.array_equal(together.memo["phi"], brute.phi_table(R)), R
        for k, name in names.items():
            kind, s = ("sigma", k) if k else ("divisor", None)
            alone = tabulate(sv, kind, R, s=s).values
            assert alone.dtype == brute.exact_sigma_dtype(R, k), (R, k)
            assert np.array_equal(alone, oracles[k][: R + 1]), (R, k)
            assert together.memo[name].tobytes() == alone.tobytes(), (R, k)
        for name, oracle in ramanujan.items():
            alone = sv.walked(name, R)
            assert alone.tobytes() == oracle[: R + 1].tobytes(), (R, name)
            assert together.memo[name].tobytes() == alone.tobytes(), (R, name)
        assert sv.memo == {}


def test_bare_tabulate_caches_no_divisor_sum_table():
    # a d table to 10**7 is 20 MB, so only prepare keeps one in memo; a
    # prepared table is read back as a view in the dtype of the N asked for
    sv = build_sieve(200)
    for kind, s in (("divisor", None), ("sigma", 0), ("sigma", 1), ("sigma", 2)):
        tabulate(sv, kind, 20_000, s=s)
    assert sv.memo == {}
    sv.prepare(("divisor", "sigma(2)"), 20_000)
    assert np.shares_memory(tabulate(sv, "divisor", 5000).values, sv.memo["divisor"])
    assert np.shares_memory(tabulate(sv, "sigma", 5000, s=0).values, sv.memo["divisor"])
    s2 = tabulate(sv, "sigma", 13_000, s=2).values  # int32 to 13000, int64 to 20000
    assert s2.dtype == np.int32 and not np.shares_memory(s2, sv.memo["sigma(2)"])
    assert np.array_equal(s2, sv.memo["sigma(2)"][:13_001])
    assert sorted(sv.memo) == ["divisor", "sigma(2)"]
    # walk names are canonical: sigma_norm(s) is sigma(-s), one float64
    # table, while sigma_norm(-2) stays float64 beside the exact sigma(2)
    assert arith.walk_name("sigma_norm", 0.5) == arith.walk_name("sigma", -0.5) == "sigma(-0.5)"
    sv.prepare(("sigma(-0.5)", arith.walk_name("sigma_norm", -2)), 20_000)
    for kind, s in (("sigma_norm", 0.5), ("sigma", -0.5)):
        assert np.shares_memory(tabulate(sv, kind, 5000, s=s).values, sv.memo["sigma(-0.5)"])
    assert tabulate(sv, "sigma_norm", 5000, s=-2).values.dtype == np.float64
    assert sorted(sv.memo) == ["divisor", "sigma(-0.5)", "sigma(2)", "sigma(2.0)"]


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
    phi = sv.upto("phi", 999 * 999)
    assert int(phi[a]) * int(phi[b]) == phi[a * b]


_HYP_SIEVE = None


def _hyp_sieve():
    global _HYP_SIEVE
    if _HYP_SIEVE is None:
        _HYP_SIEVE = build_sieve(1_000_000)
    return _HYP_SIEVE
