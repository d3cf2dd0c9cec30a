import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import brute
from convlab import (
    ConsistencyError,
    main_term_general,
    main_term_sigma_norm,
    UsageError,
    build_sieve,
    custom_provider,
    divisor_provider,
    expansion_adaptive,
    expansion_partial_sum,
    factorize,
    hardy_provider,
    orthogonality_defect,
    product_provider,
    ramanujan_sum,
    ramanujan_sum_table,
    sigma_provider,
    sigma_rational,
    singular_series,
    tabulate,
    zeta_real,
)
from convlab import ramanujan
from convlab.arith import MOBIUS, PHI, SINGULAR
from convlab.convolution import real_dot
from convlab.ramanujan import _DENSE, _STRIDE, _mu_power_prefix


def _prefix_at(sv, expo, xs):
    # P(x) of the sieve's mu-power prefix for each x of xs, read as the
    # sigma partial sums read it: from the dense part below _DENSE, and
    # from the stored sums and the terms after them above it
    xs = np.asarray(xs)
    pref = _mu_power_prefix(sv, expo, int(xs.max()))
    out = np.empty(len(xs))
    below = xs < _DENSE
    out[below] = pref.dense[xs[below]]
    out[~below] = pref.sampled(sv, xs[~below].tolist())
    return out


def test_ramanujan_sum_examples(sieve_small):
    assert ramanujan_sum(sieve_small, 1, 5) == 1
    assert ramanujan_sum(sieve_small, 5, 5) == 4
    assert ramanujan_sum(sieve_small, 4, 2) == -2
    assert ramanujan_sum(sieve_small, 6, 4) == -1


def test_ramanujan_sum_argument_errors(sieve_small):
    with pytest.raises(UsageError):
        ramanujan_sum(sieve_small, 0, 5)
    with pytest.raises(UsageError):
        ramanujan_sum(sieve_small, 5, 0)
    # r reaches (limit + 1)**2 - 1, as factorize does
    assert ramanujan_sum(sieve_small, 10_001, 5) == brute.ramanujan_sum(10_001, 5)
    with pytest.raises(UsageError):
        ramanujan_sum(sieve_small, 10_001**2, 5)


def test_ascending_ramanujan_sums_build_no_mobius_table():
    # each c_r(n) reads mu(r/d) from the factorization, not a mu prefix
    sv = build_sieve(3000)
    n = 720720
    values = [ramanujan_sum(sv, r, n) for r in range(1, 3001)]
    assert "mobius" not in sv.memo
    assert values == ramanujan_sum_table(sv, n, 3000)[1:].tolist()


def test_oracle_examples():
    assert brute.ramanujan_sum_oracle(1, 5) == 1
    assert brute.ramanujan_sum_oracle(5, 5) == 4
    assert brute.ramanujan_sum_oracle(4, 2) == -2
    assert brute.ramanujan_sum_oracle(6, 4) == -1


def test_oracle_against_cmath_brute():
    for r in range(1, 30):
        for n in (1, 2, 7, 12, 30):
            assert brute.ramanujan_sum_oracle(r, n) == brute.ramanujan_sum(r, n)


def test_formula_matches_oracle_subset(sieve_small):
    for r in range(1, 61):
        for n in range(1, 81):
            assert ramanujan_sum(sieve_small, r, n) == brute.ramanujan_sum_oracle(r, n)


def test_table_matches_scalar(sieve_small):
    for n in (1, 4, 6, 30, 97, 360):
        table = ramanujan_sum_table(sieve_small, n, 200)
        for r in range(1, 201):
            assert table[r] == ramanujan_sum(sieve_small, r, n), (r, n)


def test_periodicity(sieve_small):
    for r in range(1, 51):
        for n in range(1, 101):
            assert ramanujan_sum(sieve_small, r, n) == ramanujan_sum(sieve_small, r, n + r)


def test_multiplicative_in_r(sieve_small):
    for r1 in range(1, 21):
        for r2 in range(1, 21):
            if math.gcd(r1, r2) != 1:
                continue
            for n in (1, 6, 50, 97):
                lhs = ramanujan_sum(sieve_small, r1 * r2, n)
                rhs = ramanujan_sum(sieve_small, r1, n) * ramanujan_sum(sieve_small, r2, n)
                assert lhs == rhs


def test_divisor_identity(sieve_small):
    # sum_{d | r} c_d(n) = r if r | n else 0
    for r in range(1, 41):
        ds = [d for d in range(1, r + 1) if r % d == 0]
        for n in range(1, 61):
            total = sum(ramanujan_sum(sieve_small, d, n) for d in ds)
            assert total == (r if n % r == 0 else 0)


def test_gcd_bound(sieve_small):
    for r in range(1, 81):
        for n in range(1, 81):
            bound = sigma_rational(factorize(sieve_small, math.gcd(n, r)), 1)
            assert abs(ramanujan_sum(sieve_small, r, n)) <= bound


def test_provider_metadata(sieve_small):
    p1 = sigma_provider(1.0)
    assert p1.delta == 1.0
    assert p1.bound == pytest.approx(zeta_real(2.0))
    assert not p1.conditional
    assert p1.coefficients(2)[2] == pytest.approx(zeta_real(2.0) / 4.0)

    dp = divisor_provider()
    assert dp.conditional
    assert dp.coefficients(1)[1] == 0.0
    assert dp.coefficients(2)[2] == pytest.approx(-math.log(2) / 2)

    hp = hardy_provider(sieve_small)
    assert hp.conditional
    a = hp.coefficients(15)
    assert a[1] == 1.0
    assert a[2] == -1.0
    assert a[4] == 0.0
    assert a[15] == pytest.approx(1.0 / 8.0)


def test_provider_coefficient_vector_matches_rule(sieve_small):
    formulas = (
        (sigma_provider(2.0), lambda r: zeta_real(3.0) * r**-3.0),
        (divisor_provider(), lambda r: -math.log(r) / r),
        (hardy_provider(sieve_small), lambda r: brute.mobius(r) / brute.phi(r)),
    )
    for p, formula in formulas:
        vec = p.coefficients(50)
        assert vec[0] == 0.0
        for r in range(1, 51):
            assert vec[r] == pytest.approx(formula(r), rel=1e-12)


def test_hardy_coefficients_reject_R_past_sieve():
    # mu and phi are walked to R, so R reaches (limit + 1)**2 - 1
    sv = build_sieve(100)
    provider = hardy_provider(sv)
    assert len(provider.coefficients(101**2 - 1)) == 101**2
    with pytest.raises(UsageError):
        provider.coefficients(101**2)


def test_product_provider_coefficients_and_metadata(sieve_small):
    sf, sg, hp = sigma_provider(1.0), sigma_provider(2.0), hardy_provider(sieve_small)
    p = product_provider(sf, sg)
    assert (p.delta, p.bound) == (4.0, sf.bound * sg.bound)
    assert np.allclose(p.coefficients(500), sf.coefficients(500) * sg.coefficients(500),
                       rtol=1e-15, atol=0.0)
    q = product_provider(hp, sf)
    assert q.conditional and q.bound is None
    assert np.array_equal(q.coefficients(500), hp.coefficients(500) * sf.coefficients(500))


def test_custom_provider_metadata_check():
    with pytest.raises(UsageError):
        custom_provider(lambda r: 1.0 / r**3, delta=2.0, bound=None)
    with pytest.raises(UsageError, match="^decay metadata must be positive$"):
        custom_provider(lambda r: 1.0 / r**3, delta=-1.0, bound=1.0)
    p = custom_provider(lambda r: 1.0 / r**3, delta=2.0, bound=1.0)
    assert not p.conditional
    q = custom_provider(lambda r: (-1.0) ** r / r)
    assert q.conditional


def test_expansion_partial_sigma1_at_one(sieve_1m):
    # partial sums approach sigma_1(1)/1 = 1 as R grows
    p = sigma_provider(1.0)
    res = expansion_partial_sum(sieve_1m, p, 1, 10_000)
    assert res.tail_bound is not None
    assert abs(res.value - 1.0) <= res.tail_bound
    assert abs(res.value - 1.0) < 1e-3


def test_expansion_adaptive_sigma2_n6(sieve_1m):
    res = expansion_adaptive(sieve_1m, sigma_provider(2.0), 6, tol=1e-6)
    assert abs(res.value - Fraction(25, 18)) < 1e-6
    assert abs(res.value - Fraction(25, 18)) <= res.tail_bound


def test_expansion_divisor_conditional(sieve_1m):
    # conditional expansion: value reported, no tolerance asserted
    res = expansion_partial_sum(sieve_1m, divisor_provider(), 4, 100_000)
    assert res.tail_bound is None
    assert math.isfinite(res.value)
    # d(4) = 3 is the nominal target; conditional convergence is slow
    assert 0.0 < res.value < 10.0


def test_expansion_partial_sum_argument_errors(sieve_small):
    # the regrouped sigma sums read no c_r table, whose checks the literal
    # sums inherit, so expansion_partial_sum checks n and R itself
    for provider in (sigma_provider(1.0), divisor_provider()):
        for n, R in ((6, 0), (6, -3), (0, 10), (6, (sieve_small.limit + 1) ** 2)):
            with pytest.raises(UsageError):
                expansion_partial_sum(sieve_small, provider, n, R)


def test_expansion_adaptive_rejects_conditional(sieve_small):
    with pytest.raises(UsageError):
        expansion_adaptive(sieve_small, divisor_provider(), 4)


def test_expansion_adaptive_rejects_a_tolerance_of_zero(sieve_small):
    with pytest.raises(UsageError, match="^tol must be positive, got 0$"):
        expansion_adaptive(sieve_small, sigma_provider(1.0), 6, tol=0)


@pytest.mark.parametrize("s", [0, -1.0])
def test_sigma_provider_refuses_a_nonpositive_exponent(s):
    with pytest.raises(UsageError, match=f"^sigma provider needs s > 0, got {s}$"):
        sigma_provider(s)


def test_expansion_adaptive_cap_failure():
    # the sieve's limit is the cap: no tol this tight is met by R = 512
    with pytest.raises(ConsistencyError):
        expansion_adaptive(build_sieve(512), sigma_provider(1.0), 6, tol=1e-13)


def _literal_partial_sum(sieve, provider, n, R):
    return real_dot(provider.coefficients(R)[1:], ramanujan_sum_table(sieve, n, R)[1:])


def test_regrouped_fast_path_matches_literal(sieve_small):
    for s in (1.0, 2.0):
        p = sigma_provider(s)
        for n in (1, 2, 6, 12, 30, 48):
            for R in (10, 100, 1000):
                lit = _literal_partial_sum(sieve_small, p, n, R)
                fast = p.partial_sums(sieve_small, factorize(sieve_small, n))(R)
                assert fast == pytest.approx(lit, abs=1e-12)


def test_adaptive_sigma_takes_the_regrouped_path(sieve_1m):
    # every step of the sigma loop is the O(d(n)) regrouped sum, never the
    # O(R) literal one, which gives other last bits at most of these n
    differs = 0
    for s in (1.0, 2.0):
        for n in (1, 6, 12, 360, 720):
            res = expansion_adaptive(sieve_1m, sigma_provider(s), n)
            regrouped = sigma_provider(s).partial_sums(sieve_1m, factorize(sieve_1m, n))
            assert res.value == regrouped(res.R)
            assert expansion_partial_sum(sieve_1m, sigma_provider(s), n, res.R) == res
            literal = _literal_partial_sum(sieve_1m, sigma_provider(s), n, res.R)
            differs += literal != res.value
    assert differs >= 4


def test_conditional_partial_sum_factors_nothing(sieve_small, monkeypatch):
    # a conditional provider has no tail bound, so sigma_1(n) is never needed
    def refuse(*args):
        raise AssertionError("sigma_rational called for a conditional provider")

    monkeypatch.setattr("convlab.ramanujan.sigma_rational", refuse)
    for provider in (divisor_provider(), hardy_provider(sieve_small)):
        res = expansion_partial_sum(sieve_small, provider, 720, 1000)
        assert res.tail_bound is None
        assert res.value == _literal_partial_sum(sieve_small, provider, 720, 1000)


def test_hoisted_sigma_steps_match_per_call_regrouped_sums():
    # each step of the adaptive loop, with n factored and zeta(s+1) taken
    # once per call, against the per-call form, for every R the loop visits
    limit = 10_000
    sv = build_sieve(limit)
    levels = [256]
    while levels[-1] < limit:
        levels.append(min(2 * levels[-1], limit))
    for s in (0.5, 1.0, 2.0):
        provider = sigma_provider(s)
        assert provider.bound == zeta_real(s + 1.0)
        pref = brute.mu_power_prefix(limit, s + 1.0)
        for n in range(1, 2001):
            step = provider.partial_sums(sv, factorize(sv, n))
            for R in levels:
                want = brute.sigma_partial_regrouped(provider.bound, pref, s, n, R)
                assert step(R) == want, (s, n, R)


def _lengths(sieve):
    # the length of each entry of memo, but for the singular series' d = 1
    # sums and the c_r periods, which are not grown to an R
    return {k: len(v) for k, v in sieve.memo.items()
            if not (isinstance(k, tuple) and k[0] in ("singular_first", "period"))}


def _cached(sieve):
    # the lengths of the tables in memo, beside the primes the walks read
    assert "primes" in sieve.memo
    return {k: v for k, v in _lengths(sieve).items() if k != "primes"}


def _kept(sieve, kind):
    # {R or r: value} of the memo entries (kind, R or r)
    return {k[1]: v for k, v in sieve.memo.items() if isinstance(k, tuple) and k[0] == kind}


# The regrouped singular series, and the literal sum of brute, lie within
# this many ulp of the sum of the absolute values of their terms from the
# exact sum, for every N <= 500 and R <= 5000: measured 1.9 and 2.0 ulp.
# That scale, not the value, bounds the odd N, whose partial sums cancel
# towards 0
_SINGULAR_ULPS = 4


def test_singular_series_within_ulps_of_the_exact_sum():
    # every N <= 500, as R grows and then shrinks, against the exact
    # rational sum; the series is walked with mu, and no phi
    sv = build_sieve(5000)
    Rs = (1, 60, 1000, 5000, 300, 7)
    for N in range(2, 501):
        exact = brute.singular_series_exact(N, Rs)
        for R in Rs:
            value, scale = exact[R]
            tol = _SINGULAR_ULPS * Fraction(math.ulp(float(scale)))
            assert abs(Fraction(singular_series(sv, N, R)) - value) <= tol, (N, R)
            assert abs(Fraction(brute.singular_series(N, R)) - value) <= tol, (N, R)
    assert _cached(sv) == {"mobius": 5001, "phi^2/mobius^2": 5001}


def test_singular_first_sums_are_kept_once_per_R(monkeypatch):
    # the d = 1 sum is the same for every N: one memo entry per R, summed
    # once and read by every N after; at a prime N > R it is the series
    sv = build_sieve(5000)
    summed = []
    inner = ramanujan._singular_inner

    def counted(mu, w, d):
        summed.append((d, len(mu) - 1))
        return inner(mu, w, d)

    monkeypatch.setattr(ramanujan, "_singular_inner", counted)
    for R in (1000, 60, 1000, 5000, 60):
        for N in (2, 720720, 2 * 4999, 7919):
            singular_series(sv, N, R)
    assert [R for d, R in summed if d == 1] == [1000, 60, 5000]
    first = _kept(sv, "singular_first")
    assert sorted(first) == [60, 1000, 5000]
    mu, w = sv.upto(MOBIUS, 5000), sv.upto(SINGULAR, 5000)
    assert first[5000] == inner(mu, w, 1) == singular_series(sv, 7919, 5000)


def test_hardy_coefficients_are_read_only_prefixes(sieve_small):
    # once a longer R is cached, a shorter one is a read-only view that
    # equals the n-by-n recurrence bit for bit, within a few ulp of the
    # correctly rounded mu/phi; a partial sum reads them and mu, no phi
    sv = build_sieve(sieve_small.limit)
    provider = hardy_provider(sv)
    provider.coefficients(5000)
    recurrence = brute.hardy_coefficients(5000)
    for R in (5000, 1, 700, 4999):
        a = provider.coefficients(R)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[1] = 0.0
        assert a.tobytes() == recurrence[: R + 1].tobytes(), R
        exact = brute.mobius_table(R)[1:] / brute.phi_table(R)[1:]
        assert np.all(np.abs(a[1:] - exact) <= 4 * np.abs(np.spacing(exact))), R
    expansion_partial_sum(sv, provider, 720, 5000)
    assert _cached(sv) == {"mobius/phi": 5001, "mobius": 5001}


def test_ramanujan_sum_table_matches_per_divisor_casts(sieve_small):
    # mu written for d = 1 and int64 products for each larger d, stopping
    # at the first d > R, against the astype form that skipped d > R
    for n in (1, 2, 12, 97, 720, 5040, 9973, 27720, 10**6):
        for R in (1, 5, 100, 5040, 10_000):
            assert np.array_equal(ramanujan_sum_table(sieve_small, n, R),
                                  brute.ramanujan_sum_table(n, R)), (n, R)


def test_literal_partial_sums_read_c_r_in_float64(sieve_1m):
    # the float64 c_r(n) table holds the int64 one's integers, so the
    # literal partial sums keep the bits of the dot with the int64 table
    hardy = hardy_provider(sieve_1m)
    for n in (1, 720720, 9699690, 10**7 - 1):
        for R in (1, 5040, 10**5):
            want = ramanujan_sum_table(sieve_1m, n, R)
            got = ramanujan._sum_table(sieve_1m, factorize(sieve_1m, n), R, np.float64)
            assert got.dtype == np.float64 and np.array_equal(got, want), (n, R)
            for provider in (hardy, divisor_provider()):
                assert expansion_partial_sum(sieve_1m, provider, n, R).value == (
                    _literal_partial_sum(sieve_1m, provider, n, R)
                ), (provider.kind, n, R)


def test_custom_decay_provider_end_to_end(sieve_small):
    # a(r) = r**-3 is zeta(3)**-1 times the sigma_2 coefficients, so the
    # expansion converges to sigma_2(n) / (n**2 zeta(3))
    rule = lambda r: 1.0 / r**3
    p = custom_provider(rule, delta=2.0, bound=1.0, kind="cube")
    vec = p.coefficients(300)
    assert vec[0] == 0.0
    assert all(vec[r] == rule(r) for r in range(1, 301))
    for n in (1, 6, 28):
        res = expansion_adaptive(sieve_small, p, n)
        assert res.value == expansion_partial_sum(sieve_small, p, n, res.R).value
        target = float(brute.sigma_int(n, 2)) / n**2 / zeta_real(3.0)
        assert abs(res.value - target) <= res.tail_bound
        assert res.value == pytest.approx(target, rel=1e-6)
    N, M, R = 30, 7.0, 200
    value, tail = main_term_general(sieve_small, p, p, N, M, R=R)
    ref = M * math.fsum(r**-6.0 * brute.ramanujan_sum(r, N) for r in range(1, R + 1))
    assert value == pytest.approx(ref, rel=1e-12)
    assert tail == pytest.approx(M * 72 * R**-5.0 / 5.0, rel=1e-12)


def test_tail_bound_envelope(sieve_small):
    # |partial - sigma_s(n)/n^s| <= tail bound for s in {1, 2}
    for s in (1, 2):
        p = sigma_provider(float(s))
        for n in range(1, 51):
            target = float(sigma_rational(factorize(sieve_small, n), s)) / n**s
            for R in (10, 100, 1000):
                res = expansion_partial_sum(sieve_small, p, n, R)
                assert abs(res.value - target) <= res.tail_bound, (s, n, R)


def test_singular_series_examples(sieve_small):
    assert singular_series(sieve_small, 10, 1) == 1.0
    assert singular_series(sieve_small, 10, 2) == 2.0
    assert singular_series(sieve_small, 9, 2) == 0.0


def test_singular_series_euler_product(sieve_1m):
    # absolutely convergent; compare against the classical twin product
    N, R = 10_000, 100_000
    ss = singular_series(sieve_1m, N, R)
    c2 = 1.0
    for p in range(3, 100_000):
        if brute.is_prime(p):
            c2 *= 1.0 - 1.0 / (p - 1.0) ** 2
    ref = 2.0 * c2 * (5.0 - 1.0) / (5.0 - 2.0)  # 10^4 = 2^4 5^4
    assert ss == pytest.approx(ref, rel=1e-4)


def test_prefix_tables_bit_identical_to_full_tables():
    # singular series, Hardy coefficients and c_r tables read mu and their
    # walked tables only up to R: a prefix of the spf-derived tables, not
    # the full ones
    prefix_sv = build_sieve(10**6)
    full_sv = build_sieve(10**6)
    for w in (MOBIUS, PHI):  # build the full tables first
        full_sv.upto(w, full_sv.limit)
    N = 2 * 3 * 5 * 7 * 11 * 13 * 17
    assert singular_series(prefix_sv, N, 10**3) == singular_series(full_sv, N, 10**3)
    assert _cached(prefix_sv) == {
        "mobius": 1001, "phi^2/mobius^2": 1001,
    }
    for R in (500, 2000, 1000, 3):
        assert singular_series(prefix_sv, N + 2, R) == singular_series(full_sv, N + 2, R)
        assert np.array_equal(
            hardy_provider(prefix_sv).coefficients(R), hardy_provider(full_sv).coefficients(R)
        )
        assert np.array_equal(
            ramanujan_sum_table(prefix_sv, N, R), ramanujan_sum_table(full_sv, N, R)
        )
    # one memo entry per name, at the largest R asked for so far
    derived = {"phi^2/mobius^2": 2001, "mobius/phi": 2001}
    assert _cached(prefix_sv) == {"mobius": 2001, **derived}
    # the full tables were sliced, never replaced by a shorter prefix
    assert _cached(full_sv) == {
        "mobius": 10**6 + 1, "phi": 10**6 + 1, **derived,
    }


def test_expansion_prefixes_stop_at_R():
    # the mu and mu-power prefixes an expansion reads go to its R, not to
    # the sieve's limit: a float64 prefix to 2**22 alone would be 20x the bound
    sv = build_sieve(2**22)
    tracemalloc.start()
    try:
        stops = [expansion_adaptive(sv, sigma_provider(2.0), n).R
                 for n in (999983, 720720, 2**21)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stops == [1024, 16384, 4096]
    assert peak <= 0.05 * 8 * 2**22, peak / (8 * 2**22)


def test_grown_prefixes_match_one_shot_builds():
    # prefixes grown in mixed R order give the same bits as tables built
    # straight to the sieve's limit
    limit = 2**17
    grown, oneshot = build_sieve(limit), build_sieve(limit)
    for w in (MOBIUS, PHI):
        oneshot.upto(w, limit)
    for expo in (2.0, 3.0):
        _mu_power_prefix(oneshot, expo, limit)
    N = 2 * 3 * 5 * 7 * 11 * 13
    singular_series(oneshot, N, limit)
    hardy_provider(oneshot).coefficients(limit)
    full = _lengths(oneshot)
    oracles = {MOBIUS: brute.mobius_table(limit), PHI: brute.phi_table(limit)}
    for R in (300, 5000, 700, limit):
        for w in (MOBIUS, PHI):
            assert np.array_equal(grown.upto(w, R), oracles[w][: R + 1]), (w.name, R)
        for expo in (2.0, 3.0):
            pref = _prefix_at(grown, expo, range(R + 1))
            assert pref.tobytes() == _prefix_at(oneshot, expo, range(R + 1)).tobytes(), (expo, R)
        for n in (1, 12, 97, 720, 5040, 65536, 99991):
            for s, tol in ((1.0, 1e-3), (2.0, 1e-6)):
                assert expansion_adaptive(grown, sigma_provider(s), n, tol=tol) == (
                    expansion_adaptive(oneshot, sigma_provider(s), n, tol=tol)
                ), (R, n, s)
        assert singular_series(grown, N, R) == singular_series(oneshot, N, R)
        assert np.array_equal(
            hardy_provider(grown).coefficients(R), hardy_provider(oneshot).coefficients(R)
        )
        assert np.array_equal(ramanujan_sum_table(grown, N, R), ramanujan_sum_table(oneshot, N, R))
    assert _lengths(grown) == full
    assert _lengths(oneshot) == full


def test_sampled_prefix_reads_keep_the_bits_of_one_cumsum():
    # past _DENSE only every _STRIDE-th P(x) is stored; each read there
    # adds the terms after its stored sum in order, so every P(x) near and
    # past _DENSE, and a sample below it, has the bits of the oracle's one
    # cumsum over the whole table
    limit = _DENSE + 5000
    sv = build_sieve(limit)
    rng = np.random.default_rng(24)
    xs = np.concatenate([rng.integers(0, _DENSE - _STRIDE, 2000),
                         np.arange(_DENSE - _STRIDE, limit + 1)])
    for expo in (2.0, 3.0, 2.5):
        want = brute.mu_power_prefix(limit, expo)[xs]
        assert _prefix_at(sv, expo, xs).tobytes() == want.tobytes(), expo


def test_prefix_grown_across_the_dense_part_matches_one_shot():
    # grown in mixed R order, with blocks that cross _DENSE, start at it
    # and start between two stored sums, the prefix holds what one build
    # straight to the limit holds, and reads the same every R
    limit = _DENSE + 5000
    grown, oneshot = build_sieve(limit), build_sieve(limit)
    orders = {
        2.0: (300, _DENSE + _STRIDE, 5000, _DENSE - 1, _DENSE + 1000, limit),
        2.5: (_DENSE - 1, _DENSE, _DENSE + 1, 70, limit),
    }
    for expo, order in orders.items():
        _mu_power_prefix(oneshot, expo, limit)
        for R in order:
            xs = range(R + 1)
            assert _prefix_at(grown, expo, xs).tobytes() == (
                _prefix_at(oneshot, expo, xs).tobytes()
            ), (expo, R)
        a, b = (_mu_power_prefix(sv, expo, limit) for sv in (grown, oneshot))
        assert len(a) == len(b) == limit + 1
        assert a.dense.tobytes() == b.dense.tobytes()
        assert a.samples.tobytes() == b.samples.tobytes()


def test_expansion_to_the_cap_holds_a_compact_prefix():
    # sigma_1 at n = 720720 doubles R to the cap of a sieve to 2**22 and
    # raises there.  Its mu-power prefix, grown block by block, holds P(x)
    # below _DENSE and every _STRIDE-th above: 8.4 MB where one table to R
    # would be 32 MB.  Measured: 0.514 (1.136 with the whole table rebuilt
    # at each doubling)
    sv = build_sieve(2**22)
    tracemalloc.start()
    try:
        with pytest.raises(ConsistencyError, match="by R = 4194304"):
            expansion_adaptive(sv, sigma_provider(1.0), 720720)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.55 * 8 * 2**22, peak / (8 * 2**22)


def test_orthogonality_examples(sieve_small):
    rec = orthogonality_defect(sieve_small, 1, 1, 10, 5)
    assert (rec.exact, rec.main, rec.defect) == (4, 5, -1)
    rec = orthogonality_defect(sieve_small, 2, 3, 12, 12)
    assert rec.main == 0
    assert rec.defect == rec.exact
    rec = orthogonality_defect(sieve_small, 2, 2, 10, 10)
    assert rec.main == 10


def test_orthogonality_past_int64():
    # N past 2**63 is reduced mod s as a Python int before any int64
    # array meets it, where (N - j) % s raised a raw OverflowError; the
    # exact sum is the Python-int fold of one period of each c_r
    sv = build_sieve(100)
    r, s, N, M = 4, 6, 10**20 + 7, 10**5
    cr = [brute.ramanujan_sum(r, j) for j in range(r)]
    cs = [brute.ramanujan_sum(s, j) for j in range(s)]
    exact = sum(cr[n % r] * cs[(N - n) % s] for n in range(1, M))
    assert exact == 4
    rec = orthogonality_defect(sv, r, s, N, M)
    assert (rec.exact, rec.main, rec.defect) == (4, 0, 4)
    assert orthogonality_defect(sv, 3, 3, 10**20, 10**20).defect == 1


def test_orthogonality_against_brute(sieve_small):
    for r in range(1, 7):
        for s in range(1, 7):
            for N in (10, 23, 40):
                # M = lcm(r, s) + 1 folds exactly one period (K = L)
                for M in (1, N // 2, N, math.lcm(r, s) + 1):
                    if M > N:
                        continue
                    rec = orthogonality_defect(sieve_small, r, s, N, M)
                    assert rec.exact == brute.orthogonality_exact(r, s, N, M)
                    assert rec.defect == rec.exact - rec.main


def test_orthogonality_against_per_j_ramanujan_sums(sieve_small):
    # the period tables against one ramanujan_sum call per residue j, the
    # sum folded the same way, for r, s <= 60
    def period(r):
        return [ramanujan_sum(sieve_small, r, j or r) for j in range(r)]

    periods = {r: period(r) for r in range(1, 61)}
    for r in range(1, 61):
        for s in (1, 2, 6, 7, 12, 30, 49, 60, r):
            for N, M in ((9973, 9973), (10_000, 4321), (720, 719)):
                rec = orthogonality_defect(sieve_small, r, s, N, M)
                cr, cs = periods[r], periods[s]
                L = math.lcm(r, s)
                terms = [cr[j % r] * cs[(N - j) % s] for j in range(1, min(L, M - 1) + 1)]
                K = M - 1
                exact = (K // L) * sum(terms) + sum(terms[: K % L]) if K > L else sum(terms)
                main = M * ramanujan_sum(sieve_small, r, N) if r == s else 0
                assert (rec.exact, rec.main, rec.defect) == (exact, main, exact - main), (r, s, N, M)


def test_orthogonality_same_with_cold_and_warm_periods(monkeypatch):
    # every pair on a sieve that keeps no period, so each call builds its
    # own, and on one whose memo keeps every period from the first pair
    # that read it
    cold, warm = build_sieve(100), build_sieve(100)
    pairs = [(r, s, N, M) for r in range(1, 61) for s in range(1, 61)
             for N, M in ((10**6 + 7, 777_777), (1000, 500))]
    monkeypatch.setattr(ramanujan, "_PERIODS_CACHED", 0)
    want = [orthogonality_defect(cold, *pair) for pair in pairs]
    assert not _kept(cold, "period")
    monkeypatch.undo()
    for pair, rec in zip(pairs, want):
        assert orthogonality_defect(warm, *pair) == rec, pair
    periods = _kept(warm, "period")
    assert sorted(periods) == list(range(1, 61))
    assert all(not c.flags.writeable and len(c) == r for r, c in periods.items())


def test_no_period_above_the_bound_is_cached():
    # the periods of r up to _PERIODS_CACHED stay in memo, about 4 MB in
    # all; a longer one is built for its call and dropped
    sv = build_sieve(3000)
    top = ramanujan._PERIODS_CACHED
    for r in (top, top + 1, 2 * top + 1):
        want = orthogonality_defect(build_sieve(3000), r, r, 10**6, 5000)
        for _ in range(2):
            assert orthogonality_defect(sv, r, r, 10**6, 5000) == want, r
            assert orthogonality_defect(sv, r, 1, 10**6, 5000) == (
                orthogonality_defect(build_sieve(3000), r, 1, 10**6, 5000)
            ), r
    assert sorted(_kept(sv, "period")) == [1, top]


def test_orthogonality_domain(sieve_small):
    with pytest.raises(UsageError):
        orthogonality_defect(sieve_small, 2, 3, 10, 11)
    with pytest.raises(UsageError):
        orthogonality_defect(sieve_small, 2, 3, 10, 0)


def test_real_dot_products_independent_of_blas_threads():
    # a Hardy expansion (n = 836428, R = 10**5) and a sigma main term, once
    # per OpenBLAS thread count; a BLAS dot reorders its sum by thread count
    code = (
        "from convlab import build_sieve, expansion_partial_sum, hardy_provider, "
        "main_term_general, sigma_provider\n"
        "s = build_sieve(10**6)\n"
        "print(repr(expansion_partial_sum(s, hardy_provider(s), 836428, 10**5).value))\n"
        "p = sigma_provider(1.0)\n"
        "print(repr(main_term_general(s, p, p, 836428, 4000.5, R=10**5)[0]))\n"
    )
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def _served_calls(sv):
    # one call per argument a sieve serves, the argument x and the others
    # valid
    s1, s2 = sigma_provider(1.0), sigma_provider(2.0)
    return {
        "factorize n": lambda x: factorize(sv, x),
        "tabulate N": lambda x: tabulate(sv, "divisor", x).values.tobytes(),
        "upto R": lambda x: sv.upto(PHI, x).tobytes(),
        "hardy_provider R": lambda x: hardy_provider(sv).coefficients(x).tobytes(),
        "ramanujan_sum r": lambda x: ramanujan_sum(sv, x, 12),
        "ramanujan_sum n": lambda x: ramanujan_sum(sv, 12, x),
        "ramanujan_sum_table n": lambda x: ramanujan_sum_table(sv, x, 20).tolist(),
        "ramanujan_sum_table R": lambda x: ramanujan_sum_table(sv, 12, x).tolist(),
        "singular_series N": lambda x: singular_series(sv, x, 20),
        "singular_series R": lambda x: singular_series(sv, 12, x),
        "expansion_partial_sum n": lambda x: expansion_partial_sum(sv, s1, x, 20),
        "expansion_partial_sum R": lambda x: expansion_partial_sum(sv, s1, 12, x),
        "expansion_adaptive n": lambda x: expansion_adaptive(sv, s2, x),
        "orthogonality_defect r": lambda x: orthogonality_defect(sv, x, 4, 30, 5),
        "orthogonality_defect N": lambda x: orthogonality_defect(sv, 3, 4, x, 5),
        "orthogonality_defect M": lambda x: orthogonality_defect(sv, 3, 3, 30, x),
        "main_term_general N": lambda x: main_term_general(sv, s1, s2, x, 5.0, R=20),
        "main_term_general R": lambda x: main_term_general(sv, s1, s2, 12, 5.0, R=x),
        "main_term_sigma_norm N": lambda x: main_term_sigma_norm(sv, 1.0, 2.0, x, 5.0),
    }


@pytest.mark.parametrize("name", list(_served_calls(None)))
def test_served_arguments_are_integers(name, sieve_small):
    # no float, even an integral one, and no string is truncated into an
    # index; a numpy integer is the Python int of its value
    call = _served_calls(sieve_small)[name]
    for bad in (6.0, 12.5, math.nan, math.inf, "6"):
        with pytest.raises(UsageError, match="must be an integer"):
            call(bad)
    assert call(np.int64(6)) == call(6)


def test_R_past_the_limit_keeps_its_bits():
    # mu and phi are exact integers whatever sieve walks them, so a sieve to
    # isqrt(top) gives every result a sieve reaching R gives, up to
    # top = (limit + 1)**2 - 1, and refuses R = top + 1
    limit = 30
    top = (limit + 1) ** 2 - 1
    small, large = build_sieve(limit), build_sieve(top)
    s1, s2 = sigma_provider(1.0), sigma_provider(2.0)

    def results(sv, R):
        return [
            singular_series(sv, 840, R),
            ramanujan_sum_table(sv, 720, R).tolist(),
            hardy_provider(sv).coefficients(R).tobytes(),
            _prefix_at(sv, 3.0, range(R + 1)).tobytes(),
            expansion_partial_sum(sv, s1, 720, R),
            expansion_partial_sum(sv, hardy_provider(sv), 719, R),
            orthogonality_defect(sv, R, R, 900, 451),
            orthogonality_defect(sv, R, 12, 900, 451),
            main_term_general(sv, s1, s2, 840, 420.5, R=R),
        ]

    for R in (limit + 1, top):
        assert results(small, R) == results(large, R), R
    refusals = (
        lambda R: singular_series(small, 840, R),
        lambda R: ramanujan_sum_table(small, 720, R),
        lambda R: hardy_provider(small).coefficients(R),
        lambda R: _mu_power_prefix(small, 3.0, R),
        lambda R: expansion_partial_sum(small, s1, 720, R),
        lambda R: expansion_partial_sum(small, hardy_provider(small), 719, R),
        lambda R: orthogonality_defect(small, R, R, 900, 451),
        lambda R: main_term_general(small, s1, s2, 840, 420.5, R=R),
    )
    for refuse in refusals:
        with pytest.raises(UsageError, match=rf"must lie in \[\d+, {top}\], got {top + 1}"):
            refuse(top + 1)
