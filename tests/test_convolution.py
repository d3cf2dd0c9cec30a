import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute
from convlab import (
    ArithTable,
    ConvolutionSpec,
    UsageError,
    additive_convolution,
    additive_convolutions,
    build_sieve,
    divisor_report,
    factorize,
    lambda_convolution,
    shifted_divisor_convolution,
    tabulate,
    tau_exact,
)
from convlab import convolution
from convlab.arith import MOBIUS, PHI, _SEGMENT, walk, walked_halves
from convlab.convolution import (
    _CHUNK, _MIN_RUN, _abs_max, _exact_int_sum, _run_length, real_dot,
)

# the dense Lambda table of the pair-sum oracle, to the largest N drawn
_LAMBDA_TOP = 300_000
_DENSE_LAMBDA = brute.lambda_table(_LAMBDA_TOP)


def _streamed(sieve, f, g, specs):
    # additive_convolutions of the walk's tables f and g, held to N // 2,
    # with the blocks above from one walk to N - 1 (FactorSieve.stream)
    N = specs[0].N
    walks = list(dict.fromkeys((f, g)))
    low, blocks = sieve.stream(walks, N - 1, N // 2)
    i, j = walks.index(f), walks.index(g)
    return additive_convolutions(ArithTable(f.name, low[i]), ArithTable(g.name, low[j]), specs,
                                 above=((lo, v[i], v[j]) for lo, v in blocks))


def _dd(dtable, N, M, boundary):
    # sum d(n) d(N - n) over the range that N, M and boundary select
    return additive_convolution(dtable, dtable, ConvolutionSpec(N=N, M=M, boundary=boundary))


def test_spec_validation():
    ConvolutionSpec(N=6, M=3.0, boundary="closed")
    with pytest.raises(UsageError):
        ConvolutionSpec(N=1, M=1.0, boundary="closed")
    with pytest.raises(UsageError):
        ConvolutionSpec(N=6, M=0.5, boundary="closed")
    with pytest.raises(UsageError):
        ConvolutionSpec(N=6, M=7.0, boundary="half_open")
    with pytest.raises(UsageError):
        ConvolutionSpec(N=6, M=6.0, boundary="closed")  # closed needs M <= N-1
    with pytest.raises(UsageError):
        ConvolutionSpec(N=6, M=3.0, boundary="open")


@pytest.mark.parametrize("N", [10.5, 10.0, math.nan, math.inf, -math.inf, "10", None])
def test_spec_rejects_a_non_integer_N(N, dtable_small):
    # no N is truncated into a slice index, and a NaN N is not an M error
    with pytest.raises(UsageError, match="N must be an integer"):
        ConvolutionSpec(N=N, M=3.0, boundary="closed")
    with pytest.raises(UsageError, match="N must be an integer"):
        additive_convolution(dtable_small, dtable_small, ConvolutionSpec(N, 3, "closed"))


@pytest.mark.parametrize("itype", [np.int8, np.int32, np.int64, np.uint16])
def test_spec_and_shifted_sum_accept_numpy_integers(itype, dtable_small):
    d = dtable_small
    spec = ConvolutionSpec(N=itype(100), M=40.0, boundary="closed")
    assert additive_convolution(d, d, spec) == _dd(d, 100, 40.0, "closed")
    assert additive_convolutions(d, d, [spec, spec]) == [_dd(d, 100, 40.0, "closed")] * 2
    assert shifted_divisor_convolution(d, itype(50), itype(3)) == \
        shifted_divisor_convolution(d, 50, 3)


@pytest.mark.parametrize("N, h, name", [
    (5.5, 1, "N"), (5.0, 1, "N"), (math.nan, 1, "N"), (math.inf, 1, "N"),
    (5, 1.5, "h"), (5, 1.0, "h"), (5, math.nan, "h"), (5, -math.inf, "h"),
])
def test_shifted_sum_rejects_a_non_integer_N_or_h(N, h, name, dtable_small):
    with pytest.raises(UsageError, match=f"{name} must be an integer"):
        shifted_divisor_convolution(dtable_small, N, h)


def test_last_index_conventions():
    # closed sums n <= floor(M); half-open sums n <= ceil(M) - 1
    assert ConvolutionSpec(N=10, M=3.5, boundary="closed").last_index == 3
    assert ConvolutionSpec(N=10, M=3.5, boundary="half_open").last_index == 3
    assert ConvolutionSpec(N=10, M=3.0, boundary="closed").last_index == 3
    assert ConvolutionSpec(N=10, M=3.0, boundary="half_open").last_index == 2
    assert ConvolutionSpec(N=10, M=1.0, boundary="half_open").last_index == 0


def test_additive_examples(dtable_small):
    d = dtable_small
    assert additive_convolution(d, d, ConvolutionSpec(N=6, M=6.0, boundary="half_open")) == 20
    assert additive_convolution(d, d, ConvolutionSpec(N=6, M=3.0, boundary="closed")) == 12
    assert additive_convolution(d, d, ConvolutionSpec(N=6, M=1.0, boundary="half_open")) == 0


def test_divisor_convolution_examples(dtable_small):
    assert _dd(dtable_small, 4, 4.0, "half_open") == 8
    assert _dd(dtable_small, 6, 3.0, "closed") == 12
    assert _dd(dtable_small, 2, 2.0, "half_open") == 1


def test_half_integer_M(dtable_small):
    d = dtable_small.values
    lit = sum(int(d[n]) * int(d[10 - n]) for n in range(1, 5))
    assert _dd(dtable_small, 10, 4.5, "closed") == lit
    assert _dd(dtable_small, 10, 4.5, "half_open") == lit


_EISENSTEIN_PAIRS = [(1, 1), (1, 3), (3, 3)]


@pytest.mark.parametrize("a, b", _EISENSTEIN_PAIRS)
def test_eisenstein_identities_at_every_N_to_2000(sieve_small, a, b):
    # sigma_1 and sigma_3 to 2000: float64 dots, and int64 runs and Python
    # ints as sigma_3 grows; the grid of every N reads f's float64 image
    tables = {k: tabulate(sieve_small, "sigma", 2000, s=k) for k in (1, 3)}
    Ns = range(2, 2001)
    specs = [ConvolutionSpec(N=N, M=N, boundary="half_open") for N in Ns]
    expected = [brute.eisenstein_sum(factorize(sieve_small, N), a, b) for N in Ns]
    assert [additive_convolution(tables[a], tables[b], spec) for spec in specs] == expected
    assert additive_convolutions(tables[a], tables[b], specs) == expected


@pytest.fixture(scope="module")
def sigma_tables_past_2_20():
    sv = build_sieve(math.isqrt(1_081_080))
    return sv, {k: tabulate(sv, "sigma", 1_081_080, s=k) for k in (1, 3)}


# a prime and 2**20 just below 2**20 and a highly composite N (256
# divisors) above it; an odd prime and a highly composite N (240 divisors)
# below 10**6.  sigma_1 * sigma_1 takes int64 runs there, and the pairs with
# sigma_3 Python ints
@pytest.mark.parametrize("N", [1_048_573, 1_048_576, 1_081_080, 999_983, 997_920])
@pytest.mark.parametrize("a, b", _EISENSTEIN_PAIRS)
def test_eisenstein_identities_whole_and_streamed(sigma_tables_past_2_20, a, b, N):
    sv, tables = sigma_tables_past_2_20
    spec = ConvolutionSpec(N=N, M=N, boundary="half_open")
    expected = brute.eisenstein_sum(factorize(sv, N), a, b)
    assert additive_convolution(tables[a], tables[b], spec) == expected
    f, g, above = walked_halves(sv, ("sigma", a), ("sigma", b), N)
    assert additive_convolution(f, g, spec, above=above) == expected


def test_eisenstein_sigma_1_pair_at_ten_million():
    # the identity's value is computed here, not stored, so it holds
    # across a declared change elsewhere
    N = 10**7
    sv = build_sieve(math.isqrt(N))
    f, g, above = walked_halves(sv, ("sigma", 1), ("sigma", 1), N)
    exact = additive_convolution(f, g, ConvolutionSpec(N=N, M=N, boundary="half_open"), above=above)
    assert exact == brute.eisenstein_sum(factorize(sv, N), 1, 1)


def test_shifted_sum_refuses_a_table_other_than_d(sieve_small):
    with pytest.raises(UsageError, match=r"^need a divisor table, got kind 'sigma\(1\)'$"):
        shifted_divisor_convolution(tabulate(sieve_small, "sigma", 100, s=1), 10, 1)


def test_shifted_examples(dtable_small):
    assert shifted_divisor_convolution(dtable_small, 5, 1) == 26
    assert shifted_divisor_convolution(dtable_small, 1, 1) == 2
    assert shifted_divisor_convolution(dtable_small, 3, 2) == 12


def test_shifted_sum_takes_sigma_zero_as_the_divisor_table(sieve_small):
    # sigma with s = 0 is the divisor table, by name too: it was tagged
    # "sigma(0)" and refused as no divisor table
    sigma0 = tabulate(sieve_small, "sigma", 200, s=0)
    assert shifted_divisor_convolution(sigma0, 100, 3) == \
        shifted_divisor_convolution(tabulate(sieve_small, "divisor", 200), 100, 3)


def test_shifted_table_too_short(sieve_small):
    short = tabulate(sieve_small, "divisor", 10)
    with pytest.raises(UsageError):
        shifted_divisor_convolution(short, 10, 1)


def test_table_too_short(sieve_small):
    short = tabulate(sieve_small, "divisor", 4)
    with pytest.raises(UsageError):
        additive_convolution(short, short, ConvolutionSpec(N=6, M=6.0, boundary="half_open"))


def test_result_type_follows_table_dtypes(sieve_small):
    # int x int sums exactly to a Python int; a float table anywhere gives a float
    d = tabulate(sieve_small, "divisor", 10)
    mu = tabulate(sieve_small, "mobius", 10)
    lam = ArithTable("lambda", brute.lambda_table(10))
    sn = tabulate(sieve_small, "sigma_norm", 10, s=1.0)
    spec = ConvolutionSpec(N=6, M=3.0, boundary="closed")
    got = additive_convolution(d, d, spec)
    assert type(got) is int and got == 1 * 2 + 2 * 3 + 2 * 2
    assert type(additive_convolution(sn, sn, spec)) is float
    mixed = additive_convolution(mu, lam, spec)
    assert type(mixed) is float
    assert mixed == sum(int(mu.values[n]) * lam.values[6 - n] for n in range(1, 4))
    # an empty range keeps the type
    empty = ConvolutionSpec(N=6, M=1.0, boundary="half_open")
    assert type(additive_convolution(d, d, empty)) is int
    assert type(additive_convolution(mu, lam, empty)) is float


def test_palindrome_identity(dtable_small):
    d = dtable_small
    for N in range(2, 1001):
        full = _dd(d, N, float(N), "half_open")
        if N % 2 == 0:
            half = _dd(d, N, N / 2.0, "half_open")
            mid = int(d.values[N // 2])
            assert full == 2 * half + mid * mid, N
        else:
            closed = _dd(d, N, (N - 1) / 2.0, "closed")
            assert full == 2 * closed, N


def test_complement_identity(dtable_small):
    # each N's whole grid of M in one additive_convolutions call
    d = dtable_small
    for N in range(2, 501):
        halves = [ConvolutionSpec(N=N, M=float(M), boundary="half_open") for M in range(1, N + 1)]
        closed = [ConvolutionSpec(N=N, M=float(N - M), boundary="closed") for M in range(1, N)]
        sums = additive_convolutions(d, d, halves + closed)
        half, rest = sums[:N], sums[N:]
        full = half[-1]
        assert full == _dd(d, N, float(N), "half_open")
        for M in range(1, N + 1):
            if M == N:
                assert half[M - 1] == full
            else:
                assert half[M - 1] == full - rest[M - 1], (N, M)


def test_divisor_sum_matches_literal_sum(dtable_small):
    v = dtable_small.values
    for N in (2, 7, 48, 120):
        for M in range(1, N + 1):
            lit = sum(int(v[n]) * int(v[N - n]) for n in range(1, M))
            assert _dd(dtable_small, N, float(M), "half_open") == lit, (N, M)
            if M < N:
                assert _dd(dtable_small, N, float(M), "closed") == lit + int(v[M]) * int(v[N - M])


def test_real_mode_matches_fsum(sieve_1m):
    # chunked reduction vs. a single fsum; range long enough to span chunks
    N = 300_000
    f = tabulate(sieve_1m, "sigma_norm", N, s=1.0)
    spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
    got = additive_convolution(f, f, spec)
    v = f.values
    ref = math.fsum(float(v[n]) * float(v[N - n]) for n in range(1, N))
    assert got == pytest.approx(ref, rel=1e-12)


def test_int_mode_python_fallback():
    # magnitudes force the bound check past int64 and into python ints
    N = 10
    vals = np.full(N + 1, 2**31, dtype=np.int64)
    vals[0] = 0
    t = ArithTable("custom", vals)
    spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
    got = additive_convolution(t, t, spec)
    assert got == 9 * 2**62
    assert isinstance(got, int)


def test_writable_table_is_bounded_on_every_sum():
    # no bound outlives a sum, so a table written between sums is bounded afresh
    N = 10
    vals = np.ones(N + 1, dtype=np.int64)
    t = ArithTable("custom", vals)
    spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
    specs = [ConvolutionSpec(N=n, M=float(n), boundary="half_open") for n in (10, 2, 5, 10)]
    assert additive_convolution(t, t, spec) == 9
    assert additive_convolutions(t, t, specs) == [9, 1, 4, 9]
    vals[:] = 2**31
    assert additive_convolution(t, t, spec) == 9 * 2**62
    assert additive_convolutions(t, t, specs) == [9 * 2**62, 2**62, 4 * 2**62, 9 * 2**62]


def test_table_length_comes_from_values():
    # the values cover 1..10, so a sum reading past 10 is refused, not summed
    vals = np.full(11, 2**31, dtype=np.int64)
    vals[0] = 0
    t = ArithTable("custom", vals)
    assert t.N == len(vals) - 1 == 10
    with pytest.raises(UsageError):
        additive_convolution(t, t, ConvolutionSpec(N=15, M=15.0, boundary="half_open"))
    with pytest.raises(UsageError):
        additive_convolution(t, ArithTable("custom", np.ones(40, dtype=np.int64)),
                             ConvolutionSpec(N=30, M=12.0, boundary="half_open"))


def test_read_only_view_of_writable_array_is_bounded_on_every_sum():
    # a read-only view changes with its base, and each sum bounds what it reads then
    base = np.ones(1001, dtype=np.int64)
    v = base.view()
    v.setflags(write=False)
    t = ArithTable("custom", v)
    spec = ConvolutionSpec(N=1000, M=1000.0, boundary="half_open")
    specs = [ConvolutionSpec(N=n, M=float(n), boundary="half_open") for n in (1000, 500, 1000)]
    assert additive_convolution(t, t, spec) == 999
    assert additive_convolutions(t, t, specs) == [999, 499, 999]
    base[1:] = 3 * 10**9
    assert additive_convolution(t, t, spec) == 999 * (3 * 10**9) ** 2
    assert additive_convolutions(t, t, specs) == [k * (3 * 10**9) ** 2 for k in (999, 499, 999)]


def test_int_mode_matches_python_sum(dtable_small):
    d = dtable_small
    N = 9000
    spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
    got = additive_convolution(d, d, spec)
    v = d.values
    assert got == sum(int(v[n]) * int(v[N - n]) for n in range(1, N))


def test_lattice_examples():
    assert brute.lattice_count_S(6, 3) == 12
    assert brute.lattice_count_S(4, 2) == 6
    assert brute.lattice_count_S(6, 6) == 20


def test_lattice_against_quadruple_brute():
    for N in range(2, 18):
        for M in (1, 2, N // 2, N - 1, N):
            if M < 1:
                continue
            assert brute.lattice_count_S(N, M) == brute.lattice_count(N, M), (N, M)


def test_lattice_matches_convolution(dtable_small):
    for N in range(4, 61):
        for M in range(1, N + 1):
            conv = _dd(dtable_small, N, float(min(M, N - 1)), "closed")
            assert brute.lattice_count_S(N, M) == conv, (N, M)


def test_lattice_domain():
    with pytest.raises(UsageError):
        brute.lattice_count_S(10_001, 5)
    with pytest.raises(UsageError):
        brute.lattice_count_S(1, 1)
    with pytest.raises(UsageError):
        brute.lattice_count_S(10, 0)
    with pytest.raises(UsageError):
        brute.lattice_count_S(10, 11)


def test_tau_examples():
    assert tau_exact(1.0) == 1.0
    assert tau_exact(2.0) == 2.0
    assert tau_exact(4.0) == pytest.approx(19.0 / 6.0, rel=1e-15)


def test_tau_against_brute():
    for y in (1.0, 2.0, 3.5, 4.0, 7.0, 10.0, 25.3, 100.0, 200.0):
        assert tau_exact(y) == pytest.approx(brute.tau(y), rel=1e-12), y


def test_tau_domain():
    with pytest.raises(UsageError):
        tau_exact(0.5)
    with pytest.raises(UsageError):
        tau_exact(1.1e7)


def test_tau_matches_brute_every_integer_to_300():
    # crosses the exact/series switch of H at 64 and many d**2 boundaries
    for y in range(1, 301):
        assert tau_exact(float(y)) == pytest.approx(brute.tau(y), rel=1e-13), y
    for y in (1.5, 3.99, 8.25, 63.5, 64.75, 120.01, 299.9):
        assert tau_exact(y) == pytest.approx(brute.tau(y), rel=1e-13), y


def test_tau_against_fsum_oracle():
    y = 1e5
    ref = brute.tau_fsum(y)
    assert abs(tau_exact(y) - ref) <= 1e-14 * ref


def test_tau_bit_identical_to_the_per_d_loop():
    # one array pass over every square-free d, one np.sum per d, added in ascending d
    ys = [*range(1, 301), 63.5, 64, 64.75, 4095, 4096, 10**4, 99_991, 10**5,
          1_999_865, 1_999_440, 9_999_991, 10**7]
    for y in ys:
        assert tau_exact(float(y)) == brute.tau_per_d(float(y)), y


def test_tau_repeated_calls_bit_identical():
    for y in (1.0, 4.0, 299.9, 1e5, 1999865.0):
        assert tau_exact(y).hex() == tau_exact(y).hex(), y


def test_tau_rejects_non_finite():
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(UsageError):
            tau_exact(y)


def test_real_mode_bit_identical_to_whole_product(sieve_1m):
    # chunk-wise products reduce to the bits of the whole product summed in the same chunks
    N = 300_000
    f = tabulate(sieve_1m, "sigma_norm", N, s=0.5)
    g = ArithTable("lambda", brute.lambda_table(N))
    spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
    prod = f.values[1:N].astype(np.float64) * g.values[N - 1 : 0 : -1]
    ref = 0.0
    for i in range(0, len(prod), 1 << 16):
        ref += float(np.sum(prod[i : i + (1 << 16)]))
    assert additive_convolution(f, g, spec) == ref


@pytest.mark.parametrize("N", [
    2 * _SEGMENT - 1, 2 * _SEGMENT, 2 * _SEGMENT + 1,
    2 * _SEGMENT + _CHUNK - 1, 2 * _SEGMENT + _CHUNK, 2 * _SEGMENT + _CHUNK + 1,
    6 * _SEGMENT - 10,  # the first block above N // 2 is 4 entries long
])
def test_streamed_sums_bit_identical_to_real_dot_on_whole_tables(N):
    # the walk holds each table to N // 2 and streams the rest in 2**18
    # blocks, so these N put the middle, the block edges and the chunk
    # edges in every position; each M's sum is real_dot over the whole
    # tables, and so is additive_convolutions', bit for bit
    sieve = build_sieve(math.isqrt(N))
    Ms = [1, 1.5, 2, _CHUNK, _CHUNK + 1, N / 2 - 1, N / 2, N / 2 + 1, N - 1]
    specs = [ConvolutionSpec(N=N, M=M, boundary="half_open") for M in Ms]
    specs += [ConvolutionSpec(N=N, M=M, boundary="closed") for M in (N // 2, N - 1)]
    for a, b in ((0.5, 0.5), (0.5, 1.5)):
        f = tabulate(sieve, "sigma_norm", N, s=a).values
        g = tabulate(sieve, "sigma_norm", N, s=b).values
        ref = [real_dot(f[1 : s.last_index + 1], g[N - 1 : N - s.last_index - 1 : -1])
               for s in specs]
        got = _streamed(sieve, walk("sigma_norm", a), walk("sigma_norm", b), specs)
        whole = additive_convolutions(ArithTable("f", f), ArithTable("g", g), specs)
        assert [x.hex() for x in got] == [x.hex() for x in ref], (a, b)
        assert [x.hex() for x in whole] == [x.hex() for x in ref], (a, b)


def test_streamed_sums_small_N_and_one_N_per_grid(sieve_small):
    # N below one block, N = 2 where the one summand is held, and a real
    # table against an integer one; a grid of two N is refused
    for N in (2, 3, 4, 5, 1000, 1001):
        specs = [ConvolutionSpec(N=N, M=M, boundary="half_open") for M in range(1, N + 1)]
        f = tabulate(sieve_small, "sigma_norm", N, s=0.5).values
        g = tabulate(sieve_small, "divisor", N).values
        ref = [real_dot(f[1 : s.last_index + 1], g[N - 1 : N - s.last_index - 1 : -1])
               for s in specs]
        got = _streamed(sieve_small, walk("sigma", -0.5), walk("divisor"), specs)
        assert [x.hex() for x in got] == [x.hex() for x in ref], N
    half = tabulate(sieve_small, "divisor", 5)
    assert additive_convolutions(half, half, [], above=iter(())) == []
    with pytest.raises(UsageError, match="one N"):
        additive_convolutions(half, half, [ConvolutionSpec(N=10, M=5, boundary="closed"),
                                           ConvolutionSpec(N=11, M=5, boundary="closed")],
                              above=iter(()))
    # the held tables must end at N // 2, where the blocks begin
    for N in (9, 12):
        with pytest.raises(UsageError, match=r"f and g on 1\.\.%d" % (N // 2)):
            additive_convolutions(half, half, [ConvolutionSpec(N=N, M=3, boundary="closed")],
                                  above=iter(()))


def test_overflowing_real_sums_raise(sieve_small):
    # sigma_60 to 10**5 is finite, its products are not
    N = 100_000
    spec = ConvolutionSpec(N=N, M=500.0, boundary="closed")
    with pytest.raises(UsageError, match="the sum overflows float64"):
        _streamed(sieve_small, walk("sigma_norm", -60.0), walk("sigma_norm", -60.0), [spec])
    f = tabulate(sieve_small, "sigma_norm", N, s=-60.0)
    with pytest.raises(UsageError, match="the sum overflows float64"):
        additive_convolutions(f, f, [ConvolutionSpec(N=N, M=3.0, boundary="closed"), spec])


_INT_WALKS = (MOBIUS, PHI, walk("divisor"), walk("sigma", 1), walk("sigma", 2), walk("sigma", 3))


def _specs(N, Ms):
    return ([ConvolutionSpec(N=N, M=M, boundary="half_open") for M in Ms]
            + [ConvolutionSpec(N=N, M=M, boundary="closed") for M in Ms if M <= N - 1])


def test_streamed_integer_sums_equal_the_whole_table_sums(monkeypatch):
    # every pair of the walk's integer tables, each held to N // 2 and
    # streamed above it, at every N <= 1000: every M up to N = 24 and at
    # N = 1000, the ends, the middle and a random M elsewhere.  sigma_2
    # with itself reaches the int64 runs, sigma_3 with itself the Python
    # ints, and the rest stay float64 dots; each sum is the exact int of
    # the whole tables' additive_convolutions.  memo holds the tables to
    # 1000, so each walk resumes above N // 2, from memo's own tables or,
    # where the dtype of a table to N - 1 differs, from copies in it
    top, rng = 1000, random.Random(5)
    sieve = build_sieve(math.isqrt(top))
    sieve.prepare(_INT_WALKS, top)
    whole = [ArithTable(w.name, sieve.stream([w], top, top)[0][0]) for w in _INT_WALKS]
    cases = []
    for N in range(2, top + 1):
        if N <= 24 or N == top:
            Ms = range(1, N + 1)
        else:
            Ms = sorted({1, N // 2, N - 1, rng.randint(1, N)})
        specs = _specs(N, [*Ms, N / 2 + 0.5])
        refs = {(i, j): additive_convolutions(whole[i], whole[j], specs)
                for i, j in itertools.combinations_with_replacement(range(len(whole)), 2)}
        cases.append((N, specs, refs))
    tiers = set()
    exact = convolution._exact_int_sum

    def spying(fa, ga, fmax=None, gmax=None):
        tiers.add(_run_length(_abs_max(fa), _abs_max(ga)) >= _MIN_RUN)
        return exact(fa, ga, fmax, gmax)

    monkeypatch.setattr(convolution, "_exact_int_sum", spying)
    for N, specs, refs in cases:
        low, blocks = sieve.stream(list(_INT_WALKS), N - 1, N // 2)
        blocks = [(lo, [view.copy() for view in views]) for lo, views in blocks]
        for (i, j), ref in refs.items():
            above = [(lo, views[i], views[j]) for lo, views in blocks]
            got = additive_convolutions(ArithTable(_INT_WALKS[i].name, low[i]),
                                        ArithTable(_INT_WALKS[j].name, low[j]), specs, above=above)
            assert all(type(x) is int for x in got) and got == ref, (N, i, j)
    assert tiers == {True, False}  # the int64 runs and the Python ints


def test_streamed_integer_sums_bound_the_blocks_they_read():
    # tables of ones held to N // 2 and 2**40 + 1 above it: a chunk's tier
    # must read the blocks' max|value| too, or its float64 dot of 2**16
    # products past 2**40 drops their low bits
    N = 4 * _CHUNK + 10
    values = np.ones(N, dtype=np.int64)
    values[N // 2 + 1 :] = 2**40 + 1
    low = ArithTable("f", values[: N // 2 + 1])
    specs = _specs(N, [_CHUNK, 2 * _CHUNK + 3, N - 1])
    above = [(N // 2 + 1, values[N // 2 + 1 :], values[N // 2 + 1 :])]
    got = additive_convolutions(low, low, specs, above=above)
    assert got == [brute.additive_sum(values, values, N, spec.last_index) for spec in specs]


@pytest.mark.parametrize("N", [2 * _SEGMENT + _CHUNK + 1, 6 * _SEGMENT - 10])
def test_streamed_integer_sums_across_blocks(N):
    # the block and chunk edges in every position, as for the real sums
    # above, in each tier: sigma_1 d in float64 dots, sigma_2 d in int64
    # runs and sigma_2 sigma_2 in Python ints, for M to N // 2 + 1
    sieve = build_sieve(math.isqrt(N))
    specs = _specs(N, [1, 2, _CHUNK, _CHUNK + 1, N / 2 - 1, N / 2, N / 2 + 1, N - 1])
    d, s1, s2 = walk("divisor"), walk("sigma", 1), walk("sigma", 2)
    for f, g in ((s1, d), (d, s2), (s2, s2)):
        if f == g == s2:
            specs = [spec for spec in specs if spec.last_index <= N // 2 + 1]
        ref = additive_convolutions(ArithTable(f.name, sieve.stream([f], N, N)[0][0]),
                                    ArithTable(g.name, sieve.stream([g], N, N)[0][0]), specs)
        assert _streamed(sieve, f, g, specs) == ref, (f, g)


@pytest.mark.parametrize("f, g", [(walk("sigma", 1), walk("divisor")),
                                  (walk("sigma", 2), walk("divisor"))], ids=lambda w: w.name)
def test_streamed_integer_sums_scan_each_piece_once(f, g, monkeypatch):
    # float64 dots (sigma_1 d) and int64 runs (sigma_2 d): each held half
    # is scanned once, and each piece of the blocks above at most once,
    # the same pieces for one M that reads every piece and for a grid of 40
    N = 2 * _SEGMENT + _CHUNK + 1
    held = N // 2
    sieve = build_sieve(math.isqrt(N))
    scanned = []
    abs_max = convolution._abs_max
    monkeypatch.setattr(convolution, "_abs_max", lambda a: scanned.append(len(a)) or abs_max(a))
    whole = [ArithTable(w.name, sieve.stream([w], N, N)[0][0]) for w in (f, g)]
    grids = [[N], [N, *range(1, N, N // 39)]]
    for Ms in grids:
        specs = _specs(N, Ms)
        del scanned[:]
        got = _streamed(sieve, f, g, specs)
        assert scanned[:2] == [held, held], Ms
        pieces = scanned[2:]
        # the pieces of f and g above held, and g(N / 2) at even N
        assert all(size <= _CHUNK for size in pieces)
        assert sum(pieces) <= 2 * (N - 1 - held) + 1
        if Ms == grids[0]:
            one = pieces
        assert pieces == one, len(Ms)
        assert got == additive_convolutions(*whole, specs)


_INT_DTYPES = (np.int8, np.int32, np.int64)


def _draw_int_array(draw, dtype, magnitude, k):
    # k values of dtype with max |v| == magnitude, possibly all equal to that
    # extreme (so the sum reaches the bound) and possibly a negative-stride view
    info = np.iinfo(dtype)
    negative = magnitude > info.max or draw(st.booleans())
    extreme = -magnitude if negative else magnitude
    if draw(st.booleans()):
        vals = [extreme] * k
    else:
        vals = draw(st.lists(st.integers(-magnitude, min(magnitude, info.max)), min_size=k, max_size=k))
        vals[draw(st.integers(0, k - 1))] = extreme
    arr = np.array(vals, dtype=dtype)
    if draw(st.booleans()):
        arr = np.ascontiguousarray(arr[::-1])[::-1]
    return arr


@st.composite
def _int_pairs_near_2_62(draw):
    """(f, g, over) with bound = k * max|f| * max|g| next to 2**62.

    over: bound is the least value >= 2**62, 2**63 or 2**64 the magnitudes
    allow (past 2**63 an int64 sum of extremes overflows); otherwise it is
    the largest value below 2**62.
    """
    k = draw(st.integers(1, 64))
    gtype = draw(st.sampled_from(_INT_DTYPES))
    gmin = -int(np.iinfo(gtype).min)  # |dtype min|, which np.abs cannot represent
    gmax = draw(st.one_of(st.just(gmin), st.integers(1, gmin)))
    over = draw(st.booleans())
    if over:
        fmax = -(-(2 ** (62 + draw(st.integers(0, 2)))) // (k * gmax))
    else:
        fmax = (2**62 - 1) // (k * gmax)
    fits = [t for t in _INT_DTYPES if 1 <= fmax <= -int(np.iinfo(t).min)]
    assume(fits)
    f = _draw_int_array(draw, draw(st.sampled_from(fits)), fmax, k)
    g = _draw_int_array(draw, gtype, gmax, k)
    if draw(st.booleans()):
        f, g = g, f
    return f, g, over


@settings(max_examples=300, deadline=None)
@given(_int_pairs_near_2_62())
def test_exact_int_sum_at_int64_boundary(case):
    f, g, over = case
    bound = len(f) * max(abs(int(v)) for v in f) * max(abs(int(v)) for v in g)
    assert (bound >= 2**62) == over  # over: the widening fallback; else the einsum path
    got = _exact_int_sum(f, g)
    assert isinstance(got, int)
    assert got == sum(int(a) * int(b) for a, b in zip(f.tolist(), g.tolist()))


def _frozen_table(vals, dtype):
    values = np.array(vals, dtype=dtype)
    values.setflags(write=False)
    return ArithTable("custom", values)


@st.composite
def _tables_with_extremes_in_the_sum(draw):
    """(f, g, spec, mode): int tables whose summed slices reach max |value| F and G.

    mode "under" or "over" puts k * F * G just below or at or above
    2**62; "free" draws the magnitudes anywhere in their dtypes.  Outside
    the summed slices any value of the dtype may sit, which no bound reads.
    """
    k = draw(st.integers(1, 64))
    N = k + 1 + draw(st.integers(1, 8))
    ftype, gtype = draw(st.sampled_from(_INT_DTYPES)), draw(st.sampled_from(_INT_DTYPES))
    G = draw(st.integers(1, -int(np.iinfo(gtype).min)))
    mode = draw(st.sampled_from(("free", "under", "over")))
    if mode == "under":
        F = (2**62 - 1) // (k * G)
    elif mode == "over":
        F = -(-(2**62) // (k * G))
    else:
        F = draw(st.integers(1, -int(np.iinfo(ftype).min)))
    assume(1 <= F <= -int(np.iinfo(ftype).min))

    def table(dtype, magnitude, inside, outside):
        info = np.iinfo(dtype)
        vals = [0] * (N + 1)
        for i in inside:
            vals[i] = draw(st.integers(-magnitude, min(magnitude, info.max)))
        extreme = magnitude if magnitude <= info.max and draw(st.booleans()) else -magnitude
        vals[draw(st.sampled_from(inside))] = extreme
        for i in outside:
            vals[i] = draw(st.integers(int(info.min), int(info.max)))
        return _frozen_table(vals, dtype)

    # f sums f[1..k] and g sums g[N-k..N-1]
    f = table(ftype, F, list(range(1, k + 1)), list(range(k + 1, N + 1)))
    g = table(gtype, G, list(range(N - k, N)), list(range(1, N - k)) + [N])
    boundary = draw(st.sampled_from(("half_open", "closed")))
    M = float(k + 1 if boundary == "half_open" else k)
    spec = ConvolutionSpec(N=N, M=M, boundary=boundary)
    return f, g, spec, mode


@settings(max_examples=300, deadline=None)
@given(_tables_with_extremes_in_the_sum())
def test_additive_convolution_exact_with_slice_bounds(case):
    f, g, spec, mode = case
    N, k = spec.N, spec.last_index
    fmax = max(abs(int(v)) for v in f.values[1 : k + 1])
    gmax = max(abs(int(v)) for v in g.values[N - k : N])
    if mode != "free":
        assert (k * fmax * gmax >= 2**62) == (mode == "over")
    got = additive_convolution(f, g, spec)
    assert isinstance(got, int)
    assert got == sum(int(f.values[n]) * int(g.values[N - n]) for n in range(1, k + 1))


def test_additive_convolutions_scan_the_union_of_their_slices(monkeypatch, dtable_small):
    # one scan per table, of the union of the grid's slices: f[1..max k]
    # and g[min(N - k)..max(N) - 1], not of the whole table
    scanned = []
    abs_max = convolution._abs_max
    monkeypatch.setattr(convolution, "_abs_max", lambda a: scanned.append(len(a)) or abs_max(a))
    d = dtable_small
    specs = [ConvolutionSpec(N=N, M=M, boundary="closed")
             for N, M in ((3000, 1000.0), (5000, 100.0), (4000, 2000.0))]
    got = additive_convolutions(d, d, specs)
    v = d.values.tolist()
    assert got == [brute.additive_sum(v, v, s.N, s.last_index) for s in specs]
    assert scanned == [2000, 5000 - 2000]


@pytest.mark.parametrize("fvals, gvals, dtype", [
    # |f| * |g| = 46341**2 = 2**31 + 4633 wraps an int32 product
    ([46341, -46341, 46341], [46341, 46341, -46341], np.int32),
    # 2**16 * 2**15 = 2**31, one past the int32 maximum
    ([2**16, 2**16, -(2**16)], [2**15, -(2**15), 2**15], np.int32),
    # (-128) * (-1) = 128 wraps an int8 product
    ([-128, -128, 5], [-1, -1, -128], np.int8),
    # |f| * |g| = 2**31 - 1 fits, so the products stay int32
    ([2**31 - 1, -(2**31 - 1), 7], [1, 1, -1], np.int32),
    # 182 * 181 = 32942 wraps an int16 product, as two int16 d tables' could
    ([182, -182, 181], [181, 181, -182], np.int16),
    # |f| * |g| = 181**2 = 32761 fits, so the products stay int16
    ([181, -181, 7], [181, 181, -181], np.int16),
])
def test_chunk_products_never_wrap(fvals, gvals, dtype):
    # 210 000 summands: several 2**16 chunks, the last one partial
    reps = 70_000
    f = _frozen_table([0] + fvals * reps, dtype)
    g = _frozen_table([0] + gvals * reps, dtype)
    N = f.N + 1
    spec = ConvolutionSpec(N=N, M=float(f.N), boundary="closed")
    fv, gv = f.values.tolist(), g.values.tolist()
    assert additive_convolution(f, g, spec) == sum(fv[n] * gv[N - n] for n in range(1, N))


@pytest.mark.parametrize("fmax, gmax", [
    (2**25 + 3, 2**25 - 5),  # runs of 4096 summands
    (3 * 10**8, 10**8),  # runs of 153
    (2**28 + 1, 2**28 + 1),  # runs of 63: Python ints
])
def test_exact_sum_runs_at_the_chunk_boundary(fmax, gmax):
    # each int64 run holds L = 2**62 // (fmax * gmax) summands, so no run's
    # sum can wrap; a sum of 3L + 1 maximal products would wrap in one run
    L = 2**62 // (fmax * gmax)
    assert _run_length(fmax, gmax) == L
    assert (L < _MIN_RUN) == (fmax == 2**28 + 1)
    rng = np.random.default_rng(0)
    for k in (L - 1, L, L + 1, 2 * L - 1, 2 * L, 2 * L + 1, 3 * L + 1):
        f = np.full(k, fmax, dtype=np.int64)
        g = np.full(k, gmax, dtype=np.int64)
        assert _exact_int_sum(f, g, fmax, gmax) == k * fmax * gmax, k
        f = f * rng.choice([-1, 1], size=k)
        g[rng.integers(0, k, size=k // 3)] //= 7
        ref = sum(int(a) * int(b) for a, b in zip(f.tolist(), g.tolist()))
        assert _exact_int_sum(f, g, fmax, gmax) == ref, k


def _held_sums(f, g, specs, sizes=None, seed=0):
    # additive_convolutions of the arrays f and g held to N // 2 for each
    # N of specs, with the rest passed as blocks: a first one of 5
    # entries, then _CHUNK + 7 each, or every length drawn from sizes.
    # Each block passes through one reused buffer per table, as the
    # walk's blocks do
    rng = random.Random(seed)
    sums = {}
    for N in dict.fromkeys(s.N for s in specs):
        grid = [s for s in specs if s.N == N]
        h = N // 2
        cuts = [h + 1]
        while cuts[-1] < N:
            step = rng.choice(sizes) if sizes else 5 if len(cuts) == 1 else _CHUNK + 7
            cuts.append(min(cuts[-1] + step, N))

        def above(cuts=cuts):
            width = max(np.diff(cuts), default=0)
            fbuf, gbuf = np.empty(width, f.dtype), np.empty(width, g.dtype)
            for a, b in zip(cuts, cuts[1:]):
                fbuf[: b - a], gbuf[: b - a] = f[a:b], g[a:b]
                yield a, fbuf[: b - a], gbuf[: b - a]

        got = additive_convolutions(ArithTable("custom", f[: h + 1]),
                                    ArithTable("custom", g[: h + 1]), grid, above=above())
        sums.update(zip(grid, got))
    return [sums[s] for s in specs]


@pytest.mark.parametrize("N", [3 * _CHUNK + 5, 3 * _CHUNK + 6])
def test_streamed_sums_over_blocks_of_any_length(N):
    # the entries above N // 2 cut into blocks of random lengths, from one
    # entry to _CHUNK - 1: each real sum keeps real_dot's bits over the
    # whole tables, and each integer sum the whole tables' value
    rng = np.random.default_rng(N)
    ks = sorted({1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, N // 2 - 1, N // 2, N // 2 + 1,
                 2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK, N - 2, N - 1,
                 *rng.integers(1, N, size=5).tolist()})
    specs = _specs(N, [k + 1 for k in ks]) + _specs(N, [k + 0.5 for k in ks])
    real = rng.standard_normal(N), rng.uniform(0, 3, N)
    ints = rng.integers(-(2**40), 2**40, N), rng.integers(0, 2**15, N).astype(np.int16)
    sizes = (1, 2, 3, 7, 4096, _CHUNK - 1)
    for seed in range(4):
        got = _held_sums(*real, specs, sizes, seed)
        ref = [real_dot(real[0][1 : s.last_index + 1], real[1][N - 1 : N - s.last_index - 1 : -1])
               for s in specs]
        assert [x.hex() for x in got] == [x.hex() for x in ref], seed
        whole = additive_convolutions(ArithTable("custom", ints[0]), ArithTable("custom", ints[1]),
                                      specs)
        assert _held_sums(*ints, specs, sizes, seed) == whole, seed


@pytest.mark.parametrize("kind", ["divisor", "sigma_norm"])
def test_streamed_sums_refuse_blocks_that_do_not_tile(sieve_small, kind):
    # the blocks above N // 2 must tile N // 2 + 1..N - 1 in order with f
    # and g parts of one length: blocks that stop short, leave a gap,
    # overlap or run past N - 1 would give wrong sums, so each is refused
    N = 300_001
    h = N // 2
    t = tabulate(sieve_small, kind, N, **({"s": 0.5} if kind == "sigma_norm" else {})).values
    low = ArithTable(kind, t[: h + 1])
    spec = ConvolutionSpec(N=N, M=N - 1, boundary="closed")
    whole = additive_convolution(ArithTable(kind, t), ArithTable(kind, t), spec)
    if kind == "divisor":
        assert whole == 35658772

    def blocks(*edges):
        # a block on [a, b) for each pair a, b of edges
        return [(a, t[a:b], t[a:b]) for a, b in zip(edges[::2], edges[1::2])]

    assert additive_convolution(low, low, spec, above=blocks(h + 1, h + 1001, h + 1001, N)) == whole
    for above in (blocks(h + 1, N - 10),  # short of N - 1
                  blocks(h + 1, h + 1001, h + 1101, N),  # a gap
                  blocks(h + 2, N),  # a gap at N // 2 + 1
                  blocks(h + 1, h + 1001, h + 901, N),  # an overlap
                  blocks(h + 1, N + 1),  # past N - 1
                  [(h + 1, t[h + 1 : N], t[h + 1 : N - 1])],  # f and g of two lengths
                  iter(())):  # no block at all
        with pytest.raises(UsageError, match=r"must tile 150001\.\.300000"):
            additive_convolution(low, low, spec, above=above)


@pytest.mark.parametrize("fmax, gmax, dtype", [
    (2**20, 2**17, np.int32),  # _CHUNK * fmax * gmax == 2**53: float64 dots
    (2**37, 1, np.int64),  # the same bound from one table
    (181, 181, np.int16),  # d-sized products: float64 dots
    (2**20 + 1, 2**17, np.int32),  # one past 2**53: int64 runs
])
def test_exact_sums_at_the_float64_boundary(fmax, gmax, dtype, monkeypatch):
    # a float64 dot of _CHUNK maximal products sums to _CHUNK * fmax * gmax,
    # exactly 2**53 at the bound; one past it the int64 runs take over.
    # Over whole tables and over tables held to N // 2 with blocks above
    L = _CHUNK
    floats = L * fmax * gmax <= 2**53
    assert floats == (fmax != 2**20 + 1)
    runs = []  # the summands of each _exact_int_sum call
    exact = convolution._exact_int_sum

    def spying(fa, ga, fmax=None, gmax=None):
        runs.append(len(fa))
        return exact(fa, ga, fmax, gmax)

    monkeypatch.setattr(convolution, "_exact_int_sum", spying)
    ks = (L - 1, L, L + 1, 2 * L - 1, 2 * L, 2 * L + 1, 3 * L + 1)
    T = 3 * L + 2
    rng = np.random.default_rng(0)
    for mixed in (False, True):
        f = np.full(T + 1, fmax, dtype=dtype)
        g = np.full(T + 1, gmax, dtype=dtype)
        if mixed:
            f *= rng.choice(np.array([-1, 1], dtype=dtype), size=T + 1)
            g[rng.integers(0, T + 1, size=T // 3)] //= 7
        f[0] = g[0] = 0
        # each k from the bottom of g, where pieces and runs start together,
        # and from its top, where they do not
        specs = [ConvolutionSpec(N=k + 1, M=float(k + 1), boundary="half_open") for k in ks]
        specs += [ConvolutionSpec(N=T + 1, M=float(k), boundary="closed") for k in ks]
        fl, gl = f.tolist(), g.tolist()
        expected = [brute.additive_sum(fl, gl, s.N, s.last_index) for s in specs]
        if not mixed:
            assert expected == [k * fmax * gmax for k in ks] * 2
        for streamed in (False, True):
            del runs[:]
            if streamed:
                got = _held_sums(f, g, specs)
            else:
                got = additive_convolutions(_frozen_table(f, dtype), _frozen_table(g, dtype),
                                            specs)
            assert got == expected, (mixed, streamed)
            # below the bound no summand leaves the float64 dots; past it,
            # with every piece at its maximum, none stays in them
            if floats:
                assert runs == [], (mixed, streamed)
            elif not mixed:
                assert sum(runs) == 2 * sum(ks), streamed


def _image_spy(monkeypatch, poison=False):
    # the image each _int_sums call receives; with poison, the call gets
    # an image of NaN instead, which any dot reading it turns into an error
    images = []
    int_sums = convolution._int_sums

    def spying(blocks, readers, image=None):
        images.append(image)
        if poison and image is not None:
            image = np.full_like(image, np.nan)
        return int_sums(blocks, readers, image)

    monkeypatch.setattr(convolution, "_int_sums", spying)
    return images


def _d_sized(T, dtype, seed):
    # a frozen table on 0..T of values up to 181 in magnitude, d-sized, so
    # every piece takes the float64 dots
    vals = np.random.default_rng(seed).integers(-181, 182, size=T + 1).astype(dtype)
    vals[0] = 0
    return _frozen_table(vals, dtype)


@pytest.mark.parametrize("T", [4 * _CHUNK - 1, 4 * _CHUNK - 5, 4 * _CHUNK + 3])
def test_grid_image_straddles_a_piece_edge(T, monkeypatch):
    # an int16 g on 0..T caps the image at K = (T + 1) // 4: _CHUNK, one
    # below it or one above it.  The sums' f windows end at K, one either
    # side of it, a piece past it and at N - 1, from three N, so the dots
    # read f from the image alone, from the table alone, or split at K
    images = _image_spy(monkeypatch)
    f, g = _d_sized(T, np.int16, T), _d_sized(T, np.int16, T + 1)
    K = (T + 1) // 4
    assert abs(K - _CHUNK) <= 1
    ks = (1, K - 1, K, K + 1, K + _CHUNK - 1, K + _CHUNK, K + _CHUNK + 1)
    specs = [ConvolutionSpec(N=N, M=float(k), boundary="closed")
             for N in (T + 1, T, T - 1) for k in ks]
    specs.append(ConvolutionSpec(N=T + 1, M=float(T + 1), boundary="half_open"))
    fl, gl = f.values.tolist(), g.values.tolist()
    assert additive_convolutions(f, g, specs) == [
        brute.additive_sum(fl, gl, s.N, s.last_index) for s in specs]
    (image,) = images
    assert len(image) == K and image.dtype == np.float64 and not image.flags.writeable
    assert image.tolist() == fl[1 : K + 1]


@pytest.mark.parametrize("gtype", [np.int8, np.int16, np.int32])
def test_grid_image_is_capped_by_the_g_table(gtype, monkeypatch):
    # at N near 3 * _CHUNK the bytes of g cut K below max k: the image
    # never holds more bytes than g, and the sums above K read f's table
    images = _image_spy(monkeypatch)
    T = 3 * _CHUNK + 4
    f, g = _d_sized(T, np.int16, 7), _d_sized(T, gtype, 8)
    specs = [ConvolutionSpec(N=T + 1, M=T + 0.5, boundary="half_open"),
             ConvolutionSpec(N=T - 2, M=_CHUNK + 0.5, boundary="closed"),
             ConvolutionSpec(N=2 * _CHUNK + 3, M=float(_CHUNK), boundary="half_open")]
    fl, gl = f.values.tolist(), g.values.tolist()
    assert additive_convolutions(f, g, specs) == [
        brute.additive_sum(fl, gl, s.N, s.last_index) for s in specs]
    (image,) = images
    assert len(image) == g.values.nbytes // 8 < T
    assert image.nbytes <= g.values.nbytes


def test_grid_image_only_for_grids_and_read_only_by_float64_dots(monkeypatch, dtable_small):
    # one sum builds no image; a grid's holds f on 1..K, K * 8 <= the bytes
    # of g; and where no piece takes the float64 dots (the int64 runs of
    # test_exact_sums_at_the_float64_boundary) no sum reads it
    images = _image_spy(monkeypatch, poison=True)
    d = dtable_small
    spec = ConvolutionSpec(N=5000, M=2000.0, boundary="closed")
    additive_convolution(d, d, spec)
    divisor_report(build_sieve(100), d, 5000, 2000.0)
    assert images == [None, None]
    T = 3 * _CHUNK + 2
    f = _frozen_table(np.r_[0, np.full(T, 2**20 + 1)], np.int32)
    g = _frozen_table(np.r_[0, np.full(T, 2**17)], np.int32)
    ks = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1)
    specs = [ConvolutionSpec(N=T + 1, M=float(k), boundary="closed") for k in ks]
    del images[:]
    assert additive_convolutions(f, g, specs) == [k * (2**20 + 1) * 2**17 for k in ks]
    (image,) = images
    assert 0 < len(image) * 8 <= g.values.nbytes
    # a table too large for any float64 dot builds none
    huge = _frozen_table(np.r_[0, np.full(T, 2**37 + 1)], np.int64)
    del images[:]
    assert additive_convolutions(huge, huge, specs) == [k * (2**37 + 1) ** 2 for k in ks]
    assert images == [None]


_GRID_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _magnitude(dtype) -> int:
    # the largest |value| dtype holds: |dtype min|
    return -int(np.iinfo(dtype).min)


@st.composite
def _grid_cases(draw):
    """(f, g, specs): integer tables and a grid of 2 to 20 specs over them.

    The tables' bound B = max|f| * max|g| is drawn for one tier: float64
    blocks (_CHUNK * B <= 2**53), int64 runs of at least _MIN_RUN summands,
    or neither (Python ints), each reaching its limits.  The specs mix
    both boundaries and fractional M, repeat an N, sum nothing (k = 0),
    read g to the table's end, sum run - 1, run or run + 1 terms for the
    tier's block or run length, and read g across an absolute block edge.
    """
    ftype, gtype = draw(st.sampled_from(_GRID_DTYPES)), draw(st.sampled_from(_GRID_DTYPES))
    G = draw(st.integers(1, _magnitude(gtype)))
    tier = draw(st.sampled_from(("float64", "int64", "python")))
    if tier == "float64":
        lo, hi = 1, 2**53 // _CHUNK // G
    elif tier == "int64":
        lo, hi = 2**53 // _CHUNK // G + 1, 2**62 // _MIN_RUN // G
    else:
        lo, hi = 2**62 // _MIN_RUN // G + 1, _magnitude(ftype)
    hi = min(hi, _magnitude(ftype))
    assume(1 <= lo <= hi)
    F = draw(st.one_of(st.just(lo), st.just(hi), st.integers(lo, hi)))
    run = {"float64": _CHUNK, "int64": _run_length(F, G), "python": 50}[tier]
    T = draw(st.one_of(st.integers(1, 300), st.integers(run + 1, run + 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def table(dtype, magnitude):
        top = min(magnitude, int(np.iinfo(dtype).max))
        extreme = magnitude if magnitude == top and draw(st.booleans()) else -magnitude
        if draw(st.booleans()):
            vals = np.full(T + 1, extreme, dtype=dtype)
        else:
            vals = rng.integers(-magnitude, top, size=T + 1, endpoint=True).astype(dtype)
            vals[draw(st.integers(1, T))] = extreme
        vals[0] = 0
        if draw(st.booleans()):
            vals.setflags(write=False)
        return ArithTable("custom", vals)

    f, g = table(ftype, F), table(gtype, G)
    edges = [n for e in range(_CHUNK, T + 1, _CHUNK) for n in (e, e + 1, e + 2) if n <= T + 1]
    specs = []
    for _ in range(draw(st.integers(2, 20))):
        choices = [st.integers(2, T + 1), st.just(T + 1)]
        choices += [st.sampled_from(edges)] if edges else []
        choices += [st.sampled_from([s.N for s in specs])] if specs else []
        N = draw(st.one_of(choices))
        k = draw(st.one_of(st.sampled_from([0, run - 1, run, run + 1, N - 1]),
                           st.integers(0, N - 1)))
        k = min(max(k, 0), N - 1)
        half = draw(st.sampled_from((0.0, 0.5)))
        if k == 0:
            specs.append(ConvolutionSpec(N=N, M=1.0, boundary="half_open"))
        elif k + half <= N - 1 and draw(st.booleans()):
            specs.append(ConvolutionSpec(N=N, M=k + half, boundary="closed"))
        else:
            specs.append(ConvolutionSpec(N=N, M=k + (half or 1.0), boundary="half_open"))
    return f, g, specs


@settings(max_examples=80, deadline=None)
@given(_grid_cases())
def test_additive_convolutions_match_the_literal_sums(case):
    f, g, specs = case
    fl, gl = f.values.tolist(), g.values.tolist()
    got = additive_convolutions(f, g, specs)
    assert all(type(v) is int for v in got)
    assert got == [brute.additive_sum(fl, gl, s.N, s.last_index) for s in specs]
    assert got[0] == additive_convolution(f, g, specs[0])


def test_shifted_convolution_reads_its_two_slices(monkeypatch, dtable_small):
    scanned = []
    abs_max = convolution._abs_max
    monkeypatch.setattr(convolution, "_abs_max", lambda a: scanned.append(len(a)) or abs_max(a))
    d = dtable_small
    for N, h in ((1, 1), (5000, 7), (9000, 1000)):
        del scanned[:]
        v = d.values
        expected = sum(int(v[n]) * int(v[n + h]) for n in range(1, N + 1))
        assert shifted_divisor_convolution(d, N, h) == expected
        assert scanned == [N, N]
    # 64 summands of magnitude V reach 2**62 at V = 2**28, the last V with
    # int64 runs of 64; the table's extreme sits past both slices
    for V in (2**28 - 1, 2**28, 2**28 + 1):
        vals = np.array([0] + [V, -V] * 33 + [-(2**62)], dtype=np.int64)
        vals.setflags(write=False)
        t = ArithTable("divisor", vals)
        assert shifted_divisor_convolution(t, 64, 1) == -64 * V**2


# --- the Lambda pair sum -------------------------------------------------


def _dense_lambda_sum(spec):
    # the replaced path: additive_convolution of two dense Lambda tables
    lam = ArithTable("lambda", _DENSE_LAMBDA[: spec.N])
    return additive_convolution(lam, lam, spec)


def test_lambda_pair_sum_matches_the_dense_sum_for_every_even_N(sieve_small):
    for N in range(2, 4001, 2):
        spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
        got = lambda_convolution(sieve_small, spec)
        assert type(got) is float
        assert got == _dense_lambda_sum(spec), N
        assert got == brute.lambda_pair_sum(_DENSE_LAMBDA, N, N - 1), N


# 92458: the last chunk's np.sum would change if the zeros past its end
# were summed with it
@pytest.mark.parametrize("N", [2, 4, 2**16 - 2, 2**16 + 2, 2**17 + 2, 92458])
def test_lambda_pair_sum_at_the_chunk_edges(sieve_small, N):
    ks = {1, N // 3, N - 1} | {k for e in (_CHUNK, 2 * _CHUNK) for k in (e - 1, e, e + 1)}
    for k in sorted(k for k in ks if 1 <= k <= N - 1):
        specs = [ConvolutionSpec(N=N, M=float(k + 1), boundary="half_open"),
                 ConvolutionSpec(N=N, M=k + 0.5, boundary="half_open")]
        if N >= 3:
            specs.append(ConvolutionSpec(N=N, M=float(k), boundary="closed"))
        for spec in specs:
            assert spec.last_index == k
            assert lambda_convolution(sieve_small, spec) == _dense_lambda_sum(spec), (N, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, _LAMBDA_TOP), st.floats(0, 1), st.booleans())
def test_lambda_pair_sum_matches_the_dense_sum(N, frac, closed):
    assume(not closed or N >= 3)
    M = max(1.0, frac * (N - 1 if closed else N))
    spec = ConvolutionSpec(N=N, M=M, boundary="closed" if closed else "half_open")
    sieve = build_sieve(math.isqrt(N) + 1)
    got = lambda_convolution(sieve, spec)
    assert got == _dense_lambda_sum(spec)
    assert got == brute.lambda_pair_sum(_DENSE_LAMBDA, N, spec.last_index)


def test_lambda_pair_sum_range_and_sieve():
    sieve = build_sieve(10)
    # nothing to sum, and Lambda(1) = 0 alone
    assert lambda_convolution(sieve, ConvolutionSpec(N=5, M=1.0, boundary="half_open")) == 0.0
    assert lambda_convolution(sieve, ConvolutionSpec(N=2, M=2.0, boundary="half_open")) == 0.0
    # Lambda is read on 1..N-1, so N may reach (limit + 1)**2
    spec = ConvolutionSpec(N=121, M=121.0, boundary="half_open")
    assert lambda_convolution(sieve, spec) == _dense_lambda_sum(spec)
    with pytest.raises(UsageError, match=r"n_max must lie in \[0, 120\], got 121"):
        lambda_convolution(sieve, ConvolutionSpec(N=122, M=10.0, boundary="half_open"))



# --- Lambda against every kind ------------------------------------------

_LAMBDA_PARTNERS = [("divisor", None), ("mobius", None), ("phi", None), ("sigma", 1),
                    ("sigma_norm", 0.5), ("sigma", -1.5)]


@pytest.mark.parametrize("N", [2, 3, 10, 100, 65537, 65538, 131075, 300001, 999999, 10**6])
def test_lambda_against_every_kind_matches_the_dense_sum(N):
    # Lambda on the left, on the right and on both sides, against the
    # tables of tabulate, byte for byte with additive_convolution over a
    # dense Lambda table; mu's negative summands give signed zeros there
    sieve = build_sieve(max(math.isqrt(N), 2))
    lam = ArithTable("lambda", brute.lambda_table(N))
    tables = [tabulate(sieve, kind, N, s=s) for kind, s in _LAMBDA_PARTNERS]
    pairs = [((None, None), (lam, lam))]
    for t in tables:
        pairs += [((None, t), (lam, t)), ((t, None), (t, lam))]
    Ms = {min(max(M, 1.0), N) for M in (1.0, 2.5, N / 3, N // 2 + 0.5, N - 1.0, float(N))}
    specs = [ConvolutionSpec(N=N, M=M, boundary=b) for M in sorted(Ms)
             for b in ("half_open", "closed") if b == "half_open" or M <= N - 1]
    for spec in specs:
        for (f, g), (dense_f, dense_g) in pairs:
            got = lambda_convolution(sieve, spec, f, g)
            want = additive_convolution(dense_f, dense_g, spec)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
                spec, f and f.kind, g and g.kind)


def test_lambda_convolution_refuses_as_the_dense_sum_does():
    sieve = build_sieve(10)
    lam = ArithTable("lambda", brute.lambda_table(10))
    d = tabulate(sieve, "divisor", 10)
    spec = ConvolutionSpec(N=10, M=10.0, boundary="half_open")
    with pytest.raises(UsageError, match="needs Lambda on one side"):
        lambda_convolution(sieve, spec, d, d)
    short = tabulate(sieve, "divisor", 5)
    huge = ArithTable("custom", np.full(11, 1e308))
    for f, g, dense_f, dense_g in ((short, None, short, lam), (None, short, lam, short),
                                   (huge, None, huge, lam), (None, huge, lam, huge)):
        with pytest.raises(UsageError) as dense:
            additive_convolution(dense_f, dense_g, spec)
        with pytest.raises(UsageError) as got:
            lambda_convolution(sieve, spec, f, g)
        assert str(got.value) == str(dense.value)
    # an empty range reads no table, as for the dense sum
    empty = ConvolutionSpec(N=10, M=1.0, boundary="half_open")
    assert lambda_convolution(sieve, empty, short) == additive_convolution(short, lam, empty) == 0.0
