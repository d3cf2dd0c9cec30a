import math

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
    shifted_divisor_convolution,
    tabulate,
    tau_exact,
)
from convlab.convolution import _MIN_RUN, _exact_int_sum, _run_length


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


def test_shifted_examples(dtable_small):
    assert shifted_divisor_convolution(dtable_small, 5, 1) == 26
    assert shifted_divisor_convolution(dtable_small, 1, 1) == 2
    assert shifted_divisor_convolution(dtable_small, 3, 2) == 12


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
    lam = tabulate(sieve_small, "lambda", 10)
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
    d = dtable_small
    for N in range(2, 501):
        full = _dd(d, N, float(N), "half_open")
        for M in range(1, N + 1):
            half = _dd(d, N, float(M), "half_open")
            if M == N:
                assert half == full
            else:
                closed = _dd(d, N, float(N - M), "closed")
                assert half == full - closed, (N, M)


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
    # a writable table may change after a sum, so its bound is never cached
    N = 10
    vals = np.ones(N + 1, dtype=np.int64)
    t = ArithTable("custom", vals)
    spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
    assert additive_convolution(t, t, spec) == 9
    vals[:] = 2**31
    assert additive_convolution(t, t, spec) == 9 * 2**62


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
    # the cached bound of a read-only view is stale once its base is written
    base = np.ones(1001, dtype=np.int64)
    v = base.view()
    v.setflags(write=False)
    t = ArithTable("custom", v)
    spec = ConvolutionSpec(N=1000, M=1000.0, boundary="half_open")
    assert additive_convolution(t, t, spec) == 999
    base[1:] = 3 * 10**9
    assert additive_convolution(t, t, spec) == 999 * (3 * 10**9) ** 2


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
    g = tabulate(sieve_1m, "lambda", N)
    spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
    prod = f.values[1:N].astype(np.float64) * g.values[N - 1 : 0 : -1]
    ref = 0.0
    for i in range(0, len(prod), 1 << 16):
        ref += float(np.sum(prod[i : i + (1 << 16)]))
    assert additive_convolution(f, g, spec) == ref


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
def _tables_with_extremes_outside_the_sum(draw):
    """(f, g, spec, mode): read-only int tables whose max |value| is never summed.

    mode "under" or "over" puts k * f.abs_max * g.abs_max just below or at
    or above 2**62; "free" draws the magnitudes anywhere in their dtypes.
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

    def table(dtype, magnitude, outside):
        info = np.iinfo(dtype)
        small = draw(st.one_of(st.just(magnitude), st.integers(0, magnitude)))
        vals = [0] + draw(st.lists(
            st.integers(-small, min(small, info.max)), min_size=N, max_size=N))
        extreme = magnitude if magnitude <= info.max and draw(st.booleans()) else -magnitude
        vals[draw(st.sampled_from(outside))] = extreme
        return _frozen_table(vals, dtype)

    # f sums f[1..k] and g sums g[N-k..N-1]; each extreme sits elsewhere
    f = table(ftype, F, list(range(k + 1, N + 1)))
    g = table(gtype, G, list(range(1, N - k)) + [N])
    boundary = draw(st.sampled_from(("half_open", "closed")))
    M = float(k + 1 if boundary == "half_open" else k)
    spec = ConvolutionSpec(N=N, M=M, boundary=boundary)
    return f, g, spec, mode


@settings(max_examples=300, deadline=None)
@given(_tables_with_extremes_outside_the_sum())
def test_additive_convolution_exact_with_table_bounds(case):
    f, g, spec, mode = case
    k = spec.last_index
    if mode != "free":
        assert (k * f.abs_max * g.abs_max >= 2**62) == (mode == "over")
    got = additive_convolution(f, g, spec)
    assert isinstance(got, int)
    assert got == sum(int(f.values[n]) * int(g.values[spec.N - n]) for n in range(1, k + 1))


@pytest.mark.parametrize("fvals, gvals, dtype", [
    # |f| * |g| = 46341**2 = 2**31 + 4633 wraps an int32 product
    ([46341, -46341, 46341], [46341, 46341, -46341], np.int32),
    # 2**16 * 2**15 = 2**31, one past the int32 maximum
    ([2**16, 2**16, -(2**16)], [2**15, -(2**15), 2**15], np.int32),
    # (-128) * (-1) = 128 wraps an int8 product
    ([-128, -128, 5], [-1, -1, -128], np.int8),
    # |f| * |g| = 2**31 - 1 fits, so the products stay int32
    ([2**31 - 1, -(2**31 - 1), 7], [1, 1, -1], np.int32),
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


def test_shifted_convolution_reads_the_table_bound(dtable_small):
    d = dtable_small
    assert not d.values.flags.writeable
    assert d.abs_max == int(d.values.max())
    for N, h in ((1, 1), (5000, 7), (9000, 1000)):
        v = d.values
        expected = sum(int(v[n]) * int(v[n + h]) for n in range(1, N + 1))
        assert shifted_divisor_convolution(d, N, h) == expected
