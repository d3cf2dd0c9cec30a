"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Every tolerance and range is stated inline; the
trend criteria (04, 06, 08, 09, 10, 12) assert boundedness or band
membership rather than pointwise constants.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import brute
from convlab import (
    ConvolutionSpec,
    additive_convolution,
    build_sieve,
    divisor_report,
    envelope_defect,
    expansion_adaptive,
    factorize,
    gamma_real,
    main_term_full,
    main_term_sigma_full,
    main_term_subsum,
    main_term_supersum,
    orthogonality_defect,
    ramanujan_sum,
    ramanujan_sum_table,
    sigma_norm_report,
    sigma_provider,
    sigma_rational,
    singular_series,
    tabulate,
    zeta_real,
)


def _dd(dtable, N, M, boundary):
    # sum d(n) d(N - n) over the range that N, M and boundary select
    return additive_convolution(dtable, dtable, ConvolutionSpec(N=N, M=M, boundary=boundary))


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {verdict}: {label}{suffix}")
    assert ok, f"criterion {num:02d} failed: {label}{suffix}"


def test_criterion_01_lattice_oracle(sieve_small):
    dtable = tabulate(sieve_small, "divisor", 200)
    ok = True
    for N in range(4, 201):
        for M in range(1, N + 1):
            # the product constraint never binds past N-1, where d(0) would appear
            conv = _dd(dtable, N, float(min(M, N - 1)), "closed")
            if brute.lattice_count_S(N, float(M)) != conv:
                ok = False
                break
        if not ok:
            break
    _report(1, "lattice count equals closed divisor convolution, N <= 200", ok)


def test_criterion_02_ramanujan_oracle(sieve_small):
    ok = True
    for n in range(1, 501):
        table = ramanujan_sum_table(sieve_small, n, 200)
        for r in range(1, 201):
            if table[r] != brute.ramanujan_sum_oracle(r, n):
                ok = False
                break
        if not ok:
            break
    _report(2, "divisor formula equals root-of-unity sums, r <= 200, n <= 500", ok)


def test_criterion_03_identity_suite(sieve_small, sieve_1m):
    # periodicity, r <= 100, n <= 300
    periodic = all(
        ramanujan_sum(sieve_small, r, n) == ramanujan_sum(sieve_small, r, n + r)
        for r in range(1, 101)
        for n in range(1, 301)
    )

    # multiplicativity in r, r1, r2 <= 50 coprime, n <= 200
    multiplicative = True
    for n in range(1, 201):
        t = ramanujan_sum_table(sieve_small, n, 2500)
        for r1 in range(1, 51):
            for r2 in range(1, 51):
                if math.gcd(r1, r2) == 1 and t[r1 * r2] != t[r1] * t[r2]:
                    multiplicative = False

    # sum over d | r of c_d(n) = r [r | n], r <= 100, n <= 200
    divsets = {r: brute.divisors(r) for r in range(1, 101)}
    divisor_identity = True
    for n in range(1, 201):
        t = ramanujan_sum_table(sieve_small, n, 100)
        for r in range(1, 101):
            want = r if n % r == 0 else 0
            if sum(int(t[d]) for d in divsets[r]) != want:
                divisor_identity = False

    # |c_r(n)| <= sigma_1(gcd(n, r)), r, n <= 300
    sig1 = np.array([0] + [int(brute.sigma_int(k, 1)) for k in range(1, 301)])
    r_axis = np.arange(1, 301)
    gcd_bound = True
    for n in range(1, 301):
        t = ramanujan_sum_table(sieve_small, n, 300)
        if not np.all(np.abs(t[1:]) <= sig1[np.gcd(r_axis, n)]):
            gcd_bound = False

    # mu/phi/sigma/d multiplicativity on coprime a, b <= 10^3
    fns = {
        "divisor": tabulate(sieve_1m, "divisor", 10**6),
        "sigma": tabulate(sieve_1m, "sigma", 10**6, s=1.0),
        "mobius": tabulate(sieve_1m, "mobius", 10**6),
        "phi": tabulate(sieve_1m, "phi", 10**6),
    }
    a = np.arange(1, 1001)
    coprime = np.gcd.outer(a, a) == 1
    prods = np.outer(a, a)[coprime]
    arith_multiplicative = all(
        np.array_equal(
            tab.values[prods], np.outer(tab.values[1:1001], tab.values[1:1001])[coprime]
        )
        for tab in fns.values()
    )

    # sigma_{-1}(n) * n = sigma_1(n) in exact rationals, n <= 10^4
    rational_identity = all(
        sigma_rational(f, -1) * n == sigma_rational(f, 1)
        for n in range(1, 10**4 + 1)
        for f in (factorize(sieve_small, n),)
    )

    ok = (
        periodic
        and multiplicative
        and divisor_identity
        and gcd_bound
        and arith_multiplicative
        and rational_identity
    )
    _report(
        3,
        "identity suite exact on stated ranges",
        ok,
        f"periodic={periodic} mult_r={multiplicative} div_id={divisor_identity} "
        f"gcd={gcd_bound} arith={arith_multiplicative} rational={rational_identity}",
    )


def test_criterion_04_ingham_convergence(sieve_10m, dtable_10m):
    grid = [10**4, 10**5, 10**6, 10**7]
    reports = [divisor_report(sieve_10m, dtable_10m, N, float(N // 2)) for N in grid]
    rel = [abs(r.relative) for r in reports]
    norm = [abs(r.normalized) for r in reports]
    shrinks = rel[-1] < rel[0]
    bounded = all(v <= 2.0 * norm[0] for v in norm)
    _report(
        4,
        "relative error shrinks and normalized residual stays bounded at M = N/2",
        shrinks and bounded,
        f"rel {rel[0]:.4f}->{rel[-1]:.4f}, max_norm={max(norm):.4f} vs 2x{norm[0]:.4f}",
    )


def test_criterion_05_complement(sieve_10m, dtable_10m):
    exact_ok = True
    main_ok = True
    for N in (10**4, 10**5):
        M = 0.75 * N
        sup = _dd(dtable_10m, N, M, "half_open")
        full = _dd(dtable_10m, N, float(N), "half_open")
        sub = _dd(dtable_10m, N, N - M, "closed")
        exact_ok &= sup == full - sub
        lhs = main_term_supersum(sieve_10m, N, M)
        rhs = main_term_full(sieve_10m, N) - main_term_subsum(sieve_10m, N, N - M)
        main_ok &= abs(lhs - rhs) <= 1e-12 * abs(rhs)
    _report(
        5,
        "half-open complement identity exact and main-term identity within 1e-12",
        exact_ok and main_ok,
        f"integer={exact_ok} main={main_ok}",
    )


def test_criterion_06_sub_full_ratio(sieve_10m, dtable_10m):
    N = 10**6
    sub = _dd(dtable_10m, N, 0.3 * N, "closed")
    full = _dd(dtable_10m, N, float(N), "half_open")
    ratio = sub / full
    ok = 0.20 <= ratio <= 0.40
    _report(6, "sub/full ratio at M = 0.3N inside [0.20, 0.40]", ok, f"ratio={ratio:.6f}")


def test_criterion_07_sigma_expansion(sieve_1m):
    ok = True
    worst = 0.0
    for s in (1.0, 2.0):
        provider = sigma_provider(s)
        for n in range(1, 51):
            res = expansion_adaptive(sieve_1m, provider, n, tol=1e-6)
            target = float(sigma_rational(factorize(sieve_1m, n), 1 if s == 1.0 else 2)) / n**s
            err = abs(res.value - target)
            worst = max(worst, err)
            if err > 1e-6 or err > res.tail_bound:
                ok = False
    _report(
        7,
        "adaptive sigma expansion within 1e-6 and its tail bound, s in {1,2}, n <= 50",
        ok,
        f"worst_abs_err={worst:.2e}",
    )


def test_criterion_08_orthogonality_bounded(sieve_small):
    def max_norm(N: int, M: int) -> float:
        worst = 0.0
        for r in range(1, 21):
            for s in range(1, 21):
                rec = orthogonality_defect(sieve_small, r, s, N, M)
                worst = max(worst, abs(rec.defect) / envelope_defect(r, s))
        return worst

    small = max_norm(10**4, 10**4)
    large = max_norm(10**6, 10**6)
    ok = large <= 3.0 * small
    _report(
        8,
        "orthogonality defect does not grow with N, r, s <= 20",
        ok,
        f"max@1e4={small:.4f} max@1e6={large:.4f}",
    )


def test_criterion_09_general_regimes(sieve_1m):
    N = 10**5
    grid = [10**3, 10**4, 5 * 10**4]

    tab2 = tabulate(sieve_1m, "sigma_norm", N, s=2.0)
    reps2 = [sigma_norm_report(sieve_1m, tab2, tab2, 2.0, 2.0, N, float(M)) for M in grid]
    resid = [abs(r.residual) for r in reps2]
    gt1_ok = resid[-1] <= 10.0 * resid[0]

    tabh = tabulate(sieve_1m, "sigma_norm", N, s=0.5)
    repsh = [sigma_norm_report(sieve_1m, tabh, tabh, 0.5, 0.5, N, float(M)) for M in grid]
    norm = [abs(r.normalized) for r in repsh]
    lt1_ok = all(v <= 2.0 * norm[0] for v in norm)

    _report(
        9,
        "delta > 1 residual O(1) in M; delta < 1 normalized residual bounded",
        gt1_ok and lt1_ok,
        f"resid {resid[0]:.4f}->{resid[-1]:.4f}, norm {norm[0]:.4f}->{norm[-1]:.4f}",
    )


def test_criterion_10_sigma_full_consistency(sieve_small):
    expected_exact = {6: 70, 12: 686, 28: 9684}
    stab = tabulate(sieve_small, "sigma", 28, s=1.0)
    const_ok = True
    exact_ok = True
    scaled = []
    for N in (6, 12, 28):
        main, omega = main_term_sigma_full(sieve_small, 1.0, 1.0, N)
        sigma3 = sum(d**3 for d in brute.divisors(N))
        ref = (1.0 / 6.0) * (5.0 / 2.0) * sigma3
        const_ok &= abs(main - ref) <= 1e-10 * ref
        spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
        exact = additive_convolution(stab, stab, spec)
        exact_ok &= exact == expected_exact[N]
        scaled.append(abs(exact - main) / N**omega)
    growth_ok = all(v <= 2.0 * scaled[0] for v in scaled)
    _report(
        10,
        "sigma_1 full-sum main term matches (1/6)(5/2)sigma_3 and residual/N^omega stays flat",
        const_ok and exact_ok and growth_ok,
        f"scaled residuals {['%.4f' % v for v in scaled]}",
    )


def test_criterion_11_special_functions():
    zeta_ok = (
        abs(zeta_real(2.0) - math.pi**2 / 6) < 1e-12
        and abs(zeta_real(4.0) - math.pi**4 / 90) < 1e-12
        and abs(zeta_real(3.0) - 1.2020569031595942854) < 1e-12
    )
    gamma_targets = [(5.0, 24.0), (0.5, math.sqrt(math.pi)), (2.5, 1.5 * 0.5 * math.sqrt(math.pi))]
    gamma_ok = all(abs(gamma_real(x) - v) <= 1e-10 * v for x, v in gamma_targets)
    functional_ok = all(
        abs(gamma_real(x + 1.0) - x * gamma_real(x)) <= 1e-9 * gamma_real(x + 1.0)
        for x in (0.5, 1.0, 1.3, 2.7, 7.7, 15.2, 23.4, 40.1)
    )
    _report(
        11,
        "zeta closed forms and Apery to 1e-12; gamma values 1e-10 and functional equation",
        zeta_ok and gamma_ok and functional_ok,
        f"zeta={zeta_ok} gamma={gamma_ok} functional={functional_ok}",
    )


def test_criterion_12_goldbach_heuristic(sieve_1m):
    N = 10**6
    ltab = tabulate(sieve_1m, "lambda", N)
    spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
    exact = additive_convolution(ltab, ltab, spec)
    ss = singular_series(sieve_1m, N, 10**4)
    ratio = exact / (N * ss)
    ok = 0.5 <= ratio <= 1.5
    _report(12, "Lambda self-convolution within the heuristic band", ok, f"ratio={ratio:.6f}")
