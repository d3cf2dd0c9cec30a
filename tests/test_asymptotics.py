import math
import re
from fractions import Fraction

import numpy as np
import pytest

import brute
from convlab import (
    ConvolutionSpec,
    UsageError,
    additive_convolution,
    custom_provider,
    divisor_provider,
    divisor_report,
    divisor_reports,
    envelope_defect,
    envelope_fullsum,
    envelope_ramanujan,
    envelope_subsum,
    expansion_adaptive,
    factorize,
    gamma_real,
    main_term_full,
    main_term_general,
    main_term_sigma_full,
    main_term_sigma_norm,
    main_term_subsum,
    main_term_supersum,
    ramanujan_regime,
    sigma_norm_report,
    sigma_provider,
    sigma_rational,
    sigma_real,
    sweep,
    tabulate,
    tau_exact,
    tau_main,
    verify,
    zeta_real,
)
from convlab.asymptotics import _sigma_minus_one, check_divisor_report, check_sigma_pair

SIX_OVER_PI2 = 6.0 / math.pi**2


def _spec(N, M, boundary="half_open"):
    return ConvolutionSpec(N=N, M=M, boundary=boundary)


_SPEC3 = _spec(3, 1.0)


def test_sigma_minus_one_keeps_the_bits_of_the_fraction(sieve_small):
    # sigma_1(N) / N as an int division, correctly rounded as float() of
    # the Fraction sigma_rational(f, -1) is, at every N to 10**4 and at
    # highly composite N to 10**8
    for N in [*range(2, 10_001), 720720, 1081080, 73513440, 99999989]:
        want = float(sigma_rational(factorize(sieve_small, N), -1))
        assert _sigma_minus_one(sieve_small, N) == want, N


def test_subsum_example(sieve_small):
    # N=6, M=3: (6/pi^2) * 3 * 2 * ln(3)^2
    got = main_term_subsum(sieve_small, 6, 3.0)
    assert got == pytest.approx(4.4024219029951327, rel=1e-14)
    assert got == pytest.approx(SIX_OVER_PI2 * 3 * 2 * math.log(3.0) ** 2, rel=1e-14)


def test_subsum_half_identity(sieve_small):
    # at M = N/2 the main term collapses to (3/pi^2) sigma_1(N) ln^2(N/2)
    for N in (10, 36, 100, 2048):
        got = main_term_subsum(sieve_small, N, N / 2.0)
        s1 = float(brute.sigma_int(N, 1))
        assert got == pytest.approx(
            0.5 * SIX_OVER_PI2 * s1 * math.log(N / 2.0) ** 2, rel=1e-12
        )


def test_subsum_domain(sieve_small):
    # envelope_subsum has main_term_subsum's rule, where it returned
    # -45.78 at M = -3 and 1510.9 at M = 99
    for call in (main_term_subsum, envelope_subsum):
        for M in (-3.0, 0.5, 51.0, 99.0):
            match = f"{call.__name__} needs 1 <= M <= N/2, got M={M}"
            with pytest.raises(UsageError, match=re.escape(match)):
                call(sieve_small, 100, M)
        with pytest.raises(UsageError):
            call(sieve_small, 2, 1.0)  # M(N-M) = 1, log X = 0


def test_supersum_boundary(sieve_small):
    # M = N: boundary term vanishes by convention
    for N in (10, 97, 5000):
        assert main_term_supersum(sieve_small, N, float(N)) == pytest.approx(
            main_term_full(sieve_small, N), rel=1e-15
        )
    with pytest.raises(UsageError):
        main_term_supersum(sieve_small, 100, 49.0)


def test_complement_identity(sieve_small):
    for N in (1000, 10_000):
        full = main_term_full(sieve_small, N)
        for frac in (0.5, 0.6, 0.9, 1.0):
            M = frac * N
            sup = main_term_supersum(sieve_small, N, M)
            if M == N:
                sub = 0.0
            else:
                sub = main_term_subsum(sieve_small, N, N - M)
            assert abs(sup - (full - sub)) <= 1e-12 * full, (N, frac)


def test_supersum_same_X(sieve_small):
    # N=100, M=70 and the complementary sub-sum share X = sqrt(70*30)
    sup = main_term_supersum(sieve_small, 100, 70.0)
    sub = main_term_subsum(sieve_small, 100, 30.0)
    full = main_term_full(sieve_small, 100)
    assert sup == pytest.approx(full - sub, rel=1e-14)


def test_general_matches_cor32_closed_form(sieve_1m):
    # sigma(2) pair at N=6: 100 * z(3)^2/z(6) * sigma_5(6)/6^5
    p = sigma_provider(2.0)
    value, tail = main_term_general(sieve_1m, p, p, 6, 100.0)
    sigma5 = sum(d**5 for d in brute.divisors(6))
    assert sigma5 == 8052
    ref = 100.0 * brute.zeta(3.0) ** 2 / brute.zeta(6.0) * sigma5 / 6.0**5
    assert abs(value - ref) <= tail + 1e-9 * abs(ref)
    assert tail <= 1e-9 * 100.0  # default R targets tail <= 1e-9 * M


def test_general_zero_M(sieve_small):
    p = sigma_provider(1.0)
    assert main_term_general(sieve_small, p, p, 6, 0.0) == (0.0, 0.0)


def test_general_checks_R_before_a_zero_M(sieve_small):
    # R is checked whatever M is, so M = 0 no longer lets a float R pass
    p = sigma_provider(1.0)
    for bad in (12.5, 12.0, "12", math.nan):
        with pytest.raises(UsageError, match="R must be an integer"):
            main_term_general(sieve_small, p, p, 12, 0.0, R=bad)
    with pytest.raises(UsageError, match="R must lie in"):
        main_term_general(sieve_small, p, p, 12, 0.0, R=0)
    assert main_term_general(sieve_small, p, p, 12, 0.0, R=12) == (0.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda sieve, N: main_term_subsum(sieve, N, 10.0),
    lambda sieve, N: main_term_supersum(sieve, N, 60.0),
    lambda sieve, N: envelope_subsum(sieve, N, 10.0),
    lambda sieve, N: envelope_fullsum(sieve, N),
    lambda sieve, N: check_divisor_report(N, 10.0),
], ids=["main_term_subsum", "main_term_supersum", "envelope_subsum", "envelope_fullsum",
        "check_divisor_report"])
def test_divisor_terms_check_N_is_an_integer_first(sieve_small, call):
    # N is checked before it is compared with M or 16, so no TypeError
    for bad in ("100", 100.0, None):
        with pytest.raises(UsageError, match="N must be an integer"):
            call(sieve_small, bad)
    assert call(sieve_small, np.int64(100)) == call(sieve_small, 100)


@pytest.mark.parametrize("call", [
    lambda sieve, M: ConvolutionSpec(N=100, M=M, boundary="half_open"),
    lambda sieve, M: main_term_general(sieve, sigma_provider(1.0), sigma_provider(1.0), 12, M),
    lambda sieve, M: main_term_sigma_norm(sieve, 1.0, 1.0, 12, M),
    lambda sieve, M: main_term_subsum(sieve, 100, M),
    lambda sieve, M: main_term_supersum(sieve, 100, M),
    lambda sieve, M: envelope_subsum(sieve, 100, M),
    lambda sieve, M: envelope_ramanujan(0.5, M),
    lambda sieve, M: sigma_norm_report(sieve, 1.0, 0.5, 0.5, 100, M),
    lambda sieve, M: check_divisor_report(100, M),
], ids=["ConvolutionSpec", "main_term_general", "main_term_sigma_norm", "main_term_subsum",
        "main_term_supersum", "envelope_subsum", "envelope_ramanujan", "sigma_norm_report",
        "check_divisor_report"])
def test_M_is_checked_real_first(sieve_small, call):
    # M is checked once before it is compared or converted, so no TypeError
    for bad in ("5", None, 5j):
        with pytest.raises(UsageError, match="M must be a real number"):
            call(sieve_small, bad)
    assert call(sieve_small, np.float64(50.0)) == call(sieve_small, 50.0)


@pytest.mark.parametrize("name, call", [
    ("s", lambda sieve, x: tabulate(sieve, "sigma", 12, s=x).values.tobytes()),
    ("s", lambda sieve, x: tabulate(sieve, "sigma_norm", 12, s=x).values.tobytes()),
    ("s", lambda sieve, x: sigma_provider(x).coefficients(12).tobytes()),
    ("alpha", lambda sieve, x: main_term_sigma_norm(sieve, x, 1.0, 12, 5.0)),
    ("beta", lambda sieve, x: main_term_sigma_norm(sieve, 1.0, x, 12, 5.0)),
    ("alpha", lambda sieve, x: main_term_sigma_full(sieve, x, 1.0, 12)),
    ("beta", lambda sieve, x: main_term_sigma_full(sieve, 1.0, x, 12)),
    ("delta", lambda sieve, x: envelope_ramanujan(x, 5.0)),
    ("tol", lambda sieve, x: expansion_adaptive(sieve, sigma_provider(2.0), 12, tol=x)),
    ("y", lambda sieve, x: tau_exact(x)),
    ("y", lambda sieve, x: tau_main(x)),
    ("delta", lambda sieve, x: custom_provider(lambda r: r**-3.0, x, 1.0).delta),
    ("bound", lambda sieve, x: custom_provider(lambda r: r**-3.0, 2.0, x).bound),
    ("exact", lambda sieve, x: verify(_SPEC3, x, 1.0, 1.0)),
    ("main", lambda sieve, x: verify(_SPEC3, 1.0, x, 1.0)),
    ("envelope", lambda sieve, x: verify(_SPEC3, 1.0, 1.0, x)),
    ("exact", lambda sieve, x: sigma_norm_report(sieve, x, 0.5, 0.5, 100, 10.0)),
    ("s", lambda sieve, x: sigma_real(factorize(sieve, 12), x)),
], ids=["tabulate sigma", "tabulate sigma_norm", "sigma_provider", "main_term_sigma_norm alpha",
        "main_term_sigma_norm beta", "main_term_sigma_full alpha", "main_term_sigma_full beta",
        "envelope_ramanujan", "expansion_adaptive", "tau_exact", "tau_main",
        "custom_provider delta", "custom_provider bound", "verify exact", "verify main",
        "verify envelope", "sigma_norm_report exact", "sigma_real"])
def test_real_parameters_are_checked_real_first(request, sieve_small, name, call):
    # each real parameter is checked once before it is compared or
    # converted, so no TypeError (custom_provider's and verify's), no
    # ValueError (sigma_norm_report's float of exact) and no string read
    # as its number; a table's exponent must be finite too, where NaN gave
    # a NaN table and an infinity a table of ones
    for bad in ("2", 2j):
        with pytest.raises(UsageError, match=f"{name} must be a real number"):
            call(sieve_small, bad)
    if request.node.callspec.id.startswith("tabulate"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(UsageError, match="s must be finite"):
                call(sieve_small, bad)
    assert call(sieve_small, np.float64(2.0)) == call(sieve_small, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, call", [
    ("delta", lambda sieve, x: envelope_ramanujan(x, 5.0)),
    ("M", lambda sieve, x: envelope_ramanujan(2.0, x)),
    ("y", lambda sieve, x: tau_main(x)),
    ("M", lambda sieve, x: envelope_subsum(sieve, 100, x)),
    ("M", lambda sieve, x: main_term_subsum(sieve, 100, x)),
    ("M", lambda sieve, x: main_term_supersum(sieve, 100, x)),
    ("M", lambda sieve, x: ConvolutionSpec(100, x, "closed")),
    ("s", lambda sieve, x: sigma_provider(x)),
    ("alpha", lambda sieve, x: main_term_sigma_norm(sieve, x, 1.0, 12, 5.0)),
    ("beta", lambda sieve, x: main_term_sigma_full(sieve, 1.0, x, 12)),
    ("tol", lambda sieve, x: expansion_adaptive(sieve, sigma_provider(2.0), 12, tol=x)),
    ("exact", lambda sieve, x: verify(_SPEC3, x, 1.0, 1.0)),
    ("main", lambda sieve, x: verify(_SPEC3, 1.0, x, 1.0)),
    ("exact", lambda sieve, x: sigma_norm_report(sieve, x, 0.5, 0.5, 100, 10.0)),
    ("s", lambda sieve, x: sigma_real(factorize(sieve, 12), x)),
], ids=["envelope_ramanujan delta", "envelope_ramanujan M", "tau_main", "envelope_subsum",
        "main_term_subsum", "main_term_supersum", "ConvolutionSpec", "sigma_provider",
        "main_term_sigma_norm", "main_term_sigma_full", "expansion_adaptive", "verify exact",
        "verify main", "sigma_norm_report exact", "sigma_real"])
def test_non_finite_real_parameters_raise(sieve_small, name, call, bad):
    # as_real rejects NaN and the infinities before any comparison, where
    # a NaN passed every one: envelope_ramanujan returned 1.0, tau_main
    # nan and verify a report of NaNs, and the others raised with a
    # message about another bound
    with pytest.raises(UsageError, match=f"{name} must be finite"):
        call(sieve_small, bad)


def test_general_at_N1(sieve_small):
    # sigma(1) pair at N=1 reduces to the Cor. 3.2 constant z(2)^2/z(4) = 5/2
    p = sigma_provider(1.0)
    value, tail = main_term_general(sieve_small, p, p, 1, 40.0)
    assert abs(value - 2.5 * 40.0) <= tail + 1e-9


def test_general_rejects_conditional(sieve_small):
    with pytest.raises(UsageError):
        main_term_general(sieve_small, divisor_provider(), sigma_provider(1.0), 6, 10.0)


def test_general_R_exceeding_sieve(sieve_small):
    # slow decay forces a default R far past the sieve limit, capped there:
    # the sigma(0.3) pair at N = 720720 needs R = 20445353010, within the
    # reach of a sieve to 10**7, which walked mu to it (about 20 GB), and
    # was refused here as an R the caller never passed
    p = sigma_provider(0.1)
    with pytest.raises(UsageError):
        main_term_general(sieve_small, p, p, 6, 10.0)
    p = sigma_provider(0.3)
    with pytest.raises(UsageError, match=re.escape(
            "tail bound needs R = 20445353010 > sieve limit 10000; pass R")):
        main_term_general(sieve_small, p, p, 720720, 10.0)
    assert math.isfinite(main_term_general(sieve_small, p, p, 720720, 10.0, R=10_000)[0])


def test_sigma_norm_examples(sieve_small):
    value, delta = main_term_sigma_norm(sieve_small, 1.0, 1.0, 1, 8.0)
    assert value == pytest.approx(2.5 * 8.0, rel=1e-12)
    assert delta == 1.0
    value, delta = main_term_sigma_norm(sieve_small, 2.0, 2.0, 6, 10_000.0)
    assert value == pytest.approx(14707.204809278530, rel=1e-9)
    assert delta == 2.0
    _, delta = main_term_sigma_norm(sieve_small, 0.4, 0.7, 10, 1000.0)
    assert delta == 0.4
    assert ramanujan_regime(delta) == "delta_lt_1"


def test_sigma_norm_domain(sieve_small):
    with pytest.raises(UsageError):
        main_term_sigma_norm(sieve_small, 0.0, 1.0, 6, 10.0)
    with pytest.raises(UsageError):
        main_term_sigma_norm(sieve_small, 1.0, -2.0, 6, 10.0)
    with pytest.raises(UsageError, match="^alpha and beta must be positive$"):
        main_term_sigma_full(sieve_small, 0.0, 1.0, 100)


def test_sigma_full_constants(sieve_small):
    # Gamma factor 1/6, zeta factor 5/2, sigma_3 values by enumeration
    for N in (6, 12, 28):
        value, omega = main_term_sigma_full(sieve_small, 1.0, 1.0, N)
        sigma3 = sum(d**3 for d in brute.divisors(N))
        ref = (1.0 / 6.0) * 2.5 * sigma3
        assert abs(value - ref) / ref < 1e-10, N
        assert omega == 2.0
    assert main_term_sigma_full(sieve_small, 1.0, 1.0, 6)[0] == pytest.approx(105.0, rel=1e-10)


@pytest.mark.parametrize("call", [
    lambda sv: check_sigma_pair(1e308, 1e308),
    lambda sv: main_term_sigma_norm(sv, 1e308, 1e308, 100, 3.0),
    lambda sv: main_term_sigma_full(sv, 1e308, 1e308, 100),
])
def test_sigma_pair_whose_w_overflows_names_alpha_and_beta(sieve_small, call):
    # each exponent is finite, but w = alpha + beta + 1 is not
    with pytest.raises(UsageError) as err:
        call(sieve_small)
    assert str(err.value) == "alpha + beta + 1 overflows float64, got alpha=1e+308, beta=1e+308"


def test_sigma_pair_zeta_factor_is_the_main_terms(sieve_small):
    # the one w and zeta factor both main terms multiply by, bit for bit
    w, zfac = check_sigma_pair(0.5, 1.5)
    assert (w, zfac) == (3.0, zeta_real(1.5) * zeta_real(2.5) / zeta_real(4.0))
    f = factorize(sieve_small, 720)
    assert main_term_sigma_norm(sieve_small, 0.5, 1.5, 720, 7.0) == (
        7.0 * zfac * sigma_real(f, -3.0), 0.5)
    gfac = gamma_real(1.5) * gamma_real(2.5) / gamma_real(4.0)
    assert main_term_sigma_full(sieve_small, 0.5, 1.5, 720) == (
        gfac * zfac * sigma_real(f, 3.0), 2.5)


def test_sigma_full_omega(sieve_small):
    assert main_term_sigma_full(sieve_small, 0.5, 2.0, 6)[1] == pytest.approx(3.0)
    assert main_term_sigma_full(sieve_small, 2.0, 2.0, 6)[1] == pytest.approx(4.0)


def test_general_consistent_with_sigma_norm(sieve_1m):
    # Thm 1.3 machinery lands on the Cor. 3.2 closed form within its tail
    for alpha, beta in ((1.0, 1.0), (2.0, 2.0), (1.0, 2.0)):
        pf, pg = sigma_provider(alpha), sigma_provider(beta)
        for N in (6, 12, 30):
            value, tail = main_term_general(sieve_1m, pf, pg, N, 50.0)
            ref, _ = main_term_sigma_norm(sieve_1m, alpha, beta, N, 50.0)
            assert abs(value - ref) <= tail + 1e-9 * abs(ref), (alpha, beta, N)


def test_general_sigma_pairs_match_closed_form_and_literal_sum(sieve_1m):
    # the product expansion's regrouped partial sum against the Cor. 3.2
    # closed form within its tail, and at R = 1000 against the literal
    # sum M sum_r a_f(r) a_g(r) c_r(N) over brute c_r tables, every N <= 2000
    R = 1000
    for alpha, beta in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (0.5, 1.5)):
        pf, pg = sigma_provider(alpha), sigma_provider(beta)
        a = pf.coefficients(R)[1:] * pg.coefficients(R)[1:]
        for N in range(1, 2001):
            for M in (1.0, 37.5, float(N)):
                value, tail = main_term_general(sieve_1m, pf, pg, N, M)
                closed, _ = main_term_sigma_norm(sieve_1m, alpha, beta, N, M)
                assert abs(value - closed) <= tail + 1e-12 * abs(closed), (alpha, beta, N, M)
            c = brute.ramanujan_sum_table(N, R)[1:]
            literal = 37.5 * math.fsum((a * c).tolist())
            value, _ = main_term_general(sieve_1m, pf, pg, N, 37.5, R=R)
            assert value == pytest.approx(literal, rel=1e-12), (alpha, beta, N)


def test_tau_main_values():
    assert tau_main(math.e**2) == pytest.approx(12.0 / math.pi**2, rel=1e-12)
    assert tau_main(1000.0) == pytest.approx(14.504253986828126, rel=1e-12)
    assert tau_main(2.0) == pytest.approx(0.14604020416416226, rel=1e-12)
    with pytest.raises(UsageError):
        tau_main(1.5)


def test_tau_residual_no_growth():
    vals = []
    for k in range(2, 7):
        y = 10.0**k
        vals.append(abs(tau_exact(y) - tau_main(y)) / math.log(y))
    assert max(vals) <= 2.0 * vals[0], vals


def test_envelopes(sieve_small):
    n16 = envelope_subsum(sieve_small, 16, 8.0)
    assert n16 == pytest.approx(
        8.0 * (float(brute.sigma_int(16, 1)) / 16) * math.log(16) * math.log(math.log(16))
    )
    assert envelope_fullsum(sieve_small, 16) == pytest.approx(
        float(brute.sigma_int(16, 1)) * math.log(16) * math.log(math.log(16))
    )
    with pytest.raises(UsageError):
        envelope_subsum(sieve_small, 15, 5.0)
    with pytest.raises(UsageError):
        envelope_fullsum(sieve_small, 8)


def test_envelope_ramanujan_regimes():
    M = 100.0
    assert envelope_ramanujan(0.5, M) == pytest.approx(M**0.5 * math.log(M) ** 3)
    assert envelope_ramanujan(1.0, M) == pytest.approx(math.log(M) ** 3)
    assert envelope_ramanujan(2.0, M) == 1.0
    assert ramanujan_regime(0.5) == "delta_lt_1"
    assert ramanujan_regime(1.0) == "delta_eq_1"
    assert ramanujan_regime(2.0) == "delta_gt_1"
    with pytest.raises(UsageError):
        envelope_ramanujan(0.5, 1.0)


def test_envelope_defect():
    assert envelope_defect(1, 1) == 1.0
    assert envelope_defect(2, 3) == pytest.approx(6.0 * (math.log(6.0) + 1.0))
    assert envelope_defect(np.int64(2), 3) == envelope_defect(2, 3)


@pytest.mark.parametrize("r, s, match", [
    (math.nan, 2, "r must be an integer, got nan"), (1.5, 2, "r must be an integer, got 1.5"),
    ("a", 2, "r must be an integer, got 'a'"), (2, 2.0, "s must be an integer, got 2.0"),
    (0, 2, "r must be >= 1, got 0"), (2, -3, "s must be >= 1, got -3"),
])
def test_envelope_defect_takes_integers_r_s_at_least_1(r, s, match):
    # a NaN gave nan, a fraction a value and a string a raw TypeError
    with pytest.raises(UsageError, match=match):
        envelope_defect(r, s)


@pytest.mark.parametrize("delta, match", [
    (math.nan, "delta must be finite"), (math.inf, "delta must be finite"),
    ("1", "delta must be a real number"), (-1.0, "delta must be positive, got -1.0"),
    (0.0, "delta must be positive, got 0.0"),
])
def test_ramanujan_regime_checks_delta_as_envelope_ramanujan_does(delta, match):
    # NaN read as "delta_gt_1" and -1.0 as "delta_lt_1"
    for call in (ramanujan_regime, lambda d: envelope_ramanujan(d, 5.0)):
        with pytest.raises(UsageError, match=match):
            call(delta)


def test_main_terms_refuse_a_negative_M_alike(sieve_small):
    # main_term_sigma_norm gave a negative main term for M < 0
    p = sigma_provider(1.0)
    for call in (lambda M: main_term_general(sieve_small, p, p, 12, M),
                 lambda M: main_term_sigma_norm(sieve_small, 1.0, 1.0, 12, M)):
        with pytest.raises(UsageError, match=r"M must be >= 0, got -5\.0"):
            call(-5.0)
        assert call(0.0)[0] == 0.0


def test_verify_report_fields():
    rep = verify(_spec(6, 3.0, "closed"), 12.0, 4.4024, math.e)
    assert rep.residual == pytest.approx(7.5976)
    assert rep.normalized == pytest.approx(7.5976 / math.e)
    assert rep.relative == pytest.approx(7.5976 / 4.4024)
    assert rep.N == 6 and rep.M == 3.0 and rep.boundary == "closed"
    same = verify(_spec(4, 2.0), 5.0, 5.0, 1.0)
    assert same.normalized == 0.0
    undef = verify(_spec(4, 2.0), 1.0, 0.0, 1.0)
    assert math.isnan(undef.relative)
    # an infinite envelope gave normalized 0.0, a bound that holds for
    # any residual
    for bad in (0.0, math.inf, -math.inf):
        with pytest.raises(UsageError, match="envelope must be a real number > 0 and finite"):
            verify(_SPEC3, 3.0, 1.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda sieve, x: expansion_adaptive(sieve, sigma_provider(1.0), 720, tol=x),
    lambda sieve, x: main_term_general(sieve, sigma_provider(1.0), sigma_provider(1.0), 6, x),
    lambda sieve, x: main_term_sigma_norm(sieve, 1.0, 1.0, 6, x),
    lambda sieve, x: custom_provider(lambda r: r**-3.0, delta=x, bound=1.0),
    lambda sieve, x: custom_provider(lambda r: r**-3.0, delta=2.0, bound=x),
], ids=["tol", "main_term_general_M", "main_term_sigma_norm_M", "delta", "bound"])
def test_library_rejects_non_finite_values(sieve_small, call, bad):
    with pytest.raises(UsageError):
        call(sieve_small, bad)


def test_sweep_single_and_empty(sieve_small, dtable_small):
    result = sweep([divisor_report(sieve_small, dtable_small, 100, 50.0)])
    assert len(result.reports) == 1
    rep = result.reports[0]
    assert result.max_normalized == abs(rep.normalized)
    assert result.endpoint_relative == (rep.relative, rep.relative)
    with pytest.raises(UsageError):
        sweep([])


@pytest.mark.parametrize("nan_first", [True, False])
def test_sweep_max_normalized_skips_nan(nan_first):
    # a report without an envelope has a NaN normalized; wherever it sits,
    # the worst case is taken over the others, and is NaN only when all are
    no_envelope = verify(_spec(4, 1.0), 2.0, 1.0, math.nan)
    finite = [verify(_spec(4, 2.0), 3.0, 1.0, 1.0), verify(_spec(4, 3.0), 2.0, 1.0, 1.0)]
    grid = [no_envelope] + finite if nan_first else finite + [no_envelope]
    assert sweep(grid).max_normalized == 2.0
    assert math.isnan(sweep([no_envelope]).max_normalized)


def test_sweep_keeps_grid_order(sieve_small, dtable_small):
    grid = [50, 100, 400, 1000, 2000, 5000]
    result = sweep([divisor_report(sieve_small, dtable_small, N, float(N // 2)) for N in grid])
    assert [rep.N for rep in result.reports] == grid


def test_divisor_report_boundaries(sieve_small, dtable_small):
    sub = divisor_report(sieve_small, dtable_small, 1000, 300.0)
    assert sub.boundary == "closed"
    assert sub.exact == float(
        sum(
            int(dtable_small.values[n]) * int(dtable_small.values[1000 - n])
            for n in range(1, 301)
        )
    )
    sup = divisor_report(sieve_small, dtable_small, 1000, 800.0)
    assert sup.boundary == "half_open"


@pytest.mark.parametrize("N, M, boundary", [
    (1000, 300.0, "closed"), (1000, 500.0, "closed"), (1001, 500.5, "closed"),
    (1001, 501.0, "half_open"), (1000, 999.5, "half_open"), (1000, 1000.0, "half_open"),
])
def test_check_divisor_report_returns_the_spec_divisor_report_sums(
    sieve_small, dtable_small, N, M, boundary
):
    # closed for M <= N/2 and half-open above: the one place that picks
    spec = check_divisor_report(N, M)
    assert spec == ConvolutionSpec(N=N, M=M, boundary=boundary)
    rep = divisor_report(sieve_small, dtable_small, N, M)
    assert (rep.N, rep.M, rep.boundary) == (spec.N, spec.M, spec.boundary)
    assert rep.exact == additive_convolution(dtable_small, dtable_small, spec)
    assert divisor_reports(sieve_small, dtable_small, [(N, M)]) == [rep]


def _sigma_norm_exact(sieve, f, g, N, M):
    return additive_convolution(f, g, ConvolutionSpec(N=N, M=M, boundary="half_open"))


def test_sigma_norm_report_regimes(sieve_small):
    f = tabulate(sieve_small, "sigma_norm", 1000, s=0.5)
    exact = _sigma_norm_exact(sieve_small, f, f, 1000, 100.0)
    rep = sigma_norm_report(sieve_small, exact, 0.5, 0.5, 1000, 100.0)
    assert rep.boundary == "half_open" and rep.exact == exact
    assert ramanujan_regime(0.5) == "delta_lt_1"
    assert rep.envelope == pytest.approx(100.0**0.5 * math.log(100.0) ** 3)
    g = tabulate(sieve_small, "sigma_norm", 1000, s=1.0)
    rep = sigma_norm_report(sieve_small, _sigma_norm_exact(sieve_small, g, g, 1000, 100.0),
                            1.0, 1.0, 1000, 100.0)
    assert rep.boundary == "half_open" and ramanujan_regime(1.0) == "delta_eq_1"
    assert rep.envelope == pytest.approx(math.log(100.0) ** 3)
    with pytest.raises(UsageError):
        sigma_norm_report(sieve_small, exact, 0.5, 0.5, 1000, 1001.0)


def test_sigma_norm_report_below_M_2_has_nan_envelope(sieve_small):
    f = tabulate(sieve_small, "sigma_norm", 1000, s=0.5)
    for M in (1.0, 1.5):
        rep = sigma_norm_report(sieve_small, _sigma_norm_exact(sieve_small, f, f, 1000, M),
                                0.5, 0.5, 1000, M)
        main, _ = main_term_sigma_norm(sieve_small, 0.5, 0.5, 1000, M)
        exact = float(f.values[1] * f.values[999]) if M > 1 else 0.0
        assert (rep.exact, rep.main, rep.residual) == (exact, main, exact - main)
        assert math.isnan(rep.envelope) and math.isnan(rep.normalized)
    with pytest.raises(UsageError):
        verify(_spec(4, 2.0), 1.0, 1.0, -1.0)


@pytest.mark.parametrize("call, needle", [
    (lambda sv: sigma_provider(1e-17), "s must exceed 2**-53, where 1 + s rounds to 1, got 1e-17"),
    (lambda sv: main_term_sigma_norm(sv, 2**-53, 1.0, 100, 3.0),
     f"alpha must exceed 2**-53, where 1 + alpha rounds to 1, got {2**-53}"),
    (lambda sv: main_term_sigma_norm(sv, 1.0, 1e-300, 100, 3.0),
     "beta must exceed 2**-53, where 1 + beta rounds to 1, got 1e-300"),
    (lambda sv: main_term_sigma_full(sv, 1e-300, 1.0, 100),
     "alpha must exceed 2**-53, where 1 + alpha rounds to 1, got 1e-300"),
])
def test_exponent_below_float64_epsilon_is_named(sieve_small, call, needle):
    # 1 + s rounds to 1.0 for 0 < s <= 2**-53: the error names the
    # argument as passed, not the 1.0 that zeta_real would refuse
    with pytest.raises(UsageError) as err:
        call(sieve_small)
    assert str(err.value) == needle
    assert sigma_provider(2**-52).delta == 2**-52  # the smallest s above
