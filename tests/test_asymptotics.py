import math
import threading
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
    envelope_defect,
    envelope_fullsum,
    envelope_ramanujan,
    envelope_subsum,
    expansion_adaptive,
    main_term_full,
    main_term_general,
    main_term_sigma_full,
    main_term_sigma_norm,
    main_term_subsum,
    main_term_supersum,
    ramanujan_regime,
    sigma_norm_report,
    sigma_provider,
    sweep,
    tabulate,
    tau_exact,
    tau_main,
    verify,
)

SIX_OVER_PI2 = 6.0 / math.pi**2


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
    with pytest.raises(UsageError):
        main_term_subsum(sieve_small, 100, 51.0)
    with pytest.raises(UsageError):
        main_term_subsum(sieve_small, 100, 0.5)
    with pytest.raises(UsageError):
        main_term_subsum(sieve_small, 2, 1.0)  # M(N-M) = 1, log X = 0


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
], ids=["main_term_subsum", "main_term_supersum", "envelope_subsum", "envelope_fullsum"])
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
], ids=["ConvolutionSpec", "main_term_general", "main_term_sigma_norm", "main_term_subsum",
        "main_term_supersum", "envelope_subsum", "envelope_ramanujan", "sigma_norm_report"])
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
], ids=["tabulate sigma", "tabulate sigma_norm", "sigma_provider", "main_term_sigma_norm alpha",
        "main_term_sigma_norm beta", "main_term_sigma_full alpha", "main_term_sigma_full beta",
        "envelope_ramanujan", "expansion_adaptive", "tau_exact", "tau_main"])
def test_real_parameters_are_checked_real_first(request, sieve_small, name, call):
    # each real parameter is checked once before it is compared or
    # converted, so no TypeError and no string read as its number; a
    # table's exponent must be finite too, where NaN gave a NaN table and
    # an infinity a table of ones
    for bad in ("2", 2j):
        with pytest.raises(UsageError, match=f"{name} must be a real number"):
            call(sieve_small, bad)
    if request.node.callspec.id.startswith("tabulate"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(UsageError, match="s must be finite"):
                call(sieve_small, bad)
    assert call(sieve_small, np.float64(2.0)) == call(sieve_small, 2.0)


def test_general_at_N1(sieve_small):
    # sigma(1) pair at N=1 reduces to the Cor. 3.2 constant z(2)^2/z(4) = 5/2
    p = sigma_provider(1.0)
    value, tail = main_term_general(sieve_small, p, p, 1, 40.0)
    assert abs(value - 2.5 * 40.0) <= tail + 1e-9


def test_general_rejects_conditional(sieve_small):
    with pytest.raises(UsageError):
        main_term_general(sieve_small, divisor_provider(), sigma_provider(1.0), 6, 10.0)


def test_general_R_exceeding_sieve(sieve_small):
    # slow decay forces a default R far past the sieve limit
    p = sigma_provider(0.1)
    with pytest.raises(UsageError):
        main_term_general(sieve_small, p, p, 6, 10.0)


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


def test_sigma_full_constants(sieve_small):
    # Gamma factor 1/6, zeta factor 5/2, sigma_3 values by enumeration
    for N in (6, 12, 28):
        value, omega = main_term_sigma_full(sieve_small, 1.0, 1.0, N)
        sigma3 = sum(d**3 for d in brute.divisors(N))
        ref = (1.0 / 6.0) * 2.5 * sigma3
        assert abs(value - ref) / ref < 1e-10, N
        assert omega == 2.0
    assert main_term_sigma_full(sieve_small, 1.0, 1.0, 6)[0] == pytest.approx(105.0, rel=1e-10)


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


def test_verify_report_fields():
    rep = verify(12.0, 4.4024, math.e, N=6, M=3.0, envelope_kind="divisor_subsum")
    assert rep.residual == pytest.approx(7.5976)
    assert rep.normalized == pytest.approx(7.5976 / math.e)
    assert rep.relative == pytest.approx(7.5976 / 4.4024)
    assert rep.N == 6 and rep.M == 3.0
    same = verify(5.0, 5.0, 1.0, N=4, M=2.0)
    assert same.normalized == 0.0
    undef = verify(1.0, 0.0, 1.0, N=4, M=2.0)
    assert math.isnan(undef.relative)
    with pytest.raises(UsageError):
        verify(1.0, 1.0, 0.0, N=4, M=2.0)


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
    result = sweep(lambda N: divisor_report(sieve_small, dtable_small, N, float(N // 2)), [100])
    assert len(result.reports) == 1
    rep = result.reports[0]
    assert result.max_normalized == abs(rep.normalized)
    assert result.endpoint_relative == (rep.relative, rep.relative)
    with pytest.raises(UsageError):
        sweep(lambda N: rep, [])


@pytest.mark.parametrize("nan_first", [True, False])
def test_sweep_max_normalized_skips_nan(nan_first):
    # a report without an envelope has a NaN normalized; wherever it sits,
    # the worst case is taken over the others, and is NaN only when all are
    no_envelope = verify(2.0, 1.0, math.nan, N=4, M=1.0)
    finite = [verify(3.0, 1.0, 1.0, N=4, M=2.0), verify(2.0, 1.0, 1.0, N=4, M=3.0)]
    grid = [no_envelope] + finite if nan_first else finite + [no_envelope]
    assert sweep(lambda rep: rep, grid).max_normalized == 2.0
    assert math.isnan(sweep(lambda rep: rep, [no_envelope]).max_normalized)


def test_sweep_runs_in_calling_thread_in_grid_order(sieve_small, dtable_small, monkeypatch):
    # a worker count set in the environment is ignored
    monkeypatch.setenv("CONVLAB_THREADS", "4")
    calls = []

    def make(N):
        calls.append((threading.get_ident(), N))
        return divisor_report(sieve_small, dtable_small, N, float(N // 2))

    grid = [50, 100, 400, 1000, 2000, 5000]
    result = sweep(make, grid)
    assert calls == [(threading.get_ident(), N) for N in grid]
    assert [rep.N for rep in result.reports] == grid


def test_divisor_report_boundaries(sieve_small, dtable_small):
    sub = divisor_report(sieve_small, dtable_small, 1000, 300.0)
    assert sub.envelope_kind == "divisor_subsum"
    assert sub.exact == float(
        sum(
            int(dtable_small.values[n]) * int(dtable_small.values[1000 - n])
            for n in range(1, 301)
        )
    )
    sup = divisor_report(sieve_small, dtable_small, 1000, 800.0)
    assert sup.envelope_kind == "divisor_supersum"


def _sigma_norm_exact(sieve, f, g, N, M):
    return additive_convolution(f, g, ConvolutionSpec(N=N, M=M, boundary="half_open"))


def test_sigma_norm_report_regimes(sieve_small):
    f = tabulate(sieve_small, "sigma_norm", 1000, s=0.5)
    exact = _sigma_norm_exact(sieve_small, f, f, 1000, 100.0)
    rep = sigma_norm_report(sieve_small, exact, 0.5, 0.5, 1000, 100.0)
    assert rep.envelope_kind == "delta_lt_1" and rep.exact == exact
    assert rep.envelope == pytest.approx(100.0**0.5 * math.log(100.0) ** 3)
    g = tabulate(sieve_small, "sigma_norm", 1000, s=1.0)
    rep = sigma_norm_report(sieve_small, _sigma_norm_exact(sieve_small, g, g, 1000, 100.0),
                            1.0, 1.0, 1000, 100.0)
    assert rep.envelope_kind == "delta_eq_1"
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
        verify(1.0, 1.0, -1.0, N=4, M=2.0)
