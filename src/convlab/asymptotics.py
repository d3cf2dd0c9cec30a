"""Asymptotic main terms, error envelopes, and verification reports.

All logarithms are natural.  Envelopes are the bodies of the error terms
with implied constant 1; residual / envelope is the "normalized" field of
a report and is the quantity whose boundedness the sweep commands check.

Main terms implemented here:

  * divisor convolution sum_{n <= M} d(n) d(N-n), M <= N/2:
        (6/pi^2) M sigma_{-1}(N) log^2 X,   X = sqrt(M (N - M)),
    with error envelope M sigma_{-1}(N) log N loglog N;
  * its complement form for N/2 <= M <= N (half-open sum):
        (6/pi^2) sigma_{-1}(N) (N log^2 N - (N - M) log^2 X),
    error envelope sigma_1(N) log N loglog N;
  * pairs of Ramanujan expansions with coefficient decay delta_f, delta_g:
        M sum_r a_f(r) a_g(r) c_r(N),
    M times the partial sum of the product expansion (product_provider),
    truncated with its rigorous tail bound;
  * normalized sigma pairs sigma_a(n)/n^a * sigma_b(N-n)/(N-n)^b:
        M zeta(a+1) zeta(b+1) / zeta(a+b+2) * sigma_{a+b+1}(N)/N^{a+b+1},
    with the three error regimes selected by delta = min(a, b);
  * the unnormalized full sum sum_{n < N} sigma_a(n) sigma_b(N-n):
        Gamma(a+1)Gamma(b+1)/Gamma(a+b+2) * zeta(a+1)zeta(b+1)/zeta(a+b+2)
          * sigma_{a+b+1}(N),
    with growth exponent omega = a + b + 1 - min(a, b, 1);
  * the coprime-pair harmonic sum tau(y): (3/pi^2) log^2 y, envelope log y.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .arith import (
    ArithTable, FactorSieve, as_index, as_real, factorize, sigma_rational, sigma_real,
)
from .convolution import ConvolutionSpec, additive_convolutions
from .errors import UsageError
from .ramanujan import CoefficientProvider, expansion_partial_sum, product_provider
from .special import gamma_real, one_plus, zeta_real

__all__ = [
    "ConvolutionReport",
    "SweepResult",
    "main_term_full",
    "main_term_subsum",
    "main_term_supersum",
    "main_term_general",
    "main_term_sigma_norm",
    "main_term_sigma_full",
    "tau_main",
    "envelope_subsum",
    "envelope_fullsum",
    "envelope_ramanujan",
    "envelope_defect",
    "ramanujan_regime",
    "verify",
    "sweep",
    "divisor_report",
    "divisor_reports",
    "sigma_norm_report",
]

_SIX_OVER_PI2 = 6.0 / math.pi**2
_THREE_OVER_PI2 = 3.0 / math.pi**2
_MIN_ENVELOPE_N = 16  # loglog N must be safely positive


def _sigma_minus_one(sieve: FactorSieve, N: int) -> float:
    # sigma_1(N) / N rounded once, as float(sigma_rational(f, -1)) would be
    return sigma_rational(factorize(sieve, N), 1) / N


def main_term_full(sieve: FactorSieve, N: int) -> float:
    """(6/pi^2) sigma_{-1}(N) N log^2 N for the full sum over 1 <= n < N."""
    N = as_index("N", N, 2, sieve)
    return _SIX_OVER_PI2 * _sigma_minus_one(sieve, N) * N * math.log(N) ** 2


def main_term_subsum(sieve: FactorSieve, N: int, M: float) -> float:
    """(6/pi^2) M sigma_{-1}(N) log^2 sqrt(M(N-M)) for M <= N/2."""
    N = as_index("N", N, 1, sieve)
    _check_subsum("main_term_subsum", N, M)
    X = math.sqrt(M * (N - M))
    return _SIX_OVER_PI2 * M * _sigma_minus_one(sieve, N) * math.log(X) ** 2


def _check_subsum(what: str, N: int, M: float) -> None:
    # the M of a closed subsum term: a finite real in [1, N/2], and log^2 X
    # with X = sqrt(M(N - M)) must not vanish
    if not 1 <= as_real("M", M) <= N / 2:
        raise UsageError(f"{what} needs 1 <= M <= N/2, got M={M}, N={N}")
    if M * (N - M) < 2:
        raise UsageError("need M(N - M) >= 2")


def main_term_supersum(sieve: FactorSieve, N: int, M: float) -> float:
    """(6/pi^2) sigma_{-1}(N) (N log^2 N - (N-M) log^2 X) for N/2 <= M <= N.

    The boundary term (N - M) log^2 X vanishes by convention at M = N.
    """
    N = as_index("N", N, 1, sieve)
    if not N / 2 <= as_real("M", M) <= N:
        raise UsageError(f"main_term_supersum needs N/2 <= M <= N, got M={M}, N={N}")
    if M == N:
        boundary = 0.0
    else:
        boundary = (N - M) * math.log(math.sqrt(M * (N - M))) ** 2
    s = _sigma_minus_one(sieve, N)
    return _SIX_OVER_PI2 * s * (N * math.log(N) ** 2 - boundary)


def _check_M(M: float) -> None:
    # a main term's M: a finite real >= 0
    if as_real("M", M) < 0:
        raise UsageError(f"M must be >= 0, got {M}")


def main_term_general(
    sieve: FactorSieve,
    pf: CoefficientProvider,
    pg: CoefficientProvider,
    N: int,
    M: float,
    R: Optional[int] = None,
) -> Tuple[float, float]:
    """M sum_{r <= R} a_f(r) a_g(r) c_r(N) with a rigorous truncation bound.

    M times expansion_partial_sum of product_provider(pf, pg) at N.
    Returns (value, tail_bound) where tail_bound covers the discarded
    r > R terms: M K_f K_g sigma_1(N) R**-(1+df+dg) / (1+df+dg).  When R
    is not given it is chosen so the bound is at most 1e-9 * M, capped at
    sieve.limit as expansion_adaptive caps its doubling: UsageError names
    an R past the cap, which the caller may pass.  Both providers must
    carry decay metadata.
    """
    if pf.conditional or pg.conditional:
        raise UsageError("main_term_general needs providers with decay metadata")
    N = as_index("N", N, 1, sieve)
    if R is not None:
        R = as_index("R", R, 1, sieve)
    _check_M(M)
    if M == 0:
        return 0.0, 0.0
    product = product_provider(pf, pg)
    f = factorize(sieve, N)
    if R is None:
        scale = product.bound * sigma_rational(f, 1)
        R = max(16, math.ceil((scale / (product.delta * 1e-9)) ** (1.0 / product.delta)))
        if R > sieve.limit:
            raise UsageError(f"tail bound needs R = {R} > sieve limit {sieve.limit}; pass R")
    res = expansion_partial_sum(sieve, product, f, R)
    return M * res.value, M * res.tail_bound


def check_sigma_pair(alpha: float, beta: float) -> Tuple[float, float]:
    """(w, zeta(1 + alpha) zeta(1 + beta) / zeta(w + 1)), w = alpha + beta + 1.

    The one rule for the exponents of a sigma pair's main terms, or
    UsageError naming the exponents: alpha and beta finite and > 0,
    1 + alpha and 1 + beta above 1 in float64 (one_plus), and w finite.
    A caller can check the exponents before it builds the sieve.
    """
    if as_real("alpha", alpha) <= 0 or as_real("beta", beta) <= 0:
        raise UsageError("alpha and beta must be positive")
    za, zb = zeta_real(one_plus("alpha", alpha)), zeta_real(one_plus("beta", beta))
    w = alpha + beta + 1.0
    if not math.isfinite(w):
        raise UsageError(f"alpha + beta + 1 overflows float64, got alpha={alpha}, beta={beta}")
    return w, za * zb / zeta_real(w + 1.0)


def main_term_sigma_norm(
    sieve: FactorSieve, alpha: float, beta: float, N: int, M: float
) -> Tuple[float, float]:
    """Main term for sum_{n < M} sigma_a(n)/n^a * sigma_b(N-n)/(N-n)^b.

    Returns (value, delta) with delta = min(alpha, beta) selecting the
    error regime.
    """
    w, zfac = check_sigma_pair(alpha, beta)
    N = as_index("N", N, 1, sieve)
    _check_M(M)
    snorm = sigma_real(factorize(sieve, N), -w)
    return M * zfac * snorm, min(alpha, beta)


def main_term_sigma_full(
    sieve: FactorSieve, alpha: float, beta: float, N: int
) -> Tuple[float, float]:
    """Main term for the full sum sum_{n < N} sigma_a(n) sigma_b(N-n).

    Returns (value, omega) where residuals are expected to grow no faster
    than N**omega, omega = alpha + beta + 1 - min(alpha, beta, 1).
    """
    w, zfac = check_sigma_pair(alpha, beta)
    N = as_index("N", N, 2, sieve)
    gfac = gamma_real(alpha + 1.0) * gamma_real(beta + 1.0) / gamma_real(w + 1.0)
    sig = sigma_real(factorize(sieve, N), w)
    omega = w - min(alpha, beta, 1.0)
    return gfac * zfac * sig, omega


def tau_main(y: float) -> float:
    """(3/pi^2) log^2 y."""
    if as_real("y", y) < 2:
        raise UsageError(f"tau_main needs y >= 2, got {y}")
    return _THREE_OVER_PI2 * math.log(y) ** 2


# --- error envelopes ----------------------------------------------------


def _check_envelope_n(N: int) -> None:
    if N < _MIN_ENVELOPE_N:
        raise UsageError(f"envelopes with loglog N need N >= {_MIN_ENVELOPE_N}, got {N}")


def envelope_subsum(sieve: FactorSieve, N: int, M: float) -> float:
    """M sigma_{-1}(N) log N loglog N, for 1 <= M <= N/2 as main_term_subsum."""
    N = as_index("N", N, 1, sieve)
    _check_subsum("envelope_subsum", N, M)
    _check_envelope_n(N)
    return M * _sigma_minus_one(sieve, N) * math.log(N) * math.log(math.log(N))


def envelope_fullsum(sieve: FactorSieve, N: int) -> float:
    """sigma_1(N) log N loglog N."""
    N = as_index("N", N, 1, sieve)
    _check_envelope_n(N)
    s1 = sigma_rational(factorize(sieve, N), 1)
    return s1 * math.log(N) * math.log(math.log(N))


def _check_delta(delta: float) -> None:
    # a decay exponent: a finite real > 0
    if as_real("delta", delta) <= 0:
        raise UsageError(f"delta must be positive, got {delta}")


def ramanujan_regime(delta: float) -> str:
    _check_delta(delta)
    if delta < 1.0:
        return "delta_lt_1"
    if delta == 1.0:
        return "delta_eq_1"
    return "delta_gt_1"


def envelope_ramanujan(delta: float, M: float) -> float:
    """Error envelope for decay exponent delta at truncation-free level M.

    delta < 1: M**(1-delta) (log M)**(4-2 delta); delta = 1: (log M)**3;
    delta > 1: 1.
    """
    _check_delta(delta)
    if as_real("M", M) < 2:
        raise UsageError(f"envelope needs M >= 2, got {M}")
    if delta < 1.0:
        return M ** (1.0 - delta) * math.log(M) ** (4.0 - 2.0 * delta)
    if delta == 1.0:
        return math.log(M) ** 3
    return 1.0


def envelope_defect(r: int, s: int) -> float:
    """r s (log(r s) + 1), the orthogonality defect envelope, for integers r, s >= 1."""
    r, s = as_index("r", r, 1), as_index("s", s, 1)
    return r * s * (math.log(r * s) + 1.0)


# --- reports and sweeps --------------------------------------------------


@dataclass(frozen=True)
class ConvolutionReport:
    """One exact sum measured against its main term and error envelope.

    N, M and boundary are those of the ConvolutionSpec the sum ran over.
    relative is residual / main, or NaN when main is zero.
    """

    N: int
    M: float
    boundary: str
    exact: float
    main: float
    residual: float
    envelope: float
    normalized: float
    relative: float


def verify(
    spec: ConvolutionSpec,
    exact: float,
    main: float,
    envelope: float,
) -> ConvolutionReport:
    """The report of the sum over spec: exact against main and envelope.

    The spec has checked N and M by its rules.  exact and main must be
    finite real numbers (as_real), and the envelope a finite real number
    > 0, or NaN where no envelope applies; the normalized residual is
    then NaN too.
    """
    exact, main = float(as_real("exact", exact)), as_real("main", main)
    if not (isinstance(envelope, numbers.Real)
            and (0 < envelope < math.inf or math.isnan(envelope))):
        raise UsageError(f"envelope must be a real number > 0 and finite, or NaN, got {envelope!r}")
    residual = exact - main
    relative = residual / main if main != 0 else math.nan
    return ConvolutionReport(
        N=spec.N,
        M=spec.M,
        boundary=spec.boundary,
        exact=exact,
        main=main,
        residual=residual,
        envelope=envelope,
        normalized=residual / envelope,
        relative=relative,
    )


@dataclass(frozen=True)
class SweepResult:
    """Reports over a parameter grid with endpoint and worst-case summaries."""

    reports: Tuple[ConvolutionReport, ...]
    max_normalized: float
    endpoint_relative: Tuple[float, float]


def sweep(reports: Sequence[ConvolutionReport]) -> SweepResult:
    """The reports of a grid, in grid order, with their summaries.

    max_normalized skips NaN values, and is NaN when every value is.
    """
    if len(reports) == 0:
        raise UsageError("sweep needs at least one report")
    reports = tuple(reports)
    norms = [abs(r.normalized) for r in reports if not math.isnan(r.normalized)]
    return SweepResult(
        reports=reports,
        max_normalized=max(norms, default=math.nan),
        endpoint_relative=(reports[0].relative, reports[-1].relative),
    )


def divisor_report(
    sieve: FactorSieve, dtable: ArithTable, N: int, M: float
) -> ConvolutionReport:
    """Report for the divisor convolution at (N, M).

    The exact sum is additive_convolution of dtable with itself over the
    spec of check_divisor_report: the closed sum with its refined main
    term for M <= N/2, the half-open sum with the complement main term
    above.
    """
    return divisor_reports(sieve, dtable, [(N, M)])[0]


def divisor_reports(
    sieve: FactorSieve, dtable: ArithTable, points: Sequence[Tuple[int, float]]
) -> List[ConvolutionReport]:
    """divisor_report at every (N, M) of points, in order.

    Every point's spec comes from check_divisor_report before any sum,
    and the exact sums come from one additive_convolutions call, which
    reads each block of dtable once for the whole grid.
    """
    specs = [check_divisor_report(N, M) for N, M in points]
    exacts = additive_convolutions(dtable, dtable, specs)
    reports = []
    for spec, exact in zip(specs, exacts):
        N, M = spec.N, spec.M
        if spec.boundary == "closed":
            main = main_term_subsum(sieve, N, M)
            env = envelope_subsum(sieve, N, M)
        else:
            main = main_term_supersum(sieve, N, M)
            env = envelope_fullsum(sieve, N)
        reports.append(verify(spec, exact, main, env))
    return reports


def check_divisor_report(N: int, M: float) -> ConvolutionSpec:
    """The spec of divisor_report's sum at (N, M), or UsageError where it has none.

    The one rule for its boundary: closed for M <= N/2, half-open above.
    The checks, in the order divisor_report meets them: the spec's own
    (an integer N >= 2 and a real M in [1, N]), then M(N - M) >= 2 for
    the closed sum, whose main term takes log sqrt(M(N - M)), then N >= 16
    for the envelopes' loglog N.  A caller can check every point before
    it builds the divisor table.
    """
    spec = ConvolutionSpec(N=N, M=M, boundary="half_open")
    if spec.M <= spec.N / 2:
        spec = ConvolutionSpec(N=N, M=M, boundary="closed")
        _check_subsum("divisor_report", spec.N, spec.M)
    _check_envelope_n(spec.N)
    return spec


def sigma_norm_report(
    sieve: FactorSieve,
    exact: float,
    alpha: float,
    beta: float,
    N: int,
    M: float,
) -> ConvolutionReport:
    """Report for the half-open normalized sigma convolution at (N, M).

    exact is the sum itself, sum_{n < M} sigma_a(n)/n^a *
    sigma_b(N-n)/(N-n)^b: additive_convolution of the two sigma_norm
    tables, or additive_convolutions for a grid of M, whose above lets
    it hold neither table whole.  The regime envelope needs log M > 0, so for 1 <= M < 2
    envelope and normalized are NaN.
    """
    spec = ConvolutionSpec(N=N, M=M, boundary="half_open")
    main, delta = main_term_sigma_norm(sieve, alpha, beta, N, M)
    env = envelope_ramanujan(delta, M) if M >= 2 else math.nan
    return verify(spec, exact, main, env)
