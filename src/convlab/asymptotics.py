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
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .arith import (
    ArithTable, FactorSieve, as_index, as_real, factorize, sigma_rational, sigma_real,
)
from .convolution import ConvolutionSpec, additive_convolutions
from .errors import UsageError
from .ramanujan import CoefficientProvider, expansion_partial_sum, product_provider
from .special import gamma_real, zeta_real

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
    return float(sigma_rational(factorize(sieve, N), -1))


def main_term_full(sieve: FactorSieve, N: int) -> float:
    """(6/pi^2) sigma_{-1}(N) N log^2 N for the full sum over 1 <= n < N."""
    N = as_index("N", N, 2, sieve)
    return _SIX_OVER_PI2 * _sigma_minus_one(sieve, N) * N * math.log(N) ** 2


def main_term_subsum(sieve: FactorSieve, N: int, M: float) -> float:
    """(6/pi^2) M sigma_{-1}(N) log^2 sqrt(M(N-M)) for M <= N/2."""
    N = as_index("N", N, 1, sieve)
    if not 1 <= as_real("M", M) <= N / 2:
        raise UsageError(f"main_term_subsum needs 1 <= M <= N/2, got M={M}, N={N}")
    _check_subsum_x(N, M)
    X = math.sqrt(M * (N - M))
    return _SIX_OVER_PI2 * M * _sigma_minus_one(sieve, N) * math.log(X) ** 2


def _check_subsum_x(N: int, M: float) -> None:
    # log^2 X with X = sqrt(M(N - M)) must not vanish
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
    is not given it is chosen so the bound is at most 1e-9 * M.  Both
    providers must carry decay metadata.
    """
    if pf.conditional or pg.conditional:
        raise UsageError("main_term_general needs providers with decay metadata")
    N = as_index("N", N, 1, sieve)
    if R is not None:
        R = as_index("R", R, 1, sieve)
    if not 0 <= as_real("M", M) < math.inf:
        raise UsageError(f"M must be finite and >= 0, got {M}")
    if M == 0:
        return 0.0, 0.0
    product = product_provider(pf, pg)
    if R is None:
        scale = product.bound * sigma_rational(factorize(sieve, N), 1)
        R = max(16, math.ceil((scale / (product.delta * 1e-9)) ** (1.0 / product.delta)))
    res = expansion_partial_sum(sieve, product, N, R)
    return M * res.value, M * res.tail_bound


def main_term_sigma_norm(
    sieve: FactorSieve, alpha: float, beta: float, N: int, M: float
) -> Tuple[float, float]:
    """Main term for sum_{n < M} sigma_a(n)/n^a * sigma_b(N-n)/(N-n)^b.

    Returns (value, delta) with delta = min(alpha, beta) selecting the
    error regime.
    """
    if as_real("alpha", alpha) <= 0 or as_real("beta", beta) <= 0:
        raise UsageError("alpha and beta must be positive")
    N = as_index("N", N, 1, sieve)
    if not math.isfinite(as_real("M", M)):
        raise UsageError(f"M must be finite, got {M}")
    w = alpha + beta + 1.0
    zfac = zeta_real(alpha + 1.0) * zeta_real(beta + 1.0) / zeta_real(w + 1.0)
    snorm = sigma_real(factorize(sieve, N), -w)
    return M * zfac * snorm, min(alpha, beta)


def main_term_sigma_full(
    sieve: FactorSieve, alpha: float, beta: float, N: int
) -> Tuple[float, float]:
    """Main term for the full sum sum_{n < N} sigma_a(n) sigma_b(N-n).

    Returns (value, omega) where residuals are expected to grow no faster
    than N**omega, omega = alpha + beta + 1 - min(alpha, beta, 1).
    """
    if as_real("alpha", alpha) <= 0 or as_real("beta", beta) <= 0:
        raise UsageError("alpha and beta must be positive")
    N = as_index("N", N, 2, sieve)
    w = alpha + beta + 1.0
    gfac = gamma_real(alpha + 1.0) * gamma_real(beta + 1.0) / gamma_real(w + 1.0)
    zfac = zeta_real(alpha + 1.0) * zeta_real(beta + 1.0) / zeta_real(w + 1.0)
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
    """M sigma_{-1}(N) log N loglog N."""
    N = as_index("N", N, 1, sieve)
    _check_envelope_n(N)
    return as_real("M", M) * _sigma_minus_one(sieve, N) * math.log(N) * math.log(math.log(N))


def envelope_fullsum(sieve: FactorSieve, N: int) -> float:
    """sigma_1(N) log N loglog N."""
    N = as_index("N", N, 1, sieve)
    _check_envelope_n(N)
    s1 = sigma_rational(factorize(sieve, N), 1)
    return s1 * math.log(N) * math.log(math.log(N))


def ramanujan_regime(delta: float) -> str:
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
    if as_real("delta", delta) <= 0:
        raise UsageError(f"delta must be positive, got {delta}")
    if as_real("M", M) < 2:
        raise UsageError(f"envelope needs M >= 2, got {M}")
    if delta < 1.0:
        return M ** (1.0 - delta) * math.log(M) ** (4.0 - 2.0 * delta)
    if delta == 1.0:
        return math.log(M) ** 3
    return 1.0


def envelope_defect(r: int, s: int) -> float:
    """r s (log(r s) + 1), the orthogonality defect envelope."""
    if r < 1 or s < 1:
        raise UsageError(f"need r, s >= 1, got r={r}, s={s}")
    return r * s * (math.log(r * s) + 1.0)


# --- reports and sweeps --------------------------------------------------


@dataclass(frozen=True)
class ConvolutionReport:
    """One exact sum measured against its main term and error envelope.

    relative is residual / main, or NaN when main is zero.
    """

    N: int
    M: float
    exact: float
    main: float
    residual: float
    envelope: float
    normalized: float
    relative: float
    envelope_kind: str


def verify(
    exact: float,
    main: float,
    envelope: float,
    *,
    N: int,
    M: float,
    envelope_kind: str = "custom",
) -> ConvolutionReport:
    """Assemble a ConvolutionReport.

    The envelope must be positive, or NaN where no envelope applies; the
    normalized residual is then NaN too.
    """
    if not (envelope > 0 or math.isnan(envelope)):
        raise UsageError(f"envelope must be positive, got {envelope}")
    exact = float(exact)
    residual = exact - main
    relative = residual / main if main != 0 else math.nan
    return ConvolutionReport(
        N=N,
        M=M,
        exact=exact,
        main=main,
        residual=residual,
        envelope=envelope,
        normalized=residual / envelope,
        relative=relative,
        envelope_kind=envelope_kind,
    )


@dataclass(frozen=True)
class SweepResult:
    """Reports over a parameter grid with endpoint and worst-case summaries."""

    reports: Tuple[ConvolutionReport, ...]
    max_normalized: float
    endpoint_relative: Tuple[float, float]


def sweep(make_report: Callable[[Any], ConvolutionReport], grid: Sequence[Any]) -> SweepResult:
    """Evaluate make_report over grid, in grid order, in the calling thread.

    max_normalized skips NaN values, and is NaN when every value is.
    """
    if len(grid) == 0:
        raise UsageError("sweep needs a non-empty grid")
    reports = tuple(make_report(point) for point in grid)
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

    The exact sum is additive_convolution of dtable with itself.  M <= N/2
    uses the closed-boundary sum with its refined main term; M > N/2 uses
    the half-open sum with the complement main term.
    """
    return divisor_reports(sieve, dtable, [(N, M)])[0]


def divisor_reports(
    sieve: FactorSieve, dtable: ArithTable, points: Sequence[Tuple[int, float]]
) -> List[ConvolutionReport]:
    """divisor_report at every (N, M) of points, in order.

    Every point is checked before any sum, and the exact sums come from
    one additive_convolutions call, which reads each block of dtable once
    for the whole grid.
    """
    specs = []
    for N, M in points:
        closed = M <= N / 2
        specs.append(ConvolutionSpec(N=N, M=M, boundary="closed" if closed else "half_open"))
        check_divisor_report(N, M)
    exacts = additive_convolutions(dtable, dtable, specs)
    reports = []
    for spec, exact in zip(specs, exacts):
        N, M = spec.N, spec.M
        if spec.boundary == "closed":
            main = main_term_subsum(sieve, N, M)
            env = envelope_subsum(sieve, N, M)
            kind = "divisor_subsum"
        else:
            main = main_term_supersum(sieve, N, M)
            env = envelope_fullsum(sieve, N)
            kind = "divisor_supersum"
        reports.append(verify(exact, main, env, N=N, M=M, envelope_kind=kind))
    return reports


def check_divisor_report(N: int, M: float) -> None:
    """Raise UsageError where divisor_report has no main term or envelope.

    The rules, in the order divisor_report meets them, for an M in
    [1, N]: M(N - M) >= 2 for the closed sum (M <= N/2), whose main term
    takes log sqrt(M(N - M)), then N >= 16 for the envelopes' loglog N.
    divisor_report checks them before its exact sum; a caller can check
    every point before it builds the divisor table.
    """
    if M <= N / 2:
        _check_subsum_x(N, M)
    _check_envelope_n(N)


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
    tables, or streamed_convolutions for a grid of M, which holds neither
    table whole.  The regime envelope needs log M > 0, so for 1 <= M < 2
    envelope and normalized are NaN.
    """
    ConvolutionSpec(N=N, M=M, boundary="half_open")  # checks N and M
    main, delta = main_term_sigma_norm(sieve, alpha, beta, N, M)
    env = envelope_ramanujan(delta, M) if M >= 2 else math.nan
    return verify(exact, main, env, N=N, M=M, envelope_kind=ramanujan_regime(delta))
