"""Command-line harness: exact convolutions and verification sweeps.

Six subcommands.  Each checks every argument, sizes the sieve, builds its
tables and returns machine-readable rows, which main emits (CSV by
default, JSON behind --format json) with a fixed column order:

  convolve         one exact additive convolution value
                   columns: N, M, boundary, value
  verify-ingham    divisor convolution vs. its main term over an N grid
                   columns: N, M, boundary, exact, main, residual,
                            envelope, normalized, relative, sub_full_ratio
  verify-general   normalized sigma convolution vs. its main term
                   columns: alpha, beta, N, M, delta, regime, exact,
                            main, residual, envelope, normalized
  orthogonality    Ramanujan-sum pair sums vs. the diagonal main term
                   columns: r, s, exact, main, defect, normalized
  goldbach         Lambda self-convolution vs. N times the singular series
                   columns: N, R, exact, singular_series, main, ratio
  tau              coprime-pair harmonic sum vs. (3/pi^2) log^2 y
                   columns: y, exact, main, residual_over_log

Exit codes: 0 pass, 1 assertion failure, 2 usage or domain error.  Exit
2 covers every malformed input: an unparsable, infinite or NaN number
(--M, --alpha, --beta, --assert-max, exponents, M rules, grids), a
fractional N in a grid, an --output file that cannot be written and a
table too large for memory or for numpy to address, an N below 2, a
sigma table whose powers d**s would overflow float64 (for an integer s
too), a real sum that would overflow it, and argparse's own errors (a
missing option or value, a non-integer N, an unknown choice).  It
prints one "error: ..." line to stderr and no traceback.  Every
argument, each M, verify-general's exponents and verify-ingham's domain
(M(N - M) >= 2 on its closed sums, N >= 16 for its envelopes) included,
is checked before any table is built.  An option value may start with
"-" ("--beta -inf"), so it reaches the same checks as "--beta=-inf".
Floats are printed with 15 significant digits; reruns are byte-identical.
The sieve is built once per process at the smallest limit the command
needs, so no output depends on its size: isqrt(n) for the largest n
that the command tabulates to or factors, N or the R, r and s of the
Ramanujan sums, as a table to n sieves its own spf runs from the primes
up to isqrt(n) and a factorization of n divides by them.
Whether the largest table, to N, is addressable is checked before the
sieve is built.  No command builds a Lambda table: goldbach and convolve
of lambda with any kind sum over the n where the Lambda side is a prime
power, with lambda_convolution, against the other kind tabulated to N,
with the bits of the sum over a dense Lambda table.  A convolve of two
kinds other than Lambda, such as phi with mu or sigma:1 with d, in
either order, and verify-general's grid of sums of its sigma_norm
tables (one table when alpha = beta) walk both tables together to N/2
(arith.walked_halves), hold them only that far whatever M is, and walk
on to N - 1, passing the entries above through one reused block buffer
per table into the sums (additive_convolution's above), so their memory
is about half a table per function and does not depend on M; the sums
keep the values and bits of those over the whole tables, and a table
that would overflow to N is refused as before.
A CLI process (python -m convlab.cli, python -m convlab or the convlab
script) runs one BLAS thread unless the user gave OpenBLAS a count
(OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS), and then
sums verify-ingham's grid in lanes on every CPU (see convolution); no
output depends on either.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

if __name__ == "__main__":
    # `python -m convlab.cli`: one BLAS thread unless the user gave a
    # count, set before numpy loads (see __main__.py)
    from . import _pin_one_blas_thread

    _pin_one_blas_thread()

from .arith import build_sieve, check_addressable, tabulate, walked_halves
from .asymptotics import (
    ConvolutionReport,
    check_divisor_report,
    check_sigma_pair,
    divisor_reports,
    envelope_defect,
    ramanujan_regime,
    sigma_norm_report,
    sweep,
    tau_main,
)
from .convolution import (
    ConvolutionSpec,
    additive_convolution,
    additive_convolutions,
    lambda_convolution,
    tau_exact,
)
from .errors import UsageError
from .ramanujan import check_orthogonality_range, orthogonality_defect, singular_series

Row = Dict[str, Any]


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"{what} must be a finite number, got {text!r}")
    return value


def _parse_kind(text: str) -> Tuple[str, Optional[float]]:
    plain = {"d": "divisor", "mu": "mobius", "phi": "phi", "lambda": "lambda"}
    if text in plain:
        return plain[text], None
    for prefix in ("sigma_norm:", "sigma:"):
        if text.startswith(prefix):
            s = _parse_float(text[len(prefix):], f"exponent in function kind {text!r}")
            return prefix[:-1], s
    raise UsageError(
        f"unknown function kind {text!r}; expected one of "
        "d, mu, phi, lambda, sigma:s, sigma_norm:s"
    )


def _parse_m_rule(text: str) -> Tuple[str, Callable[[int], float]]:
    # the rule's name and M as a function of N
    if text == "half":
        return "half", lambda N: float(N // 2)
    if text.startswith("frac:"):
        c = _parse_float(text[5:], "frac rule c")
        if not 0 < c <= 1:
            raise UsageError(f"frac rule needs 0 < c <= 1, got {c}")
        return "frac", lambda N: c * N
    if text.startswith("fixed:"):
        M = _parse_float(text[6:], "fixed rule M")
        return "fixed", lambda N: M
    raise UsageError(f"unknown M rule {text!r}; expected half, frac:c, or fixed:M")


def _parse_grid(text: str, kind: str) -> List[float]:
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not toks:
        raise UsageError(f"empty {kind} grid")
    return [_parse_float(tok, f"{kind} grid entry") for tok in toks]


def _check_N(N: int) -> None:
    if N < 2:
        raise UsageError(f"--N must be >= 2, got {N}")


def _fmt_float(v: float) -> str:
    return "nan" if math.isnan(v) else "%.15g" % v


def _csv_cell(v: Any) -> str:
    return _fmt_float(v) if isinstance(v, float) else str(v)


def _json_value(v: Any) -> Any:
    if isinstance(v, float):
        return None if math.isnan(v) else float(_fmt_float(v))
    return v


def _emit(
    command: str,
    headers: Sequence[str],
    rows: Sequence[Row],
    summary: Dict[str, Any],
    fmt: str,
    output: Optional[str],
) -> None:
    if fmt == "json":
        doc = {
            "command": command,
            "rows": [{h: _json_value(row[h]) for h in headers} for row in rows],
            "summary": {k: _json_value(v) for k, v in summary.items()},
        }
        import json  # only a JSON emit pays for the module

        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [",".join(headers)]
        for row in rows:
            lines.append(",".join(_csv_cell(row[h]) for h in headers))
        for key, val in summary.items():
            lines.append(f"# {key}={_csv_cell(val)}")
        text = "\n".join(lines) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _sieve_for(limit: int, table_N: int):
    # the largest table, over 0..table_N, is checked before the sieve is
    # built, which may be far smaller than it
    check_addressable(table_N, "table to N =")
    return build_sieve(max(limit, 2))


def _within_twice_first(reports: Sequence[ConvolutionReport]) -> bool:
    return all(abs(r.normalized) <= 2.0 * abs(reports[0].normalized) for r in reports)


# --- subcommands ---------------------------------------------------------

Result = Tuple[List[Row], Dict[str, Any], int]

_CONVOLVE_HEADERS = ("N", "M", "boundary", "value")


def cmd_convolve(args: argparse.Namespace) -> Result:
    fkind, fs = _parse_kind(args.f)
    gkind, gs = _parse_kind(args.g)
    M = _parse_float(args.M, "--M")
    _check_N(args.N)
    spec = ConvolutionSpec(N=args.N, M=M, boundary=args.boundary)
    sieve = _sieve_for(math.isqrt(args.N), args.N)
    if "lambda" in (fkind, gkind):
        # Lambda is summed over its prime powers, against the other kind to N
        f, g = (None if kind == "lambda" else tabulate(sieve, kind, args.N, s=s)
                for kind, s in ((fkind, fs), (gkind, gs)))
        value = lambda_convolution(sieve, spec, f, g)
    else:
        ftab, gtab, above = walked_halves(sieve, (fkind, fs), (gkind, gs), args.N)
        value = additive_convolution(ftab, gtab, spec, above=above)
    return [{"N": args.N, "M": M, "boundary": args.boundary, "value": value}], {}, 0


_INGHAM_HEADERS = (
    "N", "M", "boundary", "exact", "main", "residual",
    "envelope", "normalized", "relative", "sub_full_ratio",
)


def cmd_verify_ingham(args: argparse.Namespace) -> Result:
    grid = _parse_grid(args.N_grid, "N")
    if not all(v.is_integer() and v >= 2 for v in grid):
        raise UsageError(f"N grid entries must be integers >= 2, got {args.N_grid!r}")
    grid = [int(v) for v in grid]
    rule, m_of = _parse_m_rule(args.M_rule)
    for N in grid:
        check_divisor_report(N, m_of(N))
    sieve = _sieve_for(math.isqrt(max(grid)), max(grid))
    dtable = tabulate(sieve, "divisor", max(grid))
    # every exact sum of the grid, and frac's full sums, in one pass each
    reports = divisor_reports(sieve, dtable, [(N, m_of(N)) for N in grid])
    result = sweep(reports)
    if rule == "frac":
        # the full sum at N is divisor_report's sum at M = N
        fulls = additive_convolutions(
            dtable, dtable, [check_divisor_report(N, float(N)) for N in grid]
        )
        ratios = [rep.exact / full for rep, full in zip(reports, fulls)]
    else:
        ratios = [math.nan] * len(grid)
    rows = [{**vars(rep), "sub_full_ratio": ratio} for rep, ratio in zip(reports, ratios)]
    first, last = result.endpoint_relative
    trend_ok = len(grid) < 2 or (abs(last) < abs(first) and _within_twice_first(result.reports))
    summary = {
        "max_normalized": result.max_normalized,
        "relative_first": first,
        "relative_last": last,
        "trend_ok": trend_ok,
    }
    return rows, summary, 0 if trend_ok else 1


_GENERAL_HEADERS = (
    "alpha", "beta", "N", "M", "delta", "regime",
    "exact", "main", "residual", "envelope", "normalized",
)


def cmd_verify_general(args: argparse.Namespace) -> Result:
    alpha = _parse_float(args.alpha, "--alpha")
    beta = _parse_float(args.beta, "--beta")
    check_sigma_pair(alpha, beta)
    grid = _parse_grid(args.M_grid, "M")
    _check_N(args.N)
    specs = [ConvolutionSpec(N=args.N, M=M, boundary="half_open") for M in grid]
    sieve = _sieve_for(math.isqrt(args.N), args.N)
    delta = min(alpha, beta)
    # every exact sum of the grid in one walk of both tables, each held
    # only up to N/2
    f, g, above = walked_halves(sieve, ("sigma_norm", alpha), ("sigma_norm", beta), args.N)
    exacts = additive_convolutions(f, g, specs, above=above)
    regime = ramanujan_regime(delta)
    result = sweep([sigma_norm_report(sieve, exact, alpha, beta, args.N, M)
                    for exact, M in zip(exacts, grid)])
    rows: List[Row] = [
        {**vars(rep), "alpha": alpha, "beta": beta, "delta": delta, "regime": regime}
        for rep in result.reports
    ]
    # M < 2 has no envelope, so only M >= 2 enters the boundedness check
    reports = [rep for rep in result.reports if rep.M >= 2]
    bounded_ok = True
    if len(reports) >= 2:
        if regime == "delta_gt_1":
            bounded_ok = abs(reports[-1].residual) <= 10.0 * abs(reports[0].residual)
        else:
            bounded_ok = _within_twice_first(reports)
    summary = {"regime": regime, "max_normalized": result.max_normalized, "bounded_ok": bounded_ok}
    return rows, summary, 0 if bounded_ok else 1


_ORTHO_HEADERS = ("r", "s", "exact", "main", "defect", "normalized")


def cmd_orthogonality(args: argparse.Namespace) -> Result:
    if args.r_max < 1 or args.s_max < 1:
        raise UsageError("r-max and s-max must be >= 1")
    assert_max = args.assert_max
    if assert_max is not None:
        assert_max = _parse_float(assert_max, "--assert-max")
    _check_N(args.N)
    check_orthogonality_range(args.N, args.M)
    n_max = max(args.r_max, args.s_max)
    sieve = _sieve_for(math.isqrt(n_max), max(n_max, args.N))
    rows: List[Row] = []
    worst = 0.0
    # largest r and s first, so a pair whose lcm is too large to fold fails early
    for r in range(args.r_max, 0, -1):
        for s in range(args.s_max, 0, -1):
            rec = orthogonality_defect(sieve, r, s, args.N, args.M)
            normalized = rec.defect / envelope_defect(r, s)
            worst = max(worst, abs(normalized))
            rows.append({"r": r, "s": s, **vars(rec), "normalized": normalized})
    rows.reverse()
    failed = assert_max is not None and worst > assert_max
    return rows, {"max_normalized_defect": worst}, 1 if failed else 0


_GOLDBACH_HEADERS = ("N", "R", "exact", "singular_series", "main", "ratio")


def cmd_goldbach(args: argparse.Namespace) -> Result:
    if args.N < 2 or args.N % 2 != 0:
        raise UsageError(f"N must be an even integer >= 2, got {args.N}")
    if args.R < 1:
        raise UsageError(f"R must be >= 1, got {args.R}")
    n_max = max(args.N, args.R)
    sieve = _sieve_for(math.isqrt(n_max), n_max)
    spec = ConvolutionSpec(N=args.N, M=float(args.N), boundary="half_open")
    exact = lambda_convolution(sieve, spec)
    ss = singular_series(sieve, args.N, args.R)
    main = args.N * ss
    ratio = exact / main if main != 0 else math.nan
    row = {
        "N": args.N,
        "R": args.R,
        "exact": exact,
        "singular_series": ss,
        "main": main,
        "ratio": ratio,
    }
    in_band = bool(0.5 <= ratio <= 1.5)
    return [row], {"in_band": in_band}, 0 if in_band else 1


_TAU_HEADERS = ("y", "exact", "main", "residual_over_log")


def cmd_tau(args: argparse.Namespace) -> Result:
    exact = tau_exact(args.y)
    if args.y >= 2:
        main = tau_main(args.y)
        rol = (exact - main) / math.log(args.y)
    else:
        main = math.nan
        rol = math.nan
    return [{"y": args.y, "exact": exact, "main": main, "residual_over_log": rol}], {}, 0


class _Parser(argparse.ArgumentParser):
    """argparse's errors as the one "error: ..." line of every usage error.

    The subcommand parsers share this class, and the exit stays argparse's
    SystemExit(2).
    """

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _join_dash_values(argv: Sequence[str]) -> List[str]:
    # every option takes one value, and argparse reads a value such as
    # "-inf" as an unknown option; "--beta=-inf" reaches the value check
    out: List[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and "=" not in prev
        if takes_value and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", default=None, help="write to a file instead of stdout")

    parser = _Parser(
        prog="convlab",
        description="Exact additive convolution sums and their asymptotic checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, headers, summary):
        p = sub.add_parser(
            name, parents=[common], help=summary, description="Columns: " + ", ".join(headers)
        )
        p.set_defaults(func=func, headers=headers)
        return p

    p = command("convolve", cmd_convolve, _CONVOLVE_HEADERS, "one exact convolution sum")
    p.add_argument("--f", required=True, help="d, mu, phi, lambda, sigma:s, sigma_norm:s")
    p.add_argument("--g", required=True, help="same kinds as --f")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", required=True)
    p.add_argument("--boundary", choices=("half_open", "closed"), required=True)

    p = command(
        "verify-ingham", cmd_verify_ingham, _INGHAM_HEADERS,
        "divisor convolution vs. main term over an N grid",
    )
    p.add_argument("--N-grid", dest="N_grid", required=True, help="comma-separated N values")
    p.add_argument(
        "--M-rule",
        dest="M_rule",
        required=True,
        help="half, frac:c, or fixed:M (sub_full_ratio is reported for frac)",
    )

    p = command(
        "verify-general", cmd_verify_general, _GENERAL_HEADERS,
        "normalized sigma convolution vs. main term over an M grid",
    )
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M-grid", dest="M_grid", required=True, help="comma-separated M values")

    p = command(
        "orthogonality", cmd_orthogonality, _ORTHO_HEADERS,
        "Ramanujan pair sums vs. the diagonal main term",
    )
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--r-max", dest="r_max", type=int, required=True)
    p.add_argument("--s-max", dest="s_max", type=int, required=True)
    p.add_argument(
        "--assert-max",
        dest="assert_max",
        default=None,
        help="exit 1 if max |defect|/(rs(log(rs)+1)) exceeds this",
    )

    p = command(
        "goldbach", cmd_goldbach, _GOLDBACH_HEADERS,
        "Lambda self-convolution vs. N times the singular series",
    )
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--R", type=int, required=True)

    p = command("tau", cmd_tau, _TAU_HEADERS, "coprime-pair harmonic sum vs. its main term")
    p.add_argument("--y", type=float, required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        rows, summary, code = args.func(args)
        _emit(args.command, args.headers, rows, summary, args.format, args.output)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try smaller sizes", file=sys.stderr)
        return 2


def entry() -> None:
    # the import-time heap lives until exit: frozen, the collections at
    # exit skip it.  Only the process entry point freezes; a library
    # import must leave its importer's objects collectable
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
