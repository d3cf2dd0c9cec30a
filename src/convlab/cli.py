"""Command-line harness: exact convolutions and verification sweeps.

Six subcommands, each emitting machine-readable rows (CSV by default,
JSON behind --format json) with a fixed column order:

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
prints one "error: ..." line to stderr and no traceback; a malformed
number is rejected before any table is built.  An option value may start
with "-" ("--beta -inf"), so it reaches the same checks as "--beta=-inf".
Floats are printed with 15 significant digits; reruns are byte-identical.
The sieve is built once per process at the smallest limit the command
needs, so no output depends on its size: N (or R) where a mu, phi or
Lambda table or the Ramanujan sums read it, isqrt(N) where it only
factors the N of a main term next to d, sigma or sigma_norm tables,
which never read it, and the minimal limit 2 for a convolve of two such
tables, which has no main term.  Whether the largest table is
addressable is checked before the sieve is built.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .arith import SIEVE_KINDS, build_sieve, check_addressable, tabulate
from .asymptotics import (
    divisor_report,
    envelope_defect,
    ramanujan_regime,
    sigma_norm_report,
    sweep,
    tau_main,
)
from .convolution import ConvolutionSpec, additive_convolution, tau_exact
from .errors import UsageError
from .ramanujan import orthogonality_defect, singular_series

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
        return None if math.isnan(v) else float("%.15g" % v)
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


# --- subcommands ---------------------------------------------------------

_CONVOLVE_HEADERS = ("N", "M", "boundary", "value")


def cmd_convolve(args: argparse.Namespace) -> int:
    fkind, fs = _parse_kind(args.f)
    gkind, gs = _parse_kind(args.g)
    M = _parse_float(args.M, "--M")
    _check_N(args.N)
    reads_sieve = fkind in SIEVE_KINDS or gkind in SIEVE_KINDS
    sieve = _sieve_for(args.N if reads_sieve else 2, args.N)
    ftab = tabulate(sieve, fkind, args.N, s=fs)
    gtab = ftab if (gkind, gs) == (fkind, fs) else tabulate(sieve, gkind, args.N, s=gs)
    spec = ConvolutionSpec(N=args.N, M=M, boundary=args.boundary)
    value = additive_convolution(ftab, gtab, spec)
    row = {"N": args.N, "M": M, "boundary": args.boundary, "value": value}
    _emit("convolve", _CONVOLVE_HEADERS, [row], {}, args.format, args.output)
    return 0


_INGHAM_HEADERS = (
    "N", "M", "boundary", "exact", "main", "residual",
    "envelope", "normalized", "relative", "sub_full_ratio",
)


def cmd_verify_ingham(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.N_grid, "N")
    if not all(v.is_integer() and v >= 2 for v in grid):
        raise UsageError(f"N grid entries must be integers >= 2, got {args.N_grid!r}")
    grid = [int(v) for v in grid]
    rule, m_of = _parse_m_rule(args.M_rule)
    sieve = _sieve_for(math.isqrt(max(grid)), max(grid))
    dtable = tabulate(sieve, "divisor", max(grid))
    result = sweep(lambda N: divisor_report(sieve, dtable, N, m_of(N)), grid)
    rows: List[Row] = []
    for N, rep in zip(grid, result.reports):
        if rule == "frac":
            spec = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
            full = additive_convolution(dtable, dtable, spec)
            ratio = rep.exact / full
        else:
            ratio = math.nan
        boundary = "closed" if rep.envelope_kind == "divisor_subsum" else "half_open"
        rows.append({**vars(rep), "boundary": boundary, "sub_full_ratio": ratio})
    first, last = result.endpoint_relative
    norm0 = abs(result.reports[0].normalized)
    trend_ok = True
    if len(grid) >= 2:
        trend_ok = abs(last) < abs(first) and all(
            abs(r.normalized) <= 2.0 * norm0 for r in result.reports
        )
    summary = {
        "max_normalized": result.max_normalized,
        "relative_first": first,
        "relative_last": last,
        "trend_ok": trend_ok,
    }
    _emit("verify-ingham", _INGHAM_HEADERS, rows, summary, args.format, args.output)
    return 0 if trend_ok else 1


_GENERAL_HEADERS = (
    "alpha", "beta", "N", "M", "delta", "regime",
    "exact", "main", "residual", "envelope", "normalized",
)


def cmd_verify_general(args: argparse.Namespace) -> int:
    alpha = _parse_float(args.alpha, "--alpha")
    beta = _parse_float(args.beta, "--beta")
    if alpha <= 0 or beta <= 0:
        raise UsageError("alpha and beta must be positive")
    grid = _parse_grid(args.M_grid, "M")
    _check_N(args.N)
    sieve = _sieve_for(math.isqrt(args.N), args.N)
    ftab = tabulate(sieve, "sigma_norm", args.N, s=alpha)
    gtab = ftab if beta == alpha else tabulate(sieve, "sigma_norm", args.N, s=beta)
    delta = min(alpha, beta)
    regime = ramanujan_regime(delta)
    all_reports = [
        sigma_norm_report(sieve, ftab, gtab, alpha, beta, args.N, M) for M in grid
    ]
    rows: List[Row] = [
        {**vars(rep), "alpha": alpha, "beta": beta, "delta": delta, "regime": regime}
        for rep in all_reports
    ]
    # M < 2 has no envelope, so only M >= 2 enters the boundedness check
    reports = [rep for rep in all_reports if rep.M >= 2]
    bounded_ok = True
    if len(reports) >= 2:
        if regime == "delta_gt_1":
            bounded_ok = abs(reports[-1].residual) <= 10.0 * abs(reports[0].residual)
        else:
            norm0 = abs(reports[0].normalized)
            bounded_ok = all(abs(r.normalized) <= 2.0 * norm0 for r in reports)
    max_norm = max((abs(r.normalized) for r in reports), default=math.nan)
    summary = {"regime": regime, "max_normalized": max_norm, "bounded_ok": bounded_ok}
    _emit("verify-general", _GENERAL_HEADERS, rows, summary, args.format, args.output)
    return 0 if bounded_ok else 1


_ORTHO_HEADERS = ("r", "s", "exact", "main", "defect", "normalized")


def cmd_orthogonality(args: argparse.Namespace) -> int:
    if args.r_max < 1 or args.s_max < 1:
        raise UsageError("r-max and s-max must be >= 1")
    assert_max = args.assert_max
    if assert_max is not None:
        assert_max = _parse_float(assert_max, "--assert-max")
    _check_N(args.N)
    if not 1 <= args.M <= args.N:
        raise UsageError(f"need 1 <= M <= N, got M={args.M}, N={args.N}")
    sieve = _sieve_for(max(args.r_max, args.s_max), args.N)
    rows: List[Row] = []
    worst = 0.0
    for r in range(1, args.r_max + 1):
        for s in range(1, args.s_max + 1):
            rec = orthogonality_defect(sieve, r, s, args.N, args.M)
            normalized = rec.defect / envelope_defect(r, s)
            worst = max(worst, abs(normalized))
            rows.append({"r": r, "s": s, **vars(rec), "normalized": normalized})
    summary = {"max_normalized_defect": worst}
    _emit("orthogonality", _ORTHO_HEADERS, rows, summary, args.format, args.output)
    if assert_max is not None and worst > assert_max:
        return 1
    return 0


_GOLDBACH_HEADERS = ("N", "R", "exact", "singular_series", "main", "ratio")


def cmd_goldbach(args: argparse.Namespace) -> int:
    if args.N < 2 or args.N % 2 != 0:
        raise UsageError(f"N must be an even integer >= 2, got {args.N}")
    if args.R < 1:
        raise UsageError(f"R must be >= 1, got {args.R}")
    sieve = _sieve_for(max(args.N, args.R), args.N)
    ltab = tabulate(sieve, "lambda", args.N)
    spec = ConvolutionSpec(N=args.N, M=float(args.N), boundary="half_open")
    exact = additive_convolution(ltab, ltab, spec)
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
    summary = {"in_band": in_band}
    _emit("goldbach", _GOLDBACH_HEADERS, [row], summary, args.format, args.output)
    return 0 if in_band else 1


_TAU_HEADERS = ("y", "exact", "main", "residual_over_log")


def cmd_tau(args: argparse.Namespace) -> int:
    exact = tau_exact(args.y)
    if args.y >= 2:
        main = tau_main(args.y)
        rol = (exact - main) / math.log(args.y)
    else:
        main = math.nan
        rol = math.nan
    row = {"y": args.y, "exact": exact, "main": main, "residual_over_log": rol}
    _emit("tau", _TAU_HEADERS, [row], {}, args.format, args.output)
    return 0


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
        p.set_defaults(func=func)
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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller N", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
