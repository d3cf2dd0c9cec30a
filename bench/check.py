"""Correctness checks for benchmark outputs.

Every op of every seed gets the checks that need no stored answer: exit
code and output well-formedness, the inputs echoed back, every derived
column recomputed from the columns it derives from, the pass/fail verdict
recomputed from the rows (so exit code 1 from a failed trend check is a
verdict, not a failure), and independent oracles where they are cheap
(trial-division sigma, Ramanujan sums, zeta closed forms).

Seeds with a committed reference file (reference/<workload>-seed<k>.json)
are also compared against it: integers and exit codes exactly, floats to
REL_TOL.  REL_TOL is far looser than the ~6e-14 drift a reordered tau sum
may show and far tighter than one wrong summand among 1e7 (~1e-7).
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional

REL_TOL = 1e-9
# recomputing a derived column from 15-significant-digit printed inputs
_PRINT_TOL = 1e-12
_THREE_OVER_PI2 = 3.0 / math.pi**2
# zeta at the integer arguments main_term_general meets in the session
_ZETA = {2: math.pi**2 / 6, 3: 1.2020569031595942, 4: math.pi**4 / 90,
         5: 1.0369277551433699, 6: math.pi**6 / 945}

HEADERS = {
    "convolve": ["N", "M", "boundary", "value"],
    "verify-ingham": ["N", "M", "boundary", "exact", "main", "residual",
                      "envelope", "normalized", "relative", "sub_full_ratio"],
    "verify-general": ["alpha", "beta", "N", "M", "delta", "regime",
                       "exact", "main", "residual", "envelope", "normalized"],
    "orthogonality": ["r", "s", "exact", "main", "defect", "normalized"],
    "goldbach": ["N", "R", "exact", "singular_series", "main", "ratio"],
    "tau": ["y", "exact", "main", "residual_over_log"],
}
# columns compared against the reference; the rest are derived and are
# recomputed on every seed instead
PRIMARY = {
    "convolve": ["N", "M", "boundary", "value"],
    "verify-ingham": ["N", "M", "boundary", "exact", "main", "envelope"],
    "verify-general": ["alpha", "beta", "N", "M", "delta", "regime", "exact", "main",
                       "envelope"],
    "orthogonality": ["r", "s", "exact", "main", "defect"],
    "goldbach": ["N", "R", "exact", "singular_series", "main"],
    "tau": ["y", "exact", "main"],
}
VERDICT = {"verify-ingham": "trend_ok", "verify-general": "bounded_ok",
           "goldbach": "in_band"}


class Problems(list):
    def add(self, where: str, msg: str) -> None:
        self.append(f"{where}: {msg}")


def _cell(text: str) -> Any:
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str):
    """(headers, rows as dicts, summary dict) of one convlab CSV output."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    headers = lines[0].split(",")
    rows, summary = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, sep, val = line[2:].partition("=")
            if not sep:
                raise ValueError(f"bad summary line {line!r}")
            summary[key] = _cell(val)
        else:
            cells = line.split(",")
            if len(cells) != len(headers):
                raise ValueError(f"row has {len(cells)} cells, header {len(headers)}")
            rows.append(dict(zip(headers, (_cell(c) for c in cells))))
    return headers, rows, summary


def _isnum(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def same(a, b, rel: float = REL_TOL) -> bool:
    """Integers (and strings, bools, None) exactly; floats to rel; NaN == NaN."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or not (_isnum(a) and _isnum(b)):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _near(got, want, scale: float) -> bool:
    """got == want up to the rounding of printed values of size ~scale."""
    if not _isnum(got) or math.isnan(got):
        return False
    return abs(got - want) <= _PRINT_TOL * (abs(scale) + abs(want)) + 1e-300


def _args(argv: List[str]) -> Dict[str, str]:
    out = {}
    for flag, val in zip(argv[1::2], argv[2::2]):
        out[flag.lstrip("-")] = val
    return out


def _grid(text: str) -> List[float]:
    return [float(t) for t in text.split(",")]


# --- CLI ops ------------------------------------------------------------


def _check_convolve(a, rows, summary, p: Problems) -> int:
    if len(rows) != 1:
        p.add("rows", f"expected 1 row, got {len(rows)}")
        return 0
    row = rows[0]
    if row["N"] != int(a["N"]) or not same(row["M"], float(a["M"])) \
            or row["boundary"] != a["boundary"]:
        p.add("row", f"inputs not echoed: {row}")
    if not isinstance(row["value"], int):
        p.add("value", f"integer tables must give an exact integer, got {row['value']!r}")
    return 0


def _check_ingham(a, rows, summary, p: Problems) -> int:
    grid = [int(v) for v in _grid(a["N-grid"])]
    if [r["N"] for r in rows] != grid:
        p.add("N", "rows do not follow the N grid")
        return 0
    for r in rows:
        where = f"N={r['N']}"
        if not same(r["M"], float(r["N"] // 2)):
            p.add(where, f"M {r['M']} is not N//2")
        if r["boundary"] != ("closed" if r["M"] <= r["N"] / 2 else "half_open"):
            p.add(where, f"boundary {r['boundary']}")
        if not _near(r["residual"], r["exact"] - r["main"], r["exact"]):
            p.add(where, "residual != exact - main")
        if not _near(r["normalized"], r["residual"] / r["envelope"], 0):
            p.add(where, "normalized != residual / envelope")
        if not _near(r["relative"], r["residual"] / r["main"], 0):
            p.add(where, "relative != residual / main")
        if not (isinstance(r["sub_full_ratio"], float) and math.isnan(r["sub_full_ratio"])):
            p.add(where, "sub_full_ratio must be nan for the half rule")
    norm = [abs(r["normalized"]) for r in rows]
    if not _near(summary.get("max_normalized"), max(norm), 0):
        p.add("summary", "max_normalized")
    first, last = rows[0]["relative"], rows[-1]["relative"]
    if not (same(summary.get("relative_first"), first) and same(summary.get("relative_last"), last)):
        p.add("summary", "relative_first/last")
    trend = len(rows) < 2 or (abs(last) < abs(first) and all(v <= 2 * norm[0] for v in norm))
    if summary.get("trend_ok") is not trend:
        p.add("summary", f"trend_ok={summary.get('trend_ok')} but rows give {trend}")
    return 0 if trend else 1


def _check_general(a, rows, summary, p: Problems) -> int:
    alpha, beta, N = float(a["alpha"]), float(a["beta"]), int(a["N"])
    grid = _grid(a["M-grid"])
    if len(rows) != len(grid) or not all(same(r["M"], m) for r, m in zip(rows, grid)):
        p.add("M", "rows do not follow the M grid")
        return 0
    delta = min(alpha, beta)
    regime = "delta_lt_1" if delta < 1 else ("delta_eq_1" if delta == 1 else "delta_gt_1")
    for r in rows:
        where = f"M={r['M']}"
        if not (same(r["alpha"], alpha) and same(r["beta"], beta) and r["N"] == N
                and same(r["delta"], delta) and r["regime"] == regime):
            p.add(where, f"inputs not echoed: {r}")
        if not _near(r["residual"], r["exact"] - r["main"], r["exact"]):
            p.add(where, "residual != exact - main")
        if not _near(r["normalized"], r["residual"] / r["envelope"], 0):
            p.add(where, "normalized != residual / envelope")
    if summary.get("regime") != regime:
        p.add("summary", "regime")
    norm = [abs(r["normalized"]) for r in rows]
    if not _near(summary.get("max_normalized"), max(norm), 0):
        p.add("summary", "max_normalized")
    if regime == "delta_gt_1":
        ok = abs(rows[-1]["residual"]) <= 10 * abs(rows[0]["residual"])
    else:
        ok = all(v <= 2 * norm[0] for v in norm)
    ok = ok or len(rows) < 2
    if summary.get("bounded_ok") is not ok:
        p.add("summary", f"bounded_ok={summary.get('bounded_ok')} but rows give {ok}")
    return 0 if ok else 1


def _check_orthogonality(a, rows, summary, p: Problems) -> int:
    rmax, smax = int(a["r-max"]), int(a["s-max"])
    pairs = [(r, s) for r in range(1, rmax + 1) for s in range(1, smax + 1)]
    if [(r["r"], r["s"]) for r in rows] != pairs:
        p.add("rows", "rows do not enumerate (r, s)")
        return 0
    N, M = int(a["N"]), int(a["M"])
    worst = 0.0
    for r in rows:
        where = f"r={r['r']},s={r['s']}"
        if not all(isinstance(r[k], int) for k in ("exact", "main", "defect")):
            p.add(where, "exact, main and defect must be integers")
            continue
        if r["defect"] != r["exact"] - r["main"]:
            p.add(where, "defect != exact - main")
        want_main = M * ramanujan_c(r["r"], N) if r["r"] == r["s"] else 0
        if r["main"] != want_main:
            p.add(where, f"main {r['main']} != {want_main}")
        env = r["r"] * r["s"] * (math.log(r["r"] * r["s"]) + 1.0)
        if not _near(r["normalized"], r["defect"] / env, 0):
            p.add(where, "normalized != defect / envelope")
        worst = max(worst, abs(r["normalized"]))
    if not _near(summary.get("max_normalized_defect"), worst, 0):
        p.add("summary", "max_normalized_defect")
    return 0


def _check_goldbach(a, rows, summary, p: Problems) -> int:
    if len(rows) != 1:
        p.add("rows", f"expected 1 row, got {len(rows)}")
        return 0
    r = rows[0]
    if r["N"] != int(a["N"]) or r["R"] != int(a["R"]):
        p.add("row", f"inputs not echoed: {r}")
    if not _near(r["main"], r["N"] * r["singular_series"], 0):
        p.add("row", "main != N * singular_series")
    if not _near(r["ratio"], r["exact"] / r["main"], 0):
        p.add("row", "ratio != exact / main")
    ok = 0.5 <= r["ratio"] <= 1.5
    if summary.get("in_band") is not ok:
        p.add("summary", "in_band")
    return 0 if ok else 1


def _check_tau(a, rows, summary, p: Problems) -> int:
    if len(rows) != 1:
        p.add("rows", f"expected 1 row, got {len(rows)}")
        return 0
    r = rows[0]
    y = float(a["y"])
    if not same(r["y"], y):
        p.add("row", f"y not echoed: {r['y']}")
    if not _near(r["main"], _THREE_OVER_PI2 * math.log(y) ** 2, 0):
        p.add("row", "main != (3/pi^2) log^2 y")
    if not _near(r["residual_over_log"], (r["exact"] - r["main"]) / math.log(y),
                 r["exact"] / math.log(y)):
        p.add("row", "residual_over_log != (exact - main) / log y")
    return 0


_CLI_CHECKS = {
    "convolve": _check_convolve,
    "verify-ingham": _check_ingham,
    "verify-general": _check_general,
    "orthogonality": _check_orthogonality,
    "goldbach": _check_goldbach,
    "tau": _check_tau,
}


def check_cli(argv: List[str], rc: Optional[int], stdout: str, stderr: str,
              ref: Optional[dict] = None) -> List[str]:
    """Problems found in one CLI op's result; empty means it passed."""
    p = Problems()
    if rc is None:
        p.add("exit", "timed out")
        return p
    if "Traceback" in stderr:
        p.add("exit", f"crashed with code {rc}: {stderr.strip().splitlines()[-1]}")
        return p
    cmd = argv[0]
    try:
        headers, rows, summary = parse_csv(stdout)
        if headers != HEADERS[cmd]:
            p.add("header", f"{headers}")
            return p
        want_rc = _CLI_CHECKS[cmd](_args(argv), rows, summary, p)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        p.add("output", f"malformed: {type(exc).__name__}: {exc}")
        return p
    if rc != want_rc:
        p.add("exit", f"code {rc}, but the output's own verdict gives {want_rc}")
    if ref is not None:
        if ref["argv"] != argv:
            p.add("reference", "generated inputs differ from the reference inputs")
            return p
        if rc != ref["rc"]:
            p.add("reference", f"exit code {rc} != reference {ref['rc']}")
        _, ref_rows, ref_summary = parse_csv(ref["stdout"])
        if len(ref_rows) != len(rows):
            p.add("reference", f"{len(rows)} rows != reference {len(ref_rows)}")
            return p
        for i, (got, want) in enumerate(zip(rows, ref_rows)):
            for col in PRIMARY[cmd]:
                if not same(got[col], want[col]):
                    p.add("reference", f"row {i} {col}: {got[col]!r} != {want[col]!r}")
        verdict = VERDICT.get(cmd)
        if verdict and summary.get(verdict) != ref_summary.get(verdict):
            p.add("reference", f"{verdict} differs")
    return p


# --- session queries ----------------------------------------------------


def _factor(n: int) -> List[tuple]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _divisors(n: int) -> List[int]:
    ds = [1]
    for p, e in _factor(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return ds


def _mobius(n: int) -> int:
    f = _factor(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


def ramanujan_c(r: int, n: int) -> int:
    """c_r(n) = sum over d | gcd(r, n) of mu(r/d) d, by trial division."""
    return sum(_mobius(r // d) * d for d in _divisors(math.gcd(r, n)))


def _neg_sigma(n: int, w: float) -> float:
    """sum over d | n of d**-w."""
    return math.fsum(d**-w for d in _divisors(n))


def _check_query_oracle(q: dict, res, p: Problems) -> None:
    op = q["op"]
    if op == "expansion":
        value, tail, R = res
        want = _neg_sigma(q["n"], q["s"])
        if not (tail > 0 and abs(value - want) <= tail + REL_TOL * want):
            p.add("oracle", f"sigma expansion {value!r} vs {want!r}, tail {tail!r}")
        if R < 256:
            p.add("oracle", f"R={R} below the start level")
    elif op == "hardy":
        value, R = res
        if not (math.isfinite(value) and R == q["R"]):
            p.add("oracle", f"hardy partial sum {res!r}")
    elif op == "singular":
        if not (math.isfinite(res) and res > 0):
            p.add("oracle", f"singular series for even N must be positive, got {res!r}")
    elif op == "ortho":
        exact, main, defect = res
        want_main = q["M"] * ramanujan_c(q["r"], q["N"]) if q["r"] == q["s"] else 0
        if defect != exact - main or main != want_main:
            p.add("oracle", f"orthogonality record {res!r}, want main {want_main}")
    elif op == "main_term":
        value, tail = res
        w = q["a"] + q["b"] + 1.0
        want = (q["M"] * _ZETA[int(q["a"]) + 1] * _ZETA[int(q["b"]) + 1]
                / _ZETA[int(w) + 1] * _neg_sigma(q["N"], w))
        if not (tail >= 0 and abs(value - want) <= tail + REL_TOL * abs(want)):
            p.add("oracle", f"main term {value!r} vs closed form {want!r}, tail {tail!r}")
    elif op == "table":
        probes = res[3]
        want = [ramanujan_c(r, q["n"]) for r in q["probe"]]
        if probes != want:
            p.add("oracle", f"c_r(n) probes {probes} != {want}")


def check_query(q: dict, res, ref: Optional[dict] = None) -> List[str]:
    """Problems in one session query's result; empty means it passed."""
    p = Problems()
    if isinstance(res, dict):
        p.add("query", res.get("error", "no result"))
        return p
    try:
        _check_query_oracle(q, res, p)
    except (TypeError, ValueError, KeyError) as exc:
        p.add("output", f"malformed: {type(exc).__name__}: {exc}")
        return p
    if ref is not None:
        if ref["query"] != q:
            p.add("reference", "generated query differs from the reference query")
        elif not same(res, ref["result"]):
            p.add("reference", f"{res!r} != {ref['result']!r}")
    return p


# --- reference files ----------------------------------------------------


def reference_path(bench_dir: str, workload: str, seed: int) -> str:
    return os.path.join(bench_dir, "reference", f"{workload}-seed{seed}.json")


def load_reference(bench_dir: str, workload: str, seed: int) -> Optional[Dict[str, dict]]:
    """op name -> reference record, or None when the seed has no reference."""
    path = reference_path(bench_dir, workload, seed)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["ops"]
