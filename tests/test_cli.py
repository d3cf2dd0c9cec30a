import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from convlab.cli import (
    _CONVOLVE_HEADERS,
    _GENERAL_HEADERS,
    _GOLDBACH_HEADERS,
    _INGHAM_HEADERS,
    _ORTHO_HEADERS,
    _TAU_HEADERS,
    _parse_m_rule,
    cmd_verify_ingham,
    main,
)
from convlab import (
    ArithTable, ConvolutionSpec, additive_convolution, build_sieve, divisor_report, tabulate,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convolve_divisor_example(capsys):
    code, out, _ = run(
        capsys, "convolve", "--f", "d", "--g", "d", "--N", "6", "--M", "3",
        "--boundary", "closed",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(_CONVOLVE_HEADERS)
    assert lines[1] == "6,3,closed,12"


def test_convolve_full_range(capsys):
    code, out, _ = run(
        capsys, "convolve", "--f", "d", "--g", "d", "--N", "6", "--M", "6",
        "--boundary", "half_open",
    )
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",20")


def test_convolve_mobius_pair(capsys):
    code, out, _ = run(
        capsys, "convolve", "--f", "mu", "--g", "mu", "--N", "6", "--M", "6",
        "--boundary", "half_open",
    )
    assert code == 0
    # mu(1)mu(5) + mu(3)mu(3) + mu(5)mu(1) = -1 + 1 - 1
    assert out.strip().splitlines()[1] == "6,6,half_open,-1"


def test_convolve_sigma_is_real_mode(capsys):
    code, out, _ = run(
        capsys, "convolve", "--f", "sigma_norm:1", "--g", "sigma_norm:1",
        "--N", "4", "--M", "4", "--boundary", "half_open",
    )
    assert code == 0
    # 1*4/3 + 1.5*1.5 + (4/3)*1 = 4.916666...
    value = float(out.strip().splitlines()[1].split(",")[-1])
    assert value == pytest.approx(1 * 4 / 3 + 1.5 * 1.5 + 4 / 3 * 1, rel=1e-12)


def test_convolve_bad_kind_exits_2(capsys):
    code, _, err = run(
        capsys, "convolve", "--f", "bogus", "--g", "d", "--N", "6", "--M", "3",
        "--boundary", "closed",
    )
    assert code == 2
    assert "unknown function kind" in err


def test_convolve_m_beyond_n_exits_2(capsys):
    code, _, err = run(
        capsys, "convolve", "--f", "d", "--g", "d", "--N", "6", "--M", "7",
        "--boundary", "half_open",
    )
    assert code == 2
    assert "error:" in err


def test_missing_required_flag_is_systemexit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convolve", "--f", "d", "--N", "6", "--M", "3", "--boundary", "closed"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_ingham_csv_shape(capsys):
    code, out, _ = run(
        capsys, "verify-ingham", "--N-grid", "1000,5000,20000", "--M-rule", "half",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(_INGHAM_HEADERS)
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln for ln in lines[1:] if ln.startswith("#")]
    assert len(data) == 3
    assert all(row.split(",")[2] == "closed" for row in data)
    # half rule has no sub/full comparison
    assert all(row.split(",")[-1] == "nan" for row in data)
    keys = {ln.split("=")[0] for ln in footer}
    assert keys == {
        "# max_normalized", "# relative_first", "# relative_last", "# trend_ok",
    }
    assert "# trend_ok=True" in footer


def test_verify_ingham_frac_reports_ratio(capsys):
    code, out, _ = run(
        capsys, "verify-ingham", "--N-grid", "2000", "--M-rule", "frac:0.3",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    ratio = float(row[-1])
    assert 0.0 < ratio < 1.0
    assert row[2] == "closed"


def test_verify_ingham_fixed_supersum_boundary(capsys):
    code, out, _ = run(
        capsys, "verify-ingham", "--N-grid", "1000", "--M-rule", "fixed:900",
    )
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[2] == "half_open"


def test_verify_ingham_bad_rule_exits_2(capsys):
    code, _, err = run(capsys, "verify-ingham", "--N-grid", "100", "--M-rule", "best")
    assert code == 2
    assert "unknown M rule" in err


@pytest.mark.parametrize("rule", ["frac:abc", "fixed:abc", "frac:nan", "fixed:inf"])
def test_verify_ingham_malformed_rule_number_exits_2(capsys, rule):
    code, out, err = run(capsys, "verify-ingham", "--N-grid", "100", "--M-rule", rule)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite number" in err


def test_verify_ingham_fractional_N_exits_2(capsys):
    code, out, err = run(capsys, "verify-ingham", "--N-grid", "100.5,200", "--M-rule", "half")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "integers" in err


_INGHAM_GRID = "1000,5000,9999,7560,16,17"


@pytest.mark.parametrize("grid, rule", [
    ("100,50,100", "half"),
    (_INGHAM_GRID, "half"),
    (_INGHAM_GRID, "frac:0.3"),
    (_INGHAM_GRID, "frac:1"),
    (_INGHAM_GRID, "fixed:7.5"),
])
def test_verify_ingham_rows_equal_per_point_reports(grid, rule, sieve_small, dtable_small):
    # the grid's exact sums, taken in one pass, give divisor_report's rows,
    # each row's boundary its report's
    rows, _, _ = cmd_verify_ingham(argparse.Namespace(N_grid=grid, M_rule=rule))
    m_of = _parse_m_rule(rule)[1]
    expected = []
    for N in (int(v) for v in grid.split(",")):
        rep = divisor_report(sieve_small, dtable_small, N, m_of(N))
        assert rep.boundary == ("closed" if m_of(N) <= N / 2 else "half_open")
        ratio = math.nan
        if rule.startswith("frac"):
            full = ConvolutionSpec(N=N, M=float(N), boundary="half_open")
            ratio = rep.exact / additive_convolution(dtable_small, dtable_small, full)
        expected.append({**vars(rep), "sub_full_ratio": ratio})
    # repr keeps every bit and reads NaN equal to NaN
    assert [{k: repr(v) for k, v in row.items()} for row in rows] == \
        [{k: repr(v) for k, v in row.items()} for row in expected]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_exact_sum_ignores_the_blas_thread_count(threads):
    # the float64 tier reduces its blocks with a BLAS dot, exact in any order
    proc = subprocess.run(
        [sys.executable, "-m", "convlab.cli", "convolve", "--f", "d", "--g", "d",
         "--N", "1000000", "--M", "500000", "--boundary", "closed"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "1000000,500000,closed,128951559"


@pytest.mark.parametrize("kind", ["sigma:nan", "sigma_norm:inf", "sigma:-inf"])
def test_convolve_non_finite_exponent_exits_2(capsys, kind):
    code, out, err = run(
        capsys, "convolve", "--f", kind, "--g", "d", "--N", "6", "--M", "3",
        "--boundary", "closed",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite number" in err


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "tau", "--y", "100", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cannot write" in err
    assert not target.exists()


def test_out_of_memory_exits_2(capsys, monkeypatch):
    import convlab.cli as cli

    def no_memory(limit):
        raise MemoryError

    monkeypatch.setattr(cli, "build_sieve", no_memory)
    code, out, err = run(
        capsys, "convolve", "--f", "d", "--g", "d", "--N", "6", "--M", "3",
        "--boundary", "closed",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "out of memory" in err
    # the message names no one size: goldbach, say, runs out in its walk to R
    assert err == "error: out of memory; try smaller sizes\n"


@pytest.mark.parametrize("argv, limit", [
    # d and integer sigma are walked from spf segments sieved by the
    # primes to isqrt(N), and a main term's sieve just factors N, so
    # isqrt(N)
    (("convolve", "--f", "d", "--g", "d", "--N", "1000", "--M", "3", "--boundary", "closed"),
     31),
    (("convolve", "--f", "sigma:1", "--g", "sigma_norm:0.5", "--N", "9999", "--M", "50",
      "--boundary", "half_open"), 99),
    (("verify-ingham", "--N-grid", "1000,5000,2000", "--M-rule", "half"), math.isqrt(5000)),
    (("verify-general", "--alpha", "2", "--beta", "2", "--N", "3000", "--M-grid", "10,100"),
     math.isqrt(3000)),
    (("convolve", "--f", "d", "--g", "d", "--N", "3", "--M", "1", "--boundary", "closed"), 2),
    # mu, phi and Lambda sieve their own segments from the primes to isqrt(N)
    (("convolve", "--f", "phi", "--g", "mu", "--N", "1000", "--M", "3", "--boundary", "closed"),
     31),
    (("convolve", "--f", "d", "--g", "lambda", "--N", "1000", "--M", "3",
      "--boundary", "closed"), 31),
    # goldbach's Lambda reads the sieve to isqrt(N), and its Ramanujan sums
    # walk mu and phi to R from the primes to isqrt(R)
    (("goldbach", "--N", "1000", "--R", "2000"), 44),
    (("goldbach", "--N", "1000", "--R", "10"), 31),
    # the Ramanujan sums of orthogonality factor r and s and walk mu to
    # them, so they read the sieve only to isqrt(max(r, s))
    (("orthogonality", "--N", "500", "--M", "500", "--r-max", "3", "--s-max", "4"), 2),
    # f is built to N whatever M is, so a mu table to N reads the sieve to isqrt(N)
    (("convolve", "--f", "mu", "--g", "d", "--N", "1000", "--M", "3", "--boundary", "closed"),
     31),
    # the real sigma kinds are walked from spf segments too
    (("convolve", "--f", "sigma_norm:1", "--g", "sigma:0.5", "--N", "9999", "--M", "50",
      "--boundary", "half_open"), 99),
])
def test_each_command_builds_one_sieve_of_its_own_size(capsys, monkeypatch, argv, limit):
    import convlab.cli as cli

    calls = []

    def recording(n):
        calls.append(n)
        return build_sieve(n)

    monkeypatch.setattr(cli, "build_sieve", recording)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    assert calls == [limit]


def _walked(monkeypatch):
    # the spf walk's blocks as they run, merged into one (walk names,
    # first n, last n, streamed) per run of adjacent blocks that fill the
    # same tables alike: into the tables held, or streamed above them
    # through buffers.  So one walk of two tables to N // 2, resumed to
    # N - 1 above it, reads [(names, 2, N // 2, False), (names, N // 2 + 1,
    # N - 1, True)], and each walk apart, or again, adds a run
    from convlab import arith

    runs = []
    walk_block = arith._walk_block

    def recording(tables, dests, walks, lo, hi, spf, shift):
        names, streamed = [w.name for w in walks], dests is not tables
        if runs and (runs[-1][0], runs[-1][2] + 1, runs[-1][3]) == (names, lo, streamed):
            runs[-1] = (names, runs[-1][1], hi - 1, streamed)
        else:
            runs.append((names, lo, hi - 1, streamed))
        walk_block(tables, dests, walks, lo, hi, spf, shift)

    monkeypatch.setattr(arith, "_walk_block", recording)
    return runs


@pytest.mark.parametrize("f, g, walks", [
    ("phi", "mu", [["phi", "mobius"]]),
    ("mu", "phi", [["mobius", "phi"]]),
    ("phi", "d", [["phi", "divisor"]]),
    ("mu", "mu", [["mobius"]]),
    # any two kinds but lambda share one walk: d and sigma with any
    # exponent (sigma:0 is d, and sigma_norm:s is sigma:-s in float64), as
    # well as mu and phi
    ("sigma:1", "d", [["sigma(1)", "divisor"]]),
    ("d", "sigma:1", [["divisor", "sigma(1)"]]),
    ("sigma:0", "d", [["divisor"]]),
    ("sigma:2", "sigma:0.5", [["sigma(2)", "sigma(0.5)"]]),
])
def test_convolve_builds_mu_and_phi_in_one_walk_in_either_order(capsys, monkeypatch, f, g, walks):
    built = _walked(monkeypatch)
    code, out, _ = run(capsys, "convolve", "--f", f, "--g", g, "--N", "5000", "--M", "2500",
                       "--boundary", "closed")
    # both tables walked together to N // 2, and that walk resumed above it
    (names,) = walks
    assert code == 0 and built == [(names, 2, 2500, False), (names, 2501, 4999, True)]


@pytest.mark.parametrize("M, boundary", [("1", "half_open"), ("10", "closed"),
                                         ("2500", "closed"), ("5000", "half_open")])
def test_convolve_holds_its_tables_to_half_N_whatever_M(capsys, monkeypatch, M, boundary):
    # two walked kinds are held to N // 2 and streamed to N - 1 above it;
    # lambda against any kind builds no Lambda table and the other kind whole
    built = _walked(monkeypatch)
    for f, g, walks in (("sigma:1", "d", [(["sigma(1)", "divisor"], 2, 2500, False),
                                          (["sigma(1)", "divisor"], 2501, 5000, True)]),
                        ("lambda", "d", [(["divisor"], 2, 5001, False)])):
        built.clear()
        code, out, _ = run(capsys, "convolve", "--f", f, "--g", g, "--N", "5001", "--M", M,
                           "--boundary", boundary)
        assert code == 0 and built == walks, (f, g)


def test_verify_general_walks_both_exponents_at_once(capsys, monkeypatch):
    # one walk for the whole grid, to N/2 and on above it to N - 1,
    # holding each table to N/2 only
    built = _walked(monkeypatch)
    for beta, names in (("2", ["sigma(-0.5)", "sigma(-2.0)"]), ("0.5", ["sigma(-0.5)"])):
        built.clear()
        code, out, _ = run(capsys, "verify-general", "--alpha", "0.5", "--beta", beta,
                           "--N", "5000", "--M-grid", "100,2500,4999")
        assert code in (0, 1) and built == [(names, 2, 2500, False),
                                             (names, 2501, 4999, True)]


_CLI_TABLES_AT_2_22 = [
    # (argv, bound on the tracemalloc peak in units of 8 * 2**22 bytes).
    # Measured: phi.mu 0.499 and sigma.d 0.572, each pair walked together
    # and held to N/2, its upper half streamed through one 2**18 block
    # (whole to N: phi.mu 0.75, 0.77 with mu and phi walked apart, 1.53
    # with a sieve to N, 2.29 with an int64 phi as well; sigma.d 0.86,
    # 0.77 as hyperbola tables, 1.52 with an int64 sigma and an int32 d,
    # 2.25 with a sieve to N as well),
    # the sigma_norm pair 0.710 and 1.299 with alpha != beta, each table
    # held to N/2 and its upper half streamed through one 2**18 block
    # (1.11 and 2.11 with the whole tables), goldbach 0.257 and
    # lambda.lambda 0.252, nearly all the one-byte prime-power mask to N
    # (1.11 with the float64 Lambda table, 1.68 with a sieve to N for
    # Lambda's primes as well), and lambda.d 0.507, the whole int16 d
    # table beside the mask (1.35 with the float64 Lambda table)
    (("convolve", "--f", "phi", "--g", "mu", "--N", str(2**22), "--M", str(2**20),
      "--boundary", "closed"), 0.52),
    (("convolve", "--f", "sigma:1", "--g", "d", "--N", str(2**22), "--M", str(3 * 2**20),
      "--boundary", "half_open"), 0.59),
    (("verify-general", "--alpha", "0.5", "--beta", "0.5", "--N", str(2**22),
      "--M-grid", "1000,2000000,4000000"), 0.72),
    (("goldbach", "--N", str(2**22), "--R", "1000"), 0.296),
    (("convolve", "--f", "lambda", "--g", "lambda", "--N", str(2**22), "--M", str(2**20),
      "--boundary", "closed"), 0.29),
    (("verify-general", "--alpha", "0.5", "--beta", "1.5", "--N", str(2**22),
      "--M-grid", "1000,2000000,4000000"), 1.31),
    (("convolve", "--f", "lambda", "--g", "d", "--N", str(2**22), "--M", str(3 * 2**20),
      "--boundary", "half_open"), 0.53),
]


@pytest.mark.parametrize("argv, bound", _CLI_TABLES_AT_2_22)
def test_cli_tables_peak_memory(capsys, argv, bound):
    # each command holds only the tables it reads: no sieve to N next to
    # any table, each integer table in its narrowest proven dtype, the
    # primes of mu, phi and Lambda found one segment at a time
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= bound * 8 * 2**22, peak / (8 * 2**22)


@pytest.mark.parametrize("limit", [str(10**20), str(2**60)])
@pytest.mark.parametrize("argv", [
    ("verify-ingham", "--N-grid", "{}", "--M-rule", "half"),
    ("convolve", "--f", "d", "--g", "d", "--N", "{}", "--M", "3", "--boundary", "closed"),
    ("goldbach", "--N", "100", "--R", "{}"),
    ("orthogonality", "--N", "{}", "--M", "3", "--r-max", "1", "--s-max", "1"),
])
def test_sieve_past_numpy_addressing_exits_2(capsys, argv, limit):
    code, out, err = run(capsys, *(a.format(limit) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "too large" in err


@pytest.mark.parametrize("option, argv", [
    ("--alpha", ("verify-general", "--alpha", "nan", "--beta", "1", "--N", "100",
                 "--M-grid", "10")),
    ("--alpha", ("verify-general", "--alpha", "inf", "--beta", "1", "--N", "100",
                 "--M-grid", "10")),
    ("--beta", ("verify-general", "--alpha", "1", "--beta=-inf", "--N", "100",
                "--M-grid", "10")),
    ("--M", ("convolve", "--f", "d", "--g", "d", "--N", "100", "--M", "nan",
             "--boundary", "closed")),
    ("--M", ("convolve", "--f", "d", "--g", "d", "--N", "100", "--M", "inf",
             "--boundary", "half_open")),
])
def test_non_finite_option_exits_2_before_sieve(capsys, monkeypatch, option, argv):
    import convlab.cli as cli

    def no_sieve(limit):
        raise AssertionError("the sieve was built for a malformed option")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and option in err


def run_to_exit(capsys, *argv):
    # argparse's own errors leave main through SystemExit(2)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("needle, argv", [
    ("invalid int value: '1e6'",
     ("convolve", "--f", "d", "--g", "d", "--N", "1e6", "--M", "3", "--boundary", "closed")),
    ("--beta must be a finite number, got '-inf'",
     ("verify-general", "--alpha", "1", "--beta", "-inf", "--N", "100", "--M-grid", "10")),
    ("--M must be a finite number, got '-nan'",
     ("convolve", "--f", "d", "--g", "d", "--N", "100", "--M", "-nan", "--boundary", "closed")),
    ("--N must be >= 2, got -3",
     ("verify-general", "--alpha", "1", "--beta", "1", "--N", "-3", "--M-grid", "10")),
    ("--N must be >= 2, got 1",
     ("convolve", "--f", "d", "--g", "d", "--N", "1", "--M", "1", "--boundary", "closed")),
    ("N grid entries must be integers >= 2",
     ("verify-ingham", "--N-grid", "-3,100", "--M-rule", "half")),
    ("argument --N: expected one argument", ("convolve", "--f", "d", "--g", "d", "--N")),
    ("the following arguments are required: --g",
     ("convolve", "--f", "d", "--N", "6", "--M", "3", "--boundary", "closed")),
    ("invalid choice: 'open'",
     ("convolve", "--f", "d", "--g", "d", "--N", "6", "--M", "3", "--boundary", "open")),
    ("--N must be >= 2, got 1",
     ("orthogonality", "--N", "1", "--M", "1", "--r-max", "2", "--s-max", "2")),
    # each M is checked before the sieve and the tables
    ("M must lie in [1, N], got M=200.0, N=100",
     ("convolve", "--f", "phi", "--g", "mu", "--N", "100", "--M", "200",
      "--boundary", "closed")),
    ("closed boundary requires M <= N - 1",
     ("convolve", "--f", "d", "--g", "d", "--N", "100", "--M", "100", "--boundary", "closed")),
    ("M must lie in [1, N], got M=200.0, N=100",
     ("verify-general", "--alpha", "0.5", "--beta", "0.5", "--N", "100",
      "--M-grid", "5,200,50")),
    ("M must lie in [1, N], got M=0.0, N=100",
     ("verify-ingham", "--N-grid", "100,1000", "--M-rule", "fixed:0")),
    ("M must lie in [1, N], got M=0.1, N=100",
     ("verify-ingham", "--N-grid", "100,1000", "--M-rule", "frac:0.001")),
    ("frac rule needs 0 < c <= 1, got 0.0",
     ("verify-ingham", "--N-grid", "100,1000", "--M-rule", "frac:0")),
    ("frac rule needs 0 < c <= 1, got 1.5",
     ("verify-ingham", "--N-grid", "100,1000", "--M-rule", "frac:1.5")),
    ("R must be >= 1, got 0", ("goldbach", "--N", "100", "--R", "0")),
    # alpha + beta overflows, though each is finite: named as passed, not
    # as the inf that zeta_real would refuse
    ("alpha + beta + 1 overflows float64, got alpha=1e+308, beta=1e+308",
     ("verify-general", "--alpha", "1e308", "--beta", "1e308", "--N", "1000", "--M-grid", "10")),
])
def test_malformed_arguments_print_one_error_line(capsys, monkeypatch, needle, argv):
    import convlab.cli as cli

    def no_sieve(limit):
        raise AssertionError("the sieve was built for a malformed argument")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    code, out, err = run_to_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert needle in err


@pytest.mark.parametrize("grid, needle", [
    ("10,10000000", "envelopes with loglog N need N >= 16, got 10"),
    ("2,100", "need M(N - M) >= 2"),
])
def test_verify_ingham_domain_exits_2_before_tables(capsys, monkeypatch, grid, needle):
    import convlab.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built for a grid point with no envelope")

    monkeypatch.setattr(cli, "tabulate", no_table)
    code, out, err = run(capsys, "verify-ingham", "--N-grid", grid, "--M-rule", "half")
    assert code == 2
    assert out == ""
    assert err == f"error: {needle}\n"


@pytest.mark.parametrize("grid, needle", [
    ("12,4", "envelopes with loglog N need N >= 16, got 12"),
    ("4,12", "M must lie in [1, N], got M=6.0, N=4"),
])
def test_verify_ingham_names_the_first_bad_point(capsys, grid, needle):
    # each point is checked whole, its range and then its domain, in grid order
    code, out, err = run(capsys, "verify-ingham", "--N-grid", grid, "--M-rule", "fixed:6")
    assert (code, out, err) == (2, "", f"error: {needle}\n")


@pytest.mark.parametrize("alpha, needle", [
    ("1e-300", "alpha must exceed 2**-53, where 1 + alpha rounds to 1, got 1e-300"),
])
def test_verify_general_exponent_exits_2_before_tables(capsys, monkeypatch, alpha, needle):
    import convlab.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built for an exponent the main term rejects")

    monkeypatch.setattr(cli, "tabulate", no_table)
    code, out, err = run(
        capsys, "verify-general", "--alpha", alpha, "--beta", "1", "--N", "1000",
        "--M-grid", "10,20",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {needle}\n"


def test_verify_general_takes_exponents_past_fifty(capsys):
    # zeta_real takes every finite s > 1: the main terms divide by zeta(63)
    # and zeta(52), 1.0 and 1 + 2**-52 in float64
    code, out, err = run(capsys, "verify-general", "--alpha", "60", "--beta", "1", "--N", "1000",
                         "--M-grid", "10,20")
    assert code in (0, 1) and err == ""
    assert [row.split(",")[:4] for row in out.splitlines()[1:3]] == [
        ["60", "1", "1000", "10"], ["60", "1", "1000", "20"]]
    code, out, err = run(capsys, "verify-general", "--alpha", "30", "--beta", "20",
                         "--N", "100000", "--M-grid", "1000,50000")
    assert code == 0 and err == ""
    assert out.splitlines()[1].split(",")[6] == "999.000476443948"


@pytest.mark.parametrize("argv", [
    ("convolve", "--f", "d", "--g", "d", "--N", "6", "--M", "3", "--boundary", "closed"),
    ("verify-ingham", "--N-grid", "1000,2000", "--M-rule", "half"),
    ("verify-general", "--alpha", "2", "--beta", "2", "--N", "1000", "--M-grid", "10,100"),
    ("orthogonality", "--N", "100", "--M", "50", "--r-max", "3", "--s-max", "3",
     "--assert-max", "0"),
    ("goldbach", "--N", "100", "--R", "10"),
    ("tau", "--y", "100"),
])
def test_main_emits_each_command_once(capsys, monkeypatch, argv):
    # the subcommands return their rows; main is the one caller of _emit
    import convlab.cli as cli

    callers = []
    emit = cli._emit

    def recording(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        emit(*args)

    monkeypatch.setattr(cli, "_emit", recording)
    code, _, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    assert callers == ["main"]


def test_orthogonality_unfoldable_grid_fails_fast():
    # the first pair with lcm(r, s) > 2**24 in ascending order, (3996, 4199),
    # comes after about 1.7e7 pairs; the largest r and s are tried first
    proc = subprocess.run(
        [sys.executable, "-m", "convlab", "orthogonality", "--N", "100", "--M", "50",
         "--r-max", "4200", "--s-max", "4200"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.fullmatch(r"error: lcm\(r, s\) = \d+ is too large to fold\n", proc.stderr)


@pytest.mark.parametrize("needle, argv", [
    ("overflow float64",
     ("convolve", "--f", "sigma:200.5", "--g", "d", "--N", "2000", "--M", "1500",
      "--boundary", "closed")),
    ("overflow float64",
     ("convolve", "--f", "sigma_norm:-300", "--g", "d", "--N", "2000", "--M", "1500",
      "--boundary", "closed")),
    ("overflow float64",
     ("convolve", "--f", "sigma:100.5", "--g", "d", "--N", "2000", "--M", "1500",
      "--boundary", "closed")),
    ("the sum overflows float64",
     ("convolve", "--f", "sigma_norm:-60", "--g", "sigma_norm:-60", "--N", "100000",
      "--M", "500", "--boundary", "closed")),
    # an integer exponent this large is refused before N**s is built
    ("overflow float64",
     ("convolve", "--f", "sigma:1e7", "--g", "d", "--N", "2000", "--M", "10",
      "--boundary", "closed")),
    ("overflow float64",
     ("convolve", "--f", "sigma:1e300", "--g", "d", "--N", "2000", "--M", "10",
      "--boundary", "closed")),
])
def test_float_overflow_prints_one_error_line(needle, argv):
    # these build a sieve (and, in the fourth row, both finite tables)
    # before they fail, so they cannot sit in the no-sieve test above.  Each
    # runs in its own process with a timeout, so a hang fails the row, and
    # with RuntimeWarning an error, so a warning ends it in a traceback
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "convlab", *argv],
        capture_output=True, text=True, timeout=60,
    )
    err = proc.stderr
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert needle in err
    assert "RuntimeWarning" not in err


def test_verify_general_json(capsys):
    code, out, _ = run(
        capsys, "verify-general", "--alpha", "2", "--beta", "2", "--N", "10000",
        "--M-grid", "100,1000", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify-general"
    assert [set(r) for r in doc["rows"]] == [set(_GENERAL_HEADERS)] * 2
    assert doc["rows"][0]["regime"] == "delta_gt_1"
    assert doc["summary"]["bounded_ok"] is True
    assert set(doc["summary"]) == {"regime", "max_normalized", "bounded_ok"}


def test_verify_general_small_M_has_null_envelope(capsys):
    code, out, _ = run(
        capsys, "verify-general", "--alpha", "1", "--beta", "1", "--N", "1000",
        "--M-grid", "1,100", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["envelope"] is None
    assert doc["rows"][1]["envelope"] is not None


def test_verify_general_rejects_nonpositive_exponent(capsys):
    code, _, err = run(
        capsys, "verify-general", "--alpha", "0", "--beta", "1", "--N", "6",
        "--M-grid", "10",
    )
    assert code == 2
    assert "positive" in err


def test_orthogonality_columns_and_assert(capsys):
    code, out, _ = run(
        capsys, "orthogonality", "--N", "1000", "--M", "1000",
        "--r-max", "3", "--s-max", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(_ORTHO_HEADERS)
    assert len([ln for ln in lines if not ln.startswith("#") ]) == 1 + 9
    # r=s=1: exact = M-1 over the half-open range, main = M, defect = -1
    assert lines[1].split(",")[2:] == ["999", "1000", "-1", "-1"]


def test_orthogonality_assert_max_failure(capsys):
    code, out, _ = run(
        capsys, "orthogonality", "--N", "100", "--M", "100",
        "--r-max", "4", "--s-max", "4", "--assert-max", "1e-9",
    )
    assert code == 1


def test_orthogonality_non_finite_assert_max_exits_2(capsys):
    # a NaN bound would pass every comparison and never fail the check
    code, out, err = run(
        capsys, "orthogonality", "--N", "10", "--M", "10", "--r-max", "2", "--s-max", "2",
        "--assert-max", "nan",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite number" in err


def test_goldbach_odd_N_exits_2(capsys):
    code, _, err = run(capsys, "goldbach", "--N", "1001", "--R", "100")
    assert code == 2
    assert "even" in err


def test_goldbach_small_even(capsys):
    code, out, _ = run(capsys, "goldbach", "--N", "10000", "--R", "2000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(_GOLDBACH_HEADERS)
    ratio = float(lines[1].split(",")[-1])
    assert 0.5 <= ratio <= 1.5
    assert "# in_band=True" in lines


def _convolve(f, g, M, boundary):
    return ("convolve", "--f", f, "--g", g, "--N", "100002", "--M", M, "--boundary", boundary)


# the CLI's kinds, as tabulate reads them
_KINDS = {"mu": ("mobius", None), "d": ("divisor", None), "sigma_norm:0.5": ("sigma_norm", 0.5),
          "sigma:-1.5": ("sigma", -1.5)}


@pytest.mark.parametrize("argv, spec", [
    (("goldbach", "--N", "100000", "--R", "100"), (100_000, 100_000.0, "half_open")),
    (_convolve("lambda", "lambda", "65537", "closed"), (100_002, 65_537.0, "closed")),
    (_convolve("mu", "lambda", "65537.5", "half_open"), (100_002, 65_537.5, "half_open")),
    (_convolve("lambda", "d", "65537.5", "half_open"), (100_002, 65_537.5, "half_open")),
    (_convolve("lambda", "sigma_norm:0.5", "100001", "closed"), (100_002, 100_001.0, "closed")),
    (_convolve("sigma:-1.5", "lambda", "50001", "closed"), (100_002, 50_001.0, "closed")),
])
def test_lambda_pair_commands_print_the_dense_sum(capsys, argv, spec):
    # the prime-power sum prints the bits of the sum over a dense Lambda
    # table, against itself or, on either side, another kind's table
    lam = ArithTable("lambda", brute.lambda_table(spec[0]))
    sieve = build_sieve(math.isqrt(spec[0]))
    kinds = dict(zip(argv[1::2], argv[2::2]))
    tables = [lam if kinds.get(side, "lambda") == "lambda"
              else tabulate(sieve, _KINDS[kinds[side]][0], spec[0], s=_KINDS[kinds[side]][1])
              for side in ("--f", "--g")]
    dense = additive_convolution(*tables, ConvolutionSpec(*spec))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1].split(",")[2 if argv[0] == "goldbach" else 3] == "%.15g" % dense


def test_tau_below_two_prints_nan(capsys):
    code, out, _ = run(capsys, "tau", "--y", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(_TAU_HEADERS)
    assert lines[1] == "1,1,nan,nan"


def test_tau_bad_argument_exits_2(capsys):
    code, _, err = run(capsys, "tau", "--y", "0.5")
    assert code == 2


def test_tau_non_finite_exits_2(capsys):
    for y in ("nan", "inf"):
        code, out, err = run(capsys, "tau", "--y", y)
        assert code == 2, y
        assert out == ""
        assert "finite" in err


def test_thread_variable_is_ignored(capsys, monkeypatch):
    argv = ("verify-ingham", "--N-grid", "100,200", "--M-rule", "half")
    monkeypatch.delenv("CONVLAB_THREADS", raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("CONVLAB_THREADS", "abc")
    assert run(capsys, *argv) == unset


def test_tau_json_nan_is_null(capsys):
    code, out, _ = run(capsys, "tau", "--y", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["main"] is None
    assert doc["rows"][0]["exact"] == 1


def test_output_file_and_reruns_identical(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    argv = [
        "verify-ingham", "--N-grid", "500,2500", "--M-rule", "half",
        "--output", str(target),
    ]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    capsys.readouterr()
    assert first.startswith(b"N,M,boundary,")


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "convlab.cli", "tau", "--y", "100"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(_TAU_HEADERS)


def test_package_main_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "convlab", "tau", "--y", "100"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == ",".join(_TAU_HEADERS)


def test_library_import_leaves_the_gc_unfrozen():
    proc = subprocess.run(
        [sys.executable, "-c", "import gc, convlab, convlab.cli; print(gc.get_freeze_count())"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("on", [True, False])
def test_library_import_keeps_the_importers_gc_state(on):
    # import convlab leaves the GC as the importer had it
    code = f"import gc\n{'' if on else 'gc.disable()'}\nimport convlab\nprint(gc.isenabled())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{on}\n"


def test_cli_import_leaves_json_and_fractions_unloaded():
    # the CLI imports json only to emit JSON, and fractions (with decimal)
    # only where a Fraction is returned
    code = ("import sys, convlab.cli\n"
            "print(sorted(m for m in ('json', 'fractions', 'decimal') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_entry_freezes_the_import_heap_before_main():
    code = (
        "import gc, convlab.cli as cli\n"
        "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
        "cli.entry()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


@pytest.mark.parametrize("expected, argv", [
    # trend_ok=False: the forward grid's relative residual grows (exit 1)
    (1, ("verify-ingham", "--N-grid", "1081080,1999999,9982039", "--M-rule", "half")),
    (2, ("tau", "--y", "0.5")),
])
def test_module_entrypoint_prints_and_exits_as_main(capsys, expected, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "convlab.cli", *argv], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == expected, proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


# Malformed numbers: NaN, one that overflows to inf, a negative zero, a hex
# literal, Arabic-Indic digits (which int() and float() read as 10) and an
# empty value.  "1_000" (read as 1000) is drawn only where 1000 stays cheap
_JUNK = ["nan", "1e400", "-0", "0x10", "\u0661\u0660", ""]

# each command's options and the values drawn for them besides _JUNK
_GRAMMAR = {
    "convolve": {
        "--f": ["d", "mu", "phi", "lambda", "sigma:1", "sigma:0.5", "sigma_norm:2",
                "sigma_norm:-1", "sigma:", "sigma:1:2", "sigma:-0", "sigma_norm:1_000", "bogus"],
        "--g": ["d", "mu", "lambda", "sigma:2", "sigma_norm:0.5", "sigma:-1.5", "sigma_norm:"],
        "--N": ["2", "17", "100", "1_000"],
        "--M": ["1", "8", "16.5", "50", "1_000"],
        "--boundary": ["closed", "half_open", "open"],
    },
    "verify-ingham": {
        "--N-grid": ["100", "17,1_000", "\u0661\u0660\u0660,40", ",", "16,2.5", "500,16"],
        "--M-rule": ["half", "frac:", "frac:0.5", "frac:0", "fixed:inf", "fixed:7", "fixed:"],
    },
    "verify-general": {
        "--alpha": ["0.5", "2", "1_000", "-inf", "1"],
        "--beta": ["1.5", "3", "0.5"],
        "--N": ["100", "17", "1_000"],
        "--M-grid": ["1,10", "50", "\u0661\u0660,1_0", "0,5", ","],
    },
    "orthogonality": {
        "--N": ["50", "100", "1_000"],
        "--M": ["10", "50"],
        "--r-max": ["3", "1_0"],
        "--s-max": ["4", "1"],
        "--assert-max": ["1.5", "0", "inf"],
    },
    "goldbach": {"--N": ["100", "98", "17", "1_000"], "--R": ["10", "1_000"]},
    "tau": {"--y": ["100", "2", "0.5", "1_000", "-inf"]},
}


@st.composite
def _argv(draw):
    # each option is left out one time in ten and malformed two in ten
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    for option, values in _GRAMMAR[command].items():
        roll = draw(st.integers(0, 9))
        if roll:
            argv += [option, draw(st.sampled_from(_JUNK if roll < 3 else values))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_arguments_exit_0_1_or_2_without_a_traceback(argv):
    # every argv of the six commands' grammar, malformed or not, ends in a
    # documented exit code; a usage error is one "error: ..." line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, argv
    else:
        assert err.getvalue() == "" and out.getvalue(), argv
