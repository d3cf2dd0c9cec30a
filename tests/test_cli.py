import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from convlab.cli import (
    _CONVOLVE_HEADERS,
    _GENERAL_HEADERS,
    _GOLDBACH_HEADERS,
    _INGHAM_HEADERS,
    _ORTHO_HEADERS,
    _TAU_HEADERS,
    main,
)
from convlab import build_sieve


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


@pytest.mark.parametrize("argv, limit", [
    # hyperbola tables only: convolve reads no sieve, so it builds the
    # minimal one, and a main term's sieve just factors N, so isqrt(N)
    (("convolve", "--f", "d", "--g", "d", "--N", "1000", "--M", "3", "--boundary", "closed"),
     2),
    (("convolve", "--f", "sigma:1", "--g", "sigma_norm:0.5", "--N", "9999", "--M", "50",
      "--boundary", "half_open"), 2),
    (("verify-ingham", "--N-grid", "1000,5000,2000", "--M-rule", "half"), math.isqrt(5000)),
    (("verify-general", "--alpha", "2", "--beta", "2", "--N", "3000", "--M-grid", "10,100"),
     math.isqrt(3000)),
    (("convolve", "--f", "d", "--g", "d", "--N", "3", "--M", "1", "--boundary", "closed"), 2),
    # a mu, phi or Lambda table, or the Ramanujan sums, read the sieve to N or R
    (("convolve", "--f", "phi", "--g", "mu", "--N", "1000", "--M", "3", "--boundary", "closed"),
     1000),
    (("convolve", "--f", "d", "--g", "lambda", "--N", "1000", "--M", "3",
      "--boundary", "closed"), 1000),
    (("goldbach", "--N", "1000", "--R", "2000"), 2000),
    (("goldbach", "--N", "1000", "--R", "10"), 1000),
    # the Ramanujan sums of orthogonality read the sieve only to max(r, s)
    (("orthogonality", "--N", "500", "--M", "500", "--r-max", "3", "--s-max", "4"), 4),
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


_CLI_TABLES_AT_2_22 = [
    # (argv, bound on the tracemalloc peak in units of 8 * 2**22 bytes).
    # Measured: phi.mu 1.54 (2.29 with an int64 phi), sigma.d and the
    # sigma_norm pair 1.75 (2.25 with a sieve to N), goldbach 1.68 (2.13
    # with Lambda's primes found in one whole-range pass and their logs
    # taken from one Python list)
    (("convolve", "--f", "phi", "--g", "mu", "--N", str(2**22), "--M", str(2**20),
      "--boundary", "closed"), 1.9),
    (("convolve", "--f", "sigma:1", "--g", "d", "--N", str(2**22), "--M", str(3 * 2**20),
      "--boundary", "half_open"), 2.0),
    (("verify-general", "--alpha", "0.5", "--beta", "0.5", "--N", str(2**22),
      "--M-grid", "1000,2000000,4000000"), 2.0),
    (("goldbach", "--N", str(2**22), "--R", "1000"), 1.9),
]


@pytest.mark.parametrize("argv, bound", _CLI_TABLES_AT_2_22)
def test_cli_tables_peak_memory(capsys, argv, bound):
    # each command holds only the tables it reads: no sieve to N next to
    # the hyperbola tables, phi in the sieve's int32, Lambda's primes found
    # one block at a time
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
