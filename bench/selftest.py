"""Seconds-long self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload path (untraced and traced) at smoke size, checks the
span self-time arithmetic on made-up and on real spans, proves that a
corrupted output value, a wrong exit code and a hung op are each counted
as failed, that a parent/change comparison never calls a change that fails
more ops a gain, that the host-speed scale comes from the calibration
samples around a process and from nothing of convlab, and that run.py
refuses to run without the convlab sources.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import check  # noqa: E402
import noise  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

_failures = []


def expect(cond: bool, what: str) -> None:
    print(f"{'PASS' if cond else 'FAIL'} {what}")
    if not cond:
        _failures.append(what)


def runner(name: str, reference=None) -> run.Runner:
    wl = workloads.generate(name, 7, "smoke")
    return run.Runner(wl, reference, time.monotonic() + 120)


def test_span_arithmetic() -> None:
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
    spans = [[0, "cli.main", 0.0, 10.0, None, "op", 1, None],
             [1, "arith.tabulate", 1.0, 4.0, 0, "op", 1, {"kind": "phi", "peak_mb": 5.0}],
             [2, "arith.factorize", 2.0, 3.0, 1, "op", 1, None],
             [3, "convolution.additive", 5.0, 6.0, 0, "op", 1,
              {"summands": 100, "bytes": 1600}]]
    selfs = tracer.self_times(spans)
    expect(selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}, "self time = duration - children")
    m = tracer.layer_metrics([spans])
    expect(m["cli.glue.s"] == 6.0 and m["arith.tabulate.phi.s"] == 2.0
           and m["arith.tabulate.s"] == 2.0 and m["arith.factorize.calls"] == 1
           and m["convolution.ns_per_summand"] == 1e7 and m["arith.tabulate.peak_mb"] == 5.0,
           "layer metrics from made-up spans")


def test_workload(name: str) -> None:
    r = runner(name)
    res = run.measure(r, 1.0)
    total = res["total"]
    expect(total.failed == 0 and total.attempted > 0,
           f"{name}: untraced smoke run checks clean ({total.failed}/{total.attempted})"
           + "".join(f"\n    {p}" for p in total.problems[:5]))
    expect(all(v and min(v) > 0 for v in res["series"].values()),
           f"{name}: every end-to-end metric is positive")
    tr = run.measure_traced(r)
    layers = tr["layers"]
    expect(tr["total"].failed == 0, f"{name}: traced smoke run checks clean")
    expect(set(layers) == {n for n, _ in tracer.PER_LAYER}, f"{name}: every per-layer metric")
    expected_nonzero = {
        "cli-tables": ["arith.tabulate.calls", "arith.tabulate.phi.s", "convolution.summands",
                       "ramanujan.singular_series.calls", "cli.startup.s"],
        "cli-sweeps": ["convolution.tau_exact.calls", "asymptotics.sweep.workers",
                       "ramanujan.orthogonality.calls", "asymptotics.report.calls"],
        "session": ["ramanujan.expansion.calls", "ramanujan.expansion.cold_s",
                    "ramanujan.sum_table.calls", "arith.build_sieve.calls"],
    }[name]
    expect(all(layers[k] > 0 for k in expected_nonzero), f"{name}: its layers are traced")
    if name == "session":
        expect(layers["cli.startup.s"] == 0 and layers["convolution.additive.calls"] == 0,
               "session: CLI layers read zero")


def test_calibration() -> None:
    samples = iter([0.5, 0.1, 0.3])  # warm-up, then the samples around one process
    real = calib.kernel
    calib.kernel = lambda: next(samples)
    try:
        scale = calib.Speed().scale_after()
    finally:
        calib.kernel = real
    expect(abs(scale - calib.REF_S / 0.2) < 1e-12,
           "scale = REF_S / mean of the calibration samples before and after")
    probe = subprocess.run([sys.executable, "-c",
                            "import sys, calib; calib.kernel(); "
                            "print(any(m.startswith('convlab') for m in sys.modules))"],
                           cwd=BENCH, capture_output=True, text=True, timeout=60)
    expect(probe.stdout.strip() == "False", "the calibration kernel loads nothing of convlab")


def test_real_span_sums() -> None:
    r = runner("cli-sweeps")
    res = r.cli_pass(True, "selftest-spans")
    ok = bool(res.spans)
    for spans in res.spans:
        roots = sum(s[3] - s[2] for s in spans if s[4] is None)
        ok = ok and abs(sum(tracer.self_times(spans).values()) - roots) < 1e-6
        ok = ok and all(t >= -1e-6 for t in tracer.self_times(spans).values())
    expect(ok, "real spans: self times are non-negative and sum to the root durations")


def _corrupt_cell(text: str, column: str) -> str:
    lines = text.splitlines()
    headers = lines[0].split(",")
    col = headers.index(column)
    cells = lines[1].split(",")
    v = check._cell(cells[col])
    cells[col] = str(v + 1) if isinstance(v, int) else repr(v * (1 + 1e-6))
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_corruption() -> None:
    r = runner("cli-tables")
    good = r.cli_pass(False, "selftest-good")
    reference = {k: dict(v) for k, v in good.outputs.items()}
    rr = runner("cli-tables", reference)

    def recheck(outputs) -> run.PassResult:
        res = run.PassResult(outputs=outputs)
        rr.check_cli_outputs(res)
        return res

    clean = recheck({k: dict(v) for k, v in good.outputs.items()})
    expect(clean.failed == 0, "unchanged outputs match their own reference")

    bad = {k: dict(v) for k, v in good.outputs.items()}
    bad["convolve-phi-mu"]["stdout"] = _corrupt_cell(bad["convolve-phi-mu"]["stdout"], "value")
    res = recheck(bad)
    expect(res.failed == 1 and res.attempted == len(bad),
           "an exact integer off by one is counted as failed")

    bad = {k: dict(v) for k, v in good.outputs.items()}
    bad["goldbach"]["stdout"] = _corrupt_cell(bad["goldbach"]["stdout"], "exact")
    expect(recheck(bad).failed == 1, "a float off by 1e-6 relative is counted as failed")

    bad = {k: dict(v) for k, v in good.outputs.items()}
    bad["verify-general-0.5"]["stdout"] = _corrupt_cell(bad["verify-general-0.5"]["stdout"],
                                                        "residual")
    unref = runner("cli-tables")
    res = run.PassResult(outputs=bad)
    unref.check_cli_outputs(res)
    expect(res.failed == 1, "without a reference, a derived column that disagrees fails")

    bad = {k: dict(v) for k, v in good.outputs.items()}
    bad["goldbach"]["rc"] = 1
    expect(recheck(bad).failed == 1, "a wrong exit code is counted as failed")

    s = runner("session")
    q = next(q for q in s.wl.ops if q["op"] == "expansion")
    value = [0.5, 1e-9, 512]
    expect(bool(check.check_query(q, value)), "a session value outside its oracle fails")
    ok = [check._neg_sigma(q["n"], q["s"]), 1e-7, 512]
    expect(not check.check_query(q, ok), "a session value inside its oracle passes")
    expect(bool(check.check_query(q, ok, {"query": q, "result": [ok[0] * (1 + 1e-7), 1e-7,
                                                                  512]})),
           "a session value off its reference fails")


def test_timeout() -> None:
    t0 = time.perf_counter()
    p = run.spawn_and_wait([sys.executable, "-c", "import time; time.sleep(60)"], 1.0,
                           run.child_env(), "selftest-hang")
    wall = time.perf_counter() - t0
    expect(p.rc is None and wall < 10, f"a hung op is killed at its timeout ({wall:.1f} s)")
    expect(bool(check.check_cli(["tau", "--y", "100"], p.rc, "", "")),
           "a timed-out op is counted as failed")


def test_compare_verdicts() -> None:
    spec = {"better": "lower", "bound": 0.25}
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v / 2 for v in parent]
    expect(noise.judge(parent, faster, spec, False)["verdict"] == "gain",
           "compare: a change twice as fast on every pair is a gain")
    expect(noise.judge(parent, faster, spec, True)["verdict"] == "failed",
           "compare: a faster change that fails more ops is marked failed, not a gain")
    expect(noise.judge(parent, [v * 2 for v in parent], spec, False)["verdict"]
           == "regression", "compare: a change twice as slow is a regression")


def test_without_sources() -> None:
    scratch = run.OUT / "selftest-nosrc"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(BENCH, scratch / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", scratch / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=scratch,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(scratch, ignore_errors=True)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result,
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    test_span_arithmetic()
    test_calibration()
    for name in workloads.WORKLOADS:
        test_workload(name)
    test_real_span_sums()
    test_corruption()
    test_timeout()
    test_compare_verdicts()
    test_without_sources()
    print(json.dumps({"failures": _failures}))
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
