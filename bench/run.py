"""convlab benchmark: run one workload as a closed loop and report its metrics.

    python3 bench/run.py --workload {cli-tables,cli-sweeps,session} --seed N \
        --seconds S --trace {0,1} [--scale smoke] [--out FILE]

One harness process (this one) runs one program process at a time against
the checkout's own src/, with CONVLAB_THREADS unset and one OpenBLAS
thread.  Each op's output is checked (check.py); a crash, a timeout, a
wrong exit code or a wrong value counts as a failed op.

--trace 0 measures the end-to-end metrics: a fixed number of whole passes
through the workload's ops, set by --seconds and the workload's nominal
pass length (not by how fast the passes run), with fresh set-up launches
spread around them for setup_s.  Times are reported at the host's
reference speed: each measured process is bracketed by samples of a fixed
calibration kernel (calib.py).  --trace 1 runs an untraced and a traced
pass, interleaved op by op, and reports the per-layer metrics of the
traced pass (tracer.py) plus the tracing overhead.  The last stdout line is one JSON object: correct, attempted,
failed and metrics.

--write-reference runs one checked pass and stores its outputs as the
seed's reference (reference/<workload>-seed<k>.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT = BENCH / "out"
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# A run makes a fixed number of passes: --seconds over the workload's
# nominal pass length (per warm pass for session), chosen on the seed code
# and the 2-vCPU reference host so that a run, set-up launches and session
# start-up included, takes about 30 s at --seconds 25 (the benchmark's whole
# schedule of 70 runs must fit in under an hour, also when the host runs a
# third slower).  The count never depends on how fast the passes run, so the
# parent and a change take their medians over the same number of samples.
NOMINAL_PASS_S = {"cli-tables": 12.5, "cli-sweeps": 8.0, "session": 2.5}
MIN_TIMED_PASSES = 2
MIN_WARM_PASSES = 2
# set-up launches: two before each CLI pass and the rest after; on session,
# a third before each session process and a third after
SETUP_LAUNCHES = 6
# a session process can run a tenth slower than the next for its whole life,
# which the calibration does not see, so a run's warm passes are split over
# two processes
SESSION_PROCESSES = 2
RUN_DEADLINE_S = 165.0  # the whole run ends well inside three minutes
OP_TIMEOUT_S = {"full": 60.0, "smoke": 30.0}
SESSION_PASS_TIMEOUT_S = {"full": 90.0, "smoke": 30.0}


def child_env() -> Dict[str, str]:
    """The program's environment: this checkout's src/, CONVLAB_THREADS unset."""
    env = {k: v for k, v in os.environ.items()
           if k != "CONVLAB_THREADS" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # numpy's OpenBLAS would otherwise keep a worker thread spinning after
    # each floating-point dot product: the program would occupy both vCPUs,
    # and its times would swing with the load on the second one (session
    # warm passes measured 1.2 s and 3.0 s on the same host) while the
    # spinning gained it nothing (1.16 s with one thread)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


@dataclass
class Proc:
    """Outcome of one program process: exit code (None if killed), times, RSS."""

    rc: Optional[int]
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: str
    stderr: str


def spawn_and_wait(cmd: List[str], timeout: float, env: Dict[str, str],
                   name: str, stdin_data: Optional[str] = None) -> Proc:
    """Run cmd to completion (or kill it at timeout) and take its rusage."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{name}.out", OUT / f"{name}.err"
    in_path = OUT / f"{name}.in"
    in_path.write_text(stdin_data or "")
    with open(in_path, "rb") as fi, open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        env = dict(env, BENCH_SPAWN_T=repr(t0))
        proc = subprocess.Popen(cmd, stdin=fi, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        rc, ru = _wait_rusage(proc, timeout)
        wall = time.perf_counter() - t0
    return Proc(rc, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def _wait_rusage(proc: subprocess.Popen, timeout: float):
    """Reap proc, killing it if it outlives timeout; (exit code or None, rusage)."""
    lock, state = threading.Lock(), {"done": False, "killed": False}

    def kill():
        with lock:
            if not state["done"]:
                state["killed"] = True
                proc.kill()

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        kill()  # interrupted (SIGTERM, Ctrl-C): never leave the child behind
        raise
    finally:
        with lock:
            state["done"] = True
        timer.cancel()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if state["killed"] else proc.returncode), ru


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    maxrss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    spans: List[list] = field(default_factory=list)
    emit_bytes: int = 0
    outputs: Dict[str, dict] = field(default_factory=dict)
    op_times: Dict[str, tuple] = field(default_factory=dict)  # name -> (wall, cpu, rss_kb)
    # wall and cpu at the host's reference speed (calib.py): name -> (wall, cpu)
    op_scaled: Dict[str, tuple] = field(default_factory=dict)
    scaled: tuple = (0.0, 0.0)  # session: this pass's (wall, cpu) at reference speed
    op_s: Dict[str, float] = field(default_factory=dict)  # session: query type -> wall

    def record(self, name: str, problems: List[str]) -> None:
        """Count one checked op, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {msg}" for msg in problems)


class Runner:
    def __init__(self, wl: workloads.Workload, reference: Optional[dict], deadline: float):
        self.wl = wl
        self.reference = reference
        self.deadline = deadline
        self.op_timeout = OP_TIMEOUT_S[wl.scale]
        self.pass_timeout = SESSION_PASS_TIMEOUT_S[wl.scale]
        # end-to-end runs calibrate the host's speed around every measured
        # process; the traced run does not
        self.speed: Optional[calib.Speed] = None

    def scale_after(self) -> float:
        return self.speed.scale_after() if self.speed is not None else 1.0

    def _timeout(self, limit: float) -> float:
        return min(limit, self.deadline - time.monotonic())

    # -- set-up ------------------------------------------------------------

    def setup_cmd(self) -> List[str]:
        if self.wl.name == "session":
            return [sys.executable, str(BENCH / "session.py"), "--limit", str(self.wl.limit),
                    "--setup-only"]
        code = ("import convlab; convlab.build_sieve(%d); print(convlab.__file__)"
                % self.wl.limit)
        return [sys.executable, "-c", code]

    def setup_launch(self, i: int, res: PassResult) -> tuple:
        """One fresh set-up process; its (wall, wall at reference speed)."""
        p = spawn_and_wait(self.setup_cmd(), self._timeout(self.op_timeout), child_env(),
                           f"setup-{i}")
        scale = self.scale_after()
        problems = []
        if p.rc != 0:
            problems.append(f"exit {p.rc}: {p.stderr.strip()[-200:]}")
        elif not p.stdout.strip().startswith(str(ROOT / "src")):
            problems.append(f"imported convlab from {p.stdout.strip()!r}, not this checkout")
        res.record(f"setup-{i}", problems)
        res.maxrss_kb = max(res.maxrss_kb, p.maxrss_kb)
        return p.wall, p.wall * scale

    # -- CLI workloads -----------------------------------------------------

    def cli_pass(self, traced: bool, tag: str) -> PassResult:
        res = PassResult()
        for i, op in enumerate(self.wl.ops):
            self.cli_op(res, i, op, traced, tag)
        self.check_cli_outputs(res)
        return res

    def cli_pass_pair(self) -> tuple:
        """An untraced and a traced pass, interleaved op by op so that a burst
        of contention on the host lands on both alike."""
        plain, traced = PassResult(), PassResult()
        for i, op in enumerate(self.wl.ops):
            self.cli_op(plain, i, op, False, "untraced")
            self.cli_op(traced, i, op, True, "traced")
        self.check_cli_outputs(plain)
        self.check_cli_outputs(traced)
        return plain, traced

    def cli_op(self, res: PassResult, i: int, op: dict, traced: bool, tag: str) -> None:
        name = f"{tag}-{i}-{op['name']}"
        if traced:
            spans_path = OUT / f"{name}.spans.json"
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), op["name"],
                   "--", *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "convlab.cli", *op["argv"]]
        p = spawn_and_wait(cmd, self._timeout(self.op_timeout), child_env(), name)
        scale = self.scale_after()
        res.op_scaled[op["name"]] = (p.wall * scale, p.cpu * scale)
        res.wall += p.wall
        res.cpu += p.cpu
        res.maxrss_kb = max(res.maxrss_kb, p.maxrss_kb)
        res.emit_bytes += len(p.stdout.encode())
        res.op_times[op["name"]] = (p.wall, p.cpu, p.maxrss_kb)
        res.outputs[op["name"]] = {"argv": op["argv"], "rc": p.rc, "stdout": p.stdout,
                                   "stderr": p.stderr}
        if traced and p.rc is not None and spans_path.exists():
            res.spans.append(tracer.load_spans(str(spans_path)))

    def check_cli_outputs(self, res: PassResult) -> None:
        for op in self.wl.ops:
            o = res.outputs[op["name"]]
            ref = self.reference.get(op["name"]) if self.reference else None
            res.record(op["name"], check.check_cli(op["argv"], o["rc"], o["stdout"],
                                                   o["stderr"], ref))

    # -- session -----------------------------------------------------------

    def session_cmd(self, spans_path: Optional[Path]) -> List[str]:
        cmd = [sys.executable, str(BENCH / "session.py"), "--limit", str(self.wl.limit)]
        if spans_path is not None:
            cmd += ["--trace", str(spans_path)]
        return cmd

    def check_session(self, res: PassResult, results) -> None:
        ops = self.wl.ops
        if not isinstance(results, list) or len(results) != len(ops):
            results = [{"error": "no result"}] * len(ops)
        for q, r in zip(ops, results):
            ref = self.reference.get(q["name"]) if self.reference else None
            res.record(q["name"], check.check_query(q, r, ref))
            res.outputs[q["name"]] = {"query": q, "result": r}

    def session_passes(self, warm: int) -> List[PassResult]:
        """One session process: a cold pass, then warm passes (fewer only if
        the run deadline comes first)."""
        OUT.mkdir(exist_ok=True)
        err_path = OUT / "session.err"
        line = json.dumps(self.wl.ops) + "\n"
        passes: List[PassResult] = []
        with open(err_path, "wb") as fe:
            proc = subprocess.Popen(self.session_cmd(None), stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=fe, env=child_env(),
                                    cwd=ROOT, text=True)
            try:
                while True:
                    res = PassResult()
                    t0 = time.perf_counter()
                    doc = None
                    try:
                        proc.stdin.write(line)
                        proc.stdin.flush()
                        reply = _readline(proc.stdout, self._timeout(self.pass_timeout))
                        doc = json.loads(reply) if reply else None
                    except (BrokenPipeError, ValueError):
                        pass
                    res.wall = time.perf_counter() - t0
                    scale = self.scale_after()
                    if doc is None:
                        self.check_session(res, None)
                        res.problems.append(f"session: no reply: {_tail(err_path)}")
                        passes.append(res)
                        break
                    res.cpu, res.maxrss_kb = doc["cpu_s"], doc["maxrss_kb"]
                    res.scaled = (res.wall * scale, res.cpu * scale)
                    res.op_s = doc["op_s"]
                    self.check_session(res, doc["results"])
                    passes.append(res)
                    if len(passes) > warm or \
                            time.monotonic() > self.deadline - 2 * res.wall:
                        break
            finally:
                try:
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
                rc, ru = _wait_rusage(proc, self._timeout(30.0))
        if rc != 0:
            passes[-1].record("session-exit", [f"session exited with {rc}: {_tail(err_path)}"])
        for p in passes:
            p.maxrss_kb = max(p.maxrss_kb, ru.ru_maxrss)
        return passes

    def session_process(self, traced: bool, tag: str) -> PassResult:
        """A whole session (set-up, cold pass, one warm pass) timed from outside."""
        spans_path = OUT / f"{tag}-session.spans.json" if traced else None
        if spans_path is not None:
            spans_path.unlink(missing_ok=True)
        line = json.dumps(self.wl.ops) + "\n"
        p = spawn_and_wait(self.session_cmd(spans_path), self._timeout(2 * self.pass_timeout),
                           child_env(), f"{tag}-session", stdin_data=line * 2)
        res = PassResult(wall=p.wall, cpu=p.cpu, maxrss_kb=p.maxrss_kb)
        replies = []
        for reply in p.stdout.splitlines():
            try:
                replies.append(json.loads(reply)["results"])
            except (ValueError, KeyError, TypeError):
                replies.append(None)
        for k in range(2):
            self.check_session(res, replies[k] if k < len(replies) else None)
        if p.rc != 0:
            res.record("session-exit", [f"exit {p.rc}: {p.stderr.strip()[-300:]}"])
        if traced and p.rc is not None and spans_path.exists():
            res.spans.append(tracer.load_spans(str(spans_path)))
        return res


def _readline(stream, timeout: float) -> Optional[str]:
    ready, _, _ = select.select([stream], [], [], max(timeout, 0.0))
    if not ready:
        return None
    line = stream.readline()
    return line or None


def _tail(path: Path) -> str:
    text = path.read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else "(no stderr)"


def quartiles(values: List[float]):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def env_stamp(wl: workloads.Workload, full: bool) -> dict:
    """Where and on what a result was measured."""
    import numpy

    stamp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "CONVLAB_THREADS": os.environ.get("CONVLAB_THREADS"),
        "CONVLAB_THREADS_in_children": "unset",
        "OPENBLAS_NUM_THREADS_in_children": "1",
        "workload": wl.name,
        "seed": wl.seed,
        "scale": wl.scale,
        "sizes": wl.sizes,
    }
    if full:
        stamp.update(_git_stamp())
        stamp.update(_cpu_stamp())
    return stamp


def _git_stamp() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, env=env, text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    if sha.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}


def _cpu_stamp() -> dict:
    out = {"cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                out["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if level in ("2", "3"):
                out["caches"][f"L{level}"] = (idx / "size").read_text().strip()
            elif kind == "Data":
                out["caches"]["L1d"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def planned_passes(workload: str, seconds: float, minimum: int) -> int:
    """Passes in a run of about seconds; fixed, whatever the code's speed."""
    return max(minimum, round(seconds / NOMINAL_PASS_S[workload]))


def median_shares(passes: List[PassResult]) -> Dict[str, float]:
    """Each session query type's share of a pass's query time, median over passes."""
    kinds = sorted({k for p in passes for k in p.op_s})
    shares = {k: [] for k in kinds}
    for p in passes:
        total = sum(p.op_s.values())
        for k in kinds:
            shares[k].append(p.op_s.get(k, 0.0) / total if total else 0.0)
    return {k: statistics.median(v) for k, v in shares.items() if v}


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end run: a fixed number of passes, with set-up launches spread
    around them so that setup_s samples the whole run, not one moment.
    Every measured process is bracketed by calibration samples (calib.py),
    and wall_s, cpu_s and setup_s are medians of times at reference speed."""
    wl = runner.wl
    runner.speed = calib.Speed()
    extra = {}
    total = PassResult()
    setup: List[tuple] = []  # (wall, wall at reference speed) per launch

    def launch(k: int) -> None:
        for _ in range(k):
            setup.append(runner.setup_launch(len(setup), total))

    if wl.name == "session":
        # set-up launches only outside the session process: an idle session
        # process still counts against the process limit
        warm = max(MIN_WARM_PASSES,
                   planned_passes(wl.name, seconds, MIN_WARM_PASSES) // SESSION_PROCESSES)
        planned = SESSION_PROCESSES * (warm + 1)
        passes, timed, cold = [], [], []
        for _ in range(SESSION_PROCESSES):
            launch(SETUP_LAUNCHES // (SESSION_PROCESSES + 1))
            these = runner.session_passes(warm)
            passes += these
            cold.append(these[0].wall)
            timed += these[1:]  # the cold first pass fills the caches
        launch(SETUP_LAUNCHES - len(setup))
        timed = timed or passes
        # reported, not a metric: the cache fill every session pays first
        extra["cold_pass_s"] = statistics.median(cold)
        extra["query_shares"] = median_shares(timed)

        def estimate(pick) -> float:
            return statistics.median(pick(p) for p in timed)

        values = {"wall_s": estimate(lambda p: p.scaled[0]),
                  "cpu_s": estimate(lambda p: p.scaled[1])}
        raw = {"wall_s": estimate(lambda p: p.wall), "cpu_s": estimate(lambda p: p.cpu)}
        values["peak_rss_mb"] = estimate(lambda p: p.maxrss_kb) / 1024.0
    else:
        planned = planned_passes(wl.name, seconds, MIN_TIMED_PASSES)
        passes = []
        while len(passes) < planned:
            launch(2)
            passes.append(runner.cli_pass(False, f"p{len(passes)}"))
            if time.monotonic() > runner.deadline - 1.5 * passes[-1].wall:
                break
        launch(max(2, SETUP_LAUNCHES - len(setup)))
        timed = passes

        def estimate(table: str, k: int) -> float:
            """Sum over ops of the op's median over passes."""
            return sum(statistics.median(getattr(p, table)[op["name"]][k] for p in timed)
                       for op in wl.ops)

        values = {"wall_s": estimate("op_scaled", 0), "cpu_s": estimate("op_scaled", 1)}
        raw = {"wall_s": estimate("op_times", 0), "cpu_s": estimate("op_times", 1)}
        values["peak_rss_mb"] = max(statistics.median(p.op_times[op["name"]][2] for p in timed)
                                    for op in wl.ops) / 1024.0
    values["setup_s"] = statistics.median(t[1] for t in setup)
    raw["setup_s"] = statistics.median(t[0] for t in setup)
    for p in passes:
        total.attempted += p.attempted
        total.failed += p.failed
        total.problems += p.problems
    series = {
        "wall_s": [p.wall for p in timed],
        "cpu_s": [p.cpu for p in timed],
        "setup_s": [t[0] for t in setup],
        "peak_rss_mb": [p.maxrss_kb / 1024.0 for p in timed],
    }
    if len(passes) < planned:
        print(f"warning: the run deadline cut the passes to {len(passes)} of {planned}; "
              "this run's estimate is not comparable", file=sys.stderr)
    # the same estimates from unscaled times, and the calibration samples
    extra["unscaled"] = raw
    extra["calibration_s"] = runner.speed.samples
    extra["op_times"] = [p.op_times for p in timed]
    extra["op_scaled"] = [p.op_scaled or p.scaled for p in timed]
    return {"total": total, "values": values, "series": series, "passes": len(passes),
            "planned": planned, "extra": extra, "outputs": passes[0].outputs}


def measure_traced(runner: Runner) -> dict:
    """An untraced and a traced pass (for session, two whole session processes);
    per-layer metrics of the traced one and the tracing overhead."""
    wl = runner.wl
    if wl.name == "session":
        plain = runner.session_process(False, "untraced")
        traced = runner.session_process(True, "traced")
    else:
        plain, traced = runner.cli_pass_pair()
    layers = tracer.layer_metrics(traced.spans)
    if wl.name != "session":
        layers["cli.emit.bytes"] = traced.emit_bytes
    layers["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
    total = PassResult(attempted=plain.attempted + traced.attempted,
                       failed=plain.failed + traced.failed,
                       problems=plain.problems + traced.problems)
    return {"total": total, "layers": layers, "walls": [plain.wall, traced.wall],
            "outputs": plain.outputs}


def write_reference(wl: workloads.Workload, outputs: Dict[str, dict]) -> Path:
    path = Path(check.reference_path(str(BENCH), wl.name, wl.seed))
    path.parent.mkdir(exist_ok=True)
    ops = {}
    for name, o in outputs.items():
        o = dict(o)
        o.pop("stderr", None)
        ops[name] = o
    doc = {"workload": wl.name, "seed": wl.seed, "scale": wl.scale,
           "stamp": env_stamp(wl, full=True), "rel_tol": check.REL_TOL, "ops": ops}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="convlab benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    ap.add_argument("--out", default=None, help="also write a results file here")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this seed's checked outputs as its reference")
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so every child process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "convlab" / "__init__.py").is_file():
        print(f"error: no convlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    wl = workloads.generate(args.workload, args.seed, args.scale)
    reference = None
    if args.scale == "full" and not args.write_reference:
        reference = check.load_reference(str(BENCH), wl.name, wl.seed)
    runner = Runner(wl, reference, deadline)
    checks = ("consistency, oracles and reference outputs" if reference else
              "consistency and oracles only (no reference outputs for this seed)")

    stamp = env_stamp(wl, full=bool(args.out or args.write_reference))
    print(f"convlab bench: workload={wl.name} seed={wl.seed} scale={wl.scale} "
          f"trace={args.trace} python={stamp['python']} numpy={stamp['numpy']} "
          f"nproc={stamp['nproc']} CONVLAB_THREADS=unset")
    print(f"checks: {checks}")

    if args.trace:
        r = measure_traced(runner)
        units = dict(tracer.PER_LAYER)
        metrics = {k: {"value": r["layers"][k], "unit": units[k]} for k, _ in tracer.PER_LAYER}
        for k, m in metrics.items():
            print(f"{k} {m['value']:.6g} {m['unit']}")
        extra = {"walls": r["walls"]}
    else:
        r = measure(runner, args.seconds)
        metrics = {}
        extra = {"passes": r["passes"], "planned_passes": r["planned"], "series": r["series"],
                 **r["extra"]}
        for k, unit in END_TO_END:
            q1, _, q3 = quartiles(r["series"][k])
            metrics[k] = {"value": r["values"][k], "unit": unit}
            raw = extra["unscaled"].get(k)
            scaled = f"at reference speed, unscaled {raw:.6g}; " if raw is not None else ""
            print(f"{k} {r['values'][k]:.6g} {unit} ({scaled}unscaled samples: q1 {q1:.6g}, "
                  f"q3 {q3:.6g}, n={len(r['series'][k])})")
        if "cold_pass_s" in extra:
            print(f"cold pass {extra['cold_pass_s']:.6g} s (median over session processes; "
                  "not an end-to-end metric)")
            print("query shares of a warm pass: " + ", ".join(
                f"{k} {v:.3f}" for k, v in extra["query_shares"].items()))
    total: PassResult = r["total"]
    failed_frac = total.failed / total.attempted if total.attempted else 1.0
    print(f"failed_frac {failed_frac:.6g} ratio ({total.failed} of {total.attempted} ops)")
    for msg in total.problems[:20]:
        print(f"FAIL {msg}", file=sys.stderr)

    if args.write_reference:
        if total.failed:
            print("error: not writing a reference from a failing pass", file=sys.stderr)
            return 1
        print(f"reference written to {write_reference(wl, r['outputs'])}")
    if args.out:
        doc = {"stamp": stamp, "trace": args.trace, "checks": checks,
               "attempted": total.attempted, "failed": total.failed,
               "failed_frac": failed_frac, "metrics": metrics, **extra,
               "problems": total.problems}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    result = {"correct": total.failed == 0, "attempted": total.attempted,
              "failed": total.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
