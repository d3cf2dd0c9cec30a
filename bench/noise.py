"""Noise floor and parent-versus-change comparison for the convlab benchmark.

Noise floor: repeat run.py on one checkout, a different seed per run, and
report every metric's median, quartiles and IQR (absolute and as a share
of the median) per workload:

    python3 bench/noise.py --runs 10 --out bench/results/noise.json

Comparison: alternate runs of two checkouts (a parent and a change, each
with its own src/ and an identical bench/), flipping which side goes first
in every pair, on the same seeds:

    python3 bench/noise.py --compare PARENT_DIR CHANGE_DIR --runs 10 \
        --out bench/out/compare.json

Every metric of a workload is marked failed when the change fails more
ops than the parent there (a gain does not count on wrong outputs).
Otherwise a metric gains when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's IQR; it regresses
when the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json; it is unresolved when the parent's own
IQR is wider than that bound.  Each results file carries the environment stamp
of its first run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int,
             tag: str) -> dict:
    """One run.py invocation in checkout; its results file as a dict."""
    out = BENCH / "out" / f"noise-{tag}-{workload}-{seed}-t{trace}.json"
    out.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    doc = json.loads(out.read_text())
    doc["last_line"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc


def summarize(values: List[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "iqr_frac": (q3 - q1) / med if med else None, "values": values}


def _metrics(doc: dict) -> Dict[str, float]:
    return {k: m["value"] for k, m in doc["metrics"].items()}


def noise_floor(args) -> dict:
    report = {"kind": "noise_floor", "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for wl in args.workloads:
        docs = []
        for i in range(args.runs):
            docs.append(run_once(ROOT, wl, args.seed0 + i, args.seconds, args.trace, "nf"))
            print(f"{wl} seed {args.seed0 + i}: {docs[-1]['last_line']}", flush=True)
        report.setdefault("stamp", docs[0]["stamp"])
        names = list(docs[0]["metrics"])
        report["workloads"][wl] = {
            "units": {k: docs[0]["metrics"][k]["unit"] for k in names},
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
            "metrics": {k: summarize([_metrics(d)[k] for d in docs]) for k in names},
        }
    return report


def _bounds(checkout: Path) -> Dict[str, dict]:
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["end_to_end"]}


def _bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "bench").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def judge(pv: List[float], cv: List[float], spec: dict, more_failed: bool) -> dict:
    """Verdict on one metric from paired parent and change values."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(1 for p, c in zip(pv, cv) if sign * (p - c) > 0)
    ps, cs = summarize(pv), summarize(cv)
    worse_by = sign * (cs["median"] - ps["median"]) / ps["median"]
    all_better = max(cv) < min(pv) if sign > 0 else min(cv) > max(pv)
    if more_failed:
        verdict = "failed"
    elif ps["iqr_frac"] is not None and ps["iqr_frac"] > spec["bound"] and not all_better:
        verdict = "unresolved"
    elif worse_by > spec["bound"]:
        verdict = "regression"
    elif wins >= 0.9 * len(pv) and abs(cs["median"] - ps["median"]) > ps["iqr"]:
        verdict = "gain"
    else:
        verdict = "no change"
    return {"parent": ps, "change": cs, "change_wins": wins, "pairs": len(pv),
            "worse_by_frac": worse_by, "bound": spec["bound"], "verdict": verdict}


def compare(args) -> dict:
    parent, change = Path(args.compare[0]).resolve(), Path(args.compare[1]).resolve()
    if _bench_digest(parent) != _bench_digest(change):
        print("warning: the two checkouts run different benchmark code", file=sys.stderr)
    bounds = _bounds(parent)
    report = {"kind": "compare", "parent": str(parent), "change": str(change),
              "seconds": args.seconds, "pairs": args.runs, "workloads": {}}
    for wl in args.workloads:
        sides: Dict[str, List[dict]] = {"parent": [], "change": []}
        for i in range(args.runs):
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                sides[side].append(run_once(checkout, wl, args.seed0 + i, args.seconds, 0,
                                            side))
            print(f"{wl} pair {i}: parent {sides['parent'][-1]['last_line']['metrics']}"
                  f" change {sides['change'][-1]['last_line']['metrics']}", flush=True)
        report.setdefault("stamp", sides["change"][0]["stamp"])
        ops = {side: {"attempted": sum(d["attempted"] for d in docs),
                      "failed": sum(d["failed"] for d in docs)}
               for side, docs in sides.items()}
        more_failed = ops["change"]["failed"] > ops["parent"]["failed"]
        rows = {}
        for name, spec in bounds.items():
            rows[name] = judge([_metrics(d)[name] for d in sides["parent"]],
                               [_metrics(d)[name] for d in sides["change"]], spec, more_failed)
        report["workloads"][wl] = {"ops": ops, "metrics": rows}
    return report


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10, help="runs per workload (pairs with --compare)")
    ap.add_argument("--seed0", type=int, default=100, help="first seed; run i uses seed0 + i")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--out", required=True, help="results file to write")
    args = ap.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    t0 = time.time()
    report = compare(args) if args.compare else noise_floor(args)
    report["elapsed_s"] = time.time() - t0
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for wl, rows in report["workloads"].items():
        if "ops" in rows:
            print(f"{wl:11s} failed ops: parent {rows['ops']['parent']['failed']} of "
                  f"{rows['ops']['parent']['attempted']}, change "
                  f"{rows['ops']['change']['failed']} of {rows['ops']['change']['attempted']}")
        for name, row in rows["metrics"].items():
            if "verdict" in row:
                print(f"{wl:11s} {name:14s} parent {row['parent']['median']:.6g} "
                      f"change {row['change']['median']:.6g} wins {row['change_wins']}/"
                      f"{row['pairs']} -> {row['verdict']}")
            else:
                frac = row["iqr_frac"]
                print(f"{wl:11s} {name:34s} median {row['median']:.6g} "
                      f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} iqr/median "
                      f"{'n/a' if frac is None else f'{frac:.4f}'} (n={row['runs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
