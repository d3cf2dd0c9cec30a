"""The session workload's program: one long-lived convlab library process.

Usage: python3 bench/session.py --limit L [--setup-only] [--trace SPANS]

Start-up is import, build_sieve(L) and the divisor table, as a notebook
user would do it.  Then each line read from stdin is one pass: a JSON list
of queries.  The reply is one JSON line with a result per query (or an
error string), the wall time spent on each query type, and the process's
own CPU time and peak RSS so far.  EOF ends the session.  With --setup-only
the process prints where it imported convlab from and exits after
start-up; the benchmark times such launches from outside to get setup_s.

With --trace, the convlab layers are wrapped by tracer.py before start-up
and the spans are written to SPANS when the session ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np


def _usage() -> resource.struct_rusage:
    return resource.getrusage(resource.RUSAGE_SELF)


def _run_query(C, sieve, q: dict):
    op = q["op"]
    if op == "expansion":
        res = C.expansion_adaptive(sieve, C.sigma_provider(q["s"]), q["n"])
        return [res.value, res.tail_bound, res.R]
    if op == "hardy":
        res = C.expansion_partial_sum(sieve, C.hardy_provider(sieve), q["n"], q["R"])
        return [res.value, res.R]
    if op == "singular":
        return C.singular_series(sieve, q["N"], q["R"])
    if op == "ortho":
        rec = C.orthogonality_defect(sieve, q["r"], q["s"], q["N"], q["M"])
        return [rec.exact, rec.main, rec.defect]
    if op == "main_term":
        value, tail = C.main_term_general(
            sieve, C.sigma_provider(q["a"]), C.sigma_provider(q["b"]), q["N"], q["M"]
        )
        return [value, tail]
    if op == "table":
        c = C.ramanujan_sum_table(sieve, q["n"], q["R"])[1:]
        # |c_r(n)| <= sigma(n) < 2**31, so the weighted dot product fits in int64
        weights = np.arange(1, len(c) + 1, dtype=np.int64) % 1021
        return [int(c.sum()), int(np.abs(c).sum()), int(np.dot(c, weights)),
                [int(c[p - 1]) for p in q["probe"]]]
    raise ValueError(f"unknown query op {op!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans to this file at exit")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    import convlab as C

    sieve = C.build_sieve(args.limit)
    C.tabulate(sieve, "divisor", args.limit)
    if args.setup_only:
        print(C.__file__)
        return 0

    try:
        for line in sys.stdin:
            queries = json.loads(line)
            before = _usage()
            results, op_s = [], {}
            for q in queries:
                if tracer is not None:
                    tracer.op = q["name"]
                t0 = time.perf_counter()
                try:
                    out = _run_query(C, sieve, q)
                except Exception as exc:  # one failed query must not end the session
                    out = {"error": f"{type(exc).__name__}: {exc}"}
                op_s[q["op"]] = op_s.get(q["op"], 0.0) + time.perf_counter() - t0
                results.append(out)
            after = _usage()
            cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            reply = {"results": results, "op_s": op_s, "cpu_s": cpu,
                     "maxrss_kb": after.ru_maxrss}
            sys.stdout.write(json.dumps(reply, allow_nan=True) + "\n")
            sys.stdout.flush()
    finally:
        if tracer is not None:
            tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
