"""Span tracing of the convlab layers from outside the package.

install() wraps the public functions of arith, convolution, asymptotics,
ramanujan and cli (plus cli's private _emit, the output seam) under every
convlab module name that refers to them, so that calls made through a
re-export or a `from .arith import tabulate` are seen too.  Each call
records a span: id, name, start, end, parent span, op id, thread and a few
attributes.  Spans stay in memory and are written out by dump() at exit.
Peak memory is sampled only around tabulate and the expansion calls.

layer_metrics() turns the spans of one pass into the per-layer metrics.
A layer's time is self time: a span's duration minus its direct children.

Run as a script, this module is the traced CLI process:

    BENCH_SPAWN_T=<perf_counter at spawn> \
        python3 bench/tracer.py SPANS OP -- <convlab cli arguments>

It records interpreter start-up plus `import convlab.cli` as the
cli.startup span (perf_counter is CLOCK_MONOTONIC, shared by all
processes on Linux), runs the CLI and writes its spans to SPANS.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional

_MB = float(1 << 20)

# span name -> (convlab module, functions recorded under that name)
WRAPPED = {
    "arith.build_sieve": ("arith", ("build_sieve",)),
    "arith.tabulate": ("arith", ("tabulate",)),
    "arith.factorize": ("arith", ("factorize",)),
    "convolution.additive": ("convolution", ("additive_convolution",)),
    "convolution.tau_exact": ("convolution", ("tau_exact",)),
    "asymptotics.report": ("asymptotics", ("divisor_report", "sigma_norm_report")),
    "asymptotics.main_term": ("asymptotics", (
        "main_term_full", "main_term_subsum", "main_term_supersum", "main_term_general",
        "main_term_sigma_norm", "main_term_sigma_full", "tau_main")),
    "asymptotics.sweep": ("asymptotics", ("sweep",)),
    "ramanujan.sum": ("ramanujan", ("ramanujan_sum",)),
    "ramanujan.orthogonality": ("ramanujan", ("orthogonality_defect",)),
    "ramanujan.sum_table": ("ramanujan", ("ramanujan_sum_table",)),
    "ramanujan.singular_series": ("ramanujan", ("singular_series",)),
    "ramanujan.expansion": ("ramanujan", ("expansion_adaptive", "expansion_partial_sum")),
    "cli.main": ("cli", ("main",)),
    "cli.emit": ("cli", ("_emit",)),
}
_MEMORY_SPANS = ("arith.tabulate", "ramanujan.expansion")

TABLE_KINDS = ("divisor", "mobius", "phi", "lambda", "sigma", "sigma_norm")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("arith.build_sieve.s", "s"), ("arith.build_sieve.calls", "count"),
     ("arith.tabulate.s", "s"), ("arith.tabulate.calls", "count")]
    + [(f"arith.tabulate.{k}.s", "s") for k in TABLE_KINDS]
    + [("arith.tabulate.peak_mb", "MB"),
       ("arith.factorize.calls", "count"), ("arith.factorize.s", "s"),
       ("convolution.additive.s", "s"), ("convolution.additive.calls", "count"),
       ("convolution.summands", "count"), ("convolution.ns_per_summand", "ns"),
       ("convolution.bytes_computed", "bytes"),
       ("convolution.tau_exact.s", "s"), ("convolution.tau_exact.calls", "count"),
       ("asymptotics.report.s", "s"), ("asymptotics.report.calls", "count"),
       ("asymptotics.main_term.s", "s"), ("asymptotics.main_term.calls", "count"),
       ("asymptotics.sweep.s", "s"), ("asymptotics.sweep.workers", "count"),
       ("ramanujan.sum.calls", "count"), ("ramanujan.sum.s", "s"),
       ("ramanujan.orthogonality.s", "s"), ("ramanujan.orthogonality.calls", "count"),
       ("ramanujan.sum_table.s", "s"), ("ramanujan.sum_table.calls", "count"),
       ("ramanujan.singular_series.s", "s"), ("ramanujan.singular_series.calls", "count"),
       ("ramanujan.expansion.s", "s"), ("ramanujan.expansion.calls", "count"),
       ("ramanujan.expansion.cold_s", "s"), ("ramanujan.expansion.R_total", "count"),
       ("ramanujan.expansion.peak_mb", "MB"),
       ("cli.startup.s", "s"), ("cli.emit.s", "s"), ("cli.emit.bytes", "bytes"),
       ("cli.glue.s", "s"),
       ("trace.overhead_frac", "ratio")]
)


def _convolution_attrs(a: dict, result) -> dict:
    f, g, spec = a["f"], a["g"], a["spec"]
    summands = max(spec.last_index, 0)
    # bytes the kernel reads, computed from the table dtypes, not measured
    return {"summands": summands,
            "bytes": summands * (f.values.itemsize + g.values.itemsize)}


# span name -> attributes taken from the call's bound arguments and result
_ATTRS = {
    "arith.tabulate": lambda a, r: {"kind": a["kind"]},
    "convolution.additive": _convolution_attrs,
    "ramanujan.expansion": lambda a, r: {"R": r.R},
}


class _RssSampler:
    """Peak resident set size, sampled about every millisecond while started.

    tracemalloc would give exact allocation peaks, but it taxes every
    Python allocation: the mobius table's per-prime loop runs about four
    times slower under it, which would swamp the very times the trace
    exists to report.  Sampling RSS costs a pread per millisecond.
    """

    def __init__(self) -> None:
        self.peak = 0
        self._fd: Optional[int] = None
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._active = threading.Event()

    def read(self) -> int:
        if self._fd is None:
            self._fd = os.open("/proc/self/statm", os.O_RDONLY)
            threading.Thread(target=self._loop, daemon=True).start()
        return int(os.pread(self._fd, 64, 0).split()[1]) * self._page

    def _loop(self) -> None:
        while True:
            self._active.wait()
            rss = self.read()
            if rss > self.peak:
                self.peak = rss
            time.sleep(0.001)

    def start(self) -> None:
        self._active.set()

    def stop(self) -> None:
        self._active.clear()


class Tracer:
    """In-memory span recorder shared by all wrapped functions of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._mem: List[list] = []  # [RSS at entry, peak seen by nested spans]
        self._rss = _RssSampler()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span measured elsewhere (cli.startup)."""
        self.spans.append([next(self._ids), name, start, end, None, self.op,
                           threading.get_ident(), None])

    def _mem_enter(self) -> list:
        rss = self._rss.read()
        if self._mem:
            outer = self._mem[-1]
            outer[1] = max(outer[1], self._rss.peak)
        else:
            self._rss.start()
        self._rss.peak = rss
        frame = [rss, 0]
        self._mem.append(frame)
        return frame

    def _mem_exit(self, frame: list) -> float:
        self._mem.pop()
        peak = max(self._rss.read(), self._rss.peak, frame[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            self._rss.stop()
        return (peak - frame[0]) / _MB

    def wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)
        signature = inspect.signature(fn)
        memory = name in _MEMORY_SPANS
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            rec = [sid, name, perf(), None, stack[-1] if stack else None, self.op,
                   threading.get_ident(), None]
            self.spans.append(rec)
            stack.append(sid)
            frame = self._mem_enter() if memory else None
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf()
                stack.pop()
                if frame is not None:
                    peak_mb = self._mem_exit(frame)
            attrs = {}
            if attrs_of is not None:
                try:
                    attrs = attrs_of(signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError) as exc:
                    # a changed signature must not break the traced program
                    attrs = {"attrs_error": repr(exc)}
            if frame is not None:
                attrs["peak_mb"] = peak_mb
            rec[7] = attrs or None
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def install() -> Tracer:
    """Wrap the convlab layers in place and return the recording tracer."""
    import convlab
    import convlab.cli  # noqa: F401  (the cli module is not imported by the package)

    tracer = Tracer()
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "convlab" or n.startswith("convlab."))]
    for span, (modname, funcs) in WRAPPED.items():
        home = sys.modules[f"convlab.{modname}"]
        for fname in funcs:
            orig = getattr(home, fname)
            wrapper = tracer.wrap(span, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
    return tracer


def load_spans(path: str) -> List[list]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            out[s[4]] -= s[3] - s[2]
    return out


def layer_metrics(span_files: List[List[list]]) -> Dict[str, float]:
    """Per-layer metrics summed over the spans of one pass.

    span_files holds one span list per program process.  cli.emit.bytes
    and trace.overhead_frac are measured by the caller and left at zero.
    """
    m: Dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    for spans in span_files:
        selfs = self_times(spans)
        by_id = {s[0]: s for s in spans}

        def in_expansion(s) -> bool:
            p = s[4]
            while p is not None:
                if by_id[p][1] == "ramanujan.expansion":
                    return True
                p = by_id[p][4]
            return False

        first_expansion = True
        for s in spans:
            sid, name, start, end, _, _, _, attrs = s
            attrs = attrs or {}
            self_s = selfs[sid]
            if name == "arith.tabulate":
                kind_key = f"arith.tabulate.{attrs.get('kind')}.s"
                if kind_key in m:
                    m[kind_key] += self_s
                m["arith.tabulate.peak_mb"] = max(m["arith.tabulate.peak_mb"],
                                                  attrs.get("peak_mb", 0.0))
            elif name == "convolution.additive":
                m["convolution.summands"] += attrs.get("summands", 0)
                m["convolution.bytes_computed"] += attrs.get("bytes", 0)
            elif name == "asymptotics.sweep":
                threads = {t[6] for t in spans if start < t[2] < end}
                m["asymptotics.sweep.workers"] = max(m["asymptotics.sweep.workers"],
                                                     len(threads) or 1)
            elif name == "ramanujan.expansion":
                m["ramanujan.expansion.peak_mb"] = max(m["ramanujan.expansion.peak_mb"],
                                                       attrs.get("peak_mb", 0.0))
                if in_expansion(s):
                    m["ramanujan.expansion.s"] += self_s
                    continue
                if first_expansion:
                    m["ramanujan.expansion.cold_s"] += end - start
                    first_expansion = False
                m["ramanujan.expansion.R_total"] += attrs.get("R", 0)
            key = "cli.glue" if name == "cli.main" else name
            m[f"{key}.s"] += self_s
            if f"{key}.calls" in m:
                m[f"{key}.calls"] += 1
    summands = m["convolution.summands"]
    m["convolution.ns_per_summand"] = (
        m["convolution.additive.s"] * 1e9 / summands if summands else 0.0)
    return m


def _main(argv: List[str]) -> int:
    spawn = float(os.environ["BENCH_SPAWN_T"])
    import convlab.cli

    ready = time.perf_counter()
    spans_path, op = argv[0], argv[1]
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    tracer = install()
    tracer.op = op
    tracer.record("cli.startup", spawn, ready)
    try:
        return convlab.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
