"""Seeded workload generators for the convlab benchmark.

Each generator turns (seed, scale) into the concrete operations of one
workload.  The program under test only ever sees the generated N, M, y, n,
r and s values.  Costs are kept nearly independent of the seed by drawing
grid points one per stratum and by jittering sizes only slightly around
their nominal value, so that run-to-run spread reflects the machine and
the code rather than the draw.

Why these workloads:

* cli-tables -- fresh CLI processes at N ~ 1e7 whose cost is building the
  big arithmetic tables once and reading them once (tabulate-bound, and
  where the phi / sigma_norm peak RSS shows).
* cli-sweeps -- fresh CLI processes whose cost is many exact sums and
  per-row work over cheap tables (convolution- and tau-bound).
* session -- one long-lived library process, as a notebook user runs it:
  one sieve, then a query stream over the Ramanujan machinery, which no
  CLI command exposes, with the module-level caches left warm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

WORKLOADS = ("cli-tables", "cli-sweeps", "session")
SCALES = ("full", "smoke")

# Workload sizes.  "smoke" is the seconds-long self-test size.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "cli-tables": {
        "full": {"N": 10**7, "jitter": 10**4, "R": 10**5, "grid": 5},
        "smoke": {"N": 10**5, "jitter": 10**2, "R": 10**3, "grid": 5},
    },
    "cli-sweeps": {
        "full": {"lo": 10**6, "hi": 10**7, "points": 200, "gN": 10**6,
                 "gpoints": 100, "oN": 10**6, "rs": 30, "y": 2 * 10**6},
        "smoke": {"lo": 10**4, "hi": 10**5, "points": 20, "gN": 10**4,
                  "gpoints": 10, "oN": 10**4, "rs": 6, "y": 2 * 10**4},
    },
    "session": {
        # anchor: the highly composite n whose first sigma_1 expansion
        # fills the Ramanujan caches; nmax bounds the other expansion n.
        # The query counts give each of the six query types about a sixth
        # of a warm pass, from warm per-query costs measured on the seed
        # code (2-vCPU host): expansion 0.23-0.33 ms, hardy 0.9-1.4 ms,
        # singular 1.0-1.4 ms, ortho 0.3-0.37 ms, main_term 1.2-2.1 ms,
        # table 17 ms.  "exp" is per sigma_s, so 2 * exp expansions.
        # run.py reports the measured share of each type in every run.
        "full": {"limit": 10**7, "nmax": 10**6, "anchor": 720720, "R": 10**5,
                 "Rtable": 10**6, "rs": 60, "exp": 250, "hardy": 120,
                 "singular": 120, "ortho": 450, "mtg": 80, "table": 10},
        "smoke": {"limit": 10**6, "nmax": 10**3, "anchor": 720, "R": 10**3,
                  "Rtable": 10**4, "rs": 12, "exp": 3, "hardy": 3,
                  "singular": 4, "ortho": 6, "mtg": 3, "table": 3},
    },
}


@dataclass
class Workload:
    """The generated operations of one workload for one seed.

    ops holds CLI argument vectors (cli-* workloads) or library queries
    (session); limit is the largest sieve any op needs, which is what the
    set-up probe builds.
    """

    name: str
    seed: int
    scale: str
    limit: int
    ops: List[dict] = field(default_factory=list)
    sizes: Dict[str, int] = field(default_factory=dict)


def _rng(name: str, seed: int, scale: str) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"convlab-bench:{name}:{scale}:{seed}")


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """One integer drawn uniformly from each of count equal strata of [lo, hi]."""
    width = (hi - lo) / count
    out = [lo + int(width * (i + rng.random())) for i in range(count)]
    return [min(max(v, lo), hi) for v in out]


def _grid(values) -> str:
    return ",".join(str(v) for v in values)


def _cli(name: str, *argv) -> dict:
    return {"name": name, "argv": [str(a) for a in argv]}


def cli_tables(seed: int, scale: str = "full") -> Workload:
    z = SIZES["cli-tables"][scale]
    rng = _rng("cli-tables", seed, scale)
    N = z["N"] - 2 * rng.randrange(z["jitter"] // 2)  # even, for goldbach
    m_closed = rng.randrange(N // 4, N // 2)
    m_half = rng.randrange(N // 2, N)
    m_grid = _stratified(rng, 2, N - 1, z["grid"])
    ops = [
        _cli("convolve-phi-mu", "convolve", "--f", "phi", "--g", "mu",
             "--N", N, "--M", m_closed, "--boundary", "closed"),
        _cli("convolve-sigma1-d", "convolve", "--f", "sigma:1", "--g", "d",
             "--N", N, "--M", m_half, "--boundary", "half_open"),
        _cli("verify-general-0.5", "verify-general", "--alpha", "0.5", "--beta", "0.5",
             "--N", N, "--M-grid", _grid(m_grid)),
        _cli("goldbach", "goldbach", "--N", N, "--R", z["R"]),
    ]
    return Workload("cli-tables", seed, scale, N, ops, {"N": N, "R": z["R"]})


def cli_sweeps(seed: int, scale: str = "full") -> Workload:
    z = SIZES["cli-sweeps"][scale]
    rng = _rng("cli-sweeps", seed, scale)
    n_grid = _stratified(rng, z["lo"], z["hi"], z["points"])
    m_grid = _stratified(rng, 2, z["gN"] - 1, z["gpoints"])
    oN = z["oN"] - rng.randrange(z["oN"] // 1000)
    y = z["y"] - rng.randrange(z["y"] // 2000)
    ops = [
        _cli("verify-ingham-half", "verify-ingham", "--N-grid", _grid(n_grid),
             "--M-rule", "half"),
        _cli("verify-general-2", "verify-general", "--alpha", "2", "--beta", "2",
             "--N", z["gN"], "--M-grid", _grid(m_grid)),
        _cli("orthogonality", "orthogonality", "--N", oN, "--M", oN,
             "--r-max", z["rs"], "--s-max", z["rs"]),
        _cli("tau", "tau", "--y", y),
    ]
    limit = max(max(n_grid), z["gN"], oN)
    sizes = {"grid_points": z["points"], "grid_max": max(n_grid), "general_N": z["gN"],
             "general_points": z["gpoints"], "ortho_N": oN, "rs_max": z["rs"], "y": y}
    return Workload("cli-sweeps", seed, scale, limit, ops, sizes)


# (alpha, beta) pairs for main_term_general; the benchmark's oracle knows
# zeta at every integer 2..6 these produce.
_MTG_EXPONENTS = ((1, 1), (1, 2), (2, 2))


def session(seed: int, scale: str = "full") -> Workload:
    z = SIZES["session"][scale]
    rng = _rng("session", seed, scale)
    lim = z["limit"]
    q: List[dict] = []
    for _ in range(z["exp"]):
        q.append({"op": "expansion", "s": 1.0, "n": rng.randrange(2, z["nmax"] + 1)})
        q.append({"op": "expansion", "s": 2.0, "n": rng.randrange(2, z["nmax"] + 1)})
    for _ in range(z["hardy"]):
        q.append({"op": "hardy", "n": rng.randrange(2, z["nmax"] + 1), "R": z["R"]})
    for _ in range(z["singular"]):
        q.append({"op": "singular", "N": 2 * rng.randrange(2, lim // 2 + 1), "R": z["R"]})
    for _ in range(z["ortho"]):
        N = rng.randrange(lim // 100, lim + 1)
        q.append({"op": "ortho", "r": rng.randrange(1, z["rs"] + 1),
                  "s": rng.randrange(1, z["rs"] + 1), "N": N, "M": rng.randrange(1, N + 1)})
    for _ in range(z["mtg"]):
        a, b = rng.choice(_MTG_EXPONENTS)
        N = rng.randrange(2, lim + 1)
        q.append({"op": "main_term", "a": float(a), "b": float(b), "N": N,
                  "M": float(rng.randrange(1, N + 1))})
    for _ in range(z["table"]):
        q.append({"op": "table", "n": rng.randrange(1, lim + 1), "R": z["Rtable"],
                  "probe": sorted(rng.sample(range(1, z["Rtable"] + 1), 8))})
    rng.shuffle(q)
    # the anchor expansion always comes first, so the cold cache fill is
    # paid by the same query on every seed
    q.insert(0, {"op": "expansion", "s": 1.0, "n": z["anchor"]})
    for i, query in enumerate(q):
        query["name"] = f"{i:03d}-{query['op']}"
    return Workload("session", seed, scale, lim, q, dict(z))


GENERATORS = {"cli-tables": cli_tables, "cli-sweeps": cli_sweeps, "session": session}


def generate(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return GENERATORS[name](seed, scale)
