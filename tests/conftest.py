import os
from pathlib import Path

import pytest

from convlab import build_sieve, tabulate

# `python -m convlab.cli` subprocesses run this checkout's code too, also
# under a plain `pytest` with no install
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def sieve_small():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def sieve_1m():
    return build_sieve(1_000_000)


@pytest.fixture(scope="session")
def sieve_10m():
    return build_sieve(10_000_000)


@pytest.fixture(scope="session")
def dtable_10m(sieve_10m):
    # shared by the convergence sweep tests; ~40 MB, built once
    return tabulate(sieve_10m, "divisor", 10_000_000)


@pytest.fixture(scope="session")
def dtable_small(sieve_small):
    return tabulate(sieve_small, "divisor", 10_000)
