import sys

import pytest

import golden


@pytest.mark.parametrize("entry", golden.ENTRIES,
                         ids=[f"{i:02d}-{e['argv'][0] if 'argv' in e else 'python'}"
                              for i, e in enumerate(golden.ENTRIES)])
def test_pinned_value_holds(entry):
    # the checkout's own src/ is on PYTHONPATH (conftest), so `python -m
    # convlab` and the python entries run this code, each in a fresh process
    failure = golden.check(entry, [sys.executable, "-m", "convlab"])
    assert failure is None, failure
