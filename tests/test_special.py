import math

import pytest

import brute
from convlab import UsageError, gamma_real, zeta_real


def test_zeta_closed_forms():
    assert abs(zeta_real(2.0) - math.pi**2 / 6) < 1e-12
    assert abs(zeta_real(4.0) - math.pi**4 / 90) < 1e-12


def test_zeta_apery():
    assert abs(zeta_real(3.0) - 1.202056903159594) < 1e-12


def test_zeta_against_tail_oracle():
    for s in (1.1, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 25.0, 50.0,
              50.5, 60.0, 100.0, 1000.0, 1e300):
        assert abs(zeta_real(s) - brute.zeta(s)) < 5e-12, s


def test_zeta_domain():
    for s in (1.0, 0.5, 0.0, -2.0, math.inf, -math.inf, math.nan):
        with pytest.raises(UsageError):
            zeta_real(s)


def test_gamma_examples():
    assert abs(gamma_real(5.0) - 24.0) / 24.0 < 1e-10
    root_pi = math.sqrt(math.pi)
    assert abs(gamma_real(0.5) - root_pi) / root_pi < 1e-10
    ref = 0.75 * root_pi
    assert abs(gamma_real(2.5) - ref) / ref < 1e-10


def test_gamma_against_stdlib():
    for x in (0.1, 0.5, 1.0, 1.3, 2.0, 2.5, 5.0, 7.7, 10.0, 23.4, 50.0):
        ref = math.gamma(x)
        assert abs(gamma_real(x) - ref) / ref < 1e-10, x


def test_gamma_functional_equation():
    for x in (0.5, 1.3, 7.7, 23.4):
        lhs = gamma_real(x + 1.0)
        rhs = x * gamma_real(x)
        assert abs(lhs - rhs) / rhs < 1e-9, x


def test_gamma_domain():
    # every x > 0 where Gamma(x) is finite in float64, with math.gamma's
    # bits; UsageError at x <= 0, NaN and where Gamma(x) overflows
    for x in (0.0, -1.0, math.nan):
        with pytest.raises(UsageError, match="x > 0"):
            gamma_real(x)
    for x in (171.7, 1e6, math.inf, 5e-324):
        with pytest.raises(UsageError, match="overflows float64"):
            gamma_real(x)
    for x in (50.0, 50.5, 52.0, 61.0, 171.6):
        assert gamma_real(x) == math.gamma(x), x
