"""The paper's bound formulas in `kinlab.bounds`, against high-precision
evaluations of the same expressions."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinlab.bounds import (
    SCHEDULE_A,
    SCHEDULE_B,
    BoundParams,
    HypothesisViolated,
    RemainderBoundParams,
    amplitude_bound,
    amplitude_bound_basic,
    remainder_bound,
    schedule_parameters,
    variance_bound,
)


# ---------------------------------------------------------------------------
# remainder bound formula
# ---------------------------------------------------------------------------


def _mpmath_remainder_bound(N, kap, eps, lam, C=1.0, phin=1.0):
    mp.mp.dps = 60
    Nf, kf, ef, lf, Cf = (mp.mpf(x) for x in (N, kap, eps, lam, C))
    ale = abs(mp.log(ef))
    b1 = Cf * lf**2 / ef
    b2 = b1 * ale
    f4N = mp.factorial(4 * N)
    p4N = (4 * Nf) ** (20 * N)
    t1 = Nf**2 * kf**2 * b1 ** (4 * N) / mp.sqrt(mp.factorial(N))
    t2 = Nf**2 * kf**2 * b2 ** (4 * N) * ale**3 * (ef ** mp.mpf("0.2") * f4N + ef**2 * p4N)
    t3 = ef**-2 * b2 ** (4 * N) * ale**3 * (
        kf**-N * f4N
        + kf ** (-N + 5) * ef * f4N * (4 * Nf) ** 4
        + kf ** (-N + 9) * ef**2 * f4N * (4 * Nf) ** 8
        + ef**3 * p4N
    )
    return float(mp.mpf(phin) ** 2 * (t1 + t2 + t3))


def test_remainder_bound_regression_fixture():
    got = remainder_bound(RemainderBoundParams(N=1, kappa=1, eps=0.1, lam=0.1, t=10.0))
    want = _mpmath_remainder_bound(1, 1, 0.1, 0.1)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("N,kap,eps,lam,t", [(2, 3, 0.05, 0.2, 20.0), (3, 7, 0.01, 0.3, 100.0)])
def test_remainder_bound_matches_high_precision(N, kap, eps, lam, t):
    got = remainder_bound(RemainderBoundParams(N=N, kappa=kap, eps=eps, lam=lam, t=t))
    want = _mpmath_remainder_bound(N, kap, eps, lam)
    assert got == pytest.approx(want, rel=1e-10)


def test_remainder_bound_monotone_in_lambda():
    a = remainder_bound(RemainderBoundParams(N=2, kappa=2, eps=0.05, lam=0.1, t=10.0))
    b = remainder_bound(RemainderBoundParams(N=2, kappa=2, eps=0.05, lam=0.2, t=10.0))
    assert b > a


def test_remainder_bound_diverges_as_eps_vanishes():
    vals = [
        remainder_bound(RemainderBoundParams(N=1, kappa=1, eps=e, lam=0.1, t=10.0))
        for e in (0.1, 0.01, 0.001)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_remainder_bound_hypothesis_guard():
    with pytest.raises(HypothesisViolated):
        remainder_bound(RemainderBoundParams(N=1, kappa=1, eps=0.2, lam=0.1, t=10.0))
    with pytest.raises(ValueError):
        RemainderBoundParams(N=0, kappa=1, eps=0.05, lam=0.1, t=10.0)


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def test_amplitude_improved_over_basic_ratio():
    p = BoundParams(lam=0.2, eps=0.05, t=3.0, nbar=3)
    ratio = amplitude_bound(p) / amplitude_bound_basic(p)
    assert ratio == pytest.approx(0.05**0.2 * abs(math.log(0.05)), rel=1e-12)


def test_amplitude_monotone_in_time():
    a = amplitude_bound(BoundParams(lam=0.2, eps=0.05, t=1.0, nbar=2))
    b = amplitude_bound(BoundParams(lam=0.2, eps=0.05, t=5.0, nbar=2))
    assert b > a


def test_amplitude_fixture_high_precision():
    mp.mp.dps = 40
    e, lam, t, nbar = mp.mpf("0.1"), mp.mpf("0.1"), mp.mpf(9), 2
    want = float(
        mp.e ** (4 * e * t) * lam ** (2 * nbar) * e ** (mp.mpf(1) / 5 - nbar)
        * abs(mp.log(e)) ** (nbar + 5)
    )
    got = amplitude_bound(BoundParams(lam=0.1, eps=0.1, t=9.0, nbar=2))
    assert got == pytest.approx(want, rel=1e-12)


def test_bound_params_eps_guard():
    with pytest.raises(ValueError):
        BoundParams(lam=0.1, eps=0.4, t=1.0, nbar=1)


@given(st.floats(0.01, 0.5), st.floats(0.05, 5.0))
@settings(max_examples=50, deadline=None)
def test_schedule_formulas(lam, T):
    s = schedule_parameters(T, lam)
    t = T / lam**2
    assert s.eps == pytest.approx(1.0 / (3.0 + t), rel=1e-14)
    abs_log = abs(math.log(s.eps))
    assert s.N == math.floor((2.0 / 85.0) * abs_log / abs(math.log(abs_log)))
    assert s.kappa == math.ceil(abs_log**100)


def test_schedule_defaults_and_envelope():
    vb = variance_bound(0.5, 0.3)
    t = 0.5 / 0.09
    assert vb.schedule.eps == pytest.approx(1.0 / (3.0 + t), rel=1e-14)
    assert vb.envelope == pytest.approx(0.3 ** (1.0 / 90.0), rel=1e-12)
    assert vb.total >= math.sqrt(vb.variance_part)
    assert SCHEDULE_A == 2.0 / 85.0
    assert SCHEDULE_B == 100.0


def test_variance_bound_lambda_guard():
    with pytest.raises(HypothesisViolated):
        variance_bound(0.5, 0.6)


def _mpmath_variance_part(N, eps, lam, t):
    """(N+1)^2 sum_{n1,n2<=N} 2^nbar nbar! eps^(1/5) |log eps| * basic amplitude bound."""
    mp.mp.dps = 60
    e, l, tt = mp.mpf(eps), mp.mpf(lam), mp.mpf(t)
    ale = abs(mp.log(e))
    total = mp.mpf(0)
    for m1 in range(N + 1):
        for m2 in range(N + 1):
            nbar = m1 + m2
            amp = mp.e ** (4 * e * tt) * l ** (2 * nbar) * e ** (mp.mpf(1) / 5 - nbar) * ale ** (nbar + 5)
            total += 2**nbar * mp.factorial(nbar) * amp
    return float((N + 1) ** 2 * total)


def test_variance_bound_matches_high_precision():
    # N = 0: every part is finite; the remainder is evaluated at N = 1
    T, lam = 0.5, 0.3
    vb = variance_bound(T, lam)
    s, t = vb.schedule, T / lam**2
    assert s.N == 0
    var = _mpmath_variance_part(0, s.eps, lam, t)
    rem = _mpmath_remainder_bound(1, s.kappa, s.eps, lam)
    total = 2 * rem + 4 * (math.sqrt(rem) + rem) + math.sqrt(var)
    assert vb.variance_part == pytest.approx(var, rel=1e-10)
    assert vb.remainder_part == pytest.approx(rem, rel=1e-10)
    assert vb.total == pytest.approx(total, rel=1e-10)

    # N = 1: the remainder overflows to inf, the variance part stays finite
    T, lam = 2.0, 1e-60
    vb = variance_bound(T, lam)
    s = vb.schedule
    assert s.N == 1
    assert vb.variance_part == pytest.approx(_mpmath_variance_part(1, s.eps, lam, T / lam**2), rel=1e-10)
