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
    amplitude_bound,
    amplitude_bound_basic,
    schedule_parameters,
    variance_bound,
)
from kinlab.graphs import (
    NotConnected,
    Pairing,
    PairKind,
    TooLarge,
    classify,
    crossings_on_line,
    enumerate_connected,
    generalized_crossing_lines,
)

from test_dynamics import _mpmath_remainder_bound

# caption-anchored example pairings (nbar = 5 with split 3+2, nbar = 3 all-transfer)
FIG_CROSSING_FIRST_LINE = Pairing.make(
    3, 2, [((1, 1), (1, 3)), ((1, 2), (1, 4)), ((1, 5), (2, 5)), ((2, 1), (2, 2)), ((2, 3), (2, 4))]
)
FIG_TRANSFER_INTO_INTERNAL = Pairing.make(
    3, 2, [((1, 1), (1, 2)), ((1, 4), (1, 5)), ((1, 3), (2, 2)), ((2, 1), (2, 3)), ((2, 4), (2, 5))]
)
FIG_TRANSFER_INTO_LATE_INTERNAL = Pairing.make(
    3, 2, [((1, 1), (1, 2)), ((1, 4), (1, 5)), ((1, 3), (2, 4)), ((2, 1), (2, 5)), ((2, 2), (2, 3))]
)
FIG_CROSSING_TRANSFERS = Pairing.make(2, 1, [((1, 1), (2, 1)), ((1, 2), (2, 3)), ((1, 3), (2, 2))])
FIG_PARALLEL = Pairing.make(2, 1, [((1, 1), (2, 1)), ((1, 2), (2, 2)), ((1, 3), (2, 3))])
FIG_ANTIPARALLEL = Pairing.make(2, 1, [((1, 1), (2, 3)), ((1, 2), (2, 2)), ((1, 3), (2, 1))])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def matching_count(m: int) -> int:
    """(m-1)!! perfect matchings of m labeled points (0 for odd m)."""
    if m % 2:
        return 0
    out = 1
    for k in range(m - 1, 0, -2):
        out *= k
    return out


def connected_count(nbar: int) -> int:
    """(2 nbar - 1)!! minus the internally matched product p(nbar)^2."""
    return matching_count(2 * nbar) - matching_count(nbar) ** 2


def test_minimal_connected_pairings():
    assert len(enumerate_connected(1, 0)) == 1
    assert len(enumerate_connected(1, 1)) == 2


@pytest.mark.parametrize("nbar", range(1, 7))
def test_counts_match_formula_and_paper_bound(nbar):
    got = len(enumerate_connected(nbar, 0))
    assert got == connected_count(nbar)
    assert got == matching_count(2 * nbar) - matching_count(nbar) ** 2
    assert got <= 2**nbar * math.factorial(nbar)


def test_count_independent_of_split():
    for n1 in range(5):
        assert len(enumerate_connected(n1, 4 - n1)) == connected_count(4)


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        enumerate_connected(4, 3)


def test_pairing_validation():
    with pytest.raises(ValueError):
        Pairing.make(1, 0, [((1, 1), (1, 1))])  # vertex matched twice
    with pytest.raises(ValueError):
        Pairing.make(2, 0, [((1, 1), (2, 1))])  # not perfect
    with pytest.raises(ValueError):
        Pairing.make(1, 0, [((3, 1), (2, 1))])  # no such line


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_requires_connected():
    internal_only = Pairing.make(1, 1, [((1, 1), (1, 2)), ((2, 1), (2, 2))])
    assert not internal_only.is_connected()
    with pytest.raises(NotConnected):
        classify(internal_only)


def test_caption_examples():
    assert classify(FIG_CROSSING_FIRST_LINE).kind is PairKind.GENERALIZED_CROSSING
    assert classify(FIG_CROSSING_FIRST_LINE).line == 1

    c = classify(FIG_TRANSFER_INTO_INTERNAL)
    assert c.kind is PairKind.GENERALIZED_CROSSING and c.line == 2

    c = classify(FIG_TRANSFER_INTO_LATE_INTERNAL)
    assert c.kind is PairKind.GENERALIZED_CROSSING and c.line == 2

    assert classify(FIG_CROSSING_TRANSFERS).kind is PairKind.CROSSING_TRANSFER

    c = classify(FIG_PARALLEL)
    assert c.kind is PairKind.TRANSFER and c.parallel and not c.antiparallel

    c = classify(FIG_ANTIPARALLEL)
    assert c.kind is PairKind.TRANSFER and c.antiparallel and not c.parallel


def test_single_transfer_is_both_parallel_and_antiparallel():
    single = Pairing.make(1, 0, [((1, 1), (2, 1))])
    c = classify(single)
    assert c.kind is PairKind.TRANSFER and c.parallel and c.antiparallel
    assert c.transfer_count == 1


def test_exhaustive_trichotomy_nbar_le_5():
    for nbar in range(1, 6):
        for n1 in range(nbar + 1):
            for p in enumerate_connected(n1, nbar - n1):
                c = classify(p)  # exactly one class by construction; must not raise
                if c.kind is PairKind.TRANSFER:
                    assert c.parallel or c.antiparallel
                    assert not generalized_crossing_lines(p)
                elif c.kind is PairKind.CROSSING_TRANSFER:
                    assert c.transfer_count >= 3
                    assert not generalized_crossing_lines(p)
                else:
                    assert c.line in (1, 2)


def swap_lines(p: Pairing) -> Pairing:
    swapped = [((3 - la, ia), (3 - lb, ib)) for (la, ia), (lb, ib) in p.pairs]
    return Pairing.make(p.n1, p.n2, swapped)


def test_swap_lines_symmetry():
    for p in enumerate_connected(2, 2):
        q = swap_lines(p)
        lines_p = set(generalized_crossing_lines(p))
        lines_q = set(generalized_crossing_lines(q))
        assert lines_q == {3 - l for l in lines_p}
        cp, cq = classify(p), classify(q)
        assert cp.kind == cq.kind
        if cp.kind is PairKind.TRANSFER:
            assert (cp.parallel, cp.antiparallel) == (cq.parallel, cq.antiparallel)


class NoCrossing(ValueError):
    """No generalized crossing on the requested line."""


def minimal_generalized_crossing(p: Pairing, line: int):
    """A crossing whose interval {i1..l2} contains no other crossing interval properly."""
    found = crossings_on_line(p, line)
    if not found:
        raise NoCrossing(f"no generalized crossing on line {line}")
    intervals = [(i1, l2) for _, i1, l2 in found]

    def is_minimal(iv):
        a, b = iv
        return not any(a <= c and d <= b and (c, d) != (a, b) for c, d in intervals)

    minimal = [cr for cr, iv in zip(found, intervals) if is_minimal(iv)]
    minimal.sort(key=lambda cr: (cr[2] - cr[1], cr[1], cr[0]))
    return minimal[0]


def test_minimal_crossing_single():
    cross = crossings_on_line(FIG_TRANSFER_INTO_INTERNAL, 2)
    assert cross == [(1, 2, 3)]
    assert minimal_generalized_crossing(FIG_TRANSFER_INTO_INTERNAL, 2) == (1, 2, 3)


def test_minimal_crossing_nested_intervals():
    nested = Pairing.make(
        6,
        0,
        [
            ((1, 1), (1, 6)),
            ((1, 2), (1, 5)),
            ((1, 3), (2, 1)),
            ((1, 4), (2, 2)),
            ((2, 3), (2, 4)),
            ((2, 5), (2, 6)),
        ],
    )
    all_crossings = crossings_on_line(nested, 1)
    got = minimal_generalized_crossing(nested, 1)
    lo, hi = got[1], got[2]
    for _, i1, l2 in all_crossings:
        assert not (lo <= i1 and l2 <= hi and (i1, l2) != (lo, hi))
    assert got == (2, 4, 5)


def test_minimal_crossing_postcondition_replay():
    for p in enumerate_connected(3, 2):
        for line in generalized_crossing_lines(p):
            got = minimal_generalized_crossing(p, line)
            lo, hi = got[1], got[2]
            for _, i1, l2 in crossings_on_line(p, line):
                assert not (lo <= i1 and l2 <= hi and (i1, l2) != (lo, hi))


def test_minimal_crossing_requires_crossing():
    with pytest.raises(NoCrossing):
        minimal_generalized_crossing(FIG_PARALLEL, 1)


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
