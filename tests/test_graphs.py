import math

import pytest

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
    assert len(single.transfer_pairs()) == 1


def test_exhaustive_trichotomy_nbar_le_5():
    for nbar in range(1, 6):
        for n1 in range(nbar + 1):
            for p in enumerate_connected(n1, nbar - n1):
                c = classify(p)  # exactly one class by construction; must not raise
                if c.kind is PairKind.TRANSFER:
                    assert c.parallel or c.antiparallel
                    assert not generalized_crossing_lines(p)
                elif c.kind is PairKind.CROSSING_TRANSFER:
                    assert len(p.transfer_pairs()) >= 3
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
