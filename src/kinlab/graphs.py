"""Pairings of scattering vertices in the variance expansion.

Each of the two one-particle lines carries nbar = n1 + n2 scattering
vertices, ordered along the line and split by the observable insertion
between positions n1 and n1+1.  A pairing is a perfect matching of the
2*nbar vertices; it is connected when at least one pair joins the two
lines (a transfer pair).  Connected pairings fall into exactly one of
three classes:

* generalized crossing on a line: two internal pairs interleave
  (l1 < i1 < l2 < i2), or a transfer endpoint lands strictly inside an
  internal pair (l1 < i1 < l2);
* parallel / anti-parallel transfer pairs: no generalized crossing, and
  sorting the transfer pairs by their line-1 endpoint makes the sequence of
  line-2 endpoints increasing / decreasing (a single transfer pair counts
  as both);
* crossing transfer pairs: no generalized crossing and the endpoint
  sequence is not monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class NotConnected(ValueError):
    """Operation requires a pairing with at least one transfer pair."""


class TooLarge(ValueError):
    """Exhaustive enumeration requested beyond nbar = 6."""


@dataclass(frozen=True)
class Pairing:
    """Perfect matching on the 2*nbar vertices of the two one-particle lines.

    Vertices are (line, index) with line in {1, 2} and index in 1..nbar;
    `pairs` is a tuple of index-sorted 2-tuples.
    """

    n1: int
    n2: int
    pairs: tuple

    def __post_init__(self):
        nbar = self.nbar
        seen = set()
        for pair in self.pairs:
            for v in pair:
                line, idx = v
                if line not in (1, 2) or not 1 <= idx <= nbar:
                    raise ValueError(f"vertex {v} outside the two lines of length {nbar}")
                if v in seen:
                    raise ValueError(f"vertex {v} matched twice")
                seen.add(v)
        if len(seen) != 2 * nbar:
            raise ValueError("matching is not perfect")

    @property
    def nbar(self) -> int:
        return self.n1 + self.n2

    @staticmethod
    def make(n1: int, n2: int, pairs) -> "Pairing":
        norm = tuple(sorted(tuple(sorted((tuple(a), tuple(b)))) for a, b in pairs))
        return Pairing(n1, n2, norm)

    def transfer_pairs(self):
        """Cross-line pairs as (line-1 index, line-2 index), sorted by line-1 index."""
        out = []
        for (la, ia), (lb, ib) in self.pairs:
            if la != lb:
                one, two = (ia, ib) if la == 1 else (ib, ia)
                out.append((one, two))
        return sorted(out)

    def internal_pairs(self, line: int):
        """Same-line pairs on `line` as sorted index tuples."""
        out = []
        for (la, ia), (lb, ib) in self.pairs:
            if la == lb == line:
                out.append((min(ia, ib), max(ia, ib)))
        return sorted(out)

    def is_connected(self) -> bool:
        return len(self.transfer_pairs()) > 0


def _matchings(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        head = (first, other)
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield (head,) + tail


def enumerate_connected(n1: int, n2: int):
    """All pairings of the 2*nbar vertices with at least one transfer pair."""
    nbar = n1 + n2
    if nbar > 6:
        raise TooLarge("exhaustive enumeration supported for nbar <= 6")
    vertices = tuple((line, idx) for line in (1, 2) for idx in range(1, nbar + 1))
    out = []
    for match in _matchings(vertices):
        p = Pairing.make(n1, n2, match)
        if p.is_connected():
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class PairKind(Enum):
    GENERALIZED_CROSSING = "generalized-crossing"
    TRANSFER = "transfer"
    CROSSING_TRANSFER = "crossing-transfer"


@dataclass(frozen=True)
class PairingClass:
    kind: PairKind
    line: int = 0  # crossing line for GENERALIZED_CROSSING (smallest if both)
    parallel: bool = False
    antiparallel: bool = False

    def label(self) -> str:
        if self.kind is PairKind.GENERALIZED_CROSSING:
            return f"generalized-crossing(line {self.line})"
        if self.kind is PairKind.CROSSING_TRANSFER:
            return "crossing-transfer"
        tags = [t for t, on in (("parallel", self.parallel), ("anti-parallel", self.antiparallel)) if on]
        return "+".join(tags)


def crossings_on_line(p: Pairing, line: int):
    """All generalized crossings on `line` as (l1, i1, l2) with interval {i1..l2}."""
    internals = p.internal_pairs(line)
    transfer_ends = [one if line == 1 else two for one, two in p.transfer_pairs()]
    found = []
    for l1, l2 in internals:
        for i1, i2 in internals:
            if l1 < i1 < l2 < i2:
                found.append((l1, i1, l2))
        for t in transfer_ends:
            if l1 < t < l2:
                found.append((l1, t, l2))
    return sorted(found)


def generalized_crossing_lines(p: Pairing) -> tuple:
    return tuple(line for line in (1, 2) if crossings_on_line(p, line))


def classify(p: Pairing) -> PairingClass:
    """Definition-style trichotomy; raises NotConnected without a transfer pair."""
    transfers = p.transfer_pairs()
    if not transfers:
        raise NotConnected("pairing has no transfer pair")
    m = len(transfers)
    crossing_lines = generalized_crossing_lines(p)
    if crossing_lines:
        return PairingClass(PairKind.GENERALIZED_CROSSING, line=crossing_lines[0])
    seconds = [two for _, two in transfers]  # transfers already sorted by line-1 index
    increasing = all(a < b for a, b in zip(seconds, seconds[1:]))
    decreasing = all(a > b for a, b in zip(seconds, seconds[1:]))
    if m == 1:
        return PairingClass(PairKind.TRANSFER, parallel=True, antiparallel=True)
    if increasing:
        return PairingClass(PairKind.TRANSFER, parallel=True)
    if decreasing:
        return PairingClass(PairKind.TRANSFER, antiparallel=True)
    return PairingClass(PairKind.CROSSING_TRANSFER)
