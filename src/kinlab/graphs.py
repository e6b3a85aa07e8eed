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

Every connected class carries the same improved amplitude bound, an
eps^(1/5) |c log eps| refinement of the basic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from kinlab.dynamics import HypothesisViolated, RemainderBoundParams, remainder_bound


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

    def swap_lines(self) -> "Pairing":
        swapped = [((3 - la, ia), (3 - lb, ib)) for (la, ia), (lb, ib) in self.pairs]
        return Pairing.make(self.n1, self.n2, swapped)


def _matchings(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        head = (first, other)
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield (head,) + tail


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
    transfer_count: int = 0

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
        return PairingClass(PairKind.GENERALIZED_CROSSING, line=crossing_lines[0], transfer_count=m)
    seconds = [two for _, two in transfers]  # transfers already sorted by line-1 index
    increasing = all(a < b for a, b in zip(seconds, seconds[1:]))
    decreasing = all(a > b for a, b in zip(seconds, seconds[1:]))
    if m == 1:
        return PairingClass(PairKind.TRANSFER, parallel=True, antiparallel=True, transfer_count=1)
    if increasing:
        return PairingClass(PairKind.TRANSFER, parallel=True, transfer_count=m)
    if decreasing:
        return PairingClass(PairKind.TRANSFER, antiparallel=True, transfer_count=m)
    return PairingClass(PairKind.CROSSING_TRANSFER, transfer_count=m)


# ---------------------------------------------------------------------------
# Amplitude and variance bound formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundParams:
    lam: float
    eps: float
    t: float
    nbar: int
    m: int = 1
    a: float = 2.0 / 85.0
    b: float = 100.0
    delta: float = 1e-3
    c_J: float = 1.0
    phi_norm: float = 1.0

    def __post_init__(self):
        if self.eps <= 0 or self.eps > 1.0 / 3.0:
            raise ValueError("bounds are stated for 0 < eps <= 1/3")
        if self.lam <= 0 or self.t <= 0:
            raise ValueError("lam and t must be positive")
        if self.nbar < 0 or self.m < 0:
            raise ValueError("counts must be nonnegative")


def amplitude_bound_basic(params: BoundParams) -> float:
    """exp(4 eps t) lam^(2 nbar) eps^(-nbar) |c log eps|^(nbar+4) ||phi||^4."""
    aloge = abs(params.c_J * math.log(params.eps))
    return (
        math.exp(4.0 * params.eps * params.t)
        * params.lam ** (2 * params.nbar)
        * params.eps ** (-params.nbar)
        * aloge ** (params.nbar + 4)
        * params.phi_norm**4
    )


def amplitude_bound(cls: PairingClass, params: BoundParams) -> float:
    """Improved bound for a connected pairing: extra eps^(1/5) |c log eps|.

    All three classes of the trichotomy carry the improvement, so the class
    argument only asserts connectedness.
    """
    if cls is not None and not isinstance(cls, PairingClass):
        raise TypeError("expected a PairingClass")
    aloge = abs(params.c_J * math.log(params.eps))
    return amplitude_bound_basic(params) * params.eps ** 0.2 * aloge


@dataclass(frozen=True)
class Schedule:
    eps: float
    N: int
    kappa: int


def schedule_parameters(T: float, lam: float, a: float = 2.0 / 85.0, b: float = 100.0) -> Schedule:
    """eps = 1/(3+t), N = floor(a |log eps| / |log |log eps||), kappa = ceil(|log eps|^b)."""
    t = T / lam**2
    eps = 1.0 / (3.0 + t)
    abs_log = abs(math.log(eps))
    abs_log_log = abs(math.log(abs_log))
    N = int(math.floor(a * abs_log / abs_log_log)) if abs_log_log > 0 else 0
    kappa = int(math.ceil(abs_log**b))
    return Schedule(eps, N, kappa)


@dataclass
class VarianceBound:
    schedule: Schedule
    variance_part: float
    remainder_part: float
    total: float
    envelope: float  # C * lam^(1/90)


def variance_bound(
    T: float,
    lam: float,
    a: float = 2.0 / 85.0,
    b: float = 100.0,
    delta: float = 1e-3,
    c_J: float = 1.0,
    phi_norm: float = 1.0,
    envelope_C: float = 1.0,
) -> VarianceBound:
    """Assembled fluctuation bound at macroscopic time T and coupling lam <= 1/2.

    variance part: (N+1)^2 sum_{n1,n2<=N} 2^nbar nbar! * improved amplitude
    bound; remainder part: the partial-time-integration bound at the
    schedule's (N, kappa), entering through the first-moment chain
    c_J (2 R + 4 sqrt((1+sqrt(R))^2 R)) + sqrt(variance part).  The headline
    envelope envelope_C * lam^(1/90) is reported alongside; the schedule's
    N is clamped to >= 1 inside the remainder formula (it requires N >= 1).
    """
    if lam > 0.5:
        raise HypothesisViolated("the bound assumes lam <= 1/2")
    sched = schedule_parameters(T, lam, a, b)
    t = T / lam**2

    var_part = 0.0
    for m1 in range(sched.N + 1):
        for m2 in range(sched.N + 1):
            nbar = m1 + m2
            params = BoundParams(
                lam=lam, eps=sched.eps, t=t, nbar=nbar, a=a, b=b, delta=delta,
                c_J=c_J, phi_norm=phi_norm,
            )
            count = 2**nbar * math.factorial(nbar)
            var_part += count * amplitude_bound(None, params)
    var_part *= (sched.N + 1) ** 2

    rem = remainder_bound(
        RemainderBoundParams(
            N=max(sched.N, 1), kappa=sched.kappa, eps=sched.eps, lam=lam, t=t, phi_norm=phi_norm
        )
    )
    # 4 sqrt((1+sqrt(R))^2 R) = 4 (sqrt(R) + R), written overflow-safe
    sqrt_rem = math.sqrt(rem) if math.isfinite(rem) else rem
    total = c_J * (2.0 * rem + 4.0 * (sqrt_rem + rem)) + math.sqrt(var_part)
    envelope = envelope_C * lam ** (1.0 / 90.0)
    return VarianceBound(sched, var_part, rem, total, envelope)
