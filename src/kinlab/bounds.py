"""The paper's explicit bounds: amplitude, remainder and assembled variance.

Every connected class of the pairing trichotomy (see `kinlab.graphs`)
carries the same improved amplitude bound, an eps^(1/5) |log eps|
refinement of the basic one.  The remainder bound estimates the expected
squared norm of the partial-time-integration remainder at the schedule's
(N, kappa).  `variance_bound` assembles both at macroscopic time T along
the schedule eps = 1/(3+t), t = T/lam^2.  The observable's constant c and
the initial state's norm are fixed at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class HypothesisViolated(ValueError):
    """A bound was evaluated outside the hypotheses it is stated under."""


# ---------------------------------------------------------------------------
# Amplitude bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundParams:
    lam: float
    eps: float
    t: float
    nbar: int

    def __post_init__(self):
        if self.eps <= 0 or self.eps > 1.0 / 3.0:
            raise ValueError("bounds are stated for 0 < eps <= 1/3")
        if self.lam <= 0 or self.t <= 0:
            raise ValueError("lam and t must be positive")
        if self.nbar < 0:
            raise ValueError("counts must be nonnegative")


def amplitude_bound_basic(params: BoundParams) -> float:
    """exp(4 eps t) lam^(2 nbar) eps^(-nbar) |log eps|^(nbar+4)."""
    aloge = abs(math.log(params.eps))
    return (
        math.exp(4.0 * params.eps * params.t)
        * params.lam ** (2 * params.nbar)
        * params.eps ** (-params.nbar)
        * aloge ** (params.nbar + 4)
    )


def amplitude_bound(params: BoundParams) -> float:
    """Improved bound for a connected pairing: extra eps^(1/5) |log eps|.

    All three classes of the trichotomy carry the improvement, so the bound
    does not depend on the class.
    """
    aloge = abs(math.log(params.eps))
    return amplitude_bound_basic(params) * params.eps ** 0.2 * aloge


# ---------------------------------------------------------------------------
# Remainder norm bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemainderBoundParams:
    N: int
    kappa: int
    eps: float
    lam: float
    t: float

    def __post_init__(self):
        if self.N < 1 or self.kappa < 1:
            raise ValueError("N and kappa must be positive integers")
        if self.eps <= 0 or self.lam <= 0 or self.t <= 0:
            raise ValueError("eps, lam, t must be positive")


def _log_abs_log(eps: float) -> float:
    a = abs(math.log(eps))
    return math.log(a) if a > 0 else float("-inf")


def _exp_or_inf(x: float) -> float:
    if x == float("-inf"):
        return 0.0
    try:
        return math.exp(x)
    except OverflowError:
        return float("inf")


def remainder_bound(params: RemainderBoundParams) -> float:
    """Evaluate the expected squared remainder-norm bound at the given parameters.

    The three bracketed lines are evaluated literally (log-domain arithmetic,
    so astronomically large values come back as inf rather than failing).
    Requires eps <= 1/t.
    """
    if params.eps > 1.0 / params.t + 1e-15:
        raise HypothesisViolated(f"eps={params.eps} exceeds 1/t={1.0 / params.t}")
    N, kap, eps, lam = params.N, params.kappa, params.eps, params.lam
    log_eps = math.log(eps)
    lal = _log_abs_log(eps)
    log_b1 = 2.0 * math.log(lam) - log_eps
    log_b2 = log_b1 + lal
    log_n = math.log(N)
    log_k = math.log(kap)
    lg4n = math.lgamma(4 * N + 1)
    log_4n = math.log(4 * N)

    t1 = 2 * log_n + 2 * log_k + 4 * N * log_b1 - 0.5 * math.lgamma(N + 1)

    inner2 = np.logaddexp(
        0.2 * log_eps + lg4n,
        2.0 * log_eps + 20 * N * log_4n,
    )
    t2 = 2 * log_n + 2 * log_k + 4 * N * log_b2 + 3 * lal + inner2

    pieces3 = [
        -N * log_k + lg4n,
        (-N + 5) * log_k + log_eps + lg4n + 4 * log_4n,
        (-N + 9) * log_k + 2 * log_eps + lg4n + 8 * log_4n,
        3 * log_eps + 20 * N * log_4n,
    ]
    inner3 = pieces3[0]
    for p in pieces3[1:]:
        inner3 = np.logaddexp(inner3, p)
    t3 = -2.0 * log_eps + 4 * N * log_b2 + 3 * lal + inner3

    return sum(_exp_or_inf(float(x)) for x in (t1, t2, t3))


# ---------------------------------------------------------------------------
# Schedule and assembled variance bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    eps: float
    N: int
    kappa: int


# The schedule's a and b.
SCHEDULE_A = 2.0 / 85.0
SCHEDULE_B = 100.0


def schedule_parameters(T: float, lam: float) -> Schedule:
    """eps = 1/(3+t), N = floor(a |log eps| / |log |log eps||), kappa = ceil(|log eps|^b)."""
    t = T / lam**2
    eps = 1.0 / (3.0 + t)
    abs_log = abs(math.log(eps))
    abs_log_log = abs(math.log(abs_log))
    N = int(math.floor(SCHEDULE_A * abs_log / abs_log_log)) if abs_log_log > 0 else 0
    kappa = int(math.ceil(abs_log**SCHEDULE_B))
    return Schedule(eps, N, kappa)


@dataclass
class VarianceBound:
    schedule: Schedule
    variance_part: float
    remainder_part: float
    total: float
    envelope: float  # lam^(1/90)


def variance_bound(T: float, lam: float) -> VarianceBound:
    """Assembled fluctuation bound at macroscopic time T and coupling lam <= 1/2.

    variance part: (N+1)^2 sum_{n1,n2<=N} 2^nbar nbar! * improved amplitude
    bound; remainder part: the partial-time-integration bound at the
    schedule's (N, kappa), entering through the first-moment chain
    2 R + 4 sqrt((1+sqrt(R))^2 R) + sqrt(variance part).  The headline
    envelope lam^(1/90) is reported alongside; the schedule's N is clamped
    to >= 1 inside the remainder formula (it requires N >= 1).
    """
    if lam > 0.5:
        raise HypothesisViolated("the bound assumes lam <= 1/2")
    sched = schedule_parameters(T, lam)
    t = T / lam**2

    var_part = 0.0
    for m1 in range(sched.N + 1):
        for m2 in range(sched.N + 1):
            nbar = m1 + m2
            count = 2**nbar * math.factorial(nbar)
            var_part += count * amplitude_bound(BoundParams(lam=lam, eps=sched.eps, t=t, nbar=nbar))
    var_part *= (sched.N + 1) ** 2

    rem = remainder_bound(
        RemainderBoundParams(N=max(sched.N, 1), kappa=sched.kappa, eps=sched.eps, lam=lam, t=t)
    )
    # 4 sqrt((1+sqrt(R))^2 R) = 4 (sqrt(R) + R), written overflow-safe
    sqrt_rem = math.sqrt(rem) if math.isfinite(rem) else rem
    total = 2.0 * rem + 4.0 * (sqrt_rem + rem) + math.sqrt(var_part)
    envelope = lam ** (1.0 / 90.0)
    return VarianceBound(sched, var_part, rem, total, envelope)
