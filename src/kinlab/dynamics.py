"""Time evolution on the disordered lattice.

The full Hamiltonian is H = H0 + lam*V with H0 the nearest-neighbor kinetic
term (multiplication by e(k) in momentum space) and V a diagonal on-site
potential.  Three propagators are provided:

* evolve_free  -- exact free evolution, diagonal in momentum space;
* evolve_full  -- Strang-split free/potential/free steps, two transforms per
  step, unitary by construction;
* evolve_dense -- exact matrix exponential via eigendecomposition, usable as
  an oracle on small boxes only.

The iterated-integral expansion of the full evolution in powers of lam is
computed by the time-domain recursion

    phi_n(t) = -i lam * Int_0^t exp(-i (t-s) H0) V phi_{n-1}(s) ds

with trapezoidal quadrature on a shared uniform grid; order n carries an
exact lam^n prefactor because the coupling is factored out of the recursion
and reapplied at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kinlab.lattice import (
    MOMENTUM,
    POSITION,
    BoxSpec,
    DisorderField,
    WaveFunction,
    fourier_sum_factor,
    momentum_energies,
    to_momentum,
    to_position,
)


class DimensionTooLarge(ValueError):
    """Dense-oracle request above the configured matrix dimension limit."""


class HypothesisViolated(ValueError):
    """A bound was evaluated outside the hypotheses it is stated under."""


STRANG = "strang-split"
DENSE = "dense-oracle"


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float = 1e-2
    scheme: str = STRANG
    dense_max_dim: int = 1024

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in (STRANG, DENSE):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def evolve_free(psi: WaveFunction, t: float) -> WaveFunction:
    """Multiply momentum amplitudes by exp(-i t e(k)); exact up to rounding."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return psi.copy()
    e = momentum_energies(psi.box).ravel()
    phase = np.exp(-1j * t * e)
    if psi.domain == MOMENTUM:
        return WaveFunction(psi.box, psi.values * phase, MOMENTUM)
    out = to_momentum(psi)
    out.values *= phase
    return to_position(out)


def _step_lengths(t: float, dt: float) -> list:
    """Full steps of size dt with the last step shortened to land on t."""
    n_full = int(math.floor(t / dt + 1e-12))
    rem = t - n_full * dt
    steps = [dt] * n_full
    if rem > 1e-12 * max(t, dt):
        steps.append(rem)
    return steps


def evolve_full(
    psi: WaveFunction, V: DisorderField, lam: float, t: float, cfg: PropagatorConfig
) -> WaveFunction:
    """Evolve under H0 + lam*V for time t >= 0.

    Strang splitting (free half step, potential phase, free half step) with
    adjacent half steps merged, so each step costs two transforms.  Norm is
    preserved to rounding; the global error against the dense oracle is
    O(dt^2).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if V.box != psi.box:
        raise ValueError("state and disorder live on different boxes")
    if cfg.scheme == DENSE:
        return evolve_dense(psi, V, lam, t, max_dim=cfg.dense_max_dim)
    steps = _step_lengths(t, cfg.dt)
    if not steps:
        return psi.copy()

    L = psi.box.side
    scale = fourier_sum_factor(psi.box)
    e = momentum_energies(psi.box)
    vgrid = V.values.reshape(L, L, L)

    work = psi.grid() if psi.domain == POSITION else None
    if work is None:
        # start from the position representation
        work = np.fft.ifftn(psi.grid()) * scale
    else:
        work = work.copy()

    # momentum space, leading free half step
    work = np.fft.fftn(work)
    work *= np.exp(-0.5j * steps[0] * e)
    for j, h in enumerate(steps):
        work = np.fft.ifftn(work)
        work *= np.exp(-1j * h * lam * vgrid)
        work = np.fft.fftn(work)
        if j + 1 < len(steps):
            work *= np.exp(-0.5j * (h + steps[j + 1]) * e)
        else:
            work *= np.exp(-0.5j * h * e)
    if psi.domain == POSITION:
        out = np.fft.ifftn(work)
        return WaveFunction(psi.box, out.ravel(), POSITION)
    # `work` holds the plain fftn of the position field = sqrt(V) * unitary values
    return WaveFunction(psi.box, work.ravel() / scale, MOMENTUM)


def dense_hamiltonian(box: BoxSpec, V: DisorderField, lam: float) -> np.ndarray:
    """H = 3 I - (1/2) A + lam diag(V) with A the periodic nearest-neighbor adjacency."""
    n = box.volume
    L = box.side
    H = np.zeros((n, n))
    idx = np.arange(n).reshape(L, L, L)
    for axis in range(3):
        for shift in (1, -1):
            nb = np.roll(idx, shift, axis=axis)
            H[idx.ravel(), nb.ravel()] += -0.5
    H[np.diag_indices(n)] += 3.0 + lam * V.values
    return H


def evolve_dense(
    psi: WaveFunction, V: DisorderField, lam: float, t: float, max_dim: int = 1024
) -> WaveFunction:
    """Exact exp(-i t H) via eigendecomposition; refuses boxes above max_dim."""
    if psi.box.volume > max_dim:
        raise DimensionTooLarge(
            f"dense oracle limited to dimension {max_dim}, box has {psi.box.volume}"
        )
    pos = psi if psi.domain == POSITION else to_position(psi)
    H = dense_hamiltonian(psi.box, V, lam)
    w, Q = np.linalg.eigh(H)
    out = Q @ (np.exp(-1j * t * w) * (Q.conj().T @ pos.values))
    result = WaveFunction(psi.box, out, POSITION)
    return result if psi.domain == POSITION else to_momentum(result)


# ---------------------------------------------------------------------------
# Iterated-integral expansion
# ---------------------------------------------------------------------------


@dataclass
class DuhamelLadder:
    """Expansion terms phi_n at the final time, n = 0..order_cap."""

    order_cap: int
    t: float
    dt: float  # effective grid step (t / n_steps)
    n_steps: int
    terms: list  # WaveFunction per order, in the input state's domain
    norms: list  # float per order


def duhamel_ladder(
    N: int,
    t: float,
    psi0: WaveFunction,
    V: DisorderField,
    lam: float,
    dt: float,
    max_order: int = 12,
) -> DuhamelLadder:
    """All expansion orders 0..N at time t on a shared uniform grid.

    The recursion runs with unit coupling and order n is scaled by lam^n at
    the end, so rescaling lam rescales term n by the exact n-th power.
    """
    if N < 0:
        raise ValueError("order cap must be nonnegative")
    if N > max_order:
        raise ValueError(f"order cap {N} above max_order {max_order}")
    if t < 0:
        raise ValueError("t must be nonnegative")

    box = psi0.box
    L = box.side
    e = momentum_energies(box).ravel()
    vflat = V.values

    phi0_hat = psi0 if psi0.domain == MOMENTUM else to_momentum(psi0)

    if t == 0:
        terms = [phi0_hat.copy() if n == 0 else WaveFunction(box, np.zeros(box.volume), MOMENTUM) for n in range(N + 1)]
    else:
        m = max(1, int(math.ceil(t / dt - 1e-12)))
        h = t / m
        step_phase = np.exp(-1j * h * e)

        def mult_v(momentum_flat):
            pos = np.fft.ifftn(momentum_flat.reshape(L, L, L)).ravel()
            pos *= vflat
            return np.fft.fftn(pos.reshape(L, L, L)).ravel()

        # order 0 on the grid (momentum space)
        grid_prev = np.empty((m + 1, box.volume), dtype=np.complex128)
        grid_prev[0] = phi0_hat.values
        for j in range(1, m + 1):
            grid_prev[j] = grid_prev[j - 1] * step_phase

        terms = [WaveFunction(box, grid_prev[m].copy(), MOMENTUM)]
        for n in range(1, N + 1):
            grid_cur = np.empty_like(grid_prev)
            rho = mult_v(grid_prev[0])
            B = 0.5 * rho
            grid_cur[0] = 0.0
            for j in range(1, m + 1):
                rho = mult_v(grid_prev[j])
                B = B * step_phase + rho
                grid_cur[j] = -1j * h * (B - 0.5 * rho)
            terms.append(WaveFunction(box, grid_cur[m].copy(), MOMENTUM))
            grid_prev = grid_cur

    for n in range(N + 1):
        terms[n].values *= lam**n
    if psi0.domain == POSITION:
        terms = [to_position(w) for w in terms]
    norms = [w.norm() for w in terms]
    eff_dt = t / max(1, int(math.ceil(t / dt - 1e-12))) if t > 0 else dt
    n_steps = int(round(t / eff_dt)) if t > 0 else 0
    return DuhamelLadder(N, t, eff_dt, n_steps, terms, norms)


def duhamel_term(
    n: int,
    t: float,
    psi0: WaveFunction,
    V: DisorderField,
    lam: float,
    dt: float,
    max_order: int = 12,
) -> WaveFunction:
    """Order-n expansion term at time t; n = 0 is exactly the free evolution."""
    return duhamel_ladder(n, t, psi0, V, lam, dt, max_order=max_order).terms[n]


def remainder(
    N: int,
    t: float,
    psi0: WaveFunction,
    V: DisorderField,
    lam: float,
    cfg: PropagatorConfig,
) -> WaveFunction:
    """Full evolution minus the order-<=N ladder sum, for empirical norm studies."""
    if N < 0:
        raise ValueError("order cap must be nonnegative")
    full = evolve_full(psi0, V, lam, t, cfg)
    ladder = duhamel_ladder(N, t, psi0, V, lam, cfg.dt)
    acc = full.values.copy()
    for term in ladder.terms:
        acc -= term.values
    return WaveFunction(psi0.box, acc, full.domain)


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
    C: float = 1.0
    phi_norm: float = 1.0

    def __post_init__(self):
        if self.N < 1 or self.kappa < 1:
            raise ValueError("N and kappa must be positive integers")
        if self.eps <= 0 or self.lam <= 0 or self.t <= 0:
            raise ValueError("eps, lam, t must be positive")
        if self.C <= 0:
            raise ValueError("C must be positive")


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
    N, kap, eps, lam, t, C = (
        params.N,
        params.kappa,
        params.eps,
        params.lam,
        params.t,
        params.C,
    )
    log_eps = math.log(eps)
    lal = _log_abs_log(eps)
    log_b1 = math.log(C) + 2.0 * math.log(lam) - log_eps
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

    total = sum(_exp_or_inf(float(x)) for x in (t1, t2, t3))
    return params.phi_norm**2 * total
