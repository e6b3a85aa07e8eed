"""Time evolution on the disordered lattice.

The full Hamiltonian is H = H0 + lam*V with H0 the nearest-neighbor kinetic
term (multiplication by e(k) in momentum space) and V a diagonal on-site
potential.  States are position-space fields throughout; momentum
amplitudes exist only inside the propagator and the expansion.  The
propagator `evolve_full` takes Strang-split free/potential/free steps,
unitary by construction.  Its phase grids are built once per call, so a
step is two in-place transforms and two in-place multiplies on one work
array.

The iterated-integral expansion of the full evolution in powers of lam is
computed by the time-domain recursion

    phi_n(t) = -i lam * Int_0^t exp(-i (t-s) H0) V phi_{n-1}(s) ds

with trapezoidal quadrature on a shared uniform grid; order n carries an
exact lam^n prefactor because the coupling is factored out of the recursion
and reapplied at the end.  `duhamel_residuals` gives the norms of the full
evolution minus the expansion's partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kinlab.lattice import (
    DisorderField,
    WaveFunction,
    momentum_energies,
    to_momentum,
    to_position,
)


# Highest expansion order `duhamel_ladder` computes.
MAX_ORDER = 12


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float = 1e-2

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def _step_counts(t: float, dt: float) -> tuple:
    """(number of full steps of dt, length of a shortened last step or 0.0)."""
    n_full = int(math.floor(t / dt + 1e-12))
    rem = t - n_full * dt
    if rem <= 1e-12 * max(t, dt):
        rem = 0.0
    return n_full, rem


def evolve_full(
    psi: WaveFunction, V: DisorderField, lam: float, t: float, cfg: PropagatorConfig
) -> WaveFunction:
    """Evolve under H0 + lam*V for time t >= 0.

    Strang splitting (free half step, potential phase, free half step) with
    adjacent half steps merged, so each step costs two transforms.  Norm is
    preserved to rounding; the global error against the exact evolution is
    O(dt^2).  The free half phase, the merged full phase and the potential
    kick of a step of dt are built once per call; only a shortened last
    step builds its own.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if V.box != psi.box:
        raise ValueError("state and disorder live on different boxes")
    n_full, rem = _step_counts(t, cfg.dt)
    if n_full == 0 and rem == 0.0:
        return psi.copy()

    L = psi.box.side
    e = momentum_energies(psi.box)
    vgrid = V.values.reshape(L, L, L)

    def kicked(work, kick):
        np.fft.ifftn(work, out=work)
        work *= kick
        np.fft.fftn(work, out=work)

    # momentum space; a fresh array, since psi.grid() is a view of the
    # caller's state.  Each phase keeps the operand order of a per-step exp,
    # so -0.5j * (dt + dt) reproduces the merged half steps bitwise
    work = np.fft.fftn(psi.grid())
    if n_full:
        dt = cfg.dt
        half = np.exp(-0.5j * dt * e)
        kick = np.exp(-1j * dt * lam * vgrid)
        work *= half
        kicked(work, kick)
        if n_full > 1:
            full = np.exp(-0.5j * (dt + dt) * e)
            for _ in range(n_full - 1):
                work *= full
                kicked(work, kick)
        work *= np.exp(-0.5j * (dt + rem) * e) if rem else half
    if rem:
        rem_half = np.exp(-0.5j * rem * e)
        if not n_full:
            work *= rem_half
        kicked(work, np.exp(-1j * rem * lam * vgrid))
        work *= rem_half
    np.fft.ifftn(work, out=work)
    return WaveFunction(psi.box, work.ravel())


# ---------------------------------------------------------------------------
# Iterated-integral expansion
# ---------------------------------------------------------------------------


def duhamel_ladder(
    N: int,
    t: float,
    psi0: WaveFunction,
    V: DisorderField,
    lam: float,
    dt: float,
) -> list:
    """Expansion terms phi_n(t), n = 0..N, as position-space states.

    The time grid is uniform with the largest step <= dt that lands on t.
    The recursion runs with unit coupling and order n is scaled by lam^n at
    the end, so rescaling lam rescales term n by the exact n-th power;
    order 0 is the free evolution.
    """
    if N < 0:
        raise ValueError("order cap must be nonnegative")
    if N > MAX_ORDER:
        raise ValueError(f"order cap {N} above MAX_ORDER {MAX_ORDER}")
    if t < 0:
        raise ValueError("t must be nonnegative")

    box = psi0.box
    L = box.side
    e = momentum_energies(box).ravel()
    vflat = V.values

    phi0_hat = to_momentum(psi0).ravel()

    if t == 0:
        terms = [phi0_hat.copy() if n == 0 else np.zeros(box.volume, dtype=np.complex128)
                 for n in range(N + 1)]
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
        grid_prev[0] = phi0_hat
        for j in range(1, m + 1):
            grid_prev[j] = grid_prev[j - 1] * step_phase

        terms = [grid_prev[m].copy()]
        for n in range(1, N + 1):
            grid_cur = np.empty_like(grid_prev)
            rho = mult_v(grid_prev[0])
            B = 0.5 * rho
            grid_cur[0] = 0.0
            for j in range(1, m + 1):
                rho = mult_v(grid_prev[j])
                B = B * step_phase + rho
                grid_cur[j] = -1j * h * (B - 0.5 * rho)
            terms.append(grid_cur[m].copy())
            grid_prev = grid_cur

    for n in range(N + 1):
        terms[n] *= lam**n
    return [to_position(w.reshape(L, L, L)) for w in terms]


def duhamel_residuals(
    N: int,
    t: float,
    psi0: WaveFunction,
    V: DisorderField,
    lam: float,
    cfg: PropagatorConfig,
) -> list:
    """||e^{-itH} psi0 - sum_{n<=k} phi_n(t)|| for k = 0..N.

    The full evolution is `evolve_full` with `cfg`; the expansion terms come
    from `duhamel_ladder` on a grid of step at most cfg.dt.
    """
    terms = duhamel_ladder(N, t, psi0, V, lam, cfg.dt)
    acc = evolve_full(psi0, V, lam, t, cfg).values.copy()
    residuals = []
    for term in terms:
        acc -= term.values
        residuals.append(float(np.linalg.norm(acc)))
    return residuals
