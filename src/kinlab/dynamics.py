"""Time evolution on the disordered lattice.

The full Hamiltonian is H = H0 + lam*V with H0 the nearest-neighbor kinetic
term (multiplication by e(k) in momentum space) and V a diagonal on-site
potential.  States are position-space fields throughout.  Momentum arrays
exist only inside this module, in numpy's unnormalised convention: the
propagator and the expansion enter momentum space with `fftn` of the
position grid, multiply by `free_phase`, and leave with `ifftn`.  The
propagator `evolve_full` takes Strang-split free/potential/free steps,
unitary by construction, in one pass over its steps: a step is two
in-place transforms and two in-place multiplies on one work array.  It
holds three grids, the work array, one free phase and one kick, allocated
once per call; a phase grid is rebuilt in place, and only when the merged
step length changes.  Neither kind of phase grid takes a complex
exponential over the grid: `free_phase` is an outer product of three
length-L exponentials, because e(k) is a sum over axes, and `kick_phase`
writes cos and sin of the real argument into one complex array.

The iterated-integral expansion of the full evolution in powers of lam is
computed by the time-domain recursion

    phi_n(t) = -i lam * Int_0^t exp(-i (t-s) H0) V phi_{n-1}(s) ds

with trapezoidal quadrature on a shared uniform grid, swept once with one
time slice per order; order n carries an exact lam^n prefactor because the
coupling is factored out of the recursion and reapplied at the end.
`duhamel_residuals` gives the norms of the full evolution minus the
expansion's partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kinlab.lattice import BoxSpec, DisorderField, WaveFunction


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


def free_phase(box: BoxSpec, s: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i s e(k)) on the momentum grid of `box`, shape (L, L, L).

    e(k) = 3 - sum_j cos(2 pi k_j), so the grid is exp(-3is) a (x) a (x) a
    with a = exp(i s cos(2 pi k)) on one axis: three length-L exponentials
    and one broadcast product.  The product is written into `out`, a
    complex (L, L, L) array, when one is given, and into a new array
    otherwise; either way the array is returned.
    """
    L = box.side
    a = np.exp(1j * s * np.cos(2.0 * np.pi * (np.arange(L) / L)))
    return np.multiply((np.exp(-3j * s) * a)[:, None, None], a[:, None] * a, out=out)


def kick_phase(values: np.ndarray, x: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i x values) for real `values`, written as cos and sin of -x values
    into the real and imaginary parts of one complex array.

    That array is `out`, complex and of the shape of `values`, when one is
    given, and a new array otherwise; either way it is returned.  The
    argument -x values is staged in its imaginary part, so no real
    temporary is made.
    """
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    np.multiply(values, -x, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def evolve_full(
    psi: WaveFunction, V: DisorderField, lam: float, t: float, cfg: PropagatorConfig
) -> WaveFunction:
    """Evolve under H0 + lam*V for time t >= 0.

    Strang splitting (free half step, potential phase, free half step) with
    adjacent half steps merged, so each step costs two transforms.  Norm is
    preserved to rounding; the global error against the exact evolution is
    O(dt^2).  One pass over the steps [dt] * n_full + [rem]: before step h
    the merged free phase of the previous step's second half and this
    step's first half, after the last step that step's second half.  A free
    phase is rebuilt only when the merged step changes, and the potential
    kick only when h does.  A free phase is `free_phase` at half the merged
    step, built per axis; a kick is `kick_phase` at h * lam, built from cos
    and sin.  The call holds three grids, the work array, one free phase and
    one kick, allocated once; each rebuild writes into its grid in place.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if V.box != psi.box:
        raise ValueError("state and disorder live on different boxes")
    n_full, rem = _step_counts(t, cfg.dt)
    steps = [cfg.dt] * n_full + ([rem] if rem else [])
    if not steps:
        return psi.copy()

    L = psi.box.side
    vgrid = V.values.reshape(L, L, L)

    # momentum space; a fresh array, since psi.grid() is a view of the
    # caller's state.  A merged phase takes 0.5 * (prev + h), the operand
    # order a per-step reference uses, so it reproduces that bitwise
    work = np.fft.fftn(psi.grid())
    phase = np.empty_like(work)
    kick = np.empty_like(work)
    prev = merged = kick_step = 0.0
    for h in steps:
        if prev + h != merged:
            merged = prev + h
            free_phase(psi.box, 0.5 * merged, out=phase)
        work *= phase
        np.fft.ifftn(work, out=work)
        if h != kick_step:
            kick_step = h
            kick_phase(vgrid, h * lam, out=kick)
        work *= kick
        np.fft.fftn(work, out=work)
        prev = h
    work *= free_phase(psi.box, 0.5 * prev, out=phase)
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

    The time grid is uniform with the largest step h <= dt that lands on t
    (one step of h = 0 at t = 0).  All orders advance together through one
    sweep of the grid, holding only each order's current slice phi_n(t_j)
    and its trapezoid accumulator B_n: at each grid time phi_0 takes one
    free step, then for n = 1..N, with rho = V phi_{n-1}(t_j),
    B_n <- B_n e^{-ih H0} + rho and phi_n <- -ih (B_n - rho/2).  The
    recursion runs with unit coupling and order n is scaled by lam^n at the
    end, so rescaling lam rescales term n by the exact n-th power; order 0
    is the free evolution.  The free step is `free_phase` at h, and each
    multiplication by V runs through one reused position-space array.
    """
    if N < 0:
        raise ValueError("order cap must be nonnegative")
    if N > MAX_ORDER:
        raise ValueError(f"order cap {N} above MAX_ORDER {MAX_ORDER}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if V.box != psi0.box:
        raise ValueError("state and disorder live on different boxes")

    box = psi0.box
    L = box.side
    vgrid = V.values.reshape(L, L, L)
    m = max(1, int(math.ceil(t / dt - 1e-12)))
    h = t / m
    step_phase = free_phase(box, h)
    work = np.empty((L, L, L), dtype=np.complex128)

    def mult_v(phi_hat):
        # V phi in momentum space, returned in `work`: each result is used
        # up before the next call overwrites it
        np.fft.ifftn(phi_hat, out=work)
        np.multiply(work, vgrid, out=work)
        return np.fft.fftn(work, out=work)

    # momentum-space slices at t_0 = 0: only order 0 is nonzero there
    phi = [np.fft.fftn(psi0.grid())] + [np.zeros_like(work) for _ in range(N)]
    B = [0.5 * mult_v(p) for p in phi[:N]]
    for _ in range(m):
        phi[0] *= step_phase
        for n, acc in enumerate(B, start=1):
            rho = mult_v(phi[n - 1])
            acc *= step_phase
            acc += rho
            phi[n] = -1j * h * (acc - 0.5 * rho)

    return [WaveFunction(box, np.fft.ifftn(p * lam**n).ravel()) for n, p in enumerate(phi)]


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
    acc = evolve_full(psi0, V, lam, t, cfg).values
    residuals = []
    for term in terms:
        acc -= term.values
        residuals.append(float(np.linalg.norm(acc)))
    return residuals
