"""Time evolution on the disordered lattice.

The full Hamiltonian is H = H0 + lam*V with H0 the nearest-neighbor kinetic
term (multiplication by e(k) in momentum space) and V a diagonal on-site
potential.  States are position-space fields throughout.  Momentum arrays
exist only inside this module, in numpy's unnormalised convention: the
propagator and the expansion enter momentum space with `fftn` of the
position grid, multiply by the free phase, and leave with `ifftn`.  The
propagator `evolve_full` takes Strang-split free/potential/free steps,
unitary by construction, in one pass over its steps: a step is two
in-place transforms and two in-place multiplies on one work array.  No
phase takes a complex exponential over the grid: the free phase is an
outer product of three length-L exponentials, because e(k) is a sum over
axes, and `kick_phase` writes cos and sin of the real argument into one
complex array.

The box only stands in for Z^3, and the lattice has a finite group
velocity, so a WKB packet stays within a few times 1/eta sites of its
centre.  `evolve_full` therefore runs its Strang loop on a cubic window of
the box, the input's or, for a box-held input, the one the package's window
rule picks (`lattice.smallest_window`), and returns the state on its last
window.  A certified bound B on the distance to the full-box Strang result,
kept below `WINDOW_TOL` times the state's norm, decides when the window
grows; a state that fills the box runs the full-box operations.  The loop
holds two window grids, the work array and the kick; the free phase is
applied slab by slab from its 1-D factors.

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

from kinlab.lattice import (
    WINDOW_QUANTUM,
    WINDOW_TOL,
    BoxSpec,
    DisorderField,
    WaveFunction,
    axis_masses,
    put_window,
    smallest_window,
    take_window,
)


# Highest expansion order `duhamel_ladder` computes.
MAX_ORDER = 12
# axis-0 slabs per free-phase multiply of `evolve_full`
_PHASE_SLABS = 8


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


def _free_factors(W: int, s: float) -> tuple:
    """(exp(-3is) a, a (x) a) with a = exp(i s cos(2 pi k)) on a W-point axis."""
    a = np.exp(1j * s * np.cos(2.0 * np.pi * (np.arange(W) / W)))
    return np.exp(-3j * s) * a, a[:, None] * a


def free_phase(box: BoxSpec, s: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i s e(k)) on the momentum grid of `box`, shape (L, L, L).

    e(k) = 3 - sum_j cos(2 pi k_j), so the grid is exp(-3is) a (x) a (x) a
    with a = exp(i s cos(2 pi k)) on one axis: three length-L exponentials
    and one broadcast product.  The product is written into `out`, a
    complex (L, L, L) array, when one is given, and into a new array
    otherwise; either way the array is returned.
    """
    b, ab = _free_factors(box.side, s)
    return np.multiply(b[:, None, None], ab, out=out)


def kick_phase(values: np.ndarray, x: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-i x values) for real `values`, written as cos and sin of -x values
    into the real and imaginary parts of one complex array.

    That array is `out`, complex and of the shape of `values`, when one is
    given, and a new array otherwise; either way it is returned.  The
    argument -x values is staged in its imaginary part, so no real
    temporary is made; `values` may be that imaginary part.
    """
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    np.multiply(values, -x, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def _face_weights(W: int, s: float) -> tuple:
    """(c, C) of a free sub-step of length s on a window of side W.

    c(p) = 2 (tau(p + 1) + tau(W - p)) for p < W and C = sum_p c(p), with
    tau(d) = sum_{n >= d} (s/2)^n / n!, which bounds the Bessel tail
    sum_{n >= d} |J_n(s)| of the per-axis free kernel.  The series is
    summed to n_max and the rest bounded by a geometric series.
    """
    x = 0.5 * s
    n_max = W + 40 + int(2 * x)
    terms = np.cumprod(np.concatenate(([1.0], x / np.arange(1, n_max + 1))))
    tau = np.cumsum(terms[::-1])[::-1] + terms[-1] * x / (n_max + 1 - x)
    c = 2.0 * (tau[1 : W + 1] + tau[W:0:-1])
    return c, float(np.einsum("i->", c))


def _face_term(masses: tuple, weights: tuple) -> float:
    """Sum over axes of sqrt(C sum_p c(p) m(p)) for the axis marginals `masses`."""
    c, C = weights
    return sum(math.sqrt(C * float(np.einsum("i,i->", c, m))) for m in masses)


def _grow(work: np.ndarray, offsets: tuple, L: int) -> tuple:
    """(work, W, offsets) of the window WINDOW_QUANTUM wider than `work`'s.

    The old window sits centred in the new one, which is moved inwards
    where it would cross a face of the box; a window that would reach L is
    the box itself, at offsets 0.
    """
    W = min(len(work) + WINDOW_QUANTUM, L)
    grown = tuple(min(max(o - WINDOW_QUANTUM // 2, 0), L - W) for o in offsets)
    inner = tuple(o - g for o, g in zip(offsets, grown))
    return put_window(work, inner, np.zeros((W, W, W), complex)), W, grown


def evolve_full(
    psi: WaveFunction, V: DisorderField, lam: float, t: float, cfg: PropagatorConfig
) -> WaveFunction:
    """Evolve under H0 + lam*V for time t >= 0.

    Strang splitting (free half step, potential phase, free half step) with
    adjacent half steps merged, so each step costs two transforms.  Norm is
    preserved to rounding; the global error against the exact evolution is
    O(dt^2).  One pass over the steps [dt] * n_full + [rem], in position
    space between them: before step h the merged free sub-step of the
    previous step's second half and this step's first half, s = (prev + h)/2,
    after the last step that step's second half.  A free sub-step is a
    transform, the free phase at s (`free_phase`'s products, `_PHASE_SLABS`
    axis-0 slabs at a time), the inverse transform; a step's kick is
    `kick_phase` at h * lam of V.  The phase factors and face weights are
    rebuilt only when s or the window changes, and the kick, in place, only
    when h or the window does.

    The loop runs on a cubic window, side W (a multiple of WINDOW_QUANTUM
    below L, or L) and one offset in [0, L - W] per axis, clear of the
    box's periodic seam: the input's, or for a box-held input
    `lattice.smallest_window`'s, the box for a state across the seam.  The
    result is the state on the last window.  Against the full-box Strang
    result its distance is at most

        B = ||psi outside the window||
            + sum over free sub-steps s of sum_j sqrt(C sum_x c(x_j) |psi(x)|^2),

    with c, C from `_face_weights(W, s)` and psi the window state before the
    sub-step.  Kicks are diagonal, so they commute with the embedding.  A
    free sub-step is exp(-3is) times one unitary factor per axis, so the
    difference between it on the window and on the box telescopes over the
    axes with unitary factors that keep each axis's fibre masses.  On one
    axis the kernel is i^n J_n(s) on Z in both; the two differ only in the
    moves from window site p that leave the window, n >= W - p or n <= -p - 1,
    whose kernel mass is at most c(p)/2.  Wrapped in the window and landed
    in the box, each part is bounded by sum_p |psi(p)| c(p)/2, and
    Cauchy-Schwarz gives the term.  Unitarity makes the sub-steps' errors
    add.  B is kept within WINDOW_TOL * ||psi|| by giving the start and each
    free sub-step an equal share: a box-held input starts on the smallest
    window whose outside mass fits it (`smallest_window` with that share),
    and whenever a sub-step's term would exceed it the window grows by
    WINDOW_QUANTUM, centred but inside the box (`_grow`), re-embedding the
    state in position space.  A window that reaches L has no faces and adds
    nothing to B, so a state that fills the box runs the full-box
    operations.
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
    # free sub-steps; 0.5 * (prev + h) is the operand order a per-step
    # reference uses, so it reproduces that bitwise
    subs = [0.5 * (prev + h) for prev, h in zip([0.0] + steps, steps + [0.0])]
    share = WINDOW_TOL * psi.norm() / (len(subs) + 1)
    if psi.side < L:
        W, offsets, work = psi.side, psi.offsets, psi.grid().copy()
    else:
        W, offsets = smallest_window(axis_masses(psi.grid()), L, share)
        work = take_window(psi.grid(), offsets, (W, W, W))
    kick = np.empty_like(work)
    phase_s = kick_h = None
    for j, s in enumerate(subs):
        if s != phase_s:
            weights = _face_weights(W, s)
        while W < L and not _face_term(axis_masses(work), weights) <= share:
            kick = None  # freed before the grown window's
            work, W, offsets = _grow(work, offsets, L)
            kick = np.empty_like(work)
            weights = _face_weights(W, s)
            phase_s = kick_h = None
        if s != phase_s:
            phase_s = s
            b, ab = _free_factors(W, s)
        np.fft.fftn(work, out=work)
        for i in range(0, W, _PHASE_SLABS):
            work[i : i + _PHASE_SLABS] *= b[i : i + _PHASE_SLABS, None, None] * ab
        np.fft.ifftn(work, out=work)
        if j < len(steps):
            h = steps[j]
            if h != kick_h:
                kick_h = h
                take_window(vgrid, offsets, kick.shape, out=kick.imag)
                kick_phase(kick.imag, h * lam, out=kick)
            work *= kick
    return WaveFunction(psi.box, work.ravel(), W, offsets)


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
    phi = [np.fft.fftn(psi0.box_grid())] + [np.zeros_like(work) for _ in range(N)]
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
    acc = evolve_full(psi0, V, lam, t, cfg).box_grid().ravel()
    residuals = []
    for term in terms:
        acc -= term.values
        residuals.append(float(np.linalg.norm(acc)))
    return residuals
