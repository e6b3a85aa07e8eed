"""Time evolution on the disordered lattice.

The full Hamiltonian is H = H0 + lam*V with H0 the nearest-neighbor kinetic
term (multiplication by e(k) in momentum space) and V a diagonal on-site
potential.  States are position-space fields throughout.  Momentum arrays
exist only inside this module, in numpy's unnormalised convention: the
propagator and the expansion enter momentum space with `fftn` of the
position grid, multiply by `free_phase`, and leave with `ifftn`.  The
propagator `evolve_full` takes Strang-split free/potential/free steps,
unitary by construction, in one pass over its steps: a step is two
in-place transforms and two in-place multiplies on one work array.  Neither
kind of phase grid takes a complex exponential over the grid: `free_phase`
is an outer product of three length-L exponentials, because e(k) is a sum
over axes, and `kick_phase` writes cos and sin of the real argument into
one complex array.

The box only stands in for Z^3, and the lattice has a finite group
velocity, so a WKB packet stays within a few times 1/eta sites of its
centre.  `evolve_full` therefore runs its Strang loop on a cubic window of
the box: side W a multiple of `WINDOW_QUANTUM` below L, or L itself, with
one cyclic offset per axis read from the state's marginal masses, embedded
back into the box at the end.  A certified bound B on the distance to the
full-box Strang result, kept below `WINDOW_TOL` times the state's norm,
decides the window and when it grows; a state that fills the box runs on
the whole box, with the full-box operations.  The loop holds three window
grids (the work array, one free phase and one kick), V on the window and
one |psi|^2 buffer; a phase grid is rebuilt in place, and only when its step length or
the window changes.

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from kinlab.lattice import BoxSpec, DisorderField, WaveFunction


# Highest expansion order `duhamel_ladder` computes.
MAX_ORDER = 12
# `evolve_full` keeps its distance to the full-box Strang result within
# WINDOW_TOL times the state's norm.
WINDOW_TOL = 1e-12
# `evolve_full`'s window sides are multiples of this below the box side.
WINDOW_QUANTUM = 8


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


def _segments(offset: int, W: int, L: int) -> tuple:
    """(box slice, window slice) pairs covering W sites from `offset` on an L-cycle."""
    head = min(W, L - offset)
    if head == W:
        return ((slice(offset, offset + W), slice(0, W)),)
    return ((slice(offset, L), slice(0, head)), (slice(0, W - head), slice(head, W)))


def _blocks(offsets: tuple, W: int, L: int):
    """The at most 8 (box index, window index) block pairs of a cyclic W-cube in an L-cube."""
    for segs in itertools.product(*(_segments(o, W, L) for o in offsets)):
        yield tuple(b for b, _ in segs), tuple(w for _, w in segs)


def _take_window(grid: np.ndarray, offsets: tuple, W: int) -> np.ndarray:
    """A fresh (W, W, W) copy of the cyclic window of `grid` at `offsets`."""
    win = np.empty((W, W, W), dtype=grid.dtype)
    for box_idx, win_idx in _blocks(offsets, W, len(grid)):
        win[win_idx] = grid[box_idx]
    return win


def _put_window(win: np.ndarray, offsets: tuple, out: np.ndarray) -> np.ndarray:
    """Write `win` into the cyclic window of `out` at `offsets`; returns `out`."""
    for box_idx, win_idx in _blocks(offsets, len(win), len(out)):
        out[box_idx] = win[win_idx]
    return out


def _axis_masses(grid: np.ndarray, buf: np.ndarray) -> tuple:
    """The marginals of |grid|^2 on axes 0, 1 and 2.

    |grid|^2 is taken len(buf) axis-0 slabs at a time into the float buffer
    `buf`, so a one-slab buffer scans a box with no grid-sized temporary.
    """
    n = len(grid)
    m0, m1, m2 = np.empty(n), np.zeros(grid.shape[1]), np.zeros(grid.shape[2])
    for i in range(0, n, len(buf)):
        b = buf[: n - i]
        np.abs(grid[i : i + len(buf)], out=b)
        b *= b
        m0[i : i + len(b)] = np.einsum("ijk->i", b)
        rest = np.einsum("ijk->jk", b)
        m1 += np.einsum("jk->j", rest)
        m2 += np.einsum("jk->k", rest)
    return m0, m1, m2


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


def _initial_window(masses: tuple, L: int, share: float) -> tuple:
    """(W, offsets) of the smallest window that holds the state.

    For each W (multiples of WINDOW_QUANTUM below L, in turn), each axis
    takes the cyclic offset with the least marginal mass outside the
    window.  W holds the state when the norm of its part outside the window,
    at most the root of the sum of the axes' outside masses, is within
    `share`.  Otherwise the window is the box.
    """
    for W in range(WINDOW_QUANTUM, L, WINDOW_QUANTUM):
        # row o: the sites off the window that starts at offset o
        outside_idx = (np.arange(L)[:, None] + np.arange(W, L)) % L
        outside = [np.einsum("ij->i", m[outside_idx]) for m in masses]
        if math.sqrt(sum(float(out.min()) for out in outside)) <= share:
            return W, tuple(int(np.argmin(out)) for out in outside)
    return L, (0, 0, 0)


def _window_grids(vgrid: np.ndarray, offsets: tuple, W: int) -> tuple:
    """(V on the window, |psi|^2 buffer, free phase, kick) of a window.

    The whole box takes V as it is and needs no buffer (None).
    """
    shape = (W, W, W)
    if W == len(vgrid):
        vwin, buf = vgrid, None
    else:
        vwin, buf = _take_window(vgrid, offsets, W), np.empty(shape)
    return vwin, buf, np.empty(shape, complex), np.empty(shape, complex)


def _grow(work: np.ndarray, offsets: tuple, L: int) -> tuple:
    """(work, W, offsets) of the window WINDOW_QUANTUM wider than `work`'s.

    The old window sits centred in the new one; a window that would reach
    L is the box itself, at offsets 0.
    """
    W = len(work) + WINDOW_QUANTUM
    if W >= L:
        return _put_window(work, offsets, np.zeros((L, L, L), complex)), L, (0, 0, 0)
    pad = WINDOW_QUANTUM // 2
    grown = _put_window(work, (pad, pad, pad), np.zeros((W, W, W), complex))
    return grown, W, tuple((o - pad) % L for o in offsets)


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
    transform, `free_phase` at s, the inverse transform; a step's kick is
    `kick_phase` at h * lam.  A free phase is rebuilt only when s or the
    window changes, and the kick only when h or the window does; each
    rebuild writes into its grid in place.

    The loop runs on a cubic window of the box, side W (a multiple of
    WINDOW_QUANTUM below L, or L) and one cyclic offset per axis, and the
    result is embedded back into the box with zeros outside the window.
    Against the full-box Strang result its distance is at most

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
    free sub-step an equal share: the initial window is the smallest whose
    outside mass fits it (`_initial_window`), and whenever a sub-step's term
    would exceed it the window grows by WINDOW_QUANTUM, centred, re-embedding
    the state in position space.  A window that
    reaches L has no faces and adds nothing to B, so a state that fills the
    box runs the full-box operations.
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
    masses = _axis_masses(psi.grid(), np.empty((1, L, L)))
    share = WINDOW_TOL * math.sqrt(float(np.einsum("i->", masses[0]))) / (len(subs) + 1)
    W, offsets = _initial_window(masses, L, share)

    work = _take_window(psi.grid(), offsets, W)
    vwin, buf, phase, kick = _window_grids(vgrid, offsets, W)
    phase_s = kick_h = None
    for j, s in enumerate(subs):
        while W < L and not _face_term(_axis_masses(work, buf), _face_weights(W, s)) <= share:
            vwin = buf = phase = kick = None  # freed before the grown window's grids
            work, W, offsets = _grow(work, offsets, L)
            vwin, buf, phase, kick = _window_grids(vgrid, offsets, W)
            phase_s = kick_h = None
        if s != phase_s:
            phase_s = s
            free_phase(BoxSpec(W), s, out=phase)
        np.fft.fftn(work, out=work)
        work *= phase
        np.fft.ifftn(work, out=work)
        if j < len(steps):
            h = steps[j]
            if h != kick_h:
                kick_h = h
                kick_phase(vwin, h * lam, out=kick)
            work *= kick
    if W < L:
        vwin = buf = phase = kick = None  # freed before the box-sized result
        work = _put_window(work, offsets, np.zeros((L, L, L), complex))
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
