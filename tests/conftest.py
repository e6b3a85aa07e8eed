import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import kinlab
from kinlab import dynamics
from kinlab.harness.manifest import RunManifest
from kinlab.lattice import BoxSpec, DisorderField, WaveFunction
from kinlab.wigner import TestObservable


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_state(box, rng):
    """Normalized random complex position-space state on the box."""
    v = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
    v /= np.linalg.norm(v)
    return WaveFunction(box, v)


def boxed_state(box, offsets, shape, rng):
    """A normalized random state that vanishes off the cyclic box of `shape` at `offsets`."""
    L = box.side
    grid = np.zeros((L, L, L), dtype=complex)
    idx = np.ix_(*[(o + np.arange(n)) % L for o, n in zip(offsets, shape)])
    grid[idx] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    grid /= np.linalg.norm(grid)
    return WaveFunction(box, grid.ravel())


def velocity_max_abs(J):
    """max_V |h(V)| of a TestObservable, dense grid plus local polish (good to ~1e-8)."""
    grid = np.linspace(0.0, 1.0, 48, endpoint=False)
    V = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = np.abs(J.velocity(V))
    best = V[int(np.argmax(vals))]

    def neg(v):
        return -abs(complex(J.velocity(v.reshape(1, 3))[0]))

    res = minimize(neg, best, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
    return float(max(vals.max(), -res.fun))


def cj_constant(J):
    """C_J = Int dxi sup_v |J^(xi, v)| = ||g^||_L1 * max|h| = |amplitude| * max|h|."""
    return abs(J.amplitude) * velocity_max_abs(J)


def window_sides(monkeypatch):
    """The window side of every free-phase factor build of `evolve_full`, in order."""
    sides = []
    free_factors = dynamics._free_factors

    def recorded(W, s):
        sides.append(W)
        return free_factors(W, s)

    monkeypatch.setattr(dynamics, "_free_factors", recorded)
    return sides


def read_csv(path):
    """Rows of a harness CSV as dicts; numeric-looking fields parsed back to int/float."""
    out = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        for row in r:
            d = {}
            for key, cell in zip(header, row):
                try:
                    d[key] = int(cell)
                except ValueError:
                    try:
                        d[key] = float(cell)
                    except ValueError:
                        d[key] = cell
            out.append(d)
    return out


def run_fresh_python(code: str, **env) -> str:
    """Stdout of `code` run in a fresh interpreter that imports this kinlab, with extra env vars."""
    src = str(Path(kinlab.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def load_manifest(path) -> RunManifest:
    """Read a run manifest back, checking its stored digest."""
    with open(path) as f:
        data = json.load(f)
    stored = data.pop("digest")
    m = RunManifest(**data)
    if m.digest() != stored:
        raise ValueError(f"manifest digest mismatch in {path}")
    return m


def make_observable(center=(0.0, 0.0, 0.0), sigma=(1.0, 1.0, 1.0), amplitude=1.0, coeffs=None):
    """TestObservable from a {harmonic: coefficient} dict; a scalar sigma applies to every axis."""
    if coeffs is None:
        coeffs = {(0, 0, 0): 1.0}
    if np.isscalar(sigma):
        sigma = (float(sigma),) * 3
    items = tuple(
        (tuple(int(c) for c in m), complex(v)) for m, v in sorted(coeffs.items())
    )
    return TestObservable(tuple(center), tuple(sigma), float(amplitude), items)


# ---------------------------------------------------------------------------
# reference propagators for `evolve_full`
# ---------------------------------------------------------------------------


class DimensionTooLarge(ValueError):
    """Dense-oracle request above the configured matrix dimension limit."""


def evolve_free(psi: WaveFunction, t: float) -> WaveFunction:
    """Multiply the FFT of psi by exp(-i t e(k)) on the full grid; exact up to rounding."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return psi.copy()
    c = np.cos(2.0 * np.pi * np.arange(psi.box.side) / psi.box.side)
    e = 3.0 - (c[:, None, None] + c[None, :, None] + c[None, None, :])
    out = np.fft.fftn(psi.box_grid())
    out *= np.exp(-1j * t * e)
    return WaveFunction(psi.box, np.fft.ifftn(out).ravel())


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
    H = dense_hamiltonian(psi.box, V, lam)
    w, Q = np.linalg.eigh(H)
    return WaveFunction(psi.box, Q @ (np.exp(-1j * t * w) * (Q.conj().T @ psi.values)))


# ---------------------------------------------------------------------------
# reference expansion for `duhamel_ladder`
# ---------------------------------------------------------------------------


def two_grid_duhamel_ladder(N, t, psi0, V, lam, dt):
    """Expansion terms from full (m+1) x L^3 time grids of orders n-1 and n.

    The same trapezoid recursion as `duhamel_ladder`, one order at a time,
    storing every slice of the previous order before the next is built.  The
    free step exp(-i h e) is exp(-3ih) times the outer product of
    a = exp(i h cos 2 pi k) over the three axes, the formula of
    `free_phase` written out here, so that the bitwise gate checks only the
    ladder's sweep.
    """
    box = psi0.box
    L = box.side
    vflat = V.values

    phi0_hat = np.fft.fftn(psi0.grid()).ravel()

    if t == 0:
        terms = [phi0_hat.copy() if n == 0 else np.zeros(box.volume, dtype=np.complex128)
                 for n in range(N + 1)]
    else:
        m = max(1, int(math.ceil(t / dt - 1e-12)))
        h = t / m
        a = np.exp(1j * h * np.cos(2.0 * np.pi * (np.arange(L) / L)))
        step_phase = ((np.exp(-3j * h) * a)[:, None, None] * (a[:, None] * a)).ravel()

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
    return [WaveFunction(box, np.fft.ifftn(w.reshape(L, L, L)).ravel()) for w in terms]
