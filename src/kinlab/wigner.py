"""Scaled Wigner pairings against separable phase-space test observables.

A test observable is J(X, V) = g(X) h(V) with g a Gaussian on R^3 (closed
form Fourier data) and h a trigonometric polynomial on the torus.  The
pairing of J with the Wigner transform of a state is evaluated in position
space as

    (1/L^3) sum_m conj(c_m) sum_x conj(phi(x + m)) psi(x) f_m0(x_0) f_m1(x_1) f_m2(x_2)

where x runs over the sites and c_m are the velocity harmonics of h.  The
per-axis factor f_mj(y) = sum_xi conj(g_eta,j(xi)) e^(-pi i m_j xi) e^(-2 pi i xi y)
is the lattice Fourier sum of the Gaussian's Fourier data, with xi on the
dual lattice of spacing 1/L extended over integer images until the Gaussian
factor drops below a tail threshold.  The half-grid velocity points enter
exactly through the e^(-pi i m_j xi) factor, so the only approximations are
the reported Gaussian tail truncation and the periodization of g over the
box.

The product conj(phi(x + m)) psi(x) vanishes off the window psi is held
on, so the sum over x runs on it, with the per-axis factors read at its
coordinates.  phi(x + m) is phi's window shifted by m when phi is held on
the same window, and is otherwise read from phi on the box, rolled by m
across the periodic seam.  A pairing of two states on one window holds
nothing of the box's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kinlab.lattice import WaveFunction, WkbSpec

GAUSS_TAIL_THRESHOLD = 1e-10  # relative cutoff of the Fourier factor per axis
# Fourier mass of one axis's Gaussian beyond that cutoff: the erfc argument
# sqrt(2) pi sigma cutoff / eta is sqrt(ln(1/threshold)) for every eta and sigma
AXIS_TAIL_FRACTION = math.erfc(math.sqrt(math.log(1 / GAUSS_TAIL_THRESHOLD)))
ALIAS_LIMIT = 1e-2  # box-periodization budget triggering ResolutionTooCoarse


class ResolutionTooCoarse(ValueError):
    """The momentum grid cannot resolve the observable's Fourier envelope."""


@dataclass(frozen=True)
class TestObservable:
    """Separable Schwartz observable g(X) h(V), Gaussian times trig polynomial.

    g(X) = amplitude * prod_j exp(-(X_j - center_j)^2 / (2 sigma_j^2))
    h(V) = sum_m coeffs[m] exp(2 pi i m.V)
    """

    center: tuple = (0.0, 0.0, 0.0)
    sigma: tuple = (1.0, 1.0, 1.0)
    amplitude: float = 1.0
    coeffs: tuple = (((0, 0, 0), 1.0 + 0.0j),)

    def __post_init__(self):
        if not all(s > 0 for s in self.sigma):
            raise ValueError(f"observable sigma must be positive, got {self.sigma}")

    def spatial(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        z = (X - np.asarray(self.center)) / np.asarray(self.sigma)
        return self.amplitude * np.exp(-0.5 * np.sum(z * z, axis=-1))

    def velocity(self, V) -> np.ndarray:
        V = np.asarray(V, dtype=float)
        out = np.zeros(V.shape[:-1], dtype=np.complex128)
        for m, c in self.coeffs:
            out = out + c * np.exp(2j * np.pi * (V @ np.asarray(m, dtype=float)))
        return out

    def evaluate(self, X, V) -> np.ndarray:
        return self.spatial(X) * self.velocity(V)


@dataclass
class WignerPairing:
    value: complex
    truncation_error: float


def _axis_table(J: TestObservable, eta: float, side: int, axis: int, mu: int):
    """Per-axis xi table: sum over images of conj(g^_eta) e^(-pi i mu xi).

    Returns table[j] for j = 0..L-1; the Fourier mass beyond the tail
    cutoff is AXIS_TAIL_FRACTION on every axis.
    """
    sigma = J.sigma[axis]
    c = J.center[axis]
    amp_axis = J.amplitude if axis == 0 else 1.0  # total amplitude folded on axis 0

    cutoff = (eta / (2.0 * math.pi * sigma)) * math.sqrt(2.0 * math.log(1.0 / GAUSS_TAIL_THRESHOLD))
    K = int(math.floor(cutoff)) + 1
    j = np.arange(side) / side
    table = np.zeros(side, dtype=np.complex128)
    peak = math.sqrt(2.0 * math.pi) * sigma / eta
    for n in range(-K, K + 1):
        xi = j + n
        keep = np.abs(xi) <= cutoff
        if not np.any(keep):
            continue
        x = xi[keep]
        ghat = peak * np.exp(-2.0 * (math.pi * sigma * x / eta) ** 2) * np.exp(-2j * math.pi * x * c / eta)
        table[keep] += np.conj(amp_axis * ghat) * np.exp(-1j * math.pi * mu * x)
    return table


def _axis_gauss_abs(J, eta, coords, axis, half_shift, image):
    """|g_axis| sampled at eta (x_c + half_shift + image*L), x_c the centered site coordinates."""
    arg = eta * (coords + half_shift + image * len(coords))
    z = (arg - J.center[axis]) / J.sigma[axis]
    amp = abs(J.amplitude) if axis == 0 else 1.0
    return amp * np.exp(-0.5 * z * z)


def _contract(q, vecs):
    """sum_x q(x) v0[x0] v1[x1] v2[x2] for a 3-d array q.

    einsum, not matmul: OpenBLAS threads the complex gemv of an L = 64 grid,
    and with one worker process per core its spinning pool made each pairing
    15-25x slower.
    """
    return np.einsum("ij,i,j->", np.einsum("ijk,k->ij", q, vecs[2]), vecs[0], vecs[1])


def _shifted(win: np.ndarray, m: tuple) -> np.ndarray:
    """win(x + m) on the cube of `win`, zero where x + m leaves it (|m_j| < W)."""
    out = np.zeros_like(win)
    out[tuple(slice(max(-c, 0), len(win) - max(c, 0)) for c in m)] = win[
        tuple(slice(max(c, 0), len(win) - max(-c, 0)) for c in m)
    ]
    return out


def _pair_states(J, phi: WaveFunction, psi: WaveFunction, eta):
    """Core pairing of two states on the window of psi.

    Each harmonic multiplies conj(phi(x + m)) by psi in place, and writes
    |product| into one real array for the periodization estimate.  phi on
    psi's window is shifted there if every |m_j| is below W and at most
    L - W, so that no shift wraps onto the window; else it is read from the
    box rolled by -m.  The diagonal pairing (phi is psi) takes its norm
    once.
    """
    box = psi.box
    side = box.side
    coords = box.site_coordinates()
    W, offsets = psi.side, psi.offsets
    s = psi.grid()
    reach = max(abs(c) for m, _ in J.coeffs for c in m)
    local = (phi.side, phi.offsets) == (W, offsets) and reach <= min(side - W, W - 1)
    p_box = None if local else phi.box_grid()
    norm_psi = psi.norm()
    norms = (norm_psi if phi is psi else phi.norm()) * norm_psi
    win = tuple(slice(o, o + W) for o in offsets)
    mag = np.empty((W, W, W))

    value = 0.0 + 0.0j
    coeff_l1 = 0.0
    alias_total = 0.0
    table_cache = {}
    for m, cm in J.coeffs:
        coeff_l1 += abs(cm)
        tabs = []
        for ax in range(3):
            key = (ax, m[ax])
            if key not in table_cache:
                # the xi sum of the table becomes a per-site factor f_mj, entry j
                # at y = j mod L; rolled by -coords[0], entry i is at coords[i]
                table = np.fft.fft(_axis_table(J, eta, side, ax, m[ax]))
                table_cache[key] = np.roll(table, -coords[0])[win[ax]]
            tabs.append(table_cache[key])

        if local:
            q = _shifted(phi.grid(), m)
        else:
            q = np.roll(p_box, tuple(-c for c in m), axis=(0, 1, 2))[win]
        np.conj(q, out=q)
        q *= s
        value += np.conj(cm) * _contract(q, tabs)

        # periodization contribution: g evaluated one box over, weighted by the
        # actual state magnitudes (face images; corners absorbed by the x2 below).
        # The estimate is linear in each image vector, so an axis's two face
        # images are summed before one contraction.
        np.abs(q, out=mag)
        del q  # freed before the next harmonic's window is copied
        central = [
            _axis_gauss_abs(J, eta, coords, ax, m[ax] / 2.0, 0)[win[ax]] for ax in range(3)
        ]
        for ax in range(3):
            vecs = list(central)
            vecs[ax] = (_axis_gauss_abs(J, eta, coords, ax, m[ax] / 2.0, -1)
                        + _axis_gauss_abs(J, eta, coords, ax, m[ax] / 2.0, 1))[win[ax]]
            alias_total += abs(cm) * float(_contract(mag, vecs))
    value /= box.volume

    trunc = norms * coeff_l1 * abs(J.amplitude) * (3.0 * AXIS_TAIL_FRACTION) + 2.0 * alias_total
    return value, trunc


def _check_resolution(J: TestObservable, eta: float, side: int):
    """Raise unless every axis's periodization estimate of g over the box,
    2 exp(-(eta L)^2 / 2 sigma^2), is within ALIAS_LIMIT."""
    sig = np.asarray(J.sigma, dtype=float)
    alias = 2.0 * np.exp(-((eta * side) ** 2) / (2.0 * sig**2))
    if np.max(alias) > ALIAS_LIMIT:
        raise ResolutionTooCoarse(
            f"xi lattice spacing 1/{side} cannot resolve the observable envelope at "
            f"eta={eta}: periodization estimate {np.max(alias):.2e} > {ALIAS_LIMIT}"
        )


def pair_wigner_bilinear(
    J: TestObservable, phi: WaveFunction, psi: WaveFunction, eta: float
) -> WignerPairing:
    """Pair J with the bilinear Wigner form of (phi, psi).

    Sesquilinear: conjugate-linear in phi, linear in psi.  The modulus is
    bounded by C_J ||phi|| ||psi||.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if phi.box != psi.box:
        raise ValueError("states live on different boxes")
    _check_resolution(J, eta, psi.box.side)
    value, trunc = _pair_states(J, phi, psi, eta)
    return WignerPairing(complex(value), trunc)


def pair_wigner(J: TestObservable, psi: WaveFunction, eta: float) -> WignerPairing:
    """Pair J with the Wigner transform of psi (the phi = psi diagonal)."""
    return pair_wigner_bilinear(J, psi, psi, eta)


def wkb_limit_sampler(spec: WkbSpec, n: int, rng: np.random.Generator):
    """Draw (X, V) from the semiclassical limit measure of the wave-packet family.

    X is sampled exactly from |h|^2 = N(center, sigma^2 I); V is the
    deterministic local momentum grad S(X) / (2 pi) reduced to the torus.
    """
    X = rng.normal(loc=np.asarray(spec.center), scale=spec.sigma, size=(n, 3))
    V = spec.local_momentum(X)
    return X, V
