"""Periodic lattice geometry, dispersion, disorder, and wave-packet construction.

Conventions used throughout the package:

* The box has ``L`` sites per axis (L even), stored row-major with axis 3
  fastest.  Site index ``idx`` in {0..L-1}^3 represents the lattice point
  with centered coordinate ``x = ((idx + L/2) mod L) - L/2``, so the box
  covers {-L/2, ..., L/2-1}^3 and the periodic seam sits at the faces.
* A ``WaveFunction`` is always a position-space field.  Momentum space is
  the unit torus sampled on {0, 1/L, ..., (L-1)/L}^3.  Momentum arrays are
  numpy's unnormalised ``fftn`` of the (L, L, L) position grid, the lattice
  Fourier sum ``sum_x psi(x) exp(-2*pi*i k.x)``, and exist only inside
  ``dynamics``, which leaves momentum space with ``ifftn``.  On-grid momenta
  do not distinguish the centered representative from the raw index, so a
  plain FFT applies.
* Kinetic energy of the nearest-neighbor Hamiltonian (hopping -1/2, on-site
  +3) acts in momentum space as ``e(k) = 3 - sum_j cos(2 pi k_j)``, with
  band [0, 6] and group velocity ``sin(2 pi k_j)`` per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class BoxTooSmall(ValueError):
    """Envelope mass outside the periodic box exceeds the allowed tail."""


@dataclass(frozen=True)
class BoxSpec:
    """Periodic cubic box with `side` lattice sites per axis."""

    side: int

    def __post_init__(self):
        if self.side < 4 or self.side % 2 != 0:
            raise ValueError(f"box side must be even and >= 4, got {self.side}")

    @property
    def volume(self) -> int:
        return self.side**3

    def site_coordinates(self) -> np.ndarray:
        """Centered coordinate per axis index: idx -> ((idx+L/2) mod L) - L/2."""
        L = self.side
        return ((np.arange(L) + L // 2) % L) - L // 2


def reduce_torus(k) -> np.ndarray:
    """Reduce momenta componentwise into [0, 1)."""
    r = np.asarray(k, dtype=float) % 1.0
    # -tiny % 1.0 rounds to 1.0; fold that artifact back to 0
    return np.where(r >= 1.0, 0.0, r)


def dispersion(k) -> np.ndarray:
    """Kinetic energy e(k) = 3 - sum_j cos(2 pi k_j); values in [0, 6]."""
    c = np.cos(2.0 * np.pi * np.asarray(k, dtype=float))
    return 3.0 - (c[..., 0] + c[..., 1] + c[..., 2])


def group_velocity(k) -> np.ndarray:
    """Group velocity (sin 2 pi k_1, sin 2 pi k_2, sin 2 pi k_3) = grad e / (2 pi)."""
    k = np.asarray(k, dtype=float)
    return np.sin(2.0 * np.pi * k)


# ---------------------------------------------------------------------------
# Wave functions
# ---------------------------------------------------------------------------

@dataclass
class WaveFunction:
    """Complex position-space field on the box, flat length L^3, row-major (axis 3 fastest)."""

    box: BoxSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.box.volume,):
            raise ValueError(
                f"expected flat array of length {self.box.volume}, got shape {self.values.shape}"
            )

    def grid(self) -> np.ndarray:
        """(L, L, L) view of the flat data."""
        L = self.box.side
        return self.values.reshape(L, L, L)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def copy(self) -> "WaveFunction":
        return WaveFunction(self.box, self.values.copy())


# ---------------------------------------------------------------------------
# Disorder
# ---------------------------------------------------------------------------


@dataclass
class DisorderField:
    """One realization of the i.i.d. standard Gaussian on-site potential."""

    box: BoxSpec
    values: np.ndarray


def sample_disorder(box: BoxSpec, seed: int, stream: int) -> DisorderField:
    """i.i.d. N(0,1) per site from a counter-based generator keyed by (seed, stream).

    Site i consumes the uniform words 2i and 2i+1 of the Philox stream and
    maps them through Box-Muller, so the value at a site is a fixed function
    of (seed, stream, site index) regardless of traversal or chunking.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed % 2**64, stream % 2**64]))
    u = gen.random(2 * box.volume)
    u1 = 1.0 - u[0::2]  # (0, 1]: keeps log() finite
    u2 = u[1::2]
    values = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return DisorderField(box, values)


# ---------------------------------------------------------------------------
# Semiclassical (WKB) initial states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigPolynomial:
    """Real trigonometric polynomial sum_m [a_m cos(2 pi m.X) + b_m sin(2 pi m.X)].

    `terms` maps an integer frequency vector m to (a_m, b_m).
    """

    terms: tuple = ()

    @staticmethod
    def from_dict(d: dict) -> "TrigPolynomial":
        return TrigPolynomial(tuple((tuple(int(c) for c in m), float(a), float(b)) for m, (a, b) in sorted(d.items())))

    def value(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[:-1])
        for m, a, b in self.terms:
            phase = 2.0 * np.pi * (X @ np.asarray(m, dtype=float))
            out = out + a * np.cos(phase) + b * np.sin(phase)
        return out

    def gradient(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape)
        for m, a, b in self.terms:
            mv = np.asarray(m, dtype=float)
            phase = 2.0 * np.pi * (X @ mv)
            radial = -a * np.sin(phase) + b * np.cos(phase)
            out = out + 2.0 * np.pi * radial[..., None] * mv
        return out


@dataclass(frozen=True)
class WkbSpec:
    """Gaussian envelope h (unit L2 norm) and phase S = linear + trig polynomial.

    h(X) = (2 pi sigma^2)^(-3/4) exp(-|X - center|^2 / (4 sigma^2)),
    S(X) = linear . X + trig(X).
    """

    center: tuple = (0.0, 0.0, 0.0)
    sigma: float = 0.35
    linear: tuple = (0.0, 0.0, 0.0)
    trig: TrigPolynomial = field(default_factory=TrigPolynomial)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("envelope width must be positive")

    def envelope(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        d2 = np.sum((X - np.asarray(self.center)) ** 2, axis=-1)
        return (2.0 * np.pi * self.sigma**2) ** (-0.75) * np.exp(-d2 / (4.0 * self.sigma**2))

    def phase(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return X @ np.asarray(self.linear, dtype=float) + self.trig.value(X)

    def phase_gradient(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.asarray(self.linear, dtype=float) + self.trig.gradient(X)

    def local_momentum(self, X) -> np.ndarray:
        """Momentum-space concentration point grad S(X) / (2 pi), reduced mod 1.

        Derived from the exp(-2 pi i k.x) transform convention: the local
        plane wave exp(i grad S . x) sits at k = grad S / (2 pi).
        """
        return reduce_torus(self.phase_gradient(X) / (2.0 * np.pi))


def envelope_tail_mass(spec: WkbSpec, eta: float, box: BoxSpec) -> float:
    """|h|^2 mass outside the macroscopic box window [-eta L/2, eta L/2)^3."""
    half = eta * box.side / 2.0
    inside = 1.0
    for c in spec.center:
        lo = (-half - c) / (spec.sigma * math.sqrt(2.0))
        hi = (half - c) / (spec.sigma * math.sqrt(2.0))
        inside *= 0.5 * (math.erf(hi) - math.erf(lo))
    return 1.0 - inside


# Envelope mass `wkb_state` allows outside the box.
TAIL_TOL = 1e-8


def wkb_state(spec: WkbSpec, eta: float, box: BoxSpec) -> WaveFunction:
    """Sample eta^(3/2) h(eta x) exp(i S(eta x)/eta) on the centered box.

    Raises BoxTooSmall when the envelope carries more than `TAIL_TOL` of its
    mass outside the box.  The result is capped at unit norm
    (norm = min(1, raw norm)); the raw Riemann-sum norm approaches
    ||h||_L2 = 1 as eta -> 0.  The state is built one axis-0 slab at a time,
    through one (L, L, 3) coordinate array, with no grid of coordinates.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    tail = envelope_tail_mass(spec, eta, box)
    if tail > TAIL_TOL:
        raise BoxTooSmall(
            f"envelope tail mass {tail:.3e} outside box exceeds {TAIL_TOL:.1e}; "
            f"increase side {box.side} or reduce sigma/center"
        )
    L = box.side
    coord = box.site_coordinates() * eta
    X = np.empty((L, L, 3))
    X[..., 1] = coord[:, None]
    X[..., 2] = coord
    values = np.empty((L, L, L), dtype=np.complex128)
    for i, x0 in enumerate(coord):
        X[..., 0] = x0
        values[i] = eta**1.5 * spec.envelope(X) * np.exp(1j * spec.phase(X) / eta)
    psi = WaveFunction(box, values.ravel())
    n = psi.norm()
    if n > 1.0:
        psi.values /= n
    return psi
