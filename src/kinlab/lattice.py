"""Periodic lattice geometry, dispersion, disorder, and wave-packet construction.

Conventions used throughout the package:

* The box has ``L`` sites per axis (L even), stored row-major with axis 3
  fastest.  Site index ``idx`` in {0..L-1}^3 represents the lattice point
  with centered coordinate ``x = idx - L/2``, so the box covers
  {-L/2, ..., L/2-1}^3 and the periodic seam sits at the array faces.
* A ``WaveFunction`` is a position-space field held on a window of the box,
  zero off it (box-held: W = L).  Momentum space is the unit torus sampled
  on {0, 1/L, ..., (L-1)/L}^3.  Momentum arrays are numpy's unnormalised
  ``fftn`` of a position grid, the lattice Fourier sum
  ``sum_x psi(x) exp(-2*pi*i k.x)`` times (-1)^(L k_j) per axis, and exist
  only inside ``dynamics``, which leaves momentum space with ``ifftn``.
* Windows of a box (`take_window`, `put_window`) are sub-boxes with one
  offset in [0, L - n] and one size n per axis: slices, clear of the seam.
  One rule, `smallest_window`, chooses them from the state's marginal
  masses: the smallest cube, of side a multiple of `WINDOW_QUANTUM` or the
  box side, whose outside norm fits a share.  `wkb_state` samples the cube
  of share `WINDOW_TOL`, the propagator grows it as the state spreads, and
  the Wigner pairing contracts on it.
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
        """Centered coordinate per axis index: idx -> idx - L/2."""
        return np.arange(self.side) - self.side // 2


def reduce_torus(k) -> np.ndarray:
    """Reduce momenta componentwise into [0, 1)."""
    k = np.asarray(k, dtype=float)
    r = np.floor(k, out=np.empty_like(k))  # an array even for 0-d k
    # below 0, k - floor(k) and k % 1.0 both round the exact (k - trunc k) + 1 once, so the
    # bits agree; for -tiny that rounds to 1.0, an artifact folded back to 0
    np.subtract(k, r, out=r)
    r[r >= 1.0] = 0.0
    return r


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
    """Complex field on the box, zero off the window of side W = `side` at
    `offsets` (each in [0, L - W]); `values` is that window, flat, row-major
    (axis 3 fastest).  The default window is the box."""

    box: BoxSpec
    values: np.ndarray
    side: int | None = None
    offsets: tuple = (0, 0, 0)

    def __post_init__(self):
        self.side = self.side or self.box.side
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.side**3,):
            raise ValueError(f"expected flat length {self.side**3}, got {self.values.shape}")
        if not all(0 <= o <= self.box.side - self.side for o in self.offsets):
            raise ValueError(f"window offsets {self.offsets} outside [0, {self.box.side - self.side}]")

    def grid(self) -> np.ndarray:
        """(W, W, W) view of the window's values."""
        return self.values.reshape((self.side,) * 3)

    def box_grid(self) -> np.ndarray:
        """(L, L, L) grid of the state: a view if box-held, else a new array."""
        if self.side == self.box.side:
            return self.grid()
        return put_window(self.grid(), self.offsets, np.zeros((self.box.side,) * 3, complex))

    def norm(self) -> float:
        # einsum: 8x faster than np.linalg.norm's two strided dots at L = 64
        v = self.values.view(np.float64)
        return math.sqrt(float(np.einsum("i,i->", v, v)))

    def copy(self) -> "WaveFunction":
        return WaveFunction(self.box, self.values.copy(), self.side, self.offsets)


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


def take_window(grid: np.ndarray, offsets: tuple, shape: tuple, out=None) -> np.ndarray:
    """A copy of the window of `grid` of `shape` at `offsets`, in `out` if given."""
    win = np.empty(shape, dtype=grid.dtype) if out is None else out
    win[...] = grid[tuple(slice(o, o + n) for o, n in zip(offsets, shape))]
    return win


def put_window(win: np.ndarray, offsets: tuple, out: np.ndarray) -> np.ndarray:
    """Write `win` into the window of `out` at `offsets`; returns `out`."""
    out[tuple(slice(o, o + n) for o, n in zip(offsets, win.shape))] = win
    return out


# `smallest_window`'s sides are multiples of this below the box side.
WINDOW_QUANTUM = 8
# the share of a state's norm that WKB windows and the propagator may drop
WINDOW_TOL = 1e-12
# axis-0 slabs of |grid|^2 per step of `axis_masses`
_MASS_SLABS = 8


def axis_masses(grid: np.ndarray) -> tuple:
    """The marginals of |grid|^2 on axes 0, 1 and 2.

    |grid|^2 is taken `_MASS_SLABS` axis-0 slabs at a time into one float
    buffer, so a scan holds no grid-sized temporary.
    """
    n = len(grid)
    buf = np.empty((_MASS_SLABS,) + grid.shape[1:])
    m0, m1, m2 = np.empty(n), np.zeros(grid.shape[1]), np.zeros(grid.shape[2])
    for i in range(0, n, _MASS_SLABS):
        b = buf[: n - i]
        np.abs(grid[i : i + _MASS_SLABS], out=b)
        b *= b
        m0[i : i + len(b)] = np.einsum("ijk->i", b)
        rest = np.einsum("ijk->jk", b)
        m1 += np.einsum("jk->j", rest)
        m2 += np.einsum("jk->k", rest)
    return m0, m1, m2


def smallest_window(masses: tuple, L: int, share: float) -> tuple:
    """(W, offsets) of the smallest cubic window that holds a state.

    `masses` are the state's axis marginals (`axis_masses`) on an L-cube.
    For each W (multiples of WINDOW_QUANTUM below L, in turn), each axis
    takes the offset o in [0, L - W] with the least marginal mass outside
    the window, m[:o] plus m[o+W:] from prefix and suffix sums (total minus
    inside would cancel the small masses a share tests).  W holds the state
    when the norm of its part outside the window, at most the root of the
    sum of the axes' outside masses, is within `share`.  Otherwise the
    window is the box, at offsets 0.  Share 0 gives the smallest such cube
    that holds every nonzero site.
    """
    # heads[k] = sum of m[:k] and tails[k] = sum of m[k:], for k = 0..L
    heads = [np.concatenate(([0.0], np.cumsum(m))) for m in masses]
    tails = [np.concatenate((np.cumsum(m[::-1])[::-1], [0.0])) for m in masses]
    for W in range(WINDOW_QUANTUM, L, WINDOW_QUANTUM):
        outside = [head[: L - W + 1] + tail[W:] for head, tail in zip(heads, tails)]
        if math.sqrt(sum(float(out.min()) for out in outside)) <= share:
            return W, tuple(int(np.argmin(out)) for out in outside)
    return L, (0, 0, 0)


# ---------------------------------------------------------------------------
# Disorder
# ---------------------------------------------------------------------------


@dataclass
class DisorderField:
    """One realization of the i.i.d. standard Gaussian on-site potential."""

    box: BoxSpec
    values: np.ndarray


# sites per chunk of `sample_disorder` (at least one axis-0 slab): its
# uniform buffer is 256 KB
_DISORDER_CHUNK = 1 << 14


def sample_disorder(box: BoxSpec, seed: int, stream: int) -> DisorderField:
    """i.i.d. N(0,1) per site from a counter-based generator keyed by (seed, stream).

    The site at coordinate x consumes the uniform words 2j and 2j+1 of the
    Philox stream, j the row-major index of x mod L, and maps them through
    Box-Muller, so the value at a site is a fixed function of (seed, stream,
    x) regardless of traversal or chunking.  The output is filled in whole
    axis-0 slabs of x mod L, up to `_DISORDER_CHUNK` sites at a time: each
    chunk draws its uniforms into one reused buffer and is transformed and
    rolled by L/2 into its rows, so a draw holds the output plus a few
    chunk-sized arrays, not several box-sized temporaries.
    """
    L = box.side
    gen = np.random.Generator(np.random.Philox(key=[seed % 2**64, stream % 2**64]))
    values = np.empty((L, L, L))
    rows = max(1, _DISORDER_CHUNK // L**2)
    buf = np.empty(2 * rows * L**2)
    for r in range(0, L, rows):
        u = gen.random(out=buf[: 2 * min(rows, L - r) * L**2]).reshape(-1, L, L, 2)
        # 1 - u in (0, 1] keeps log() finite; slab x0 = r + k sits at row (r + k + L/2) mod L
        z = np.sqrt(-2.0 * np.log(1.0 - u[..., 0])) * np.cos(2.0 * np.pi * u[..., 1])
        values[(np.arange(r, r + len(u)) + L // 2) % L] = np.roll(z, L // 2, axis=(1, 2))
    return DisorderField(box, values.ravel())


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
    """Sample eta^(3/2) h(eta x) exp(i S(eta x)/eta) on its window of the centered box.

    Raises BoxTooSmall when the envelope carries more than `TAIL_TOL` of its
    mass outside the box.  The window is `smallest_window`'s at share
    `WINDOW_TOL` times the norm, from marginals of |h|^2 that are products
    of 1-D sums; it is sampled one axis-0 slab at a time.  The result is
    capped at unit norm; the raw Riemann-sum norm approaches 1 as eta -> 0.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    tail = envelope_tail_mass(spec, eta, box)
    if tail > TAIL_TOL:
        raise BoxTooSmall(
            f"envelope tail mass {tail:.3e} outside box exceeds {TAIL_TOL:.1e}; "
            f"increase side {box.side} or reduce sigma/center"
        )
    coord = box.site_coordinates() * eta
    # the marginals of |h|^2 at unit mass: each axis's factor over its sum
    sq = [np.exp(-((coord - c) ** 2) / (2.0 * spec.sigma**2)) for c in spec.center]
    W, offsets = smallest_window([f / np.einsum("i->", f) for f in sq], box.side, WINDOW_TOL)
    x0, x1, x2 = (coord[o : o + W] for o in offsets)
    X = np.empty((W, W, 3))
    X[..., 1] = x1[:, None]
    X[..., 2] = x2
    values = np.empty((W, W, W), dtype=np.complex128)
    for i, x in enumerate(x0):
        X[..., 0] = x
        values[i] = eta**1.5 * spec.envelope(X) * np.exp(1j * spec.phase(X) / eta)
    psi = WaveFunction(box, values.ravel(), W, offsets)
    n = psi.norm()
    if n > 1.0:
        psi.values /= n
    return psi
