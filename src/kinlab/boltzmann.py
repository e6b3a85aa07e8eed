"""Particle Monte Carlo for the linear Boltzmann transport equation.

The equation transports a phase-space density mu(X, V) with X in R^3 and V
on the unit torus: free flight with velocity sin(2 pi V) per axis, and
elastic jumps with kernel 2 pi delta(e(U) - e(V)).  Because the jump law
depends on V only through the conserved energy e(V), each particle carries
an exponential clock with a fixed rate R = 2 pi Phi(e(V)), where Phi is the
density of states of e pushed forward from the uniform torus measure,
tabulated once by `build_dos_table` from a float32 histogram.

The delta kernel is regularized by a shell of half-width `shell_halfwidth`.
A jump draws the new velocity with `sample_energy_shell_batch`: a point
uniform on the shell, with its third coordinate drawn on its slice of the
shell, is Newton-projected onto the exact level set, so post-collision
energies match the pre-collision energy to the projection tolerance while
the angular law converges to the level-set measure as the shell shrinks
(bias O(shell)).  A call draws its proposals in rounds and works through
each round in fixed chunks of `_CHUNK` proposals, so it holds one round's
k1 and k2 and chunk-sized work arrays, whatever the number of proposals.
`snapshots` alone advances ensembles, through an
increasing list of times.  The module keeps no state between calls; every
result is a function of the arguments and the generator's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kinlab.lattice import dispersion, group_velocity, reduce_torus


class ShellEmpty(RuntimeError):
    """Rejection sampling exhausted its tries; E too close to a band edge."""


@dataclass(frozen=True)
class ShellSamplerConfig:
    shell_halfwidth: float = 1e-3
    max_tries: int = 2_000_000

    def __post_init__(self):
        if not 0.0 < self.shell_halfwidth <= 0.1:
            raise ValueError("shell_halfwidth must lie in (0, 0.1]")
        if self.max_tries < 1:
            raise ValueError("bad sampler config")


# ---------------------------------------------------------------------------
# Density of states
# ---------------------------------------------------------------------------


@dataclass
class DosTable:
    """Histogram estimate of Phi on [0, 6] with per-bin standard errors."""

    edges: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    n_samples: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def interp(self, E) -> np.ndarray:
        """Linear interpolation on the nodes [0, centers..., 6] with values
        [0, Phi..., 0]: Phi vanishes at the band edges and outside the band."""
        nodes = np.concatenate(([0.0], self.centers, [6.0]))
        return np.interp(E, nodes, np.concatenate(([0.0], self.values, [0.0])))

    def integral(self) -> float:
        width = np.diff(self.edges)
        return float(np.sum(self.values * width))


# Rows of three uniforms drawn per round by `build_dos_table` (768 KiB of
# float32, so a round and its temporaries stay in cache).  The energies are
# float32 too: off by a few 1e-7 against a bin width of 6 / bins, at a small
# fraction of the cost of float64 cosines.
DOS_CHUNK = 1 << 16


def build_dos_table(n_samples: int, rng: np.random.Generator, bins: int = 512) -> DosTable:
    """Tabulate Phi by histogramming e(U) over uniform torus samples."""
    edges = np.linspace(0.0, 6.0, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    two_pi = np.float32(2.0 * math.pi)
    left = n_samples
    while left > 0:
        n = min(left, DOS_CHUNK)
        c = rng.random((n, 3), dtype=np.float32)
        c *= two_pi
        np.cos(c, out=c)
        counts += np.histogram(3.0 - c[:, 0] - c[:, 1] - c[:, 2], bins=edges)[0]
        left -= n
    width = np.diff(edges)
    values = counts / (n_samples * width)
    stderr = np.sqrt(np.maximum(counts, 1)) / (n_samples * width)
    return DosTable(edges, values, stderr, n_samples)


def collision_rate(E, table: DosTable) -> np.ndarray:
    """Total jump rate 2 pi Phi(E) of particles at energies E = e(V)."""
    return 2.0 * math.pi * table.interp(E)


# ---------------------------------------------------------------------------
# Energy-shell sampling
# ---------------------------------------------------------------------------


# Energy residual |e(U) - E| at which a projected point counts as on the shell.
PROJECTION_TOL = 1e-12
# Gradient norm below which Newton projection stalls (a critical point of e).
GRAD_FLOOR = 1e-8


def _project_to_shell(U: np.ndarray, E: np.ndarray):
    """Newton steps along grad e to the exact level set; returns (U, ok mask)."""
    U = U.copy()
    ok = np.ones(len(U), dtype=bool)
    for _ in range(60):
        r = dispersion(U) - E
        live = ok & (np.abs(r) > PROJECTION_TOL)
        if not np.any(live):
            break
        g = 2.0 * math.pi * group_velocity(U[live])
        g2 = np.sum(g * g, axis=1)
        stall = g2 < GRAD_FLOOR**2
        if np.any(stall):
            idx = np.flatnonzero(live)[stall]
            ok[idx] = False
        step = np.zeros_like(g)
        good = ~stall
        step[good] = (r[live][good] / g2[good])[:, None] * g[good]
        U[live] -= step
    r = dispersion(U) - E
    ok &= np.abs(r) <= PROJECTION_TOL
    return reduce_torus(U), ok


# Proposals drawn in one round across all pending slots, and the flat chunk
# of them a round is worked through.  A call holds k1 and k2 for one round,
# 2 * max(n, _ROUND_PROPOSALS) doubles (4.2 MB), and chunk-sized a, lo, w,
# acceptance uniforms and hit mask (0.6 MB).
_ROUND_PROPOSALS = 1 << 18
_CHUNK = 1 << 14


def sample_energy_shell_batch(
    E, n: int, cfg: ShellSamplerConfig, rng: np.random.Generator
) -> np.ndarray:
    """n torus points with e(U) = E_i exactly (to the projection tolerance).

    E may be a scalar or an array of per-slot energies.  A proposal draws k1
    and k2 uniformly; with a = 3 - E_i - cos 2 pi k1 - cos 2 pi k2, the k3
    with |e - E_i| < h = shell_halfwidth are those with cos 2 pi k3 in
    (a - h, a + h), a slice of angular width w.  The proposal is accepted
    with probability w / arccos(1 - 2h), the largest width, and then
    k3 = +-theta / 2 pi with theta uniform on the slice.  So an accepted point
    is uniform on the shell, like the first shell hit among uniform torus
    proposals.  Each round gives every pending slot its own row of k
    proposals; the row's first accepted point, Newton-projected onto
    e = E_i, fills the slot, and a slot with none, or whose projection
    stalls, stays pending.  k follows the acceptance seen so far in this
    call, so the draws depend only on the arguments and the state of `rng`.
    Raises ShellEmpty once a pending slot has seen cfg.max_tries proposals.

    A round draws k1 and k2 for all its proposals in one call, then works
    through the rows' proposals, laid out flat, in chunks of `_CHUNK`: the
    acceptance uniforms, which come last in the round's stream, are drawn
    chunk by chunk in order, and each row keeps the slice (lo, w) of its
    first hit across chunks.  The round ends with the two uniforms of each
    row's slice draw.
    """
    E = np.broadcast_to(np.asarray(E, dtype=float), (n,)).copy()
    if np.any((E <= 0.0) | (E >= 6.0)):
        raise ShellEmpty("energy outside the open band (0, 6)")
    out = np.empty((n, 3))
    h = cfg.shell_halfwidth
    w_max = math.acos(1.0 - 2.0 * h)
    two_pi = 2.0 * math.pi
    pending = np.arange(n)
    tries = proposals = hits = 0
    k = 1
    # one set of work buffers for the whole call: k1 and k2 of a round of P
    # rows of k proposals, P * k <= max(n, _ROUND_PROPOSALS), in the head of
    # k_buf, and one chunk's a, lo, w, uniforms, row indices and hit mask
    k_buf = np.empty(2 * max(n, _ROUND_PROPOSALS))
    a_buf, lo_buf, w_buf, u_buf = np.empty((4, _CHUNK))
    row_buf = np.empty(_CHUNK, dtype=np.intp)
    hit_buf = np.empty(_CHUNK, dtype=bool)
    chunk_pos = np.arange(_CHUNK)
    while pending.size:
        k = max(1, min(k, _ROUND_PROPOSALS // pending.size))
        m = pending.size * k
        K = k_buf[: 2 * m].reshape(2, m)
        rng.random(out=K)
        e3 = 3.0 - E[pending]
        # flat index, lo and w of each row's first hit (-1: none yet)
        first = np.full(pending.size, -1)
        first_lo, first_w = np.empty((2, pending.size))
        for c0 in range(0, m, _CHUNK):
            c = min(_CHUNK, m - c0)
            a, lo, w, u, row, hit = (b[:c] for b in (a_buf, lo_buf, w_buf, u_buf, row_buf, hit_buf))
            np.floor_divide(np.add(chunk_pos[:c], c0, out=row), k, out=row)
            np.cos(np.multiply(K[0, c0 : c0 + c], two_pi, out=a), out=a)
            np.cos(np.multiply(K[1, c0 : c0 + c], two_pi, out=w), out=w)
            np.subtract(np.take(e3, row, out=lo), a, out=a)
            a -= w
            # the slice is theta in [lo, lo + w]: lo = arccos(a + h), lo + w = arccos(a - h)
            np.arccos(np.clip(np.add(a, h, out=lo), -1.0, 1.0, out=lo), out=lo)
            np.arccos(np.clip(np.subtract(a, h, out=w), -1.0, 1.0, out=w), out=w)
            w -= lo
            rng.random(out=u)
            np.less(np.multiply(u, w_max, out=u), w, out=hit)
            at = np.flatnonzero(hit)
            hits += at.size
            # the first hit of each row in this chunk, unless an earlier chunk had one
            at = at[np.diff(row[at], prepend=-1) != 0]
            at = at[first[row[at]] < 0]
            first[row[at]] = c0 + at
            first_lo[row[at]] = lo[at]
            first_w[row[at]] = w[at]
        rows = np.flatnonzero(first >= 0)
        at = first[rows]
        v = rng.random((2, rows.size))
        theta = first_lo[rows] + v[0] * first_w[rows]
        k3 = np.copysign(theta, v[1] - 0.5) / two_pi
        U3 = np.column_stack([K[0, at], K[1, at], k3])
        proj, ok = _project_to_shell(U3, E[pending[rows]])
        out[pending[rows[ok]]] = proj[ok]
        pending = np.delete(pending, rows[ok])
        tries += k
        proposals += m
        if pending.size and tries >= cfg.max_tries:
            raise ShellEmpty(
                f"no shell hit after {tries} proposals at E={E[pending[0]]:.4f}, "
                f"shell={cfg.shell_halfwidth}"
            )
        k = math.ceil(proposals / hits) if hits else 4 * k
    return out


# ---------------------------------------------------------------------------
# Particles
# ---------------------------------------------------------------------------


@dataclass
class ParticleEnsemble:
    """Weighted samples (X, V); X macroscopic in R^3, V on the torus."""

    X: np.ndarray
    V: np.ndarray
    weight: np.ndarray

    @property
    def size(self) -> int:
        return len(self.weight)

    def total_weight(self) -> float:
        return float(np.sum(self.weight))


def _advance_batch(X, V, dT, table, cfg, rng):
    """Advance all particles by dT in place; returns (X, V)."""
    E = dispersion(V)
    R = collision_rate(E, table)
    t_left = np.full(len(X), float(dT))
    active = np.flatnonzero(R > 0.0)
    # rate-zero particles (energy exactly at a band edge, 0 or 6) fly
    # ballistically for the whole step
    idle = np.flatnonzero(R <= 0.0)
    X[idle] += t_left[idle, None] * group_velocity(V[idle])
    t_left[idle] = 0.0
    while active.size:
        tau = rng.exponential(1.0 / R[active])
        flight = np.minimum(tau, t_left[active])
        X[active] += flight[:, None] * group_velocity(V[active])
        t_left[active] -= flight
        # clock fired strictly before the step ended -> jump, keep evolving
        collided = active[t_left[active] > 0.0]
        if collided.size:
            V[collided] = sample_energy_shell_batch(E[collided], collided.size, cfg, rng)
        active = collided
    return X, V


def snapshots(
    initial_sampler,
    times,
    n_particles: int,
    cfg: ShellSamplerConfig,
    rng: np.random.Generator,
    table: DosTable,
):
    """Ensemble states at an increasing sequence of times (shared trajectories).

    `initial_sampler(n, rng)` returns initial (X, V) arrays; each particle
    carries weight 1/n, which no step changes, so every returned ensemble
    shares one read-only weight array.  The sampler may return an earlier
    ensemble's arrays: they are copied and never modified, and momenta
    already in [0, 1) pass `reduce_torus` unchanged, so a later call
    continues that ensemble exactly.
    """
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])) or (times and times[0] < 0):
        raise ValueError("times must be nondecreasing and nonnegative")
    X, V = initial_sampler(n_particles, rng)
    X = np.array(X, dtype=float)
    V = reduce_torus(np.array(V, dtype=float))
    weight = np.full(n_particles, 1.0 / n_particles)
    weight.flags.writeable = False
    prev = 0.0
    out = []
    for t in times:
        if t > prev:
            X, V = _advance_batch(X, V, t - prev, table, cfg, rng)
            prev = t
        out.append(ParticleEnsemble(X.copy(), V.copy(), weight))
    return out


def observable(ens: ParticleEnsemble, J) -> tuple:
    """Weighted estimate of Int conj(J) dmu; returns (value, stderr of real part)."""
    vals = np.conj(J.evaluate(ens.X, ens.V))
    value = complex(np.sum(ens.weight * vals))
    n = ens.size
    mean_r = np.sum(ens.weight * vals.real) / ens.total_weight()
    var = np.sum(ens.weight**2 * (vals.real - mean_r) ** 2)
    stderr = math.sqrt(var * n / max(n - 1, 1))
    return value, stderr
