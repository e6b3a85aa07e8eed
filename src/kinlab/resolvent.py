"""Torus integrals of resolvent products and their small-epsilon scaling.

All integrals use the rectangle rule on uniform N^3 momentum grids with the
resolution contract N >= 8/eps (the integrands vary on scale eps near the
level sets of the dispersion).

The one- and two-resolvent rules are folded by lattice symmetry: along an
axis whose shift p is 0 or 1/2 mod 1, the pair (cos 2pi(i/N + p), cos 2pi i/N)
is unchanged under i -> N - i, so only the indices 0..N//2 are visited, with
multiplicities as weights.  Axes with the same shift are interchangeable:
when all three shifts are equal (every one-resolvent integral) only the
orbits i <= j <= t are visited, n (n + 1) (n + 2) / 6 points for
n = N//2 + 1; when two are, that pair is visited at i <= j only and the
third axis is streamed over it.  The six-dimensional three-resolvent
integral needs even N and works on the same folded (N/2 + 1)^3 grid: the
unshifted moduli are even in every axis, so their spectra are DCT-Is of
their folded grids.  When k lies exactly on the grid and the three gammas
are equal, the shift is a phase on the spectrum and the integral is a
contraction of spectra (Parseval); otherwise the convolution of the first
two moduli is transformed back and the shifted third modulus is streamed
slab by slab, each slab folded onto the mirror classes before its
reduction.  Neither path builds an N^3 array, and at most two folded grids
are held at once.  The DCT-I is numpy's real FFT of the even extension,
one slab at a time.  Reductions use einsum, whose sum order does not
depend on a BLAS thread count.  Scaling fits divide out a stated power of
|log eps| first and regress the remainder against log(1/eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ResolventProbe:
    """Grid resolution contract for a resolvent sweep point."""

    gamma: float
    eps: float
    N: int

    def __post_init__(self):
        if not -1.0 <= self.gamma <= 7.0:
            raise ValueError("gamma restricted to the real contour edge [-1, 7]")
        if not 0.0 < self.eps <= 1.0 / 3.0:
            raise ValueError("eps must lie in (0, 1/3]")
        if self.N < math.ceil(8.0 / self.eps):
            raise ValueError(f"N={self.N} below the resolution contract ceil(8/eps)={math.ceil(8.0 / self.eps)}")


def _axis_cos(N: int, shift: float = 0.0) -> np.ndarray:
    k = (np.arange(N, dtype=np.float64) / N + shift) % 1.0
    return np.cos(2.0 * np.pi * k)


def _axis_weights(N: int, shift: float) -> np.ndarray:
    """Rectangle-rule weights of the indices 0, 1, ... along one axis.

    When shift mod 1 is 0 or 1/2, i -> N - i fixes both the shifted and the
    unshifted cosine, so the indices 0..N//2 carry weight 2, except 0 and
    (for even N) N/2, which are their own mirror images.  Any other shift
    keeps all N indices with weight 1.
    """
    if (2.0 * shift) % 1.0 != 0.0:
        return np.ones(N)
    h = N // 2
    w = np.full(h + 1, 2.0)
    w[0] = 1.0
    if N % 2 == 0:
        w[h] = 1.0
    return w


def _reciprocal_modulus(re: np.ndarray, eps: float) -> np.ndarray:
    """1/|re - i eps|, in place."""
    np.square(re, out=re)
    re += eps**2
    np.sqrt(re, out=re)
    return np.reciprocal(re, out=re)


def _modulus_slab(
    c1: np.ndarray, c2: np.ndarray, c3_val: float, gamma: float, eps: float, out: np.ndarray
) -> np.ndarray:
    """1/|e(k) - gamma - i eps| on one slab of fixed c3, written into `out`; e = 3 - c1 - c2 - c3."""
    np.subtract((3.0 - c3_val - gamma) - c1[:, None], c2[None, :], out=out)
    return _reciprocal_modulus(out, eps)


def _folded_rule(p, eps: float, N: int, gamma1: float, gamma2: float = None) -> float:
    """N^-3 sum over the grid u of |R_gamma1(u + p)|, times |R_gamma2(u)| if gamma2 is given.

    Each axis visits the indices its `_axis_weights` cover.  The integrand
    depends on the axes only through the sum of their cosines, so axes with
    the same shift are interchangeable.  When all three shifts are equal,
    only the orbits i <= j <= t of the axis permutations are visited,
    n (n + 1) (n + 2) / 6 points for n indices per axis: the pairs i <= j
    are ordered by j, so each index t of the third axis streams the prefix
    j <= t, with weight 3 m2 where j < t (m2 = 1 at i = j, else 2) and, where
    j = t, weight 3 at i < t and 1 at i = t.  When only two axes a, b share a
    shift, their pairs are visited at i <= j with the off-diagonal weights
    doubled, and the third axis streams all of them; with no such pair, axes
    0 and 1 are paired whole.  The pair's cosine sums and weights are
    flattened once; each index of the third axis is then one 1-D buffer,
    reduced against the pair weights.
    """
    p = np.asarray(p, dtype=float) % 1.0
    a, b = next(((a, b) for a, b in ((0, 1), (0, 2), (1, 2)) if p[a] == p[b]), (0, 1))
    t = 3 - a - b
    weights = [_axis_weights(N, float(s)) for s in p]
    shifted = [_axis_cos(N, shift=float(s))[: len(w)] for s, w in zip(p, weights)]
    plain = [_axis_cos(N)[: len(w)] for w in weights]
    n = len(weights[t])
    if p[a] == p[b] == p[t]:
        j, i = np.tril_indices(n)
        pair_w = weights[a][i] * weights[b][j]
        last_w = pair_w * np.where(i == j, 1.0, 3.0)
        pair_w *= np.where(i == j, 3.0, 6.0)
        # index u of the third axis streams the pairs j < u, then the pairs j == u
        starts = [u * (u + 1) // 2 for u in range(n)]
        stops = [(u + 1) * (u + 2) // 2 for u in range(n)]
    else:
        if p[a] == p[b]:
            i, j = np.triu_indices(len(weights[a]))
            mult = np.where(i == j, 1.0, 2.0)
        else:
            i, j = np.indices((len(weights[a]), len(weights[b]))).reshape(2, -1)
            mult = 1.0
        pair_w = last_w = weights[a][i] * weights[b][j] * mult
        starts = stops = [len(i)] * n
    pair_shifted = shifted[a][i] + shifted[b][j]
    pair_plain = plain[a][i] + plain[b][j]
    line, line2 = np.empty_like(pair_w), np.empty_like(pair_w)
    total = 0.0
    for wt, cs, cp, start, stop in zip(
        weights[t].tolist(), shifted[t].tolist(), plain[t].tolist(), starts, stops
    ):
        f = _reciprocal_modulus(np.subtract(3.0 - cs - gamma1, pair_shifted[:stop], out=line[:stop]), eps)
        if gamma2 is not None:
            f *= _reciprocal_modulus(np.subtract(3.0 - cp - gamma2, pair_plain[:stop], out=line2[:stop]), eps)
        # einsum, not BLAS: a threaded dot would change the sum order with the thread count
        row = float(np.einsum("i,i->", pair_w[:start], f[:start]))
        if start < stop:
            row += float(np.einsum("i,i->", last_w[start:stop], f[start:]))
        total += wt * row
    return total / N**3


def integral_1res(gamma: float, eps: float, N: int) -> float:
    """Torus average of 1/|e - gamma - i eps| (rectangle rule, folded, streamed)."""
    ResolventProbe(gamma, eps, N)
    return _folded_rule((0.0, 0.0, 0.0), eps, N, gamma)


def integral_2res(p, gamma1: float, gamma2: float, eps: float, N: int) -> float:
    """Average of 1/|e(u+p)-gamma1-i eps| * 1/|e(u)-gamma2-i eps| over the grid u.

    p enters through the shifted cosine table, on or off the grid.  Axes
    with p = 0 or 1/2 mod 1 are folded onto their N//2 + 1 distinct cosine
    values.  Two axes with equal p are visited at i <= j only: at
    p = (1/2, 0, 0) the work is n^2 (n + 1) / 2 points, n = N//2 + 1, instead
    of N^3.  Three equal shifts, as at p = (0, 0, 0) or (1/2, 1/2, 1/2), are
    visited at i <= j <= t only: n (n + 1) (n + 2) / 6 points.
    """
    ResolventProbe(gamma1, eps, N)
    ResolventProbe(gamma2, eps, N)
    return _folded_rule(p, eps, N, gamma1, gamma2)


def _folded_grid(gamma: float, eps: float, N: int) -> np.ndarray:
    """1/|e(k) - gamma - i eps| at the grid indices 0..N//2 of every axis, slab by slab."""
    c = _axis_cos(N)[: N // 2 + 1]
    out = np.empty((len(c),) * 3)
    for i, ci in enumerate(c.tolist()):
        _modulus_slab(c, c, ci, gamma, eps, out[i])
    return out


def _dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-I of a cube along axes 0, 1, 2, in place: scipy.fft.dctn(x, type=1).

    The DCT-I of a line x_0..x_h is the real part of the DFT of its even
    extension x_0..x_h, x_{h-1}..x_1 of length 2h.  Each slab of lines is
    copied into one extension buffer, reused for the whole cube, and
    transformed with numpy's real FFT.
    """
    n = x.shape[0]
    h = n - 1
    ext = np.empty((n, 2 * h))
    for axis in range(3):
        for slab in np.moveaxis(x, axis, -1):
            ext[:, :n] = slab
            ext[:, n:] = slab[:, h - 1 : 0 : -1]
            slab[...] = np.fft.rfft(ext).real
    return x


def _on_grid_3res(K, gamma: float, eps: float, N: int) -> float:
    """`integral_3res` at an integer shift K = k N and gamma1 = gamma2 = gamma3, in the DCT domain.

    By Parseval for the even modulus, with D the DCT-I of its folded grid
    (its DFT at the frequencies 0..N/2), the average is
    N^-9 sum_xi prod_j m(xi_j) cos(2 pi xi_j K_j / N) D(xi)^3 over
    xi in {0..N/2}^3, m = 1 at 0 and N/2 and 2 elsewhere: the shift by K
    only multiplies the spectrum of |R3| by a phase.  It is summed slab by
    slab over xi_0, against the outer product of the axis-1 and axis-2
    weights, through one (N/2 + 1)^2 buffer.
    """
    m = _axis_weights(N, 0.0)
    xi = np.arange(len(m))
    w0, w1, w2 = (m * np.cos(2.0 * np.pi * (xi * Kj % N) / N) for Kj in K)
    D = _dct1(_folded_grid(gamma, eps, N))
    w12 = np.outer(w1, w2)
    buf = np.empty_like(w12)
    total = 0.0
    for w, d in zip(w0.tolist(), D):
        np.multiply(d, d, out=buf)
        buf *= d
        # einsum, not BLAS: a threaded dot would change the sum order with the thread count
        total += w * float(np.einsum("ij,ij->", w12, buf))
    return total / N**9


def integral_3res(k, gamma1: float, gamma2: float, eps: float, N: int, gamma3: float = None) -> float:
    """Average over (p, q) of |R1(p)| |R2(q)| |R3(p + q + k)|, for even N.

    With x = p + q this is N^-6 sum_x H(x) |R3(x + k)|, where H = |R1| * |R2|
    is the cyclic convolution of the unshifted moduli.  All three are even
    in every axis, and for even N the DFT of an even sequence is the DCT-I
    of its indices 0..N/2: `_dct1` of the folded (N/2 + 1)^3 grid.
    When every K_j = (k_j mod 1) N is exactly an integer and
    gamma1 == gamma2 == gamma3, `_on_grid_3res` contracts the spectra.
    Otherwise, including a shift that only rounds to the grid,
    H = idctn(dctn(|R1|) dctn(|R2|)) (one forward transform when
    gamma1 == gamma2; the inverse is the same transform divided by N^3),
    and |R3(x + k)| is streamed in N x N slabs of fixed x1 through one
    reused buffer; each slab is summed over the mirror classes {j, N - j}
    of its two axes and contracted with the contiguous row
    H[min(x1, N - x1)].  |R2| is even, so the average of
    |R1(p)| |R2(q)| |R3(p - q + k)| is the same number.
    """
    if gamma3 is None:
        gamma3 = gamma2
    ResolventProbe(gamma1, eps, N)
    ResolventProbe(gamma2, eps, N)
    ResolventProbe(gamma3, eps, N)
    if N % 2:
        raise ValueError(f"integral_3res needs even N (got N={N}): DCT-I is the DFT of an even sequence only then")
    K = (np.asarray(k, dtype=float) % 1.0) * N
    if gamma1 == gamma2 == gamma3 and np.all(K == np.rint(K)):
        return _on_grid_3res(K.astype(np.int64), gamma1, eps, N)
    h = N // 2
    H = _dct1(_folded_grid(gamma2, eps, N))
    if gamma1 == gamma2:
        H *= H
    else:
        H *= _dct1(_folded_grid(gamma1, eps, N))
    H = _dct1(H)
    H /= N**3
    c = [_axis_cos(N, shift=float(s)) for s in np.asarray(k, dtype=float) % 1.0]
    slab = np.empty((N, N))
    total = 0.0
    for i1 in range(N):
        _modulus_slab(c[1], c[2], c[0][i1], gamma3, eps, slab)
        # rows, then columns, j and N - j fold onto j <= h
        slab[1:h] += slab[:h:-1]
        fold = slab[: h + 1]
        fold[:, 1:h] += fold[:, :h:-1]
        # einsum, not BLAS: a threaded dot would change the sum order with the thread count
        total += float(np.einsum("ij,ij->", H[min(i1, N - i1)], fold[:, : h + 1]))
    return total / N**6


@dataclass
class ScalingFit:
    exponent: float
    residual: float


def fit_scaling(eps_values, values, polylog_degree: int) -> ScalingFit:
    """Least-squares slope of log(value / |log eps|^degree) against log(1/eps)."""
    eps_values = tuple(float(e) for e in eps_values)
    values = tuple(float(v) for v in values)
    if len(eps_values) != len(values) or len(eps_values) < 2:
        raise ValueError("need matching eps/value lists with >= 2 points")
    x = np.array([math.log(1.0 / e) for e in eps_values])
    y = np.array(
        [math.log(v / abs(math.log(e)) ** polylog_degree) for v, e in zip(values, eps_values)]
    )
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return ScalingFit(float(slope), resid)
