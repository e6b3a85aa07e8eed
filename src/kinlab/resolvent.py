"""Torus integrals of resolvent products and their small-epsilon scaling.

All integrals use the rectangle rule on uniform N^3 momentum grids with the
resolution contract N >= 8/eps (the integrands vary on scale eps near the
level sets of the dispersion).

The one- and two-resolvent rules are streamed slab by slab and folded by
lattice symmetry: along an axis whose shift p is 0 or 1/2 mod 1, the pair
(cos 2pi(i/N + p), cos 2pi i/N) is unchanged under i -> N - i, so only the
indices 0..N//2 are visited, with multiplicities as weights.  The
six-dimensional three-resolvent integral needs even N and works on the same
folded (N/2 + 1)^3 grid: the unshifted moduli are even in every axis, so
their convolution is one DCT-I product, and the shifted third modulus is
streamed slab by slab, each slab folded onto the mirror classes before its
reduction.  Its transforms run on one thread.  Scaling fits divide out a
stated power of |log eps| first and regress the remainder against log(1/eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft


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


def _modulus_slab(c1: np.ndarray, c2: np.ndarray, c3_val: float, gamma: float, eps: float) -> np.ndarray:
    """1/|e(k) - gamma - i eps| on one slab of fixed c3; e = 3 - c1 - c2 - c3."""
    re = (3.0 - c3_val - gamma) - c1[:, None] - c2[None, :]
    np.square(re, out=re)
    re += eps**2
    np.sqrt(re, out=re)
    return np.reciprocal(re, out=re)


def _folded_rule(p, eps: float, N: int, gamma1: float, gamma2: float = None) -> float:
    """N^-3 sum over the grid u of |R_gamma1(u + p)|, times |R_gamma2(u)| if gamma2 is given.

    Each axis visits the indices its `_axis_weights` cover; a slab of fixed
    third index is reduced as w1 @ slab @ w2 and scaled by its own weight.
    """
    p = np.asarray(p, dtype=float) % 1.0
    w1, w2, w3 = weights = [_axis_weights(N, float(s)) for s in p]
    shifted = [_axis_cos(N, shift=float(s))[: len(w)] for s, w in zip(p, weights)]
    plain = [_axis_cos(N)[: len(w)] for w in weights]
    total = 0.0
    for j, wj in enumerate(w3.tolist()):
        slab = _modulus_slab(shifted[0], shifted[1], shifted[2][j], gamma1, eps)
        if gamma2 is not None:
            slab *= _modulus_slab(plain[0], plain[1], plain[2][j], gamma2, eps)
        total += wj * float(w1 @ slab @ w2)
    return total / N**3


def integral_1res(gamma: float, eps: float, N: int) -> float:
    """Torus average of 1/|e - gamma - i eps| (rectangle rule, slab-streamed, folded)."""
    ResolventProbe(gamma, eps, N)
    return _folded_rule((0.0, 0.0, 0.0), eps, N, gamma)


def integral_2res(p, gamma1: float, gamma2: float, eps: float, N: int) -> float:
    """Average of 1/|e(u+p)-gamma1-i eps| * 1/|e(u)-gamma2-i eps| over the grid u.

    p enters through the shifted cosine table, on or off the grid.  Axes
    with p = 0 or 1/2 mod 1 are folded onto their N//2 + 1 distinct cosine
    values; at p in {0, 1/2}^3 the work is (N//2 + 1)^3 instead of N^3.
    """
    ResolventProbe(gamma1, eps, N)
    ResolventProbe(gamma2, eps, N)
    return _folded_rule(p, eps, N, gamma1, gamma2)


def _folded_grid(gamma: float, eps: float, N: int) -> np.ndarray:
    """1/|e(k) - gamma - i eps| at the grid indices 0..N//2 of every axis, slab by slab."""
    c = _axis_cos(N)[: N // 2 + 1]
    out = np.empty((len(c),) * 3)
    for i, ci in enumerate(c.tolist()):
        out[i] = _modulus_slab(c, c, ci, gamma, eps)
    return out


def integral_3res(k, gamma1: float, gamma2: float, eps: float, N: int, gamma3: float = None) -> float:
    """Average over (p, q) of |R1(p)| |R2(q)| |R3(p + q + k)|, for even N.

    With x = p + q this is N^-6 sum_x H(x) |R3(x + k)|, where H = |R1| * |R2|
    is the cyclic convolution of the unshifted moduli.  Both are even in
    every axis, so H is too, and for even N the DFT of an even sequence is
    the DCT-I of its indices 0..N/2: H = idctn(dctn(|R1|) dctn(|R2|)) on the
    folded (N/2 + 1)^3 grids (one grid and one forward transform when
    gamma1 == gamma2), transformed in place on one thread.  |R3(x + k)| is
    streamed in N x N slabs of fixed x1, on or off the grid; each slab is
    summed over the mirror classes {j, N - j} of its two axes and contracted
    with the contiguous row H[min(x1, N - x1)].  |R2| is even, so the
    average of |R1(p)| |R2(q)| |R3(p - q + k)| is the same number.
    """
    if gamma3 is None:
        gamma3 = gamma2
    ResolventProbe(gamma1, eps, N)
    ResolventProbe(gamma2, eps, N)
    ResolventProbe(gamma3, eps, N)
    if N % 2:
        raise ValueError(f"integral_3res needs even N (got N={N}): DCT-I is the DFT of an even sequence only then")
    h = N // 2
    H = sfft.dctn(_folded_grid(gamma2, eps, N), type=1, overwrite_x=True)
    if gamma1 == gamma2:
        H *= H
    else:
        H *= sfft.dctn(_folded_grid(gamma1, eps, N), type=1, overwrite_x=True)
    H = sfft.idctn(H, type=1, overwrite_x=True)
    c = [_axis_cos(N, shift=float(s)) for s in np.asarray(k, dtype=float) % 1.0]
    total = 0.0
    for i1 in range(N):
        slab = _modulus_slab(c[1], c[2], c[0][i1], gamma3, eps)
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
