"""Torus integrals of resolvent products and their small-epsilon scaling.

All integrals use the rectangle rule on uniform N^3 momentum grids with the
resolution contract N >= 8/eps (the integrands vary on scale eps near the
level sets of the dispersion).

The one- and two-resolvent rules are streamed slab by slab and folded by
lattice symmetry: along an axis whose shift p is 0 or 1/2 mod 1, the pair
(cos 2pi(i/N + p), cos 2pi i/N) is unchanged under i -> N - i, so only the
indices 0..N//2 are visited, with multiplicities as weights.  The
six-dimensional three-resolvent integral is reduced to O(N^3 log N) by
evaluating the inner convolution spectrally; each distinct gamma's grid is
built and transformed once, and a shift k on the grid is applied as an
index roll.  Scaling fits divide out a stated power of |log eps| first and
regress the remainder against log(1/eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft


class DegenerateFit(ValueError):
    """Scaling fit attempted on too narrow an epsilon span."""


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


def _axis_cos(N: int, shift: float = 0.0, dtype=np.float64) -> np.ndarray:
    k = (np.arange(N, dtype=np.float64) / N + shift) % 1.0
    return np.cos(2.0 * np.pi * k).astype(dtype)


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


def _modulus_slab(c1: np.ndarray, c2: np.ndarray, c3_val: float, gamma: float, eps: float, dtype):
    """1/|e(k) - gamma - i eps| on one slab of fixed c3; e = 3 - c1 - c2 - c3."""
    re = ((3.0 - c3_val - gamma) - c1[:, None] - c2[None, :]).astype(dtype, copy=False)
    np.square(re, out=re)
    re += dtype(eps) ** 2
    np.sqrt(re, out=re)
    return np.reciprocal(re, out=re)


def _modulus_grid(gamma: float, eps: float, N: int, dtype, shift=(0.0, 0.0, 0.0)) -> np.ndarray:
    """1/|e(k + shift) - gamma - i eps| on the N^3 grid, written slab by slab along axis 0."""
    c = [_axis_cos(N, shift=float(s)) for s in shift]
    out = np.empty((N, N, N), dtype=dtype)
    for i1 in range(N):
        out[i1] = _modulus_slab(c[1], c[2], c[0][i1], gamma, eps, dtype)
    return out


def resolvent_modulus_grid(gamma: float, eps: float, N: int, dtype=np.float64) -> np.ndarray:
    """1/|e(k) - gamma - i eps| on the N^3 grid {0, 1/N, ...}^3."""
    ResolventProbe(gamma, eps, N)
    return _modulus_grid(gamma, eps, N, dtype)


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
        slab = _modulus_slab(shifted[0], shifted[1], shifted[2][j], gamma1, eps, np.float64)
        if gamma2 is not None:
            slab *= _modulus_slab(plain[0], plain[1], plain[2][j], gamma2, eps, np.float64)
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


def integral_3res(
    k,
    gamma1: float,
    gamma2: float,
    eps: float,
    N: int,
    gamma3: float = None,
    sign: int = +1,
) -> float:
    """Average over (p, q) of |R1(p)| |R2(q)| |R3(p + sign*q + k)|.

    Evaluated as the p-average of |R1| against the spectral correlation /
    convolution G(p) = N^-3 sum_q |R2(q)| |R3(p + sign*q + k)|.  Each
    distinct gamma's grid is built once (|R1| is |R2| when gamma1 == gamma2)
    and |R2| is transformed once.  When k*N is integral, |R3(x + k)| is an
    index roll s = k*N of the unshifted gamma3 grid, so G(p) = G0(p + s/N)
    with G0 computed at k = 0 (reusing the |R2| spectrum when gamma3 ==
    gamma2), and the roll is applied in the final reduction; the suite's
    point then costs one grid build, one forward and one inverse transform.
    Off-grid k builds the shifted |R3| table.  Single precision is used on
    large grids (N >= 384).
    """
    if gamma3 is None:
        gamma3 = gamma2
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    ResolventProbe(gamma1, eps, N)
    ResolventProbe(gamma2, eps, N)
    ResolventProbe(gamma3, eps, N)
    k = np.asarray(k, dtype=float) % 1.0
    dtype = np.float32 if N >= 384 else np.float64
    kN = k * N
    on_grid = bool(np.all(kN == np.round(kN)))

    B = resolvent_modulus_grid(gamma2, eps, N, dtype)
    FB = sfft.rfftn(B, workers=-1)
    A = B if gamma1 == gamma2 else None
    del B
    if on_grid:
        roll = tuple(int(s) % N for s in kN)
        FC = FB if gamma3 == gamma2 else sfft.rfftn(resolvent_modulus_grid(gamma3, eps, N, dtype), workers=-1)
    else:
        roll = (0, 0, 0)
        FC = sfft.rfftn(_modulus_grid(gamma3, eps, N, dtype, shift=k), workers=-1)
    # sign +1: sum_q B(q) C(p+q) is a correlation; sign -1: a convolution
    spec = np.conj(FB) if sign == +1 else FB
    del FB
    spec *= FC
    del FC
    G = sfft.irfftn(spec, s=(N, N, N), workers=-1)
    del spec
    if A is None:
        A = resolvent_modulus_grid(gamma1, eps, N, dtype)
    total = 0.0
    for i1 in range(N):
        g = G[(i1 + roll[0]) % N]
        if roll[1] or roll[2]:
            g = np.roll(g, (-roll[1], -roll[2]), axis=(0, 1))
        total += float(np.vdot(A[i1].astype(np.float64, copy=False), g.astype(np.float64, copy=False)))
    return total / N**6


@dataclass
class ScalingFit:
    eps_values: tuple
    raw_values: tuple
    polylog_degree: int
    exponent: float
    residual: float


def fit_scaling(eps_values, values, polylog_degree: int, enforce_span: bool = True) -> ScalingFit:
    """Least-squares slope of log(value / |log eps|^degree) against log(1/eps).

    With `enforce_span`, requires >= 4 points spanning >= 1.5 decades;
    acceptance sweeps that are pinned to narrower spans opt out explicitly.
    """
    eps_values = tuple(float(e) for e in eps_values)
    values = tuple(float(v) for v in values)
    if len(eps_values) != len(values) or len(eps_values) < 2:
        raise ValueError("need matching eps/value lists with >= 2 points")
    span = math.log10(max(eps_values) / min(eps_values))
    if enforce_span and (len(eps_values) < 4 or span < 1.5):
        raise DegenerateFit(
            f"{len(eps_values)} points spanning {span:.2f} decades; need >= 4 points over >= 1.5 decades"
        )
    x = np.array([math.log(1.0 / e) for e in eps_values])
    y = np.array(
        [math.log(v / abs(math.log(e)) ** polylog_degree) for v, e in zip(values, eps_values)]
    )
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return ScalingFit(eps_values, values, polylog_degree, float(slope), resid)
