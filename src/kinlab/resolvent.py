"""Torus integrals of resolvent products and their small-epsilon scaling.

All integrals use the rectangle rule on uniform N^3 momentum grids with the
resolution contract N >= 8/eps (the integrands vary on scale eps near the
level sets of the dispersion).  The six-dimensional three-resolvent
integral is reduced to O(N^3 log N) by evaluating the inner convolution
spectrally.  Scaling fits divide out a stated power of |log eps| first and
regress the remainder against log(1/eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

#: the two torus points where the two-resolvent integral degenerates
EXCEPTIONAL_SET = ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))


class DegenerateFit(ValueError):
    """Scaling fit attempted on too narrow an epsilon span."""


def dist_to_exceptional(p) -> float:
    """Torus distance from p to the nearest exceptional point."""
    p = np.asarray(p, dtype=float) % 1.0
    best = math.inf
    for q in EXCEPTIONAL_SET:
        d = np.abs(p - np.asarray(q))
        d = np.minimum(d, 1.0 - d)
        best = min(best, float(np.sqrt(np.sum(d * d))))
    return best


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


def _modulus_slab(c1: np.ndarray, c2: np.ndarray, c3_val: float, gamma: float, eps: float, dtype):
    """1/|e(k) - gamma - i eps| on one k3 slab; e = 3 - c1 - c2 - c3."""
    re = (3.0 - c3_val - gamma) - c1[:, None] - c2[None, :]
    return 1.0 / np.sqrt(re.astype(dtype) ** 2 + dtype(eps) ** 2)


def resolvent_modulus_grid(gamma: float, eps: float, N: int, dtype=np.float64) -> np.ndarray:
    """1/|e(k) - gamma - i eps| on the N^3 grid {0, 1/N, ...}^3."""
    ResolventProbe(gamma, eps, N)
    c = _axis_cos(N)
    out = np.empty((N, N, N), dtype=dtype)
    for i3 in range(N):
        out[:, :, i3] = _modulus_slab(c, c, c[i3], gamma, eps, dtype)
    return out


def integral_1res(gamma: float, eps: float, N: int) -> float:
    """Torus average of 1/|e - gamma - i eps| (rectangle rule, slab-streamed)."""
    ResolventProbe(gamma, eps, N)
    c = _axis_cos(N)
    total = 0.0
    for i3 in range(N):
        total += float(np.sum(_modulus_slab(c, c, c[i3], gamma, eps, np.float64)))
    return total / N**3


def integral_2res(p, gamma1: float, gamma2: float, eps: float, N: int) -> float:
    """Average of 1/|e(u+p)-gamma1-i eps| * 1/|e(u)-gamma2-i eps| over the grid.

    On-grid shifts p reduce to index rotation; off-grid p enters through the
    shifted cosine table directly.
    """
    ResolventProbe(gamma1, eps, N)
    ResolventProbe(gamma2, eps, N)
    p = np.asarray(p, dtype=float) % 1.0
    c = _axis_cos(N)
    cs = [_axis_cos(N, shift=float(p[ax])) for ax in range(3)]
    total = 0.0
    for i3 in range(N):
        a = _modulus_slab(cs[0], cs[1], cs[2][i3], gamma1, eps, np.float64)
        b = _modulus_slab(c, c, c[i3], gamma2, eps, np.float64)
        total += float(np.sum(a * b))
    return total / N**3


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
    convolution G(p) = N^-3 sum_q |R2(q)| |R3(p + sign*q + k)|; cost is three
    N^3 transforms.  Single precision is used on large grids (N >= 384).
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

    A = resolvent_modulus_grid(gamma1, eps, N, dtype=dtype)
    B = resolvent_modulus_grid(gamma2, eps, N, dtype=dtype)
    # C(x) = |R3|(x + k)
    c_shift = [_axis_cos(N, shift=float(k[ax]), dtype=np.float64) for ax in range(3)]
    C = np.empty((N, N, N), dtype=dtype)
    for i3 in range(N):
        C[:, :, i3] = _modulus_slab(c_shift[0], c_shift[1], c_shift[2][i3], gamma3, eps, dtype)

    FB = sfft.rfftn(B, workers=-1)
    FC = sfft.rfftn(C, workers=-1)
    if sign == +1:
        # sum_q B(q) C(p+q) = correlation
        spec = np.conj(FB) * FC
    else:
        # sum_q B(q) C(p-q) = convolution
        spec = FB * FC
    del FB, FC, B, C
    G = sfft.irfftn(spec, s=(N, N, N), workers=-1)
    del spec
    value = float(np.mean(A.astype(np.float64) * G)) / N**3
    return value


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
