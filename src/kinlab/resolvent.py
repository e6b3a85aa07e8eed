"""Torus integrals of resolvent products and their small-epsilon scaling.

All integrals use the rectangle rule on uniform N^3 momentum grids with the
resolution contract N >= 8/eps (the integrands vary on scale eps near the
level sets of the dispersion), which `check_probe` enforces.

The one- and two-resolvent rules are folded by lattice symmetry: along an
axis whose shift p is 0 or 1/2 mod 1, the pair (cos 2pi(i/N + p), cos 2pi i/N)
is unchanged under i -> N - i, so only the indices 0..N//2 are visited, with
multiplicities as weights.  Axes with the same shift are interchangeable:
when all three shifts are equal (every one-resolvent integral) only the
orbits i <= j <= t are visited, n (n + 1) (n + 2) / 6 points for
n = N//2 + 1; when two are, that pair is visited at i <= j only and the
third axis is streamed over it.  With two resolvents of one gamma, the
exchange u -> -u - p swaps them; when N is even, the pair has shift 0 and
the streamed axis 1/2, it is i -> N/2 - i on that axis, which then keeps
i <= N/4 only.  The six-dimensional three-resolvent integral is a
Parseval contraction in the DCT domain (`integral_3res`).
It holds half of the folded (N/2 + 1)^3 grid, the pairs j <= t of its
last two axes, and transforms and contracts those axes one slab at a time;
no N^3 array is built.  The DCT-I is numpy's real FFT of the even
extension of each row.  Reductions use einsum, whose sum order does not
depend on a BLAS thread count.  Scaling fits divide out a stated power of
|log eps| first and regress the remainder against log(1/eps).
"""

from __future__ import annotations

import math

import numpy as np


def check_probe(gamma: float, eps: float, N: int):
    """Raise ValueError unless (gamma, eps, N) meets the grid resolution contract."""
    if not -1.0 <= gamma <= 7.0:
        raise ValueError("gamma restricted to the real contour edge [-1, 7]")
    if not 0.0 < eps <= 1.0 / 3.0:
        raise ValueError("eps must lie in (0, 1/3]")
    if N < math.ceil(8.0 / eps):
        raise ValueError(f"N={N} below the resolution contract ceil(8/eps)={math.ceil(8.0 / eps)}")


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


def _reciprocal_modulus(re: np.ndarray, eps: float, re2: np.ndarray = None) -> np.ndarray:
    """1/|re - i eps|, times 1/|re2 - i eps| if re2 is given, in place with one sqrt."""
    np.square(re, out=re)
    re += eps**2
    if re2 is not None:
        np.square(re2, out=re2)
        re2 += eps**2
        re *= re2
    np.sqrt(re, out=re)
    return np.reciprocal(re, out=re)


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
    0 and 1 are paired whole.  With gamma2 = gamma1, N even, the pair at
    shift 0 and the third axis at 1/2, the exchange u -> -u - p fixes the
    pair's indices and maps i to N/2 - i on the third axis, with the same
    weight and the two cosines swapped, so the summand is unchanged: the
    third axis streams i <= N/4 only, at twice the weight below N/4.  The
    pair's cosine sums and weights are flattened once; each index of the
    third axis is then one 1-D buffer, reduced against the pair weights.
    """
    p = np.asarray(p, dtype=float) % 1.0
    a, b = next(((a, b) for a, b in ((0, 1), (0, 2), (1, 2)) if p[a] == p[b]), (0, 1))
    t = 3 - a - b
    weights = [_axis_weights(N, float(s)) for s in p]
    shifted = [_axis_cos(N, shift=float(s))[: len(w)] for s, w in zip(p, weights)]
    plain = [_axis_cos(N)[: len(w)] for w in weights]
    if gamma2 == gamma1 and N % 2 == 0 and p[t] == 0.5 and p[a] == p[b] == 0.0:
        # the exchange fold: t keeps i <= N/4 with its image's weight added; N/4 is its own image
        keep = N // 4 + 1
        weights[t] = 2.0 * weights[t][:keep]
        if N % 4 == 0:
            weights[t][-1] /= 2.0
        shifted[t], plain[t] = shifted[t][:keep], plain[t][:keep]
    n = len(weights[t])
    if p[a] == p[b] == p[t]:
        j, i = np.tril_indices(n)
    elif p[a] == p[b]:
        i, j = np.triu_indices(len(weights[a]))
    else:
        i, j = np.indices((len(weights[a]), len(weights[b]))).reshape(2, -1)
    diag = i == j
    # gathered from i, then from j, so that at most one index array and one
    # gathered temporary are live beside the pair arrays
    pair_w, pair_shifted = weights[a][i], shifted[a][i]
    pair_plain = None if gamma2 is None else plain[a][i]
    del i
    pair_w *= weights[b][j]
    pair_shifted += shifted[b][j]
    if gamma2 is not None:
        pair_plain += plain[b][j]
        line2 = np.empty_like(pair_w)
    del j
    if p[a] == p[b] == p[t]:
        last_w = pair_w * np.where(diag, 1.0, 3.0)
        pair_w *= np.where(diag, 3.0, 6.0)
        # index u of the third axis streams the pairs j < u, then the pairs j == u
        starts = [u * (u + 1) // 2 for u in range(n)]
        stops = [(u + 1) * (u + 2) // 2 for u in range(n)]
    else:
        if p[a] == p[b]:
            pair_w *= np.where(diag, 1.0, 2.0)
        last_w = pair_w
        starts = stops = [len(pair_w)] * n
    line = np.empty_like(pair_w)
    total = 0.0
    for wt, cs, cp, start, stop in zip(
        weights[t].tolist(), shifted[t].tolist(), plain[t].tolist(), starts, stops
    ):
        re2 = None if gamma2 is None else np.subtract(3.0 - cp - gamma2, pair_plain[:stop], out=line2[:stop])
        f = _reciprocal_modulus(np.subtract(3.0 - cs - gamma1, pair_shifted[:stop], out=line[:stop]), eps, re2)
        # einsum, not BLAS: a threaded dot would change the sum order with the thread count
        row = float(np.einsum("i,i->", pair_w[:start], f[:start]))
        if start < stop:
            row += float(np.einsum("i,i->", last_w[start:stop], f[start:]))
        total += wt * row
    return total / N**3


def integral_1res(gamma: float, eps: float, N: int) -> float:
    """Torus average of 1/|e - gamma - i eps| (rectangle rule, folded, streamed)."""
    check_probe(gamma, eps, N)
    return _folded_rule((0.0, 0.0, 0.0), eps, N, gamma)


def integral_2res(p, gamma1: float, gamma2: float, eps: float, N: int) -> float:
    """Average of 1/|e(u+p)-gamma1-i eps| * 1/|e(u)-gamma2-i eps| over the grid u.

    p enters through the shifted cosine table, on or off the grid.  Axes
    with p = 0 or 1/2 mod 1 are folded onto their N//2 + 1 distinct cosine
    values.  Two axes with equal p are visited at i <= j only: at
    p = (1/2, 0, 0) the work is n^2 (n + 1) / 2 points, n = N//2 + 1, instead
    of N^3.  When also gamma1 = gamma2 and N is even, the exchange
    u -> -u - p halves axis 0 too: (N/4 + 1) n (n + 1) / 2 points for 4 | N.
    Three equal shifts, as at p = (0, 0, 0) or (1/2, 1/2, 1/2), are
    visited at i <= j <= t only: n (n + 1) (n + 2) / 6 points.
    """
    check_probe(gamma1, eps, N)
    check_probe(gamma2, eps, N)
    return _folded_rule(p, eps, N, gamma1, gamma2)


def _pair_rows(gamma: float, eps: float, N: int):
    """Yield 1/|e - gamma - i eps| at (i, j, t) in 0..N//2, one j at a time: rows t >= j, over i."""
    c = _axis_cos(N)[: N // 2 + 1]
    a = 3.0 - c - gamma
    for j, cj in enumerate(c.tolist()):
        yield _reciprocal_modulus(np.subtract(a, c[j:, None]) - cj, eps)


def _dct1_rows(x: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """scipy.fft.dct(x, type=1) of each row of x (m, n): the real part of numpy's
    real FFT of the even extension x_0..x_{n-1}, x_{n-2}..x_1, built in ext[:m]."""
    m, n = x.shape
    e = ext[:m]
    e[:, :n] = x
    e[:, n:] = x[:, n - 2 : 0 : -1]
    return np.fft.rfft(e).real


def integral_3res(k, gamma1: float, gamma2: float, eps: float, N: int) -> float:
    """Average over (p, q) of |R(p)| |R(q)| |R(p + q + k)|, R = 1/(e - gamma1 - i eps).

    gamma2 must equal gamma1, N must be even and k on the grid: every
    K_j = (k_j mod 1) N exactly an integer.  |R| is even in every axis, so
    for even N its DFT is the DCT-I D of its indices 0..N/2, and the shift
    K is a phase: by Parseval the average is N^-9 sum_xi D(xi)^3
    prod_j m(xi_j) cos(2 pi xi_j K_j / N) over xi in {0..N/2}^3, m = 1 at 0
    and N/2 and 2 elsewhere.  The folded grid and its DCT-I along i are
    symmetric in (j, t), so G holds the latter for the pairs j <= t only.
    Each xi_0 unpacks its slab of G, transforms it along j and t and
    contracts its cube against the axis-1 and axis-2 weights.  The phase is
    even in K: the average at -k, and that of |R(p)| |R(q)| |R(p - q + k)|,
    are equal.
    """
    check_probe(gamma1, eps, N)
    if gamma2 != gamma1:
        raise ValueError(
            f"integral_3res takes one gamma (got gamma1={gamma1}, gamma2={gamma2}): "
            "the spectra are contracted as D^3"
        )
    if N % 2:
        raise ValueError(f"integral_3res needs even N (got N={N}): DCT-I is the DFT of an even sequence only then")
    K = (np.asarray(k, dtype=float) % 1.0) * N
    if not np.all(K == np.rint(K)):
        raise ValueError(
            f"integral_3res needs k on the grid (got (k mod 1) N = {K.tolist()}): Parseval needs an integer shift"
        )
    m = _axis_weights(N, 0.0)
    xi = np.arange(len(m))
    w0, w1, w2 = (m * np.cos(2.0 * np.pi * (xi * Kj % N) / N) for Kj in K.astype(np.int64))
    n = len(m)
    j, t = np.triu_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[j, t] = pair[t, j] = np.arange(len(j))
    G, ext = np.empty((n, len(j))), np.empty((n, 2 * n - 2))
    stop = 0
    for rows in _pair_rows(gamma1, eps, N):
        stop += len(rows)
        G[:, stop - len(rows) : stop] = _dct1_rows(rows, ext).T
    w12 = np.outer(w1, w2)
    slab, buf, total = np.empty_like(w12), np.empty_like(w12), 0.0
    for w, g in zip(w0.tolist(), G):
        # a symmetric slab's rows are its columns: transform along j, transpose, along t;
        # pair is in range, so mode="clip" writes into slab without a buffered copy
        d = _dct1_rows(_dct1_rows(np.take(g, pair, out=slab, mode="clip"), ext).T, ext)
        np.multiply(d, d, out=buf)
        buf *= d
        # einsum, not BLAS: a threaded dot would change the sum order with the thread count
        total += w * float(np.einsum("ij,ij->", w12, buf))
    return total / N**9


def fit_scaling(eps_values, values, polylog_degree: int) -> float:
    """Least-squares slope of log(value / |log eps|^degree) against log(1/eps)."""
    eps_values = tuple(float(e) for e in eps_values)
    values = tuple(float(v) for v in values)
    if len(eps_values) != len(values) or len(eps_values) < 2:
        raise ValueError("need matching eps/value lists with >= 2 points")
    x = np.array([math.log(1.0 / e) for e in eps_values])
    y = np.array(
        [math.log(v / abs(math.log(e)) ** polylog_degree) for v, e in zip(values, eps_values)]
    )
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
