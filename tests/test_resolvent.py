import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sfft

from conftest import run_fresh_python
from kinlab import resolvent
from kinlab.resolvent import (
    _dct1_rows,
    _pair_rows,
    _reciprocal_modulus,
    check_probe,
    fit_scaling,
    integral_1res,
    integral_2res,
    integral_3res,
)

#: the two torus points where the two-resolvent integral degenerates
EXCEPTIONAL_SET = ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))


def dist_to_exceptional(p) -> float:
    """Torus distance from p to the nearest exceptional point."""
    p = np.asarray(p, dtype=float) % 1.0
    best = math.inf
    for q in EXCEPTIONAL_SET:
        d = np.abs(p - np.asarray(q))
        d = np.minimum(d, 1.0 - d)
        best = min(best, float(np.sqrt(np.sum(d * d))))
    return best


def test_probe_invariants():
    with pytest.raises(ValueError):
        check_probe(gamma=8.0, eps=0.1, N=96)
    with pytest.raises(ValueError):
        check_probe(gamma=3.0, eps=0.5, N=96)
    with pytest.raises(ValueError):
        check_probe(gamma=3.0, eps=0.05, N=100)  # below ceil(8/eps) = 160
    check_probe(gamma=3.0, eps=0.05, N=160)


def test_exceptional_set_distance():
    assert dist_to_exceptional((0.0, 0.0, 0.0)) == 0.0
    assert dist_to_exceptional((0.5, 0.5, 0.5)) == 0.0
    assert dist_to_exceptional((0.5, 0.0, 0.0)) == pytest.approx(0.5)
    assert dist_to_exceptional((0.9, 0.0, 0.0)) == pytest.approx(
        math.sqrt(0.1**2), abs=1e-12
    )


def test_modulus_grid_extremes():
    g = _grid_modulus((0.0, 0.0, 0.0), 0.0, 0.1, 96)
    assert g[0, 0, 0] == pytest.approx(1.0 / 0.1, rel=1e-14)
    assert g.max() <= 1.0 / 0.1 + 1e-12
    assert g.min() >= 1.0 / math.sqrt(49 + 0.1**2) - 1e-12
    off = _grid_modulus((0.0, 0.0, 0.0), -1.0, 0.1, 96)
    assert off.max() <= 1.0


def test_modulus_grid_reflection_symmetry():
    g = _grid_modulus((0.0, 0.0, 0.0), 2.0, 0.1, 80)
    assert np.allclose(g, np.roll(g[::-1, ::-1, ::-1], (1, 1, 1), axis=(0, 1, 2)))
    # _pair_rows is the grid at (i, j <= t) on the indices 0..N//2, rows over i (the sum order differs)
    h = 80 // 2
    j, t = np.triu_indices(h + 1)
    packed = np.concatenate(list(_pair_rows(2.0, 0.1, 80)))
    np.testing.assert_allclose(packed, g[: h + 1, j, t].T, rtol=1e-13, atol=0)


def test_1res_off_spectrum_small():
    for eps in (1.0 / 3.0, 0.1, 0.05):
        assert integral_1res(-1.0, eps, max(96, math.ceil(8 / eps))) <= 1.2


def test_1res_monotone_in_eps_fixed_grid():
    vals = [integral_1res(3.0, eps, 288) for eps in (0.1, 0.05, 0.03)]
    assert vals[0] < vals[1] < vals[2]


def test_1res_grid_refinement_stable():
    a = integral_1res(3.0, 0.05, 160)
    b = integral_1res(3.0, 0.05, 320)
    assert abs(a - b) / b < 0.02


def test_2res_exact_substitution_symmetry():
    a = integral_2res((0.25, 0.0, 0.75), 2.0, 4.0, 0.1, 96)
    b = integral_2res((0.75, 0.0, 0.25), 4.0, 2.0, 0.1, 96)
    assert abs(a - b) <= 1e-10 * a


def test_2res_exceptional_enhancement():
    v_exc = integral_2res((0.0, 0.0, 0.0), 3.0, 3.0, 0.02, 512)
    v_reg = integral_2res((0.5, 0.0, 0.0), 3.0, 3.0, 0.02, 512)
    assert v_exc >= 3.0 * v_reg


@pytest.mark.parametrize("n", [2, 3, 17, 65])
def test_dct1_rows_matches_scipy_dct(n):
    # bitwise: both run pocketfft's real FFT on the same even extension of each row
    x = np.random.default_rng(n).standard_normal((7, n))
    ext = np.full((9, 2 * n - 2), np.nan)  # more rows than x: only the first 7 are used
    np.testing.assert_array_equal(_dct1_rows(x, ext), sfft.dct(x, type=1, axis=-1))


def test_integrals_independent_of_blas_threads():
    # sizes where a BLAS dot would split its sum across threads
    code = ("from kinlab.resolvent import integral_1res, integral_2res, integral_3res; "
            "print(repr((integral_1res(3.0, 0.01, 800), "
            "integral_2res((0.5, 0.0, 0.0), 3.0, 3.0, 0.02, 512), "
            "integral_3res((0.25, 0.25, 0.25), 3.0, 3.0, 0.1, 96))))")
    one, two = (run_fresh_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two


def test_3res_factorized_bounds():
    # |R(p + q + k)| <= 1/eps, and the remaining double sum factorizes
    N, eps = 160, 0.05
    v = integral_3res((0.25, 0.25, 0.25), 3.0, 3.0, eps, N)
    i1 = integral_1res(3.0, eps, N)
    assert v <= (1.0 / eps) * i1 * i1 * (1 + 1e-12)


def test_3res_sign_reflection():
    # (p, q) -> (-p, -q) with |R| even: the average is the same at k and -k
    a = integral_3res((0.25, 0.125, 0.75), 3.0, 3.0, 0.1, 96)
    b = integral_3res((0.75, 0.875, 0.25), 3.0, 3.0, 0.1, 96)
    assert abs(a - b) <= 1e-10 * a


@pytest.mark.parametrize(
    "k, gamma2, N, match",
    [
        ((0.25, 0.25, 0.25), 3.0, 81, "even N"),
        ((0.3, 0.1, 0.7), 3.0, 96, "on the grid"),
        ((0.25 + 1e-15, 0.25, 0.25), 3.0, 96, "on the grid"),  # rounds to the grid, is not on it
        ((0.25, 0.25, 0.25), 2.5, 96, "one gamma"),
    ],
    ids=["odd_N", "off_grid", "rounds_to_grid", "distinct_gamma"],
)
def test_3res_rejects_bad_input(k, gamma2, N, match):
    with pytest.raises(ValueError, match=match):
        integral_3res(k, 3.0, gamma2, 0.1, N)


def test_3res_memory_is_folded_on_grid():
    # one folded grid, transformed in place, contracted in (N/2 + 1)^2 slabs
    N = 160
    tracemalloc.start()
    try:
        integral_3res((0.25, 0.25, 0.25), 3.0, 3.0, 0.05, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * N**3 / 4


def test_3res_memory_is_half_grid():
    # the pairs j <= t of the folded grid, transformed along i; each slab is unpacked and contracted alone
    N = 256
    tracemalloc.start()
    try:
        integral_3res((0.25, 0.25, 0.25), 3.0, 3.0, 0.05, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.65 * 8 * (N // 2 + 1) ** 3


def test_3res_axis_permutation():
    # permuting the axes of (p, q) permutes those of k; w1 != w2 here, so the (j, t) unpack must keep its order
    ks = ((0.25, 0.125, 0.5), (0.125, 0.5, 0.25), (0.5, 0.25, 0.125))
    a, b, c = (integral_3res(k, 3.0, 3.0, 0.1, 96) for k in ks)
    assert b == pytest.approx(a, rel=1e-12, abs=0)
    assert c == pytest.approx(a, rel=1e-12, abs=0)


def test_3res_grid_refinement_stable():
    k = (0.25, 0.25, 0.25)
    a = integral_3res(k, 3.0, 3.0, 0.1, 128)
    b = integral_3res(k, 3.0, 3.0, 0.1, 256)
    assert abs(a - b) / b < 0.02


def test_3res_monotone_in_eps_fixed_grid():
    k = (0.25, 0.25, 0.25)
    vals = [integral_3res(k, 3.0, 3.0, eps, 160) for eps in (0.1, 0.05)]
    assert vals[0] < vals[1]


def _integral_1res_2d(gamma: float, eps: float, N: int) -> float:
    """2D analogue of integral_1res on the square torus with e_2D = -cos - cos."""
    c = np.cos(2.0 * np.pi * (np.arange(N) / N))
    re = (-gamma) - c[:, None] - c[None, :]
    return float(np.mean(1.0 / np.sqrt(re**2 + eps**2)))


# ---------------------------------------------------------------------------
# brute-force references: plain sums over the full grid, no folding, no FFT
# ---------------------------------------------------------------------------


def _modulus(cos_sum, gamma, eps):
    """1/|e - gamma - i eps| with e = 3 - (sum of the three cosines)."""
    return 1.0 / np.sqrt((3.0 - gamma - cos_sum) ** 2 + eps**2)


def _grid_modulus(shift, gamma, eps, N):
    """|R_gamma(u + shift)| on the full N^3 grid u in {0, 1/N, ...}^3."""
    u = np.arange(N) / N
    c = [np.cos(2.0 * np.pi * (u + s)) for s in shift]
    return _modulus(c[0][:, None, None] + c[1][None, :, None] + c[2][None, None, :], gamma, eps)


def _brute_3res(k, gamma1, gamma2, gamma3, eps, N, sign):
    """N^-6 sum over all (p, q) of |R1(p)| |R2(q)| |R3(p + sign*q + k)|."""
    R1 = _grid_modulus((0.0, 0.0, 0.0), gamma1, eps, N)
    R2 = _grid_modulus((0.0, 0.0, 0.0), gamma2, eps, N)
    i = np.arange(N)
    # T[a][i_p, i_q] = cos 2pi((i_p + sign*i_q)/N + k_a)
    T = [np.cos(2.0 * np.pi * ((i[:, None] + sign * i[None, :]) / N + ka)) for ka in k]
    total = 0.0
    for p1 in range(N):
        for p2 in range(N):
            # axes (p3, q1, q2, q3)
            s = T[0][p1][None, :, None, None] + T[1][p2][None, None, :, None] + T[2][:, None, None, :]
            total += float(np.sum(R1[p1, p2][:, None, None, None] * R2[None] * _modulus(s, gamma3, eps)))
    return total / N**6


OFF_GRID_P = (0.137, 0.5, 0.61)


@pytest.mark.parametrize("N", [24, 33, 48])
def test_1res_matches_full_grid_sum(N):
    eps = 1.0 / 3.0
    for gamma in (3.0, 1.2):
        ref = float(np.mean(_grid_modulus((0.0, 0.0, 0.0), gamma, eps, N)))
        assert integral_1res(gamma, eps, N) == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("N", [24, 26, 33, 48])  # 26: N/2 odd, so the exchange fixes no index
@pytest.mark.parametrize(
    "p",
    # (0.3, 0.3, 0.1) folds an off-grid pair of axes; (0, 1/2, 0) folds axes 0 and 2;
    # equal shifts on all three axes take the i <= j <= t fold, folded or off the grid;
    # one shift 1/2 and two 0 take the exchange fold on axis 0, 1 or 2 when gamma1 = gamma2
    [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.25, 0.0, 0.75), OFF_GRID_P, (0.3, 0.3, 0.1), (0.0, 0.5, 0.0),
     (0.5, 0.5, 0.5), (0.3, 0.3, 0.3), (0.0, 0.0, 0.5)],
)
def test_2res_matches_full_grid_sum(N, p):
    eps = 1.0 / 3.0
    for gamma1, gamma2 in ((3.0, 3.0), (1.2, 1.2), (2.0, 4.0)):
        ref = float(np.mean(_grid_modulus(p, gamma1, eps, N) * _grid_modulus((0.0, 0.0, 0.0), gamma2, eps, N)))
        assert integral_2res(p, gamma1, gamma2, eps, N) == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "p, gamma2, N, rows",
    [
        ((0.5, 0.0, 0.0), 3.0, 48, 13),  # the exchange keeps axis 0's indices 0..12 of 0..24
        ((0.5, 0.0, 0.0), 2.0, 48, 25),  # gamma1 != gamma2: the exchange changes the summand
        ((0.5, 0.5, 0.0), 3.0, 48, 25),  # the streamed axis 2 has shift 0
        ((0.5, 0.0, 0.0), 3.0, 33, 17),  # odd N: -u - p is off the grid
    ],
    ids=["exchange", "distinct_gamma", "pair_at_half", "odd_N"],
)
def test_2res_streamed_rows(monkeypatch, p, gamma2, N, rows):
    # the rule takes one reciprocal modulus per streamed row of the third axis
    calls = []

    def counting(re, eps, re2=None):
        calls.append(len(re))
        return _reciprocal_modulus(re, eps, re2)

    monkeypatch.setattr(resolvent, "_reciprocal_modulus", counting)
    integral_2res(p, 3.0, gamma2, 1.0 / 3.0, N)
    assert len(calls) == rows


# (N, k, gamma, sign of the reference double sum); integral_3res takes no sign,
# so matching references of both signs shows that the value does not depend on it
THREE_RES_CASES = [
    (24, (0.25, 0.25, 0.25), 3.0, +1),
    (26, (0.5, 3 / 26, 0.0), 2.5, +1),  # N/2 odd
    (24, (0.5, 0.0, 0.75), 3.0, -1),  # components 0 and 1/2
]


@pytest.mark.parametrize(
    "N, k, gamma, sign",
    THREE_RES_CASES,
    ids=[f"k{i}-gammas{i}-{case[-1]}" for i, case in enumerate(THREE_RES_CASES)],
)
def test_3res_matches_double_sum(N, k, gamma, sign):
    eps = 1.0 / 3.0
    ref = _brute_3res(k, gamma, gamma, gamma, eps, N, sign)
    assert integral_3res(k, gamma, gamma, eps, N) == pytest.approx(ref, rel=1e-12, abs=0)


def test_2d_variant_log_band():
    # the 2D analogue carries a |log eps|^2 envelope
    ratios = []
    for eps in (0.1, 0.03, 0.01):
        v = _integral_1res_2d(0.0, eps, max(256, math.ceil(8 / eps)))
        ratios.append(v / math.log(eps) ** 2)
    assert max(ratios) / min(ratios) < 3.0


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


def test_fit_recovers_synthetic_exponent():
    eps = [0.3, 0.1, 0.03, 0.01, 0.003]
    vals = [e**-0.8 * abs(math.log(e)) ** 3 for e in eps]
    # exact power-law data: the fit recovers the exponent to rounding
    assert fit_scaling(eps, vals, 3) == pytest.approx(0.8, abs=1e-10)


def test_fit_constant_values():
    eps = [0.3, 0.1, 0.03, 0.005]
    assert fit_scaling(eps, [1.0] * 4, 0) == pytest.approx(0.0, abs=0.01)


def test_fit_inverse_eps():
    eps = [0.3, 0.1, 0.03, 0.005]
    assert fit_scaling(eps, [1.0 / e for e in eps], 0) == pytest.approx(1.0, abs=0.01)
