import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinlab.lattice import (
    WINDOW_QUANTUM,
    WINDOW_TOL,
    BoxSpec,
    BoxTooSmall,
    TrigPolynomial,
    WaveFunction,
    WkbSpec,
    axis_masses,
    dispersion,
    envelope_tail_mass,
    group_velocity,
    put_window,
    reduce_torus,
    sample_disorder,
    smallest_window,
    take_window,
    wkb_state,
)

from conftest import boxed_state, random_state


# ---------------------------------------------------------------------------
# dispersion and group velocity
# ---------------------------------------------------------------------------


def test_dispersion_reference_points():
    assert dispersion((0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert dispersion((0.5, 0.5, 0.5)) == pytest.approx(6.0, abs=1e-12)
    assert dispersion((0.25, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_dispersion_range_and_symmetry_grid():
    g = np.linspace(0, 1, 17, endpoint=False)
    k = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    e = dispersion(k)
    assert np.all(e >= -1e-12) and np.all(e <= 6 + 1e-12)
    assert np.allclose(e, dispersion(reduce_torus(-k)), atol=1e-12)
    assert np.allclose(dispersion(reduce_torus(0.5 - k)), 6.0 - e, atol=1e-12)


def test_group_velocity_reference_points():
    assert np.allclose(group_velocity((0.0, 0.0, 0.0)), 0.0)
    assert np.allclose(group_velocity((0.25, 0.25, 0.25)), 1.0)


def test_group_velocity_matches_finite_difference(rng):
    h = 1e-5
    for _ in range(20):
        k = rng.random(3)
        fd = np.empty(3)
        for j in range(3):
            kp, km = k.copy(), k.copy()
            kp[j] += h
            km[j] -= h
            fd[j] = (dispersion(kp) - dispersion(km)) / (2 * h) / (2 * np.pi)
        assert np.allclose(group_velocity(k), fd, atol=1e-8)


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_torus_reduce_idempotent(k):
    r = reduce_torus(k)
    assert np.all((0 <= r) & (r < 1))
    assert np.array_equal(reduce_torus(r), r)


# ---------------------------------------------------------------------------
# box and transforms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("side", [3, 2, 5, 7])
def test_box_rejects_odd_or_small(side):
    with pytest.raises(ValueError):
        BoxSpec(side)


# ---------------------------------------------------------------------------
# disorder
# ---------------------------------------------------------------------------


def test_disorder_reproducible_bit_exact():
    box = BoxSpec(16)
    a = sample_disorder(box, 123, 7)
    b = sample_disorder(box, 123, 7)
    assert np.array_equal(a.values, b.values)
    c = sample_disorder(box, 123, 8)
    assert not np.array_equal(a.values, c.values)


def test_disorder_moments():
    box = BoxSpec(32)
    field = sample_disorder(box, 2026, 1)
    n = box.volume
    assert abs(field.values.mean()) < 4.0 / np.sqrt(n)
    assert abs(field.values.var() - 1.0) < 0.05


def one_shot_disorder(box, seed, stream):
    """Box-Muller over the whole stream at once: site i takes words 2i and 2i+1."""
    gen = np.random.Generator(np.random.Philox(key=[seed, stream]))
    u = gen.random(2 * box.volume)
    return np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * np.cos(2.0 * np.pi * u[1::2])


# 66^3 is not a multiple of the chunk, so the last chunk is a partial one
@pytest.mark.parametrize("side", [4, 6, 64, 66])
@pytest.mark.parametrize("stream", [1, 2])
def test_chunked_disorder_matches_one_shot_draw(side, stream):
    box = BoxSpec(side)
    got = sample_disorder(box, 20260810, stream).values
    assert got.tobytes() == one_shot_disorder(box, 20260810, stream).tobytes()


def test_disorder_draw_holds_no_box_sized_temporaries():
    # the 2.1 MB output plus chunk-sized buffers; a one-shot draw peaks at 12.6 MB
    box = BoxSpec(64)
    tracemalloc.start()
    try:
        sample_disorder(box, 2026, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"peak {peak / 1e6:.2f} MB"


def test_disorder_streams_uncorrelated():
    box = BoxSpec(32)
    a = sample_disorder(box, 2026, 1).values
    b = sample_disorder(box, 2026, 2).values
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(box.volume)


# ---------------------------------------------------------------------------
# WKB states
# ---------------------------------------------------------------------------


def test_wkb_zero_phase_real_nonnegative():
    spec = WkbSpec(sigma=0.5)
    psi = wkb_state(spec, 0.25, BoxSpec(32))
    assert np.max(np.abs(psi.values.imag)) == 0.0
    assert np.min(psi.values.real) >= 0.0


def test_wkb_norm_converges_to_envelope_mass():
    # raw Riemann-sum norm of eta^(3/2) h(eta x) on the box wkb_state samples,
    # at a fixed box-to-envelope ratio: eta L = 6.4, sigma = 0.5
    spec = WkbSpec(sigma=0.5)
    norms = []
    for eta, L in [(0.16, 40), (0.08, 80), (0.04, 160)]:
        coord = BoxSpec(L).site_coordinates() * eta
        X = np.stack(np.meshgrid(coord, coord, coord, indexing="ij"), axis=-1)
        norms.append(float(np.linalg.norm(eta**1.5 * spec.envelope(X))))
    assert abs(norms[-1] - 1.0) < 0.01
    assert abs(norms[-1] - 1.0) <= abs(norms[0] - 1.0) + 1e-12


def test_wkb_norm_capped_at_one():
    for eta in (0.04, 0.1, 0.3):
        psi = wkb_state(WkbSpec(sigma=0.5), eta, BoxSpec(64) if eta > 0.05 else BoxSpec(160))
        assert psi.norm() <= 1.0 + 1e-12


def full_grid_wkb_values(spec, eta, box):
    """The state sampled on the whole L^3 x 3 coordinate grid, before the norm cap."""
    coord = box.site_coordinates() * eta
    X = np.stack(np.meshgrid(coord, coord, coord, indexing="ij"), axis=-1)
    amp = eta**1.5 * spec.envelope(X)
    return amp * np.exp(1j * spec.phase(X) / eta)


@pytest.mark.parametrize(
    "spec",
    [
        WkbSpec(sigma=0.35, linear=(1.5707963, 0.0, 0.0)),
        WkbSpec(sigma=0.35, linear=(1.5707963, 0.0, 0.0),
                trig=TrigPolynomial.from_dict({(1, 0, 0): (0.02, 0.0)})),
        WkbSpec(center=(0.1, -0.2, 0.05), sigma=0.5, linear=(0.3, 1.1, -0.7),
                trig=TrigPolynomial.from_dict({(1, 2, 0): (0.1, 0.03), (0, 0, 1): (0.0, 0.2)})),
    ],
    ids=["bench", "bench_trig", "offcentre"],
)
@pytest.mark.parametrize("eta, side", [(0.36, 20), (0.2025, 64), (0.36, 64)])
def test_wkb_slabs_match_full_grid(spec, eta, side):
    # the window's sites are the full-box sample's, and the sample's norm off
    # the window is within WINDOW_TOL of the state's
    box = BoxSpec(side)
    psi = wkb_state(spec, eta, box)
    full = full_grid_wkb_values(spec, eta, box)
    want = take_window(full, psi.offsets, (psi.side,) * 3)
    n = WaveFunction(box, want.ravel(), psi.side, psi.offsets).norm()
    if n > 1.0:
        want /= n
        full /= n
    assert np.array_equal(psi.grid(), want)
    off = np.roll(full, [-o for o in psi.offsets], axis=(0, 1, 2))
    off[: psi.side, : psi.side, : psi.side] = 0
    assert np.linalg.norm(off) <= WINDOW_TOL * psi.norm()
    if side == 64:
        assert psi.side < side


def test_wkb_memory_one_grid():
    # the L^3 x 3 coordinate array alone would be 1.5 complex grids
    box = BoxSpec(48)
    spec = WkbSpec(sigma=0.35, linear=(1.5707963, 0.0, 0.0))
    wkb_state(spec, 0.2025, box)
    tracemalloc.start()
    try:
        wkb_state(spec, 0.2025, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 16 * box.volume
    assert peak < 1.25 * grid, f"peak {peak / grid:.2f} grids"


def test_wkb_box_too_small():
    with pytest.raises(BoxTooSmall):
        wkb_state(WkbSpec(sigma=2.0), 0.1, BoxSpec(16))
    assert envelope_tail_mass(WkbSpec(sigma=2.0), 0.1, BoxSpec(16)) > 1e-8


def test_wkb_momentum_concentration():
    # linear phase p=(1/4,0,0): momentum mass near grad S / (2 pi) = (1/(8 pi), 0, 0)
    spec = WkbSpec(sigma=0.5, linear=(0.25, 0.0, 0.0))
    eta, L = 0.04, 160
    psi_hat = np.fft.fftn(wkb_state(spec, eta, BoxSpec(L)).box_grid())
    k_pred = spec.local_momentum(np.zeros(3))
    grid = np.arange(L) / L
    d = [np.minimum(np.abs(grid - k_pred[j]), 1 - np.abs(grid - k_pred[j])) for j in range(3)]
    dist = np.sqrt(
        d[0][:, None, None] ** 2 + d[1][None, :, None] ** 2 + d[2][None, None, :] ** 2
    )
    mass = np.abs(psi_hat) ** 2
    frac = mass[dist <= 10 * eta].sum() / mass.sum()
    assert frac >= 0.95


def test_trig_polynomial_gradient_matches_fd(rng):
    trig = TrigPolynomial.from_dict({(1, 0, 0): (0.3, -0.1), (0, 2, 1): (0.0, 0.2)})
    spec = WkbSpec(sigma=0.5, linear=(0.4, 0.0, -0.2), trig=trig)
    h = 1e-6
    for _ in range(10):
        X = rng.normal(size=3)
        fd = np.empty(3)
        for j in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[j] += h
            Xm[j] -= h
            fd[j] = (spec.phase(Xp) - spec.phase(Xm)) / (2 * h)
        assert np.allclose(spec.phase_gradient(X), fd, atol=1e-6)


# ---------------------------------------------------------------------------
# cyclic windows
# ---------------------------------------------------------------------------


def rolled_window(grid, offsets, shape):
    """np.roll reference for the cyclic window of `shape` at `offsets`."""
    rolled = np.roll(grid, [-o for o in offsets], axis=(0, 1, 2))
    return rolled[tuple(slice(0, n) for n in shape)]


@pytest.mark.parametrize(
    "offsets, shape",
    [((9, 0, 11), (5, 12, 3)), ((3, 4, 5), (2, 2, 2)), ((11, 11, 11), (12, 12, 12))],
    ids=["wraps", "inside", "whole-box-wrapped"],
)
def test_take_and_put_window_match_roll(offsets, shape, rng):
    L = 12
    grid = rng.normal(size=(L, L, L)) + 1j * rng.normal(size=(L, L, L))
    win = take_window(grid, offsets, shape)
    assert np.array_equal(win, rolled_window(grid, offsets, shape))
    placed = put_window(win, offsets, np.zeros_like(grid))
    corner = np.zeros_like(grid)
    corner[tuple(slice(0, n) for n in shape)] = win
    assert np.array_equal(placed, np.roll(corner, offsets, axis=(0, 1, 2)))
    assert np.array_equal(take_window(placed, offsets, shape), win)


@pytest.mark.parametrize("n", [5, 8, 13, 56])
def test_axis_masses_match_direct_sums(n, rng):
    # lengths below, at, between and at a multiple of the scan's slab chunk
    grid = rng.normal(size=(n, 7, 6)) + 1j * rng.normal(size=(n, 7, 6))
    sq = np.abs(grid) ** 2
    for axis, m in enumerate(axis_masses(grid)):
        others = tuple(a for a in range(3) if a != axis)
        np.testing.assert_allclose(m, sq.sum(axis=others), rtol=1e-13)


def check_smallest_window(grid, share):
    """smallest_window's (W, offsets) for `grid`, checked against brute force:
    the part of `grid` off the window has norm within `share`, and for no
    smaller side does any choice of offsets bring the marginal bound within it."""
    L = len(grid)
    masses = axis_masses(grid)
    W, offsets = smallest_window(masses, L, share)
    off = np.roll(grid, [-o for o in offsets], axis=(0, 1, 2))
    off[:W, :W, :W] = 0
    assert np.linalg.norm(off) <= share
    for smaller in range(WINDOW_QUANTUM, W, WINDOW_QUANTUM):
        least = [min(float(np.roll(m, -o)[smaller:].sum()) for o in range(L)) for m in masses]
        assert math.sqrt(sum(least)) > share
    return W, offsets


@pytest.mark.parametrize("shift", [(0, 0, 0), (7, -3, 16)])
@pytest.mark.parametrize("share", [1e-6, 1e-12])
def test_smallest_window_fits_share_on_packet(shift, share):
    # the centred packet wraps index 0 on every axis
    L = 32
    packet = wkb_state(WkbSpec(sigma=0.35, linear=(1.5707963, 0.0, 0.0)), 0.36, BoxSpec(L))
    W, offsets = check_smallest_window(np.roll(packet.box_grid(), shift, axis=(0, 1, 2)), share)
    assert W < L
    if shift == (0, 0, 0):
        assert all(o + W > L for o in offsets)


@pytest.mark.parametrize(
    "offsets, shape, side",
    [((29, 30, 2), (9, 5, 12), 16), ((31, 0, 20), (8, 1, 3), 8), ((5, 20, 0), (17, 2, 2), 24)],
    ids=["wraps-two-axes", "wraps-one-axis", "long-axis"],
)
def test_smallest_window_share_zero_holds_every_nonzero_site(offsets, shape, side, rng):
    L = 32
    grid = boxed_state(BoxSpec(L), offsets, shape, rng).grid()
    W, win = check_smallest_window(grid, 0.0)
    assert W == side
    inside = take_window(grid, win, (W, W, W))
    assert np.count_nonzero(inside) == np.count_nonzero(grid)


def test_smallest_window_of_zero_state_and_state_without_zeros(rng):
    box = BoxSpec(32)
    zero = np.zeros((32, 32, 32), dtype=complex)
    assert smallest_window(axis_masses(zero), box.side, 0.0)[0] == WINDOW_QUANTUM
    full = random_state(box, rng).grid()
    assert smallest_window(axis_masses(full), box.side, 0.0) == (box.side, (0, 0, 0))
