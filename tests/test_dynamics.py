import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinlab import dynamics
from kinlab.dynamics import (
    WINDOW_TOL,
    PropagatorConfig,
    duhamel_ladder,
    duhamel_residuals,
    evolve_full,
    free_phase,
    kick_phase,
)
from kinlab.lattice import BoxSpec, DisorderField, WaveFunction, WkbSpec, sample_disorder, wkb_state
from kinlab.wigner import pair_wigner

from conftest import (
    DimensionTooLarge,
    dense_hamiltonian,
    evolve_dense,
    evolve_free,
    make_observable,
    random_state,
    two_grid_duhamel_ladder,
)


@pytest.fixture
def small_system(rng):
    box = BoxSpec(8)
    return box, sample_disorder(box, 99, 0), random_state(box, rng)


# ---------------------------------------------------------------------------
# free evolution
# ---------------------------------------------------------------------------


def test_free_t0_identity(small_system):
    box, V, psi = small_system
    out = evolve_free(psi, 0.0)
    assert np.array_equal(out.values, psi.values)


def test_free_plane_wave_eigenstate():
    box = BoxSpec(8)
    L = box.side
    x = np.arange(L)
    pw = np.exp(2j * np.pi * x[:, None, None] / 4.0) * np.ones((L, L, L))
    pw = pw.ravel() / np.linalg.norm(pw)
    out = evolve_free(WaveFunction(box, pw), 1.0)
    # k0 = (1/4, 0, 0), e(k0) = 1: global phase exp(-i)
    assert np.max(np.abs(out.values - np.exp(-1j) * pw)) < 1e-12


def test_free_norm_drift_1000_applications(small_system):
    box, V, psi = small_system
    out = psi
    for _ in range(1000):
        out = evolve_free(out, 0.37)
    assert abs(out.norm() - psi.norm()) < 1e-10


# ---------------------------------------------------------------------------
# full evolution
# ---------------------------------------------------------------------------


def test_full_lam_zero_matches_free(small_system):
    box, V, psi = small_system
    a = evolve_full(psi, V, 0.0, 0.7, PropagatorConfig(dt=0.01))
    b = evolve_free(psi, 0.7)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_full_matches_dense_oracle(rng):
    box = BoxSpec(4)
    V = sample_disorder(box, 42, 0)
    psi = random_state(box, rng)
    errs = []
    for dt in (1e-3, 5e-4):
        a = evolve_full(psi, V, 0.5, 1.0, PropagatorConfig(dt=dt))
        b = evolve_dense(psi, V, 0.5, 1.0)
        errs.append(np.linalg.norm(a.values - b.values))
    assert errs[0] <= 1e-5
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@given(
    dt=st.floats(0.005, 0.5),
    t=st.floats(0.0, 2.0),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    stream=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_full_unitarity_any_dt(dt, t, lam, stream):
    # at most 400 steps: the rounding drift stays far below the gate
    box = BoxSpec(8)
    V = sample_disorder(box, 5, stream)
    psi = random_state(box, np.random.default_rng(stream))
    out = evolve_full(psi, V, lam, t, PropagatorConfig(dt=dt))
    assert abs(out.norm() - 1.0) < 1e-12
    if lam == 0.0:
        assert np.max(np.abs(out.values - evolve_free(psi, t).values)) < 1e-12


def test_full_gauge_shift_constant(rng):
    box = BoxSpec(8)
    V = sample_disorder(box, 5, 2)
    psi = random_state(box, rng)
    c, lam, t = 0.41, 0.5, 0.9
    shifted = DisorderField(box, V.values + c)
    a = evolve_full(psi, V, lam, t, PropagatorConfig(dt=0.01))
    b = evolve_full(psi, shifted, lam, t, PropagatorConfig(dt=0.01))
    overlap = np.vdot(a.values, b.values)
    assert abs(abs(overlap) - 1.0) < 1e-10
    assert abs(overlap - np.exp(-1j * lam * c * t)) < 1e-9


def per_step_exp_reference(psi, V, lam, t, dt):
    """The split step with both phases rebuilt on every step.

    The free phase exp(-i s e) is exp(-3is) times the outer product of
    a = exp(i s cos 2 pi k) over the three axes, and the kick exp(-i x V) is
    cos(-x V) + i sin(-x V): the same formulas as the propagator's builders,
    written out here so that the bitwise gate checks only how `evolve_full`
    merges and reuses them.
    """
    n_full = int(math.floor(t / dt + 1e-12))
    rem = t - n_full * dt
    steps = [dt] * n_full
    if rem > 1e-12 * max(t, dt):
        steps.append(rem)
    if not steps:
        return psi.values.copy()
    L = psi.box.side
    c = np.cos(2.0 * np.pi * (np.arange(L) / L))
    vgrid = V.values.reshape(L, L, L)

    def free(s):
        a = np.exp(1j * s * c)
        return (np.exp(-3j * s) * a)[:, None, None] * (a[:, None] * a)

    def kick(x):
        arg = -x * vgrid
        return np.cos(arg) + 1j * np.sin(arg)

    work = np.fft.fftn(psi.grid())
    work *= free(0.5 * steps[0])
    for j, h in enumerate(steps):
        work = np.fft.ifftn(work)
        work *= kick(h * lam)
        work = np.fft.fftn(work)
        if j + 1 < len(steps):
            work *= free(0.5 * (h + steps[j + 1]))
        else:
            work *= free(0.5 * h)
    return np.fft.ifftn(work).ravel()


@pytest.mark.parametrize("side", [4, 12, 16, 64])
def test_phase_builders_match_exp(side):
    box = BoxSpec(side)
    c = np.cos(2.0 * np.pi * np.arange(side) / side)
    e = 3.0 - (c[:, None, None] + c[None, :, None] + c[None, None, :])
    # 1e-3 and 0.01 are the ladder's steps: the [duhamel] default dt and the tests' dt
    for s in np.linspace(-3.0, 3.0, 25).tolist() + [0.025, 0.05, 1e-3, 0.01]:
        assert np.max(np.abs(free_phase(box, s) - np.exp(-1j * s * e))) <= 1e-14
    vgrid = sample_disorder(box, 11, 3).values.reshape(side, side, side)
    for h, lam in [(0.05, 0.6), (0.05, 0.45), (0.03, 0.3), (0.1, 1.0), (0.1, 0.0)]:
        want = np.exp(-1j * h * lam * vgrid)
        assert np.max(np.abs(kick_phase(vgrid, h * lam) - want)) <= 2.3e-16


@pytest.mark.parametrize("lam", [0.0, 0.6])
@pytest.mark.parametrize(
    "t",
    [0.0, 0.03, 0.1, 0.2, 0.7, 0.75, 1.23],
    ids=["zero", "short_only", "one_step", "two_steps", "multiple", "remainder", "many_remainder"],
)
def test_full_bitwise_matches_per_step_exp(t, lam, rng):
    # 12 is not a power of two, so a 1/L^3 folded anywhere would round differently
    for side in (16, 12):
        box = BoxSpec(side)
        V = sample_disorder(box, 11, 3)
        psi = random_state(box, rng)
        dt = 0.1
        out = evolve_full(psi, V, lam, t, PropagatorConfig(dt=dt))
        assert np.array_equal(out.values, per_step_exp_reference(psi, V, lam, t, dt))


@pytest.mark.parametrize("t", [0.0, 0.25], ids=["zero", "short_last_step"])
def test_full_leaves_input_untouched(t, rng):
    box = BoxSpec(8)
    V = sample_disorder(box, 11, 3)
    psi = random_state(box, rng)
    before = psi.values.copy()
    out = evolve_full(psi, V, 0.6, t, PropagatorConfig(dt=0.1))
    assert np.array_equal(psi.values, before)
    assert not np.shares_memory(out.values, psi.values)


def test_phase_builders_write_into_out():
    box = BoxSpec(12)
    vgrid = sample_disorder(box, 11, 3).values.reshape(12, 12, 12)
    buf = np.empty((12, 12, 12), dtype=np.complex128)
    for build, args in ((free_phase, (box, 0.035)), (kick_phase, (vgrid, 0.6 * 0.07))):
        fresh = build(*args)
        assert build(*args, out=buf) is buf
        assert np.array_equal(buf, fresh)


def test_full_memory_three_grids(rng):
    # a dt step and a remainder step: both phases are rebuilt once, in place
    box = BoxSpec(32)
    V = sample_disorder(box, 5, 1)
    psi = random_state(box, rng)
    args = (psi, V, 0.3, 0.08, PropagatorConfig(dt=0.05))
    evolve_full(*args)  # numpy's FFT plan cache is filled outside the trace
    tracemalloc.start()
    try:
        evolve_full(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 16 * box.volume
    assert peak < 3.6 * grid, f"peak {peak / grid:.2f} grids"


# ---------------------------------------------------------------------------
# window propagator
# ---------------------------------------------------------------------------

# the benchmark's packet: sigma/eta = 0.97 sites at lambda = 0.6
PACKET = WkbSpec(sigma=0.35, linear=(1.5707963, 0.0, 0.0))
LAM = 0.6


def window_sides(monkeypatch):
    """The box side of every free phase `evolve_full` builds, in order."""
    sides = []

    def recorded(box, s, out=None):
        sides.append(box.side)
        return free_phase(box, s, out=out)

    monkeypatch.setattr(dynamics, "free_phase", recorded)
    return sides


def check_window_run(psi, V, lam, t, dt):
    """evolve_full against the full-box per-step reference: distance and norm drift."""
    out = evolve_full(psi, V, lam, t, PropagatorConfig(dt=dt))
    want = per_step_exp_reference(psi, V, lam, t, dt)
    dist = np.linalg.norm(out.values - want)
    assert dist <= WINDOW_TOL * psi.norm(), f"distance {dist:.2e}"
    assert abs(out.norm() - psi.norm()) <= 1e-12
    return out


def cyclic_support(grid, axis):
    """Number of indices on `axis` where `grid` has a nonzero entry."""
    others = tuple(a for a in range(3) if a != axis)
    return int(np.count_nonzero(np.abs(grid).max(axis=others)))


def test_window_localized_packet_matches_full_box(monkeypatch):
    box = BoxSpec(48)
    psi = wkb_state(PACKET, LAM**2, box)
    V = sample_disorder(box, 7, 1)
    sides = window_sides(monkeypatch)
    out = check_window_run(psi, V, LAM, 1.0, 0.05)
    assert max(sides) < box.side
    # the window wraps index 0 on every axis and is zero outside
    for axis in range(3):
        assert cyclic_support(out.grid(), axis) <= max(sides)
    assert out.grid()[0, 0, 0] != 0 and out.grid()[-1, -1, -1] != 0
    assert out.grid()[24, 24, 24] == 0


@pytest.mark.parametrize("shift", [(24, 0, 0), (24, 24, 24), (5, -9, 17)])
def test_window_follows_packet_across_the_box(shift, monkeypatch):
    # the centred packet rolled to the box edge (24 of 48) and elsewhere: the
    # window takes its offsets from the marginals, wherever the packet sits
    box = BoxSpec(48)
    grid = np.roll(wkb_state(PACKET, LAM**2, box).grid(), shift, axis=(0, 1, 2))
    psi = WaveFunction(box, grid.ravel())
    V = sample_disorder(box, 7, 2)
    sides = window_sides(monkeypatch)
    out = check_window_run(psi, V, LAM, 1.0, 0.05)
    assert max(sides) < box.side
    assert out.grid()[shift] != 0
    for axis in range(3):
        assert cyclic_support(out.grid(), axis) <= max(sides)


def test_window_grows_during_run(monkeypatch):
    box = BoxSpec(48)
    psi = wkb_state(PACKET, LAM**2, box)
    V = sample_disorder(box, 7, 3)
    sides = window_sides(monkeypatch)
    check_window_run(psi, V, LAM, 1.4, 0.05)
    assert sides == sorted(sides)
    assert sides[0] < sides[-1] < box.side


def test_window_grows_to_the_box(monkeypatch):
    # the packet starts on a window of 32 and outgrows it within the run
    box = BoxSpec(40)
    psi = wkb_state(PACKET, LAM**2, box)
    V = sample_disorder(box, 7, 4)
    sides = window_sides(monkeypatch)
    out = check_window_run(psi, V, LAM, 3.0, 0.1)
    assert sides[0] < box.side == sides[-1]
    assert np.all(out.values != 0)


def test_window_fills_box_for_random_state(rng, monkeypatch):
    box = BoxSpec(16)
    V = sample_disorder(box, 7, 5)
    psi = random_state(box, rng)
    sides = window_sides(monkeypatch)
    evolve_full(psi, V, 0.6, 0.3, PropagatorConfig(dt=0.1))
    assert set(sides) == {box.side}


@pytest.mark.parametrize("s", [0.005, 0.05, 0.5, 3.0])
@pytest.mark.parametrize("W", [8, 40])
def test_face_weights_bound_bessel_tails(W, s):
    # c(p)/2 bounds the kernel mass sum |J_n(s)| of the moves that leave the window
    from scipy.special import jv

    c, C = dynamics._face_weights(W, s)
    n = np.arange(200)
    absj = np.abs(jv(n, s))
    tail = np.cumsum(absj[::-1])[::-1]  # tail[d] = sum_{n >= d} |J_n(s)|
    p = np.arange(W)
    assert np.all(0.5 * c >= tail[p + 1] + tail[W - p])
    assert C == pytest.approx(c.sum(), rel=1e-15)


def test_window_memory_below_three_grids():
    # a localized run holds four window grids (40^3), then the box-sized result
    box = BoxSpec(64)
    psi = wkb_state(PACKET, LAM**2, box)
    V = sample_disorder(box, 7, 1)
    args = (psi, V, LAM, 1.0, PropagatorConfig(dt=0.05))
    evolve_full(*args)  # numpy's FFT plan cache is filled outside the trace
    tracemalloc.start()
    try:
        evolve_full(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 16 * box.volume
    assert peak < 1.5 * grid, f"peak {peak / grid:.2f} grids"


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------


def test_dense_lam_zero_matches_free(rng):
    box = BoxSpec(4)
    V = sample_disorder(box, 1, 1)
    psi = random_state(box, rng)
    a = evolve_dense(psi, V, 0.0, 1.3)
    b = evolve_free(psi, 1.3)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_dense_unitary_group_property(rng):
    box = BoxSpec(4)
    V = sample_disorder(box, 1, 1)
    psi = random_state(box, rng)
    phi = random_state(box, rng)
    t = 0.8
    fwd = evolve_dense(psi, V, 0.5, t)
    adj = evolve_dense(phi, V, 0.5, -t)  # e^{+itH} phi
    # <phi, e^{-itH} psi> = conj(<psi, e^{+itH} phi>) for hermitian H
    lhs = np.vdot(phi.values, fwd.values)
    rhs = np.conj(np.vdot(psi.values, adj.values))
    assert abs(lhs - rhs) < 1e-10


def test_dense_short_time_taylor(rng):
    box = BoxSpec(4)
    V = sample_disorder(box, 1, 1)
    psi = random_state(box, rng)
    lam, t = 0.5, 1e-3
    H = dense_hamiltonian(box, V, lam)
    out = evolve_dense(psi, V, lam, t)
    taylor = psi.values - 1j * t * (H @ psi.values)
    h_norm = 6.0 + lam * np.max(np.abs(V.values))
    assert np.linalg.norm(out.values - taylor) <= 10 * t**2 * h_norm**2


def test_dense_dimension_guard(rng):
    box = BoxSpec(16)
    V = sample_disorder(box, 1, 1)
    psi = random_state(box, rng)
    with pytest.raises(DimensionTooLarge):
        evolve_dense(psi, V, 0.1, 0.1, max_dim=1024)


# ---------------------------------------------------------------------------
# expansion ladder
# ---------------------------------------------------------------------------


def test_duhamel_order_zero_is_free(small_system):
    box, V, psi = small_system
    t0 = duhamel_ladder(0, 1.5, psi, V, 0.4, 0.01)[0]
    free = evolve_free(psi, 1.5)
    assert np.max(np.abs(t0.values - free.values)) < 1e-12


@pytest.mark.parametrize("t", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("N", [0, 3])
def test_duhamel_matches_two_grid_reference(N, t, small_system):
    box, V, psi = small_system
    got = duhamel_ladder(N, t, psi, V, 0.3, 0.01)
    want = two_grid_duhamel_ladder(N, t, psi, V, 0.3, 0.01)
    assert len(got) == len(want) == N + 1
    for a, b in zip(got, want):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "dt, side, message",
    [(-0.5, 8, "dt must be positive"), (0.0, 8, "dt must be positive"), (0.01, 4, "different boxes")],
    ids=["negative_dt", "zero_dt", "other_box"],
)
def test_duhamel_rejects_bad_input(dt, side, message, small_system):
    box, V, psi = small_system
    if side != box.side:
        V = sample_disorder(BoxSpec(side), 99, 0)
    with pytest.raises(ValueError, match=message):
        duhamel_ladder(2, 1.0, psi, V, 0.3, dt)


def test_duhamel_memory_independent_of_time_grid(rng):
    # 2000 grid times at L = 16: a (m+1) x L^3 complex grid alone is 131 MB
    box = BoxSpec(16)
    V = sample_disorder(box, 5, 1)
    psi = random_state(box, rng)
    tracemalloc.start()
    try:
        duhamel_ladder(4, 2.0, psi, V, 0.3, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_duhamel_lambda_homogeneity(small_system):
    box, V, psi = small_system
    for n in (1, 2, 3):
        a = duhamel_ladder(n, 1.0, psi, V, 0.2, 0.01)[n]
        b = duhamel_ladder(n, 1.0, psi, V, 0.4, 0.01)[n]
        assert np.max(np.abs(a.values - (0.2 / 0.4) ** n * b.values)) < 1e-10


def test_duhamel_quadrature_second_order(small_system):
    box, V, psi = small_system
    terms = {}
    for dt in (0.02, 0.01, 0.005):
        terms[dt] = duhamel_ladder(1, 1.0, psi, V, 0.3, dt)[1]
    d1 = np.linalg.norm(terms[0.02].values - terms[0.01].values)
    d2 = np.linalg.norm(terms[0.01].values - terms[0.005].values)
    assert 3.0 <= d1 / d2 <= 5.0


def test_remainder_shrinks_with_order(rng):
    box = BoxSpec(8)
    V = sample_disorder(box, 7, 3)
    psi = random_state(box, rng)
    r = duhamel_residuals(3, 1.5, psi, V, 0.3, PropagatorConfig(dt=2e-3))
    assert r[3] < r[1]


def test_remainder_lam_zero_below_quadrature_tol(rng):
    box = BoxSpec(8)
    V = sample_disorder(box, 7, 3)
    psi = random_state(box, rng)
    r = duhamel_residuals(0, 1.0, psi, V, 0.0, PropagatorConfig(dt=1e-3))
    assert r[0] < 1e-10


def test_remainder_rejects_negative_order(small_system):
    box, V, psi = small_system
    with pytest.raises(ValueError):
        duhamel_residuals(-1, 1.0, psi, V, 0.1, PropagatorConfig(dt=0.01))


def test_first_order_wigner_scales_as_lambda_squared(rng):
    # disorder average of <J, W[phi_1]> over 32 realizations: log-log slope 2
    box = BoxSpec(16)
    psi = random_state(box, rng)
    J = make_observable(sigma=(1.0, 1.0, 1.0))
    lams = (0.1, 0.2, 0.4)
    eta = 0.3
    means = []
    for lam in lams:
        vals = []
        for i in range(32):
            V = sample_disorder(box, 555, i)
            term = duhamel_ladder(1, 1.0, psi, V, lam, 0.02)[1]
            vals.append(abs(pair_wigner(J, term, eta).value))
        means.append(np.mean(vals))
    slope = np.polyfit(np.log(lams), np.log(means), 1)[0]
    assert abs(slope - 2.0) <= 0.2
