import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import erfc

from kinlab.dynamics import PropagatorConfig, evolve_full
from kinlab.lattice import (
    BoxSpec,
    WaveFunction,
    WkbSpec,
    axis_masses,
    sample_disorder,
    smallest_window,
    take_window,
    wkb_state,
)
from kinlab.wigner import (
    AXIS_TAIL_FRACTION,
    GAUSS_TAIL_THRESHOLD,
    ResolutionTooCoarse,
    _axis_gauss_abs,
    _axis_table,
    _contract,
    pair_wigner,
    pair_wigner_bilinear,
    wkb_limit_sampler,
)

from conftest import (
    boxed_state,
    cj_constant,
    make_observable,
    random_state,
    velocity_max_abs,
    window_sides,
)


def oracle_pairing(J, phi, psi, eta):
    """Independent position-space double sum:

    sum over velocity harmonics m and sites z of
    conj(g(eta (z + m/2))) conj(c_m) conj(phi(z+m)) psi(z)
    with z in centered coordinates and periodic site lookup.
    """
    L = phi.box.side
    coord = phi.box.site_coordinates()
    pg, sg = phi.grid(), psi.grid()
    idx = np.arange(L)
    X = [coord[:, None, None], coord[None, :, None], coord[None, None, :]]
    total = 0.0 + 0.0j
    for m, cm in J.coeffs:
        shifted = pg[np.ix_((idx + m[0]) % L, (idx + m[1]) % L, (idx + m[2]) % L)]
        mid = np.stack(
            np.broadcast_arrays(X[0] + m[0] / 2.0, X[1] + m[1] / 2.0, X[2] + m[2] / 2.0),
            axis=-1,
        )
        total += np.conj(cm) * np.sum(np.conj(J.spatial(eta * mid)) * np.conj(shifted) * sg)
    return total


def is_real(J) -> bool:
    """h(V) is real-valued: every harmonic m has c_(-m) = conj(c_m)."""
    table = dict(J.coeffs)
    for m, c in table.items():
        mm = tuple(-x for x in m)
        if mm not in table or abs(np.conj(table[mm]) - c) > 1e-14 * max(1.0, abs(c)):
            return False
    return True


def momentum_reference(J, phi, psi, eta):
    """The pairing evaluated in momentum space, one correlation FFT per harmonic.

    Same tail cutoff, periodization estimate and truncation bound as
    `pair_wigner_bilinear`, with the xi sum taken over the momentum-grid
    correlation sum_a conj(phi^(a)) psi^(a + xi) e^(-2 pi i m.a) instead of the
    position-space product.  Returns (value, truncation_error).
    """
    side = psi.box.side
    coords = psi.box.site_coordinates()
    volume = side**3
    # unitary momentum amplitudes; array index i holds x = i - L/2, so the
    # lattice Fourier sum over x is (-1)^k per axis times fftn of the array
    sign = (-1.0) ** np.arange(side)
    parity = sign[:, None, None] * sign[:, None] * sign
    Fphi = np.fft.fftn(phi.box_grid()) / math.sqrt(volume)
    Fpsi = np.fft.fftn(psi.box_grid()) / math.sqrt(volume)
    fft_psi = np.fft.fftn(Fpsi * parity)
    abs_phi = np.abs(np.fft.ifftn(Fphi)) * math.sqrt(volume)
    abs_psi = np.abs(np.fft.ifftn(Fpsi)) * math.sqrt(volume)

    value = 0.0 + 0.0j
    coeff_l1 = 0.0
    alias_total = 0.0
    for m, cm in J.coeffs:
        coeff_l1 += abs(cm)
        tabs = [_axis_table(J, eta, side, ax, m[ax]) for ax in range(3)]

        phases = [np.exp(2j * np.pi * m[ax] * np.arange(side) / side) for ax in range(3)]
        G = Fphi * parity * phases[0][:, None, None] * phases[1][None, :, None] * phases[2][None, None, :]
        corr = np.fft.ifftn(np.conj(np.fft.fftn(G)) * fft_psi)
        value += np.conj(cm) * np.einsum("i,j,k,ijk->", *tabs, corr)

        q = abs_psi * np.roll(abs_phi, tuple(-c for c in m), axis=(0, 1, 2))
        central = [_axis_gauss_abs(J, eta, coords, ax, m[ax] / 2.0, 0) for ax in range(3)]
        for ax in range(3):
            for image in (-1, 1):
                vecs = list(central)
                vecs[ax] = _axis_gauss_abs(J, eta, coords, ax, m[ax] / 2.0, image)
                alias_total += abs(cm) * float(np.einsum("ijk,i,j,k->", q, *vecs))
    value /= volume

    trunc = (
        float(np.linalg.norm(Fphi))
        * float(np.linalg.norm(Fpsi))
        * coeff_l1
        * abs(J.amplitude)
        * (3.0 * AXIS_TAIL_FRACTION)
        + 2.0 * alias_total
    )
    return value, trunc


@pytest.mark.parametrize("eta", [0.09, 0.2025, 0.36])
@pytest.mark.parametrize("sigma", [0.35, 0.8, 1.0])
def test_axis_tail_fraction_independent_of_eta_and_sigma(eta, sigma):
    # the Gaussian factor's mass beyond the per-axis cutoff, as the pairing defines it
    cutoff = (eta / (2.0 * math.pi * sigma)) * math.sqrt(2.0 * math.log(1.0 / GAUSS_TAIL_THRESHOLD))
    tail = erfc(math.sqrt(2.0) * math.pi * sigma * cutoff / eta)
    assert abs(tail - AXIS_TAIL_FRACTION) <= 1e-14 * AXIS_TAIL_FRACTION


OBSERVABLE = make_observable(
    center=(0.2, -0.1, 0.0),
    sigma=(0.6, 0.5, 0.7),
    amplitude=1.3,
    coeffs={
        (0, 0, 0): 0.8,
        (1, 0, 0): 0.3 - 0.2j,
        (-1, 0, 0): 0.3 + 0.2j,
        (0, 2, -1): 0.1j,
        (0, -2, 1): -0.1j,
    },
)

# the observable of the benchmark and acceptance configs
BENCH_OBSERVABLE = make_observable(
    center=(0.25, 0.0, 0.0),
    sigma=(1.0, 1.0, 1.0),
    coeffs={(0, 0, 0): 0.5, (1, 0, 0): 0.25, (-1, 0, 0): 0.25},
)


@pytest.fixture
def observable():
    return OBSERVABLE


def test_delta_state_closed_form(observable):
    box = BoxSpec(16)
    vals = np.zeros((16, 16, 16), dtype=complex)
    vals[8, 8, 8] = 1.0  # x = 0
    res = pair_wigner(observable, WaveFunction(box, vals.ravel()), 0.5)
    c0 = dict(observable.coeffs)[(0, 0, 0)]
    expected = np.conj(observable.spatial(np.zeros(3))) * np.conj(c0)
    assert abs(res.value - expected) < 1e-6


def test_matches_position_space_oracle(observable, rng):
    box = BoxSpec(16)
    for eta in (0.5, 0.35):
        for _ in range(3):
            phi = random_state(box, rng)
            psi = random_state(box, rng)
            res = pair_wigner_bilinear(observable, phi, psi, eta)
            want = oracle_pairing(observable, phi, psi, eta)
            assert abs(res.value - want) <= max(5 * res.truncation_error, 1e-9)


def evolved_wkb_state():
    """The benchmark's L = 64 WKB state evolved to kinetic time 0.5 at lambda = 0.6."""
    lam, box = 0.6, BoxSpec(64)
    eta = lam**2
    psi = wkb_state(WkbSpec(sigma=0.35, linear=(1.5707963, 0.0, 0.0)), eta, box)
    V = sample_disorder(box, 20260811, 1)
    return evolve_full(psi, V, lam, 0.5 / eta, PropagatorConfig(dt=0.05))


@pytest.mark.parametrize("eta", [0.5, 0.35])
@pytest.mark.parametrize("J", [OBSERVABLE, BENCH_OBSERVABLE], ids=["five", "bench"])
@pytest.mark.parametrize("state", [16, 24, 64, "wkb64"])
def test_matches_momentum_reference(state, J, eta):
    # an integer state is the side of a box holding two random states
    if state == "wkb64":
        phi = psi = evolved_wkb_state()
    else:
        rng = np.random.default_rng(state)
        phi, psi = random_state(BoxSpec(state), rng), random_state(BoxSpec(state), rng)
    res = pair_wigner_bilinear(J, phi, psi, eta)
    value, trunc = momentum_reference(J, phi, psi, eta)
    assert abs(res.value - value) <= 1e-12 * abs(value)
    assert abs(res.truncation_error - trunc) <= 1e-12 * trunc


def test_plane_wave_regression_against_oracle():
    # normalized plane wave at a grid momentum, velocity factor h = 1
    box = BoxSpec(16)
    L = box.side
    x = np.arange(L)
    k0 = (3, 0, 5)
    phase = (x[:, None, None] * k0[0] + x[None, :, None] * k0[1] + x[None, None, :] * k0[2]) / L
    pw = np.exp(2j * np.pi * phase).ravel()
    pw /= np.linalg.norm(pw)
    psi = WaveFunction(box, pw)
    J = make_observable(center=(0.1, 0.0, -0.2), sigma=(0.7, 0.6, 0.8), amplitude=0.9)
    eta = 0.5
    res = pair_wigner(J, psi, eta)
    want = oracle_pairing(J, psi, psi, eta)
    assert abs(res.value - want) <= max(res.truncation_error, 1e-9)


def test_quadratic_equals_bilinear_diagonal(observable, rng):
    box = BoxSpec(16)
    psi = random_state(box, rng)
    a = pair_wigner(observable, psi, 0.5)
    # the diagonal computes |psi| and its norm once; a copy takes the bilinear path
    for other in (psi, psi.copy()):
        b = pair_wigner_bilinear(observable, psi, other, 0.5)
        assert (a.value, a.truncation_error) == (b.value, b.truncation_error)


def full_box_pairing(J, p, s, eta, box):
    """The pairing on the whole box, as it was computed before the support
    window: each harmonic rolls phi over all L^3 sites, and the periodization
    estimate multiplies the rolled |phi| by |psi|.  Returns (value, truncation_error)."""
    side = box.side
    coords = box.site_coordinates()
    abs_p = np.abs(p)
    abs_s = abs_p if s is p else np.abs(s)
    value = 0.0 + 0.0j
    coeff_l1 = 0.0
    alias_total = 0.0
    for m, cm in J.coeffs:
        coeff_l1 += abs(cm)
        # entry j of the table's transform is at y = j mod L; array index i holds x = i - L/2
        tabs = [np.roll(np.fft.fft(_axis_table(J, eta, side, ax, m[ax])), side // 2) for ax in range(3)]
        shift = tuple(-c for c in m)
        q = np.roll(p, shift, axis=(0, 1, 2))
        np.conj(q, out=q)
        q *= s
        value += np.conj(cm) * _contract(q, tabs)
        del q
        q = np.roll(abs_p, shift, axis=(0, 1, 2))
        q *= abs_s
        central = [_axis_gauss_abs(J, eta, coords, ax, m[ax] / 2.0, 0) for ax in range(3)]
        for ax in range(3):
            vecs = list(central)
            vecs[ax] = (_axis_gauss_abs(J, eta, coords, ax, m[ax] / 2.0, -1)
                        + _axis_gauss_abs(J, eta, coords, ax, m[ax] / 2.0, 1))
            alias_total += abs(cm) * float(_contract(q, vecs))
    value /= box.volume
    norm_phi = math.sqrt(np.einsum("ijk,ijk->", abs_p, abs_p))
    norm_psi = norm_phi if abs_s is abs_p else math.sqrt(np.einsum("ijk,ijk->", abs_s, abs_s))
    trunc = (
        norm_phi * norm_psi * coeff_l1 * abs(J.amplitude) * (3.0 * AXIS_TAIL_FRACTION)
        + 2.0 * alias_total
    )
    return value, trunc


def assert_matches_full_box(J, phi, psi, eta):
    res = pair_wigner_bilinear(J, phi, psi, eta)
    value, trunc = full_box_pairing(J, phi.box_grid(), psi.box_grid(), eta, psi.box)
    assert abs(res.value - value) <= 1e-12 * abs(value)
    assert abs(res.truncation_error - trunc) <= 1e-12 * trunc


def pairing_window(psi):
    """(W, offsets) of the smallest cube that holds every nonzero site of `psi`."""
    return smallest_window(axis_masses(psi.box_grid()), psi.box.side, 0.0)


def on_window(psi):
    """`psi` held on `pairing_window(psi)`, the cube the pairing contracts it on."""
    W, offsets = pairing_window(psi)
    win = take_window(psi.box_grid(), offsets, (W, W, W))
    return WaveFunction(psi.box, win.ravel(), W, offsets)


def embedded(psi):
    """`psi` held on the whole box."""
    return WaveFunction(psi.box, psi.box_grid().ravel())


def assert_window_holds(window, offsets, shape):
    """The cube `window` contains the box of `shape` at `offsets`."""
    W, starts = window
    for o, n, w in zip(offsets, shape, starts):
        assert w <= o and o + n <= w + W


# harmonics that reach 7 sites, the most a shift within an 8-site window of
# a 16-site box may move, and past it, where phi is read from the box
EDGE_OBSERVABLE = make_observable(
    sigma=(0.6, 0.5, 0.7), coeffs={(0, 0, 0): 0.6, (7, 0, -3): 0.2, (0, -7, 1): 0.1j}
)
FAR_OBSERVABLE = make_observable(
    sigma=(0.6, 0.5, 0.7), coeffs={(0, 0, 0): 0.6, (9, 0, 0): 0.2, (0, -12, 3): 0.1j}
)

SUPPORTS = {
    # (offsets, shape) of the support, and the side of the cube that holds it
    # every axis wraps around x = 0 (array index 8), each with its own size
    "wraps_zero": ((5, 6, 7), (7, 6, 5), 8),
    # one axis ends at the box face, one starts at it, one is the whole axis
    "at_face": ((11, 0, 0), (5, 6, 16), 16),
    "one_site": ((15, 0, 8), (1, 1, 1), 8),
}


@pytest.mark.parametrize("eta", [0.5, 0.35])
@pytest.mark.parametrize(
    "J", [OBSERVABLE, BENCH_OBSERVABLE, EDGE_OBSERVABLE, FAR_OBSERVABLE],
    ids=["five", "bench", "edge", "far"],
)
@pytest.mark.parametrize("support", SUPPORTS)
def test_support_window_matches_full_box(support, J, eta):
    box = BoxSpec(16)
    offsets, shape, side = SUPPORTS[support]
    psi = on_window(boxed_state(box, offsets, shape, np.random.default_rng(len(support))))
    assert psi.side == side
    assert_window_holds((psi.side, psi.offsets), offsets, shape)
    assert_matches_full_box(J, psi, psi, eta)


@pytest.mark.parametrize("J", [OBSERVABLE, BENCH_OBSERVABLE], ids=["five", "bench"])
def test_support_window_state_without_zeros(J, rng):
    psi = random_state(BoxSpec(16), rng)
    assert pairing_window(psi) == (16, (0, 0, 0))
    assert_matches_full_box(J, psi, psi, 0.5)


@pytest.mark.parametrize("J", [OBSERVABLE, BENCH_OBSERVABLE], ids=["five", "bench"])
def test_support_window_bilinear_different_supports(J, rng):
    # phi's support overlaps psi's only in part, and phi is nonzero where
    # psi vanishes; the window is psi's, and phi is read shifted from the box
    box = BoxSpec(16)
    psi = on_window(boxed_state(box, (6, 3, 2), (6, 5, 7), rng))
    phi = on_window(boxed_state(box, (1, 5, 4), (8, 9, 3), rng))
    assert psi.side < box.side and (phi.side, phi.offsets) != (psi.side, psi.offsets)
    assert_matches_full_box(J, phi, psi, 0.5)
    assert_matches_full_box(J, psi, phi, 0.35)
    assert_matches_full_box(J, embedded(phi), psi, 0.5)
    assert_matches_full_box(J, psi, embedded(phi), 0.35)


@pytest.mark.parametrize("J", [OBSERVABLE, BENCH_OBSERVABLE], ids=["five", "bench"])
def test_window_held_pairings_match_box_embedding(J, rng):
    # a WKB packet on its own window and a state on another window, against
    # the same states held on the whole box
    box = BoxSpec(32)
    eta = 0.36
    psi = wkb_state(WkbSpec(sigma=0.35, linear=(1.5707963, 0.0, 0.0)), eta, box)
    chi = on_window(boxed_state(box, (11, 18, 14), (9, 7, 12), rng))
    assert psi.side < box.side and chi.side < box.side and chi.offsets != psi.offsets
    pairs = [(psi, psi), (chi, chi), (chi, psi), (psi, chi)]
    for phi, other in pairs:
        got = pair_wigner_bilinear(J, phi, other, eta)
        want = pair_wigner_bilinear(J, embedded(phi), embedded(other), eta)
        assert abs(got.value - want.value) <= 1e-13 * abs(want.value)
        assert abs(got.truncation_error - want.truncation_error) <= 1e-13 * want.truncation_error
    got, want = pair_wigner(J, psi, eta), pair_wigner(J, embedded(psi), eta)
    assert abs(got.value - want.value) <= 1e-13 * abs(want.value)


def test_support_window_zero_state():
    box = BoxSpec(8)
    zero = WaveFunction(box, np.zeros(box.volume))
    res = pair_wigner(OBSERVABLE, zero, 0.5)
    assert (res.value, res.truncation_error) == (0.0, 0.0)


@pytest.fixture(scope="module")
def evolved_bench_state():
    """The benchmark's lambda = 0.45 state at kinetic time 0.5, its eta, and
    the side of every free phase `evolve_full` built on the way."""
    lam, box = 0.45, BoxSpec(64)
    eta = lam**2
    psi = wkb_state(WkbSpec(sigma=0.35, linear=(1.5707963, 0.0, 0.0)), eta, box)
    V = sample_disorder(box, 20260810, 1)
    with pytest.MonkeyPatch.context() as mp:
        sides = window_sides(mp)
        psi = evolve_full(psi, V, lam, 0.5 / eta, PropagatorConfig(dt=0.05))
    return psi, eta, sides


def test_pairing_window_is_the_propagators_last(evolved_bench_state):
    # evolve_full returns the state on its last window, nonzero at every
    # site, so the one window rule at share 0 gives that window back
    psi, _, sides = evolved_bench_state
    assert psi.side == sides[-1] < psi.box.side
    assert np.all(psi.values != 0)
    assert pairing_window(psi) == (psi.side, psi.offsets)


def test_pairing_memory_below_full_box_on_evolved_state(evolved_bench_state):
    # the benchmark's lambda = 0.45 state at kinetic time 0.5 lives on a
    # 56^3 window of the 64^3 box
    psi, eta, _ = evolved_bench_state
    box = psi.box
    assert psi.side < box.side
    grid = psi.box_grid()

    def peak(pair):
        pair()  # numpy's FFT plan cache is filled outside the trace
        tracemalloc.start()
        try:
            pair()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    support = peak(lambda: pair_wigner(BENCH_OBSERVABLE, psi, eta))
    full = peak(lambda: full_box_pairing(BENCH_OBSERVABLE, grid, grid, eta, box))
    assert support < full, f"support {support / 1e6:.2f} MB, full box {full / 1e6:.2f} MB"


def test_pairing_memory_under_three_grids(observable, rng):
    box = BoxSpec(32)
    psi = random_state(box, rng)
    pair_wigner(observable, psi, 0.5)  # numpy's FFT plan cache is filled outside the trace
    tracemalloc.start()
    try:
        pair_wigner(observable, psi, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 16 * box.volume
    assert peak < 2.6 * grid, f"peak {peak / grid:.2f} grids"


def test_swap_symmetry_real_observable(rng):
    box = BoxSpec(16)
    J = make_observable(
        sigma=(0.5, 0.5, 0.5),
        coeffs={(0, 0, 0): 0.6, (1, 1, 0): 0.2 - 0.1j, (-1, -1, 0): 0.2 + 0.1j},
    )
    assert is_real(J)
    phi = random_state(box, rng)
    psi = random_state(box, rng)
    a = pair_wigner_bilinear(J, phi, psi, 0.4)
    b = pair_wigner_bilinear(J, psi, phi, 0.4)
    assert abs(a.value - np.conj(b.value)) < 1e-10


def test_real_observable_real_value(rng):
    box = BoxSpec(16)
    J = make_observable(
        sigma=(0.6, 0.6, 0.6),
        coeffs={(0, 0, 0): 1.0, (0, 1, 0): 0.3, (0, -1, 0): 0.3},
    )
    psi = random_state(box, rng)
    res = pair_wigner(J, psi, 0.5)
    assert abs(res.value.imag) <= 1e-10 * max(abs(res.value), 1e-30)


complex_coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@given(a=complex_coeff, b=complex_coeff, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sesquilinearity(a, b, seed):
    box = BoxSpec(8)
    rng = np.random.default_rng(seed)
    phi, psi, chi = (random_state(box, rng) for _ in range(3))
    mix = WaveFunction(box, a * psi.values + b * chi.values)
    lhs = pair_wigner_bilinear(OBSERVABLE, phi, mix, 0.5).value
    rhs = (
        a * pair_wigner_bilinear(OBSERVABLE, phi, psi, 0.5).value
        + b * pair_wigner_bilinear(OBSERVABLE, phi, chi, 0.5).value
    )
    assert abs(lhs - rhs) < 1e-10
    mixphi = WaveFunction(box, a * phi.values + b * chi.values)
    lhs2 = pair_wigner_bilinear(OBSERVABLE, mixphi, psi, 0.5).value
    rhs2 = (
        np.conj(a) * pair_wigner_bilinear(OBSERVABLE, phi, psi, 0.5).value
        + np.conj(b) * pair_wigner_bilinear(OBSERVABLE, chi, psi, 0.5).value
    )
    assert abs(lhs2 - rhs2) < 1e-10


def test_conjugate_linearity_in_observable(rng):
    # <aJ1 + bJ2, W> = conj(a) <J1, W> + conj(b) <J2, W> for shared spatial factor
    box = BoxSpec(16)
    psi = random_state(box, rng)
    base = dict(center=(0.1, 0.0, 0.0), sigma=(0.5, 0.7, 0.6), amplitude=1.1)
    h1 = {(0, 0, 0): 1.0}
    h2 = {(1, 0, 0): 0.5, (0, 1, 0): -0.25j}
    a, b = 0.4 + 0.3j, -0.8 + 0.1j
    combined = {m: a * c for m, c in h1.items()}
    for m, c in h2.items():
        combined[m] = combined.get(m, 0) + b * c
    J1 = make_observable(coeffs=h1, **base)
    J2 = make_observable(coeffs=h2, **base)
    Jc = make_observable(coeffs=combined, **base)
    lhs = pair_wigner(Jc, psi, 0.5).value
    rhs = np.conj(a) * pair_wigner(J1, psi, 0.5).value + np.conj(b) * pair_wigner(
        J2, psi, 0.5
    ).value
    assert abs(lhs - rhs) < 1e-10


def test_bilinear_bound_sample(observable, rng):
    box = BoxSpec(16)
    cj = cj_constant(observable)
    for _ in range(50):
        phi = random_state(box, rng)
        psi = random_state(box, rng)
        res = pair_wigner_bilinear(observable, phi, psi, 0.4)
        assert abs(res.value) <= cj * phi.norm() * psi.norm() + 1e-12


def test_cj_constant_closed_form(observable):
    # ||g^||_L1 = |amplitude| exactly; max |h| checked against a dense grid
    grid = np.linspace(0, 1, 101)
    V = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    hmax_grid = np.abs(observable.velocity(V)).max()
    cj = cj_constant(observable)
    assert cj >= abs(observable.amplitude) * hmax_grid - 1e-8
    assert cj == pytest.approx(abs(observable.amplitude) * velocity_max_abs(observable), abs=1e-12)
    # xi quadrature of |g^| per axis reproduces |amplitude|
    xi = np.linspace(-80, 80, 2_000_001)
    g_l1 = trapezoid(
        np.abs(
            observable.amplitude
            * np.sqrt(2 * np.pi * observable.sigma[0] ** 2)
            * np.exp(-2 * np.pi**2 * observable.sigma[0] ** 2 * xi**2)
        ),
        xi,
    )
    assert g_l1 == pytest.approx(abs(observable.amplitude), rel=1e-8)


def test_resolution_guard():
    box = BoxSpec(8)
    vals = np.zeros(box.volume, complex)
    vals[0] = 1.0
    psi = WaveFunction(box, vals)
    wide = make_observable(sigma=(60.0, 60.0, 60.0))
    with pytest.raises(ResolutionTooCoarse):
        pair_wigner(wide, psi, 0.1)


def test_mass_identity_wkb():
    # <J ~ 1, W[psi]> = ||psi||^2 within 2 percent at eta = 0.1
    box = BoxSpec(128)
    eta = 0.1
    psi = wkb_state(WkbSpec(sigma=0.3, linear=(0.8, 0.0, 0.0)), eta, box)
    J = make_observable(sigma=(3.0, 3.0, 3.0))
    res = pair_wigner(J, psi, eta)
    assert abs(res.value.real - psi.norm() ** 2) <= 0.02 * psi.norm() ** 2


# ---------------------------------------------------------------------------
# semiclassical limit sampler
# ---------------------------------------------------------------------------


def test_sampler_zero_phase_velocity(rng):
    X, V = wkb_limit_sampler(WkbSpec(sigma=0.5), 1000, rng)
    assert np.all(V == 0.0)


def test_sampler_position_mean(rng):
    spec = WkbSpec(center=(0.3, -0.2, 0.1), sigma=0.4)
    n = 40000
    X, V = wkb_limit_sampler(spec, n, rng)
    assert np.all(np.abs(X.mean(axis=0) - np.asarray(spec.center)) < 4 * spec.sigma / np.sqrt(n))


def test_sampler_against_wigner_pairing(rng):
    # empirical <J, mu_0> matches the numerical pairing of the wave packet at small eta
    spec = WkbSpec(sigma=0.25, linear=(1.2, 0.0, 0.0))
    eta, L = 0.02, 192
    psi = wkb_state(spec, eta, BoxSpec(L))
    J = make_observable(
        center=(0.0, 0.0, 0.0),
        sigma=(0.8, 0.8, 0.8),
        coeffs={(0, 0, 0): 0.5, (1, 0, 0): 0.25, (-1, 0, 0): 0.25},
    )
    n = 100000
    X, V = wkb_limit_sampler(spec, n, rng)
    samples = np.conj(J.evaluate(X, V))
    mc = samples.mean()
    mc_err = samples.real.std(ddof=1) / np.sqrt(n)
    res = pair_wigner(J, psi, eta)
    # eta-scale corrections dominate the budget; allow a few percent on top
    tol = 3 * mc_err + res.truncation_error + 0.03 * abs(mc)
    assert abs(res.value.real - mc.real) <= tol
