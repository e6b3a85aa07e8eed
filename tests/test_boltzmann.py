import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from kinlab import boltzmann
from kinlab.boltzmann import (
    ParticleEnsemble,
    ShellEmpty,
    ShellSamplerConfig,
    _project_to_shell,
    build_dos_table,
    collision_rate,
    observable,
    sample_energy_shell_batch,
    snapshots,
)
from kinlab.harness import experiments as ex
from kinlab.lattice import dispersion, group_velocity

from conftest import make_observable, read_csv


@pytest.fixture(scope="module")
def table():
    return build_dos_table(2_000_000, np.random.default_rng(5))


@pytest.fixture
def cfg():
    return ShellSamplerConfig()


# ---------------------------------------------------------------------------
# density of states
# ---------------------------------------------------------------------------


def dos_at(table, E):
    """(Phi(E), stderr) read off the table.

    Interpolating the bin stderr linearly bounds the stderr of the
    interpolated value from above.
    """
    return float(table.interp(E)), float(np.interp(E, table.centers, table.stderr))


def test_dos_outside_band(table):
    assert table.interp(-1.0) == 0.0
    assert table.interp(7.5) == 0.0


def test_dos_estimates_consistent(rng):
    a, a_err = dos_at(build_dos_table(400_000, rng), 3.0)
    b, b_err = dos_at(build_dos_table(400_000, rng), 3.0)
    assert abs(a - b) <= 3 * math.hypot(a_err, b_err)


def test_dos_band_symmetry(rng):
    a, a_err = dos_at(build_dos_table(400_000, rng), 1.5)
    b, b_err = dos_at(build_dos_table(400_000, rng), 4.5)
    assert abs(a - b) <= 3 * math.hypot(a_err, b_err)


def test_dos_table_normalization_and_symmetry(table):
    width = np.diff(table.edges)
    integral = table.integral()
    total_se = math.sqrt(float(np.sum((table.stderr * width) ** 2)))
    assert abs(integral - 1.0) <= max(3 * total_se, 1e-12)
    flipped = table.values[::-1]
    se = np.hypot(table.stderr, table.stderr[::-1])
    frac_off = np.mean(np.abs(table.values - flipped) > 3 * se)
    assert frac_off < 0.02  # 3-sigma outliers at roughly the nominal rate


def float64_dos_counts(n_samples, rng, edges):
    """Histogram of float64 energies over float64 uniform draws: the oracle
    for the float32 table."""
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    for left in range(n_samples, 0, -(1 << 16)):
        counts += np.histogram(dispersion(rng.random((min(left, 1 << 16), 3))), bins=edges)[0]
    return counts


def test_float32_dos_table_matches_float64_histogram(table):
    # independent streams: the tables differ by sampling noise, and by the
    # float32 rounding of e (a few 1e-7 against a bin width of 0.0117)
    n = table.n_samples
    counts = float64_dos_counts(n, np.random.default_rng(6), table.edges)
    width = np.diff(table.edges)
    values = counts / (n * width)
    se = np.hypot(table.stderr, np.sqrt(np.maximum(counts, 1)) / (n * width))
    assert np.mean(np.abs(table.values - values) > 3 * se) < 0.02


@pytest.mark.parametrize("chunk", [1000, 4_000_000])
def test_dos_table_independent_of_chunk(chunk, monkeypatch):
    # the rounds draw one stream in pieces, so the counts cannot depend on
    # their size; 300_001 is a multiple of neither chunk nor DOS_CHUNK
    ref = build_dos_table(300_001, np.random.default_rng(3), bins=128)
    monkeypatch.setattr(boltzmann, "DOS_CHUNK", chunk)
    out = build_dos_table(300_001, np.random.default_rng(3), bins=128)
    assert np.array_equal(out.values, ref.values)
    assert np.array_equal(out.stderr, ref.stderr)


def test_dispersion_matches_axis_sum(rng):
    for k in (rng.uniform(-1.0, 2.0, (100_000, 3)), rng.random(3)):
        ref = 3.0 - np.sum(np.cos(2.0 * np.pi * k), axis=-1)
        assert np.array_equal(dispersion(k), ref)


def test_collision_rate_depends_on_energy_only(table, rng):
    E = 2.7
    U = sample_energy_shell_batch(E, 64, ShellSamplerConfig(), rng)
    rates = collision_rate(dispersion(U), table)
    assert np.allclose(rates, rates[0], rtol=1e-9)
    assert rates[0] == pytest.approx(2 * math.pi * table.interp(E), rel=1e-12)


def test_collision_rate_vanishes_at_band_bottom(table):
    assert table.interp(0.0) < table.interp(3.0) * 0.1
    assert collision_rate(dispersion(np.zeros(3)), table) < 0.3


def test_collision_rate_positive_below_first_bin_centre(table):
    # e(V) ~ 1.5e-3 lies below the first bin centre, but inside the band
    V = np.array([0.005, 0.005, 0.005])
    assert 0.0 < dispersion(V) < table.centers[0]
    rate = collision_rate(dispersion(V), table)
    assert 0.0 < rate < 2 * math.pi * table.values[0]


# ---------------------------------------------------------------------------
# shell sampling
# ---------------------------------------------------------------------------


def test_shell_projection_contract(cfg, rng):
    for E in (1.0, 3.0, 5.0):
        U = sample_energy_shell_batch(E, 1, cfg, rng)[0]
        assert abs(dispersion(U) - E) <= 1e-12


def test_shell_batch_heterogeneous(cfg, rng):
    E = rng.uniform(1.0, 5.0, 200)
    U = sample_energy_shell_batch(E, 200, cfg, rng)
    assert np.max(np.abs(dispersion(U) - E)) <= 1e-12


def test_shell_draws_independent_of_call_history(cfg):
    # no state survives a call: earlier calls at the same energy must not
    # change what a fresh generator draws, nor how much of its stream a call
    # consumes (the second batch of each pair shows that)
    def draws(seed):
        r = np.random.default_rng(seed)
        return np.concatenate([sample_energy_shell_batch(2.3, 300, cfg, r) for _ in range(2)])

    cold = draws(8)
    draws(9)
    assert np.array_equal(draws(8), cold)


def float32_shell_reference(E, n, shell_halfwidth, rng):
    """The shell sampler before slice draws: rows of uniform float32 torus
    proposals, a float32 shell test with a (1 - 1e-5) margin, and the first
    hit of a row Newton-projected in float64.  Its points are the first shell
    hit of i.i.d. uniform proposals, the law the slice draws must keep."""
    E = np.broadcast_to(np.asarray(E, dtype=float), (n,)).copy()
    out = np.empty((n, 3))
    E32 = E.astype(np.float32)
    halfwidth = np.float32(shell_halfwidth * (1.0 - 1e-5))
    pending = np.arange(n)
    proposals = hits = 0
    k = 1024
    while pending.size:
        k = max(1, min(k, 6_000_000 // pending.size))
        U = rng.random((3, pending.size, k), dtype=np.float32)
        c = np.multiply(U, np.float32(2.0 * math.pi))
        np.cos(c, out=c)
        e32 = np.float32(3.0) - c[0] - c[1] - c[2]
        hit = np.abs(e32 - E32[pending, None]) < halfwidth
        rows = np.flatnonzero(hit.any(axis=1))
        first = np.argmax(hit[rows], axis=1)
        proj, ok = _project_to_shell(U[:, rows, first].T.astype(np.float64), E[pending[rows]])
        out[pending[rows[ok]]] = proj[ok]
        pending = np.delete(pending, rows[ok])
        proposals += hit.size
        hits += int(np.count_nonzero(hit))
        k = math.ceil(proposals / hits) if hits else 4 * k
    return out


@pytest.mark.parametrize("E", [1.0, 3.0])
def test_shell_law_matches_float32_reference(E):
    # two-sample KS per coordinate and for the largest |sin 2 pi k_j|, the
    # steepness of the level set at the point; Bonferroni over the four
    n, h = 20_000, 0.005
    got = sample_energy_shell_batch(E, n, ShellSamplerConfig(shell_halfwidth=h), np.random.default_rng(41))
    want = float32_shell_reference(E, n, h, np.random.default_rng(42))

    def columns(U):
        return [U[:, 0], U[:, 1], U[:, 2], np.max(np.abs(np.sin(2 * np.pi * U)), axis=1)]

    pvals = [sps.ks_2samp(a, b).pvalue for a, b in zip(columns(got), columns(want))]
    assert min(pvals) * 4 > 0.001, pvals


@pytest.mark.parametrize("E", [1.0, 1.9, 3.0])
def test_shell_axis_mean_identity(E):
    # the law is symmetric under permuting axes and sum_j cos 2 pi k_j = 3 - E
    # on the level set, so each axis has E[cos 2 pi k_j] = (3 - E) / 3
    n = 60_000
    U = sample_energy_shell_batch(E, n, ShellSamplerConfig(shell_halfwidth=0.005), np.random.default_rng(43))
    c = np.cos(2 * np.pi * U)
    z = (c.mean(axis=0) - (3.0 - E) / 3.0) / (c.std(axis=0, ddof=1) / math.sqrt(n))
    assert np.max(np.abs(z)) <= 4.0, z


@pytest.mark.parametrize("E", [2.0, 4.0])
def test_shell_draws_at_van_hove_energies(E, rng):
    # saddle points of e lie on these level sets
    U = sample_energy_shell_batch(E, 2000, ShellSamplerConfig(shell_halfwidth=0.005), rng)
    assert np.max(np.abs(dispersion(U) - E)) <= 1e-12


def test_shell_work_buffers_bounded(rng):
    # a round's k1 and k2 and chunk-sized work buffers, whatever the number
    # of proposals (about a million for 15k slots at this acceptance)
    tracemalloc.start()
    try:
        sample_energy_shell_batch(1.0, 15_306, ShellSamplerConfig(shell_halfwidth=0.005), rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


def round_loop_reference(E, n, cfg, rng, ks):
    """The shell sampler's round loop before chunked rounds: a round draws
    k1, k2 and the acceptance uniform of all its proposals in one (3, P, k)
    call and works on proposal-sized a, lo, w and hit mask.  Appends each
    round's k to `ks`."""
    E = np.broadcast_to(np.asarray(E, dtype=float), (n,)).copy()
    out = np.empty((n, 3))
    h = cfg.shell_halfwidth
    w_max = math.acos(1.0 - 2.0 * h)
    two_pi = 2.0 * math.pi
    pending = np.arange(n)
    proposals = hits = 0
    k = 1
    while pending.size:
        k = max(1, min(k, boltzmann._ROUND_PROPOSALS // pending.size))
        ks.append(k)
        U = rng.random((3, pending.size, k))
        a = np.cos(two_pi * U[0])
        w = np.cos(two_pi * U[1])
        a = (3.0 - E[pending])[:, None] - a
        a -= w
        lo = np.arccos(np.clip(a + h, -1.0, 1.0))
        w = np.arccos(np.clip(a - h, -1.0, 1.0))
        w -= lo
        hit = U[2] * w_max < w
        rows = np.flatnonzero(hit.any(axis=1))
        first = np.argmax(hit[rows], axis=1)
        v = rng.random((2, rows.size))
        theta = lo[rows, first] + v[0] * w[rows, first]
        k3 = np.copysign(theta, v[1] - 0.5) / two_pi
        U3 = np.column_stack([U[0, rows, first], U[1, rows, first], k3])
        proj, ok = _project_to_shell(U3, E[pending[rows]])
        out[pending[rows[ok]]] = proj[ok]
        pending = np.delete(pending, rows[ok])
        proposals += U[0].size
        hits += int(np.count_nonzero(hit))
        k = math.ceil(proposals / hits) if hits else 4 * k
    return out


def assert_matches_round_loop(E, n, cfg, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    ks = []
    got = sample_energy_shell_batch(E, n, cfg, ours)
    want = round_loop_reference(E, n, cfg, theirs, ks)
    assert np.array_equal(got, want)
    # the generator is left where the round loop leaves it
    assert np.array_equal(ours.random(3), theirs.random(3))
    return ks


@pytest.mark.parametrize("n", [1, 7, 300, 5000, 15_306])
@pytest.mark.parametrize("per_slot", [False, True], ids=["scalar", "per_slot"])
def test_chunked_rounds_match_round_loop(n, per_slot):
    E = np.random.default_rng(n).uniform(0.2, 5.8, n) if per_slot else 1.0
    ks = assert_matches_round_loop(E, n, ShellSamplerConfig(shell_halfwidth=0.005), 100 + n)
    if n >= 5000:
        assert max(ks) * n > boltzmann._CHUNK  # rounds of more than one chunk


@pytest.mark.parametrize("n", [2, 5])
def test_chunked_rounds_rows_longer_than_a_chunk(n):
    # just above the band bottom few proposals have a shell slice, so a row
    # holds more proposals than a chunk and its first hit may lie in any
    # chunk of the round
    ks = assert_matches_round_loop(2e-4, n, ShellSamplerConfig(shell_halfwidth=1e-5), 5)
    assert max(ks) > boltzmann._CHUNK


def test_shell_empty_near_band_edge(rng):
    cfg = ShellSamplerConfig(shell_halfwidth=1e-3, max_tries=1_000)
    with pytest.raises(ShellEmpty):
        sample_energy_shell_batch(1e-5, 4, cfg, rng)
    with pytest.raises(ShellEmpty):
        sample_energy_shell_batch(-1.0, 1, cfg, rng)


def test_projection_stall_at_critical_point():
    # |grad e| < 1e-8 at the band bottom: the Newton step stalls, and the
    # sampler sees the point as not projected
    U = np.array([[1e-10, 1e-10, 1e-10]])
    _, ok = _project_to_shell(U, np.array([0.5]))
    assert not ok[0]


def test_shell_symmetry_chi2(rng):
    # invariance under the 48 coordinate symmetries (permutations + reflections)
    n = 100_000
    cfg = ShellSamplerConfig(shell_halfwidth=1e-3)
    U = sample_energy_shell_batch(3.0, n, cfg, rng)
    bins = 6
    idx = np.floor(U * bins).astype(int)
    idx[idx == bins] = bins - 1
    counts = np.zeros((bins, bins, bins))
    np.add.at(counts, (idx[:, 0], idx[:, 1], idx[:, 2]), 1)

    import itertools

    seen = set()
    chi2 = 0.0
    dof = 0
    for cell in itertools.product(range(bins), repeat=3):
        if cell in seen:
            continue
        orbit = set()
        for perm in itertools.permutations(range(3)):
            permuted = tuple(cell[p] for p in perm)
            for flips in itertools.product((False, True), repeat=3):
                orbit.add(tuple(bins - 1 - c if f else c for c, f in zip(permuted, flips)))
        seen.update(orbit)
        vals = np.array([counts[o] for o in orbit])
        if vals.mean() < 5:
            continue
        chi2 += float(np.sum((vals - vals.mean()) ** 2 / vals.mean()))
        dof += len(vals) - 1
    p = sps.chi2.sf(chi2, dof)
    assert p > 0.001


def test_shell_acceptance_matches_dos(rng):
    E, shell = 3.0, 1e-3
    n = 100_000
    U = rng.random((n, 3))
    hits = np.abs(dispersion(U) - E) < shell
    acc = hits.mean() / (2 * shell)
    acc_err = math.sqrt(hits.mean() * (1 - hits.mean()) / n) / (2 * shell)
    d, d_err = dos_at(build_dos_table(400_000, rng), E)
    assert abs(acc - d) <= 3 * math.hypot(acc_err, d_err)


# ---------------------------------------------------------------------------
# particle stepping
# ---------------------------------------------------------------------------


def one_particle(X, V):
    return lambda n, r: (np.array([X], dtype=float), np.array([V], dtype=float))


def test_ballistic_with_rate_override(table, cfg, rng):
    # e(V0) = 6 exactly, the top band edge, where the rate is exactly 0
    X0, V0 = np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.5, 0.5])
    assert dispersion(V0) == 6.0
    assert collision_rate(dispersion(V0), table) == 0.0
    out = snapshots(one_particle(X0, V0), [2.5], 1, cfg, rng, table)[-1]
    assert np.array_equal(out.X[0], X0 + 2.5 * group_velocity(V0))
    assert np.array_equal(out.V[0], V0)
    assert out.weight[0] == 1.0


def test_energy_drift_over_1000_collisions(table, cfg, rng):
    V0 = sample_energy_shell_batch(3.0, 1, cfg, rng)[0]
    E0 = dispersion(V0)
    T = 1000.0 / collision_rate(E0, table)  # ~1000 collisions
    out = snapshots(one_particle(np.zeros(3), V0), [T], 1, cfg, rng, table)[-1]
    assert abs(dispersion(out.V[0]) - E0) <= 1e-8


def test_solve_t0_matches_initial_law(table, cfg, rng):
    def init(n, r):
        return r.normal(size=(n, 3)), r.random((n, 3))

    ens = snapshots(init, [0.0], 5000, cfg, rng, table)[-1]
    ref_rng = np.random.default_rng(77)
    X, V = init(5000, ref_rng)
    assert sps.ks_2samp(ens.X[:, 0], X[:, 0]).pvalue > 0.001
    assert np.all(ens.weight == 1.0 / 5000)  # untouched by a zero-length run
    assert ens.total_weight() == pytest.approx(1.0, rel=1e-12)


def test_solve_weight_conserved_exactly(table, rng):
    cfg = ShellSamplerConfig(shell_halfwidth=0.02)

    def init(n, r):
        return np.zeros((n, 3)), sample_energy_shell_batch(3.0, n, cfg, r)

    ens = snapshots(init, [3.0], 2000, cfg, rng, table)[-1]
    assert np.all(ens.weight == 1.0 / 2000)  # per-particle weights never touched
    assert ens.total_weight() == pytest.approx(1.0, rel=1e-12)


def test_solve_displacement_speed_bound(table, rng):
    cfg = ShellSamplerConfig(shell_halfwidth=0.02)
    T = 2.0

    def init(n, r):
        return np.zeros((n, 3)), sample_energy_shell_batch(2.5, n, cfg, r)

    ens = snapshots(init, [T], 2000, cfg, rng, table)[-1]
    assert np.max(np.abs(ens.X)) <= T + 1e-12
    assert np.linalg.norm(ens.X.mean(axis=0)) <= T


def test_snapshots_shared_trajectories(table, rng):
    cfg = ShellSamplerConfig(shell_halfwidth=0.02)

    def init(n, r):
        return np.zeros((n, 3)), sample_energy_shell_batch(3.0, n, cfg, r)

    snaps = snapshots(init, [0.0, 1.0, 2.0], 500, cfg, rng, table)
    assert len(snaps) == 3
    assert np.all(snaps[0].X == 0.0)
    # energies preserved across all snapshots
    for s in snaps:
        assert np.max(np.abs(dispersion(s.V) - 3.0)) < 1e-10


def test_snapshots_share_read_only_weights(table, cfg, rng):
    n = 300

    def init(k, r):
        return r.normal(size=(k, 3)), r.random((k, 3))

    snaps = snapshots(init, [0.0, 0.5, 1.0], n, cfg, rng, table)
    for s in snaps:
        assert s.weight is snaps[0].weight
        assert np.all(s.weight == 1.0 / n)
        with pytest.raises(ValueError):
            s.weight[0] = 0.5


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def test_observable_delta_ensemble():
    J = make_observable(sigma=(0.5, 0.5, 0.5), coeffs={(0, 0, 0): 1.0, (1, 0, 0): 0.5, (-1, 0, 0): 0.5})
    V = np.array([[0.2, 0.3, 0.4]])
    ens = ParticleEnsemble(np.zeros((1, 3)), V, np.ones(1))
    val, err = observable(ens, J)
    assert val == pytest.approx(complex(np.conj(J.evaluate(np.zeros(3), V[0]))), abs=1e-14)


def test_observable_stderr_clt_scaling(rng):
    J = make_observable(sigma=(1.0, 1.0, 1.0))
    errs = []
    ns = (1000, 10_000, 100_000)
    for n in ns:
        X = rng.normal(size=(n, 3))
        V = rng.random((n, 3))
        ens = ParticleEnsemble(X, V, np.full(n, 1.0 / n))
        errs.append(observable(ens, J)[1])
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_observable_against_histogram_quadrature(rng):
    J = make_observable(sigma=(1.0, 1.0, 1.0), coeffs={(0, 0, 0): 1.0})
    n = 50_000
    X = rng.normal(scale=0.5, size=(n, 3))
    V = rng.random((n, 3))
    ens = ParticleEnsemble(X, V, np.full(n, 1.0 / n))
    val, err = observable(ens, J)
    # independent estimate: histogram X, evaluate J at cell centers
    bins = 40
    edges = np.linspace(-3, 3, bins + 1)
    hist, _ = np.histogramdd(X, bins=(edges, edges, edges))
    centers = 0.5 * (edges[:-1] + edges[1:])
    C = np.stack(np.meshgrid(centers, centers, centers, indexing="ij"), axis=-1)
    quad = float(np.sum(hist / n * J.spatial(C)))
    inside = np.all(np.abs(X) < 3, axis=1).mean()
    # binning bias ~ |grad J| * cell size; allow 3 stderr plus a bias term
    assert abs(val.real - quad) <= 3 * err + 0.01 + (1 - inside)


def test_ensemble_csv_roundtrip(tmp_path, rng):
    ens = ParticleEnsemble(rng.normal(size=(50, 3)), rng.random((50, 3)), rng.random(50))
    path = tmp_path / "ens.csv"
    header = ["X1", "X2", "X3", "V1", "V2", "V3", "weight"]
    ex.write_csv(path, header, np.column_stack([ens.X, ens.V, ens.weight]))
    arr = np.array([[row[h] for h in header] for row in read_csv(path)])
    back = ParticleEnsemble(arr[:, 0:3], arr[:, 3:6], arr[:, 6])
    assert np.array_equal(back.X, ens.X)
    assert np.array_equal(back.V, ens.V)
    assert np.array_equal(back.weight, ens.weight)
