"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
The heavy disorder ensembles (criteria 6/7) are shared through a module
fixture.  The file takes about three minutes on two cores, most of it in
that fixture.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
from scipy import stats as sps

from kinlab import boltzmann as bz
from kinlab.bounds import SCHEDULE_A, SCHEDULE_B, schedule_parameters, variance_bound
from kinlab.dynamics import PropagatorConfig, duhamel_ladder, duhamel_residuals, evolve_full
from kinlab.graphs import PairKind, classify, enumerate_connected
from kinlab.harness import experiments as ex
from kinlab.harness.config import parse_config
from kinlab.harness.stats import bootstrap_slope
from kinlab.lattice import BoxSpec, WaveFunction, WkbSpec, dispersion, sample_disorder, wkb_state
from kinlab.wigner import pair_wigner, pair_wigner_bilinear

import test_graphs as graph_fixtures
from conftest import cj_constant, evolve_dense, make_observable

WORKERS = min(os.cpu_count() or 1, 8)

ACCEPTANCE_CFG = """
[run]
lambdas = 0.6 0.45 0.3
T = 0.5
tau_grid = 4
L = 64
dt = 0.05
n_realizations = 64
master_seed = 20260810
n_particles = 100000
shell_halfwidth = 0.005
dos_samples = 4000000
dos_bins = 512
out_dir = out

[wkb]
center = 0 0 0
sigma = 0.35
linear = 1.5707963 0 0

[observable]
center = 0.25 0 0
sigma = 1.0 1.0 1.0
amplitude = 1.0
harmonics = 0 0 0 : 0.5 0 ; 1 0 0 : 0.25 0 ; -1 0 0 : 0.25 0
"""


def report(criterion: int, ok: bool, detail: str):
    print(f"\nCRITERION {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return parse_config(ACCEPTANCE_CFG)


@pytest.fixture(scope="module")
def ensembles(cfg):
    """Criterion 6's disorder ensembles, shared with criterion 7."""
    t0 = time.time()
    stats = [ex.run_ensemble(cfg, lam, workers=WORKERS) for lam in cfg.lambdas]
    print(f"\n[ensembles: 3 couplings x {cfg.n_realizations} realizations "
          f"in {time.time() - t0:.0f}s on {WORKERS} workers]")
    return stats


def test_criterion_1_propagator_oracle(rng):
    box = BoxSpec(4)
    V = sample_disorder(box, 42, 0)
    v = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
    psi = WaveFunction(box, v / np.linalg.norm(v))
    dense = evolve_dense(psi, V, 0.5, 1.0)
    errs = []
    for dt in (1e-3, 5e-4):
        split = evolve_full(psi, V, 0.5, 1.0, PropagatorConfig(dt=dt))
        errs.append(float(np.linalg.norm(split.values - dense.values)))
    ratio = errs[0] / errs[1]
    ok = errs[0] <= 1e-5 and 3.5 <= ratio <= 4.5
    report(1, ok, f"split-vs-dense error {errs[0]:.2e} (gate 1e-5), "
                  f"dt-halving ratio {ratio:.2f} (gate [3.5, 4.5])")


def test_criterion_2_wigner_identities(rng):
    # (a) bilinear bound on 1000 random pairs
    box = BoxSpec(16)
    J = make_observable(
        center=(0.2, -0.1, 0.0), sigma=(0.6, 0.5, 0.7), amplitude=1.3,
        coeffs={(0, 0, 0): 0.8, (1, 0, 0): 0.3 - 0.2j, (-1, 0, 0): 0.3 + 0.2j},
    )
    cj = cj_constant(J)
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
        b = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
        phi, psi = WaveFunction(box, a), WaveFunction(box, b)
        val = abs(pair_wigner_bilinear(J, phi, psi, 0.35).value)
        worst = max(worst, val / (cj * phi.norm() * psi.norm()))
    bound_ok = worst <= 1.0 + 1e-12

    # (b) mass identity at eta = 0.1
    eta = 0.1
    psi_w = wkb_state(WkbSpec(sigma=0.3, linear=(0.8, 0.0, 0.0)), eta, BoxSpec(128))
    wide = make_observable(sigma=(3.0, 3.0, 3.0))
    mass = pair_wigner(wide, psi_w, eta).value.real
    mass_err = abs(mass - psi_w.norm() ** 2) / psi_w.norm() ** 2
    mass_ok = mass_err <= 0.02

    # (c) delta-state closed form, the delta at x = 0 (array index L/2)
    vals = np.zeros((16, 16, 16), complex)
    vals[8, 8, 8] = 1.0
    delta_val = pair_wigner(J, WaveFunction(box, vals.ravel()), 0.5).value
    expected = np.conj(J.spatial(np.zeros(3))) * np.conj(dict(J.coeffs)[(0, 0, 0)])
    delta_ok = abs(delta_val - expected) < 1e-6

    ok = bound_ok and mass_ok and delta_ok
    report(2, ok, f"bound ratio max {worst:.4f} over 1000 pairs (gate 1), "
                  f"mass identity off by {mass_err * 100:.2f}% (gate 2%), "
                  f"delta closed form |err| {abs(delta_val - expected):.1e} (gate 1e-6)")


def test_criterion_3_resolvent_scaling():
    t0 = time.time()
    rep = ex.run_resolvent_suite()
    ok = rep.band_ratio <= 3.0 and rep.two_res_exponent <= 0.85 and rep.three_res_exponent <= 0.82
    report(3, ok, f"log band ratio {rep.band_ratio:.2f} (gate 3); "
                  f"two-resolvent exponent {rep.two_res_exponent:.3f} (gate 0.85); "
                  f"three-resolvent exponent {rep.three_res_exponent:.3f} (gate 0.82); "
                  f"{time.time() - t0:.0f}s")


def test_criterion_4_pairing_combinatorics():
    count_ok, unique_ok = True, True
    for nbar in range(1, 6):
        for n1 in range(nbar + 1):
            pairings = enumerate_connected(n1, nbar - n1)
            count_ok &= len(pairings) == graph_fixtures.connected_count(nbar)
            count_ok &= len(pairings) <= 2**nbar * math.factorial(nbar)
            for p in pairings:
                c = classify(p)  # classification is total and single-valued
                unique_ok &= c.kind in PairKind

    figures_ok = (
        classify(graph_fixtures.FIG_CROSSING_FIRST_LINE).line == 1
        and classify(graph_fixtures.FIG_TRANSFER_INTO_INTERNAL).line == 2
        and classify(graph_fixtures.FIG_TRANSFER_INTO_LATE_INTERNAL).line == 2
        and classify(graph_fixtures.FIG_CROSSING_TRANSFERS).kind is PairKind.CROSSING_TRANSFER
        and classify(graph_fixtures.FIG_PARALLEL).parallel
        and classify(graph_fixtures.FIG_ANTIPARALLEL).antiparallel
    )
    ok = count_ok and unique_ok and figures_ok
    report(4, ok, "counts match (2 nbar - 1)!! - p(nbar)^2 and the 2^nbar nbar! bound for "
                  f"nbar <= 5, all splits; caption pairings classify as stated: {figures_ok}")


def test_criterion_5_boltzmann_solver():
    rng = np.random.default_rng(31337)
    table = bz.build_dos_table(4_000_000, rng)

    width = np.diff(table.edges)
    total_se = math.sqrt(float(np.sum((table.stderr * width) ** 2)))
    dos_ok = abs(table.integral() - 1.0) <= max(3 * total_se, 1e-12)
    se_sym = np.hypot(table.stderr, table.stderr[::-1])
    sym_ok = np.mean(np.abs(table.values - table.values[::-1]) > 3 * se_sym) < 0.02

    shell = bz.ShellSamplerConfig(shell_halfwidth=0.02)
    n = 100_000
    E = 3.0
    rate = 2 * math.pi * table.interp(E)

    def init(k, r):
        return np.zeros((k, 3)), bz.sample_energy_shell_batch(E, k, shell, r)

    t0 = time.time()
    ens = bz.snapshots(init, [20.0 / rate], n, shell, rng, table)[-1]
    mass_ok = bool(np.all(ens.weight == 1.0 / n))
    drift = float(np.max(np.abs(dispersion(ens.V) - E)))
    drift_ok = drift <= 1e-8
    ref = bz.sample_energy_shell_batch(E, n, shell, rng)
    pvals = [sps.ks_2samp(ens.V[:, j], ref[:, j]).pvalue for j in range(3)]
    stationary_ok = min(pvals) * 3 > 0.001  # Bonferroni across components

    ok = dos_ok and sym_ok and mass_ok and drift_ok and stationary_ok
    report(5, ok, f"dos integral {table.integral():.6f} (3se {3 * total_se:.1e}); symmetric; "
                  f"weights exact; energy drift {drift:.1e} (gate 1e-8); "
                  f"stationarity min p {min(pvals):.3f} (gate ~0.001); {time.time() - t0:.0f}s")


def test_criterion_6_selfaveraging_trend(cfg, ensembles):
    variances = [s.variance for s in ensembles]
    decreasing = all(b < a for a, b in zip(variances, variances[1:]))
    rng = np.random.default_rng([cfg.master_seed, ex.SEED_BOOTSTRAP])
    slope, lo, hi = bootstrap_slope(
        cfg.lambdas, [s.real_parts() for s in ensembles], 2000, rng
    )
    ok = decreasing and lo > 0.0
    report(6, ok, f"variances {[f'{v:.3e}' for v in variances]} strictly decreasing: {decreasing}; "
                  f"slope {slope:.2f}, 95% bootstrap CI [{lo:.2f}, {hi:.2f}] (gate: lower bound > 0). "
                  "Note: the asymptotic small-coupling rate is not reproducible at desk scale; "
                  "only the decay trend is asserted.")


def test_criterion_7_kinetic_limit_mean(cfg, ensembles):
    t0 = time.time()
    rep = ex.run_kinetic_comparison(cfg, ensembles)
    rel_gap = rep.differences[-1] / abs(rep.boltzmann)
    ok = rep.nonincreasing_within_errors and rel_gap <= 0.25
    report(7, ok, f"gaps {[f'{d:.4f}' for d in rep.differences]} nonincreasing within error bars: "
                  f"{rep.nonincreasing_within_errors}; relative gap at lam=0.3: "
                  f"{rel_gap * 100:.1f}% (gate 25%); transport side {rep.boltzmann:.4f} "
                  f"+- {rep.boltzmann_stderr:.4f}; {time.time() - t0:.0f}s")


def test_step_size_converged(cfg, ensembles):
    # stream 1 at lam = 0.3, at dt, dt/2 and dt/4: Strang's error is O(dt^2)
    lam = 0.3
    psi0 = wkb_state(cfg.wkb, lam**2, cfg.box())
    W = [ex._realization_value((dataclasses.replace(cfg, dt=cfg.dt / m), lam, psi0, 1))[0] for m in (1, 2, 4)]
    ratio = abs(W[0] - W[1]) / abs(W[1] - W[2])
    err = 4.0 / 3.0 * abs(W[1] - W[0])  # Richardson estimate of the error at dt
    se = ensembles[cfg.lambdas.index(lam)].stderr_mean
    assert 3.5 <= ratio <= 4.5, f"Richardson ratio {ratio:.2f} (gate [3.5, 4.5])"
    assert err < 0.1 * se, f"step error {err:.2e} at dt = {cfg.dt} against stderr of the mean {se:.2e}"


def test_criterion_8_duhamel_consistency(rng):
    box = BoxSpec(16)
    V = sample_disorder(box, 5, 1)
    v = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
    psi = WaveFunction(box, v / np.linalg.norm(v))
    lam, t, dt = 0.3, 2.0, 1e-3
    residuals = duhamel_residuals(4, t, psi, V, lam, PropagatorConfig(dt=dt))
    factor = residuals[1] / residuals[4]

    hom = 0.0
    for n in (1, 2, 3):
        a = duhamel_ladder(n, 1.0, psi, V, 0.2, 0.01)[n]
        b = duhamel_ladder(n, 1.0, psi, V, 0.4, 0.01)[n]
        hom = max(hom, float(np.max(np.abs(a.values - 0.5**n * b.values))))

    ok = factor >= 5.0 and hom <= 1e-10
    report(8, ok, f"residual N=1: {residuals[1]:.3e}, N=4: {residuals[4]:.3e}, "
                  f"factor {factor:.1f} (gate 5); homogeneity deviation {hom:.1e} (gate 1e-10)")


def test_criterion_9_schedule_fidelity():
    ok = True
    details = []
    for T, lam in [(0.5, 0.3), (1.0, 0.45), (2.0, 0.1)]:
        s = schedule_parameters(T, lam)
        t = T / lam**2
        eps = 1.0 / (3.0 + t)
        abs_log = abs(math.log(eps))
        ok &= s.eps == eps
        ok &= s.N == math.floor((2.0 / 85.0) * abs_log / abs(math.log(abs_log)))
        ok &= s.kappa == math.ceil(abs_log**100)
    ok &= SCHEDULE_A == 2.0 / 85.0
    ok &= SCHEDULE_B == 100.0
    vb = variance_bound(0.5, 0.3)
    ok &= vb.envelope == 0.3 ** (1.0 / 90.0)
    report(9, ok, "eps = 1/(3+t), N, kappa reproduced exactly; defaults a = 2/85, b = 100; "
                  "envelope exponent 1/90")
