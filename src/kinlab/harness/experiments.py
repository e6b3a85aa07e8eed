"""Experiment drivers: quantum ensembles, kinetic comparisons, report CSVs.

Seeding layout: disorder realization i uses the counter-based stream
(master_seed, i); auxiliary consumers (Boltzmann particles, dos table,
bootstrap, the expansion study) use generators keyed by [master_seed, tag]
so adding realizations never shifts existing ones.  All reductions run in
realization order, so results are independent of the worker count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from kinlab import boltzmann as bz
from kinlab.bounds import BoundParams, amplitude_bound, schedule_parameters, variance_bound
from kinlab.dynamics import PropagatorConfig, duhamel_residuals, evolve_full
from kinlab.graphs import classify, enumerate_connected
from kinlab.harness.config import ExperimentConfig
from kinlab.harness.stats import EnsembleStats, bootstrap_slope
from kinlab.lattice import BoxSpec, WaveFunction, sample_disorder, wkb_state
from kinlab.resolvent import fit_scaling, integral_1res, integral_2res, integral_3res
from kinlab.wigner import pair_wigner, wkb_limit_sampler

# auxiliary seed tags (second word of the generator key)
SEED_BOLTZMANN = 7001
SEED_DOS = 7002
SEED_BOOTSTRAP = 7003
SEED_STUDY = 7004
# generator keys recorded in each run manifest (realization streams count from 1)
TASK_SEEDS = MappingProxyType({
    "disorder_stream_base": 1,
    "boltzmann": SEED_BOLTZMANN,
    "dos": SEED_DOS,
    "bootstrap": SEED_BOOTSTRAP,
    "study": SEED_STUDY,
})


# ---------------------------------------------------------------------------
# CSV output (repr round-trip for floats)
# ---------------------------------------------------------------------------


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow(
                [repr(float(c)) if isinstance(c, (float, np.floating)) else str(c) for c in row]
            )


# ---------------------------------------------------------------------------
# Quantum ensemble
# ---------------------------------------------------------------------------


def _realization_value(args):
    """One disorder realization: draw, evolve psi0, pair.  Returns (value, trunc)."""
    cfg, lam, psi0, stream = args
    eta = lam**2
    V = sample_disorder(psi0.box, cfg.master_seed, stream)
    t = cfg.T / eta
    psi_t = evolve_full(psi0, V, lam, t, PropagatorConfig(dt=cfg.dt))
    pairing = pair_wigner(cfg.observable, psi_t, eta)
    return pairing.value, pairing.truncation_error


def run_ensemble(cfg: ExperimentConfig, lam: float, workers: int = 1) -> EnsembleStats:
    """Disorder ensemble of the Wigner observable at coupling lam.

    Realization i draws disorder stream i; stats aggregate in stream order
    regardless of the worker pool, so growing n_realizations leaves existing
    realizations unchanged.  The pool has at most one worker per realization.
    """
    if lam not in cfg.lambdas:
        raise ValueError(f"lam={lam} not in the configured list {cfg.lambdas}")
    psi0 = wkb_state(cfg.wkb, lam**2, cfg.box())
    jobs = [(cfg, lam, psi0, i) for i in range(1, cfg.n_realizations + 1)]
    stats = EnsembleStats()
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_realization_value, jobs, chunksize=1))
    else:
        results = [_realization_value(j) for j in jobs]
    for value, trunc in results:  # already in stream order
        stats.values.append(value)
        stats.truncation_errors.append(trunc)
    return stats


ENSEMBLE_HEADER = ("realization", "value_re", "value_im", "truncation")


def ensemble_rows(stats: EnsembleStats) -> list:
    """One row per realization, in stream order."""
    return [
        [i, v.real, v.imag, tr]
        for i, (v, tr) in enumerate(zip(stats.values, stats.truncation_errors), start=1)
    ]


# ---------------------------------------------------------------------------
# Self-averaging experiment
# ---------------------------------------------------------------------------


SELFAVG_HEADER = (
    "lam", "eta", "n_realizations", "mean_re", "mean_im",
    "variance", "stderr_mean", "m2", "m4", "envelope",
)


@dataclass
class SelfAveragingReport:
    rows: list
    variances: tuple
    slope: float
    slope_ci: tuple
    strictly_decreasing: bool


def run_selfaveraging(cfg: ExperimentConfig, stats: list) -> SelfAveragingReport:
    """Variance trend of the per-coupling ensembles `stats` (one per cfg.lambdas).

    The envelope column is the variance_bound headline, NaN where lam > 1/2.
    """
    variances = tuple(s.variance for s in stats)
    rng = np.random.default_rng([cfg.master_seed, SEED_BOOTSTRAP])
    slope, lo, hi = bootstrap_slope(
        cfg.lambdas, [s.real_parts() for s in stats], n_boot=2000, rng=rng
    )
    dec = all(b < a for a, b in zip(variances, variances[1:]))
    rows = []
    for lam, s in zip(cfg.lambdas, stats):
        env = variance_bound(cfg.T, lam).envelope if lam <= 0.5 else float("nan")
        m = s.mean
        rows.append([lam, lam**2, s.n, m.real, m.imag, s.variance, s.stderr_mean,
                     s.central_moment(2), s.central_moment(4), env])
    return SelfAveragingReport(rows, variances, slope, (lo, hi), dec)


# ---------------------------------------------------------------------------
# Kinetic comparison
# ---------------------------------------------------------------------------


COMPARE_HEADER = (
    "lam", "quantum_mean", "quantum_stderr", "boltzmann", "boltzmann_stderr",
    "difference", "combined_error",
)


@dataclass
class KineticComparison:
    rows: list
    boltzmann: float  # the coupling-independent transport value and its stderr
    boltzmann_stderr: float
    differences: tuple
    nonincreasing_within_errors: bool


def transport_snapshots(cfg: ExperimentConfig, taus) -> list:
    """Transport ensembles at the increasing times `taus`, from the WKB limit law.

    The DOS table and the particles draw from their own keyed generators.
    """
    table = bz.build_dos_table(
        cfg.dos_samples, np.random.default_rng([cfg.master_seed, SEED_DOS]), bins=cfg.dos_bins
    )
    shell = bz.ShellSamplerConfig(shell_halfwidth=cfg.shell_halfwidth)
    rng = np.random.default_rng([cfg.master_seed, SEED_BOLTZMANN])

    def init(n, r):
        return wkb_limit_sampler(cfg.wkb, n, r)

    return bz.snapshots(init, taus, cfg.n_particles, shell, rng, table)


def run_kinetic_comparison(cfg: ExperimentConfig, stats: list) -> KineticComparison:
    """E<J, W> per coupling, from the ensembles `stats` (one per cfg.lambdas),
    against the transport value <J, mu_T>.

    The transport side is coupling-independent; its sampling error and the
    quantum-side realization error combine in quadrature, plus the Wigner
    truncation bound linearly.
    """
    b_val, b_err = bz.observable(transport_snapshots(cfg, [cfg.T])[-1], cfg.observable)
    b, be = float(b_val.real), float(b_err)

    rows, diffs, combined = [], [], []
    for lam, s in zip(cfg.lambdas, stats):
        qm = s.mean.real
        qe = s.stderr_mean
        diffs.append(abs(qm - b))
        combined.append(math.sqrt(qe**2 + be**2) + s.max_truncation)
        rows.append([lam, qm, qe, b, be, diffs[-1], combined[-1]])
    ok = all(
        diffs[i + 1] <= diffs[i] + combined[i] + combined[i + 1]
        for i in range(len(diffs) - 1)
    )
    return KineticComparison(rows, b, be, tuple(diffs), ok)


# ---------------------------------------------------------------------------
# Time-grid supremum experiment
# ---------------------------------------------------------------------------


SUPNORM_HEADER = ("lam", "tau", "deviation", "sup_deviation")


@dataclass
class TimeGridReport:
    rows: list
    sup_deviation: dict  # lam -> max over the grid of |<J,W> - <J,mu_tau>|
    decreasing_across_lams: bool


def run_timegrid_sup(cfg: ExperimentConfig) -> TimeGridReport:
    """Deviation of disorder stream 1 from the transport value on a tau grid."""
    taus = tuple(float(x) for x in np.linspace(0.0, cfg.T, cfg.tau_grid))
    # only the transport values outlive this line: the ensembles are freed
    # before the quantum loop allocates its grids
    mu_vals = [
        bz.observable(s, cfg.observable)[0].real for s in transport_snapshots(cfg, taus)
    ]

    box = cfg.box()
    V = sample_disorder(box, cfg.master_seed, 1)
    rows = []
    sup = {}
    for lam in cfg.lambdas:
        eta = lam**2
        psi = wkb_state(cfg.wkb, eta, box)
        devs = []
        prev_tau = 0.0
        prop = PropagatorConfig(dt=cfg.dt)
        for tau, mu in zip(taus, mu_vals):
            if tau > prev_tau:
                psi = evolve_full(psi, V, lam, (tau - prev_tau) / eta, prop)
                prev_tau = tau
            w = pair_wigner(cfg.observable, psi, eta).value.real
            devs.append(abs(w - mu))
        sup[lam] = max(devs)
        rows += [[lam, tau, dev, sup[lam]] for tau, dev in zip(taus, devs)]
        del psi  # freed before the next coupling's state is built
    sups = [sup[lam] for lam in cfg.lambdas]
    dec = all(b < a for a, b in zip(sups, sups[1:]))
    return TimeGridReport(rows, sup, dec)


# ---------------------------------------------------------------------------
# Resolvent and graph suites
# ---------------------------------------------------------------------------

RESOLVENT_HEADER = (
    "sweep", "epsilon", "value", "normalized", "N",
    "gamma1", "gamma2", "gamma3", "p_or_k", "fit_exponent",
)

BAND_SWEEP = ((1.0 / 3.0, 48), (0.1, 96), (0.03, 288), (0.01, 800))
TWORES_SWEEP = ((0.1, 96), (0.05, 192), (0.02, 512), (0.01, 800))
THREERES_SWEEP = ((0.1, 512), (0.05, 512), (0.02, 512))
TWORES_P = (0.5, 0.0, 0.0)
THREERES_K = (0.25, 0.25, 0.25)
GAMMA = 3.0  # spectral parameter of every resolvent in the suite


@dataclass
class ResolventReport:
    band_ratio: float
    two_res_exponent: float
    three_res_exponent: float
    rows: list


def run_resolvent_suite() -> ResolventReport:
    """The three scaling sweeps at pinned spans, with their fitted exponents."""
    rows, ratios = [], []
    for eps, N in BAND_SWEEP:
        v = integral_1res(GAMMA, eps, N)
        ratios.append(v / abs(math.log(eps)))
        rows.append(["one_res", eps, v, ratios[-1], N, GAMMA, "", "", "", ""])
    band_ratio = max(ratios) / min(ratios)

    vals2 = [integral_2res(TWORES_P, GAMMA, GAMMA, eps, N) for eps, N in TWORES_SWEEP]
    fit2 = fit_scaling([eps for eps, _ in TWORES_SWEEP], vals2, 2)
    for (eps, N), v in zip(TWORES_SWEEP, vals2):
        rows.append(
            ["two_res", eps, v, v / math.log(eps) ** 2, N, GAMMA, GAMMA, "",
             " ".join(map(str, TWORES_P)), fit2]
        )

    vals3 = [integral_3res(THREERES_K, GAMMA, GAMMA, eps, N)
             for eps, N in THREERES_SWEEP]
    fit3 = fit_scaling([eps for eps, _ in THREERES_SWEEP], vals3, 4)
    for (eps, N), v in zip(THREERES_SWEEP, vals3):
        rows.append(
            ["three_res", eps, v, v / abs(math.log(eps)) ** 4, N, GAMMA, GAMMA, GAMMA,
             " ".join(map(str, THREERES_K)), fit3]
        )

    return ResolventReport(band_ratio, fit2, fit3, rows)


GRAPH_HEADER = ("n1", "n2", "class", "count", "bound")
SCHEDULE_HEADER = ("lam", "t", "eps", "N", "kappa", "envelope_exponent")


def run_graph_suite(cfg: ExperimentConfig):
    """Exhaustive classification table for nbar <= 5 plus the schedule echo."""
    lam_for_bound = min([l for l in cfg.lambdas if l <= 0.5], default=0.5)
    sched = schedule_parameters(cfg.T, lam_for_bound)
    t = cfg.T / lam_for_bound**2
    graph_rows = []
    for nbar in range(1, 6):
        for n1 in range(nbar + 1):
            n2 = nbar - n1
            counts = {}
            for p in enumerate_connected(n1, n2):
                label = classify(p).label()
                counts[label] = counts.get(label, 0) + 1
            bound = amplitude_bound(BoundParams(lam=lam_for_bound, eps=sched.eps, t=t, nbar=nbar))
            for label in sorted(counts):
                graph_rows.append([n1, n2, label, counts[label], float(bound)])

    sched_rows = []
    for lam in cfg.lambdas:
        if lam > 0.5:
            continue  # the variance bound assumes lam <= 1/2
        s = schedule_parameters(cfg.T, lam)
        sched_rows.append(
            [float(lam), float(cfg.T / lam**2), float(s.eps), s.N, s.kappa, 1.0 / 90.0]
        )
    return graph_rows, sched_rows


# ---------------------------------------------------------------------------
# Expansion-decay study
# ---------------------------------------------------------------------------

DUHAMEL_HEADER = ("order_cap", "residual_norm")


def run_duhamel_study(cfg: ExperimentConfig):
    """Residual norm of full evolution minus expansion partial sums."""
    d = cfg.duhamel
    box = BoxSpec(d.L)
    rng = np.random.default_rng([cfg.master_seed, SEED_STUDY])
    v = rng.normal(size=box.volume) + 1j * rng.normal(size=box.volume)
    v /= np.linalg.norm(v)
    psi0 = WaveFunction(box, v)
    V = sample_disorder(box, cfg.master_seed, 1)
    residuals = duhamel_residuals(d.N, d.t, psi0, V, d.lam, PropagatorConfig(dt=d.dt))
    return [[n, r] for n, r in enumerate(residuals)]
