"""Workload definitions: generated kinlab configs and resolvent points.

The workload seed never reaches the program directly: it picks the
`master_seed` written into the generated config.  Seeds are folded onto a
pool of SEED_POOL master seeds so that every seed lands on an input whose
reference outputs were recorded (`perfbench/reference/`).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

WORKLOADS = ("ensemble", "timegrid", "resolvent")
SEED_POOL = 16
MASTER_SEED_BASE = 20260810

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Acceptance config at benchmark size: two couplings and two realizations
# per coupling keep one repetition to 5-14 s on two vCPUs, so that at least
# two fit in one run.
_BASE_CONFIG = """\
[run]
lambdas = 0.6 0.45
T = 0.5
tau_grid = {tau_grid}
L = 64
dt = 0.05
n_realizations = 2
master_seed = {master_seed}
n_particles = 50000
shell_halfwidth = 0.005
dos_samples = 4000000
dos_bins = 512
out_dir = out

[wkb]
center = 0 0 0
sigma = 0.35
linear = 1.5707963 0 0
trig = {trig}

[observable]
center = 0.25 0 0
sigma = 1.0 1.0 1.0
amplitude = 1.0
harmonics = 0 0 0 : 0.5 0 ; 1 0 0 : 0.25 0 ; -1 0 0 : 0.25 0
"""

# (kinlab subcommand, output file, tau_grid, trig phase)
CLI_WORKLOADS = {
    "ensemble": ("compare", "compare.csv", 6, ""),
    "timegrid": ("supnorm", "supnorm.csv", 6, "1 0 0 : 0.02 0"),
}

# One point per integral type at the resolvent suite's gamma, p and k.  The
# one- and two-resolvent points are points of the suite's sweeps;
# integral_3res (gamma3 defaults to gamma2, sign +1, as in the suite) runs at
# N = 256, in float64.
RESOLVENT_POINTS = (
    ("integral_1res", (3.0, 0.01, 800)),
    ("integral_2res", ((0.5, 0.0, 0.0), 3.0, 3.0, 0.02, 512)),
    ("integral_3res", ((0.25, 0.25, 0.25), 3.0, 3.0, 0.05, 256)),
)
RESOLVENT_HEADER = ["integral", "args", "value"]
RESOLVENT_OUTPUT = "resolvent_points.csv"


def master_seed(seed: int) -> int:
    return MASTER_SEED_BASE + seed % SEED_POOL


def config_text(workload: str, seed: int) -> str:
    _, _, tau_grid, trig = CLI_WORKLOADS[workload]
    return _BASE_CONFIG.format(tau_grid=tau_grid, master_seed=master_seed(seed), trig=trig)


def output_name(workload: str) -> str:
    return RESOLVENT_OUTPUT if workload == "resolvent" else CLI_WORKLOADS[workload][1]


def reference_path(workload: str, seed: int) -> Path:
    if workload == "resolvent":
        return REFERENCE_DIR / "resolvent.json"
    return REFERENCE_DIR / f"{workload}_{master_seed(seed)}.json"


def run_resolvent_points(resolvent, write_csv, out_dir: Path):
    """Evaluate RESOLVENT_POINTS through the public functions and write the CSV."""
    rows = []
    for name, args in RESOLVENT_POINTS:
        value = getattr(resolvent, name)(*args)
        rows.append([name, repr(args), float(value)])
    write_csv(out_dir / RESOLVENT_OUTPUT, RESOLVENT_HEADER, rows)


def transport_observables(cfg, workload: str):
    """The workload's transport values in this process: [(value, stderr, stderr_of_stderr)].

    Mirrors the transport side of `compare` (one advance to T) and of
    `supnorm` (snapshots on the tau grid), with the harness's generator keys,
    so a cold process reproduces the CLI's numbers bitwise.
    """
    from kinlab import boltzmann as bz
    from kinlab.harness import experiments as ex
    from kinlab.wigner import wkb_limit_sampler

    table = bz.build_dos_table(
        cfg.dos_samples, np.random.default_rng([cfg.master_seed, ex.SEED_DOS]), bins=cfg.dos_bins
    )
    rng = np.random.default_rng([cfg.master_seed, ex.SEED_BOLTZMANN])
    shell = bz.ShellSamplerConfig(shell_halfwidth=cfg.shell_halfwidth)

    def init(n, r):
        return wkb_limit_sampler(cfg.wkb, n, r)

    if workload == "ensemble":
        taus = [cfg.T]
    else:
        taus = [float(x) for x in np.linspace(0.0, cfg.T, cfg.tau_grid)]
    ensembles = bz.snapshots(init, taus, cfg.n_particles, shell, rng, table)
    out = []
    for ens in ensembles:
        value, stderr = bz.observable(ens, cfg.observable)
        out.append((value.real, stderr, _stderr_of_stderr(ens, cfg.observable, stderr)))
    return out


def _stderr_of_stderr(ens, J, stderr: float) -> float:
    """Sampling error of the reported standard error, from the fourth moment."""
    x = np.conj(J.evaluate(ens.X, ens.V)).real
    n = x.size
    d = x - x.mean()
    var = float(np.mean(d * d))
    if var == 0.0:
        return 0.0
    var_of_var = max(float(np.mean(d**4)) - var * var, 0.0) / n
    return stderr * math.sqrt(var_of_var) / (2.0 * var)
