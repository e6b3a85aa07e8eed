import concurrent.futures
import dataclasses
import importlib
import math
import pkgutil
import tracemalloc
import warnings

import numpy as np
import pytest

import kinlab
from kinlab import boltzmann as bz
from kinlab.bounds import variance_bound
from kinlab.harness import experiments as ex
from kinlab.harness.cli import main as cli_main
from kinlab.harness.config import (
    ConfigError,
    DuhamelStudySpec,
    ExperimentConfig,
    load_config,
    parse_config,
)
from kinlab.lattice import TrigPolynomial, WkbSpec, group_velocity, wkb_state
from kinlab.harness.manifest import RunManifest
from kinlab.harness.stats import EnsembleStats, bootstrap_slope
from kinlab.wigner import TestObservable, pair_wigner, wkb_limit_sampler

from conftest import evolve_free, load_manifest, read_csv, run_fresh_python
from test_graphs import connected_count

SMALL_CFG = """
[run]
lambdas = 0.6 0.45
T = 0.2
tau_grid = 4
L = 20
dt = 0.05
n_realizations = 4
master_seed = 12345
n_particles = 4000
shell_halfwidth = 0.02
dos_samples = 400000
dos_bins = 256
out_dir = out

[wkb]
center = 0 0 0
sigma = 0.25
linear = 1.5707963 0 0

[observable]
center = 0.1 0 0
sigma = 0.8 0.8 0.8
amplitude = 1.0
harmonics = 0 0 0 : 0.5 0 ; 1 0 0 : 0.25 0 ; -1 0 0 : 0.25 0

[duhamel]
L = 8
t = 1.0
lam = 0.3
dt = 0.005
N = 2
"""


@pytest.fixture(scope="module")
def cfg():
    return parse_config(SMALL_CFG)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_roundtrip_fields(cfg):
    assert cfg.lambdas == (0.6, 0.45)
    assert dict(cfg.observable.coeffs)[(1, 0, 0)] == 0.25
    assert cfg.wkb.linear == (1.5707963, 0.0, 0.0)
    assert cfg.duhamel.N == 2
    # the six required keys alone: every other field keeps its dataclass default
    minimal = parse_config(
        "[run]\nlambdas = 0.3\nT = 0.1\nL = 64\ndt = 0.05\nn_realizations = 2\nmaster_seed = 1\n"
    )
    assert minimal == ExperimentConfig(
        lambdas=(0.3,), T=0.1, L=64, dt=0.05, n_realizations=2, master_seed=1
    )


def test_config_digest_stable(cfg):
    assert cfg.digest() == parse_config(SMALL_CFG).digest()
    other = parse_config(SMALL_CFG.replace("master_seed = 12345", "master_seed = 99"))
    assert other.digest() != cfg.digest()


# a valid value other than SMALL_CFG's for every config field; the nested
# specs are walked field by field instead
DIGEST_ALTERNATES = {
    ExperimentConfig: {
        "lambdas": (0.6, 0.5), "T": 0.1, "tau_grid": 5, "L": 22, "dt": 0.04,
        "n_realizations": 5, "master_seed": 1, "n_particles": 4001,
        "shell_halfwidth": 0.01, "dos_samples": 400001, "dos_bins": 257, "out_dir": "elsewhere",
    },
    WkbSpec: {
        "center": (0.1, 0.0, 0.0), "sigma": 0.2, "linear": (1.0, 0.0, 0.0),
        "trig": TrigPolynomial.from_dict({(1, 0, 0): (0.1, 0.0)}),
    },
    TestObservable: {
        "center": (0.0, 0.0, 0.0), "sigma": (0.8, 0.8, 0.9), "amplitude": 2.0,
        "coeffs": (((0, 0, 0), 1.0 + 0.0j),),
    },
    DuhamelStudySpec: {"L": 10, "t": 0.5, "lam": 0.2, "dt": 0.01, "N": 3},
}
NESTED_SPECS = {"wkb": WkbSpec, "observable": TestObservable, "duhamel": DuhamelStudySpec}


def test_config_digest_covers_every_field(cfg):
    base = cfg.digest()
    changed = []
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in NESTED_SPECS:
            spec = getattr(cfg, f.name)
            assert type(spec) is NESTED_SPECS[f.name]
            for g in dataclasses.fields(spec):
                alt = DIGEST_ALTERNATES[type(spec)][g.name]
                assert alt != getattr(spec, g.name)
                nested = dataclasses.replace(spec, **{g.name: alt})
                other = dataclasses.replace(cfg, **{f.name: nested})
                changed.append((f"{f.name}.{g.name}", other.digest() != base))
        else:
            alt = DIGEST_ALTERNATES[ExperimentConfig][f.name]
            assert alt != getattr(cfg, f.name)
            other = dataclasses.replace(cfg, **{f.name: alt})
            changed.append((f.name, other.digest() != base))
    assert [name for name, ok in changed if not ok] == []


def test_config_rejects_box_budget_violation():
    bad = SMALL_CFG.replace("lambdas = 0.6 0.45", "lambdas = 0.6 0.1")
    with pytest.raises(ConfigError):
        parse_config(bad)


WKB_LINEAR = "linear = 1.5707963 0 0\n"
HARMONIC = "; 1 0 0 : 0.25 0 ;"


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("center = 0 0 0\nsigma = 0.25", "center = 0 0\nsigma = 0.25", id="wkb-center-2"),
        pytest.param(WKB_LINEAR, "linear = 1.5707963 0 0 0\n", id="wkb-linear-4"),
        pytest.param("center = 0.1 0 0", "center = 0.1", id="observable-center-1"),
        pytest.param("sigma = 0.8 0.8 0.8", "sigma = 1.0", id="observable-sigma-1"),
        pytest.param("sigma = 0.8 0.8 0.8", "sigma = -1 -1 -1", id="observable-sigma-negative"),
        pytest.param("sigma = 0.8 0.8 0.8", "sigma = 0.8 0 0.8", id="observable-sigma-zero"),
        pytest.param(HARMONIC, "; 0.5 0 0 : 0.25 0 ;", id="harmonic-fractional"),
        pytest.param(HARMONIC, "; 1 0 : 0.25 0 ;", id="harmonic-2"),
        pytest.param(WKB_LINEAR, WKB_LINEAR + "trig = 0.5 0 0 : 0.02 0\n", id="trig-fractional"),
        pytest.param(WKB_LINEAR, WKB_LINEAR + "trig = 1 0 0 0 : 0.02 0\n", id="trig-4"),
    ],
)
def test_config_rejects_bad_vector(old, new):
    assert SMALL_CFG.count(old) == 1
    with pytest.raises(ConfigError):
        parse_config(SMALL_CFG.replace(old, new))


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("dos_bins = 256", "dos_bins = 0", id="dos-bins-0"),
        pytest.param("dos_samples = 400000", "dos_samples = -5", id="dos-samples-negative"),
        pytest.param("n_realizations = 4", "n_realizations = 0", id="realizations-0"),
        pytest.param("n_particles = 4000", "n_particles = 0", id="particles-0"),
        pytest.param(HARMONIC, "; 1 0 0 0.25 0 ;", id="harmonic-no-colon"),
        pytest.param(WKB_LINEAR, WKB_LINEAR + "trig = 1 0 0 0.02 0\n", id="trig-no-colon"),
        pytest.param("sigma = 0.25", "sigma = 0", id="wkb-sigma-0"),
        pytest.param("sigma = 0.25", "sigma = -0.25", id="wkb-sigma-negative"),
        pytest.param("L = 20", "L = twenty", id="run-int-nonnumeric"),
        pytest.param("T = 0.2", "T = 0.2s", id="run-float-nonnumeric"),
        pytest.param("sigma = 0.8 0.8 0.8", "sigma = 0.8 a 0.8", id="vector-nonnumeric"),
        pytest.param(HARMONIC, "; 1 0 0 : 0.25 i ;", id="coefficient-nonnumeric"),
        pytest.param("N = 2", "N = 2.5", id="duhamel-int-nonnumeric"),
        pytest.param("shell_halfwidth = 0.02", "shell_halfwidth = 0", id="shell-halfwidth-0"),
        pytest.param("shell_halfwidth = 0.02", "shell_halfwidth = 0.2", id="shell-halfwidth-wide"),
        pytest.param("tau_grid = 4", "tau_grid = 3", id="tau-grid-3"),
        pytest.param("L = 8", "L = 9", id="duhamel-L-odd"),
        pytest.param("dt = 0.005", "dt = 0", id="duhamel-dt-0"),
        pytest.param("t = 1.0", "t = -1.0", id="duhamel-t-negative"),
        pytest.param("N = 2", "N = -1", id="duhamel-N-negative"),
        pytest.param("N = 2", "N = 13", id="duhamel-N-above-max-order"),
        pytest.param("master_seed = 12345", "master_seed = -1", id="master-seed-negative"),
        pytest.param("L = 20", "L = 21", id="run-L-odd"),
        pytest.param("n_particles = 4000", "n_particle = 4000", id="unknown-key"),
        pytest.param("[duhamel]", "[duhamell]", id="unknown-section"),
        pytest.param("[run]\nlambdas = 0.6 0.45", "lambdas = 0.6 0.45\n[run]", id="key-before-section"),
        pytest.param("lambdas = 0.6 0.45", "lambdas = 0.6 0.45\nlambdas = 0.6 0.3", id="duplicate-key"),
        pytest.param("lambdas = 0.6 0.45", "lambdas = 0.6 0", id="lambda-0"),
        pytest.param("lambdas = 0.6 0.45", "lambdas = 1.5 0.6", id="lambda-above-1"),
        pytest.param("lambdas = 0.6 0.45", "lambdas = 0.6 -0.45", id="lambda-negative"),
        pytest.param("T = 0.2", "T = nan", id="T-nan"),
        pytest.param("dt = 0.05", "dt = inf", id="dt-inf"),
    ],
)
def test_config_rejects_bad_value(old, new):
    assert SMALL_CFG.count(old) == 1
    with pytest.raises(ConfigError):
        parse_config(SMALL_CFG.replace(old, new))


@pytest.mark.parametrize(
    "command, text, extra",
    [
        pytest.param("graphs", SMALL_CFG.replace("lambdas = 0.6 0.45", "lambdas = 0.6 0"), [],
                     id="config-error"),
        pytest.param("graphs", SMALL_CFG, ["--seed", "-1"], id="seed-negative"),
        pytest.param("selfavg", SMALL_CFG.replace("lambdas = 0.6 0.45", "lambdas = 0.6"), [],
                     id="selfavg-one-coupling"),
        pytest.param("simulate", SMALL_CFG, ["--lam", "0.5"], id="simulate-lam-not-configured"),
        pytest.param("graphs", None, [], id="config-missing"),
        # the later --out wins: it names the config file, relative to tmp_path
        pytest.param("simulate", SMALL_CFG, ["--out", "cfg.ini"], id="out-is-a-file"),
    ],
)
def test_cli_rejects_bad_input_as_usage_error(command, text, extra, tmp_path, monkeypatch, capsys):
    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran before the input was rejected")

    monkeypatch.setattr(ex, "run_ensemble", no_ensemble)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.ini"
    if text is not None:
        cfg_path.write_text(text)
    with pytest.raises(SystemExit) as err:
        cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), *extra])
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_and_resolvent_load_no_scipy():
    # a fresh interpreter, so modules other tests imported do not count
    code = ("import sys, kinlab.harness.cli; from kinlab.resolvent import integral_3res; "
            "integral_3res((0.25, 0.25, 0.25), 3.0, 3.0, 0.1, 96); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_fresh_python(code).strip() == "[]"


def test_cli_import_loads_no_hashlib_or_multiprocessing():
    # a fresh interpreter; the manifest hashes and a pool spawns only when used
    unused = ("hashlib", "_hashlib", "multiprocessing", "concurrent.futures.process")
    code = f"import sys, kinlab.harness.cli; print(sorted(set({unused!r}) & set(sys.modules)))"
    assert run_fresh_python(code).strip() == "[]"


def test_cli_import_skips_scipy_optimize():
    # a fresh interpreter, so modules other tests imported do not count
    code = "import sys, kinlab.harness.cli; print('scipy.optimize' in sys.modules)"
    assert run_fresh_python(code).strip() == "False"


def test_quantum_modules_import_without_scipy():
    # a fresh interpreter; kinlab.resolvent is covered by test_cli_and_resolvent_load_no_scipy
    code = ("import sys, kinlab.harness.config, kinlab.dynamics, kinlab.wigner; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh_python(code).strip() == "[]"


def test_no_module_level_mutable_state():
    # every output is a function of (config, seed) only if no module global can
    # carry state from one call to the next
    mutable = (list, dict, set, bytearray, np.ndarray)
    found = []
    for info in pkgutil.walk_packages(kinlab.__path__, "kinlab."):
        module = importlib.import_module(info.name)
        found += [f"{info.name}.{name}" for name, value in vars(module).items()
                  if not (name.startswith("__") and name.endswith("__")) and isinstance(value, mutable)]
    assert found == []


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_load_config_unreadable_is_config_error(kind, tmp_path):
    # a missing file is a case of test_cli_rejects_bad_input_as_usage_error
    path = tmp_path / "cfg.ini"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[run]\nlambdas = 0.6\xff\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(path)


def test_config_rejects_nondescending():
    bad = SMALL_CFG.replace("lambdas = 0.6 0.45", "lambdas = 0.45 0.6")
    with pytest.raises(ConfigError):
        parse_config(bad)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_single_realization_variance_undefined():
    s = EnsembleStats(values=[1.0 + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(s.variance)
        assert np.isnan(s.stderr_mean)


def test_bootstrap_slope_recovers_trend(rng):
    lams = (0.6, 0.45, 0.3)
    values = [rng.normal(scale=lam, size=400) for lam in lams]  # var ~ lam^2: slope 2
    slope, lo, hi = bootstrap_slope(lams, values, 400, rng)
    assert lo <= slope <= hi
    assert abs(slope - 2.0) < 0.5
    assert lo > 0


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_ensemble_deterministic_and_seed_isolated(cfg):
    a = ex.run_ensemble(cfg, 0.6)
    b = ex.run_ensemble(cfg, 0.6)
    assert a.values == b.values  # bit-identical
    bigger = dataclasses.replace(cfg, n_realizations=6)
    c = ex.run_ensemble(bigger, 0.6)
    assert c.values[:4] == a.values  # realization i keyed by stream, not count


def test_ensemble_workers_equivalent(cfg):
    a = ex.run_ensemble(cfg, 0.6, workers=1)
    b = ex.run_ensemble(cfg, 0.6, workers=2)
    assert a.values == b.values


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(InlineExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return InlineExecutor.sizes


def test_worker_pool_bounded_by_realizations(cfg, inline_pool):
    serial = ex.run_ensemble(cfg, 0.6)
    assert inline_pool == []
    pooled = ex.run_ensemble(cfg, 0.6, workers=64)
    assert inline_pool == [cfg.n_realizations]
    assert pooled.values == serial.values
    ex.run_ensemble(dataclasses.replace(cfg, n_realizations=1), 0.6, workers=64)
    assert inline_pool == [cfg.n_realizations]  # one realization runs serially


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_rejects_threads_below_one(threads, tmp_path, inline_pool, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_CFG)
    with pytest.raises(SystemExit) as err:
        cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                  "--threads", threads])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert inline_pool == []
    assert not (tmp_path / "o").exists()


def test_ensemble_moments_exposed(cfg):
    s = ex.run_ensemble(cfg, 0.6)
    assert s.central_moment(2) >= 0
    assert s.central_moment(4) >= 0
    assert s.n == cfg.n_realizations
    assert s.variance == np.var(s.real_parts(), ddof=1)
    assert s.stderr_mean == math.sqrt(s.variance / s.n)


# ---------------------------------------------------------------------------
# reports and files
# ---------------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[0.1, 3, "abc", 1.2345678901234567e-8], [2.0, -1, "x,y", 7.0]]
    ex.write_csv(path, ["a", "b", "c", "d"], rows)
    back = read_csv(path)
    assert back[0]["a"] == 0.1
    assert back[0]["d"] == 1.2345678901234567e-8
    assert back[1]["c"] == "x,y"
    assert back[1]["b"] == -1


def test_manifest_digest_roundtrip(tmp_path):
    m = RunManifest(config_digest="abc", master_seed=7, task_seeds={"x": 1})
    p = tmp_path / "manifest.json"
    m.write(p, reproducible=True)
    back = load_manifest(p)
    assert back.config_digest == "abc"
    assert back.created == "1970-01-01T00:00:00Z"
    # tampering breaks the digest check
    text = p.read_text().replace('"master_seed": 7', '"master_seed": 8')
    p.write_text(text)
    with pytest.raises(ValueError):
        load_manifest(p)


def _cli_run(command, tmp_path, capsys):
    """Run `command` on SMALL_CFG; its output directory and stdout lines."""
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_CFG)
    out = tmp_path / command
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return out, capsys.readouterr().out.splitlines()


def test_report_csv_stdout_contract(cfg, tmp_path, capsys):
    # the experiments' CSVs hold the values their runs compute, and stdout
    # prints those rows' values
    stats = {lam: ex.run_ensemble(cfg, lam) for lam in cfg.lambdas}

    out, lines = _cli_run("selfavg", tmp_path, capsys)
    rows = read_csv(out / "selfavg.csv")
    assert [r["lam"] for r in rows] == list(cfg.lambdas)
    for r in rows:
        s = stats[r["lam"]]
        assert (r["variance"], r["stderr_mean"], r["m2"], r["m4"]) == (
            s.variance, s.stderr_mean, s.central_moment(2), s.central_moment(4)
        )
    assert math.isnan(rows[0]["envelope"])  # lam = 0.6 is outside lam <= 1/2
    assert rows[1]["envelope"] == variance_bound(cfg.T, 0.45).envelope
    assert lines[0] == f"variances: {tuple(r['variance'] for r in rows)}"
    assert lines[1] == f"strictly decreasing: {rows[1]['variance'] < rows[0]['variance']}"

    out, lines = _cli_run("compare", tmp_path, capsys)
    rows = read_csv(out / "compare.csv")
    assert [r["lam"] for r in rows] == list(cfg.lambdas)
    for r, line in zip(rows, lines):
        assert r["quantum_mean"] == stats[r["lam"]].mean.real
        assert r["difference"] == abs(r["quantum_mean"] - r["boltzmann"])
        assert line.startswith(f"lam={r['lam']}: |quantum - transport| = {r['difference']:.6g} ")

    out, lines = _cli_run("supnorm", tmp_path, capsys)
    rows = read_csv(out / "supnorm.csv")
    for lam, line in zip(cfg.lambdas, lines):
        mine = [r for r in rows if r["lam"] == lam]
        assert len(mine) == cfg.tau_grid
        sup = max(r["deviation"] for r in mine)
        assert all(r["sup_deviation"] == sup for r in mine)
        assert line == f"lam={lam}: sup deviation {sup:.6g}"


def test_cli_stdout_reads_its_csv(cfg, tmp_path, capsys, monkeypatch):
    out, lines = _cli_run("simulate", tmp_path, capsys)
    s = ex.run_ensemble(cfg, 0.6)
    rows = read_csv(out / "ensemble_lam0.6.csv")
    assert [(r["value_re"], r["value_im"], r["truncation"]) for r in rows] == [
        (v.real, v.imag, tr) for v, tr in zip(s.values, s.truncation_errors)
    ]
    assert lines[0].startswith(f"lam=0.6: n={len(rows)} mean={s.mean.real:.6g} "
                               f"variance={s.variance:.6g} ")

    out, lines = _cli_run("graphs", tmp_path, capsys)
    n_graph, n_sched = len(read_csv(out / "graphs.csv")), len(read_csv(out / "schedule.csv"))
    assert lines[0] == f"wrote {n_graph} classification rows, {n_sched} schedule rows"

    out, lines = _cli_run("duhamel", tmp_path, capsys)
    rows = read_csv(out / "duhamel.csv")
    assert lines[:-1] == [f"order cap {r['order_cap']}: residual {r['residual_norm']:.6g}" for r in rows]

    monkeypatch.setattr(ex, "BAND_SWEEP", ((1.0 / 3.0, 24), (0.2, 40)))
    monkeypatch.setattr(ex, "TWORES_SWEEP", ((1.0 / 3.0, 24), (0.2, 40)))
    monkeypatch.setattr(ex, "THREERES_SWEEP", ((1.0 / 3.0, 24), (0.2, 40)))
    out, lines = _cli_run("resolvent", tmp_path, capsys)
    rows = read_csv(out / "resolvent.csv")
    ratios = [r["normalized"] for r in rows if r["sweep"] == "one_res"]
    fits = {r["sweep"]: r["fit_exponent"] for r in rows}
    assert lines[:3] == [
        f"one-resolvent band ratio: {max(ratios) / min(ratios):.3f} (gate 3)",
        f"two-resolvent exponent: {fits['two_res']:.3f} (gate 0.85)",
        f"three-resolvent exponent: {fits['three_res']:.3f} (gate 0.82)",
    ]


def test_timegrid_frees_transport_before_quantum_loop(cfg, monkeypatch):
    # 4 ensembles of 20000 particles are 4.5 MB; an L = 20 state is 0.13 MB
    entry = []
    evolve = ex.evolve_full

    def traced(*args):
        entry.append(tracemalloc.get_traced_memory()[0])
        return evolve(*args)

    monkeypatch.setattr(ex, "evolve_full", traced)
    tracemalloc.start()
    try:
        ex.run_timegrid_sup(dataclasses.replace(cfg, n_particles=20000))
    finally:
        tracemalloc.stop()
    assert len(entry) == 6  # two couplings, three segments each
    assert max(entry) < 1e6, f"{max(entry) / 1e6:.2f} MB"


# the benchmark's transport keys: 50000 particles on the 0.005 shell and a
# 4M-sample DOS table
BENCH_TRANSPORT_CFG = ExperimentConfig(
    lambdas=(0.6, 0.45), T=0.5, L=64, dt=0.05, n_realizations=2, master_seed=20260810,
    n_particles=50_000, shell_halfwidth=0.005, dos_samples=4_000_000, dos_bins=512,
    wkb=WkbSpec(sigma=0.35, linear=(1.5707963, 0.0, 0.0)),
)


def test_transport_stage_memory():
    # the stage holds the particles, one round's shell draws and chunk-sized
    # work buffers
    tracemalloc.start()
    try:
        for _ in ex.transport_ensembles(BENCH_TRANSPORT_CFG, [BENCH_TRANSPORT_CFG.T]):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_timegrid_transport_stage_memory(monkeypatch):
    # the 6-tau stage reduces each ensemble before the next is drawn, so it
    # stays under the one-tau bound; one snapshots call for all six taus
    # peaks near 23 MB
    class StageDone(Exception):
        pass

    def stop(*args):
        raise StageDone

    monkeypatch.setattr(ex, "sample_disorder", stop)  # the first call after the stage
    tracemalloc.start()
    try:
        with pytest.raises(StageDone):
            ex.run_timegrid_sup(dataclasses.replace(BENCH_TRANSPORT_CFG, tau_grid=6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


# the benchmark's packet, observable and propagator at one realization of
# lambda = 0.6; the transport keys are small, since only the quantum stage counts
BENCH_QUANTUM_CFG = dataclasses.replace(
    BENCH_TRANSPORT_CFG, lambdas=(0.6,), n_realizations=1, tau_grid=6,
    n_particles=2000, dos_samples=20_000,
    observable=TestObservable(
        center=(0.25, 0.0, 0.0),
        coeffs=(((0, 0, 0), 0.5 + 0j), ((1, 0, 0), 0.25 + 0j), ((-1, 0, 0), 0.25 + 0j)),
    ),
)


@pytest.mark.parametrize("run", [
    lambda: ex.run_ensemble(BENCH_QUANTUM_CFG, 0.6),
    lambda: ex.run_timegrid_sup(BENCH_QUANTUM_CFG),
], ids=["ensemble", "timegrid"])
def test_quantum_stage_holds_no_box_sized_state(run, monkeypatch):
    # from the disorder draw on, the stage holds V and window-sized states:
    # its peak stays below one L^3 complex grid plus V
    draw = ex.sample_disorder

    def traced(*args):
        tracemalloc.reset_peak()  # the quantum stage starts here
        return draw(*args)

    monkeypatch.setattr(ex, "sample_disorder", traced)
    run()  # numpy's FFT plan cache is filled outside the trace
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = 16 * BENCH_QUANTUM_CFG.box().volume
    assert peak < grid + grid // 2, f"peak {peak / grid:.2f} grids"


@pytest.mark.parametrize("taus", [(0.0, 0.2, 0.1), (-0.1, 0.2)], ids=["decreasing", "negative"])
def test_transport_ensembles_reject_unordered_times(cfg, taus):
    # raised at the call, before any ensemble is asked for
    with pytest.raises(ValueError):
        ex.transport_ensembles(cfg, taus)


def test_streamed_ensembles_match_one_snapshots_call(cfg):
    cfg = dataclasses.replace(cfg, n_particles=2000, tau_grid=6)
    taus = [float(x) for x in np.linspace(0.0, cfg.T, cfg.tau_grid)]
    table = bz.build_dos_table(
        cfg.dos_samples, np.random.default_rng([cfg.master_seed, ex.SEED_DOS]), bins=cfg.dos_bins
    )
    rng = np.random.default_rng([cfg.master_seed, ex.SEED_BOLTZMANN])
    shell = bz.ShellSamplerConfig(shell_halfwidth=cfg.shell_halfwidth)
    whole = bz.snapshots(
        lambda n, r: wkb_limit_sampler(cfg.wkb, n, r), taus, cfg.n_particles, shell, rng, table
    )
    streamed = []
    for ens in ex.transport_ensembles(cfg, taus):
        streamed.append(bz.observable(ens, cfg.observable))
    assert streamed == [bz.observable(w, cfg.observable) for w in whole]
    assert np.array_equal(ens.X, whole[-1].X) and np.array_equal(ens.V, whole[-1].V)


def test_timegrid_makes_one_snapshots_call_per_tau(cfg, monkeypatch):
    calls = []
    snapshots = bz.snapshots

    def spy(init, times, *args):
        calls.append(list(times))
        return snapshots(init, times, *args)

    monkeypatch.setattr(bz, "snapshots", spy)
    cfg = dataclasses.replace(cfg, n_particles=2000, tau_grid=6)
    ex.run_timegrid_sup(cfg)
    assert len(calls) == cfg.tau_grid
    assert all(len(times) == 1 for times in calls)


def test_timegrid_frees_previous_state(cfg, monkeypatch):
    # an L = 20 state is 128 kB: the second coupling's state is built after
    # the first coupling's evolved state is released
    entry = []
    build = ex.wkb_state

    def traced(*args):
        entry.append(tracemalloc.get_traced_memory()[0])
        return build(*args)

    monkeypatch.setattr(ex, "wkb_state", traced)
    tracemalloc.start()
    try:
        ex.run_timegrid_sup(dataclasses.replace(cfg, n_particles=2000))
    finally:
        tracemalloc.stop()
    assert len(entry) == 2
    state = 16 * cfg.box().volume
    assert entry[1] - entry[0] < 0.5 * state, f"{(entry[1] - entry[0]) / state:.2f} states"


def test_timegrid_needs_four_points(cfg):
    with pytest.raises(ValueError):
        ex.run_timegrid_sup(dataclasses.replace(cfg, tau_grid=1))


def test_graph_suite_rows(cfg):
    graph_rows, sched_rows = ex.run_graph_suite(cfg)
    for nbar in range(1, 6):
        total = sum(r[3] for r in graph_rows if r[0] + r[1] == nbar)
        assert total == connected_count(nbar) * (nbar + 1)  # all splits
    # schedule rows only for couplings within the lam <= 1/2 hypothesis
    assert [r[0] for r in sched_rows] == [0.45]
    assert sched_rows[0][2] == pytest.approx(1.0 / (3.0 + 0.2 / 0.2025), rel=1e-12)


def test_cli_graphs_and_duhamel(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_CFG)
    out = tmp_path / "o1"
    assert cli_main(["graphs", "--config", str(cfg_path), "--out", str(out), "--reproducible"]) == 0
    assert (out / "graphs.csv").exists()
    assert (out / "schedule.csv").exists()
    m = load_manifest(out / "manifest.json")
    assert m.master_seed == 12345

    out2 = tmp_path / "o2"
    assert cli_main(["duhamel", "--config", str(cfg_path), "--out", str(out2)]) == 0
    rows = read_csv(out2 / "duhamel.csv")
    assert rows[-1]["residual_norm"] < rows[0]["residual_norm"]


def test_cli_determinism_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cli_main(["graphs", "--config", str(cfg_path), "--out", str(out), "--reproducible"])
        outs.append(out)
    for fname in ("graphs.csv", "schedule.csv", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_cli_transport_bytes_independent_of_call_history(tmp_path):
    # a second compare/supnorm in the same process writes the same bytes as
    # the first: no state carries over between runs
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_CFG)
    files = {
        "simulate": ("ensemble_lam0.6.csv",),
        "selfavg": ("selfavg.csv",),
        "compare": ("compare.csv",),
        "supnorm": ("supnorm.csv",),
        "graphs": ("graphs.csv", "schedule.csv"),
        "duhamel": ("duhamel.csv",),
    }
    for run in ("first", "second"):
        for command in files:
            out = tmp_path / run / command
            assert cli_main([command, "--config", str(cfg_path), "--out", str(out),
                             "--reproducible"]) == 0
    for command, fnames in files.items():
        for name in (*fnames, "manifest.json"):
            first = (tmp_path / "first" / command / name).read_bytes()
            assert first == (tmp_path / "second" / command / name).read_bytes(), name


def test_cli_resolvent_bytes_independent_of_call_history(tmp_path, monkeypatch):
    # two small points per sweep; the three-resolvent k = 1/4 is on both grids
    monkeypatch.setattr(ex, "BAND_SWEEP", ((1.0 / 3.0, 24), (0.2, 40)))
    monkeypatch.setattr(ex, "TWORES_SWEEP", ((1.0 / 3.0, 24), (0.2, 40)))
    monkeypatch.setattr(ex, "THREERES_SWEEP", ((1.0 / 3.0, 24), (0.2, 40)))
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_CFG)
    for run in ("first", "second"):
        assert cli_main(["resolvent", "--config", str(cfg_path), "--out", str(tmp_path / run),
                         "--reproducible"]) == 0
    rows = read_csv(tmp_path / "first" / "resolvent.csv")
    assert [r["sweep"] for r in rows] == ["one_res"] * 2 + ["two_res"] * 2 + ["three_res"] * 2
    for name in ("resolvent.csv", "manifest.json"):
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "second" / name).read_bytes(), name


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_CFG)
    out = tmp_path / "o3"
    cli_main(["graphs", "--config", str(cfg_path), "--out", str(out), "--seed", "777"])
    m = load_manifest(out / "manifest.json")
    assert m.master_seed == 777


def test_cli_simulate_compare_supnorm(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(SMALL_CFG)
    out = tmp_path / "o4"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--lam", "0.6"]) == 0
    rows = read_csv(out / "ensemble_lam0.6.csv")
    assert len(rows) == 4 and {"realization", "value_re", "value_im", "truncation"} <= set(rows[0])

    out5 = tmp_path / "o5"
    assert cli_main(["compare", "--config", str(cfg_path), "--out", str(out5)]) == 0
    rows = read_csv(out5 / "compare.csv")
    assert [r["lam"] for r in rows] == [0.6, 0.45]

    out6 = tmp_path / "o6"
    assert cli_main(["supnorm", "--config", str(cfg_path), "--out", str(out6)]) == 0
    rows = read_csv(out6 / "supnorm.csv")
    assert len(rows) == 2 * 4  # two couplings, four grid points


def test_variance_estimator_error_halves_with_doubled_realizations(rng):
    # variance-of-variance scaling under doubling: stderr ratio within 30% of halving
    n = 64
    ratios = []
    for _ in range(200):
        x = rng.normal(size=2 * n)
        v_n = np.var(x[:n], ddof=1)
        v_2n = np.var(x, ddof=1)
        ratios.append((v_n, v_2n))
    sd_n = np.std([a for a, _ in ratios], ddof=1)
    sd_2n = np.std([b for _, b in ratios], ddof=1)
    assert abs(sd_2n / sd_n - 0.5) <= 0.3


def test_transport_only_agreement():
    # collisionless transport against the free quantum evolution at eta = 0.04
    text = SMALL_CFG.replace("lambdas = 0.6 0.45", "lambdas = 0.6 0.2").replace(
        "L = 20", "L = 96"
    ).replace("sigma = 0.25", "sigma = 0.2").replace("T = 0.2", "T = 0.5")
    cfg = parse_config(text)
    lam = 0.2  # eta = 0.04
    eta = lam**2
    psi0 = wkb_state(cfg.wkb, eta, cfg.box())
    psi_t = evolve_free(psi0, cfg.T / eta)  # lam = 0: the exact free evolution
    quantum = pair_wigner(cfg.observable, psi_t, eta).value.real
    # free flight from the harness's transport initial law and generator key
    n = cfg.n_particles
    X, V = wkb_limit_sampler(cfg.wkb, n, np.random.default_rng([cfg.master_seed, ex.SEED_BOLTZMANN]))
    ens = bz.ParticleEnsemble(X + cfg.T * group_velocity(V), V, np.full(n, 1.0 / n))
    val, err = bz.observable(ens, cfg.observable)
    rel = abs(quantum - val.real) / abs(val.real)
    assert rel <= 0.03


def test_timegrid_sup_smaller_at_weaker_coupling_over_seeds():
    text = SMALL_CFG.replace("lambdas = 0.6 0.45", "lambdas = 0.6 0.3").replace(
        "L = 20", "L = 64"
    ).replace("T = 0.2", "T = 0.5").replace("n_particles = 4000", "n_particles = 20000")
    base = parse_config(text)
    wins = 0
    for seed in (11, 12, 13, 14, 15):
        cfg = dataclasses.replace(base, master_seed=seed)
        rep = ex.run_timegrid_sup(cfg)
        if rep.sup_deviation[0.3] < rep.sup_deviation[0.6]:
            wins += 1
    assert wins >= 4
