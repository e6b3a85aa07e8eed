"""Tests of the benchmark itself (not of kinlab).

    python3 -m pytest perfbench/tests -q

They run the per-repetition child on a small config, so they take seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import refcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_CONFIG = """\
[run]
lambdas = 0.9 0.8
T = 0.1
tau_grid = 4
L = 12
dt = 0.05
n_realizations = 2
master_seed = 5
n_particles = 2000
shell_halfwidth = 0.005
dos_samples = 100000
dos_bins = 64
out_dir = out

[wkb]
center = 0 0 0
sigma = 0.35
linear = 1.5707963 0 0
trig = 1 0 0 : 0.02 0

[observable]
center = 0.25 0 0
sigma = 1.0 1.0 1.0
amplitude = 1.0
harmonics = 0 0 0 : 0.5 0 ; 1 0 0 : 0.25 0 ; -1 0 0 : 0.25 0
"""


def run_child(mode, workload, job: Path) -> dict:
    job.mkdir(parents=True, exist_ok=True)
    (job / "config.ini").write_text(SMALL_CONFIG)
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), mode, workload, str(job), "0"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return json.loads((job / "result.json").read_text())


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Untraced and traced repetitions of both CLI workloads on the small config."""
    base = tmp_path_factory.mktemp("runs")
    return {
        (workload, mode): (run_child(mode, workload, base / f"{workload}-{mode}"), base / f"{workload}-{mode}")
        for workload in workloads.CLI_WORKLOADS
        for mode in ("run", "trace")
    }


@pytest.mark.parametrize("workload", sorted(workloads.CLI_WORKLOADS))
def test_traced_output_bytes_equal_untraced(small_runs, workload):
    name = workloads.output_name(workload)
    untraced = (small_runs[workload, "run"][1] / "out" / name).read_bytes()
    traced = (small_runs[workload, "trace"][1] / "out" / name).read_bytes()
    assert traced == untraced


@pytest.mark.parametrize("workload", sorted(workloads.CLI_WORKLOADS))
def test_layer_self_times_add_up_to_traced_wall(small_runs, workload):
    layers = small_runs[workload, "trace"][0]["layers"]
    covered = sum(layers[name] for name in tracing.LAYER_SECONDS.values())
    assert layers["trace.unattributed_s"] >= 0.0
    assert covered + layers["trace.unattributed_s"] == pytest.approx(layers["trace.wall_s"], abs=1e-9)
    assert layers["dynamics.evolve_calls"] == (4 if workload == "ensemble" else 6)
    assert layers["dynamics.fft_calls"] == 2 * layers["dynamics.split_steps"] + 2 * layers["dynamics.evolve_calls"]
    assert layers["dynamics.norm_drift_max"] <= tracing.NORM_DRIFT_LIMIT


def _reference(small_runs, workload, tmp_path):
    out = small_runs[workload, "run"][1] / "out" / workloads.output_name(workload)
    n_transport = 1 if workload == "ensemble" else 4
    transport = [(0.47, 1e-3, 1e-5)] * n_transport
    return refcheck.make_reference(workload, out, transport), out


def _perturbed_copy(out: Path, tmp_path: Path, column: str, change) -> Path:
    header, rows = refcheck.read_rows(out)
    i = header.index(column)
    rows[0][i] = repr(change(float(rows[0][i])))
    path = tmp_path / out.name
    path.write_text("\r\n".join(",".join(r) for r in [header, *rows]) + "\r\n")
    return path


def test_check_accepts_identical_output_as_bitwise(small_runs, tmp_path):
    ref, out = _reference(small_runs, "ensemble", tmp_path)
    verdict = refcheck.check(ref, out)
    assert verdict["ok"] and verdict["bitwise"]


def test_check_rejects_perturbed_quantum_value(small_runs, tmp_path):
    ref, out = _reference(small_runs, "ensemble", tmp_path)
    verdict = refcheck.check(ref, _perturbed_copy(out, tmp_path, "quantum_mean", lambda v: v * (1 + 1e-7)))
    assert not verdict["ok"]
    assert "quantum_mean" in verdict["mismatch"]


def test_check_tolerates_transport_noise_but_not_bitwise(small_runs, tmp_path):
    ref, out = _reference(small_runs, "timegrid", tmp_path)
    # one transport standard error of the synthetic reference
    verdict = refcheck.check(ref, _perturbed_copy(out, tmp_path, "deviation", lambda v: v + 1e-3))
    assert verdict["ok"] and not verdict["bitwise"]


def test_benchmark_refuses_a_directory_without_kinlab(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_seed_lands_on_a_recorded_reference():
    for seed in range(2 * workloads.SEED_POOL):
        for workload in workloads.WORKLOADS:
            assert workloads.reference_path(workload, seed).is_file()
