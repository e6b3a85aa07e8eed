"""kinlab benchmark entry point.

    python3 perfbench/run.py --workload {ensemble,timegrid,resolvent}
                             --seed N --seconds S --trace {0,1}

Run from the root of a kinlab checkout.  Every repetition is a fresh
interpreter (`perfbench/child.py`) started one at a time with `--threads 1`,
because each CLI invocation pays cold caches.  Each repetition's output is
checked against the reference recorded at the seed commit.

--trace 0 spends about S seconds on a few set-up probes and as many
repetitions as fit (at least two), and reports the medians of wall_s, setup_s and
peak_rss_mb.  --trace 1 runs one untraced and one traced repetition, plus
the warm-process transport probe, and reports every per-layer metric.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import refcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
MIN_REPETITIONS = 2
CHILD_TIMEOUT_S = 150
# BLAS and OpenMP pools are pinned to one thread, like the kinlab worker
# pool (--threads 1); integral_3res's scipy.fft calls still use every core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_ENV = {**os.environ, **{k: "1" for k in THREAD_VARS}}

# metric names and units, in the order they are reported
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads_env": {k: CHILD_ENV.get(k) for k in THREAD_VARS},
    }


class Runner:
    """Starts repetitions of one workload and checks their outputs."""

    def __init__(self, root: Path, workload: str, seed: int, reference: dict):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.count = 0

    def child(self, mode: str):
        """Run one child to completion; returns (result dict or None, job dir)."""
        self.count += 1
        job = self.work / f"{self.count:03d}-{mode}"
        job.mkdir(parents=True)
        if self.workload in workloads.CLI_WORKLOADS:
            (job / "config.ini").write_text(workloads.config_text(self.workload, self.seed))
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, self.workload, str(job)]
        with open(job / "stderr.txt", "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd + [repr(t_spawn)], cwd=self.root, env=CHILD_ENV,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # also on SIGTERM or interrupt: never leave a child running
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            tail = (job / "stderr.txt").read_text().strip().splitlines()[-1:] or ["timed out"]
            print(f"  {mode} repetition failed (exit {code}): {tail[0]}")
            return None, job
        return json.loads((job / "result.json").read_text()), job

    def repetition(self, mode: str):
        """One checked repetition: (result or None, verdict)."""
        result, job = self.child(mode)
        verdict = refcheck.check(self.reference, job / "out" / self.reference["output"])
        shutil.rmtree(job / "out", ignore_errors=True)
        if result is not None:
            status = "ok" if verdict["ok"] else f"FAILED ({verdict['mismatch']})"
            print(f"  {mode}: wall {result['wall_s']:.3f} s, setup {result['setup_s']:.3f} s, "
                  f"peak {result['peak_rss_mb']:.1f} MB; check {status}, "
                  f"{'bitwise' if verdict['bitwise'] else 'within tolerance'} "
                  f"(worst {verdict['tolerance_used']:.3g} of tolerance)")
        return result, verdict

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def _named(spec: list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure(runner: Runner, seconds: float):
    """Untraced: set-up probes, then repetitions while they fit in the window."""
    start = time.monotonic()
    setups = []
    for _ in range(SETUP_PROBES):
        result, _ = runner.child("setup")
        if result is not None:
            setups.append(result["setup_s"])
    reps, failed, durations = [], 0, []
    while True:
        t0 = time.monotonic()
        result, verdict = runner.repetition("run")
        durations.append(time.monotonic() - t0)
        if result is None or not verdict["ok"]:
            failed += 1
        if result is not None:
            reps.append((result, verdict))
        elapsed = time.monotonic() - start
        if len(durations) >= MIN_REPETITIONS and elapsed + statistics.median(durations) > seconds:
            break
    attempted = len(durations)
    if not reps:
        return None
    good = [r for r, v in reps if v["ok"]] or [r for r, _ in reps]
    setups += [r["setup_s"] for r in good]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    bitwise = sum(v["bitwise"] for _, v in reps)
    print(f"{len(good)} repetitions and {len(setups)} set-ups in {time.monotonic() - start:.1f} s; "
          f"outputs bitwise equal to the reference in {bitwise} of {len(reps)}")
    return attempted, failed, _named(SPEC["end_to_end"], metrics)


def measure_traced(runner: Runner):
    """One untraced and one traced repetition, then the warm-process probe."""
    attempted, failed, verdicts = 0, 0, []
    base = traced = None
    for mode in ("run", "trace"):
        result, verdict = runner.repetition(mode)
        attempted += 1
        failed += result is None or not verdict["ok"]
        verdicts.append(verdict)
        if mode == "run":
            base = result
        else:
            traced = result
    if base is None or traced is None:
        return None
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
    layers["check.bitwise_frac"] = sum(v["bitwise"] for v in verdicts) / len(verdicts)
    layers["check.tolerance_used_max"] = max(v["tolerance_used"] for v in verdicts)
    layers["boltzmann.warm_repeat_delta"] = 0.0
    if runner.workload in workloads.CLI_WORKLOADS:
        attempted += 1
        probe, _ = runner.child("warm")
        if probe is None:
            failed += 1
        else:
            layers["boltzmann.warm_repeat_delta"] = max(
                abs(w[0] - c[0]) for c, w in zip(probe["cold"], probe["warm"]))
    covered = sum(layers[name] for name in tracing.LAYER_SECONDS.values())
    print(f"traced wall {layers['trace.wall_s']:.3f} s = layer self times {covered:.3f} s "
          f"+ unattributed {layers['trace.unattributed_s']:.3f} s; "
          f"overhead {100 * layers['trace.overhead_frac']:.1f}% of untraced")
    if layers["trace.unattributed_s"] < -1e-6:
        print("span accounting exceeds the traced wall")
        failed += 1
    return attempted, failed, _named(SPEC["per_layer"], layers)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "kinlab" / "__init__.py").is_file():
        print("perfbench: run from the root of a kinlab checkout (src/kinlab not found)", file=sys.stderr)
        return 2
    ref_path = workloads.reference_path(args.workload, args.seed)
    reference = json.loads(ref_path.read_text())

    print(f"workload {args.workload}, seed {args.seed} "
          f"(master_seed {workloads.master_seed(args.seed)}), trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    runner = Runner(root, args.workload, args.seed, reference)
    try:
        outcome = measure_traced(runner) if args.trace else measure(runner, args.seconds)
    finally:
        runner.close()
    if outcome is None:
        print("perfbench: the run did not complete", file=sys.stderr)
        return 1
    attempted, failed, metrics = outcome
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
