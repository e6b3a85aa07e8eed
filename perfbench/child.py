"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD JOB_DIR T_SPAWN

MODE is `setup` (set up and stop), `run` (untraced), `trace` (spans and
invariant checks) or `warm` (the workload's transport twice in this one
process).  T_SPAWN is the parent's `time.monotonic()` just before it started
this process; set-up time runs from there to the end of the imports and the
config parse.  The result goes to JOB_DIR/result.json; program output goes to
JOB_DIR/out.
"""

import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    mode, workload, job, t_spawn = sys.argv[1], sys.argv[2], Path(sys.argv[3]), float(sys.argv[4])
    sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
    import workloads
    from kinlab.harness import cli
    from kinlab.harness.config import load_config

    cfg_path = job / "config.ini"
    cfg = load_config(cfg_path) if workload in workloads.CLI_WORKLOADS else None
    t_ready = time.monotonic()
    result = {"setup_s": t_ready - t_spawn}

    if mode == "warm":
        first = workloads.transport_observables(cfg, workload)
        second = workloads.transport_observables(cfg, workload)
        result["cold"], result["warm"] = first, second
    elif mode in ("run", "trace"):
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        out = job / "out"
        t0, c0 = time.perf_counter(), time.process_time()
        if workload == "resolvent":
            from kinlab import resolvent
            from kinlab.harness import experiments

            out.mkdir(exist_ok=True)
            workloads.run_resolvent_points(resolvent, experiments.write_csv, out)
        else:
            command = workloads.CLI_WORKLOADS[workload][0]
            cli.main([command, "--config", str(cfg_path), "--out", str(out), "--threads", "1"])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, wall, cpu)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")

    with open(job / "result.json", "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
