"""Record the reference outputs the benchmark checks against, and the baseline.

    python3 perfbench/record.py references [WORKLOAD ...]
    python3 perfbench/record.py baseline RUN_LOG ...

`references` runs, from the root of a checkout, every pool seed of each CLI
workload (and the resolvent points once) in fresh interpreters, and writes
perfbench/reference/*.json.  The transport standard errors that set the
tolerances come from a cold `warm`-mode child, which must reproduce the
CLI's transport value bitwise.  Run it only on the commit whose outputs are
the reference.

`baseline` reads the logs of `perfbench/run.py` runs (their last line is the
JSON result) and writes perfbench/baseline.json with the per-workload
medians and quartiles, the run count and the environment.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import refcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record_one(workload: str, seed: int):
    runner = run.Runner(Path.cwd(), workload, seed, reference=None)
    try:
        result, job = runner.child("run")
        if result is None:
            raise SystemExit(f"{workload} seed {seed}: repetition failed")
        transport = None
        if workload in workloads.CLI_WORKLOADS:
            probe, _ = runner.child("warm")
            if probe is None:
                raise SystemExit(f"{workload} seed {seed}: transport probe failed")
            transport = probe["cold"]
        output = job / "out" / workloads.output_name(workload)
        ref = refcheck.make_reference(workload, output, transport)
        if workload == "ensemble":
            col = ref["header"].index("boltzmann")
            if any(float(row[col]) != transport[0][0] for row in ref["rows"]):
                raise SystemExit("transport replay does not reproduce the CLI value")
        path = workloads.reference_path(workload, seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref) + "\n")
        print(f"wrote {path.name} ({result['wall_s']:.2f} s)", flush=True)
    finally:
        runner.close()


def record_references(names):
    for workload in names or workloads.WORKLOADS:
        seeds = [0] if workload == "resolvent" else range(workloads.SEED_POOL)
        for seed in seeds:
            record_one(workload, seed)


def record_baseline(logs):
    runs = {}
    for log in logs:
        lines = Path(log).read_text().strip().splitlines()
        head = re.match(r"workload (\S+), seed (\d+) .*trace (\d)", lines[0])
        env = json.loads(lines[1].removeprefix("environment "))
        result = json.loads(lines[-1])
        runs.setdefault((head[1], int(head[3])), []).append(result)
    out = {"environment": env, "workloads": {}}
    for (workload, trace), results in sorted(runs.items()):
        entry = out["workloads"].setdefault(workload, {})
        summary = {}
        for name in results[0]["metrics"]:
            values = sorted(r["metrics"][name]["value"] for r in results)
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary[name] = {"median": q2, "q1": q1, "q3": q3,
                             "unit": results[0]["metrics"][name]["unit"]}
        entry["per_layer" if trace else "end_to_end"] = {
            "runs": len(results),
            "all_correct": all(r["correct"] for r in results),
            "metrics": summary,
        }
    path = BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in ("references", "baseline"):
        raise SystemExit(__doc__)
    if sys.argv[1] == "references":
        record_references(sys.argv[2:])
    else:
        record_baseline(sys.argv[2:])
