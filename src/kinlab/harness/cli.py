"""Command-line entry point.

    kinlab <command> --config FILE [--seed U64] [--out DIR] [--threads N]
                     [--reproducible]

Commands: simulate (one-coupling ensemble), selfavg, compare, supnorm,
resolvent, graphs, duhamel.  Each writes CSV reports into the output
directory; once they are written, a JSON manifest of the config digest,
the seeds and the reports' hashes goes next to them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from kinlab.harness import experiments as ex
from kinlab.harness.config import ConfigError, load_config
from kinlab.harness.manifest import RunManifest


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_common(p):
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes (at most one per realization)")
    p.add_argument("--reproducible", action="store_true",
                   help="pin the manifest's created timestamp; reductions always "
                        "run in realization order")


def build_parser():
    ap = argparse.ArgumentParser(prog="kinlab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "disorder ensemble of the Wigner observable at one coupling"),
        ("selfavg", "variance of the Wigner observable across couplings"),
        ("compare", "quantum ensemble mean against the transport solution"),
        ("supnorm", "single-realization deviation supremum on a time grid"),
        ("resolvent", "resolvent-integral scaling sweeps"),
        ("graphs", "pairing classification table and bound schedule"),
        ("duhamel", "expansion remainder decay study"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "simulate":
            p.add_argument("--lam", type=float, default=None,
                           help="coupling to run (default: first in the list)")
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, master_seed=args.seed)
    except ConfigError as e:
        parser.error(str(e))
    if args.command == "selfavg" and len(cfg.lambdas) < 2:
        parser.error(f"selfavg fits a trend and needs at least two couplings, got {cfg.lambdas}")
    if args.command == "simulate" and args.lam is not None and args.lam not in cfg.lambdas:
        parser.error(f"--lam {args.lam} is not among the configured couplings {cfg.lambdas}")
    out = Path(args.out or cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        parser.error(f"cannot create output directory {out}: {e.strerror}")
    written = []

    def emit(name, header, rows):
        path = out / name
        ex.write_csv(path, header, rows)
        written.append(path)

    if args.command == "simulate":
        lam = args.lam if args.lam is not None else cfg.lambdas[0]
        stats = ex.run_ensemble(cfg, lam, workers=args.threads)
        emit(f"ensemble_lam{lam}.csv", ex.ENSEMBLE_HEADER, ex.ensemble_rows(stats))
        print(f"lam={lam}: n={stats.n} mean={stats.mean.real:.6g} "
              f"variance={stats.variance:.6g} max_rel_imag={stats.max_rel_imag:.2e}")
    elif args.command == "selfavg":
        stats = [ex.run_ensemble(cfg, lam, workers=args.threads) for lam in cfg.lambdas]
        rep = ex.run_selfaveraging(cfg, stats)
        emit("selfavg.csv", ex.SELFAVG_HEADER, rep.rows)
        print(f"variances: {rep.variances}")
        print(f"strictly decreasing: {rep.strictly_decreasing}")
        print(f"log-log slope {rep.slope:.3f}  95% CI [{rep.slope_ci[0]:.3f}, {rep.slope_ci[1]:.3f}]")
        print("note: the asymptotic rate is not reachable at desk scale; "
              "the report asserts the decay trend only")
    elif args.command == "compare":
        stats = [ex.run_ensemble(cfg, lam, workers=args.threads) for lam in cfg.lambdas]
        rep = ex.run_kinetic_comparison(cfg, stats)
        emit("compare.csv", ex.COMPARE_HEADER, rep.rows)
        for lam, *_, d, c in rep.rows:
            print(f"lam={lam}: |quantum - transport| = {d:.6g} (err {c:.2g})")
        print(f"nonincreasing within error bars: {rep.nonincreasing_within_errors}")
    elif args.command == "supnorm":
        rep = ex.run_timegrid_sup(cfg)
        emit("supnorm.csv", ex.SUPNORM_HEADER, rep.rows)
        for lam, sup in rep.sup_deviation.items():
            print(f"lam={lam}: sup deviation {sup:.6g}")
        print(f"decreasing across couplings: {rep.decreasing_across_lams}")
    elif args.command == "resolvent":
        rep = ex.run_resolvent_suite()
        emit("resolvent.csv", ex.RESOLVENT_HEADER, rep.rows)
        print(f"one-resolvent band ratio: {rep.band_ratio:.3f} (gate 3)")
        print(f"two-resolvent exponent: {rep.two_res_exponent:.3f} (gate 0.85)")
        print(f"three-resolvent exponent: {rep.three_res_exponent:.3f} (gate 0.82)")
    elif args.command == "graphs":
        graph_rows, sched_rows = ex.run_graph_suite(cfg)
        emit("graphs.csv", ex.GRAPH_HEADER, graph_rows)
        emit("schedule.csv", ex.SCHEDULE_HEADER, sched_rows)
        print(f"wrote {len(graph_rows)} classification rows, {len(sched_rows)} schedule rows")
    elif args.command == "duhamel":
        rows = ex.run_duhamel_study(cfg)
        emit("duhamel.csv", ex.DUHAMEL_HEADER, rows)
        for n, r in rows:
            print(f"order cap {n}: residual {r:.6g}")

    # built once the reports exist, so hashlib loads only after the run's
    # work (numpy.random still loads it on a first draw, via secrets)
    manifest = RunManifest(config_digest=cfg.digest(), master_seed=cfg.master_seed,
                           task_seeds=dict(ex.TASK_SEEDS))
    for path in written:
        manifest.add_output(path)
    written.append(out / "manifest.json")
    manifest.write(written[-1], reproducible=args.reproducible)
    print("wrote: " + ", ".join(map(str, written)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
