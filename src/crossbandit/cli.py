"""Command-line front end.

    crossbandit run -c experiment.ini [-o outdir]
    crossbandit sweep -c experiment.ini --axis T --values 4096,8192,16384 [-o outdir]
    crossbandit verify --level quick|full [--only name,name]
    crossbandit graph-info --spec cliques:4x4 | --file adjacency.txt

Replicates run in this process: the known-distribution learner and the
baselines play all of a run's replicates in lockstep, and the epoch learner
plays them one after another. All randomness flows from the config's master
seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .graph import GraphSpec, build_graph, load_adjacency
from .harness import (
    ConfigError,
    run,
    run_sweep,
    write_curves_csv,
    write_report_json,
    write_sweep_csv,
)


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.output:
        config.output_dir = args.output
    result = run(config)
    print(f"algo={config.algo} T={config.horizon} M={config.num_contexts} "
          f"K={result.graph.num_arms} alpha={result.graph.alpha} "
          f"replicates={config.replicates}")
    print(f"expected-form regret: mean {result.mean_expected:.3f} "
          f"(std {result.std_expected:.3f})")
    print(f"realized regret:      mean {result.mean_realized:.3f} "
          f"(std {result.std_realized:.3f})")
    if config.output_dir:
        outdir = Path(config.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for trace in result.traces:
            trace.write_ndjson(outdir / f"trace_rep{trace.replicate:03d}.ndjson")
        write_report_json(result, outdir / "report.json")
        write_curves_csv(result, outdir / "curves.csv")
        print(f"outputs written to {outdir}")
    return 0


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    values = [int(v) for v in args.values.split(",")]
    sweep = run_sweep(config, args.axis, values)
    for row in sweep.rows:
        print(f"{args.axis}={row.value:g}: expected regret {row.mean_expected:.3f} "
              f"± {row.stderr_expected:.3f} ({row.replicates} replicates)")
    if sweep.fit is not None:
        print(f"log-log slope: {sweep.fit.slope:.4f} ± {sweep.fit.stderr:.4f}")
    if sweep.ratios is not None:
        for value, ratio in sweep.ratios:
            print(f"regret ratio {args.axis}={value:g} vs {sweep.rows[0].value:g}: {ratio:.3f}")
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(sweep, outdir / f"sweep_{args.axis}.csv")
        print(f"outputs written to {outdir}")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import run_checks

    names = args.only.split(",") if args.only else None
    results = run_checks(level=args.level, names=names)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_graph_info(args) -> int:
    if args.spec:
        graph = build_graph(GraphSpec.parse(args.spec), rng_seed=args.seed)
    else:
        graph = load_adjacency(args.file)
    print(f"K={graph.num_arms} alpha={graph.alpha} "
          f"strongly_observable={str(graph.strongly_observable).lower()} "
          f"edges={graph.num_edges}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossbandit",
        description="Simulator for cross-learning contextual bandits with graph feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("-c", "--config", required=True, help="config file path")
    p_run.add_argument("-o", "--output", help="output directory (traces, report, curves)")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one axis of an experiment")
    p_sweep.add_argument("-c", "--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=("T", "M", "alpha"))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("-o", "--output", help="output directory for the aggregate CSV")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--level", default="quick", choices=("quick", "full"))
    p_verify.add_argument("--only", help="comma-separated subset of check names")
    p_verify.set_defaults(fn=_cmd_verify)

    p_info = sub.add_parser("graph-info", help="inspect a feedback graph")
    group = p_info.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="graph spec, e.g. cliques:4x4 or er:10:0.3")
    group.add_argument("--file", help="adjacency file path")
    p_info.add_argument("--seed", type=int, default=0, help="seed for random specs")
    p_info.set_defaults(fn=_cmd_graph_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
