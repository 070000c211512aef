"""Command-line front end: simulate, stability, and sweep subcommands.

Each loads its YAML file, parses it with `config`, runs and writes; a
ConfigError, which names its key, exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_yaml, parse_certificate_inputs, parse_sim_config, parse_sweep
from .errors import ConfigError
from .experiments import run_sweep, write_sweep_csv
from .simulation import monte_carlo, presample, run_episode, write_runs_csv, write_trace_csv
from .stability import evaluate


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _common_flags(sub, scale: bool = False):
    sub.add_argument("--config", required=True, help="path to the YAML config file")
    sub.add_argument("--out", default=".", help="output directory for artifacts")
    if scale:  # simulate and sweep: overrides of the config file's scale
        for flag, what in (("--seed", "master seed"), ("--runs", "number of runs"),
                           ("--horizon", "steps per run")):
            sub.add_argument(flag, type=int, default=None, help=f"{what} (overrides config)")


def cmd_simulate(args) -> int:
    data = load_yaml(args.config)
    config = parse_sim_config(data, seed=args.seed, runs=args.runs, horizon=args.horizon)
    if not 0 <= args.traces <= config.runs:
        raise ConfigError(f"--traces must lie in 0..{config.runs} (the number of runs), "
                          f"got {args.traces}")
    draws = presample(config)  # one block: the traces are its first runs
    summary = monte_carlo(config, draws)
    out = _out_dir(args)
    write_runs_csv(summary, out / "runs.csv")
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"mean={summary.mean!r}\n")
        fh.write(f"stderr={summary.stderr!r}\n")
        fh.write(f"ci95_lo={summary.ci95[0]!r}\n")
        fh.write(f"ci95_hi={summary.ci95[1]!r}\n")
        fh.write(f"diverged={summary.diverged_count}\n")
        fh.write(f"runs={config.runs}\n")
        fh.write(f"horizon={config.horizon}\n")
        fh.write(f"seed={config.master_seed}\n")
    for r in range(args.traces):
        write_trace_csv(run_episode(config, r, draws), out / f"trace_{r}.csv")
    print(f"mean cost {summary.mean:.6g} +/- {summary.stderr:.3g} "
          f"({summary.diverged_count} diverged); artifacts in {out}")
    return 0


def cmd_stability(args) -> int:
    data = load_yaml(args.config)
    inputs = parse_certificate_inputs(data)
    report = evaluate(inputs)
    lines = report.lines()
    for line in lines:
        print(line)
    out = _out_dir(args)
    with open(out / "stability.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_sweep(args) -> int:
    data = load_yaml(args.config)
    name, spec = parse_sweep(data, seed=args.seed, runs=args.runs, horizon=args.horizon)
    rows = run_sweep(spec)
    out = _out_dir(args)
    path = out / f"sweep_{name}.csv"
    write_sweep_csv(rows, path)
    for row in rows:
        print(f"{spec.sweep}={row['grid_value']:g}: baseline {row['cost_baseline']:.6g}, "
              f"a1 {row['cost_a1']:.6g} ({row['impr_a1_pct']:+.2f}%), "
              f"a2 {row['cost_a2']:.6g} ({row['impr_a2_pct']:+.2f}%)")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyctrl",
        description="Sequence-based anytime control: simulations, certificates, sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one Monte-Carlo study")
    _common_flags(sim, scale=True)
    sim.add_argument("--traces", type=int, default=0,
                     help="write per-step CSVs for the first K runs, 0 <= K <= runs")
    sim.set_defaults(func=cmd_simulate)

    stab = sub.add_parser("stability", help="evaluate the closed-form certificates")
    _common_flags(stab)
    stab.set_defaults(func=cmd_stability)

    swp = sub.add_parser("sweep", help="run a controller-comparison sweep")
    _common_flags(swp, scale=True)
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
