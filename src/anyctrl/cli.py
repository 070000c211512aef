"""Command-line front end: simulate, stability, and sweep subcommands."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (load_yaml, parse_certificate_inputs, parse_sim_config)
from .errors import ConfigError
from .experiments import (ExperimentSpec, builtin_experiment, run_sweep,
                          write_sweep_csv)
from .simulation import (empirical_cost, monte_carlo, run_episode,
                         write_runs_csv, write_trace_csv)
from .stability import evaluate


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _common_flags(sub):
    sub.add_argument("--config", required=True, help="path to the YAML config file")
    sub.add_argument("--out", default=".", help="output directory for artifacts")


def cmd_simulate(args) -> int:
    data = load_yaml(args.config)
    config = parse_sim_config(data, seed=args.seed, runs=args.runs, horizon=args.horizon)
    summary = monte_carlo(config)
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
        write_trace_csv(run_episode(config, r), out / f"trace_{r}.csv")
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


def _custom_spec(data: dict, grid: list, overrides: dict) -> ExperimentSpec:
    """A custom sweep whose variable the base config can actually vary."""
    base_doc = dict(data.get("base") or {})
    base = parse_sim_config(base_doc, **overrides)
    sweep = data.get("sweep")
    if sweep is None:
        raise ConfigError("missing key sweep (tau | a | buffer_cap) for custom experiment")
    if grid is None:
        raise ConfigError("missing key grid for custom experiment")
    if sweep == "a" and base.plant.name != "linear_scalar":
        raise ConfigError("sweeping a needs base.plant.name linear_scalar, "
                          f"got {base.plant.name!r}")
    kind = base_doc["availability"]["kind"]
    if sweep == "tau" and kind != "exec_time":
        raise ConfigError(f"sweeping tau needs base.availability.kind exec_time, got {kind!r}")
    return ExperimentSpec("custom", sweep, tuple(grid), base)


def cmd_sweep(args) -> int:
    data = load_yaml(args.config)
    name = data.get("experiment", "custom")
    overrides = dict(seed=args.seed if args.seed is not None else int(data.get("seed", 0)),
                     runs=args.runs if args.runs is not None else int(data.get("runs", 200)),
                     horizon=args.horizon if args.horizon is not None else int(data.get("horizon", 10_000)))
    grid = data.get("grid")
    if grid is not None and not isinstance(grid, list):
        raise ConfigError(f"grid must be a list, got {grid!r}")
    if name in ("fig1", "fig2", "fig3"):
        spec = builtin_experiment(name, grid=grid, **overrides)
    elif name == "custom":
        spec = _custom_spec(data, grid, overrides)
    else:
        raise ConfigError(f"experiment must be one of fig1, fig2, fig3, custom; got {name!r}")
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
    _common_flags(sim)
    sim.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    sim.add_argument("--runs", type=int, default=None, help="number of runs (overrides config)")
    sim.add_argument("--horizon", type=int, default=None, help="steps per run (overrides config)")
    sim.add_argument("--traces", type=int, default=0, help="write per-step CSVs for this many runs")
    sim.set_defaults(func=cmd_simulate)

    stab = sub.add_parser("stability", help="evaluate the closed-form certificates")
    _common_flags(stab)
    stab.set_defaults(func=cmd_stability)

    swp = sub.add_parser("sweep", help="run a controller-comparison sweep")
    _common_flags(swp)
    swp.add_argument("--seed", type=int, default=None)
    swp.add_argument("--runs", type=int, default=None)
    swp.add_argument("--horizon", type=int, default=None)
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
