#!/usr/bin/env python3
"""Print one sha256 per simulation cell, to prove two versions give the same bits.

For every cell (grid value x controller kind) of the fig1, fig2 and fig3
sweeps, run through `run_sweep`, it prints a digest of the per-run costs,
one of the sweep rows, one over x, u, N, lambda and V of the first
`--traces` `run_episode` traces of the cell's config, and one of the
per-run V at the steps in CHECKPOINTS (those below the horizon) from
`_batch_simulate`. A fig1 cell also gets a digest of the `run_episode`
trace of its first diverging run, the trace that stops at the overflow
guard. Two more configs (sat_2d under a 3-state Markov processor, and
log_lyapunov) get the same cost, trace and V digests from `monte_carlo`,
`run_episode` and `_batch_simulate`, and `anyctrl simulate --traces 2` on
configs/simulate.yaml gets one digest per output file.

Run it on two checkouts and diff the outputs; an empty diff means every
cost, row, trace and CLI file is bit-identical:

    python scripts/cell_digest.py > after.txt
    (cd ../other && python scripts/cell_digest.py) > before.txt
    diff before.txt after.txt
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from anyctrl import experiments  # noqa: E402
from anyctrl.availability import MarkovAvailability, from_execution_time  # noqa: E402
from anyctrl.cli import main as cli_main  # noqa: E402
from anyctrl.controller import KINDS, ControllerKind  # noqa: E402
from anyctrl.plants import DisturbanceModel, make_builtin_plant  # noqa: E402
from anyctrl.simulation import (SimConfig, _batch_simulate, monte_carlo,  # noqa: E402
                                run_episode)

Q3 = [[0.85, 0.10, 0.05], [0.15, 0.70, 0.15], [0.05, 0.15, 0.80]]
P3 = [[0.05, 0.10, 0.15, 0.30, 0.40],
      [0.30, 0.30, 0.20, 0.10, 0.10],
      [0.70, 0.15, 0.08, 0.05, 0.02]]
# the first step, both sides of the first block boundary (16 steps), a later
# step and the last step (-1 stands for horizon - 1)
CHECKPOINTS = (0, 15, 16, 200, -1)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def trace_digest(config, runs) -> str:
    parts = []
    for r in runs:
        t = run_episode(config, r)
        parts += [t.x, t.u, t.n_seq, t.lam, t.v, np.array([t.diverged])]
    return digest(*parts)


def checkpoint_digest(config) -> str:
    steps = sorted({k % config.horizon for k in CHECKPOINTS if k < config.horizon})
    _, v_at = _batch_simulate(config, checkpoints=steps)
    return digest(np.array(steps), v_at)


def print_cell(cell, config, costs, traces: int, diverging: bool = False) -> None:
    print(f"{cell} costs {digest(costs)}")
    print(f"{cell} traces {trace_digest(config, range(traces))}")
    print(f"{cell} checkpoints {checkpoint_digest(config)}")
    if diverging:
        runs = np.flatnonzero(~np.isfinite(costs))[:1]
        first = f"run {runs[0]} {trace_digest(config, runs)}" if runs.size else "none"
        print(f"{cell} first diverging {first}")


def extra_configs(seed: int, runs: int, horizon: int):
    sat = SimConfig(plant=make_builtin_plant("sat_2d"),
                    availability=MarkovAvailability(Q3, P3),
                    controller=ControllerKind("baseline"),
                    disturbance=DisturbanceModel(kind="uniform", dim=1, lo=-0.05, hi=0.05),
                    horizon=horizon, runs=runs, master_seed=seed, x0_box=(-2.0, 2.0))
    log = SimConfig(plant=make_builtin_plant("log_lyapunov", rho=0.5),
                    availability=from_execution_time(0.2),
                    controller=ControllerKind("baseline"),
                    disturbance=DisturbanceModel(kind="none", dim=0),
                    horizon=horizon, runs=runs, master_seed=seed, x0_box=(-3.0, 3.0))
    return {"markov_sat_2d": sat, "log_lyapunov": log}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--horizon", type=int, default=1000)
    parser.add_argument("--traces", type=int, default=2, help="run_episode traces per config")
    args = parser.parse_args()

    mc = experiments.monte_carlo
    for name in ("fig1", "fig2", "fig3"):
        spec = experiments.builtin_experiment(name, seed=args.seed, runs=args.runs,
                                              horizon=args.horizon)
        summaries = []

        def recording(config, draws=None):
            summaries.append(mc(config, draws))
            return summaries[-1]

        experiments.monte_carlo = recording
        try:
            rows = experiments.run_sweep(spec)
        finally:
            experiments.monte_carlo = mc
        cells = [(value, kind) for value in spec.grid for kind in KINDS]
        for (value, kind), summary in zip(cells, summaries):
            print_cell(f"{name} {spec.sweep}={value:g} {kind}",
                       experiments._config_at(spec, value, kind), summary.per_run_costs,
                       args.traces, diverging=name == "fig1")
        table = [[row[k] for k in experiments.SWEEP_COLUMNS] for row in rows]
        print(f"{name} rows {digest(np.array(table, dtype=float))}")

    for name, base in extra_configs(args.seed, args.runs, args.horizon).items():
        for kind in KINDS:
            config = replace(base, controller=ControllerKind(kind))
            print_cell(f"{name} {kind}", config, monte_carlo(config).per_run_costs, args.traces)

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["simulate", "--config", str(ROOT / "configs" / "simulate.yaml"),
                         "--out", out, "--runs", str(args.runs),
                         "--horizon", str(args.horizon), "--traces", "2"])
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(Path(out).iterdir())}
    print(f"cli simulate exit {code}")
    for name, sha in files.items():
        print(f"cli simulate {name} {sha}")


if __name__ == "__main__":
    main()
