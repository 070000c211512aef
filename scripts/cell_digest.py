#!/usr/bin/env python3
"""Print one sha256 per simulation cell, to prove two versions give the same bits.

For every cell (grid value x controller kind) of the fig1, fig2 and fig3
sweeps, run through `run_sweep`, it prints a digest of the per-run costs,
one of the sweep rows, and one over x, u, N, lambda and V of the first
`--traces` `run_episode` traces of the cell's config. Two more configs
(sat_2d under a 3-state Markov processor, and log_lyapunov) get the same
cost and trace digests from `monte_carlo` and `run_episode`, and
`anyctrl simulate --traces 2` on configs/simulate.yaml gets one digest per
output file.

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
from anyctrl.simulation import SimConfig, monte_carlo, run_episode  # noqa: E402

Q3 = [[0.85, 0.10, 0.05], [0.15, 0.70, 0.15], [0.05, 0.15, 0.80]]
P3 = [[0.05, 0.10, 0.15, 0.30, 0.40],
      [0.30, 0.30, 0.20, 0.10, 0.10],
      [0.70, 0.15, 0.08, 0.05, 0.02]]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def trace_digest(config, traces: int) -> str:
    parts = []
    for r in range(traces):
        t = run_episode(config, r)
        parts += [t.x, t.u, t.n_seq, t.lam, t.v, np.array([t.diverged])]
    return digest(*parts)


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
            cell = f"{name} {spec.sweep}={value:g} {kind}"
            print(f"{cell} costs {digest(summary.per_run_costs)}")
            config = experiments._config_at(spec, value, kind)
            print(f"{cell} traces {trace_digest(config, args.traces)}")
        table = [[row[k] for k in experiments.SWEEP_COLUMNS] for row in rows]
        print(f"{name} rows {digest(np.array(table, dtype=float))}")

    for name, base in extra_configs(args.seed, args.runs, args.horizon).items():
        for kind in KINDS:
            config = replace(base, controller=ControllerKind(kind))
            print(f"{name} {kind} costs {digest(monte_carlo(config).per_run_costs)}")
            print(f"{name} {kind} traces {trace_digest(config, args.traces)}")

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
