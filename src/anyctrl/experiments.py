"""Controller-comparison sweeps with common random numbers.

A sweep runs baseline / buffer-wiping / tail-keeping controllers over a
parameter grid, reusing identical availability and disturbance streams per
run index so that paired cost differences are low-variance. The three
named experiments vary, respectively, the execution time tau, the linear
plant parameter a, and an artificial buffer-size cap.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import List, Optional, Sequence

import numpy as np

from .availability import from_execution_time
from .controller import KINDS, ControllerKind
from .errors import ConfigError
from .plants import DisturbanceModel, make_builtin_plant
from .simulation import (CI_Z, SimConfig, improvement_pct, monte_carlo,
                         paired_diff, presample)

EXPERIMENTS = ("fig1", "fig2", "fig3", "custom")

SWEEP_COLUMNS = [
    "grid_value",
    "cost_baseline", "cost_a1", "cost_a2",
    "se_baseline", "se_a1", "se_a2",
    "impr_a1_pct", "impr_a2_pct",
    "ci_diff_a1_lo", "ci_diff_a1_hi",
    "ci_diff_a2_lo", "ci_diff_a2_hi",
    "diverged_baseline", "diverged_a1", "diverged_a2",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """A named sweep: which variable moves over which grid, on what template."""

    name: str
    sweep: str  # tau | a | buffer_cap
    grid: Sequence[float]
    base: SimConfig

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.name!r}; choose from {EXPERIMENTS}")
        if self.sweep not in ("tau", "a", "buffer_cap"):
            raise ConfigError(f"sweep variable must be tau, a, or buffer_cap, got {self.sweep!r}")
        if len(self.grid) == 0:
            raise ConfigError("sweep grid must be nonempty")
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in self.grid):
            raise ConfigError(f"sweep grid must hold numbers, got {list(self.grid)!r}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        if self.sweep == "buffer_cap" and any(not isinstance(v, Integral) or v < 1
                                              for v in self.grid):
            raise ConfigError(f"sweep grid over buffer_cap must hold integers >= 1, "
                              f"got {list(self.grid)!r}")


def builtin_experiment(name: str, *, seed: int = 0, runs: int = 200,
                       horizon: int = 10_000,
                       grid: Optional[Sequence[float]] = None) -> ExperimentSpec:
    """The three stock experiment protocols at desk scale."""
    if name == "fig1":
        plant = make_builtin_plant("cubic_scalar")
        base = SimConfig(
            plant=plant,
            availability=from_execution_time(0.3),  # placeholder, swept
            controller=ControllerKind("baseline"),
            disturbance=DisturbanceModel(kind="uniform", dim=1, lo=0.0, hi=0.01),
            horizon=horizon, runs=runs, master_seed=seed,
        )
        return ExperimentSpec("fig1", "tau", tuple(grid or (0.1, 0.2, 0.3, 0.4, 0.5)), base)
    if name == "fig2":
        plant = make_builtin_plant("linear_scalar", a=0.9)
        base = SimConfig(
            plant=plant,
            availability=from_execution_time(0.3),
            controller=ControllerKind("baseline"),
            disturbance=DisturbanceModel(kind="gaussian", dim=1, variance=0.1),
            horizon=horizon, runs=runs, master_seed=seed,
        )
        return ExperimentSpec("fig2", "a", tuple(grid or (0.9, 1.1, 1.3, 1.5)), base)
    if name == "fig3":
        plant = make_builtin_plant("linear_scalar", a=1.7)
        base = SimConfig(
            plant=plant,
            availability=from_execution_time(0.23),
            controller=ControllerKind("baseline"),
            disturbance=DisturbanceModel(kind="gaussian", dim=1, variance=0.1),
            horizon=horizon, runs=runs, master_seed=seed,
        )
        return ExperimentSpec("fig3", "buffer_cap", tuple(grid or (1, 2, 3, 4)), base)
    raise ConfigError(f"no built-in experiment named {name!r}")


def _config_at(spec: ExperimentSpec, value: float, kind: str) -> SimConfig:
    base = spec.base
    cap = None
    if spec.sweep == "tau":
        base = replace(base, availability=from_execution_time(float(value)))
    elif spec.sweep == "a":
        base = replace(base, plant=make_builtin_plant("linear_scalar", a=float(value)))
    else:
        cap = int(value)
    controller = ControllerKind(kind, buffer_cap=cap if kind != "baseline" else None)
    return replace(base, controller=controller)


def run_sweep(spec: ExperimentSpec) -> List[dict]:
    """One row per grid point, comparing the three controllers under shared streams."""
    rows = []
    for value in spec.grid:
        configs = {kind: _config_at(spec, value, kind) for kind in KINDS}
        # the three controllers share one read-only block of presampled streams
        base = configs["baseline"]
        draws = presample(base) if base.plant.vectorized else None
        summaries = {kind: monte_carlo(config, draws) for kind, config in configs.items()}
        del draws  # freed before the next grid point's block is drawn
        row = {"grid_value": value}
        for kind, summary in summaries.items():
            row[f"cost_{kind}"] = summary.mean
            row[f"se_{kind}"] = summary.stderr
            row[f"diverged_{kind}"] = summary.diverged_count
        for kind in ("a1", "a2"):
            row[f"impr_{kind}_pct"] = improvement_pct(summaries[kind], summaries["baseline"])
            diff, se = paired_diff(summaries["baseline"], summaries[kind])
            row[f"ci_diff_{kind}_lo"] = diff - CI_Z * se
            row[f"ci_diff_{kind}_hi"] = diff + CI_Z * se
        rows.append(row)
    return rows


def write_sweep_csv(rows: List[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in SWEEP_COLUMNS})
