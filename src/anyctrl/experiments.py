"""Controller-comparison sweeps with common random numbers.

A sweep runs baseline / buffer-wiping / tail-keeping controllers over a
parameter grid, reusing identical availability and disturbance streams per
run index so that paired cost differences are low-variance. Each run's
streams are seeded and drawn once per sweep; only the N schedules are
drawn again when the swept value changes the availability model. The three
stock experiments (`BUILTIN`) vary, respectively, the execution time tau,
the linear plant parameter a, and an artificial buffer-size cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .availability import from_execution_time
from .controller import KINDS, ControllerKind
from .errors import ConfigError, integer, reals
from .plants import DisturbanceModel, PlantModel, make_builtin_plant
from .simulation import (CI_Z, SimConfig, _write_csv, improvement_pct, monte_carlo,
                         paired_diff, presample_each)

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
    """A sweep: which variable moves over which grid, on what template."""

    sweep: str  # tau | a | buffer_cap
    grid: Sequence[float]
    base: SimConfig

    def __post_init__(self):
        if self.sweep not in ("tau", "a", "buffer_cap"):
            raise ConfigError(f"sweep variable must be tau, a, or buffer_cap, got {self.sweep!r}")
        if self.sweep == "a" and self.base.plant.name != "linear_scalar":
            raise ConfigError("sweeping a needs base.plant.name linear_scalar, "
                              f"got {self.base.plant.name!r}")
        values = reals(self.grid, "grid")
        if values.ndim != 1 or values.size == 0:
            raise ConfigError(f"sweep grid must be a nonempty list of numbers, got {self.grid!r}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        for value in self.grid if self.sweep == "tau" else ():
            try:  # the model's own rule on tau, named after the grid
                from_execution_time(value)
            except ConfigError as exc:
                raise ConfigError("sweep grid over tau"
                                  + str(exc).removeprefix("availability.tau")) from None
        for value in self.grid if self.sweep == "a" else ():
            try:  # the plant's own rule on a, named after the grid
                _linear_plant(self.base, value)
            except ConfigError as exc:
                raise ConfigError(f"sweep grid over a: {exc}") from None
        if self.sweep == "buffer_cap" and any(integer(v, "grid") < 1 for v in self.grid):
            raise ConfigError(f"sweep grid over buffer_cap must hold integers >= 1, "
                              f"got {list(self.grid)!r}")


# The stock studies, one row each: sweep variable, default grid, plant name
# and params, execution time tau (a tau sweep replaces it), disturbance.
BUILTIN = {
    "fig1": ("tau", (0.1, 0.2, 0.3, 0.4, 0.5), "cubic_scalar", {}, 0.3,
             DisturbanceModel(kind="uniform", lo=0.0, hi=0.01)),
    "fig2": ("a", (0.9, 1.1, 1.3, 1.5), "linear_scalar", {"a": 0.9}, 0.3,
             DisturbanceModel(kind="gaussian", variance=0.1)),
    "fig3": ("buffer_cap", (1, 2, 3, 4), "linear_scalar", {"a": 1.7}, 0.23,
             DisturbanceModel(kind="gaussian", variance=0.1)),
}


def builtin_experiment(name: str, *, seed: Optional[int] = None, runs: Optional[int] = None,
                       horizon: Optional[int] = None,
                       grid: Optional[Sequence[float]] = None) -> ExperimentSpec:
    """The stock experiment protocol `name` (a key of BUILTIN) at desk scale.

    A `seed`, `runs` or `horizon` of None is the SimConfig default, and a
    `grid` of None the protocol's default grid.
    """
    if name not in BUILTIN:
        raise ConfigError(f"no built-in experiment named {name!r}")
    sweep, default_grid, plant, params, tau, disturbance = BUILTIN[name]
    scale = {key: value for key, value in
             (("master_seed", seed), ("runs", runs), ("horizon", horizon)) if value is not None}
    base = SimConfig(plant=make_builtin_plant(plant, **params),
                     availability=from_execution_time(tau),
                     controller=ControllerKind("baseline"), disturbance=disturbance, **scale)
    return ExperimentSpec(sweep, default_grid if grid is None else tuple(grid), base)


def _linear_plant(base: SimConfig, a: float) -> PlantModel:
    """The linear plant at `a`, with the LQR weights of the base plant."""
    weights = {key: base.plant.params[key] for key in ("q", "r")}
    return make_builtin_plant("linear_scalar", a=float(a), **weights)


def _config_at(spec: ExperimentSpec, value: float, kind: str) -> SimConfig:
    base = spec.base
    cap = None
    if spec.sweep == "tau":
        base = replace(base, availability=from_execution_time(value))
    elif spec.sweep == "a":
        base = replace(base, plant=_linear_plant(base, value))
    else:
        cap = value
    controller = ControllerKind(kind, buffer_cap=cap if kind != "baseline" else None)
    return replace(base, controller=controller)


def run_sweep(spec: ExperimentSpec) -> List[dict]:
    """One row per grid point, comparing the three controllers under shared streams.

    Each run's streams are seeded once for the whole sweep (see
    `simulation.presample_each`): its disturbances and initial state are
    drawn once, and its N schedule once per availability model, so only a
    `tau` sweep draws new schedules at every grid point. A `buffer_cap`
    sweep caps only a1 and a2, so its baseline is one config at every grid
    point: it runs once, and every row reads that summary.
    """
    cells = [{kind: _config_at(spec, value, kind) for kind in KINDS} for value in spec.grid]
    blocks = presample_each([configs["baseline"] for configs in cells])
    rows, done = [], {}  # done: summaries that later grid points reuse
    for value, configs in zip(spec.grid, cells):
        # the three controllers share one read-only block of presampled streams
        draws = next(blocks)
        summaries = {kind: done[kind] if kind in done else monte_carlo(config, draws)
                     for kind, config in configs.items()}
        if spec.sweep == "buffer_cap":
            done["baseline"] = summaries["baseline"]
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
    """Write `run_sweep` rows under SWEEP_COLUMNS, each cell a Python number (`1` stays an int)."""
    _write_csv(path, SWEEP_COLUMNS, [np.array([np.asarray(row[k]).item() for row in rows],
                                              dtype=object) for k in SWEEP_COLUMNS])
