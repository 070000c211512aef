"""Seeded closed-loop episodes and Monte-Carlo aggregation.

Each run index owns three independent RNG streams (availability,
disturbance, initial state) derived deterministically from the master
seed, so comparing controllers on the same run index reuses identical
(N, w) draws: common random numbers across controller variants.

Two loops drive the one controller kernel (`controller.controller_step`)
and draw the same per-run streams (`_run_draws`): `run_episode` steps a
single run on `()` lanes and records its full trace, and the batch engine
behind `monte_carlo` steps all runs at once on `(runs,)` lanes. Each loop
keeps a `controller.Ring` of in-flight tentative sequences, reads every
step's input source from the ring's closed-form source map, and drains
the ring once it stops stepping, so every computed depth is tested.

A loop's step does only the recursion: the gather that gives u(k), one
advance of the in-flight sequences, the plant step and the divergence
guard. The bookkeeping runs once per block of `Ring.block` steps: the
ring tests the block's Lyapunov decreases in one stacked pass, and the
engine evaluates the block's stage costs in one pass and adds them to
each run's cost in step order. `run_episode` sums its trace's stage costs
in step order too, so a run's cost is the same bit for bit on either
loop. Every plant must broadcast over leading axes (see
`plants.PlantModel`).

The batch engine reads every run's streams from one stacked block
(`presample`). A sweep seeds each run's streams once (`presample_each`),
draws the disturbances and initial states once, and redraws only the N
schedules when the availability model changes; each grid point's block
is handed to the baseline, a1 and a2 calls, which differ only in their
controller.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .availability import AvailabilityModel, make_sampler, require_valid
from .controller import ControllerKind, Ring, controller_step, drain, effective_lengths
from .errors import ConfigError
from .plants import DisturbanceModel, PlantModel, norm

OVERFLOW_GUARD = 1e12
CI_Z = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimConfig:
    """Everything one Monte-Carlo study needs, including the seeding policy."""

    plant: PlantModel
    availability: AvailabilityModel
    controller: ControllerKind
    disturbance: DisturbanceModel = DisturbanceModel()
    horizon: int = 10_000
    runs: int = 200
    master_seed: int = 0
    x0: Optional[np.ndarray] = None
    x0_box: Optional[Tuple[float, float]] = None  # uniform box, overrides x0
    q_x: float = 0.2
    r_u: float = 2.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        require_valid(self.availability)
        if self.disturbance.dim != self.plant.m:
            raise ConfigError(
                f"disturbance dim {self.disturbance.dim} != plant disturbance dim {self.plant.m}")
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
            if self.x0.shape != (self.plant.n,):
                raise ConfigError(f"x0 must have shape ({self.plant.n},)")

    @property
    def buffer_capacity(self) -> int:
        cap = self.availability.max_len
        if self.controller.buffer_cap is not None:
            cap = min(cap, self.controller.buffer_cap)
        return max(cap, 1)


def run_streams(master_seed: int, run_index: int):
    """(availability, disturbance, initial-state) generators for one run."""
    root = np.random.SeedSequence([int(master_seed), int(run_index)])
    children = root.spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def _initial_state(config: SimConfig, init_rng: np.random.Generator) -> np.ndarray:
    if config.x0_box is not None:
        lo, hi = config.x0_box
        return init_rng.random(config.plant.n) * (hi - lo) + lo
    # all ones by default, which keeps runs comparable across plants
    return np.ones(config.plant.n) if config.x0 is None else config.x0.copy()


@dataclass
class SimTrace:
    """Per-step closed-loop records; truncated early when the state overflows."""

    x: np.ndarray  # (steps, n)
    u: np.ndarray  # (steps, p)
    n_seq: np.ndarray  # (steps,)
    lam: np.ndarray  # (steps,)
    v: np.ndarray  # (steps,)
    diverged: bool

    @property
    def steps(self) -> int:
        return self.x.shape[0]


def _run_draws(config: SimConfig, run_index: int):
    """(availability generator, disturbance draws, x0) for one run, from its three streams."""
    avail_rng, dist_rng, init_rng = run_streams(config.master_seed, run_index)
    w = config.disturbance.draw(dist_rng, (config.horizon,))
    return avail_rng, w, _initial_state(config, init_rng)


def _presample_run(config: SimConfig, run_index: int):
    """(N schedule, disturbance draws, x0) for one run, from its three streams."""
    avail_rng, w, x0 = _run_draws(config, run_index)
    return make_sampler(config.availability, avail_rng).presample(config.horizon), w, x0


def run_episode(config: SimConfig, run_index: int,
                forced_n: Optional[Sequence[int]] = None) -> SimTrace:
    """Simulate one closed-loop episode; deterministic given (master_seed, run_index).

    `forced_n` replaces the availability draws with a fixed sequence-length
    schedule (used for trace-level checks); disturbances and x0 are unchanged.
    """
    plant, kind = config.plant, config.controller
    n_sched, w_all, x = _presample_run(config, run_index)
    if forced_n is not None:
        n_sched = np.array(forced_n, dtype=np.int64)
    horizon = min(config.horizon, len(n_sched))
    ring = Ring(plant, config.buffer_capacity, first_run=run_index)
    xs = np.empty((horizon, plant.n))
    us = np.empty((horizon, plant.p))
    diverged = False

    for k, src in zip(range(horizon), ring.sources(kind, n_sched[:horizon])):
        u = controller_step(kind, plant, x, n_sched[k], ring, src)
        xs[k], us[k] = x, u
        x = plant.f(x, u, w_all[k])
        if not norm(x) <= OVERFLOW_GUARD:  # the engine's guard: NaN and inf fail it too
            diverged = True
            horizon = k + 1
            break
    drain(plant, ring)

    xs, ns = xs[:horizon], n_sched[:horizon]
    return SimTrace(xs, us[:horizon], ns, effective_lengths(kind, ns),
                    plant.lyapunov(xs), diverged)


def empirical_cost(trace: SimTrace, q_x: float, r_u: float) -> float:
    """Per-step average of q_x*|x|^2 + r_u*|u|^2; infinite for diverged traces.

    The stage costs are summed in step order, as the batch engine does.
    """
    if trace.diverged:
        return float("inf")
    stage = q_x * np.square(trace.x).sum(-1) + r_u * np.square(trace.u).sum(-1)
    return float(np.cumsum(stage)[-1]) / trace.steps


@dataclass
class CostSummary:
    """Aggregated empirical costs over runs; mean/SE/CI over non-diverged runs."""

    mean: float
    stderr: float
    ci95: Tuple[float, float]
    per_run_costs: np.ndarray
    diverged_count: int

    @classmethod
    def from_costs(cls, costs: np.ndarray) -> "CostSummary":
        costs = np.asarray(costs, dtype=float)
        finite = costs[np.isfinite(costs)]
        diverged = int(costs.size - finite.size)
        if finite.size == 0:
            return cls(float("inf"), float("nan"), (float("nan"), float("nan")), costs, diverged)
        mean = float(np.mean(finite))
        stderr = float(np.std(finite, ddof=1) / np.sqrt(finite.size)) if finite.size > 1 else 0.0
        return cls(mean, stderr, (mean - CI_Z * stderr, mean + CI_Z * stderr), costs, diverged)


def presample(config: SimConfig):
    """Every run's streams stacked: (N schedules, disturbances, initial states).

    Shapes are (runs, horizon), (runs, horizon, m) and (runs, n); the arrays
    are read-only. The block depends on the seed, run count, horizon,
    availability, disturbance and initial-state settings but not on the
    controller, so configs that differ only in their controller can share it.
    """
    return next(presample_each([config]))


def presample_each(configs: Sequence[SimConfig]) -> Iterator:
    """Yield `presample(config)` for each config in turn, seeding every run's streams once.

    The configs may differ in their availability model, plant parameters
    and controller, and must agree in everything else that `presample`
    reads. The disturbances and initial states are drawn once and shared
    by every block. The N schedules are drawn again, from each run's saved
    availability-generator state, whenever the availability model is not
    the previous config's (by identity); the last schedules are released
    first, so a caller that drops each block before asking for the next
    holds one at a time.
    """
    first = configs[0]
    runs, horizon, plant = first.runs, first.horizon, first.plant
    w_all = np.empty((runs, horizon, plant.m))
    x0 = np.empty((runs, plant.n))
    states = []  # each run's availability-generator state before its first draw
    for r in range(runs):
        rng, w_all[r], x0[r] = _run_draws(first, r)
        states.append(rng.bit_generator.state)
    w_all.flags.writeable = x0.flags.writeable = False
    n_all = availability = None
    for config in configs:
        if config.availability is not availability:
            availability, n_all = config.availability, None
            n_all = np.empty((runs, horizon), dtype=np.int64)
            for r, state in enumerate(states):
                rng.bit_generator.state = state
                n_all[r] = make_sampler(availability, rng).presample(horizon)
            n_all.flags.writeable = False
        yield n_all, w_all, x0


def _batch_simulate(config: SimConfig,
                    checkpoints: Optional[Sequence[int]] = None, draws=None):
    """Step all runs at once; returns (per-run costs, V at checkpoints).

    `draws` is `presample(config)`, drawn here when not given. Each step
    makes one `controller_step` call on all runs, with N(k) = 0 on the runs
    that have diverged, so they start no new sequence; until a run
    diverges, the step skips the masks that keep diverged runs. The states and
    inputs of a block of `ring.block` steps are kept, and their stage costs
    are added once per block (`_add_stage_costs`). The loop ends when every
    run has diverged and no checkpoint is left; the last block's costs are
    then added and the sequences still in flight drained. V rows come back
    one per requested checkpoint, in the order given.
    """
    plant = config.plant
    horizon, runs = config.horizon, config.runs

    n_all, w_all, x = presample(config) if draws is None else draws
    if n_all.shape != (runs, horizon) or x.shape != (runs, plant.n):
        raise ConfigError("presampled draws do not match the config's runs, horizon and state")
    checkpoints = list(checkpoints or ())
    if any(not 0 <= k < horizon for k in checkpoints):
        raise ConfigError(f"checkpoints must lie in 0..{horizon - 1}, got {checkpoints}")
    wanted, last_check, v_rows = set(checkpoints), max(checkpoints, default=-1), {}

    kind = config.controller
    ring = Ring(plant, config.buffer_capacity, (runs,))
    alive = np.ones(runs, dtype=bool)
    diverged = False  # whether any run has; until then the masks below are identities
    cost = np.zeros(runs)
    xs, us = [], []  # the block's states and inputs, step by step

    with np.errstate(over="ignore", invalid="ignore"):
        # a diverged run's input is never read, so its sources need not know it diverged
        for k, src in zip(range(horizon), ring.sources(kind, n_all)):
            n = np.where(alive, n_all[:, k], 0) if diverged else n_all[:, k]
            u = controller_step(kind, plant, x, n, ring, src)
            if k in wanted:
                v_rows[k] = plant.lyapunov(x)
            xs.append(x)
            us.append(u)
            x_next = plant.f(x, u, w_all[:, k])
            # NaN and inf fail the comparison, so non-finite states count as diverged
            finite = norm(x_next) <= OVERFLOW_GUARD
            if diverged or not finite.all():
                diverged = True
                alive &= finite
                x = np.where(alive[:, None], x_next, x)
            else:
                x = x_next
            if len(xs) == ring.block:
                cost = _add_stage_costs(config, cost, xs, us)
            if diverged and k >= last_check and not alive.any():
                break
        cost = _add_stage_costs(config, cost, xs, us)
        drain(plant, ring)

    costs = cost / horizon
    costs[~alive] = float("inf")
    v_at = np.array([v_rows[k] for k in checkpoints]) if checkpoints else None
    return costs, v_at  # v_at: (len(checkpoints), runs)


def _add_stage_costs(config: SimConfig, cost: np.ndarray, xs: list, us: list) -> np.ndarray:
    """`cost` plus the stage costs of the steps in `xs`/`us`, added in step order; empties both.

    The stage costs of all steps are evaluated in one pass and summed by a
    running sum over the step axis, so each run's total is the same bit
    for bit as adding one step's stage cost at a time.
    """
    if not xs:
        return cost
    x, u = np.stack(xs), np.stack(us)
    xs.clear()
    us.clear()
    stage = config.q_x * np.square(x).sum(-1) + config.r_u * np.square(u).sum(-1)
    return np.add.accumulate(np.concatenate((cost[None], stage)), axis=0)[-1]


def monte_carlo(config: SimConfig, draws=None) -> CostSummary:
    """Run all episodes on the batch engine and aggregate; independent of run order.

    `draws`, if given, is `presample` of this config or of one that differs
    only in its controller; the engine reads it and never writes it.
    """
    costs, _ = _batch_simulate(config, draws=draws)
    return CostSummary.from_costs(costs)


def mean_lyapunov_at(config: SimConfig, checkpoints: Sequence[int]):
    """Mean and standard error of V(x(k)) over runs at the given steps."""
    _, v_at = _batch_simulate(config, checkpoints=checkpoints)
    means = v_at.mean(axis=1)
    ses = v_at.std(axis=1, ddof=1) / np.sqrt(v_at.shape[1])
    return means, ses


def improvement_pct(candidate: CostSummary, reference: CostSummary) -> float:
    """Percentage cost reduction of candidate relative to reference.

    A reference whose every run diverged counts as 100% improvement for a
    finite candidate (the reference cost is unbounded).
    """
    if not (reference.mean > 0.0):
        raise ConfigError("reference mean cost must be positive for improvement")
    if np.isinf(reference.mean):
        return 100.0 if np.isfinite(candidate.mean) else float("nan")
    return 100.0 * (reference.mean - candidate.mean) / reference.mean


def paired_diff(reference: CostSummary, candidate: CostSummary) -> Tuple[float, float]:
    """Mean and standard error of per-run cost differences (reference - candidate).

    Exploits common random numbers: differences are computed run by run,
    over runs where both controllers stayed finite.
    """
    ref, cand = reference.per_run_costs, candidate.per_run_costs
    mask = np.isfinite(ref) & np.isfinite(cand)
    d = ref[mask] - cand[mask]
    if d.size == 0:
        return float("nan"), float("nan")
    se = float(np.std(d, ddof=1) / np.sqrt(d.size)) if d.size > 1 else 0.0
    return float(np.mean(d)), se


def write_runs_csv(summary: CostSummary, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "cost", "diverged"])
        for r, c in enumerate(summary.per_run_costs):
            writer.writerow([r, repr(float(c)), int(not np.isfinite(c))])


def write_trace_csv(trace: SimTrace, path) -> None:
    n, p = trace.x.shape[1], trace.u.shape[1]
    header = (["k"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(p)]
              + ["N", "lambda", "V"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(trace.steps):
            writer.writerow([k, *(repr(float(v)) for v in trace.x[k]),
                             *(repr(float(v)) for v in trace.u[k]),
                             int(trace.n_seq[k]), int(trace.lam[k]), repr(float(trace.v[k]))])
