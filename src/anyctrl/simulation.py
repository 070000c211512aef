"""Seeded closed-loop episodes and Monte-Carlo aggregation.

Each run index owns three independent RNG streams (availability,
disturbance, initial state) derived deterministically from the master
seed, so comparing controllers on the same run index reuses identical
(N, w) draws: common random numbers across controller variants.

One loop over time steps (`_blocks`) drives the one controller kernel
(`controller.controller_step`) on any leading lane shape: `run_episode`
steps a single run on `()` lanes and records its full trace, and the batch
engine behind `monte_carlo` steps all runs at once on `(runs,)` lanes. Both
draw the same per-run streams (`_run_draws`). The loop keeps a
`controller.Ring` of in-flight tentative sequences, reads every step's
input source from the ring's closed-form source map, and drains the ring
once it stops stepping, so every computed depth is tested.

A step does only the recursion: the gather that gives u(k), one advance of
the in-flight sequences, the plant step and the divergence guard. A lane
diverges when its next state's norm exceeds OVERFLOW_GUARD or is not
finite; the guard first tests the whole next state's squared norm, one dot
product, against GUARD_PRECHECK, and takes the per-lane norms only when
that fails (NaN, inf and an overflowing sum all fail it) and on every step
after the first divergence, so its outcome is the per-lane test's. The
bookkeeping runs once per block of `Ring.block` steps, which the ring
sizes by its rows (16 from 64 rows up, 256 for one run at Lambda 4): the
ring tests the block's Lyapunov decreases in one stacked pass, and the
loop hands the block's states and inputs to its consumer. `run_episode`
joins the blocks into its trace; the engine evaluates each block's stage
costs in one pass and adds them to each run's cost in step order, so a
run's cost is the same bit for bit as the step-order sum over its trace.
Every plant must broadcast over leading axes (see `plants.PlantModel`).

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
from .plants import DisturbanceModel, PlantModel, norm, sum_squares

OVERFLOW_GUARD = 1e12
# a whole next state whose squared norm is at most this has every lane's norm
# at most OVERFLOW_GUARD / 2, so its lanes pass the guard without testing each
GUARD_PRECHECK = (OVERFLOW_GUARD / 2) ** 2
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
        cap = self.controller.buffer_cap
        return self.availability.max_len if cap is None else min(self.availability.max_len, cap)


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
    n_seq: np.ndarray  # (steps,), as drawn: availability.length_dtype, or int64 if forced
    lam: np.ndarray  # (steps,), int64
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


def run_episode(config: SimConfig, run_index: int,
                forced_n: Optional[Sequence[int]] = None) -> SimTrace:
    """Simulate one closed-loop episode; deterministic given (master_seed, run_index).

    `forced_n` replaces the availability draws with a fixed sequence-length
    schedule, as int64 (used for trace-level checks); disturbances and x0
    are unchanged.
    It stops at the step whose next state fails the overflow guard; an empty
    `forced_n` gives an empty trace. The trace records N(k) as drawn and
    lambda(k) of the capped schedule.
    """
    avail_rng, w_all, x0 = _run_draws(config, run_index)
    n_sched = (make_sampler(config.availability, avail_rng).presample(config.horizon)
               if forced_n is None else np.array(forced_n, dtype=np.int64)[:config.horizon])
    capped = config.controller.capped(n_sched)
    xs, us, alive = [np.empty((0, config.plant.n))], [np.empty((0, config.plant.p))], True
    for states, inputs, alive in _blocks(config, capped, w_all, x0, first_run=run_index):
        xs.append(states)
        us.append(inputs)
    xs = np.concatenate(xs)
    steps = len(xs)
    return SimTrace(xs, np.concatenate(us), n_sched[:steps],
                    effective_lengths(config.controller, capped[:steps]),
                    config.plant.lyapunov(xs), not alive)


def _stage_costs(x: np.ndarray, u: np.ndarray, q_x: float, r_u: float) -> np.ndarray:
    """q_x*|x|^2 + r_u*|u|^2 per step and lane, component axis last."""
    return q_x * sum_squares(x) + r_u * sum_squares(u)


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
    are read-only. The N schedules are stored in the narrowest unsigned type
    that holds Lambda (`availability.length_dtype`: one byte per step and
    run up to Lambda = 255, two above), the rest as float64. The block
    depends on the seed, run count, horizon, availability, disturbance and
    initial-state settings but not on the controller, so configs that
    differ only in their controller can share it.
    """
    return next(presample_each([config]))


def presample_each(configs: Sequence[SimConfig]) -> Iterator:
    """Yield `presample(config)` for each config in turn, seeding every run's streams once.

    The configs may differ in their availability model, plant parameters
    and controller, and must agree in everything else that `presample`
    reads. The disturbances and initial states are drawn once and shared
    by every block. The N schedules are drawn again whenever the
    availability model is not the previous config's (by identity): every
    run's availability generator is rewound to its state before its first
    draw, and one lane-shaped sampler over all of them (`make_sampler` on
    the list) draws every schedule in one `presample` call, row r the same
    bits as a sampler on run r's generator alone. The last schedules are
    released first, so a caller that drops each block before asking for
    the next holds one at a time.
    """
    first = configs[0]
    runs, horizon, plant = first.runs, first.horizon, first.plant
    w_all = np.empty((runs, horizon, plant.m))
    x0 = np.empty((runs, plant.n))
    rngs, states = [], []  # each run's availability generator and its state before its first draw
    for r in range(runs):
        rng, w_all[r], x0[r] = _run_draws(first, r)
        rngs.append(rng)
        states.append(rng.bit_generator.state)
    w_all.flags.writeable = x0.flags.writeable = False
    n_all = availability = None
    for config in configs:
        if config.availability is not availability:
            availability, n_all = config.availability, None
            for rng, state in zip(rngs, states):
                rng.bit_generator.state = state
            n_all = make_sampler(availability, rngs).presample(horizon)
            n_all.flags.writeable = False
        yield n_all, w_all, x0


def _blocks(config: SimConfig, n_sched, w, x0, first_run: int = 0):
    """Step the closed loop on the lanes of `x0`; yield (states, inputs, alive) per block.

    The lanes are the leading axes of `x0` (`(..., n)`), of the capped N
    schedule (`(..., horizon)`, `ControllerKind.capped`) and of the
    disturbances (`(..., horizon, m)`): `()` for one run, `(runs,)` for the
    batch engine. For a1 and a2, a schedule longer than the buffer capacity
    anywhere raises ConfigError before the first step. A block holds x(k)
    and u(k) for `ring.block` steps, and `alive` the lanes not diverged by
    its end. A diverged lane keeps its last state and starts no sequence.
    Once all have diverged the loop stops; then the ring is drained.
    """
    plant, kind = config.plant, config.controller
    ring = Ring(plant, config.buffer_capacity, x0.shape[:-1], first_run)
    longest = int(n_sched.max(initial=0))
    if kind.kind != "baseline" and longest > ring.capacity:
        raise ConfigError(f"sequence length {longest} exceeds buffer capacity {ring.capacity}")
    alive = np.ones(x0.shape[:-1], dtype=bool)
    diverged = False  # whether any lane has; until then the masks below are identities
    # on `()` lanes the guard gives a NumPy scalar, whose `all()` costs ~3 us a step
    every = np.ndarray.all if alive.ndim else bool
    x, xs, us = x0, [], []
    with np.errstate(over="ignore", invalid="ignore"):
        # a diverged lane's input is never read, so its sources need not know it diverged
        for k, (n, src) in enumerate(ring.steps(kind, n_sched)):
            n = np.where(alive, n, 0) if diverged else n
            u = controller_step(kind, plant, x, n, ring, src)
            xs.append(x)
            us.append(u)
            x_next = plant.f(x, u, w[..., k, :])
            flat = x_next.reshape(-1)
            # NaN, inf and an overflowing sum fail both comparisons, so
            # non-finite states count as diverged
            if diverged or not flat.dot(flat) <= GUARD_PRECHECK:
                finite = norm(x_next) <= OVERFLOW_GUARD
                diverged = diverged or not every(finite)
            if diverged:
                alive = alive & finite
                x = np.where(alive[..., None], x_next, x)
            else:
                x = x_next
            if diverged and not alive.any():
                break
            if len(xs) == ring.block:
                yield np.array(xs, dtype=float), np.array(us, dtype=float), alive
                xs, us = [], []
        if xs:
            yield np.array(xs, dtype=float), np.array(us, dtype=float), alive
        drain(plant, ring)


def _batch_simulate(config: SimConfig, draws=None) -> np.ndarray:
    """Step all runs at once; returns the per-run costs.

    `draws` is `presample(config)`, drawn here when not given; its N
    schedules are capped here, which copies them only when the cap binds.
    Each block's stage costs are added by a running sum over the step axis,
    so a run's total is the same bit for bit as adding its trace's stage
    costs one step at a time.
    """
    horizon, runs = config.horizon, config.runs
    n_all, w_all, x0 = presample(config) if draws is None else draws
    if n_all.shape != (runs, horizon) or x0.shape != (runs, config.plant.n):
        raise ConfigError("presampled draws do not match the config's runs, horizon and state")
    cost = np.zeros(runs)
    for states, inputs, alive in _blocks(config, config.controller.capped(n_all), w_all, x0):
        stage = _stage_costs(states, inputs, config.q_x, config.r_u)
        cost = np.add.accumulate(np.concatenate((cost[None], stage)), axis=0)[-1]
    costs = cost / horizon
    costs[~alive] = float("inf")
    return costs


def monte_carlo(config: SimConfig, draws=None) -> CostSummary:
    """Run all episodes on the batch engine and aggregate; independent of run order.

    `draws`, if given, is `presample` of this config or of one that differs
    only in its controller; the engine reads it and never writes it.
    """
    return CostSummary.from_costs(_batch_simulate(config, draws=draws))


def improvement_pct(candidate: CostSummary, reference: CostSummary) -> float:
    """Percentage cost reduction of candidate relative to reference.

    A reference whose every run diverged counts as 100% improvement for a
    finite candidate (the reference cost is unbounded). A zero reference
    cost leaves the percentage undefined: NaN.
    """
    if np.isinf(reference.mean):
        return 100.0 if np.isfinite(candidate.mean) else float("nan")
    if reference.mean == 0.0:
        return float("nan")
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
    # Python floats from tolist(): their repr is that of the array's values, at a
    # fraction of the cost of converting each numpy scalar
    columns = [range(trace.steps),
               *(map(repr, c) for c in np.concatenate((trace.x, trace.u), axis=1).T.tolist()),
               trace.n_seq.tolist(), trace.lam.tolist(), map(repr, trace.v.tolist())]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
