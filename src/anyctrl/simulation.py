"""Seeded closed-loop episodes and Monte-Carlo aggregation.

Each run index owns three independent RNG streams (availability,
disturbance, initial state) derived deterministically from the master
seed, so comparing controllers on the same run index reuses identical
(N, w) draws: common random numbers across controller variants.

One block loop (`_blocks`) drives the one controller kernel
(`controller.controller_step`) on any leading lane shape: `run_episode`
steps a single run on `()` lanes and records its full trace, and the batch
engine behind `monte_carlo` steps all runs at once on `(runs,)` lanes. Both
read the same stacked draws (`presample`): an episode is one row of the
Monte-Carlo block, not a second draw of its run. The loop keeps a
`controller.Ring` of in-flight tentative sequences and drains it once it
stops stepping, so every computed depth is tested.

A step does only the recursion: the controller step (start a sequence,
advance the ring, gather u(k)), the plant step and the divergence guard. A
lane diverges when its next state's norm exceeds OVERFLOW_GUARD or is not
finite; the guard first tests the whole next state's squared norm, one dot
product, against GUARD_PRECHECK, and takes the per-lane norms only when
that fails (NaN, inf and an overflowing sum all fail it) and on every step
after the first divergence, so its outcome is the per-lane test's. The
bookkeeping runs once per block of `Ring.block` steps, which the ring
sizes by its rows (16 from 64 rows up, 256 for one run at Lambda 4): the
loop builds the block's source map (`Ring.sources`), tests its Lyapunov
decreases in one stacked pass (`controller.check`; a failure drains the
ring, which raises) and hands its states and inputs to its consumer.
`run_episode` joins the blocks into its trace; the engine evaluates each
block's stage costs in one pass and adds them to each run's cost in step
order, so a run's cost is the same bit for bit as the step-order sum over
its trace.
Every plant must broadcast over leading axes (see `plants.PlantModel`).

Only `presample_each` seeds run streams, behind `presample`; `anyctrl
simulate` draws one block and hands it to `monte_carlo` and to each
trace's `run_episode`. A sweep seeds each run's streams once, draws the
disturbances and initial states once, and redraws only the N schedules
when the availability model changes; each grid point's block is handed
to the baseline, a1 and a2 calls, which differ only in their controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .availability import AvailabilityModel, make_sampler
from . import controller
from .controller import ControllerKind, Ring, controller_step, drain, effective_lengths
from .errors import ConfigError, integer, real, reals
from .plants import DisturbanceModel, PlantModel, norm, sum_squares

OVERFLOW_GUARD = 1e12
# a whole next state whose squared norm is at most this has every lane's norm
# at most OVERFLOW_GUARD / 2, so its lanes pass the guard without testing each
GUARD_PRECHECK = (OVERFLOW_GUARD / 2) ** 2
CI_Z = 1.959963984540054  # two-sided 95% normal quantile
# `_mean_stderr` scales a vector with an entry above MOMENT_SAFE in size by MOMENT_SCALE
MOMENT_SAFE = 2.0 ** 500
MOMENT_SCALE = 2.0 ** -600
CSV_CHUNK_ROWS = 256  # rows formatted and written per write call


@dataclass(frozen=True)
class SimConfig:
    """Everything one Monte-Carlo study needs, including the seeding policy.

    Each value is checked here and named by its config key; the availability
    model was checked when it was built.
    """

    plant: PlantModel
    availability: AvailabilityModel
    controller: ControllerKind
    disturbance: DisturbanceModel = DisturbanceModel()
    horizon: int = 10_000
    runs: int = 200
    master_seed: int = 0
    x0: Optional[np.ndarray] = None
    x0_box: Optional[Tuple[float, float]] = None  # uniform box; excludes x0
    q_x: float = 0.2
    r_u: float = 2.0

    def __post_init__(self):
        # messages name the config file's keys; a float seed would seed as its floor
        for key, field in (("horizon", "horizon"), ("runs", "runs"), ("seed", "master_seed")):
            object.__setattr__(self, field, check_scale(key, getattr(self, field)))
        # numpy's largest array holds intp-max bytes; the disturbances take runs x horizon x m
        if self.runs * self.horizon * max(self.plant.m, 1) * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"runs x horizon = {self.runs} x {self.horizon} steps is more than "
                              "one numpy array holds")
        if self.x0 is not None:
            object.__setattr__(self, "x0", reals(self.x0, "x0"))
            if self.x0.shape != (self.plant.n,):
                raise ConfigError(f"x0 must hold {self.plant.n} numbers, got {self.x0}")
        if self.x0_box is not None:
            if self.x0 is not None:
                raise ConfigError("x0_box must not be given with x0: the box would replace it")
            try:
                lo, hi = self.x0_box
            except (TypeError, ValueError):
                raise ConfigError(f"x0_box must be a pair [lo, hi], got {self.x0_box!r}") from None
            lo, hi = real(lo, "x0_box"), real(hi, "x0_box")
            if not lo <= hi:
                raise ConfigError(f"x0_box must have lo <= hi, got {[lo, hi]}")
            object.__setattr__(self, "x0_box", (lo, hi))
        for key in ("q_x", "r_u"):
            weight = real(getattr(self, key), f"cost.{key}")
            if not weight >= 0.0:
                raise ConfigError(f"cost.{key} must be nonnegative, got {weight}")
            object.__setattr__(self, key, weight)

    @property
    def buffer_capacity(self) -> int:
        cap = self.controller.buffer_cap
        return self.availability.max_len if cap is None else min(self.availability.max_len, cap)


def check_scale(key: str, value) -> int:
    """The rule on a config's seed, runs and horizon: an integer, at least 0 for seed, else 1."""
    out, least = integer(value, key), 0 if key == "seed" else 1
    if out < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return out


def run_streams(master_seed: int, run_index: int):
    """(availability, disturbance, initial-state) generators for one run.

    Stream i is seeded by child i of `SeedSequence([master_seed, run_index])`,
    built directly from its spawn key: the same states as `spawn(3)` and
    `default_rng`, without mixing the root's own pool.
    """
    # numpy imports np.random on first use; importing it with this module instead
    # raised markov_simulate's peak RSS by about 0.25 MB
    random, entropy = np.random, [int(master_seed), int(run_index)]
    return tuple(random.Generator(random.PCG64(random.SeedSequence(entropy, spawn_key=(i,))))
                 for i in range(3))


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
    n_seq: np.ndarray  # (steps,), the block's row as stored: availability.length_dtype if drawn
    lam: np.ndarray  # (steps,), int64
    v: np.ndarray  # (steps,)
    diverged: bool

    @property
    def steps(self) -> int:
        return self.x.shape[0]


def _run_draws(config: SimConfig, run_index: int):
    """(availability generator, disturbance draws, x0) for one run, from its three streams."""
    avail_rng, dist_rng, init_rng = run_streams(config.master_seed, run_index)
    w = config.disturbance.draw(dist_rng, (config.horizon, config.plant.m))
    return avail_rng, w, _initial_state(config, init_rng)


def run_episode(config: SimConfig, run_index: int, draws=None) -> SimTrace:
    """Simulate run `run_index` of the study, 0 <= run_index < runs, and record its trace.

    The episode reads row `run_index` of `draws`, which is as in
    `monte_carlo`: `presample` of this config or of one that differs only
    in its controller, else drawn here. So the trace is that run of the
    Monte-Carlo study: `monte_carlo`'s cost of the run is the trace's
    stage costs added in step order, divided by the horizon (inf if the
    run diverged). It stops at the step whose next state fails the
    overflow guard. The trace records N(k) as the block stores it and
    lambda(k) of the capped schedule.
    """
    if not 0 <= run_index < config.runs:
        raise IndexError(f"run_index must lie in 0..{config.runs - 1}, got {run_index}")
    n_all, w_all, x0 = _checked_draws(config, draws)
    n_sched = n_all[run_index]
    capped = config.controller.capped(n_sched)
    xs, us, alive = [np.empty((0, config.plant.n))], [np.empty((0, config.plant.p))], True
    for states, inputs, alive in _blocks(config, capped, w_all[run_index], x0[run_index],
                                         first_run=run_index):
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
        mean, stderr = _mean_stderr(finite)
        return cls(mean, stderr, (mean - CI_Z * stderr, mean + CI_Z * stderr), costs, diverged)


def _mean_stderr(values: np.ndarray) -> Tuple[float, float]:
    """Mean and standard error (ddof 1; 0 for one value) of a nonempty finite vector.

    A deviation above about 1e154 overflows when squared, and a sum above
    about 1.8e308. A vector with an entry beyond MOMENT_SAFE in size is
    summarised multiplied by MOMENT_SCALE, a power of two, and the results
    are divided by it again; both steps are exact for normal numbers, so
    only entries too small to move such moments lose bits. Any other
    vector is summarised as it is, with the bits of plain `np.mean` and
    `np.std`.
    """
    scale = 1.0 if np.abs(values).max() <= MOMENT_SAFE else MOMENT_SCALE
    if scale != 1.0:
        values = values * scale
    mean = float(np.mean(values)) / scale
    if values.size == 1:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(values.size)) / scale


def presample(config: SimConfig):
    """Every run's streams stacked: (N schedules, disturbances, initial states).

    Shapes are (runs, horizon), (runs, horizon, m) and (runs, n); the arrays
    are read-only. The N schedules are stored in the narrowest unsigned type
    that holds Lambda (`availability.length_dtype`), the rest as float64. The block
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
    draw, and one sampler over all of them draws every schedule in one
    `presample` call, row r the same bits as a one-lane sampler on run r's
    generator draws. The last schedules are released first, so a caller
    that drops each block before asking for the next holds one at a time.
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


def _checked_draws(config: SimConfig, draws):
    """`draws`, or `presample(config)` if None; ConfigError if its shapes are not the config's."""
    n_all, w_all, x0 = presample(config) if draws is None else draws
    runs, horizon, n, m = config.runs, config.horizon, config.plant.n, config.plant.m
    if (n_all.shape, w_all.shape, x0.shape) != ((runs, horizon), (runs, horizon, m), (runs, n)):
        raise ConfigError("presampled draws do not match the config's runs, horizon and plant")
    return n_all, w_all, x0


def _blocks(config: SimConfig, n_sched, w, x0, first_run: int = 0):
    """Step the closed loop on the lanes of `x0`; yield (states, inputs, alive) per block.

    The lanes are the leading axes of `x0` (`(..., n)`), of the capped N
    schedule (`(..., horizon)`, `ControllerKind.capped`) and of the
    disturbances (`(..., horizon, m)`): `()` for one run, `(runs,)` for the
    batch engine. For a1 and a2, a schedule longer than the buffer capacity
    anywhere raises ConfigError before the first step: with N <= C, the
    ring's end steps alone tell what is in flight. A block holds x(k) and
    u(k) for `ring.block` steps, and `alive` the lanes not diverged by its
    end; its depths are decrease-tested before it is yielded, and a failure
    drains the ring, which raises. A diverged lane keeps its last state and
    starts no sequence. Once all have diverged the loop stops; then the
    ring is drained.
    """
    plant, kind = config.plant, config.controller
    ring = Ring(plant, config.buffer_capacity, x0.shape[:-1], first_run)
    longest = int(n_sched.max(initial=0))
    if kind.kind != "baseline" and longest > ring.capacity:
        raise ConfigError(f"sequence length {longest} exceeds buffer capacity {ring.capacity}")
    alive = np.ones(x0.shape[:-1], dtype=bool)
    diverged = False  # whether any lane has; until then the masks below are identities
    x, horizon = x0, n_sched.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, horizon, ring.block):
            stop, xs, us = min(start + ring.block, horizon), [], []
            # a diverged lane's input is never read, so its sources need not know it diverged
            for k, n, src in zip(range(start, stop), *ring.sources(kind, n_sched, start, stop)):
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
                    diverged = diverged or not finite.all()
                if diverged:
                    alive = alive & finite
                    x = np.where(alive[..., None], x_next, x)
                else:
                    x = x_next
                if diverged and not alive.any():
                    break
            controller.check(plant, ring)
            if ring.failure is not None:
                drain(plant, ring)
            yield np.array(xs, dtype=float), np.array(us, dtype=float), alive
            if not alive.any():
                break
        drain(plant, ring)


def monte_carlo(config: SimConfig, draws=None) -> CostSummary:
    """Run all episodes on the batch engine, all runs at once, and aggregate.

    Independent of run order. `draws`, if given, is `presample` of this
    config or of one that differs only in its controller, else it is drawn
    here; the engine reads it and never writes it. Its N schedules are
    capped here, which copies them only when the cap binds. Each block's
    stage costs are added by a running sum over the step axis, so a run's
    total, `per_run_costs`, is the same bit for bit as adding its trace's
    stage costs one step at a time; a diverged run's is inf.
    """
    n_all, w_all, x0 = _checked_draws(config, draws)
    cost = np.zeros(config.runs)
    for states, inputs, alive in _blocks(config, config.controller.capped(n_all), w_all, x0):
        stage = _stage_costs(states, inputs, config.q_x, config.r_u)
        cost = np.add.accumulate(np.concatenate((cost[None], stage)), axis=0)[-1]
    costs = cost / config.horizon
    costs[~alive] = float("inf")
    return CostSummary.from_costs(costs)


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
    over runs where both controllers stayed finite. Costs are subtracted
    scaled as `_mean_stderr` scales, so no difference overflows.
    """
    ref, cand = reference.per_run_costs, candidate.per_run_costs
    mask = np.isfinite(ref) & np.isfinite(cand)
    if not mask.any():
        return float("nan"), float("nan")
    ref, cand = ref[mask], cand[mask]
    scale = 1.0 if max(np.abs(ref).max(), np.abs(cand).max()) <= MOMENT_SAFE else MOMENT_SCALE
    mean, stderr = _mean_stderr(ref * scale - cand * scale)
    return mean / scale, stderr / scale


def _write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write `header` and the equal-length `columns` as CSV rows ending in \\r\\n.

    Every cell is its value's repr, which never needs quoting, so the bytes
    are those of `csv.writer` on the same rows. Rows are formatted and
    written CSV_CHUNK_ROWS at a time, so no whole-file string is built.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            # a list's repr is its entries' reprs joined by ", ", in one C-level call
            cells = [repr(c[start:start + CSV_CHUNK_ROWS].tolist())[1:-1].split(", ")
                     for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_runs_csv(summary: CostSummary, path) -> None:
    costs = summary.per_run_costs
    _write_csv(path, ["run", "cost", "diverged"],
               [np.arange(costs.size), costs, (~np.isfinite(costs)).astype(np.int64)])


def write_trace_csv(trace: SimTrace, path) -> None:
    n, p = trace.x.shape[1], trace.u.shape[1]
    header = (["k"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(p)]
              + ["N", "lambda", "V"])
    _write_csv(path, header, [np.arange(trace.steps), *trace.x.T, *trace.u.T,
                              trace.n_seq, trace.lam, trace.v])
