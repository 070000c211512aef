"""Seeded closed-loop episodes and Monte-Carlo aggregation.

Each run index owns three independent RNG streams (availability,
disturbance, initial state) derived deterministically from the master
seed, so comparing controllers on the same run index reuses identical
(N, w) draws: common random numbers across controller variants.

Two execution paths draw the same per-run streams through one helper
(`_presample_run`) and do the same per-step arithmetic: a per-run
reference loop (`run_episode`, works with any plant and records full
traces) and a batch engine that steps all runs at once through vectorized
plant closures. Their per-run costs differ only in the order in which the
stage costs are summed at the end. `monte_carlo` picks the batch path
whenever the plant supports it.

The batch engine reads every run's streams from one stacked block
(`presample`). A sweep builds that block once per grid point and hands it
to the baseline, a1 and a2 calls, which differ only in their controller.
Per step, the engine rolls the certified policy forward to the deepest
N(k) of the step on every live run, stacking the predicted states, and
then checks the Lyapunov decrease at every depth with one `V` call and
one masked test.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .availability import AvailabilityModel, make_sampler, require_valid
from .controller import (ControllerKind, controller_step, empty_buffer,
                         DECREASE_SLACK, DECREASE_CHECK_LIMIT)
from .errors import CertificateViolation, ConfigError
from .plants import DisturbanceModel, PlantModel

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


def default_x0(plant: PlantModel) -> np.ndarray:
    """All-ones initial state; keeps runs comparable across plants."""
    return np.ones(plant.n)


def run_streams(master_seed: int, run_index: int):
    """(availability, disturbance, initial-state) generators for one run."""
    root = np.random.SeedSequence([int(master_seed), int(run_index)])
    children = root.spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def _initial_state(config: SimConfig, init_rng: np.random.Generator) -> np.ndarray:
    if config.x0_box is not None:
        lo, hi = config.x0_box
        return init_rng.random(config.plant.n) * (hi - lo) + lo
    if config.x0 is not None:
        return config.x0.copy()
    return default_x0(config.plant)


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


def _presample_run(config: SimConfig, run_index: int):
    """(N schedule, disturbance draws, x0) for one run, from its three streams."""
    avail_rng, dist_rng, init_rng = run_streams(config.master_seed, run_index)
    sampler = make_sampler(config.availability, avail_rng)
    n_sched = sampler.presample(config.horizon)
    w = config.disturbance.draw(dist_rng, (config.horizon,))
    return n_sched, w, _initial_state(config, init_rng)


def run_episode(config: SimConfig, run_index: int,
                forced_n: Optional[Sequence[int]] = None) -> SimTrace:
    """Simulate one closed-loop episode; deterministic given (master_seed, run_index).

    `forced_n` replaces the availability draws with a fixed sequence-length
    schedule (used for trace-level checks); disturbances and x0 are unchanged.
    """
    plant = config.plant
    n_sched, w_all, x = _presample_run(config, run_index)
    if forced_n is not None:
        n_sched = forced_n
    buf = empty_buffer(config.buffer_capacity, plant.p)

    horizon = config.horizon if forced_n is None else min(config.horizon, len(forced_n))
    xs = np.empty((horizon, plant.n))
    us = np.empty((horizon, plant.p))
    ns = np.empty(horizon, dtype=np.int64)
    lams = np.empty(horizon, dtype=np.int64)
    vs = np.empty(horizon)
    diverged = False

    for k in range(horizon):
        n_avail = int(n_sched[k])
        u, buf = controller_step(config.controller, plant, x, n_avail, buf)
        xs[k], us[k], ns[k], lams[k] = x, u, n_avail, buf.effective_length
        vs[k] = float(plant.lyapunov(x))
        x = plant.f(x, u, w_all[k])
        if not np.all(np.isfinite(x)) or float(np.linalg.norm(x)) > OVERFLOW_GUARD:
            diverged = True
            horizon = k + 1
            break

    return SimTrace(xs[:horizon], us[:horizon], ns[:horizon], lams[:horizon],
                    vs[:horizon], diverged)


def empirical_cost(trace: SimTrace, q_x: float, r_u: float) -> float:
    """Per-step average of q_x*|x|^2 + r_u*|u|^2; infinite for diverged traces."""
    if trace.diverged:
        return float("inf")
    stage = q_x * np.sum(trace.x ** 2, axis=1) + r_u * np.sum(trace.u ** 2, axis=1)
    return float(np.sum(stage)) / trace.steps


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
    plant = config.plant
    n_all = np.empty((config.runs, config.horizon), dtype=np.int64)
    w_all = np.empty((config.runs, config.horizon, plant.m))
    x0 = np.empty((config.runs, plant.n))
    for r in range(config.runs):
        n_all[r], w_all[r], x0[r] = _presample_run(config, r)
    for a in (n_all, w_all, x0):
        a.flags.writeable = False
    return n_all, w_all, x0


def _batch_simulate(config: SimConfig,
                    checkpoints: Optional[Sequence[int]] = None, draws=None):
    """Step all runs at once; returns (per-run costs, V at checkpoints).

    Requires a vectorized plant. `draws` is `presample(config)`, drawn here
    when not given. Per-step arithmetic on every run is that of run_episode;
    only the final summation of the stage costs differs in order.

    The rollout advances every run to the deepest N(k) of the step, calling
    only the policy and the plant per depth and stacking the predicted
    states; rows past a run's own N(k) are never read. One Lyapunov call on
    the stack and one masked decrease test then check every depth at once.
    Runs stop being rolled out and checked once they diverge, and the loop
    ends when every run has diverged and no checkpoint is left. V rows come
    back one per requested checkpoint, in the order given.
    """
    plant = config.plant
    horizon, runs = config.horizon, config.runs
    cap = config.buffer_capacity
    kind, buffer_cap = config.controller.kind, config.controller.buffer_cap
    rho, slack = plant.rho, DECREASE_SLACK

    n_all, w_all, x = presample(config) if draws is None else draws
    if n_all.shape != (runs, horizon) or x.shape != (runs, plant.n):
        raise ConfigError("presampled draws do not match the config's runs, horizon and state")
    if buffer_cap is not None:
        n_all = np.minimum(n_all, buffer_cap)
    checkpoints = list(checkpoints or ())
    if any(not 0 <= k < horizon for k in checkpoints):
        raise ConfigError(f"checkpoints must lie in 0..{horizon - 1}, got {checkpoints}")
    wanted, last_check, v_rows = set(checkpoints), max(checkpoints, default=-1), {}

    buf = np.zeros((runs, cap, plant.p))
    alive = np.ones(runs, dtype=bool)
    cost = np.zeros(runs)

    # loop invariants; rows of `fresh` and `chis` past a run's N(k) are never read
    w0 = np.zeros((runs, plant.m))
    zero_slot = np.zeros((runs, 1, plant.p))
    fresh = np.zeros_like(buf)
    chis = np.zeros((cap + 1, runs, plant.n))
    slot_idx = np.arange(cap)[None, :, None]
    depths = np.arange(1, cap + 1)[:, None]

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            n_now = np.where(alive, n_all[:, k], 0)
            if kind == "baseline":
                u = np.where((n_now >= 1)[:, None], plant.policy(x), 0.0)
            else:
                depth = int(n_now.max(initial=0))
                if depth:
                    chis[0] = x
                    for j in range(depth):
                        uj = plant.policy(chis[j])
                        fresh[:, j] = uj
                        chis[j + 1] = plant.f(chis[j], uj, w0)
                    v = plant.lyapunov(chis[:depth + 1])
                    v_now, v_next = v[:-1], v[1:]
                    bad = ((n_now >= depths[:depth]) & (v_now <= DECREASE_CHECK_LIMIT)
                           & (v_next > rho * v_now + slack * np.maximum(1.0, v_now)))
                    if bad.any():
                        raise CertificateViolation(int(bad.any(1).argmax()) + 1)
                shifted = np.concatenate([buf[:, 1:], zero_slot], axis=1)
                n_slot = n_now[:, None, None]
                if kind == "a2":
                    buf = np.where(slot_idx < n_slot, fresh, shifted)
                else:  # a1 zeroes the slots behind a fresh sequence
                    buf = np.where(n_slot >= 1, np.where(slot_idx < n_slot, fresh, 0.0), shifted)
                u = buf[:, 0, :]

            if k in wanted:
                v_rows[k] = plant.lyapunov(x)
            stage = config.q_x * np.square(x).sum(-1) + config.r_u * np.square(u).sum(-1)
            cost = np.where(alive, cost + stage, cost)
            x_next = plant.f(x, u, w_all[:, k])
            # NaN and inf fail the comparison, so non-finite states count as diverged
            alive &= np.sqrt(np.square(x_next).sum(-1)) <= OVERFLOW_GUARD
            x = np.where(alive[:, None], x_next, x)
            if k >= last_check and not alive.any():
                break

    costs = cost / horizon
    costs[~alive] = float("inf")
    v_at = np.array([v_rows[k] for k in checkpoints]) if checkpoints else None
    return costs, v_at  # v_at: (len(checkpoints), runs)


def monte_carlo(config: SimConfig, draws=None) -> CostSummary:
    """Run all episodes and aggregate; independent of execution path and order.

    `draws`, if given, is `presample` of this config or of one that differs
    only in its controller; the batch engine reads it and never writes it.
    The per-run loop draws each run's streams itself.
    """
    if config.plant.vectorized:
        costs, _ = _batch_simulate(config, draws=draws)
    else:
        costs = np.array([
            empirical_cost(run_episode(config, r), config.q_x, config.r_u)
            for r in range(config.runs)
        ])
    return CostSummary.from_costs(costs)


def mean_lyapunov_at(config: SimConfig, checkpoints: Sequence[int]):
    """Mean and standard error of V(x(k)) over runs at the given steps."""
    if config.plant.vectorized:
        _, v_at = _batch_simulate(config, checkpoints=checkpoints)
    else:
        rows = []
        for r in range(config.runs):
            trace = run_episode(config, r)
            rows.append([trace.v[k] for k in checkpoints])
        v_at = np.asarray(rows).T
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
