"""The per-block bookkeeping does not depend on the block length.

Stage costs and Lyapunov decrease tests run once per block of
`Ring.block` steps, which the ring sizes by its rows. Every result must be
the same at any block length, from one step per block to a single block
longer than the horizon, and equal to the masked per-depth reference
engine.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from anyctrl import controller
from anyctrl.availability import IidAvailability, MarkovAvailability
from anyctrl.controller import KINDS, ControllerKind, Ring
from anyctrl.errors import CertificateViolation
from anyctrl.experiments import _config_at, builtin_experiment
from anyctrl.plants import DisturbanceModel, make_builtin_plant
from anyctrl.simulation import SimConfig, monte_carlo, presample, run_episode

from oracles import empirical_cost, lyapunov_at, masked_batch_simulate

RUNS, HORIZON = 30, 300
CHECKPOINTS = [HORIZON - 1, 0, 15, 16, 47, 200]
TRACES = 2

Q3 = [[0.85, 0.10, 0.05], [0.15, 0.70, 0.15], [0.05, 0.15, 0.80]]
P3 = [[0.05, 0.10, 0.15, 0.30, 0.40],
      [0.30, 0.30, 0.20, 0.10, 0.10],
      [0.70, 0.15, 0.08, 0.05, 0.02]]


def block_lengths(horizon):
    """One step per block, a length that divides nothing, the smallest default, one block,
    and None for the package's own rule."""
    return (1, 3, 16, horizon + 5, None)


@contextmanager
def forced_block(length):
    """Every ring built inside runs `length` steps per block; None keeps the row-sized rule."""
    with pytest.MonkeyPatch.context() as patch:
        if length is not None:
            patch.setattr(controller, "SOURCE_BLOCK", length)
            patch.setattr(controller, "BLOCK_ROWS", 0)
        yield


def fig1(tau, kind):
    return _config_at(builtin_experiment("fig1", seed=8, runs=RUNS, horizon=HORIZON), tau, kind)


def markov_sat_2d(kind):
    return SimConfig(plant=make_builtin_plant("sat_2d"),
                     availability=MarkovAvailability(Q3, P3),
                     controller=ControllerKind(kind),
                     disturbance=DisturbanceModel(kind="uniform", lo=-0.05, hi=0.05),
                     horizon=HORIZON, runs=RUNS, master_seed=5, x0_box=(-2.0, 2.0))


# fig1 at tau 0.4 has diverging runs
CONFIGS = {
    **{f"fig1-tau{tau}-{kind}": (fig1, (tau, kind)) for tau in (0.1, 0.4) for kind in KINDS},
    **{f"markov-sat2d-{kind}": (markov_sat_2d, (kind,)) for kind in KINDS},
}


def outcome(run):
    """(step_index, start_step, run) of the CertificateViolation that `run` raises."""
    with pytest.raises(CertificateViolation) as info:
        run()
    return info.value.step_index, info.value.start_step, info.value.run


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_results_do_not_depend_on_block_length(case):
    build, args = CONFIGS[case]
    cfg = build(*args)
    want, want_v = masked_batch_simulate(cfg, set(CHECKPOINTS))
    if case.startswith("fig1-tau0.4"):
        assert not np.isfinite(want).all()
    seen, draws = [], presample(cfg)
    for length in block_lengths(cfg.horizon):
        with forced_block(length):
            costs = monte_carlo(cfg).per_run_costs
            v_at = lyapunov_at(cfg, CHECKPOINTS)
            traces = [run_episode(cfg, r, draws) for r in range(TRACES)]
        np.testing.assert_array_equal(costs, want)
        np.testing.assert_array_equal(v_at, np.array([want_v[k] for k in CHECKPOINTS]))
        for r, trace in enumerate(traces):
            assert empirical_cost(trace, cfg.q_x, cfg.r_u) == want[r]
        seen.append(traces)
    for traces in seen[1:]:
        for trace, first in zip(traces, seen[0]):
            for name in ("x", "u", "n_seq", "lam", "v"):
                np.testing.assert_array_equal(getattr(trace, name), getattr(first, name))
            assert trace.diverged == first.diverged


# --- violations at every position relative to a block of 16 steps ---

LINEAR = make_builtin_plant("linear_scalar", a=1.2)
R = LINEAR.rho  # |a - K|: V(chi_j) = R^j V(x) on the nominal rollout from x
A = LINEAR.params["a"]  # open-loop growth while no input is played
# a state whose rollout skips the decrease test at depths 1 and 2 (V above
# DECREASE_CHECK_LIMIT) and fails it from depth 3 on, under rho = 0
LATE = 1e4 / R ** 1.5


def forced(horizon, starts, x_at, w=None):
    """Draws for runs that compute only at the given steps: {step: N} per run.

    `x_at[r]` is run r's state at its first computing step; it starts there
    from x0 = x_at / a^step, since no input is played before.
    """
    n = np.zeros((len(starts), horizon), dtype=np.int64)
    x0 = np.empty((len(starts), 1))
    for r, (computes, x) in enumerate(zip(starts, x_at)):
        for k, length in computes.items():
            n[r, k] = length
        x0[r] = x / A ** min(computes, default=0)
    w = np.zeros((len(starts), horizon, 1)) if w is None else w
    return n, w, x0


def liar_config(runs, horizon):
    # rho = 0 fails every decrease test that is not skipped above DECREASE_CHECK_LIMIT
    return SimConfig(plant=replace(LINEAR, rho=0.0),
                     availability=IidAvailability([0.0, 0.0, 0.0, 0.0, 1.0]),
                     controller=ControllerKind("a2"),
                     disturbance=DisturbanceModel(kind="none"),
                     horizon=horizon, runs=runs, master_seed=0)


def diverging_draws():
    # both runs start a sequence at step 20 and escape the overflow guard there;
    # the loop stops after step 20, and the drain finds depth 3 failing at step 22
    n, w, x0 = forced(40, [{20: 4}, {20: 4}], [LATE, 2 * LATE])
    w = w.copy()
    w[:, 20] = 1e13
    return n, w, x0


VIOLATIONS = {
    # run 1 fails first, at depth 1 on step 15, the last step of the first block; run 0's
    # sequence from step 14 fails at depth 3 on step 16, in the next block, and is named
    "last-step-of-block": (40, lambda: forced(40, [{14: 4}, {15: 1}], [LATE, 1.0]), (3, 14, 0)),
    # the first failure is on step 16, the first step of the second block, in runs 1 and 2
    "first-step-of-block": (40, lambda: forced(40, [{}, {16: 1}, {16: 2}], [1e-3, 1.0, 1.0]),
                            (1, 16, 1)),
    # run 1 fails at step 39 in the final partial block; run 0's sequence from step 38
    # fails at depth 3 on step 40, past the horizon, while it is drained
    "final-partial-block": (40, lambda: forced(40, [{38: 4}, {39: 1}], [LATE, 1.0]), (3, 38, 0)),
    "after-every-run-diverged": (40, diverging_draws, (3, 20, 0)),
}


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
def test_violations_do_not_depend_on_block_length(case):
    horizon, make_draws, want = VIOLATIONS[case]
    draws = make_draws()
    cfg = liar_config(len(draws[0]), horizon)
    assert outcome(lambda: masked_batch_simulate(cfg, draws=draws)) == want
    for length in block_lengths(horizon):
        with forced_block(length):
            assert outcome(lambda: monte_carlo(cfg, draws=draws).per_run_costs) == want
            assert outcome(lambda: run_episode(cfg, want[2], draws)) == want


LIARS = {
    **{f"fig1-tau0.4-{kind}": (fig1, (0.4, kind)) for kind in ("a1", "a2")},
    **{f"markov-sat2d-{kind}": (markov_sat_2d, (kind,)) for kind in ("a1", "a2")},
}


@pytest.mark.parametrize("case", sorted(LIARS))
def test_violations_on_stock_draws_do_not_depend_on_block_length(case):
    build, args = LIARS[case]
    cfg = build(*args)
    cfg = replace(cfg, plant=replace(cfg.plant, rho=0.0))
    want, draws = outcome(lambda: masked_batch_simulate(cfg)), presample(cfg)
    for length in block_lengths(cfg.horizon):
        with forced_block(length):
            assert outcome(lambda: monte_carlo(cfg).per_run_costs) == want
            assert outcome(lambda: run_episode(cfg, want[2], draws)) == want


# --- every computed depth is decrease-tested exactly once ---


def depths_checked(run):
    """`run()`, and the (step, ring row) of every depth that `controller.check` tests meanwhile."""
    seen, check = [], controller.check

    def recording(plant, ring):
        for tick, rows, _, _ in ring.pending:
            seen.extend((tick, int(row)) for row in rows)
        check(plant, ring)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "check", recording)
        run()
    return seen


def linear_gaussian(kind):
    return SimConfig(plant=LINEAR, availability=IidAvailability([0.1, 0.2, 0.3, 0.2, 0.2]),
                     controller=ControllerKind(kind),
                     disturbance=DisturbanceModel(kind="gaussian", variance=0.1),
                     horizon=100, runs=6, master_seed=4)


# (config, block length, runs that diverge); fig1 at tau 0.4 runs its own block rule
ONCE = {
    **{f"linear-{kind}": (linear_gaussian(kind), 5, 0) for kind in ("a1", "a2")},
    **{f"fig1-tau0.4-{kind}": (replace(fig1(0.4, kind), runs=6), None, 5)
       for kind in ("a1", "a2")},
}


@pytest.mark.parametrize("case", sorted(ONCE))
def test_every_computed_depth_is_tested_once(case):
    """No (step, row) pair is tested twice, and each lane tests the capped N(k) of
    every step it stepped, in monte_carlo and in each run's episode: a sequence
    is computed in full, past the horizon or a divergence included."""
    cfg, length, diverging = ONCE[case]
    draws = presample(cfg)
    capped = cfg.controller.capped(draws[0])
    with forced_block(length):
        traces = [run_episode(cfg, r, draws) for r in range(cfg.runs)]
        batch = depths_checked(lambda: monte_carlo(cfg, draws))
        episodes = [depths_checked(lambda: run_episode(cfg, r, draws)) for r in range(cfg.runs)]
    assert sum(trace.diverged for trace in traces) == diverging
    want = [int(capped[r, :trace.steps].sum()) for r, trace in enumerate(traces)]
    for seen in (batch, *episodes):
        assert len(set(seen)) == len(seen)
    lanes = np.array([row for _, row in batch]) // cfg.buffer_capacity
    assert np.bincount(lanes, minlength=cfg.runs).tolist() == want
    assert [len(seen) for seen in episodes] == want


# --- the row-sized block rule ---

SAT_2D = make_builtin_plant("sat_2d")
CUBIC = make_builtin_plant("cubic_scalar")


def test_block_is_sized_by_ring_rows():
    assert Ring(SAT_2D, 4, ()).block == 256  # a trace episode at Lambda 4
    assert Ring(CUBIC, 10, (200,)).block == 16  # a fig1 cell at tau 0.1
    assert Ring(SAT_2D, 4, (100,)).block == 16  # the benchmark's Monte-Carlo call
    with forced_block(7):
        assert Ring(SAT_2D, 4, ()).block == 7


def test_one_lane_episode_does_not_depend_on_its_block():
    cfg = replace(markov_sat_2d("a2"), horizon=1000)
    assert Ring(cfg.plant, cfg.buffer_capacity).block == 256
    traces, draws = [], presample(cfg)
    for length in (None, 16, cfg.horizon):
        with forced_block(length):
            traces.append([run_episode(cfg, r, draws) for r in range(TRACES)])
    for forced in traces[1:]:
        for trace, first in zip(forced, traces[0]):
            for name in ("x", "u", "n_seq", "lam", "v"):
                got, want = getattr(trace, name), getattr(first, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert trace.diverged == first.diverged
