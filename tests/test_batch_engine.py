"""The batch engine against the masked per-depth reference engine, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anyctrl import experiments
from anyctrl.availability import IidAvailability, MarkovAvailability, from_execution_time
from anyctrl.controller import KINDS, ControllerKind
from anyctrl.errors import CertificateViolation, ConfigError
from anyctrl.experiments import _config_at, builtin_experiment, run_sweep
from anyctrl.plants import DisturbanceModel, make_builtin_plant
from anyctrl.simulation import (SimConfig, _batch_simulate, empirical_cost,
                                mean_lyapunov_at, monte_carlo, presample, run_episode)

from oracles import masked_batch_simulate, naive_closed_loop

RUNS, HORIZON = 40, 400

Q3 = [[0.85, 0.10, 0.05], [0.15, 0.70, 0.15], [0.05, 0.15, 0.80]]
P3 = [[0.05, 0.10, 0.15, 0.30, 0.40],
      [0.30, 0.30, 0.20, 0.10, 0.10],
      [0.70, 0.15, 0.08, 0.05, 0.02]]


def sweep_cell(name, value, kind):
    return _config_at(builtin_experiment(name, seed=3, runs=RUNS, horizon=HORIZON), value, kind)


def markov_sat_2d(kind, initial_state):
    return SimConfig(plant=make_builtin_plant("sat_2d"),
                     availability=MarkovAvailability(Q3, P3, initial_state=initial_state),
                     controller=ControllerKind(kind),
                     disturbance=DisturbanceModel(kind="uniform", dim=1, lo=-0.05, hi=0.05),
                     horizon=HORIZON, runs=RUNS, master_seed=5, x0_box=(-2.0, 2.0))


def log_lyapunov(kind):
    return SimConfig(plant=make_builtin_plant("log_lyapunov", rho=0.5),
                     availability=from_execution_time(0.2),
                     controller=ControllerKind(kind),
                     disturbance=DisturbanceModel(kind="none", dim=0),
                     horizon=HORIZON, runs=RUNS, master_seed=1, x0_box=(-3.0, 3.0))


# fig1 at tau 0.4 has diverging runs, so both outcomes of the divergence guard are covered
CASES = {
    **{f"fig1-tau{tau}-{kind}": (sweep_cell, ("fig1", tau, kind))
       for tau in (0.1, 0.4) for kind in KINDS},
    **{f"fig2-a1.5-{kind}": (sweep_cell, ("fig2", 1.5, kind)) for kind in KINDS},
    **{f"fig3-cap2-{kind}": (sweep_cell, ("fig3", 2, kind)) for kind in KINDS},
    **{f"markov-sat2d-init{init}-{kind}": (markov_sat_2d, (kind, init))
       for init in (None, 1) for kind in KINDS},
    **{f"log-lyapunov-{kind}": (log_lyapunov, (kind,)) for kind in KINDS},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_engine_costs_equal_masked_reference(case):
    build, args = CASES[case]
    cfg = build(*args)
    want, _ = masked_batch_simulate(cfg)
    np.testing.assert_array_equal(monte_carlo(cfg).per_run_costs, want)


@pytest.mark.parametrize("kind", KINDS)
def test_batch_checkpoints_equal_masked_reference(kind):
    cfg = markov_sat_2d(kind, None)
    checkpoints = [HORIZON - 1, 0, 37, 0, 200]
    _, want = masked_batch_simulate(cfg, set(checkpoints))
    _, v_at = _batch_simulate(cfg, checkpoints=checkpoints)
    np.testing.assert_array_equal(v_at, np.array([want[k] for k in checkpoints]))


def test_mean_lyapunov_keeps_checkpoint_order():
    cfg = SimConfig(plant=make_builtin_plant("sat_2d"),
                    availability=from_execution_time(0.3),
                    controller=ControllerKind("a1"),
                    disturbance=DisturbanceModel(kind="none", dim=1),
                    horizon=101, runs=30, master_seed=0)
    checkpoints = [100, 0, 100]
    _, v_at = _batch_simulate(cfg, checkpoints=checkpoints)
    # contiguous like the engine's rows, so both sum over runs in one order
    per_run = np.ascontiguousarray(
        np.array([run_episode(cfg, r).v[checkpoints] for r in range(cfg.runs)]).T)
    np.testing.assert_array_equal(v_at, per_run)
    means, ses = mean_lyapunov_at(cfg, checkpoints)
    # equal V per run, laid out alike, so the means and SEs agree exactly
    np.testing.assert_array_equal(means, per_run.mean(axis=1))
    np.testing.assert_array_equal(ses, per_run.std(axis=1, ddof=1) / np.sqrt(cfg.runs))
    assert means.shape == ses.shape == (3,)
    assert means[0] == means[2] < means[1]
    with pytest.raises(ConfigError):
        mean_lyapunov_at(cfg, [0, cfg.horizon])


def test_run_sweep_equals_independent_monte_carlo(monkeypatch):
    spec = builtin_experiment("fig1", seed=2, runs=12, horizon=300, grid=(0.1, 0.3, 0.5))
    blocks, results = [], []

    def recording_presample(config):
        block = presample(config)
        blocks.append((block, [a.copy() for a in block]))
        return block

    def recording_monte_carlo(config, draws=None):
        summary = monte_carlo(config, draws)
        results.append(summary.per_run_costs)
        return summary

    monkeypatch.setattr(experiments, "presample", recording_presample)
    monkeypatch.setattr(experiments, "monte_carlo", recording_monte_carlo)
    rows = run_sweep(spec)
    monkeypatch.undo()

    assert len(blocks) == len(spec.grid) and len(results) == 3 * len(spec.grid)
    for block, copies in blocks:
        for array, copy in zip(block, copies):
            assert not array.flags.writeable
            np.testing.assert_array_equal(array, copy)
    cells = [(value, kind) for value in spec.grid for kind in KINDS]
    for (value, kind), costs in zip(cells, results):
        np.testing.assert_array_equal(costs, monte_carlo(_config_at(spec, value, kind)).per_run_costs)
    assert [row["grid_value"] for row in rows] == list(spec.grid)


# --- certificate violations past the first prediction step ---

LINEAR = make_builtin_plant("linear_scalar", a=1.2)
R = LINEAR.rho  # |a - K|: V(chi_j) = R^j V(x0) on the nominal rollout


def violating_config(runs=1, horizon=1, x0=None):
    # rho = 0 fails every decrease test that is not skipped above DECREASE_CHECK_LIMIT
    return SimConfig(plant=replace(LINEAR, rho=0.0),
                     availability=IidAvailability([0.0, 0.0, 0.0, 0.0, 1.0]),
                     controller=ControllerKind("a2"),
                     disturbance=DisturbanceModel(kind="none", dim=1),
                     horizon=horizon, runs=runs, master_seed=0, x0=x0)


def test_violation_index_past_skipped_depths():
    # V(x0) and V(chi_1) lie above the check limit, V(chi_2) below it: depths 3 and 4
    # fail, and the first of them is reported
    cfg = violating_config(runs=4, horizon=20, x0=np.array([1e4 / R ** 1.5]))
    for run in (lambda: monte_carlo(cfg), lambda: run_episode(cfg, 0),
                lambda: masked_batch_simulate(cfg)):
        with pytest.raises(CertificateViolation) as info:
            run()
        assert info.value.step_index == 3


def test_violation_beyond_a_runs_sequence_length_is_not_raised():
    # run 0 never leaves the unchecked region; run 1 would fail only at depth 3
    x0 = np.array([[1e4 / R ** 2.5], [1e4 / R ** 1.5]])
    w = np.zeros((2, 1, 1))
    cfg = violating_config(runs=2)
    for n, want in (([[3], [2]], None), ([[2], [3]], 3), ([[3], [3]], 3)):
        draws = (np.array(n), w, x0)
        if want is None:
            assert np.isfinite(monte_carlo(cfg, draws).per_run_costs).all()
            continue
        with pytest.raises(CertificateViolation) as info:
            monte_carlo(cfg, draws)
        assert info.value.step_index == want


def violation_of(run):
    with pytest.raises(CertificateViolation) as info:
        run()
    return info.value.step_index, info.value.start_step, info.value.run


def test_violation_reports_start_step_and_run():
    # the two cases above: four equal runs failing first at depth 3 of the
    # sequence from step 0, and run 1 alone reaching its failing depth
    cfg = violating_config(runs=4, horizon=20, x0=np.array([1e4 / R ** 1.5]))
    for run in (lambda: monte_carlo(cfg), lambda: masked_batch_simulate(cfg)):
        assert violation_of(run) == (3, 0, 0)
    assert violation_of(lambda: run_episode(cfg, 2)) == (3, 0, 2)
    x0 = np.array([[1e4 / R ** 2.5], [1e4 / R ** 1.5]])
    cfg = violating_config(runs=2)
    for n in ([[2], [3]], [[3], [3]]):
        draws = (np.array(n), np.zeros((2, 1, 1)), x0)
        assert violation_of(lambda: monte_carlo(cfg, draws)) == (3, 0, 1)
        assert violation_of(lambda: masked_batch_simulate(cfg, draws=draws)) == (3, 0, 1)


def test_violation_reports_the_earliest_start_step():
    # run 1 computes first at step 2; run 0 only at step 3, so run 1's sequence
    # is named although run 0 has the lower index
    x0 = np.array([[0.5], [0.5]])
    cfg = violating_config(runs=2, horizon=5)
    draws = (np.array([[0, 0, 0, 1, 1], [0, 0, 2, 0, 0]]), np.zeros((2, 5, 1)), x0)
    assert violation_of(lambda: monte_carlo(cfg, draws)) == (1, 2, 1)
    assert violation_of(lambda: masked_batch_simulate(cfg, draws=draws)) == (1, 2, 1)


# --- the engine and run_episode against both oracles on random forced schedules ---

CUBIC = make_builtin_plant("cubic_scalar")
SAT_2D = make_builtin_plant("sat_2d")
PLANTS = {"linear": (LINEAR, 3.0), "sat_2d": (SAT_2D, 3.0),
          # uncontrolled, the cubic plant passes the overflow guard within a few steps
          "cubic": (CUBIC, 1000.0),
          # rho = 0 fails every decrease test a computing run makes
          "liar": (replace(LINEAR, rho=0.0), 3.0)}


@st.composite
def forced_cases(draw):
    """A config with a capacity, buffer cap and run count, plus an N schedule per run."""
    name = draw(st.sampled_from(sorted(PLANTS)))
    plant, box = PLANTS[name]
    capacity = draw(st.integers(min_value=1, max_value=4))
    cfg = SimConfig(plant=plant,
                    availability=IidAvailability(np.full(capacity + 1, 1.0 / (capacity + 1))),
                    controller=ControllerKind(draw(st.sampled_from(KINDS)), buffer_cap=draw(
                        st.one_of(st.none(), st.integers(min_value=1, max_value=capacity)))),
                    disturbance=DisturbanceModel(kind="uniform", dim=1, lo=-0.1, hi=0.1),
                    horizon=draw(st.integers(min_value=1, max_value=8)),
                    runs=draw(st.integers(min_value=1, max_value=5)),
                    master_seed=draw(st.integers(min_value=0, max_value=2 ** 16)),
                    x0_box=(-box, box))
    lengths = st.integers(min_value=0, max_value=capacity)
    n = draw(st.lists(st.lists(lengths, min_size=cfg.horizon, max_size=cfg.horizon),
                      min_size=cfg.runs, max_size=cfg.runs))
    return cfg, np.array(n, dtype=np.int64)


@given(case=forced_cases())
@settings(max_examples=150, deadline=None)
def test_engine_and_episode_equal_oracles_on_forced_schedules(case):
    cfg, n_all = case
    _, w_all, x0 = presample(cfg)
    draws = (n_all, w_all, x0)
    try:
        want, _ = masked_batch_simulate(cfg, draws=draws)
    except CertificateViolation as exc:
        # the same violation from both loops: earliest step, first depth, lowest run
        found = (exc.step_index, exc.start_step, exc.run)
        assert violation_of(lambda: monte_carlo(cfg, draws)) == found
        assert violation_of(lambda: run_episode(cfg, found[2], forced_n=n_all[found[2]])) == found
        return
    np.testing.assert_array_equal(monte_carlo(cfg, draws).per_run_costs, want)
    for r in range(cfg.runs):
        trace = run_episode(cfg, r, forced_n=n_all[r])
        assert empirical_cost(trace, cfg.q_x, cfg.r_u) == want[r]
        assert trace.diverged == (not np.isfinite(want[r]))
        with np.errstate(over="ignore", invalid="ignore"):
            states, inputs, lams, _ = naive_closed_loop(
                cfg.controller.kind, cfg.plant, x0[r], n_all[r, :trace.steps],
                cfg.buffer_capacity, cfg.controller.buffer_cap, w_all[r])
        np.testing.assert_array_equal(trace.x, np.array(states))
        np.testing.assert_array_equal(trace.u, np.array(inputs))
        if cfg.controller.kind != "baseline":
            assert trace.lam.tolist() == lams
