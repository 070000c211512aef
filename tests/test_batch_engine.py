"""The batch engine against the masked per-depth reference engine, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

from anyctrl import experiments
from anyctrl.availability import IidAvailability, MarkovAvailability, from_execution_time
from anyctrl.controller import KINDS, ControllerKind
from anyctrl.errors import CertificateViolation, ConfigError
from anyctrl.experiments import _config_at, builtin_experiment, run_sweep
from anyctrl.plants import DisturbanceModel, make_builtin_plant
from anyctrl.simulation import (SimConfig, _batch_simulate, mean_lyapunov_at,
                                monte_carlo, presample, run_episode)

from oracles import masked_batch_simulate

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
    per_run = np.array([run_episode(cfg, r).v[checkpoints] for r in range(cfg.runs)]).T
    np.testing.assert_array_equal(v_at, per_run)
    loop_cfg = replace(cfg, plant=replace(cfg.plant, vectorized=False))
    batch = mean_lyapunov_at(cfg, checkpoints)
    loop = mean_lyapunov_at(loop_cfg, checkpoints)
    # equal V per run, laid out alike, so the means and SEs agree exactly
    for got, want in zip(batch, loop):
        assert got.shape == (3,)
        np.testing.assert_array_equal(got, want)
    assert batch[0][0] == batch[0][2] < batch[0][1]
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
