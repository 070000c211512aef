import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anyctrl import controller, simulation
from anyctrl.availability import IidAvailability, from_execution_time
from anyctrl.controller import ControllerKind
from anyctrl.errors import CertificateViolation, ConfigError
from anyctrl.plants import DisturbanceModel, make_builtin_plant
from anyctrl.simulation import (CostSummary, SimConfig, _batch_simulate,
                                _presample_run, empirical_cost,
                                improvement_pct, mean_lyapunov_at,
                                monte_carlo, paired_diff, presample,
                                run_episode, run_streams, write_runs_csv,
                                write_trace_csv)

import oracles

CUBIC = make_builtin_plant("cubic_scalar")
LINEAR = make_builtin_plant("linear_scalar", a=1.2)


def make_config(**overrides):
    base = dict(plant=LINEAR, availability=from_execution_time(0.3),
                controller=ControllerKind("a2"),
                disturbance=DisturbanceModel(kind="gaussian", dim=1, variance=0.1),
                horizon=500, runs=20, master_seed=42)
    base.update(overrides)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(horizon=0)
    with pytest.raises(ConfigError):
        make_config(runs=0)
    with pytest.raises(ConfigError):
        make_config(availability=IidAvailability([1.0, 0.0]))
    with pytest.raises(ConfigError):
        make_config(x0=np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        make_config(disturbance=DisturbanceModel(kind="gaussian", dim=2, variance=0.1))


def test_buffer_capacity_respects_cap():
    assert make_config().buffer_capacity == 3
    assert make_config(controller=ControllerKind("a2", buffer_cap=2)).buffer_capacity == 2
    assert make_config(controller=ControllerKind("a2", buffer_cap=9)).buffer_capacity == 3


def test_run_streams_independent_of_each_other():
    a1, d1, i1 = run_streams(0, 0)
    a2, d2, i2 = run_streams(0, 0)
    assert a1.random() == a2.random()
    assert d1.random() == d2.random()
    # different run index gives different draws
    b1, _, _ = run_streams(0, 1)
    assert a1.random() != b1.random()


def test_episode_deterministic():
    cfg = make_config()
    t1 = run_episode(cfg, 3)
    t2 = run_episode(cfg, 3)
    np.testing.assert_array_equal(t1.x, t2.x)
    np.testing.assert_array_equal(t1.u, t2.u)
    np.testing.assert_array_equal(t1.n_seq, t2.n_seq)


def test_full_availability_baseline_contracts():
    """Always-available processor, no noise: pure 0.99 contraction."""
    cfg = SimConfig(plant=CUBIC, availability=IidAvailability([0.0, 1.0]),
                    controller=ControllerKind("baseline"),
                    disturbance=DisturbanceModel(kind="none", dim=1),
                    horizon=50, runs=1, master_seed=0)
    trace = run_episode(cfg, 0)
    np.testing.assert_allclose(trace.x[:, 0], 0.99 ** np.arange(50), atol=1e-12)
    assert not trace.diverged


def test_full_availability_makes_controllers_identical():
    for kind in ("baseline", "a1", "a2"):
        cfg = SimConfig(plant=LINEAR, availability=IidAvailability([0.0, 0.5, 0.5]),
                        controller=ControllerKind(kind),
                        disturbance=DisturbanceModel(kind="none", dim=1),
                        horizon=200, runs=4, master_seed=1)
        summary = monte_carlo(cfg)
        if kind == "baseline":
            want = summary.per_run_costs
        else:
            np.testing.assert_allclose(summary.per_run_costs, want, rtol=1e-12)


def test_divergence_truncates_and_costs_inf():
    # open loop: the cubic plant escapes from x0 = 2 without control
    cfg = SimConfig(plant=CUBIC, availability=IidAvailability([0.999, 0.001]),
                    controller=ControllerKind("baseline"),
                    disturbance=DisturbanceModel(kind="none", dim=1),
                    horizon=5000, runs=1, master_seed=0, x0=np.array([2.0]))
    trace = run_episode(cfg, 0)
    assert trace.diverged
    assert trace.steps < 5000
    assert empirical_cost(trace, 0.2, 2.0) == float("inf")


def test_empirical_cost_arithmetic():
    trace = run_episode(make_config(horizon=2, x0=np.array([1.0])), 0)
    stage = 0.2 * trace.x[:, 0] ** 2 + 2.0 * trace.u[:, 0] ** 2
    assert empirical_cost(trace, 0.2, 2.0) == pytest.approx(stage.mean(), rel=1e-15)


def test_monte_carlo_single_run_mean():
    cfg = make_config(runs=1)
    summary = monte_carlo(cfg)
    want = empirical_cost(run_episode(cfg, 0), cfg.q_x, cfg.r_u)
    assert summary.mean == want
    assert summary.stderr == 0.0


def test_doubling_runs_keeps_prefix():
    small = monte_carlo(make_config(runs=10))
    big = monte_carlo(make_config(runs=20))
    np.testing.assert_array_equal(big.per_run_costs[:10], small.per_run_costs)


@pytest.mark.parametrize("kind", ["baseline", "a1", "a2"])
def test_batch_engine_matches_reference_loop(kind):
    cfg = make_config(controller=ControllerKind(kind), runs=8, horizon=300)
    batch = monte_carlo(cfg).per_run_costs
    loop = np.array([empirical_cost(run_episode(cfg, r), cfg.q_x, cfg.r_u)
                     for r in range(cfg.runs)])
    # one kernel, the same draws and the same order of the cost sum
    np.testing.assert_array_equal(batch, loop)


def test_batch_engine_matches_reference_loop_2d():
    cfg = SimConfig(plant=make_builtin_plant("sat_2d"),
                    availability=from_execution_time(0.23),
                    controller=ControllerKind("a1"),
                    disturbance=DisturbanceModel(kind="gaussian", dim=1, variance=0.1),
                    horizon=300, runs=8, master_seed=9)
    batch = monte_carlo(cfg).per_run_costs
    loop = np.array([empirical_cost(run_episode(cfg, r), cfg.q_x, cfg.r_u)
                     for r in range(cfg.runs)])
    np.testing.assert_array_equal(batch, loop)


@pytest.mark.parametrize("kind", ["baseline", "a1", "a2"])
def test_batch_engine_stops_when_every_run_diverged(kind):
    # a starved processor lets the cubic plant escape from x0 = 2 in every run
    cfg = SimConfig(plant=CUBIC, availability=IidAvailability([0.99, 0.01]),
                    controller=ControllerKind(kind),
                    disturbance=DisturbanceModel(kind="uniform", dim=1, lo=0.0, hi=0.01),
                    horizon=3000, runs=6, master_seed=0, x0=np.array([2.0]))
    traces = [run_episode(cfg, r) for r in range(cfg.runs)]
    assert all(t.diverged and t.steps < cfg.horizon // 2 for t in traces)
    stopped, _ = _batch_simulate(cfg)
    stepped, v_at = _batch_simulate(cfg, checkpoints=[0, cfg.horizon - 1])
    assert v_at.shape == (2, cfg.runs)
    np.testing.assert_array_equal(stopped, stepped)
    np.testing.assert_array_equal(stopped, np.full(cfg.runs, np.inf))


def test_batch_engine_raises_certificate_violation():
    # no state can contract by rho = 0, so the first rollout of a live run fails
    cfg = make_config(plant=replace(LINEAR, rho=0.0), runs=4, horizon=50)
    with pytest.raises(CertificateViolation):
        monte_carlo(cfg)
    with pytest.raises(CertificateViolation):
        run_episode(cfg, 0)


def test_monte_carlo_repeatable():
    a = monte_carlo(make_config())
    b = monte_carlo(make_config())
    np.testing.assert_array_equal(a.per_run_costs, b.per_run_costs)


def test_x0_box_sampling():
    cfg = make_config(x0_box=(-2.0, -1.0), runs=6)
    for r in range(6):
        x0 = run_episode(cfg, r).x[0]
        assert -2.0 <= x0[0] <= -1.0


def test_cost_summary_with_divergences():
    summary = CostSummary.from_costs(np.array([1.0, 3.0, np.inf]))
    assert summary.mean == pytest.approx(2.0)
    assert summary.diverged_count == 1
    allbad = CostSummary.from_costs(np.array([np.inf, np.inf]))
    assert allbad.mean == float("inf")
    assert allbad.diverged_count == 2


def test_improvement_pct():
    ref = CostSummary.from_costs(np.array([2.0, 2.0]))
    cand = CostSummary.from_costs(np.array([1.5, 1.5]))
    assert improvement_pct(cand, ref) == pytest.approx(25.0)
    assert improvement_pct(ref, ref) == 0.0
    allbad = CostSummary.from_costs(np.array([np.inf]))
    assert improvement_pct(cand, allbad) == 100.0
    assert np.isnan(improvement_pct(allbad, allbad))
    zero = CostSummary.from_costs(np.array([0.0]))
    with pytest.raises(ConfigError):
        improvement_pct(cand, zero)


def test_paired_diff_skips_diverged_pairs():
    ref = CostSummary.from_costs(np.array([2.0, np.inf, 4.0]))
    cand = CostSummary.from_costs(np.array([1.0, 1.0, np.inf]))
    mean, se = paired_diff(ref, cand)
    assert mean == pytest.approx(1.0)
    assert se == 0.0


def test_mean_lyapunov_checkpoints():
    cfg = SimConfig(plant=make_builtin_plant("sat_2d"),
                    availability=from_execution_time(0.3),
                    controller=ControllerKind("a1"),
                    disturbance=DisturbanceModel(kind="none", dim=1),
                    horizon=101, runs=30, master_seed=0)
    means, ses = mean_lyapunov_at(cfg, [0, 10, 100])
    assert means.shape == (3,) and ses.shape == (3,)
    # V(x(0)) = 2*|(1,1)| for every run
    assert means[0] == pytest.approx(2.0 * np.sqrt(2.0))
    assert ses[0] < 1e-12
    assert means[2] < means[1] < means[0]


def test_write_csvs(tmp_path):
    cfg = make_config(runs=3, horizon=20)
    summary = monte_carlo(cfg)
    runs_file = tmp_path / "runs.csv"
    write_runs_csv(summary, runs_file)
    lines = runs_file.read_text().strip().splitlines()
    assert lines[0] == "run,cost,diverged"
    assert len(lines) == 4
    trace = run_episode(cfg, 0)
    trace_file = tmp_path / "trace.csv"
    write_trace_csv(trace, trace_file)
    with open(trace_file, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["k", "x1", "u1", "N", "lambda", "V"]
    # every cell is plain number text that reproduces the trace exactly
    table = np.array([[float(cell) for cell in row] for row in rows])
    np.testing.assert_array_equal(table[:, 0], np.arange(trace.steps))
    np.testing.assert_array_equal(table[:, 1:2], trace.x)
    np.testing.assert_array_equal(table[:, 2:3], trace.u)
    np.testing.assert_array_equal(table[:, 3], trace.n_seq)
    np.testing.assert_array_equal(table[:, 4], trace.lam)
    np.testing.assert_array_equal(table[:, 5], trace.v)


@pytest.mark.parametrize("kind", ["baseline", "a1", "a2"])
@given(plant_name=st.sampled_from(["linear_scalar", "sat_2d"]),
       tau=st.sampled_from([0.2, 0.3, 0.45]),
       buffer_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       run_index=st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_episode_equals_naive_loop_on_its_own_streams(kind, plant_name, tau, buffer_cap,
                                                      seed, run_index):
    plant = LINEAR if plant_name == "linear_scalar" else make_builtin_plant("sat_2d")
    cfg = SimConfig(plant=plant, availability=from_execution_time(tau),
                    controller=ControllerKind(kind, buffer_cap=buffer_cap),
                    disturbance=DisturbanceModel(kind="gaussian", dim=1, variance=0.1),
                    horizon=40, runs=1, master_seed=seed, x0_box=(-2.0, 2.0))
    trace = run_episode(cfg, run_index)
    n_sched, w, x0 = _presample_run(cfg, run_index)
    states, inputs, lams, _ = oracles.naive_closed_loop(
        kind, plant, x0, n_sched[:trace.steps], cfg.buffer_capacity, buffer_cap, w)
    np.testing.assert_array_equal(trace.x, np.array(states))
    np.testing.assert_array_equal(trace.u, np.array(inputs))
    if kind == "baseline":
        assert not trace.lam.any()
    else:
        assert trace.lam.tolist() == lams
    np.testing.assert_array_equal(trace.n_seq, n_sched[:trace.steps])


def ticks_in_flight(n_sched):
    """Steps at which some tentative sequence is in flight, drain steps past the end included.

    `n_sched` is a capped `(lanes, steps)` schedule; the sequence started at
    step t is in flight at steps t .. t + N(t) - 1.
    """
    n_sched = np.atleast_2d(n_sched)
    k = np.arange(n_sched.shape[1])
    reach = np.maximum.accumulate((n_sched + k).max(axis=0))  # largest end step so far
    return int((reach > k).sum()) + max(int(reach[-1]) - k.size, 0)


@pytest.mark.parametrize("kind, buffer_cap", [("baseline", None), ("a1", None),
                                              ("a2", None), ("a2", 2)])
def test_every_step_goes_through_the_patchable_kernel(monkeypatch, kind, buffer_cap):
    """Each loop calls simulation.controller_step once per step and
    controller.tentative_sequence once per step with a sequence in flight,
    drain steps included, so wrappers patched onto those module globals see
    all of the controller's work."""
    calls = {"step": 0, "rollout": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(simulation, "controller_step",
                        counted("step", simulation.controller_step))
    monkeypatch.setattr(controller, "tentative_sequence",
                        counted("rollout", controller.tentative_sequence))
    cfg = make_config(controller=ControllerKind(kind, buffer_cap=buffer_cap),
                      runs=6, horizon=120)
    n_all, _, _ = presample(cfg)
    n_all = n_all if buffer_cap is None else np.minimum(n_all, buffer_cap)
    computes = kind != "baseline"

    summary = monte_carlo(cfg)
    assert summary.diverged_count == 0
    assert calls == {"step": cfg.horizon, "rollout": computes * ticks_in_flight(n_all)}

    for r in range(2):
        calls.update(step=0, rollout=0)
        trace = run_episode(cfg, r)
        assert calls == {"step": trace.steps, "rollout": computes * ticks_in_flight(n_all[r])}
