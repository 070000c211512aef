"""The batch engine against the masked per-depth reference engine, bit for bit."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anyctrl import experiments, simulation
from anyctrl.availability import IidAvailability, MarkovAvailability, from_execution_time
from anyctrl.controller import KINDS, ControllerKind
from anyctrl.errors import CertificateViolation, ConfigError
from anyctrl.experiments import _config_at, builtin_experiment, run_sweep
from anyctrl.plants import DisturbanceModel, make_builtin_plant
from anyctrl.simulation import (SimConfig, monte_carlo, presample,
                                presample_each, run_episode, run_streams)

from oracles import (empirical_cost, lyapunov_at, masked_batch_simulate, mean_lyapunov_at,
                     naive_closed_loop)

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
                     disturbance=DisturbanceModel(kind="uniform", lo=-0.05, hi=0.05),
                     horizon=HORIZON, runs=RUNS, master_seed=5, x0_box=(-2.0, 2.0))


def log_lyapunov(kind):
    return SimConfig(plant=make_builtin_plant("log_lyapunov", rho=0.5),
                     availability=from_execution_time(0.2),
                     controller=ControllerKind(kind),
                     disturbance=DisturbanceModel(kind="none"),
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
    v_at = lyapunov_at(cfg, checkpoints)
    np.testing.assert_array_equal(v_at, np.array([want[k] for k in checkpoints]))


def test_mean_lyapunov_keeps_checkpoint_order():
    cfg = SimConfig(plant=make_builtin_plant("sat_2d"),
                    availability=from_execution_time(0.3),
                    controller=ControllerKind("a1"),
                    disturbance=DisturbanceModel(kind="none"),
                    horizon=101, runs=30, master_seed=0)
    checkpoints = [100, 0, 100]
    v_at = lyapunov_at(cfg, checkpoints)
    # contiguous like the engine's rows, so both sum over runs in one order
    draws = presample(cfg)
    per_run = np.ascontiguousarray(
        np.array([run_episode(cfg, r, draws).v[checkpoints] for r in range(cfg.runs)]).T)
    np.testing.assert_array_equal(v_at, per_run)
    means, ses = mean_lyapunov_at(cfg, checkpoints)
    # equal V per run, laid out alike, so the means and SEs agree exactly
    np.testing.assert_array_equal(means, per_run.mean(axis=1))
    np.testing.assert_array_equal(ses, per_run.std(axis=1, ddof=1) / np.sqrt(cfg.runs))
    assert means.shape == ses.shape == (3,)
    assert means[0] == means[2] < means[1]
    with pytest.raises(ConfigError):
        mean_lyapunov_at(cfg, [0, cfg.horizon])


# working memory `presample` may use beyond its outputs; stacking every run's
# (horizon, 2) uniforms, or any (runs, horizon) float array, needs far more
PRESAMPLE_ALLOWANCE = 16 * 2 ** 20


def test_presample_memory_stays_near_its_outputs():
    """The traced peak of a 200-run x 20 000-step Markov presample: outputs plus an allowance."""
    config = replace(markov_sat_2d("a2", None), runs=200, horizon=20_000)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        draws = presample(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in draws)
    assert peak - start < outputs + PRESAMPLE_ALLOWANCE


def linear_exec_time(tau, horizon, runs, buffer_cap=None):
    return SimConfig(plant=make_builtin_plant("linear_scalar", a=1.1),
                     availability=from_execution_time(tau),
                     controller=ControllerKind("a2", buffer_cap=buffer_cap),
                     disturbance=DisturbanceModel(kind="gaussian", variance=0.1),
                     horizon=horizon, runs=runs, master_seed=4, x0_box=(-2.0, 2.0))


@pytest.mark.parametrize("availability, itemsize", [
    (from_execution_time(0.1), 1),  # Lambda 10
    (IidAvailability(np.full(256, 1 / 256)), 1),  # Lambda 255
    (MarkovAvailability(Q3, P3), 1),  # Lambda 4
    (from_execution_time(1 / 300), 2),  # Lambda 300
])
@pytest.mark.parametrize("runs", [3, 30])
def test_presampled_schedules_take_one_byte_per_step_up_to_lambda_255(availability, itemsize,
                                                                      runs):
    config = replace(linear_exec_time(0.1, 50, runs), availability=availability)
    n_all = presample(config)[0]
    assert n_all.dtype.kind == "u" and n_all.itemsize == itemsize
    assert n_all.max() <= availability.max_len


# a uint8 schedule past step 255, where t + N(t) leaves the type's range, and a
# uint16 one (Lambda 300)
NARROW = {
    "uint8-markov-horizon300": replace(markov_sat_2d("a2", None), horizon=300, runs=30),
    "uint8-tau0.3-horizon300": linear_exec_time(0.3, 300, 4),
    "uint16-tau1/300": linear_exec_time(1 / 300, 40, 3),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", sorted(NARROW))
def test_narrow_schedules_give_the_int64_results(case, kind):
    """Costs and traces on the stored schedules equal those on int64 copies, bit for bit."""
    config = replace(NARROW[case], controller=ControllerKind(kind))
    draws = presample(config)
    wide = draws[0].astype(np.int64)
    assert draws[0].itemsize < wide.itemsize
    np.testing.assert_array_equal(monte_carlo(config, draws).per_run_costs,
                                  monte_carlo(config, (wide,) + draws[1:]).per_run_costs)
    for r in range(2):
        got, want = run_episode(config, r, draws), run_episode(config, r, (wide,) + draws[1:])
        assert got.n_seq.dtype == draws[0].dtype and got.diverged == want.diverged
        for field in ("x", "u", "n_seq", "lam", "v"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def test_a_cap_above_the_schedule_type_changes_nothing():
    """buffer_cap 1000 on a Lambda = 10 model: the uint8 schedule runs uncapped, uncopied."""
    capped = linear_exec_time(0.1, 300, 4, buffer_cap=1000)
    free = replace(capped, controller=ControllerKind("a2"))
    draws = presample(capped)
    assert capped.controller.capped(draws[0]) is draws[0]
    np.testing.assert_array_equal(monte_carlo(capped, draws).per_run_costs,
                                  monte_carlo(free, draws).per_run_costs)
    got, want = run_episode(capped, 1, draws), run_episode(free, 1, draws)
    for field in ("x", "u", "n_seq", "lam", "v"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def markov_a_sweep(seed, runs, horizon, grid):
    """A custom sweep of the linear plant's a under a Markov processor."""
    base = SimConfig(plant=make_builtin_plant("linear_scalar", a=0.9),
                     availability=MarkovAvailability(Q3, P3),
                     controller=ControllerKind("baseline"),
                     disturbance=DisturbanceModel(kind="gaussian", variance=0.1),
                     horizon=horizon, runs=runs, master_seed=seed, x0_box=(-1.0, 1.0))
    return experiments.ExperimentSpec("a", grid, base)


SWEEPS = {
    "fig1-tau": lambda: builtin_experiment("fig1", seed=2, runs=12, horizon=300,
                                           grid=(0.1, 0.3, 0.5)),
    "fig2-a": lambda: builtin_experiment("fig2", seed=4, runs=12, horizon=300, grid=(0.9, 1.5)),
    "fig3-buffer_cap": lambda: builtin_experiment("fig3", seed=5, runs=12, horizon=300,
                                                  grid=(1, 2, 4)),
    "custom-a-markov": lambda: markov_a_sweep(6, 12, 300, (0.8, 1.2, 1.4)),
}


def check_sweep_against_monte_carlo(monkeypatch, spec):
    """Run `spec` and assert what `test_run_sweep_equals_independent_monte_carlo` states."""
    blocks, results, seeded = [], [], []

    def recording_presample_each(configs):
        for block in presample_each(configs):
            blocks.append((block, [a.copy() for a in block]))
            yield block

    def recording_monte_carlo(config, draws=None):
        summary = monte_carlo(config, draws)
        results.append(summary.per_run_costs)
        return summary

    def recording_run_streams(master_seed, run_index):
        seeded.append(run_index)
        return run_streams(master_seed, run_index)

    monkeypatch.setattr(experiments, "presample_each", recording_presample_each)
    monkeypatch.setattr(experiments, "monte_carlo", recording_monte_carlo)
    monkeypatch.setattr(simulation, "run_streams", recording_run_streams)
    rows = run_sweep(spec)
    monkeypatch.undo()

    # a buffer_cap sweep runs its baseline, one config at every cap, once
    cells = [(value, kind) for value in spec.grid for kind in KINDS
             if not (spec.sweep == "buffer_cap" and kind == "baseline" and value != spec.grid[0])]
    assert len(blocks) == len(spec.grid) and len(results) == len(cells)
    assert seeded == list(range(spec.base.runs))
    for value, (block, copies) in zip(spec.grid, blocks):
        want = presample(_config_at(spec, value, "baseline"))
        for array, copy, wanted in zip(block, copies, want):
            assert not array.flags.writeable
            np.testing.assert_array_equal(array, copy)
            assert array.dtype == wanted.dtype
            np.testing.assert_array_equal(array, wanted)
    want = {(value, kind): monte_carlo(_config_at(spec, value, kind))
            for value in spec.grid for kind in KINDS}
    for cell, costs in zip(cells, results):
        np.testing.assert_array_equal(costs, want[cell].per_run_costs)
    assert [row["grid_value"] for row in rows] == list(spec.grid)
    for value, row in zip(spec.grid, rows):
        for kind in KINDS:
            summary = want[value, kind]
            assert (row[f"cost_{kind}"], row[f"diverged_{kind}"]) == (summary.mean,
                                                                      summary.diverged_count)


def test_run_sweep_equals_independent_monte_carlo(monkeypatch):
    """On a tau, an a, a buffer_cap and a Markov a sweep: each grid point's block is
    read-only, left unwritten and equal to `presample` of that grid point; the sweep
    seeds each run's streams once; every cell's costs equal an independent
    `monte_carlo` call, and so does each row's cost, a buffer_cap sweep's one
    baseline run included."""
    for name in sorted(SWEEPS):
        check_sweep_against_monte_carlo(monkeypatch, SWEEPS[name]())


@pytest.mark.parametrize("name, value", [("fig1", 0.2), ("fig1", 0.4), ("fig2", 1.3),
                                         ("fig3", 3)])
def test_costs_do_not_depend_on_how_runs_are_batched(name, value):
    """A 60-run batch split into batches of 1, 16 and 43 runs, each given its slice of the
    draws, gives every run's cost bit for bit, for every controller."""
    spec = builtin_experiment(name, seed=3, runs=60, horizon=300)
    for kind in KINDS:
        config = _config_at(spec, value, kind)
        draws = presample(config)
        parts, start = [], 0
        for size in (1, 16, 43):
            part = tuple(a[start:start + size] for a in draws)
            parts.append(monte_carlo(replace(config, runs=size), part).per_run_costs)
            start += size
        whole = monte_carlo(config, draws).per_run_costs
        np.testing.assert_array_equal(np.concatenate(parts).view(np.int64), whole.view(np.int64))


@pytest.mark.parametrize("kind", KINDS)
def test_a_diverged_run_keeps_its_last_state(kind):
    # one disturbance spike throws run 0 past the overflow guard at step 5; from its
    # last state the next step would be back in range, but a diverged run stays put
    cfg = replace(sweep_cell("fig2", 1.5, kind), runs=3, horizon=20)
    n_all, w_all, x0 = presample(cfg)
    w_all = w_all.copy()
    w_all[0, 5] = 1e13
    draws = (n_all, w_all, x0)
    checkpoints = [4, 5, 6, 10, 19]
    want_costs, want_v = masked_batch_simulate(cfg, set(checkpoints), draws=draws)
    costs = monte_carlo(cfg, draws=draws).per_run_costs
    v_at = lyapunov_at(cfg, checkpoints, draws=draws)
    np.testing.assert_array_equal(costs, want_costs)
    np.testing.assert_array_equal(v_at, np.array([want_v[k] for k in checkpoints]))
    assert costs[0] == np.inf and np.isfinite(costs[1:]).all()
    assert v_at[1, 0] == v_at[2, 0] == v_at[3, 0] == v_at[4, 0]


# --- certificate violations past the first prediction step ---

LINEAR = make_builtin_plant("linear_scalar", a=1.2)
R = LINEAR.rho  # |a - K|: V(chi_j) = R^j V(x0) on the nominal rollout


def violating_config(runs=1, horizon=1, x0=None):
    # rho = 0 fails every decrease test that is not skipped above DECREASE_CHECK_LIMIT
    return SimConfig(plant=replace(LINEAR, rho=0.0),
                     availability=IidAvailability([0.0, 0.0, 0.0, 0.0, 1.0]),
                     controller=ControllerKind("a2"),
                     disturbance=DisturbanceModel(kind="none"),
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
        assert violation_of(lambda: run_episode(cfg, 1, draws)) == (3, 0, 1)
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
# a forced schedule is a block whose N rows the test wrote: (N, w, x0) with presample's w and x0

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
                    disturbance=DisturbanceModel(kind="uniform", lo=-0.1, hi=0.1),
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
        # the same violation on (runs,) and () lanes: earliest step, first depth, lowest run
        found = (exc.step_index, exc.start_step, exc.run)
        assert violation_of(lambda: monte_carlo(cfg, draws)) == found
        assert violation_of(lambda: run_episode(cfg, found[2], draws)) == found
        return
    np.testing.assert_array_equal(monte_carlo(cfg, draws).per_run_costs, want)
    for r in range(cfg.runs):
        trace = run_episode(cfg, r, draws)
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
