import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from anyctrl import controller, simulation
from anyctrl.availability import IidAvailability, MarkovAvailability, from_execution_time
from anyctrl.controller import ControllerKind
from anyctrl.errors import CertificateViolation, ConfigError
from anyctrl.plants import DisturbanceModel, PlantModel, make_builtin_plant
from anyctrl.simulation import (CSV_CHUNK_ROWS, CostSummary, SimConfig, SimTrace,
                                improvement_pct, monte_carlo,
                                paired_diff, presample, run_episode, run_streams,
                                write_runs_csv, write_trace_csv)

import oracles

CUBIC = make_builtin_plant("cubic_scalar")
LINEAR = make_builtin_plant("linear_scalar", a=1.2)


def make_config(**overrides):
    base = dict(plant=LINEAR, availability=from_execution_time(0.3),
                controller=ControllerKind("a2"),
                disturbance=DisturbanceModel(kind="gaussian", variance=0.1),
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("change, key", [
    ({"q_x": -1.0}, "cost.q_x"),
    ({"r_u": NAN}, "cost.r_u"),
    ({"r_u": INF}, "cost.r_u"),
    ({"x0": [NAN]}, "x0"),
    ({"x0_box": (0.0, INF)}, "x0_box"),
    ({"x0_box": (NAN, 1.0)}, "x0_box"),
    ({"x0_box": (1.0, 0.0)}, "x0_box"),
    ({"x0_box": (0, 1, 2)}, "x0_box"),
    ({"x0_box": (0,)}, "x0_box"),
    ({"x0_box": 5}, "x0_box"),
    ({"x0": [0.5], "x0_box": (-1.0, 1.0)}, "x0_box"),
    ({"master_seed": -1}, "seed"),
    ({"master_seed": 1.5}, "seed"),
    ({"master_seed": True}, "seed"),
    ({"runs": 2.5}, "runs"),
    ({"runs": True}, "runs"),
    ({"horizon": 50.5}, "horizon"),
    ({"horizon": np.float64(50.0)}, "horizon"),
])
def test_config_rejects_values_the_simulation_cannot_use(change, key):
    """Each once gave a negative mean cost, diverged every run, raised a numpy or type
    error, or (a float seed) ran as another seed."""
    with pytest.raises(ConfigError, match=f"^{key} must"):
        make_config(**change)


@pytest.mark.parametrize("name", ["cubic_scalar", "linear_scalar", "sat_2d", "log_lyapunov"])
def test_config_needs_no_disturbance_for_any_builtin_plant(name):
    """The default disturbance draws zeros of the plant's disturbance dimension m."""
    plant = make_builtin_plant(name, **{"linear_scalar": {"a": 1.2},
                                        "log_lyapunov": {"rho": 0.5}}.get(name, {}))
    config = SimConfig(plant, from_execution_time(0.3), ControllerKind("a2"), horizon=20, runs=2)
    w_all = presample(config)[1]
    assert w_all.shape == (2, 20, plant.m) and not w_all.any()


def test_config_takes_numpy_integers():
    config = make_config(runs=np.int64(2), horizon=np.int32(30), master_seed=np.uint8(7))
    want = make_config(runs=2, horizon=30, master_seed=7)
    np.testing.assert_array_equal(monte_carlo(config).per_run_costs,
                                  monte_carlo(want).per_run_costs)


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


@given(seed=st.integers(0, 2 ** 63 - 1), run_index=st.integers(0, 10 ** 6))
@example(seed=0, run_index=0)
@example(seed=2 ** 32 + 5, run_index=10 ** 6)
@example(seed=2 ** 63 - 1, run_index=1)
@example(seed=np.uint64(2 ** 63 - 1), run_index=10 ** 6)
@example(seed=np.int64(7), run_index=np.int64(3))
@settings(max_examples=60, deadline=None)
def test_run_streams_are_the_spawned_children_of_the_run_seed(seed, run_index):
    children = np.random.SeedSequence([seed, run_index]).spawn(3)
    for got, child in zip(run_streams(seed, run_index), children, strict=True):
        want = np.random.default_rng(child)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.integers(2 ** 63, size=4).tolist() == want.integers(2 ** 63, size=4).tolist()
        assert got.random(3).tolist() == want.random(3).tolist()


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
                    disturbance=DisturbanceModel(kind="none"),
                    horizon=50, runs=1, master_seed=0)
    trace = run_episode(cfg, 0)
    np.testing.assert_allclose(trace.x[:, 0], 0.99 ** np.arange(50), atol=1e-12)
    assert not trace.diverged


def test_full_availability_makes_controllers_identical():
    for kind in ("baseline", "a1", "a2"):
        cfg = SimConfig(plant=LINEAR, availability=IidAvailability([0.0, 0.5, 0.5]),
                        controller=ControllerKind(kind),
                        disturbance=DisturbanceModel(kind="none"),
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
                    disturbance=DisturbanceModel(kind="none"),
                    horizon=5000, runs=1, master_seed=0, x0=np.array([2.0]))
    trace = run_episode(cfg, 0)
    assert trace.diverged
    assert trace.steps < 5000
    assert oracles.empirical_cost(trace, 0.2, 2.0) == float("inf")


def test_empirical_cost_arithmetic():
    trace = run_episode(make_config(horizon=2, x0=np.array([1.0])), 0)
    stage = 0.2 * trace.x[:, 0] ** 2 + 2.0 * trace.u[:, 0] ** 2
    assert oracles.empirical_cost(trace, 0.2, 2.0) == pytest.approx(stage.mean(), rel=1e-15)


def test_monte_carlo_single_run_mean():
    cfg = make_config(runs=1)
    summary = monte_carlo(cfg)
    want = oracles.empirical_cost(run_episode(cfg, 0), cfg.q_x, cfg.r_u)
    assert summary.mean == want
    assert summary.stderr == 0.0


def test_doubling_runs_keeps_prefix():
    small = monte_carlo(make_config(runs=10))
    big = monte_carlo(make_config(runs=20))
    np.testing.assert_array_equal(big.per_run_costs[:10], small.per_run_costs)


@pytest.mark.parametrize("kind", ["baseline", "a1", "a2"])
def test_batch_engine_matches_reference_loop(kind):
    cfg = make_config(controller=ControllerKind(kind), runs=8, horizon=300)
    batch, draws = monte_carlo(cfg).per_run_costs, presample(cfg)
    loop = np.array([oracles.empirical_cost(run_episode(cfg, r, draws), cfg.q_x, cfg.r_u)
                     for r in range(cfg.runs)])
    # one kernel, the same draws and the same order of the cost sum
    np.testing.assert_array_equal(batch, loop)


def test_batch_engine_matches_reference_loop_2d():
    cfg = SimConfig(plant=make_builtin_plant("sat_2d"),
                    availability=from_execution_time(0.23),
                    controller=ControllerKind("a1"),
                    disturbance=DisturbanceModel(kind="gaussian", variance=0.1),
                    horizon=300, runs=8, master_seed=9)
    batch, draws = monte_carlo(cfg).per_run_costs, presample(cfg)
    loop = np.array([oracles.empirical_cost(run_episode(cfg, r, draws), cfg.q_x, cfg.r_u)
                     for r in range(cfg.runs)])
    np.testing.assert_array_equal(batch, loop)


@pytest.mark.parametrize("kind", ["baseline", "a1", "a2"])
def test_batch_engine_stops_when_every_run_diverged(kind):
    # a starved processor lets the cubic plant escape from x0 = 2 in every run
    cfg = SimConfig(plant=CUBIC, availability=IidAvailability([0.99, 0.01]),
                    controller=ControllerKind(kind),
                    disturbance=DisturbanceModel(kind="uniform", lo=0.0, hi=0.01),
                    horizon=3000, runs=6, master_seed=0, x0=np.array([2.0]))
    draws = presample(cfg)
    traces = [run_episode(cfg, r, draws) for r in range(cfg.runs)]
    assert all(t.diverged and t.steps < cfg.horizon // 2 for t in traces)
    stopped = monte_carlo(cfg).per_run_costs
    # the reference steps every run for the whole horizon
    stepped, _ = oracles.masked_batch_simulate(cfg)
    np.testing.assert_array_equal(stopped, stepped)
    np.testing.assert_array_equal(stopped, np.full(cfg.runs, np.inf))
    steps = sum(len(states) for states, _, _ in simulation._blocks(cfg, *draws))
    assert steps < cfg.horizon // 2


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
    draws = presample(cfg)
    for r in range(6):
        x0 = run_episode(cfg, r, draws).x[0]
        assert -2.0 <= x0[0] <= -1.0


def test_cost_summary_with_divergences():
    summary = CostSummary.from_costs(np.array([1.0, 3.0, np.inf]))
    assert summary.mean == pytest.approx(2.0)
    assert summary.diverged_count == 1
    allbad = CostSummary.from_costs(np.array([np.inf, np.inf]))
    assert allbad.mean == float("inf")
    assert allbad.diverged_count == 2


def test_cost_summary_of_costs_whose_squares_overflow():
    # deviations near 1e300 overflow when squared; the suite turns that warning into an error
    summary = CostSummary.from_costs(np.array([0.0, 1e300, 1e300, np.inf]))
    assert summary.mean == pytest.approx(2e300 / 3, rel=1e-15)
    assert summary.stderr == pytest.approx(1e300 / 3, rel=1e-15)
    assert summary.diverged_count == 1
    mean, se = paired_diff(CostSummary.from_costs(np.array([1e300, -1e300, 5.0])),
                           CostSummary.from_costs(np.array([-1e300, 1e300, 1.0])))
    assert mean == pytest.approx(4.0 / 3, rel=1e-15)
    assert se == pytest.approx(2e300 / np.sqrt(3), rel=1e-15)


@given(arrays(float, st.integers(1, 40),
              elements=st.floats(-2.0 ** 500, 2.0 ** 500, allow_nan=False)))
@settings(max_examples=300, deadline=None)
def test_cost_summary_keeps_the_bits_of_the_plain_moments(costs):
    summary = CostSummary.from_costs(costs)
    assert summary.mean == float(np.mean(costs))
    want = float(np.std(costs, ddof=1) / np.sqrt(costs.size)) if costs.size > 1 else 0.0
    assert summary.stderr == want


def test_improvement_pct():
    ref = CostSummary.from_costs(np.array([2.0, 2.0]))
    cand = CostSummary.from_costs(np.array([1.5, 1.5]))
    assert improvement_pct(cand, ref) == pytest.approx(25.0)
    assert improvement_pct(ref, ref) == 0.0
    allbad = CostSummary.from_costs(np.array([np.inf]))
    assert improvement_pct(cand, allbad) == 100.0
    assert np.isnan(improvement_pct(allbad, allbad))
    # the percentage of a zero reference cost is undefined
    zero = CostSummary.from_costs(np.array([0.0]))
    assert np.isnan(improvement_pct(cand, zero))


def test_paired_diff_of_costs_whose_difference_overflows():
    # 1e308 - (-1e308) overflows; the suite turns that warning into an error
    mean, se = paired_diff(CostSummary.from_costs(np.array([1e308, -1e308, 5.0])),
                           CostSummary.from_costs(np.array([-1e308, 1e308, 1.0])))
    assert mean == pytest.approx(4.0 / 3, rel=1e-15)
    assert se == pytest.approx(2.0 * (1e308 / np.sqrt(3)), rel=1e-15)


@given(st.integers(1, 40).flatmap(lambda runs: st.tuples(*[arrays(
    float, runs, elements=st.floats(-2.0 ** 499, 2.0 ** 499, allow_nan=False))] * 2)))
@settings(max_examples=200, deadline=None)
def test_paired_diff_keeps_the_bits_of_the_plain_moments(pair):
    ref, cand = pair
    d = ref - cand
    want = float(np.std(d, ddof=1) / np.sqrt(d.size)) if d.size > 1 else 0.0
    assert paired_diff(CostSummary.from_costs(ref), CostSummary.from_costs(cand)) == (
        float(np.mean(d)), want)


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
                    disturbance=DisturbanceModel(kind="none"),
                    horizon=101, runs=30, master_seed=0)
    means, ses = oracles.mean_lyapunov_at(cfg, [0, 10, 100])
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


# the cells that stress a float's repr, mixed with any other float
CELL_FLOATS = st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0,
                                         5e-324, 1e300, 0.1]), st.floats())
# empty, one row, and one row either side of a chunk boundary, or any count up to two chunks
ROW_COUNTS = st.one_of(st.sampled_from([0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                        CSV_CHUNK_ROWS + 1]),
                       st.integers(0, 2 * CSV_CHUNK_ROWS + 1))


def assert_writes_oracle_bytes(write, oracle_write, table, directory):
    ours, reference = directory / "ours.csv", directory / "reference.csv"
    write(table, ours)
    oracle_write(table, reference)
    assert ours.read_bytes() == reference.read_bytes()


@st.composite
def sim_traces(draw):
    steps, n, p = draw(ROW_COUNTS), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    length_dtype = draw(st.sampled_from([np.uint8, np.uint16, np.int64]))
    return SimTrace(x=draw(arrays(np.float64, (steps, n), elements=CELL_FLOATS)),
                    u=draw(arrays(np.float64, (steps, p), elements=CELL_FLOATS)),
                    n_seq=draw(arrays(length_dtype, steps,
                                      elements=st.integers(0, np.iinfo(length_dtype).max))),
                    lam=draw(arrays(np.int64, steps, elements=st.integers(0, 2 ** 16))),
                    v=draw(arrays(np.float64, steps, elements=CELL_FLOATS)),
                    diverged=draw(st.booleans()))


@given(trace=sim_traces())
@settings(max_examples=60, deadline=None)
def test_trace_writer_writes_the_csv_module_bytes(trace, tmp_path_factory):
    assert_writes_oracle_bytes(write_trace_csv, oracles.write_trace_csv, trace,
                               tmp_path_factory.mktemp("trace"))


@given(costs=ROW_COUNTS.flatmap(lambda runs: arrays(np.float64, runs, elements=CELL_FLOATS)))
@settings(max_examples=60, deadline=None)
def test_runs_writer_writes_the_csv_module_bytes(costs, tmp_path_factory):
    # the writers read only the per-run costs
    summary = CostSummary(0.0, 0.0, (0.0, 0.0), costs, 0)
    assert_writes_oracle_bytes(write_runs_csv, oracles.write_runs_csv, summary,
                               tmp_path_factory.mktemp("runs"))


@pytest.mark.parametrize("plant_name", ["linear_scalar", "sat_2d"])
@pytest.mark.parametrize("steps", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_episode_trace_files_are_the_csv_module_bytes(plant_name, steps, tmp_path):
    plant = LINEAR if plant_name == "linear_scalar" else make_builtin_plant("sat_2d")
    if steps == 0:  # an episode has at least one step, so the empty trace is built by hand
        empty = np.empty(0, dtype=np.int64)
        traces = [SimTrace(np.empty((0, plant.n)), np.empty((0, plant.p)), empty, empty,
                           np.empty(0), False)]
    else:
        cfg = make_config(plant=plant, horizon=steps, runs=2, x0_box=(-2.0, 2.0))
        draws = presample(cfg)
        # a forced schedule (int64) and the drawn one (availability's dtype)
        forced = (np.arange(2 * steps).reshape(2, steps) % 4, *draws[1:])
        traces = [run_episode(cfg, 0, forced), run_episode(cfg, 1, draws)]
        assert [t.steps for t in traces] == [steps, steps]
    for trace in traces:
        assert_writes_oracle_bytes(write_trace_csv, oracles.write_trace_csv, trace, tmp_path)


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
                    disturbance=DisturbanceModel(kind="gaussian", variance=0.1),
                    horizon=40, runs=run_index + 1, master_seed=seed, x0_box=(-2.0, 2.0))
    trace = run_episode(cfg, run_index)
    n_sched, w, x0 = oracles.presample_run(cfg, run_index)
    states, inputs, lams, _ = oracles.naive_closed_loop(
        kind, plant, x0, n_sched[:trace.steps], cfg.buffer_capacity, buffer_cap, w)
    np.testing.assert_array_equal(trace.x, np.array(states))
    np.testing.assert_array_equal(trace.u, np.array(inputs))
    if kind == "baseline":
        assert not trace.lam.any()
    else:
        assert trace.lam.tolist() == lams
    np.testing.assert_array_equal(trace.n_seq, n_sched[:trace.steps])


@pytest.mark.parametrize("runs", [30, 5])
def test_episode_schedules_are_the_rows_of_presample(runs):
    """An episode drawn by itself reads run r's row of presample, which is its stream's schedule."""
    markov = MarkovAvailability([[0.9, 0.1], [0.3, 0.7]], [[0.1, 0.3, 0.6], [0.6, 0.3, 0.1]])
    cfg = make_config(availability=markov, horizon=300, runs=runs)
    n_all = presample(cfg)[0]
    for r in range(runs):
        trace = run_episode(cfg, r)
        assert trace.steps == cfg.horizon
        np.testing.assert_array_equal(trace.n_seq, n_all[r])
        np.testing.assert_array_equal(trace.n_seq, oracles.presample_run(cfg, r)[0])


@pytest.mark.parametrize("run_index", [-1, 3])
def test_episode_rejects_a_run_outside_the_study(run_index):
    """-1 does not wrap to the last run, and `runs` is one past it."""
    cfg = make_config(runs=3, horizon=10)
    with pytest.raises(IndexError, match=f"run_index must lie in 0..2, got {run_index}"):
        run_episode(cfg, run_index, presample(cfg))
    with pytest.raises(IndexError):
        run_episode(cfg, run_index)


def draws_pairings():
    """(config, config whose draws it is given) pairs whose blocks differ in one shape.

    A log_lyapunov plant draws no disturbance (m = 0) and a linear_scalar
    plant one number per step, so each one's block has the other's runs,
    horizon and state but not its disturbance width.
    """
    cfg = make_config(runs=3, horizon=10)
    log = replace(cfg, plant=make_builtin_plant("log_lyapunov", rho=0.9))
    return {"runs": (cfg, replace(cfg, runs=4)), "horizon": (cfg, replace(cfg, horizon=11)),
            "linear-given-log": (cfg, log), "log-given-linear": (log, cfg)}


@pytest.mark.parametrize("pairing", draws_pairings())
def test_episode_rejects_draws_of_another_config(pairing):
    """Both entry points reject the block with a ConfigError. Given a disturbance
    block of another width, both once raised numpy's broadcast error on one
    pairing and ran the other."""
    cfg, other = draws_pairings()[pairing]
    draws = presample(other)
    with pytest.raises(ConfigError, match="presampled draws do not match"):
        run_episode(cfg, 0, draws)
    with pytest.raises(ConfigError, match="presampled draws do not match"):
        monte_carlo(cfg, draws)


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
    """monte_carlo and run_episode call simulation.controller_step once per step and
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
    draws = presample(cfg)
    n_all = draws[0] if buffer_cap is None else np.minimum(draws[0], buffer_cap)
    computes = kind != "baseline"

    summary = monte_carlo(cfg)
    assert summary.diverged_count == 0
    assert calls == {"step": cfg.horizon, "rollout": computes * ticks_in_flight(n_all)}

    for r in range(2):
        calls.update(step=0, rollout=0)
        trace = run_episode(cfg, r, draws)
        assert calls == {"step": trace.steps, "rollout": computes * ticks_in_flight(n_all[r])}


@pytest.mark.parametrize("kind", ["a1", "a2"])
def test_diverged_lanes_start_no_sequence_but_finish_those_in_flight(monkeypatch, kind):
    """On runs of which some diverge, controller.tentative_sequence runs once per step
    with a sequence in flight on the schedule whose N is zeroed from the step after
    each run's divergence, drain steps included, in run_episode and in monte_carlo.
    It advances N(t) rows for the sequence started at step t on that schedule."""
    calls = {"rollout": 0, "rows": 0}
    rollout = controller.tentative_sequence

    def counted(plant, ring, rows):
        calls["rollout"] += 1
        calls["rows"] += rows.size
        return rollout(plant, ring, rows)

    monkeypatch.setattr(controller, "tentative_sequence", counted)
    # the cubic plant at tau 0.4 diverges in some runs within 300 steps and not in others
    cfg = make_config(plant=CUBIC, availability=from_execution_time(0.4),
                      controller=ControllerKind(kind), horizon=300, runs=8, master_seed=3,
                      disturbance=DisturbanceModel(kind="uniform", lo=0.0, hi=0.01))
    draws = presample(cfg)
    n_lived = np.array(draws[0])
    for r in range(cfg.runs):
        calls.update(rollout=0, rows=0)
        trace = run_episode(cfg, r, draws)
        n_lived[r, trace.steps:] = 0  # a trace stops at the step its next state diverges
        assert calls == {"rollout": ticks_in_flight(n_lived[r]), "rows": n_lived[r].sum()}
    calls.update(rollout=0, rows=0)
    summary = monte_carlo(cfg)
    assert 0 < summary.diverged_count < cfg.runs
    assert calls == {"rollout": ticks_in_flight(n_lived), "rows": n_lived.sum()}


# --- the divergence guard's one-dot pre-check ---

G = simulation.OVERFLOW_GUARD
# the next state is the disturbance, so each lane's states are scripted exactly
ECHO = PlantModel(name="echo", n=2, p=1, m=2,
                  f=lambda x, u, w: w + np.zeros_like(x),
                  lyapunov=lambda x: np.square(x).sum(-1),
                  policy=lambda x: np.zeros(x.shape[:-1] + (1,)), rho=0.5)
# (step, next state) of each lane's one large state; every other state is small
SPIKES = {"0.49 guard": (2, [0.49 * G, 0.0]), "0.99 guard": (3, [0.6 * G, 0.79 * G]),
          "1.01 guard": (5, [1.01 * G, 0.0]), "nan": (7, [np.nan, 0.0]),
          "inf": (9, [0.0, np.inf]), "square overflows": (11, [1e200, 1e200]),
          "none": (None, None)}
GUARD_HORIZON = 20


def guard_lanes(names):
    """(x0, N schedule, disturbances) with the named spikes on lanes in the given order."""
    rng = np.random.default_rng(4)
    w = rng.uniform(-1.0, 1.0, (len(names), GUARD_HORIZON, 2))
    for lane, name in enumerate(names):
        step, state = SPIKES[name]
        if step is not None:
            w[lane, step] = state
    n_sched = rng.integers(0, 3, (len(names), GUARD_HORIZON))
    return rng.uniform(-1.0, 1.0, (len(names), 2)), n_sched, w


def stepped(kind, x0, n_sched, w):
    """The states and last `alive` that `_blocks` yields."""
    config = SimConfig(plant=ECHO, availability=IidAvailability([0.5, 0.3, 0.2]),
                       controller=ControllerKind(kind),
                       disturbance=DisturbanceModel(kind="none"),
                       horizon=GUARD_HORIZON)
    states, alive = [], None
    for xs, _, alive in simulation._blocks(config, n_sched, w, x0):
        states.append(xs)
    return np.concatenate(states), alive


def exact_guard(x0, w):
    """States and alive flags under the exact per-lane test, stepping the whole horizon."""
    x, alive, states = x0, np.ones(x0.shape[:-1], dtype=bool), []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(GUARD_HORIZON):
            states.append(x)
            finite = np.sqrt(np.square(w[..., k, :]).sum(-1)) <= G
            alive = alive & finite
            x = np.where(alive[..., None], w[..., k, :], x)
    return np.array(states), alive


@pytest.mark.parametrize("kind", ["baseline", "a2"])
def test_guard_precheck_on_run_lanes_equals_the_exact_test(monkeypatch, kind):
    names = sorted(SPIKES)
    x0, n_sched, w = guard_lanes(names)
    states, alive = stepped(kind, x0, n_sched, w)
    want_states, want_alive = exact_guard(x0, w)
    np.testing.assert_array_equal(states, want_states)
    np.testing.assert_array_equal(alive, want_alive)
    assert dict(zip(names, alive)) == {name: name in ("none", "0.49 guard", "0.99 guard")
                                       for name in names}
    # diverged lanes keep the last state that passed the guard
    for lane, name in enumerate(names):
        step = SPIKES[name][0]
        if not alive[lane]:
            assert (states[step + 1:, lane] == w[lane, step - 1]).all()
    # every step through the exact test alone gives the same states
    monkeypatch.setattr(simulation, "GUARD_PRECHECK", -1.0)
    exact_states, exact_alive = stepped(kind, x0, n_sched, w)
    np.testing.assert_array_equal(states, exact_states)
    np.testing.assert_array_equal(alive, exact_alive)


@pytest.mark.parametrize("kind", ["baseline", "a2"])
@pytest.mark.parametrize("name", sorted(SPIKES))
def test_guard_precheck_on_one_lane_truncates_where_the_exact_test_does(kind, name):
    x0, n_sched, w = (a[0] for a in guard_lanes([name]))
    states, alive = stepped(kind, x0, n_sched, w)
    want_states, want_alive = exact_guard(x0, w)
    step = SPIKES[name][0]
    diverges = not want_alive
    assert bool(alive) == (not diverges)
    # a diverging episode stops after the step whose next state fails the guard
    assert len(states) == (step + 1 if diverges else GUARD_HORIZON)
    np.testing.assert_array_equal(states, want_states[:len(states)])


def test_all_lanes_diverging_stop_the_loop_where_the_exact_test_does():
    names = ["1.01 guard", "nan", "inf", "square overflows"]
    x0, n_sched, w = guard_lanes(names)
    states, alive = stepped("a2", x0, n_sched, w)
    want_states, want_alive = exact_guard(x0, w)
    assert not alive.any() and not want_alive.any()
    assert len(states) == max(SPIKES[name][0] for name in names) + 1
    np.testing.assert_array_equal(states, want_states[:len(states)])
