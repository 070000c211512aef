from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anyctrl import availability, experiments
from anyctrl.config import parse_scale, parse_sweep
from anyctrl.errors import ConfigError
from anyctrl.controller import KINDS, ControllerKind
from anyctrl.experiments import (SWEEP_COLUMNS, ExperimentSpec, _config_at,
                                 builtin_experiment, run_sweep,
                                 write_sweep_csv)
from anyctrl.plants import DisturbanceModel, lqr_gain_scalar, make_builtin_plant
from anyctrl.simulation import SimConfig, monte_carlo

import oracles


def test_spec_validation():
    base = builtin_experiment("fig1").base
    with pytest.raises(ConfigError):
        ExperimentSpec("gamma", (0.1,), base)
    with pytest.raises(ConfigError):
        ExperimentSpec("tau", (), base)
    with pytest.raises(ConfigError):
        ExperimentSpec("tau", (0.3, 0.2), base)
    with pytest.raises(ConfigError, match="base.plant.name"):
        ExperimentSpec("a", (0.9, 1.1), base)  # the cubic plant has no a to sweep


def test_builtin_protocols():
    fig1 = builtin_experiment("fig1")
    assert fig1.sweep == "tau" and fig1.grid == (0.1, 0.2, 0.3, 0.4, 0.5)
    assert fig1.base.plant.name == "cubic_scalar"
    assert fig1.base.disturbance.kind == "uniform"
    fig2 = builtin_experiment("fig2")
    assert fig2.sweep == "a" and fig2.base.disturbance.kind == "gaussian"
    fig3 = builtin_experiment("fig3")
    assert fig3.sweep == "buffer_cap" and fig3.base.plant.params["a"] == 1.7
    assert fig3.base.availability.max_len == 4
    with pytest.raises(ConfigError):
        builtin_experiment("fig4")


def test_scale_defaults_have_one_home():
    defaults = {"seed": SimConfig.master_seed, "runs": SimConfig.runs,
                "horizon": SimConfig.horizon}
    assert defaults == {"seed": 0, "runs": 200, "horizon": 10_000}
    # parse_scale gives only what the file or a keyword gives: SimConfig holds the defaults
    assert parse_scale({}) == {}
    assert parse_scale({"runs": 3}) == {"runs": 3}
    assert parse_scale({"runs": 3, "seed": 1}, seed=2) == {"runs": 3, "seed": 2}
    with pytest.raises(ConfigError, match="^runs"):  # checked though the keyword replaces it
        parse_scale({"runs": 0}, runs=3)
    for name in ("fig1", "fig2", "fig3"):
        base = builtin_experiment(name).base
        assert {"seed": base.master_seed, "runs": base.runs, "horizon": base.horizon} == defaults
    # a value that is given leaves the others at their defaults
    base = builtin_experiment("fig2", runs=3).base
    assert (base.master_seed, base.runs, base.horizon) == (0, 3, 10_000)


def test_sweep_rows_and_csv(tmp_path):
    spec = builtin_experiment("fig2", seed=0, runs=4, horizon=100,
                              grid=(0.9, 1.1))
    rows = run_sweep(spec)
    assert len(rows) == 2
    for row in rows:
        assert set(SWEEP_COLUMNS) <= set(row)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)


# the cells that stress a float's repr, mixed with any other float
CELL_FLOATS = st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0,
                                         5e-324, 1e300, 0.1]), st.floats())
# Python and numpy integers and floats: integer grids, float grids and mixed custom grids
GRID_VALUES = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 64).map(np.int64),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.floats(0.0, 1.0).map(np.float64))


@st.composite
def sweep_rows(draw):
    grid = draw(st.lists(GRID_VALUES, min_size=1, max_size=6))
    return [{"grid_value": value,
             **{key: draw(st.integers(0, 10 ** 4) if key.startswith("diverged") else CELL_FLOATS)
                for key in SWEEP_COLUMNS[1:]}} for value in grid]


@given(rows=sweep_rows())
@example(rows=[{"grid_value": cap, **dict.fromkeys(SWEEP_COLUMNS[1:], float("nan")),
                "cost_baseline": float("inf"), "impr_a1_pct": -float("inf"),
                "diverged_baseline": 200} for cap in (1, 2, 3, 4)])
@settings(max_examples=60, deadline=None)
def test_sweep_writer_writes_the_csv_module_bytes(rows, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sweep")
    ours, reference = directory / "ours.csv", directory / "reference.csv"
    write_sweep_csv(rows, ours)
    oracles.write_sweep_csv(rows, reference)
    assert ours.read_bytes() == reference.read_bytes()


def test_sweeps_use_common_random_numbers():
    """The same run index sees the same availability draws for every controller."""
    from dataclasses import replace
    from anyctrl.controller import ControllerKind
    from anyctrl.simulation import run_episode
    base = replace(builtin_experiment("fig2", runs=2, horizon=100).base,
                   controller=ControllerKind("baseline"))
    n_base = run_episode(base, 0).n_seq
    n_a2 = run_episode(replace(base, controller=ControllerKind("a2")), 0).n_seq
    np.testing.assert_array_equal(n_base, n_a2)


def test_a_sweep_keeps_the_base_lqr_weights():
    from dataclasses import replace
    base = replace(builtin_experiment("fig2", runs=2, horizon=10).base,
                   plant=make_builtin_plant("linear_scalar", a=1.1, q=1.0, r=0.5))
    spec = ExperimentSpec("a", (0.9, 1.3), base)
    for value in spec.grid:
        for kind in ("baseline", "a2"):
            params = _config_at(spec, value, kind).plant.params
            assert params == {"a": value, "q": 1.0, "r": 0.5,
                              "gain": lqr_gain_scalar(value, 1.0, 0.5)}
    # the default weights (q 0.2, r 2.0) would give 0.194
    assert abs(_config_at(spec, 0.9, "a1").plant.params["gain"] - 0.649) < 1e-3


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_a_sweep_validates_only_the_models_it_builds(monkeypatch, name):
    """A model is checked once, when it is built, and a spec builds each grid point once: a
    tau spec builds one model per grid value and one to check its base's pmf, an `a` or
    `buffer_cap` spec none, and `run_sweep` none, whatever configs it derives."""
    spec = builtin_experiment(name, runs=2, horizon=20)
    calls = []
    validate = availability.validate
    monkeypatch.setattr(availability, "validate", lambda model: calls.append(model) or
                        validate(model))
    spec = ExperimentSpec(spec.sweep, spec.grid, spec.base)
    built = len(spec.grid) + 1 if spec.sweep == "tau" else 0
    assert len(calls) == built
    run_sweep(spec)
    assert len(calls) == built


MARKOV = availability.MarkovAvailability([[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.6, 0.4]])
SWEEP_DOC = {"experiment": "custom", "sweep": "tau", "grid": [0.2, 0.3],
             "base": {"plant": {"name": "cubic_scalar"}, "controller": {"kind": "a1"},
                      "availability": {"kind": "exec_time", "tau": 0.3}}}


@pytest.mark.parametrize("model, section", [
    (MARKOV, {"kind": "markov", "Q": [[0.9, 0.1], [0.2, 0.8]], "P": [[0.1, 0.9], [0.6, 0.4]]}),
    (availability.IidAvailability([0.3, 0.7]), {"kind": "iid", "p": [0.3, 0.7]}),
    (availability.IidAvailability([0.0, 1.0]), {"kind": "iid", "p": [0.0, 1.0]}),
], ids=["markov", "iid", "iid-zero-first"])
def test_a_tau_sweep_needs_an_execution_time_base_from_python_and_yaml(model, section):
    """The spec owns the rule, so Python and YAML get one error, and nothing is replaced."""
    base = replace(builtin_experiment("fig1").base, availability=model)
    with pytest.raises(ConfigError, match="base.availability.kind") as from_python:
        ExperimentSpec("tau", (0.2, 0.3), base)
    with pytest.raises(ConfigError) as from_yaml:
        parse_sweep({**SWEEP_DOC, "base": {**SWEEP_DOC["base"], "availability": section}})
    assert str(from_yaml.value) == str(from_python.value)


def test_a_tau_sweep_over_an_iid_execution_time_pmf_replaces_nothing():
    pmf = availability.from_execution_time(0.3).pmf.tolist()
    _, spec = parse_sweep({**SWEEP_DOC, "base": {**SWEEP_DOC["base"],
                                                 "availability": {"kind": "iid", "p": pmf}}})
    for tau in spec.grid:
        np.testing.assert_array_equal(_config_at(spec, tau, "a1").availability.pmf,
                                      availability.from_execution_time(tau).pmf)


def test_a_tau_sweep_takes_a_grid_value_just_above_one_third_from_python_and_yaml():
    tau = 0.3333333334  # Lambda = 3 would sum to 1.0000000002
    specs = [ExperimentSpec("tau", (0.1, tau), builtin_experiment("fig1").base),
             parse_sweep({**SWEEP_DOC, "grid": [0.1, tau]})[1]]
    for spec in specs:
        model = _config_at(spec, tau, "a1").availability
        assert model.max_len == 2
        np.testing.assert_array_equal(model.pmf, availability.from_execution_time(tau).pmf)


def test_a_buffer_cap_sweep_takes_no_base_cap():
    base = builtin_experiment("fig3").base
    with pytest.raises(ConfigError, match="base.controller.buffer_cap"):
        ExperimentSpec("buffer_cap", (1, 2), replace(base, controller=ControllerKind("a1", 2)))


def test_an_a_sweep_caps_a1_and_a2_at_the_base_cap(monkeypatch):
    """Each a1 and a2 cell runs at the base's cap, bit for bit, and the baseline uncapped."""
    base = SimConfig(make_builtin_plant("linear_scalar", a=1.2),
                     availability.from_execution_time(0.3),  # Lambda 3, above the cap
                     ControllerKind("a2", buffer_cap=2),
                     DisturbanceModel(kind="gaussian", variance=0.1),
                     horizon=200, runs=6, master_seed=5)
    spec = ExperimentSpec("a", (0.9, 1.3), base)
    cells = []
    monkeypatch.setattr(experiments, "monte_carlo", lambda config, draws: cells.append(
        (config, monte_carlo(config, draws))) or cells[-1][1])
    run_sweep(spec)
    assert len(cells) == len(KINDS) * len(spec.grid)
    binds = False
    for config, summary in cells:
        a, kind = config.plant.params["a"], config.controller.kind
        cap = None if kind == "baseline" else 2
        alone = replace(base, plant=make_builtin_plant("linear_scalar", a=a),
                        controller=ControllerKind(kind, buffer_cap=cap))
        np.testing.assert_array_equal(summary.per_run_costs,
                                      monte_carlo(alone).per_run_costs)
        uncapped = monte_carlo(replace(alone, controller=ControllerKind(kind))).per_run_costs
        binds |= not np.array_equal(summary.per_run_costs, uncapped)
    assert binds  # else the cap would not show
