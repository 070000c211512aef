import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anyctrl import availability
from anyctrl.config import parse_scale
from anyctrl.errors import ConfigError
from anyctrl.controller import KINDS
from anyctrl.experiments import (SWEEP_COLUMNS, ExperimentSpec, _config_at,
                                 builtin_experiment, run_sweep,
                                 write_sweep_csv)
from anyctrl.plants import lqr_gain_scalar, make_builtin_plant
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
    assert parse_scale({}) == defaults
    for name in ("fig1", "fig2", "fig3"):
        base = builtin_experiment(name).base
        assert {"seed": base.master_seed, "runs": base.runs, "horizon": base.horizon} == defaults
    # a value that is given leaves the others at their defaults
    base = builtin_experiment("fig2", runs=3).base
    assert (base.master_seed, base.runs, base.horizon) == (0, 3, 10_000)
    assert parse_scale({"runs": 3}) == {**defaults, "runs": 3}


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
    """A model is checked once, when it is built: a tau sweep builds one per grid value and
    controller, and an `a` or `buffer_cap` sweep builds none, whatever configs it derives."""
    spec = builtin_experiment(name, runs=2, horizon=20)
    calls = []
    validate = availability.validate
    monkeypatch.setattr(availability, "validate", lambda model: calls.append(model) or
                        validate(model))
    run_sweep(spec)
    assert len(calls) == (len(spec.grid) * len(KINDS) if spec.sweep == "tau" else 0)
