import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

from anyctrl import availability, cli
from anyctrl.availability import IidAvailability, MarkovAvailability, from_execution_time
from anyctrl.cli import main
from anyctrl.config import (load_yaml, parse_availability, parse_certificate_inputs,
                            parse_disturbance, parse_sim_config)
from anyctrl.controller import ControllerKind
from anyctrl.errors import ConfigError
from anyctrl.experiments import builtin_experiment, run_sweep, write_sweep_csv
from anyctrl.plants import DisturbanceModel, make_builtin_plant
from anyctrl.simulation import SimConfig
from anyctrl.stability import CertificateInputs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.yaml"))

SIM_DOC = {
    "plant": {"name": "linear_scalar", "params": {"a": 1.2}},
    "availability": {"kind": "exec_time", "tau": 0.3},
    "controller": {"kind": "a2"},
    "disturbance": {"kind": "gaussian", "variance": 0.1},
    "horizon": 200,
    "runs": 5,
    "seed": 3,
}


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_load_yaml_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_yaml(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("plant: [unclosed\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_yaml(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_yaml(scalar)


def test_parse_availability_kinds():
    iid = parse_availability({"kind": "iid", "p": [0.3, 0.7]})
    assert isinstance(iid, IidAvailability)
    markov = parse_availability({"kind": "markov",
                                 "Q": [[0.9, 0.1], [0.2, 0.8]],
                                 "P": [[0.1, 0.9], [0.6, 0.4]],
                                 "initial_state": 1})
    assert isinstance(markov, MarkovAvailability)
    assert markov.initial_state == 1
    tau = parse_availability({"kind": "exec_time", "tau": 0.5})
    assert tau.max_len == 2


def test_parse_availability_errors_name_keys():
    with pytest.raises(ConfigError, match="availability.kind"):
        parse_availability({"kind": "bogus"})
    with pytest.raises(ConfigError, match="availability.tau"):
        parse_availability({"kind": "exec_time", "tau": 1.5})
    with pytest.raises(ConfigError, match="missing key availability.p"):
        parse_availability({"kind": "iid"})
    with pytest.raises(ConfigError, match="availability"):
        parse_availability({"kind": "iid", "p": [0.5, 0.6]})


def test_keys_of_another_kind_are_named():
    """Keys are checked per kind: a key that only another kind reads is an error."""
    with pytest.raises(ConfigError, match="unknown key availability.tau for kind iid"):
        parse_availability({"kind": "iid", "p": [0.5, 0.5], "tau": 0.3})
    with pytest.raises(ConfigError, match="unknown key availability.Q for kind exec_time"):
        parse_availability({"kind": "exec_time", "tau": 0.3, "Q": [[1]]})
    with pytest.raises(ConfigError, match="unknown key disturbance.lo for kind gaussian"):
        parse_disturbance({"kind": "gaussian", "variance": 0.1, "lo": -5, "hi": 5})
    # the kind defaults to none, which reads no other key
    with pytest.raises(ConfigError, match="unknown key disturbance.lo for kind none"):
        parse_disturbance({"lo": -1, "hi": 1})


def test_parse_sim_config_and_overrides():
    cfg = parse_sim_config(dict(SIM_DOC))
    assert cfg.horizon == 200 and cfg.runs == 5 and cfg.master_seed == 3
    assert cfg.plant.name == "linear_scalar"
    cfg = parse_sim_config(dict(SIM_DOC), seed=11, runs=2, horizon=50)
    assert (cfg.master_seed, cfg.runs, cfg.horizon) == (11, 2, 50)


def test_parse_sim_config_validates_a_markov_model_once(monkeypatch):
    calls = []
    validate = availability.validate
    monkeypatch.setattr(availability, "validate", lambda model: calls.append(model) or
                        validate(model))
    config = parse_sim_config({**SIM_DOC, "availability": MARKOV_AVAILABILITY})
    assert len(calls) == 1 and calls[0] is config.availability


def test_parse_sim_config_missing_sections():
    doc = dict(SIM_DOC)
    del doc["controller"]
    with pytest.raises(ConfigError, match="missing key controller"):
        parse_sim_config(doc)


def test_parse_certificate_inputs():
    inputs = parse_certificate_inputs({
        "rho": 0.5, "alpha": 1.618,
        "availability": {"kind": "exec_time", "tau": 0.23}})
    assert inputs.rho == 0.5
    with pytest.raises(ConfigError, match="missing key rho"):
        parse_certificate_inputs({"alpha": 1.0,
                                  "availability": {"kind": "iid", "p": [0.5, 0.5]}})


def test_cli_simulate(tmp_path, capsys):
    path = write_config(tmp_path, SIM_DOC)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out),
                 "--runs", "3", "--horizon", "50", "--traces", "1"])
    assert code == 0
    assert (out / "runs.csv").exists()
    assert (out / "trace_0.csv").exists()
    summary = dict(line.split("=", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    assert summary["runs"] == "3"
    assert float(summary["mean"]) > 0.0
    assert "mean cost" in capsys.readouterr().out


@pytest.mark.parametrize("traces", ["4", "-1"])
def test_cli_simulate_rejects_traces_outside_the_runs(tmp_path, capsys, traces):
    # 4 traces of 3 runs would write trace_3.csv for a run runs.csv does not hold
    path = write_config(tmp_path, SIM_DOC)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out),
                 "--runs", "3", "--horizon", "20", "--traces", traces])
    err = capsys.readouterr().err
    assert code == 2
    assert "--traces" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_simulate_writes_a_trace_for_every_run(tmp_path):
    path = write_config(tmp_path, SIM_DOC)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--runs", "3", "--horizon", "20", "--traces", "3"]) == 0
    assert sorted(p.name for p in out.glob("trace_*.csv")) == [f"trace_{r}.csv" for r in range(3)]


def test_cli_simulate_draws_one_block_for_its_runs_and_traces(tmp_path, monkeypatch):
    """The Monte-Carlo call and both traces read one presample of the three runs."""
    lanes, presample = [], availability.MarkovSampler.presample

    def counted(sampler, count):
        lanes.append(len(sampler.rngs))
        return presample(sampler, count)

    monkeypatch.setattr(availability.MarkovSampler, "presample", counted)
    path = write_config(tmp_path, {**SIM_DOC, "availability": MARKOV_AVAILABILITY})
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--runs", "3", "--horizon", "20", "--traces", "2"]) == 0
    assert lanes == [3]


@pytest.mark.parametrize("plant", ["linear_scalar", "sat_2d"])
def test_cli_trace_costs_add_up_to_the_runs_csv_costs(tmp_path, plant):
    """Each trace's stage costs, added in step order, give its runs.csv cost bit for bit."""
    doc = {**SIM_DOC, "x0_box": [-2.0, 2.0]}
    if plant == "sat_2d":  # the benchmark's simulate study: a Markov processor on sat_2d
        doc.update(plant={"name": "sat_2d"}, availability=MARKOV_AVAILABILITY)
    path, out, runs, horizon = write_config(tmp_path, doc), tmp_path / "out", 4, 300
    assert main(["simulate", "--config", str(path), "--out", str(out), "--runs", str(runs),
                 "--horizon", str(horizon), "--traces", str(runs)]) == 0
    with open(out / "runs.csv", newline="") as fh:
        costs = [float(row["cost"]) for row in csv.DictReader(fh)]
    config = parse_sim_config(doc)
    for r, cost in enumerate(costs):
        with open(out / f"trace_{r}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == horizon
        total = 0.0
        for row in rows:
            x = [float(v) for k, v in row.items() if k[0] == "x"]
            u = [float(v) for k, v in row.items() if k[0] == "u"]
            total += config.q_x * sum(c * c for c in x) + config.r_u * sum(c * c for c in u)
        assert total / horizon == cost


def test_cli_simulate_reports_bad_tau(tmp_path, capsys):
    doc = dict(SIM_DOC)
    doc["availability"] = {"kind": "exec_time", "tau": 1.5}
    path = write_config(tmp_path, doc)
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "availability.tau" in capsys.readouterr().err


def test_cli_stability(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["stability", "--config", str(CONFIG_DIR / "stability.yaml"), "--out", str(out)])
    assert code == 0
    text = (out / "stability.txt").read_text()
    assert "verdict.a1=stable" in text
    assert "verdict.a2=stable" in text
    assert "a1_margin=" in capsys.readouterr().out


def test_cli_sweep_custom(tmp_path, capsys):
    path = write_config(tmp_path, {
        "experiment": "custom",
        "sweep": "tau",
        "grid": [0.2, 0.3],
        "base": dict(SIM_DOC),
    })
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(path), "--out", str(out),
                 "--runs", "3", "--horizon", "50", "--seed", "1"])
    assert code == 0
    with open(out / "sweep_custom.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["grid_value"]) for r in rows] == [0.2, 0.3]
    for r in rows:
        assert float(r["cost_baseline"]) > 0.0


@pytest.mark.parametrize("change", [
    {"x0": [0.0], "disturbance": {"kind": "none"}},  # the state stays at the origin
    {"cost": {"q_x": 0, "r_u": 0}},
])
def test_cli_sweep_with_a_zero_cost_baseline(tmp_path, capsys, change):
    # an improvement over a zero cost is undefined: nan, not an error
    path = write_config(tmp_path, {"experiment": "custom", "sweep": "tau", "grid": [0.2, 0.3],
                                   "base": {**SIM_DOC, **change}})
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(path), "--out", str(out),
                 "--runs", "3", "--horizon", "50"])
    assert code == 0, capsys.readouterr().err
    with open(out / "sweep_custom.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["grid_value"]) for r in rows] == [0.2, 0.3]
    for r in rows:
        assert float(r["cost_baseline"]) == 0.0
        assert r["impr_a1_pct"] == r["impr_a2_pct"] == "nan"
    assert "+nan%" in capsys.readouterr().out


@pytest.mark.parametrize("top, flags, want", [
    ({}, [], (9, 2, 5)),  # the base's values hold
    ({"seed": 4, "runs": 3}, [], (4, 3, 5)),  # the top level replaces them
    ({"seed": 4, "runs": 3}, ["--runs", "6", "--horizon", "7"], (4, 6, 7)),  # so does a flag
])
def test_cli_custom_sweep_keeps_the_base_scale(tmp_path, monkeypatch, top, flags, want):
    specs = []
    monkeypatch.setattr(cli, "run_sweep", lambda spec: specs.append(spec) or [])
    base = {**SIM_DOC, "seed": 9, "runs": 2, "horizon": 5}
    path = write_config(tmp_path, {"experiment": "custom", "sweep": "tau", "grid": [0.2],
                                   "base": base, **top})
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"), *flags]) == 0
    (spec,) = specs
    assert (spec.base.master_seed, spec.base.runs, spec.base.horizon) == want


def test_cli_sweep_builtin_smoke(tmp_path):
    path = write_config(tmp_path, {"experiment": "fig2", "grid": [0.9, 1.1]})
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(path), "--out", str(out),
                 "--runs", "2", "--horizon", "40", "--seed", "0"])
    assert code == 0
    with open(out / "sweep_fig2.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header[:4] == ["grid_value", "cost_baseline", "cost_a1", "cost_a2"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_configs_run(tmp_path, path):
    command, _, name = path.stem.partition("_")  # simulate, stability or sweep_<experiment>
    scale = ["--runs", "3", "--horizon", "50"] if command != "stability" else []
    assert main([command, "--config", str(path), "--out", str(tmp_path), *scale]) == 0
    if command == "sweep":  # a stock sweep's file runs its built-in protocol at seed 7
        write_sweep_csv(run_sweep(builtin_experiment(name, seed=7, runs=3, horizon=50)),
                        tmp_path / "want.csv")
        assert (tmp_path / f"{path.stem}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_cli_sweep_rejects_unknown_experiment(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "fig9"})
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "fig9" in capsys.readouterr().err


def test_cli_artifacts_reproducible(tmp_path):
    path = write_config(tmp_path, SIM_DOC)
    outs = []
    for sub in ("o1", "o2"):
        out = tmp_path / sub
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--runs", "3", "--horizon", "50"]) == 0
        outs.append((out / "runs.csv").read_bytes())
    assert outs[0] == outs[1]


MARKOV_AVAILABILITY = {"kind": "markov", "Q": [[0.9, 0.1], [0.2, 0.8]],
                       "P": [[0.1, 0.9], [0.6, 0.4]]}


@pytest.mark.parametrize("change, key", [
    ({"sweep": "a", "grid": [0.9, 1.1], "base": {**SIM_DOC, "plant": {"name": "cubic_scalar"}}},
     "base.plant.name"),
    ({"base": {**SIM_DOC, "availability": MARKOV_AVAILABILITY}}, "base.availability.kind"),
    ({"base": {**SIM_DOC, "availability": {"kind": "iid", "p": [0.3, 0.7]}}},
     "base.availability.kind"),
    ({"sweep": "buffer_cap", "grid": [1, 2.5]}, "grid"),
    ({"sweep": "buffer_cap", "grid": [0, 1]}, "grid"),
    ({"sweep": "buffer_cap", "grid": [True, 2]}, "grid"),
    ({"grid": "0.2"}, "grid"),
    ({"grid": [0.2, "0.3"]}, "grid"),
    ({"experiment": "fig3", "grid": [1, 2.5]}, "grid"),
    # a tau grid is checked by the model's own rule on tau, named after the grid
    ({"grid": [0.000001, 0.2]}, "sweep grid over tau must give Lambda = floor(1/tau) <= 65535"),
    ({"grid": [0.0, 0.2]}, "sweep grid over tau must lie in (0, 1), got 0.0"),
    ({"grid": [0.2, 1.0]}, "sweep grid over tau must lie in (0, 1), got 1.0"),
    ({"base": {**SIM_DOC, "horizon": 0}}, "base: horizon"),
])
def test_cli_sweep_rejects_silent_replacement(tmp_path, capsys, change, key):
    doc = {"experiment": "custom", "sweep": "tau", "grid": [0.2, 0.3], "base": dict(SIM_DOC)}
    path = write_config(tmp_path, {**doc, **change})
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--runs", "2", "--horizon", "20"])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, key", [
    ({"x0_box": [1.0, -1.0]}, "x0_box"),
    ({"x0_box": 5}, "x0_box"),
    ({"x0_box": [0.0, "one"]}, "x0_box"),
    ({"x0": [0.5], "x0_box": [-1.0, 1.0]}, "x0_box"),
    ({"cost": {"q_x": "abc"}}, "cost.q_x"),
    ({"cost": {"q_x": -0.1}}, "cost.q_x"),
    ({"cost": {"r_u": -2.0}}, "cost.r_u"),
    ({"controller": {"kind": "a1", "buffer_cap": 2.5}}, "controller.buffer_cap"),
    ({"controller": {"kind": "a1", "buffer_cap": "3"}}, "controller.buffer_cap"),
    ({"controller": {"kind": "a1", "buffer_cap": True}}, "controller.buffer_cap"),
    ({"plant": {"name": "linear_scalar", "params": {"a": 1.2, "r": -2.0}}}, "plant.params"),
    ({"plant": {"name": "linear_scalar", "params": {"a": 1.2, "r": 0}}}, "plant.params"),
    ({"plant": {"name": "linear_scalar", "params": {"a": 1.2, "q": -0.5}}}, "plant.params"),
    ({"plant": {"name": "log_lyapunov", "params": {"rho": 1.0}}}, "plant.params"),
    ({"plant": {"name": "log_lyapunov", "params": {"rho": -0.1}}}, "plant.params"),
])
def test_parse_sim_config_rejects_bad_keys(change, key):
    with pytest.raises(ConfigError, match=key):
        parse_sim_config({**SIM_DOC, **change})


def _sim_config(**change):
    return SimConfig(make_builtin_plant("linear_scalar", a=1.2), from_execution_time(0.3),
                     ControllerKind("a2"), **change)


MARKOV_MODEL = ([[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.6, 0.4]])


@pytest.mark.parametrize("build, key", [
    (lambda: DisturbanceModel("uniform", lo="0"), "disturbance.lo"),
    (lambda: DisturbanceModel("gaussian", variance=True), "disturbance.variance"),
    (lambda: from_execution_time("0.3"), "availability.tau"),
    (lambda: from_execution_time(True), "availability.tau"),
    (lambda: _sim_config(q_x="0.2"), "cost.q_x"),
    (lambda: _sim_config(q_x=True), "cost.q_x"),
    (lambda: _sim_config(r_u=10 ** 400), "cost.r_u"),
    (lambda: _sim_config(x0=[[1], [1, 2]]), "x0"),
    (lambda: _sim_config(x0=["0.5"]), "x0"),
    (lambda: _sim_config(x0_box=(False, True)), "x0_box"),
    (lambda: _sim_config(x0_box=("-1", "1")), "x0_box"),
    (lambda: MarkovAvailability(*MARKOV_MODEL, initial_state=1.5), "availability.initial_state"),
    (lambda: MarkovAvailability(*MARKOV_MODEL, initial_state=True),
     "availability.initial_state"),
    (lambda: CertificateInputs(0.5, 10 ** 400, IidAvailability([0.5, 0.5])), "alpha"),
    (lambda: IidAvailability(["0.5", "0.5"]), "availability.p"),
    (lambda: IidAvailability([0.5, True]), "availability.p"),
    (lambda: IidAvailability(np.array(["0.5", "0.5"])), "availability.p"),
    (lambda: MarkovAvailability([["1.0"]], [[0.5, 0.5]]), "availability.Q"),
    (lambda: MarkovAvailability([[0.5, 0.5], [1.0]], MARKOV_MODEL[1]), "availability.Q"),
    (lambda: MarkovAvailability(MARKOV_MODEL[0], [[0.1, 0.9], ["0.6", 0.4]]), "availability.P"),
    (lambda: MarkovAvailability(MARKOV_MODEL[0], [[0.1, 0.9], [0.6, False]]), "availability.P"),
], ids=["lo-str", "variance-bool", "tau-str", "tau-bool", "q_x-str", "q_x-bool", "r_u-huge",
        "x0-ragged", "x0-str", "x0_box-bools", "x0_box-strs", "initial_state-float",
        "initial_state-bool", "alpha-huge", "p-str", "p-bool", "p-str-array", "Q-str",
        "Q-ragged", "P-str", "P-bool"])
def test_constructors_name_the_key_of_a_value_that_is_no_finite_number(build, key):
    """Each once raised a TypeError, ValueError or OverflowError, or was accepted
    (a bool as a number, a float initial state as its floor, a quoted pmf entry)."""
    with pytest.raises(ConfigError, match=f"^{key} must"):
        build()


def test_parse_sim_config_accepts_boundary_values():
    cfg = parse_sim_config({**SIM_DOC, "x0_box": [0.5, 0.5], "cost": {"q_x": 0.0, "r_u": 0},
                            "controller": {"kind": "a2", "buffer_cap": 2}})
    assert cfg.x0_box == (0.5, 0.5) and (cfg.q_x, cfg.r_u) == (0.0, 0.0)
    assert cfg.controller.buffer_cap == 2


STABILITY_DOC = {"rho": 0.5, "alpha": 1.618, "availability": {"kind": "exec_time", "tau": 0.23}}


@pytest.mark.parametrize("command, change, key", [
    ("simulate", {"horizon": "x"}, "horizon"),
    ("simulate", {"runs": "x"}, "runs"),
    ("simulate", {"seed": "x"}, "seed"),
    ("simulate", {"runs": 2.5}, "runs"),
    ("simulate", {"seed": None}, "seed"),
    ("simulate", {"availability": {"kind": "iid", "p": ["a"]}}, "availability.p"),
    ("simulate", {"availability": {**MARKOV_AVAILABILITY, "Q": [[0.9, "q"], [0.2, 0.8]]}},
     "availability.Q"),
    ("simulate", {"availability": {**MARKOV_AVAILABILITY, "initial_state": "x"}},
     "availability.initial_state"),
    ("simulate", {"availability": {"kind": "exec_time", "tau": "x"}}, "availability.tau"),
    ("simulate", {"disturbance": {"kind": "uniform", "lo": "q"}}, "disturbance.lo"),
    ("simulate", {"plant": {"name": "linear_scalar", "params": [1.2]}}, "plant.params"),
    ("simulate", {"plant": "linear_scalar"}, "plant"),
    ("simulate", {"cost": [0.2]}, "cost"),
    ("simulate", {"x0": ["one"]}, "x0"),
    ("simulate", {"x0": [0.5], "x0_box": [-1, 1]}, "x0_box"),
    ("stability", {"rho": "x"}, "rho"),
    ("stability", {"rho": None}, "rho"),
    ("stability", {"alpha": [1.0]}, "alpha"),
    # a quoted number is a string, and an integer too large for a float is not finite
    ("simulate", {"plant": {"name": "linear_scalar", "params": {"a": "1.2"}}}, "plant.params.a"),
    ("simulate", {"availability": {"kind": "exec_time", "tau": "0.3"}}, "availability.tau"),
    ("simulate", {"availability": {"kind": "iid", "p": ["0.5", "0.5"]}}, "availability.p"),
    ("simulate", {"availability": {**MARKOV_AVAILABILITY, "Q": [["0.9", "0.1"], [0.2, 0.8]]}},
     "availability.Q"),
    ("simulate", {"cost": {"q_x": "0.2"}}, "cost.q_x"),
    ("simulate", {"cost": {"q_x": 10 ** 400}}, "cost.q_x"),
    ("simulate", {"x0": ["0.5"]}, "x0"),
    ("simulate", {"x0_box": ["-1", "1"]}, "x0_box"),
    ("stability", {"rho": "0.5"}, "rho"),
    ("stability", {"alpha": 10 ** 400}, "alpha"),
    ("sweep", {"experiment": "fig2", "seed": "x"}, "seed"),
    # a scale numpy cannot hold in one array, and a tau whose pmf would not fit in memory;
    # each is rejected before anything is allocated
    ("simulate", {"runs": 10 ** 20}, "runs"),
    ("simulate", {"horizon": 10 ** 20}, "horizon"),
    ("sweep", {"experiment": "fig2", "runs": 10 ** 20}, "runs"),
    ("simulate", {"availability": {"kind": "exec_time", "tau": 1e-300}}, "availability.tau"),
    ("simulate", {"availability": {"kind": "exec_time", "tau": 1e-15}}, "availability.tau"),
    ("sweep", {"experiment": "custom", "sweep": "tau", "grid": [0.2], "base": [1]}, "base"),
])
def test_cli_bad_values_name_their_key(tmp_path, capsys, command, change, key):
    doc = {**(STABILITY_DOC if command == "stability" else SIM_DOC), **change}
    path = write_config(tmp_path, doc)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err and "Traceback" not in err
