import csv

import numpy as np
import pytest
import yaml

from anyctrl.availability import IidAvailability, MarkovAvailability
from anyctrl.cli import main
from anyctrl.config import (load_yaml, parse_availability,
                            parse_certificate_inputs, parse_sim_config)
from anyctrl.errors import ConfigError

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


def test_parse_sim_config_and_overrides():
    cfg = parse_sim_config(dict(SIM_DOC))
    assert cfg.horizon == 200 and cfg.runs == 5 and cfg.master_seed == 3
    assert cfg.plant.name == "linear_scalar"
    cfg = parse_sim_config(dict(SIM_DOC), seed=11, runs=2, horizon=50)
    assert (cfg.master_seed, cfg.runs, cfg.horizon) == (11, 2, 50)


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


def test_cli_simulate_reports_bad_tau(tmp_path, capsys):
    doc = dict(SIM_DOC)
    doc["availability"] = {"kind": "exec_time", "tau": 1.5}
    path = write_config(tmp_path, doc)
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "availability.tau" in capsys.readouterr().err


def test_cli_stability(tmp_path, capsys):
    path = write_config(tmp_path, {
        "rho": 0.5, "alpha": 1.618,
        "availability": {"kind": "exec_time", "tau": 0.23}})
    out = tmp_path / "out"
    code = main(["stability", "--config", str(path), "--out", str(out)])
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


def test_cli_sweep_builtin_smoke(tmp_path):
    path = write_config(tmp_path, {"experiment": "fig2", "grid": [0.9, 1.1]})
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(path), "--out", str(out),
                 "--runs", "2", "--horizon", "40", "--seed", "0"])
    assert code == 0
    with open(out / "sweep_fig2.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header[:4] == ["grid_value", "cost_baseline", "cost_a1", "cost_a2"]


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
    ({"cost": {"q_x": "abc"}}, "cost.q_x"),
    ({"cost": {"q_x": -0.1}}, "cost.q_x"),
    ({"cost": {"r_u": -2.0}}, "cost.r_u"),
    ({"controller": {"kind": "a1", "buffer_cap": 2.5}}, "controller.buffer_cap"),
    ({"controller": {"kind": "a1", "buffer_cap": "3"}}, "controller.buffer_cap"),
    ({"controller": {"kind": "a1", "buffer_cap": True}}, "controller.buffer_cap"),
])
def test_parse_sim_config_rejects_bad_keys(change, key):
    with pytest.raises(ConfigError, match=key):
        parse_sim_config({**SIM_DOC, **change})


def test_parse_sim_config_accepts_boundary_values():
    cfg = parse_sim_config({**SIM_DOC, "x0_box": [0.5, 0.5], "cost": {"q_x": 0.0, "r_u": 0},
                            "controller": {"kind": "a2", "buffer_cap": 2}})
    assert cfg.x0_box == (0.5, 0.5) and (cfg.q_x, cfg.r_u) == (0.0, 0.0)
    assert cfg.controller.buffer_cap == 2
