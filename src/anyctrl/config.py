"""YAML config parsing for simulations, certificate checks, and sweeps.

The config is one nested key-value file; see README for the full schema.
Every parse error names the offending key, and a key the schema does not
know is an error too. Numbers must be finite: NaN and infinities are
config errors, not values to simulate with.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import yaml

from .availability import (AvailabilityModel, IidAvailability,
                           MarkovAvailability, from_execution_time,
                           require_valid)
from .controller import ControllerKind
from .errors import ConfigError
from .plants import (BUILTIN_PLANTS, DISTURBANCE_KEYS, DisturbanceModel, PlantModel,
                     make_builtin_plant)
from .simulation import SimConfig
from .stability import CertificateInputs

# the top-level keys of each kind of document
SIM_KEYS = ("plant", "availability", "controller", "disturbance", "cost", "x0", "x0_box",
            "seed", "runs", "horizon")
STABILITY_KEYS = ("rho", "alpha", "availability")
SWEEP_KEYS = ("experiment", "grid", "seed", "runs", "horizon")
CUSTOM_SWEEP_KEYS = SWEEP_KEYS + ("sweep", "base")
# the keys, besides `kind`, that each kind of availability section reads; a
# disturbance section's are plants.DISTURBANCE_KEYS
AVAILABILITY_KEYS = {"exec_time": ("tau",), "iid": ("p",), "markov": ("Q", "P", "initial_state")}


def load_yaml(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return data


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing key {context}.{key}" if context else f"missing key {key}")
    return mapping[key]


def _section(value, key: str, known: Optional[tuple] = None) -> dict:
    """A nested mapping; a missing or empty section reads as {}.

    With `known` given, a key outside it is an error; `key` "" is the top level.
    """
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    unknown = [name for name in value if known is not None and name not in known]
    if unknown:
        raise ConfigError(f"unknown key {key}{'.' if key else ''}{unknown[0]}")
    return value


def _kind_keys(section: dict, key: str, kind: str, known: dict) -> None:
    """Reject a key that `kind` does not read, such as another kind's, naming it."""
    stray = [name for name in section if name != "kind" and name not in known[kind]]
    if stray:
        raise ConfigError(f"unknown key {key}.{stray[0]} for kind {kind}")


def _float(value, key: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return out


def _int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _array(value, key: str) -> np.ndarray:
    """A float array from nested lists of finite numbers."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must hold numbers in a rectangular list, got {value!r}") from None
    if not np.isfinite(out).all():
        raise ConfigError(f"{key} must hold finite numbers, got {value!r}")
    return out


def parse_availability(section: dict) -> AvailabilityModel:
    section = _section(section, "availability")
    kind = _require(section, "kind", "availability")
    if not isinstance(kind, str) or kind not in AVAILABILITY_KEYS:
        raise ConfigError(f"availability.kind must be one of {tuple(AVAILABILITY_KEYS)}, "
                          f"got {kind!r}")
    _kind_keys(section, "availability", kind, AVAILABILITY_KEYS)
    if kind == "exec_time":
        tau = _float(_require(section, "tau", "availability"), "availability.tau")
        try:
            return from_execution_time(tau)
        except ConfigError as exc:
            raise ConfigError(f"availability.tau: {exc}") from None
    if kind == "iid":
        pmf = _array(_require(section, "p", "availability"), "availability.p")
        where, build = "availability.p", lambda: IidAvailability(pmf)
    else:
        q = _array(_require(section, "Q", "availability"), "availability.Q")
        p = _array(_require(section, "P", "availability"), "availability.P")
        initial = section.get("initial_state")
        if initial is not None:
            initial = _int(initial, "availability.initial_state")
        # the invariants tie Q, P and initial_state together
        where, build = "availability", lambda: MarkovAvailability(q, p, initial_state=initial)
    try:
        return require_valid(build())
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_plant(section: dict) -> PlantModel:
    section = _section(section, "plant", ("name", "params"))
    name = _require(section, "name", "plant")
    if not isinstance(name, str) or name not in BUILTIN_PLANTS:
        raise ConfigError(f"plant.name must be one of {list(BUILTIN_PLANTS)}, got {name!r}")
    params = {str(key): _float(value, f"plant.params.{key}")
              for key, value in _section(section.get("params"), "plant.params").items()}
    try:
        return make_builtin_plant(name, **params)
    except ConfigError as exc:
        raise ConfigError(f"plant.params: {exc}") from None


def parse_disturbance(section: Optional[dict]) -> DisturbanceModel:
    section = _section(section, "disturbance")
    kind = section.get("kind", "none")
    if not isinstance(kind, str) or kind not in DISTURBANCE_KEYS:
        raise ConfigError(f"disturbance.kind must be one of {tuple(DISTURBANCE_KEYS)}, "
                          f"got {kind!r}")
    _kind_keys(section, "disturbance", kind, DISTURBANCE_KEYS)
    values = {key: _float(section.get(key, 0.0), f"disturbance.{key}")
              for key in DISTURBANCE_KEYS[kind]}
    try:
        return DisturbanceModel(kind=kind, **values)
    except ConfigError as exc:
        raise ConfigError(f"disturbance: {exc}") from None


def parse_controller(section: dict) -> ControllerKind:
    """The controller section; `ControllerKind` checks its values."""
    section = _section(section, "controller", ("kind", "buffer_cap"))
    return ControllerKind(kind=_require(section, "kind", "controller"),
                          buffer_cap=section.get("buffer_cap"))


def parse_scale(data: dict, *, seed: Optional[int] = None, runs: Optional[int] = None,
                horizon: Optional[int] = None) -> dict:
    """seed, runs and horizon from the file, with keyword overrides winning.

    A value neither gives is the SimConfig default. The file's values are
    checked even where an override replaces them.
    """
    given = {"seed": seed, "runs": runs, "horizon": horizon}
    out = {}
    for key, default, least in (("seed", SimConfig.master_seed, 0), ("runs", SimConfig.runs, 1),
                                ("horizon", SimConfig.horizon, 1)):
        override = [] if given[key] is None else [given[key]]
        for value in [data.get(key, default)] + override:
            out[key] = _int(value, key)
            if out[key] < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
    return out


def parse_sim_config(data: dict, *, seed: Optional[int] = None,
                     runs: Optional[int] = None, horizon: Optional[int] = None) -> SimConfig:
    """Build a SimConfig from a parsed mapping; keyword overrides win over file values."""
    _section(data, "", SIM_KEYS)
    plant = parse_plant(_require(data, "plant", ""))
    availability = parse_availability(_require(data, "availability", ""))
    controller = parse_controller(_require(data, "controller", ""))
    disturbance = parse_disturbance(data.get("disturbance"))
    cost = _section(data.get("cost"), "cost", ("q_x", "r_u"))
    x0 = data.get("x0")
    x0_box = data.get("x0_box")
    if x0_box is not None:
        if not isinstance(x0_box, (list, tuple)) or len(x0_box) != 2:
            raise ConfigError("x0_box must be [lo, hi]")
        x0_box = (_float(x0_box[0], "x0_box"), _float(x0_box[1], "x0_box"))
    sizes = parse_scale(data, seed=seed, runs=runs, horizon=horizon)
    return SimConfig(
        plant=plant,
        availability=availability,
        controller=controller,
        disturbance=disturbance,
        horizon=sizes["horizon"],
        runs=sizes["runs"],
        master_seed=sizes["seed"],
        x0=None if x0 is None else _array(x0, "x0"),
        x0_box=x0_box,
        q_x=_float(cost.get("q_x", 0.2), "cost.q_x"),
        r_u=_float(cost.get("r_u", 2.0), "cost.r_u"),
    )


def parse_certificate_inputs(data: dict) -> CertificateInputs:
    _section(data, "", STABILITY_KEYS)
    rho = _float(_require(data, "rho", ""), "rho")
    alpha = _float(_require(data, "alpha", ""), "alpha")
    availability = parse_availability(_require(data, "availability", ""))
    return CertificateInputs(rho=rho, alpha=alpha, availability=availability)
