"""YAML config parsing for simulations, certificate checks, and sweeps.

The config is one nested key-value file; see README for the full schema.
Every parse error names the offending key.
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
from .plants import DisturbanceModel, PlantModel, make_builtin_plant
from .simulation import SimConfig
from .stability import CertificateInputs


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


def _float(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def parse_availability(section: dict) -> AvailabilityModel:
    kind = _require(section, "kind", "availability")
    if kind == "exec_time":
        tau = _require(section, "tau", "availability")
        try:
            return from_execution_time(float(tau))
        except ConfigError as exc:
            raise ConfigError(f"availability.tau: {exc}") from None
    if kind == "iid":
        pmf = _require(section, "p", "availability")
        model = IidAvailability(np.asarray(pmf, dtype=float))
    elif kind == "markov":
        q = _require(section, "Q", "availability")
        p = _require(section, "P", "availability")
        model = MarkovAvailability(np.asarray(q, dtype=float), np.asarray(p, dtype=float),
                                   initial_state=section.get("initial_state"))
    else:
        raise ConfigError(f"availability.kind must be iid, markov, or exec_time, got {kind!r}")
    try:
        require_valid(model)
    except ConfigError as exc:
        raise ConfigError(f"availability: {exc}") from None
    return model


def parse_plant(section: dict) -> PlantModel:
    name = _require(section, "name", "plant")
    params = dict(section.get("params") or {})
    try:
        return make_builtin_plant(name, **params)
    except ConfigError as exc:
        raise ConfigError(f"plant: {exc}") from None


def parse_disturbance(section: Optional[dict], plant: PlantModel) -> DisturbanceModel:
    if not section:
        return DisturbanceModel(kind="none", dim=plant.m)
    kind = section.get("kind", "none")
    try:
        return DisturbanceModel(
            kind=kind, dim=plant.m,
            lo=float(section.get("lo", 0.0)), hi=float(section.get("hi", 0.0)),
            mean=float(section.get("mean", 0.0)),
            variance=float(section.get("variance", 0.0)),
        )
    except ConfigError as exc:
        raise ConfigError(f"disturbance: {exc}") from None


def parse_controller(section: dict) -> ControllerKind:
    kind = _require(section, "kind", "controller")
    cap = section.get("buffer_cap")
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int)):
        raise ConfigError(f"controller.buffer_cap must be an integer, got {cap!r}")
    try:
        return ControllerKind(kind=str(kind), buffer_cap=cap)
    except ConfigError as exc:
        raise ConfigError(f"controller: {exc}") from None


def parse_sim_config(data: dict, *, seed: Optional[int] = None,
                     runs: Optional[int] = None, horizon: Optional[int] = None) -> SimConfig:
    """Build a SimConfig from a parsed mapping; keyword overrides win over file values."""
    plant = parse_plant(_require(data, "plant", ""))
    availability = parse_availability(_require(data, "availability", ""))
    controller = parse_controller(_require(data, "controller", ""))
    disturbance = parse_disturbance(data.get("disturbance"), plant)
    cost = data.get("cost") or {}
    x0 = data.get("x0")
    x0_box = data.get("x0_box")
    if x0_box is not None:
        if not isinstance(x0_box, (list, tuple)) or len(x0_box) != 2:
            raise ConfigError("x0_box must be [lo, hi]")
        x0_box = (_float(x0_box[0], "x0_box"), _float(x0_box[1], "x0_box"))
        if x0_box[0] > x0_box[1]:
            raise ConfigError(f"x0_box must have lo <= hi, got {list(x0_box)}")
    q_x, r_u = _float(cost.get("q_x", 0.2), "cost.q_x"), _float(cost.get("r_u", 2.0), "cost.r_u")
    for key, value in (("q_x", q_x), ("r_u", r_u)):
        if not value >= 0.0:
            raise ConfigError(f"cost.{key} must be nonnegative, got {value}")
    return SimConfig(
        plant=plant,
        availability=availability,
        controller=controller,
        disturbance=disturbance,
        horizon=int(horizon if horizon is not None else data.get("horizon", 10_000)),
        runs=int(runs if runs is not None else data.get("runs", 200)),
        master_seed=int(seed if seed is not None else data.get("seed", 0)),
        x0=None if x0 is None else np.asarray(x0, dtype=float),
        x0_box=x0_box,
        q_x=q_x,
        r_u=r_u,
    )


def parse_certificate_inputs(data: dict) -> CertificateInputs:
    rho = float(_require(data, "rho", ""))
    alpha = float(_require(data, "alpha", ""))
    availability = parse_availability(_require(data, "availability", ""))
    return CertificateInputs(rho=rho, alpha=alpha, availability=availability)
