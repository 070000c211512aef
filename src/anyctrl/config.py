"""YAML config parsing for simulations, certificate checks, and sweeps.

The config is one nested key-value file; see README for the full schema.
This module reads documents: it rejects missing keys, unknown keys (a key
of another kind included) and sections that are not mappings, and passes
each value as written to the object that holds it, whose constructor is
the value's one check (by the rules in `errors`) and names its key. Only
the values under `plant.params` are checked here, before they become the
plant builder's keywords.
"""

from __future__ import annotations

from typing import Optional, Tuple

import yaml

from .availability import (AvailabilityModel, IidAvailability,
                           MarkovAvailability, from_execution_time)
from .controller import ControllerKind
from .errors import ConfigError, real
from .experiments import BUILTIN, ExperimentSpec, builtin_experiment
from .plants import (BUILTIN_PLANTS, DISTURBANCE_KEYS, DisturbanceModel, PlantModel,
                     make_builtin_plant)
from .simulation import SimConfig, check_scale
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
    """The document at `path`, a mapping, read by pyyaml's safe loader (libyaml's when built)."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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


def parse_availability(section: dict) -> AvailabilityModel:
    section = _section(section, "availability")
    kind = _require(section, "kind", "availability")
    if not isinstance(kind, str) or kind not in AVAILABILITY_KEYS:
        raise ConfigError(f"availability.kind must be one of {tuple(AVAILABILITY_KEYS)}, "
                          f"got {kind!r}")
    _kind_keys(section, "availability", kind, AVAILABILITY_KEYS)
    if kind == "exec_time":
        return from_execution_time(_require(section, "tau", "availability"))
    if kind == "iid":
        return IidAvailability(_require(section, "p", "availability"))
    return MarkovAvailability(_require(section, "Q", "availability"),
                              _require(section, "P", "availability"),
                              initial_state=section.get("initial_state"))


def parse_plant(section: dict) -> PlantModel:
    section = _section(section, "plant", ("name", "params"))
    name = _require(section, "name", "plant")
    if not isinstance(name, str) or name not in BUILTIN_PLANTS:
        raise ConfigError(f"plant.name must be one of {list(BUILTIN_PLANTS)}, got {name!r}")
    params = {str(key): real(value, f"plant.params.{key}")
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
    return DisturbanceModel(kind=kind, **{key: section[key] for key in section if key != "kind"})


def parse_controller(section: dict) -> ControllerKind:
    """The controller section; `ControllerKind` checks its values."""
    section = _section(section, "controller", ("kind", "buffer_cap"))
    return ControllerKind(kind=_require(section, "kind", "controller"),
                          buffer_cap=section.get("buffer_cap"))


def parse_scale(data: dict, *, seed: Optional[int] = None, runs: Optional[int] = None,
                horizon: Optional[int] = None) -> dict:
    """seed, runs and horizon from the file, with keyword overrides winning.

    A value neither gives is the SimConfig default. Every value is held to
    `simulation.check_scale`, the file's too where an override replaces it.
    """
    given = {"seed": seed, "runs": runs, "horizon": horizon}
    out = {}
    for key, default in (("seed", SimConfig.master_seed), ("runs", SimConfig.runs),
                         ("horizon", SimConfig.horizon)):
        out[key] = check_scale(key, data.get(key, default))
        if given[key] is not None:
            out[key] = check_scale(key, given[key])
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
    sizes = parse_scale(data, seed=seed, runs=runs, horizon=horizon)
    return SimConfig(plant=plant, availability=availability, controller=controller,
                     disturbance=disturbance, horizon=sizes["horizon"], runs=sizes["runs"],
                     master_seed=sizes["seed"], x0=data.get("x0"), x0_box=data.get("x0_box"),
                     **cost)


def parse_certificate_inputs(data: dict) -> CertificateInputs:
    _section(data, "", STABILITY_KEYS)
    return CertificateInputs(rho=_require(data, "rho", ""), alpha=_require(data, "alpha", ""),
                             availability=parse_availability(_require(data, "availability", "")))


def parse_sweep(data: dict, *, seed: Optional[int] = None, runs: Optional[int] = None,
                horizon: Optional[int] = None) -> Tuple[str, ExperimentSpec]:
    """The experiment's name and sweep; keyword overrides win over file values.

    A stock experiment takes the file's grid, if given, for its default. A
    custom one's `base:` keeps its scale unless the top level or an override
    gives one, and its errors are prefixed `base:`.
    """
    name = data.get("experiment", "custom")
    if name != "custom" and not (isinstance(name, str) and name in BUILTIN):
        raise ConfigError(f"experiment must be one of {', '.join(BUILTIN)}, custom; "
                          f"got {name!r}")
    scale = parse_scale(data, seed=seed, runs=runs, horizon=horizon)
    given = {"seed": seed, "runs": runs, "horizon": horizon}
    # a value neither the top level nor an override gives stays the base's (or the default)
    overrides = {key: value for key, value in scale.items()
                 if key in data or given[key] is not None}
    grid = data.get("grid")
    if grid is not None and not isinstance(grid, list):
        raise ConfigError(f"grid must be a list, got {grid!r}")
    if name != "custom":
        spec = builtin_experiment(name, grid=grid, **overrides)
        _section(data, "", SWEEP_KEYS)
        return name, spec
    base_doc = _section(data.get("base"), "base")
    try:
        base = parse_sim_config(base_doc, **overrides)
    except ConfigError as exc:
        raise ConfigError(f"base: {exc}") from None
    sweep, grid = _require(data, "sweep", ""), _require(data, "grid", "")
    # the base must be one the sweep can vary; ExperimentSpec checks a sweep over `a`
    kind = base_doc["availability"]["kind"]
    if sweep == "tau" and kind != "exec_time":
        raise ConfigError(f"sweeping tau needs base.availability.kind exec_time, got {kind!r}")
    spec = ExperimentSpec(sweep, tuple(grid), base)
    _section(data, "", CUSTOM_SWEEP_KEYS)
    return name, spec
