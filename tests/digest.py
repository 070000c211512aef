#!/usr/bin/env python3
"""One sha256 per simulation cell and output file: the record that results keep their bits.

`lines()` digests, at one fixed scale (seed SEED, RUNS runs x HORIZON
steps, TRACES traces per config): every cell of the fig1, fig2 and fig3
sweeps and of two more configs (its per-run costs, traces, V at
CHECKPOINTS, and the states the Lyapunov decrease test receives), the
sweep rows, Markov N schedules and `sample()` draws, certificate lines, the
objects the config parser builds, the CLI's output files, and its errors on
BROKEN_AVAILABILITY. The certify pool and the benchmark's Markov config
come from `bench/workloads`.

tests/test_golden_digest.py compares `lines()` with the committed
tests/golden/cell_digest.txt, whose header (`header()`) names the
environment, since numpy's SIMD kernels set float bits. A change that
moves bits on purpose regenerates the file in the same commit, with

    PYTHONPATH=src python tests/digest.py > tests/golden/cell_digest.txt
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import yaml

from anyctrl import cli, controller, experiments
from anyctrl.availability import (IidAvailability, MarkovAvailability, from_execution_time,
                                  make_sampler)
from anyctrl.config import load_yaml, parse_certificate_inputs, parse_sim_config
from anyctrl.controller import KINDS, ControllerKind
from anyctrl.plants import DisturbanceModel, make_builtin_plant
from anyctrl.simulation import SimConfig, _blocks, monte_carlo, presample, run_episode
from anyctrl.stability import CertificateInputs, evaluate

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))  # the certify pool and the benchmark's Markov config
from workloads import certificate_pool, markov_config  # noqa: E402

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

SEED, RUNS, HORIZON, TRACES = 3, 40, 300, 2
SCALE = ("--runs", str(RUNS), "--horizon", str(HORIZON))
Q3 = [[0.85, 0.10, 0.05], [0.15, 0.70, 0.15], [0.05, 0.15, 0.80]]
P3 = [[0.05, 0.10, 0.15, 0.30, 0.40],
      [0.30, 0.30, 0.20, 0.10, 0.10],
      [0.70, 0.15, 0.08, 0.05, 0.02]]
# the first step, both sides of the first block boundary (16 steps), a later
# step and the last step (-1 stands for horizon - 1)
CHECKPOINTS = (0, 15, 16, 200, -1)
SAMPLE_DRAWS = 5000


def header() -> list:
    """The environment the digests hold for: Python, numpy and the SIMD code numpy runs."""
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return [f"# python {platform.python_version()}",
            f"# numpy {np.__version__}",
            f"# numpy SIMD baseline {' '.join(umath.__cpu_baseline__)}",
            f"# numpy SIMD dispatch {' '.join(dispatch)}"]


def feed(h, *arrays) -> None:
    """Add each array's dtype, shape and bytes to the hash `h`; integers by value, as int64."""
    for a in arrays:
        a = np.ascontiguousarray(a)
        if a.dtype.kind in "iu":
            a = a.astype(np.int64)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def digest(*arrays) -> str:
    h = hashlib.sha256()
    feed(h, *arrays)
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CheckRecorder:
    """`controller.check` that first feeds what it tests to a hash, when one is set.

    Each depth recorded on the ring gives its step, its ring rows and its
    states before and after the rollout step. The recorder replaces the
    `controller.check` attribute, so it sees every test only because the
    engine calls `check` through that attribute: `simulation._blocks` once
    per block and `controller.drain` once the loop stops. Each depth
    leaves the ring when it is tested, so the hash takes every computed
    depth once, in step order, however the calls split the steps.
    """

    def __init__(self, check):
        self.check, self.sha = check, None

    def __call__(self, plant, ring):
        if self.sha is not None:
            for tick, rows, before, after in ring.pending:
                feed(self.sha, np.array([tick]), rows, before, after)
        self.check(plant, ring)

    def run(self, h, fn, *args):
        """`fn(*args)`, with every decrease test it runs fed to the hash `h`."""
        self.sha = h
        try:
            return fn(*args)
        finally:
            self.sha = None


def trace_digest(config, runs) -> str:
    parts, draws = [], presample(config)
    for r in runs:
        t = run_episode(config, r, draws)
        parts += [t.x, t.u, t.n_seq, t.lam, t.v, np.array([t.diverged])]
    return digest(*parts)


def checkpoint_digest(config) -> str:
    steps = sorted({k % config.horizon for k in CHECKPOINTS if k < config.horizon})
    n_all, w_all, x0 = presample(config)
    rows, start = {}, 0
    for states, _, _ in _blocks(config, config.controller.capped(n_all), w_all, x0):
        for k in set(steps).intersection(range(start, start + len(states))):
            rows[k] = states[k - start]
        start += len(states)
    # once every run has diverged the loop stops, and each run keeps its last state
    v_at = np.array([config.plant.lyapunov(rows.get(k, states[-1])) for k in steps])
    return digest(np.array(steps), v_at)


def cell_key(config) -> tuple:
    """What tells a stock sweep's cells apart: controller, plant parameters and pmf.

    A sweep may run a config once for several cells (fig3's baseline is one
    config at every cap), so its summaries are looked up by this key.
    """
    return (config.controller, tuple(sorted(config.plant.params.items())),
            config.availability.pmf.tobytes())


def cell_lines(recorder, cell, config, costs, checks, diverging=False):
    """The cell's digests; `checks` holds the decrease tests of its Monte-Carlo call."""
    checks = checks.copy()
    yield f"{cell} costs {digest(costs)}"
    yield f"{cell} traces {recorder.run(checks, trace_digest, config, range(TRACES))}"
    yield f"{cell} checked {checks.hexdigest()}"
    yield f"{cell} checkpoints {checkpoint_digest(config)}"
    if diverging:
        runs = np.flatnonzero(~np.isfinite(costs))[:1]
        first = f"run {runs[0]} {trace_digest(config, runs)}" if runs.size else "none"
        yield f"{cell} first diverging {first}"


def sweep_lines(recorder):
    for name in ("fig1", "fig2", "fig3"):
        spec = experiments.builtin_experiment(name, seed=SEED, runs=RUNS, horizon=HORIZON)
        summaries, checks = {}, {}

        def recording(config, draws=None):
            key = cell_key(config)
            checks[key] = hashlib.sha256()
            summaries[key] = recorder.run(checks[key], monte_carlo, config, draws)
            return summaries[key]

        with mock.patch.object(experiments, "monte_carlo", recording):
            rows = experiments.run_sweep(spec)
        for value in spec.grid:
            for kind in KINDS:
                config = experiments._config_at(spec, value, kind)
                key = cell_key(config)
                yield from cell_lines(recorder, f"{name} {spec.sweep}={value:g} {kind}", config,
                                      summaries[key].per_run_costs, checks[key],
                                      diverging=name == "fig1")
        table = [[row[k] for k in experiments.SWEEP_COLUMNS] for row in rows]
        yield f"{name} rows {digest(np.array(table, dtype=float))}"


def extra_lines(recorder):
    """Cell digests of sat_2d under a 3-state Markov processor, and of log_lyapunov."""
    sat = SimConfig(plant=make_builtin_plant("sat_2d"),
                    availability=MarkovAvailability(Q3, P3),
                    controller=ControllerKind("baseline"),
                    disturbance=DisturbanceModel("uniform", lo=-0.05, hi=0.05),
                    horizon=HORIZON, runs=RUNS, master_seed=SEED, x0_box=(-2.0, 2.0))
    log = SimConfig(plant=make_builtin_plant("log_lyapunov", rho=0.5),
                    availability=from_execution_time(0.2),
                    controller=ControllerKind("baseline"),
                    horizon=HORIZON, runs=RUNS, master_seed=SEED, x0_box=(-3.0, 3.0))
    for name, base in {"markov_sat_2d": sat, "log_lyapunov": log}.items():
        for kind in KINDS:
            config = replace(base, controller=ControllerKind(kind))
            checks = hashlib.sha256()
            costs = recorder.run(checks, monte_carlo, config).per_run_costs
            yield from cell_lines(recorder, f"{name} {kind}", config, costs, checks)


def chain16(initial_state):
    """A 16-state chain; some of its cdf rows end just below or above 1 by float residue."""
    rng = np.random.default_rng(16)
    q = rng.dirichlet(np.full(16, 0.5), size=16)
    p = rng.dirichlet(np.full(6, 0.5), size=16)
    return MarkovAvailability(q, p, initial_state=initial_state)


def schedule_lines():
    for initial_state in (None, 5):
        config = SimConfig(plant=make_builtin_plant("sat_2d"),
                           availability=chain16(initial_state),
                           controller=ControllerKind("a2"),
                           disturbance=DisturbanceModel("uniform", lo=-0.05, hi=0.05),
                           horizon=HORIZON, runs=RUNS, master_seed=SEED)
        yield f"markov16 initial_state={initial_state} schedules {digest(presample(config)[0])}"
    odd = HORIZON | 1
    for count in (1, 2, RUNS):
        config = parse_sim_config(markov_config(SEED, count, odd))
        yield f"bench markov runs={count} horizon={odd} schedules {digest(presample(config)[0])}"


def sample_lines():
    """SAMPLE_DRAWS one-lane `sample()` draws per model, and the stream's next double."""
    chain = parse_sim_config(markov_config(SEED, 1, 1)).availability
    models = {"exec_time tau=0.23": from_execution_time(0.23),
              "bench markov initial_state=None": chain,
              "bench markov initial_state=2": replace(chain, initial_state=2)}
    for name, model in models.items():
        rng = np.random.default_rng([SEED, 23])
        sampler = make_sampler(model, [rng])
        draws = [sampler.sample() for _ in range(SAMPLE_DRAWS)]
        yield f"sample {name} {digest(np.array(draws), np.array([rng.random()]))}"


def _pmf_rows(rng, states: int, lam: int) -> np.ndarray:
    """Per-state pmfs over {0..lam} with a random share of extra idle mass."""
    rows = rng.dirichlet(np.ones(lam + 1), size=states)
    push = rng.uniform(0.0, 0.9, size=states)
    rows *= (1.0 - push)[:, None]
    rows[:, 0] += push
    return rows


def _chain(rng, kind: str, states: int) -> np.ndarray:
    if kind == "ring":  # small self-loops and rare skips: slow power iteration
        stay = rng.uniform(0.005, 0.05, size=states)
        skip = np.where(rng.random(states) < 0.5, rng.uniform(0.0, 0.02, size=states), 0.0)
        q = np.diag(stay) + np.roll(np.diag(1.0 - stay - skip), 1, axis=1)
        return q + np.roll(np.diag(skip), 2, axis=1)
    return rng.dirichlet(np.full(states, rng.choice([0.3, 1.0, 5.0])), size=states)


def certificate_cases(count: int = 64):
    """Seeded (kind, rho, alpha, build) certificate inputs, `count` of each kind.

    `build()` makes the availability model, so that `certificate_lines` can
    digest a model its constructor rejects as that error.
    """
    rng = np.random.default_rng([SEED, 11])
    for kind in ("exec_time", "iid", "dense", "ring", "degenerate", "near_one"):
        for i in range(count):
            rho, alpha = float(rng.uniform(0.0, 0.98)), float(1.0 + rng.exponential(0.8))
            if kind == "exec_time":
                build = partial(from_execution_time, (i % 63 + 1) / 64.0)
            elif kind == "iid":
                build = partial(IidAvailability, _pmf_rows(rng, 1, int(rng.integers(1, 13)))[0])
            else:
                states = int(rng.integers(2, 17))
                pmfs = _pmf_rows(rng, states, int(rng.integers(1, 7)))
                if kind == "degenerate":  # some states, never all, have p0|s = 1
                    idle = rng.random(states) < 0.3
                    idle[rng.integers(states)] = False
                    pmfs[idle] = np.eye(pmfs.shape[1])[0]
                q = _chain(rng, "ring" if kind == "ring" or i % 2 else "dense", states)
                build = partial(MarkovAvailability, q, pmfs)
                if kind == "near_one":
                    gap = rng.choice([1e-12, 1e-9, 1e-6, 1e-3]) * rng.choice([-1.0, 1.0])
                    alpha = max(1.0, (1.0 + gap) / float(pmfs[:, 0].max()))
            yield kind, rho, alpha, build


def certificate_lines(rho, alpha, build) -> list:
    """The report lines of the model `build()` makes, or the error of building or evaluating."""
    try:
        return evaluate(CertificateInputs(rho, alpha, build())).lines()
    except Exception as exc:  # a raising evaluation is part of the result
        return [f"raised {type(exc).__name__}: {exc}"]


def certificate_digest_lines():
    lines = {}
    for kind, rho, alpha, build in certificate_cases():
        lines.setdefault(kind, []).extend(certificate_lines(rho, alpha, build) + [""])
    # one line per category of the certify pool, which lists each category's items together
    for category, rho, alpha, model in certificate_pool():
        lines.setdefault(f"pool {category}", []).extend(
            certificate_lines(rho, alpha, lambda: model) + [""])
    for kind, text in lines.items():
        sha = text_digest("\n".join(text))
        yield f"certificates {kind} {sha}"


def markov_simulate_doc() -> dict:
    return {"plant": {"name": "sat_2d"},
            "availability": {"kind": "markov", "Q": Q3, "P": P3},
            "controller": {"kind": "a2"},
            "disturbance": {"kind": "uniform", "lo": -0.05, "hi": 0.05},
            "seed": SEED, "x0_box": [-2.0, 2.0]}


# availability sections that no valid model has; each should end `anyctrl simulate` with exit 2
BROKEN_AVAILABILITY = {
    "sum off": {"kind": "iid", "p": [0.5, 0.6]},
    "negative": {"kind": "iid", "p": [1.2, -0.2]},
    "nan": {"kind": "iid", "p": [float("nan"), 0.5]},
    "quoted entry": {"kind": "iid", "p": ["0.5", "0.5"]},
    "reducible": {"kind": "markov", "Q": [[1.0, 0.0], [0.0, 1.0]], "P": [[0.5, 0.5]] * 2},
    "periodic": {"kind": "markov", "Q": [[0.0, 1.0], [1.0, 0.0]], "P": [[0.5, 0.5]] * 2},
    "all idle": {"kind": "markov", "Q": [[0.5, 0.5]] * 2, "P": [[1.0, 0.0]] * 2},
    "initial_state": {"kind": "markov", "Q": [[0.5, 0.5]] * 2, "P": [[0.5, 0.5]] * 2,
                      "initial_state": 2},
    "tau 1e-300": {"kind": "exec_time", "tau": 1e-300},  # Lambda 1e300: no array that long
    "tau 1e-15": {"kind": "exec_time", "tau": 1e-15},  # Lambda 1e15: 7 PiB of floats
}


def cli_error_lines():
    """One digest per BROKEN_AVAILABILITY document: `simulate`'s exit code and stderr.

    An exception that escapes `cli.main` is digested as its type and message.
    """
    doc = {"plant": {"name": "linear_scalar", "params": {"a": 1.2}},
           "controller": {"kind": "a1"}, "runs": 2, "horizon": 5}
    with tempfile.TemporaryDirectory() as tmp:
        for name, section in BROKEN_AVAILABILITY.items():
            config = Path(tmp) / "broken.yaml"
            config.write_text(yaml.safe_dump({**doc, "availability": section}))
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(["simulate", "--config", str(config), "--out", tmp])
                text = f"exit {code}\n{err.getvalue()}"
            except Exception as exc:  # an uncaught error is part of the result
                text = f"raised {type(exc).__name__}: {exc}"
            yield f"cli error {name} {text_digest(text)}"


def cli_lines(name: str, command: str, config: Path, *flags):
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(config), "--out", out, *flags])
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(Path(out).iterdir())}
    yield f"{name} exit {code}"
    for file, sha in files.items():
        yield f"{name} {file} {sha}"


def all_cli_lines():
    yield from cli_lines("cli simulate", "simulate", ROOT / "configs" / "simulate.yaml", *SCALE,
                         "--traces", "2")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "markov.yaml"
        config.write_text(json.dumps(markov_simulate_doc()))  # JSON is YAML
        yield from cli_lines("cli simulate markov", "simulate", config, *SCALE, "--traces", "2")
    for config in ("stability.yaml", "stability_markov.yaml"):
        yield from cli_lines(f"cli stability {config}", "stability", ROOT / "configs" / config)
    for config in sorted((ROOT / "configs").glob("sweep_fig*.yaml")):
        yield from cli_lines(f"cli sweep {config.name}", "sweep", config, *SCALE)
    yield from cli_error_lines()


# documents of integers where the schema reads floats, and a custom sweep
INT_SIMULATE = {"plant": {"name": "linear_scalar", "params": {"a": 1, "q": 1, "r": 2}},
                "availability": {"kind": "markov", "Q": [[0.5, 0.5], [1, 0]],
                                 "P": [[0, 1], [1, 0]], "initial_state": 1},
                "controller": {"kind": "a1", "buffer_cap": 1},
                "disturbance": {"kind": "uniform", "lo": -1, "hi": 1},
                "cost": {"q_x": 1, "r_u": 0}, "x0": [2], "seed": 4, "runs": 3, "horizon": 9}
INT_STABILITY = {"rho": 0, "alpha": 2, "availability": {"kind": "iid", "p": [0, 1]}}
CUSTOM_SWEEP = {"experiment": "custom", "sweep": "a", "grid": [0.9, 1, 1.1], "seed": 2,
                "base": {"plant": {"name": "linear_scalar", "params": {"a": 1.2, "q": 0.5}},
                         "availability": {"kind": "iid", "p": [0.2, 0.3, 0.5]},
                         "controller": {"kind": "a2", "buffer_cap": 2},
                         "disturbance": {"kind": "gaussian", "mean": 0.1, "variance": 0.2},
                         "x0_box": [-1, 2], "runs": 5}}


def describe(value) -> str:
    """Each field's name, type and value, recursively; callables are left out."""
    if dataclasses.is_dataclass(value):
        fields = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
        return f"{type(value).__name__}(" + ", ".join(
            f"{name}={describe(v)}" for name, v in fields if not callable(v)) + ")"
    if isinstance(value, np.ndarray):
        return f"ndarray[{value.dtype.str}{value.shape}]({value.tobytes().hex()})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k!r}: {describe(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}[" + ", ".join(map(describe, value)) + "]"
    return f"{type(value).__name__}({value!r})"


def parsed_sweep(path: Path):
    """The spec that `anyctrl sweep` builds from the file at `path`, caught at `run_sweep`."""
    specs = []
    with mock.patch.object(cli, "run_sweep", lambda spec: specs.append(spec) or []), \
            tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep", "--config", str(path), "--out", out, *SCALE])
    return specs[0] if code == 0 else f"exit {code}"


def parsed_lines():
    docs = {path.name: path for path in sorted((ROOT / "configs").glob("*.yaml"))}
    docs.update({"bench markov": markov_config(SEED, RUNS, HORIZON),
                 "sat_2d markov": markov_simulate_doc(), "integer simulate": INT_SIMULATE,
                 "integer stability": INT_STABILITY, "custom sweep": CUSTOM_SWEEP})
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            if isinstance(doc, dict):
                path = Path(tmp) / "doc.yaml"
                path.write_text(json.dumps(doc))  # JSON is YAML
                doc = path
            data = load_yaml(doc)
            if "experiment" in data:
                built = parsed_sweep(doc)
            elif "rho" in data:
                built = parse_certificate_inputs(data)
            else:
                built = parse_sim_config(data)
            yield f"parsed {name} {text_digest(describe(built))}"


def lines() -> list:
    """Every digest line, in the committed file's order."""
    recorder = CheckRecorder(controller.check)
    with mock.patch.object(controller, "check", recorder):
        return [*sweep_lines(recorder), *extra_lines(recorder), *schedule_lines(),
                *sample_lines(), *certificate_digest_lines(), *parsed_lines(), *all_cli_lines()]


if __name__ == "__main__":
    print("\n".join(header() + lines()))
