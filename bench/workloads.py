"""The benchmark's three workloads: seeded inputs, one timed pass, checked outputs.

fig1_sweep       `experiments.run_sweep` over the stock fig1 protocol: cubic
                 plant, execution-time availability on tau = 0.1..0.5, and the
                 baseline/a1/a2 controllers, 200 runs x 1000 steps
                 (15 `monte_carlo` calls a pass).
markov_simulate  `anyctrl simulate --traces K` through `cli.main` on a YAML
                 config this module writes: sat_2d under a 3-state Markov
                 processor with Lambda = 4 and the a2 controller.
certify          `CertificateInputs` (which validates the model) plus
                 `stability.evaluate` over a mixed batch of availability models.

Inputs come from the `--seed` argument. The two simulation workloads use
input instance `seed % INSTANCES`, because their reference outputs are
stored per instance. certify draws a seeded half of every category of a
fixed certificate pool, whose reference lines are stored once.

An operation is one `monte_carlo` call, one trace episode or one
`evaluate`; `attempted` and `failed` count them.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import hashlib
import io
import json
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np
import yaml

from anyctrl import availability, cli, experiments, stability

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

INSTANCES = 16
RTOL = 1e-9  # relative tolerance on every float output; divergence flags match exactly

FIG1_RUNS, FIG1_HORIZON = 200, 1000
MARKOV_RUNS, MARKOV_HORIZON, MARKOV_TRACES = 100, 1000, 2
MARKOV_SALT = 20130807
MARKOV_CONCENTRATION = 5000.0  # Dirichlet concentration of the seeded chain perturbations
CERT_POOL_SEED = 1308_1747
CERT_SALT = 4242


# --- output comparison -------------------------------------------------------

def bits_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def costs_close(costs, ref) -> bool:
    """Divergence flags (non-finite costs) equal exactly, finite costs within RTOL."""
    c, r = np.asarray(costs, dtype=float), np.asarray(ref, dtype=float)
    if c.shape != r.shape:
        return False
    finite = np.isfinite(r)
    if not np.array_equal(np.isfinite(c), finite):
        return False
    return bool(np.all(np.abs(c[finite] - r[finite]) <= RTOL * np.abs(r[finite])))


def values_close(a, b) -> bool:
    """Elementwise within RTOL; equal infinities and NaN positions count as equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.isclose(a, b, rtol=RTOL, atol=0.0, equal_nan=True)))


def lines_close(lines, ref) -> bool:
    """`key=value` report lines: keys and words equal, numbers within RTOL."""
    if len(lines) != len(ref):
        return False
    for line, want in zip(lines, ref):
        key, _, value = line.partition("=")
        want_key, _, want_value = want.partition("=")
        if key != want_key:
            return False
        if value == want_value:
            continue
        try:
            if not values_close(float(value), float(want_value)):
                return False
        except ValueError:
            return False
    return True


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(name: str):
    path = REFERENCE_DIR / name
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(name: str, data) -> Path:
    path = REFERENCE_DIR / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(data, sort_keys=True).encode())
    return path


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def probed(workload):
    """Within the block, the workload's operation functions are wrapped with its OpProbe."""
    patches = Patches()
    for owner, attr in workload.probe_points():
        patches.set(owner, attr, workload.probe.wrap(getattr(owner, attr)))
    try:
        yield
    finally:
        patches.undo()


# --- machine speed -----------------------------------------------------------------

# The shared machine's speed swings by up to 2x within seconds and drifts over
# minutes. A fixed kernel of the same kind as the workloads' code (a Python loop
# over small numpy operations, plus a vector of 200 lanes), timed next to the
# work, measures that speed; times are then reported in reference seconds:
# measured seconds x CAL_REF_S / the kernel's time. The kernel is part of the
# benchmark, so a change to the package moves reference seconds as it moves
# measured ones.
CAL_REF_S = 0.028  # the kernel's time at the reference speed
CAL_STEPS = 5000
_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX, _CAL_VECTOR = _CAL_RNG.random((3, 3)), _CAL_RNG.random(3)
_CAL_LANES = _CAL_RNG.uniform(-1.0, 1.0, 200)


def calibration_seconds() -> float:
    """Time of one run of the fixed calibration kernel."""
    start = perf_counter()
    x, lanes, acc = _CAL_VECTOR.copy(), _CAL_LANES.copy(), 0.0
    for i in range(CAL_STEPS):
        x = _CAL_MATRIX @ x
        x /= x.sum()
        if i % 8 == 0:
            lanes = np.tanh(0.9 * lanes + x[0])
        acc += float(x[0]) * 0.5 + i % 7
    return perf_counter() - start


class OpProbe:
    """Times and keeps the result of each call to one wrapped function.

    With `calibrating` set, the calibration kernel also runs before and after
    every call, and `speeds` gets CAL_REF_S over the mean of those two times
    for each call; `calibration_s` adds up the time the kernel took. A call
    that starts right after the previous one ended reuses that call's
    closing kernel time instead of running the kernel again.
    """

    ADJACENT_S = 0.005  # calls this close share a kernel run

    def __init__(self):
        self.latencies = []
        self.results = []
        self.speeds = []
        self.calibrating = False
        self.calibration_s = 0.0
        self._last = (float("-inf"), 0.0)  # (when, kernel seconds) of the last closing run

    def clear(self):
        self.latencies.clear()
        self.results.clear()
        self.speeds.clear()
        self.calibration_s = 0.0
        self._last = (float("-inf"), 0.0)

    def _calibrate(self) -> float:
        seconds = calibration_seconds()
        self.calibration_s += seconds
        return seconds

    def _opening(self) -> float:
        when, seconds = self._last
        return seconds if perf_counter() - when < self.ADJACENT_S else self._calibrate()

    def wrap(self, fn):
        def probed(*args, **kwargs):
            before = self._opening() if self.calibrating else None
            start = perf_counter()
            out = fn(*args, **kwargs)
            self.latencies.append(perf_counter() - start)
            if before is not None:
                after = self._calibrate()
                self._last = (perf_counter(), after)
                self.speeds.append(2.0 * CAL_REF_S / (before + after))
            self.results.append(out)
            return out
        return probed


# --- fig1_sweep ----------------------------------------------------------------

class Fig1Sweep:
    name = "fig1_sweep"

    def __init__(self, seed: int, workdir: Path, runs: int = FIG1_RUNS, horizon: int = FIG1_HORIZON):
        self.instance = seed % INSTANCES
        self.runs, self.horizon = runs, horizon
        self.build()
        self.ops_per_pass = 3 * len(self.spec.grid)
        self.items_per_pass = self.ops_per_pass * runs * horizon  # lane-steps
        self.item_name = "lane_steps"
        self.probe = OpProbe()

    def build(self):
        """(Re)build the sweep spec; called again after tracing wraps the plant builder."""
        self.spec = experiments.builtin_experiment(
            "fig1", seed=self.instance, runs=self.runs, horizon=self.horizon)

    def probe_points(self):
        return [(experiments, "monte_carlo")]

    def run_pass(self):
        self.probe.clear()
        self._rows = experiments.run_sweep(self.spec)

    def outputs(self):
        return {
            "costs": [s.per_run_costs.copy() for s in self.probe.results],
            "rows": [[row[k] for k in experiments.SWEEP_COLUMNS] for row in self._rows],
        }

    def inputs(self):
        return {"experiment": "fig1", "seed": self.instance, "runs": self.runs,
                "horizon": self.horizon, "grid": list(self.spec.grid)}

    def reference_name(self):
        return f"fig1_sweep/instance_{self.instance:02d}.json.gz"

    def reference_entry(self, out):
        return {"inputs": self.inputs(), "costs": [c.tolist() for c in out["costs"]],
                "rows": out["rows"]}

    def check(self, out, ref):
        """(failed, exact) operation counts; one operation per monte_carlo call."""
        if ref["inputs"] != self.inputs() or len(out["costs"]) != self.ops_per_pass:
            return self.ops_per_pass, 0
        failed = exact = 0
        per_point = 3
        for i, (costs, want) in enumerate(zip(out["costs"], ref["costs"])):
            row_ok = values_close(out["rows"][i // per_point], ref["rows"][i // per_point])
            if bits_equal(costs, want) and row_ok:
                exact += 1
            elif not (costs_close(costs, want) and row_ok):
                failed += 1
        return failed, exact


# --- markov_simulate -------------------------------------------------------------

Q_BASE = np.array([[0.85, 0.10, 0.05],
                   [0.15, 0.70, 0.15],
                   [0.05, 0.15, 0.80]])
P_BASE = np.array([[0.05, 0.10, 0.15, 0.30, 0.40],   # generous processor
                   [0.30, 0.30, 0.20, 0.10, 0.10],
                   [0.70, 0.15, 0.08, 0.05, 0.02]])  # starving processor


def markov_config(instance: int, runs: int, horizon: int) -> dict:
    """The simulate config for one instance: seeded perturbations of a sticky 3-state chain.

    The perturbations are small (MARKOV_CONCENTRATION), so the chain's mean
    availability, which sets the controller's work per step, stays within
    about 1% from instance to instance.
    """
    rng = np.random.default_rng([MARKOV_SALT, instance])
    q = [rng.dirichlet(MARKOV_CONCENTRATION * row).tolist() for row in Q_BASE]
    p = [rng.dirichlet(MARKOV_CONCENTRATION * row).tolist() for row in P_BASE]
    return {
        "plant": {"name": "sat_2d"},
        "availability": {"kind": "markov", "Q": q, "P": p},
        "controller": {"kind": "a2"},
        "disturbance": {"kind": "uniform", "lo": -0.05, "hi": 0.05},
        "horizon": horizon,
        "runs": runs,
        "seed": instance,
        "x0_box": [-2.0, 2.0],
    }


def trace_summary(data: bytes) -> dict:
    """Row count, header, integer columns exactly, float columns as sums."""
    header, *body = csv.reader(io.StringIO(data.decode()))
    # under numpy 2 the file holds repr(np.float64), e.g. np.float64(0.5); read either form
    table = np.array([[float(cell.removeprefix("np.float64(").removesuffix(")")) for cell in row]
                      for row in body]).reshape(len(body), len(header))
    ints = ("k", "N", "lambda")
    floats = [c for c in header if c not in ints]
    col = {name: table[:, i] for i, name in enumerate(header)}
    return {
        "rows": int(table.shape[0]),
        "header": header,
        "int_sha256": sha256(np.stack([col[c] for c in ints]).astype(np.int64).tobytes()),
        "sums": [float(np.sum(col[c])) for c in floats],
        "abs_sums": [float(np.sum(np.abs(col[c]))) for c in floats],
    }


def read_runs_csv(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))[1:]
    return [float(r[1]) for r in rows], [int(r[2]) for r in rows]


def read_summary(data: bytes) -> dict:
    return dict(line.split("=", 1) for line in data.decode().splitlines())


class MarkovSimulate:
    name = "markov_simulate"

    def __init__(self, seed: int, workdir: Path, runs: int = MARKOV_RUNS,
                 horizon: int = MARKOV_HORIZON, traces: int = MARKOV_TRACES):
        self.instance = seed % INSTANCES
        self.runs, self.horizon, self.traces = runs, horizon, traces
        self.config_text = yaml.safe_dump(markov_config(self.instance, runs, horizon), sort_keys=True)
        config_path = workdir / "simulate.yaml"
        config_path.write_text(self.config_text)
        self.out_dir = workdir / "out"
        self.argv = ["simulate", "--config", str(config_path), "--out", str(self.out_dir),
                     "--traces", str(traces)]
        self.ops_per_pass = 1 + traces
        self.items_per_pass = (runs + traces) * horizon  # lane-steps, Monte-Carlo plus traces
        self.item_name = "lane_steps"
        self.probe = OpProbe()

    def build(self):
        pass  # the program builds its objects from the YAML inside every pass

    def probe_points(self):
        return [(cli, "monte_carlo"), (cli, "run_episode")]

    def run_pass(self):
        self.probe.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"anyctrl simulate exited with status {code}")

    def outputs(self):
        out = self.out_dir
        return {"runs_csv": (out / "runs.csv").read_bytes(),
                "summary": (out / "summary.txt").read_bytes(),
                "traces": [(out / f"trace_{r}.csv").read_bytes() for r in range(self.traces)]}

    def inputs(self):
        return {"config": self.config_text, "traces": self.traces}

    def reference_name(self):
        return f"markov_simulate/instance_{self.instance:02d}.json.gz"

    def reference_entry(self, out):
        costs, diverged = read_runs_csv(out["runs_csv"])
        return {
            "inputs": self.inputs(),
            "runs_sha256": sha256(out["runs_csv"]),
            "summary_sha256": sha256(out["summary"]),
            "costs": costs,
            "diverged": diverged,
            "summary": read_summary(out["summary"]),
            "traces": [dict(trace_summary(t), sha256=sha256(t)) for t in out["traces"]],
        }

    def check(self, out, ref):
        """(failed, exact): the monte_carlo call via runs.csv/summary.txt, then each trace file."""
        if ref["inputs"] != self.inputs():
            return self.ops_per_pass, 0
        failed = exact = 0
        if sha256(out["runs_csv"]) == ref["runs_sha256"] and sha256(out["summary"]) == ref["summary_sha256"]:
            exact += 1
        else:
            costs, diverged = read_runs_csv(out["runs_csv"])
            summary = read_summary(out["summary"])
            ok = (diverged == ref["diverged"] and costs_close(costs, ref["costs"])
                  and summary.keys() == ref["summary"].keys())
            for key in ("diverged", "runs", "horizon", "seed"):
                ok = ok and summary.get(key) == ref["summary"][key]
            for key in ("mean", "stderr", "ci95_lo", "ci95_hi"):
                ok = ok and values_close(float(summary.get(key, "nan")), float(ref["summary"][key]))
            failed += not ok
        for data, want in zip(out["traces"], ref["traces"]):
            if sha256(data) == want["sha256"]:
                exact += 1
                continue
            got = trace_summary(data)
            ok = all(got[k] == want[k] for k in ("rows", "header", "int_sha256"))
            ok = ok and all(abs(s - w) <= RTOL * a for s, w, a in
                            zip(got["sums"], want["sums"], want["abs_sums"]))
            failed += not ok
        failed += max(0, len(ref["traces"]) - len(out["traces"]))
        return failed, exact


# --- certify ---------------------------------------------------------------------

# pool categories and sizes; a batch takes a seeded half of each
CERT_CATEGORIES = (("exec_time", 512), ("iid_random", 1024),
                   ("markov_dense", 1536), ("markov_ring", 1024))


def _rho_alpha(rng):
    return float(rng.uniform(0.0, 0.98)), float(1.0 + rng.exponential(0.8))


def _cond_pmfs(rng, states, lam, degenerate_ok):
    """Per-state pmfs over {0..lam}; idle mass pushed up at random so guards trip."""
    rows = []
    for _ in range(states):
        row = rng.dirichlet(np.ones(lam + 1))
        push = rng.uniform(0.0, 0.9)
        row = (1.0 - push) * row
        row[0] += push
        rows.append(row)
    if degenerate_ok and rng.random() < 0.15:
        rows[int(rng.integers(states))] = np.eye(lam + 1)[0]
    return np.array(rows)


def certificate_pool():
    """The fixed pool of (category, rho, alpha, availability model) certificate inputs."""
    rng = np.random.default_rng(CERT_POOL_SEED)
    pool = []
    for category, count in CERT_CATEGORIES:
        for i in range(count):
            if category == "exec_time":
                model = availability.from_execution_time((i % 63 + 1) / 64.0)
            elif category == "iid_random":
                pmf = _cond_pmfs(rng, 1, int(rng.integers(1, 13)), False)[0]
                model = availability.IidAvailability(pmf)
            else:
                lam = int(rng.integers(1, 7))
                if category == "markov_dense":
                    states = int(rng.integers(2, 17))
                    q = rng.dirichlet(np.full(states, rng.choice([0.3, 1.0, 5.0])), size=states)
                else:
                    # a ring with small self-loops (aperiodic) and rare skips: slow power iteration
                    states = int(rng.integers(4, 17))
                    q = np.zeros((states, states))
                    for s in range(states):
                        stay = rng.uniform(0.005, 0.05)
                        skip = rng.uniform(0.0, 0.02) if rng.random() < 0.5 else 0.0
                        q[s, (s + 2) % states] = skip
                        q[s, s] = stay
                        q[s, (s + 1) % states] = 1.0 - stay - skip
                model = availability.MarkovAvailability(q, _cond_pmfs(rng, states, lam, True))
            rho, alpha = _rho_alpha(rng)
            pool.append((category, rho, alpha, model))
    return pool


def pool_digest(pool) -> str:
    h = hashlib.sha256()
    for category, rho, alpha, model in pool:
        h.update(f"{category}|{rho!r}|{alpha!r}|".encode())
        arrays = ([model.pmf] if isinstance(model, availability.IidAvailability)
                  else [model.transition, model.cond_pmfs])
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def certify_batch(seed: int):
    """Pool indices for one seed: a seeded half of every category, in seeded order."""
    rng = np.random.default_rng([CERT_SALT, seed])
    picks, offset = [], 0
    for _, count in CERT_CATEGORIES:
        picks.append(offset + rng.choice(count, count // 2, replace=False))
        offset += count
    return rng.permutation(np.concatenate(picks)).tolist()


class Certify:
    name = "certify"

    def __init__(self, seed: int, workdir: Path, batch_size: Optional[int] = None):
        self.pool = certificate_pool()
        self.batch = certify_batch(seed)[:batch_size]
        self.items = [self.pool[i][1:] for i in self.batch]
        self.ops_per_pass = self.items_per_pass = len(self.batch)
        self.item_name = "certificates"
        self.probe = OpProbe()

    def build(self):
        pass

    def probe_points(self):
        return []

    def run_pass(self):
        """One operation per input: validate through CertificateInputs, evaluate, format."""
        self.probe.clear()
        latencies, results = self.probe.latencies, self.probe.results
        for rho, alpha, model in self.items:
            start = perf_counter()
            try:
                lines = stability.evaluate(stability.CertificateInputs(rho, alpha, model)).lines()
            except Exception as exc:  # a raising operation is a failed one
                lines = exc
            latencies.append(perf_counter() - start)
            results.append(lines)

    def outputs(self):
        return {"lines": list(self.probe.results)}

    def inputs(self):
        return {"pool_sha256": pool_digest(self.pool), "pool_size": len(self.pool)}

    def reference_name(self):
        return "certify/pool.json.gz"

    def check(self, out, ref):
        if ref["inputs"] != self.inputs():
            return self.ops_per_pass, 0
        failed = exact = 0
        for index, lines in zip(self.batch, out["lines"]):
            want = ref["lines"][index]
            if lines == want:
                exact += 1
            elif isinstance(lines, Exception) or not lines_close(lines, want):
                failed += 1
        return failed, exact


WORKLOADS = {w.name: w for w in (Fig1Sweep, MarkovSimulate, Certify)}
