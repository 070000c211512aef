"""Spans and counters recorded around calls into the package's modules.

Everything here patches module attributes from the outside; nothing in
the package changes. Spans mark module boundaries (run_sweep ->
monte_carlo -> presample, run_episode -> controller_step ->
tentative_sequence, evaluate -> upsilon -> spectral_radius, ...). Each span
has an id, name, start, end and parent and is kept in memory until the
run writes them all at once. Plant callables, per-step availability draws
and disturbance draws are far too frequent for spans: they are counters
with accumulated time. The time of a span or counter is subtracted from
the self time of the span that encloses it.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from collections import Counter
from time import perf_counter

import numpy as np

from anyctrl import (availability, cli, config, controller, experiments, plants,
                     simulation, stability)
from workloads import Patches

# which module (layer) each span and counter belongs to
LAYER_OF = {
    "presample": "availability", "validate": "availability", "sample": "availability",
    "f": "plants", "policy": "plants", "lyapunov": "plants", "disturbance": "plants",
    "controller_step": "controller", "tentative_sequence": "controller",
    "monte_carlo": "simulation", "run_episode": "simulation",
    "write_runs_csv": "simulation", "write_trace_csv": "simulation",
    "run_sweep": "experiments",
    "evaluate": "stability", "upsilon": "stability", "spectral_radius": "stability",
    "load_yaml": "config", "parse_sim_config": "config",
    "cli_main": "cli",
}
SPANS = tuple(name for name in LAYER_OF
              if name not in ("sample", "f", "policy", "lyapunov", "disturbance"))
# spans whose self time, or whose count, no named per-layer metric already gives
SELF_TIMES = ("controller_step", "tentative_sequence", "run_episode", "evaluate", "upsilon",
              "write_runs_csv", "write_trace_csv", "load_yaml", "parse_sim_config")
SPAN_COUNTS = ("run_sweep", "cli_main", "run_episode", "write_runs_csv", "write_trace_csv",
               "load_yaml", "parse_sim_config")
LAYERS = ("availability", "plants", "controller", "simulation", "experiments",
          "stability", "config", "cli")


def _rows(x) -> int:
    """Leading (batch) size of a state array: 1 for a single state."""
    x = np.asarray(x)
    return x.size // x.shape[-1] if x.ndim > 1 and x.shape[-1] else 1


class Tracer:
    """In-memory spans plus per-pass counters, timings and work counts."""

    def __init__(self):
        self.spans = []  # (id, pass, name, start, end, parent)
        self._stack = []  # open spans: [id, seconds spent in nested spans and counters]
        self._next_id = 0
        self.pass_index = 0
        self._patches = Patches()
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.seconds = Counter()  # inclusive time per span or counter name
        self.self_seconds = Counter()  # span time minus nested spans and counters
        self.rows = Counter()
        self.work = Counter()
        self._mc = None  # state of the open monte_carlo call

    # --- recording primitives ---

    def _charge_parent(self, seconds):
        if self._stack:
            self._stack[-1][1] += seconds

    def _bookkeep(self, hook, *args):
        """Run a bookkeeping hook; its time is tracing overhead, not the parent's work."""
        start = perf_counter()
        hook(*args)
        spent = perf_counter() - start
        self.seconds["tracing"] += spent
        self._charge_parent(spent)

    def span(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                tracer._bookkeep(before, args)
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((frame[0], tracer.pass_index, name, start, end, parent))
                tracer.calls[name] += 1
                tracer.seconds[name] += end - start
                tracer.self_seconds[name] += end - start - frame[1]
                tracer._charge_parent(end - start)
            if after is not None:
                tracer._bookkeep(after, out, args)
            return out
        return traced

    def counter(self, name, fn, rows=False, after=None):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            spent = perf_counter() - start
            tracer.calls[name] += 1
            tracer.seconds[name] += spent
            tracer._charge_parent(spent)
            if rows:
                tracer.rows[name] += _rows(args[0])
            if after is not None:
                tracer._bookkeep(after, out, args)
            return out
        return counted

    # --- work-count hooks ---

    def _mc_begin(self, args):
        cfg = args[0]
        self._mc = {"kind": cfg.controller.kind, "cap": cfg.controller.buffer_cap,
                    "alive": np.ones(cfg.runs, dtype=bool), "live": 0}

    def _mc_end(self, summary, args):
        cfg = args[0]
        self.work["lane_steps"] += cfg.runs * cfg.horizon
        self.work["live_lane_steps"] += self._mc["live"]
        if not np.array_equal(self._mc["alive"], np.isfinite(summary.per_run_costs)):
            self.work["live_mask_mismatch"] += 1
        self._mc = None

    def _presampled(self, n, args):
        self.work["draws"] += n.size
        mc = self._mc
        if mc is not None and mc["kind"] != "baseline":
            capped = n if mc["cap"] is None else np.minimum(n, mc["cap"])
            self.work["rollout_useful_rows"] += int(capped.sum())

    def _sampled(self, n, args):
        self.work["draws"] += 1

    def _policy(self, u, args):
        mc = self._mc
        if mc is not None and mc["kind"] != "baseline":
            self.work["rollout_rows"] += _rows(args[0])

    def _stepped(self, x_next, args):
        """Mirror the engine's divergence guard on its once-per-step plant call.

        The batch engine feeds that call a column of its presampled disturbance
        array (a view); its nominal rollouts pass freshly allocated zeros.
        """
        mc, w = self._mc, args[2]
        if mc is None or not isinstance(w, np.ndarray) or w.flags.owndata:
            return
        alive = mc["alive"]
        mc["live"] += int(alive.sum())
        with np.errstate(over="ignore", invalid="ignore"):
            dead = (~np.all(np.isfinite(x_next), axis=-1)
                    | (np.linalg.norm(x_next, axis=-1) > simulation.OVERFLOW_GUARD))
        mc["alive"] = alive & ~dead

    def _episode(self, trace, args):
        self.work["trace_steps"] += trace.steps

    def _csv_written(self, out, args):
        self.work["csv_bytes"] += os.path.getsize(args[1])

    def _evaluated(self, report, args):
        if any("no verdict" in note for note in report.notes):
            self.work["no_verdict"] += 1

    def wrap_plant(self, plant):
        return dataclasses.replace(
            plant,
            f=self.counter("f", plant.f, rows=True, after=self._stepped),
            policy=self.counter("policy", plant.policy, rows=True, after=self._policy),
            lyapunov=self.counter("lyapunov", plant.lyapunov, rows=True),
        )

    # --- installation ---

    def install(self):
        """Patch every module boundary; plants built after this are wrapped too."""
        p, span = self._patches.set, self.span
        for module in (experiments, config):
            builder = module.make_builtin_plant
            p(module, "make_builtin_plant",
              functools.wraps(builder)(lambda *a, _b=builder, **k: self.wrap_plant(_b(*a, **k))))
        p(experiments, "run_sweep", span("run_sweep", experiments.run_sweep))
        for module in (experiments, cli):
            p(module, "monte_carlo", span("monte_carlo", module.monte_carlo,
                                          before=self._mc_begin, after=self._mc_end))
        for cls in (availability.IidSampler, availability.MarkovSampler):
            p(cls, "presample", span("presample", cls.presample, after=self._presampled))
            p(cls, "sample", self.counter("sample", cls.sample, after=self._sampled))
        p(availability, "validate", span("validate", availability.validate))
        p(plants.DisturbanceModel, "draw", self.counter("disturbance", plants.DisturbanceModel.draw))
        p(simulation, "controller_step", span("controller_step", simulation.controller_step))
        p(controller, "tentative_sequence", span("tentative_sequence", controller.tentative_sequence))
        p(stability, "evaluate", span("evaluate", stability.evaluate, after=self._evaluated))
        p(stability, "upsilon", span("upsilon", stability.upsilon))
        p(stability, "spectral_radius", span("spectral_radius", stability.spectral_radius))
        p(cli, "main", span("cli_main", cli.main))
        p(cli, "run_episode", span("run_episode", cli.run_episode, after=self._episode))
        for name in ("load_yaml", "parse_sim_config"):
            p(cli, name, span(name, getattr(cli, name)))
        for name in ("write_runs_csv", "write_trace_csv"):
            p(cli, name, span(name, getattr(cli, name), after=self._csv_written))

    def uninstall(self):
        self._patches.undo()

    # --- per-pass results ---

    def pass_stats(self, wall: float) -> dict:
        """Everything one traced pass of `wall` seconds measured; resets the per-pass accumulators."""
        stats = {"wall": wall, "calls": dict(self.calls), "seconds": dict(self.seconds),
                 "self_seconds": dict(self.self_seconds), "rows": dict(self.rows),
                 "work": dict(self.work)}
        self.reset()
        self.pass_index += 1
        return stats


def counts_of(stats: dict) -> dict:
    """The work counts of a pass, which must repeat exactly from pass to pass and run to run."""
    return {"calls": stats["calls"], "rows": stats["rows"], "work": stats["work"]}


def layer_metrics(passes: list, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians over passes.

    Shares are per pass, of that pass's wall time; the tracing overhead is
    `traced_wall - untraced_wall`.
    """
    first = passes[0]
    calls, rows, work = first["calls"], first["rows"], first["work"]

    def sec(key, name):
        return float(np.median([p[key].get(name, 0.0) for p in passes]))

    def seconds(*names):
        return sum(sec("seconds", n) for n in names)

    def self_s(*names):
        return sum(sec("self_seconds", n) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_share(layer, p):
        own = sum(p["self_seconds" if name in SPANS else "seconds"].get(name, 0.0)
                  for name, of in LAYER_OF.items() if of == layer)
        return own / p["wall"]

    plant_calls = sum(calls.get(n, 0) for n in ("f", "policy", "lyapunov"))
    plant_rows = sum(rows.get(n, 0) for n in ("f", "policy", "lyapunov"))
    lane_steps = work.get("lane_steps", 0)
    m = {
        "availability.presample_s": seconds("presample"),
        "availability.presample_calls": calls.get("presample", 0),
        "availability.draws": work.get("draws", 0),
        "availability.sample_calls": calls.get("sample", 0),
        "availability.sample_s": seconds("sample"),
        "availability.validate_s": seconds("validate"),
        "availability.validate_calls": calls.get("validate", 0),
    }
    for name in ("f", "policy", "lyapunov"):
        m[f"plants.{name}_calls"] = calls.get(name, 0)
        m[f"plants.{name}_rows"] = rows.get(name, 0)
        m[f"plants.{name}_s"] = seconds(name)
    m.update({
        "plants.disturbance_calls": calls.get("disturbance", 0),
        "plants.disturbance_s": seconds("disturbance"),
        "plants.rows_per_call": ratio(plant_rows, plant_calls),
        "controller.step_calls": calls.get("controller_step", 0),
        "controller.step_s": seconds("controller_step"),
        "controller.rollout_calls": calls.get("tentative_sequence", 0),
        "controller.rollout_s": seconds("tentative_sequence"),
        "simulation.monte_carlo_s": seconds("monte_carlo"),
        "simulation.engine_self_s": self_s("monte_carlo"),
        "simulation.lane_steps": lane_steps,
        "simulation.ns_per_lane_step": 1e9 * ratio(seconds("monte_carlo"), lane_steps),
        "simulation.rollout_rows": work.get("rollout_rows", 0),
        "simulation.rollout_useful_ratio": ratio(work.get("rollout_useful_rows", 0),
                                                 work.get("rollout_rows", 0)),
        "simulation.live_lane_step_ratio": ratio(work.get("live_lane_steps", 0), lane_steps),
        "simulation.episode_s": seconds("run_episode"),
        "simulation.trace_steps": work.get("trace_steps", 0),
        "simulation.csv_s": seconds("write_runs_csv", "write_trace_csv"),
        "simulation.csv_bytes": work.get("csv_bytes", 0),
        "experiments.sweep_self_s": self_s("run_sweep"),
        "experiments.mc_calls": calls.get("monte_carlo", 0),
        "stability.evaluate_s": seconds("evaluate"),
        "stability.evaluate_calls": calls.get("evaluate", 0),
        "stability.spectral_radius_s": seconds("spectral_radius"),
        "stability.spectral_radius_calls": calls.get("spectral_radius", 0),
        "stability.upsilon_s": seconds("upsilon"),
        "stability.upsilon_calls": calls.get("upsilon", 0),
        "stability.no_verdict": work.get("no_verdict", 0),
        "config.parse_s": seconds("load_yaml", "parse_sim_config"),
        "cli.self_s": self_s("cli_main"),
    })
    for layer in LAYERS:  # share of each pass's wall time spent in the layer itself
        m[f"{layer}.share"] = float(np.median([layer_share(layer, p) for p in passes]))
    for name in SELF_TIMES:
        m[f"self.{name}_s"] = self_s(name)
    for name in SPAN_COUNTS:
        m[f"spans.{name}"] = calls.get(name, 0)
    m.update({
        "trace.spans": sum(calls.get(n, 0) for n in SPANS),
        "trace.bookkeeping_s": seconds("tracing"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_frac": ratio(traced_wall - untraced_wall, untraced_wall),
    })
    return m


PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_rows": "count", "draws": "count",
                   "lane_steps": "count", "trace_steps": "count", "csv_bytes": "B",
                   "mc_calls": "count", "no_verdict": "count", "ns_per_lane_step": "ns",
                   "rows_per_call": "rows/call"}


def unit_of(metric: str) -> str:
    leaf = metric.split(".", 1)[1]
    if metric.startswith("spans.") or metric == "trace.spans":
        return "count"
    for suffix, unit in PER_LAYER_UNITS.items():
        if leaf.endswith(suffix):
            return unit
    return "ratio"
