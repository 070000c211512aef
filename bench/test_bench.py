"""Tests of the benchmark itself, on small versions of its workloads.

    python3 -m pytest bench/test_bench.py

Run from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from tracing import Tracer, counts_of, layer_metrics, unit_of  # noqa: E402
from worker import Passes, end_to_end  # noqa: E402

SMALL = {
    "fig1_sweep": dict(runs=8, horizon=300),
    "markov_simulate": dict(runs=8, horizon=300, traces=2),
    "certify": dict(batch_size=96),
}


def small(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path, **SMALL[name])


def one_pass(wl):
    with workloads.probed(wl):
        wl.run_pass()
    return wl.outputs()


def traced_pass(wl):
    tracer = Tracer()
    tracer.install()
    try:
        wl.build()
        out = one_pass(wl)
    finally:
        tracer.uninstall()
        wl.build()
    return out, tracer.pass_stats(1.0)


def same_outputs(a, b):
    if "costs" in a:
        return (len(a["costs"]) == len(b["costs"])
                and all(workloads.bits_equal(x, y) for x, y in zip(a["costs"], b["costs"]))
                and np.array_equal(np.array(a["rows"], float), np.array(b["rows"], float),
                                   equal_nan=True))
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_traced_outputs_equal_untraced(name, tmp_path):
    wl = small(name, tmp_path)
    untraced = one_pass(wl)
    first_out, first = traced_pass(wl)
    second_out, second = traced_pass(wl)
    assert counts_of(first) == counts_of(second)
    assert sum(first["calls"].values()) > 0
    assert first["work"].get("live_mask_mismatch", 0) == 0
    assert same_outputs(first_out, untraced)
    assert same_outputs(second_out, untraced)


def test_check_counts_exact_close_and_failed_outputs(tmp_path):
    wl = small("fig1_sweep", tmp_path)
    out = one_pass(wl)
    ref = json.loads(json.dumps(wl.reference_entry(out)))
    ops = wl.ops_per_pass
    assert wl.check(out, ref) == (0, ops)
    finite = next(i for i, c in enumerate(out["costs"]) if np.isfinite(c).all())

    def changed(run, value):
        costs = [c.copy() for c in out["costs"]]
        costs[finite][run] = value
        return wl.check(dict(out, costs=costs), ref)

    first = out["costs"][finite][0]
    assert changed(0, first * (1.0 + 1e-13)) == (0, ops - 1)  # within tolerance, not bit-for-bit
    assert changed(0, first * (1.0 + 1e-6)) == (1, ops - 1)  # beyond tolerance
    assert changed(0, np.inf) == (1, ops - 1)  # a divergence flag flips

    cert = small("certify", tmp_path)
    lines = one_pass(cert)["lines"]
    ref = {"inputs": cert.inputs(), "lines": [None] * len(cert.pool)}
    for index, report in zip(cert.batch, lines):
        ref["lines"][index] = list(report)
    assert cert.check({"lines": lines}, ref) == (0, len(lines))
    key, _, value = lines[0][0].partition("=")
    lines[0][0] = f"{key}={float(value) * 1.01!r}"
    assert cert.check({"lines": lines}, ref) == (1, len(lines) - 1)


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = small("certify", tmp_path)
    passes = Passes(wl, {"inputs": None})
    passes.walls, passes.latencies = [1.0, 2.0], [[0.1, 0.2], [0.3, 0.4]]
    e2e = end_to_end(passes, wl)
    e2e["setup_s"] = {"unit": "s"}  # added by run.py
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    _, stats = traced_pass(wl)
    layer = layer_metrics([stats], traced_wall=1.0, untraced_wall=1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: unit_of(k) for k in layer}


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_calibrated_pass_scales_each_operation_by_its_speed(tmp_path):
    wl = small("fig1_sweep", tmp_path)
    passes = Passes(wl, {"inputs": None}, calibrating=True)
    passes.run(0.0)
    assert len(wl.probe.speeds) == len(wl.probe.latencies) == wl.ops_per_pass
    scaled = [t * s for t, s in zip(wl.probe.latencies, wl.probe.speeds)]
    assert passes.latencies == [scaled]
    assert 0.0 < sum(scaled) < passes.walls[0]
    assert 0.0 < wl.probe.calibration_s < passes.raw_walls[0] + wl.probe.calibration_s
