"""Each script under `scripts/` runs end to end on this tree and prints its table."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "work_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")


def test_time_episode_checks_markov_simulate_against_the_reference():
    """One round on `src/`: the worker's five end-to-end metrics, and no failed operation.

    The worker checks every pass of markov_simulate (benchmark instance 3)
    against `bench/reference/`, so a change to `src/` that moves a stored
    output fails here as well as in the benchmark.
    """
    src = str(ROOT / "src")
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "time_episode.py"), src,
                          "--rounds", "1", "--workload", "markov_simulate"],
                         check=True, capture_output=True, text=True, timeout=300).stdout
    lines = out.splitlines()
    assert len(lines) == 5 * len(METRICS) + 3, out
    for name, (title, header, row, wins, spread) in zip(METRICS, zip(*[iter(lines)] * 5)):
        assert re.fullmatch(re.escape(name) + r" \(\S+\)", title)
        assert re.fullmatch(r"tree +median  \(each round\)", header)
        found = re.fullmatch(re.escape(src) + r" +(\S+)  \((\S+)\)", row)
        assert found, row
        value, round_value = map(float, found.groups())
        assert value == round_value > 0
        assert wins == "last tree better in 0 of 1 rounds"  # one tree never beats itself
        # one round's quartiles are its value, and the same median is no shift
        found = re.fullmatch(r"first tree quartiles (\S+) (\S+); last tree median better "
                             r"by more than their spread: no", spread)
        assert found, spread
        assert [float(q) for q in found.groups()] == [float(f"{value:.4g}")] * 2
    title, header, row = lines[-3:]
    assert title == "operations checked against bench/reference/"
    assert re.fullmatch(r"tree +failed  attempted", header)
    found = re.fullmatch(re.escape(src) + r" +(\d+) +(\d+)", row)
    assert found, row
    failed, attempted = map(int, found.groups())
    assert failed == 0 and attempted > 0 and attempted % 3 == 0  # 3 operations a pass


def test_src_lines_gives_every_line_of_each_module_one_kind():
    """`scripts/src_lines.py`: per module, code + docstring + comment + blank is its line count."""
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py")],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["module", "code", "docstring", "comment", "blank", "lines"]
    counts = {name: list(map(int, numbers)) for name, *numbers in map(str.split, rows)}
    package = ROOT / "src" / "anyctrl"
    assert list(counts) == sorted(path.name for path in package.glob("*.py")) + ["total"]
    for name, (*kinds, lines) in counts.items():
        assert sum(kinds) == lines
        if name != "total":
            assert lines == len((package / name).read_text().splitlines())
    assert [sum(column) for column in zip(*list(counts.values())[:-1])] == counts["total"]
    assert counts["total"][1] > 0 and counts["total"][2] > 0  # docstrings and comments found
