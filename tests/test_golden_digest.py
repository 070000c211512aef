"""Every digest of `digest.lines()` equals the committed golden file, bit for bit."""

from pathlib import Path

import pytest

import digest

GOLDEN = Path(__file__).parent / "golden" / "cell_digest.txt"
REGENERATE = "PYTHONPATH=src python tests/digest.py > tests/golden/cell_digest.txt"


def label(line: str) -> str:
    return line.rsplit(" ", 1)[0]


def test_digests_equal_the_golden_file():
    recorded = GOLDEN.read_text().splitlines()
    env = [line for line in recorded if line.startswith("#")]
    if env != digest.header():
        pytest.fail("the golden digests were recorded under\n" + "\n".join(env)
                    + "\nbut this environment is\n" + "\n".join(digest.header())
                    + "\nrun the suite under the recorded one; moving the record to this one "
                    + f"is a commit of its own: {REGENERATE}")
    want = [line for line in recorded if not line.startswith("#")]
    got = digest.lines()
    if got != want:
        labels = {label(line) for line in set(want) ^ set(got)}
        changed = [label(line) for line in want + got if label(line) in labels]
        pytest.fail(f"{len(labels)} digests differ from {GOLDEN.name}:\n"
                    + "\n".join(dict.fromkeys(changed))
                    + f"\na change that moves bits on purpose regenerates it: {REGENERATE}")
