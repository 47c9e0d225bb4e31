"""Smoke test of ``tools/ladder.py``, the seed ladder, run as a script."""
import json
import subprocess
import sys
from pathlib import Path

from test_golden import MEMBERSHIP_GOLDEN

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
KEYS = ["seed", "exit", "branch_all_black", "branch_primary", "branch_secondary",
        "clouds_built", "merges", "bridges_borrowed", "free_node_misses",
        "budget_errors", "coherence_errors", "membership", "design"]


def ladder(*args, n0="30", steps="40"):
    done = subprocess.run([sys.executable, str(LADDER), "--n0", n0, "--steps", steps, *args],
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_ladder_prints_one_line_per_seed_with_its_exit():
    (line,) = ladder("--alpha", "1", "--seeds", "0")
    assert list(line) == KEYS and line["seed"] == 0 and line["exit"] == 0
    assert line["budget_errors"] == line["coherence_errors"] == 0
    # alpha 5/2 is more than a 4-regular cloud of 7 members certifies
    lines = ladder("--alpha", "5/2", "--kappa", "4", "--seeds", "0-1")
    assert [list(line) for line in lines] == [KEYS[:2] + ["event", "size"] + KEYS[2:]] * 2
    assert [(line["seed"], line["exit"], line["event"], line["size"]) for line in lines] == [
        (0, 3, 2, 7), (1, 3, 28, 7)]


def test_ladder_membership_is_the_golden_membership_digest():
    # the golden uniform-s runs replay the same n0=50, 300-event traces
    lines = ladder("--alpha", "1", "--seeds", "0-2", n0="50", steps="300")
    assert [line["membership"] for line in lines] == [
        MEMBERSHIP_GOLDEN[f"uniform-{seed}"] for seed in range(3)]
