"""Golden digests of the CSV reports and of one final snapshot, pinned
across refactors.

The determinism tests compare two runs of the same code; these compare
today's output with constants recorded before the engine's internals
last changed, so a refactor that shifts one RNG draw, one counter or one
verdict fails here.  ``lambda2_live`` is the one floating-point column
and may move in its last digits with the BLAS build, so it is dropped
before hashing.  The snapshot holds no float: a cloud records its exact
expansion, or ``alpha_target`` when the spectral gate proved that bound,
so floating-point noise in the gate changes the snapshot only when it
flips a draw's verdict.
"""
import csv
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from xhealsim import cli
from xhealsim.adversary import Strategy, gen_trace
from xhealsim.engine import Healer

GOLDEN = {
    "uniform-0":
        "c3dbc3e35a5255435d261d08d49dbf42afb3dd466cb0ec6b39fe6470fd2796a6",
    "uniform-1":
        "1fac73828e2b9241e2f677804920e7be831be151684996cd07d99517e02dc0ea",
    "uniform-2":
        "f2ee64129600a4a98bd7590d1399828601f358efb2197c2cba264d66fa1c6015",
    "uniform-0-drop-black-edge":
        "14a5a48f7f6a1603505ac04a85534e4485cb6f8183977c16bae98736c0137304",
    "target-bridge-3":
        "e1b30ae4d2fcda3d4036b5ae2209bb104180d121384d6118b05fc767336a2163",
}

# final state after a churn-mid-sized uniform trace: n0=500, 750 events,
# alpha 1/2, seed 0; clouds reach 145 members, so membership scans and
# borrowed bridges are exercised at scale
SNAPSHOT_GOLDEN = "1d512538e9aaf46dbf525a7e0806d3602cc2d3e95e78985444a80c4aef746ab3"

# every report's violation_detail lines, which the CSV digests omit, for
# a faulted n0=400 uniform run (300 events, drop-black-edge, alpha 1/2,
# a checkpoint every 50): 1079 lines, 560 of them from the lower density
# check, each naming a subset's members and its missing edges
DETAIL_GOLDEN = "84c1a47749758265dbfc20e9a6b034e1aea23e923580b516682dbe068b5d226a"

# the CSV and every violation_detail line of an unfaulted n0=500 uniform
# run (750 events, alpha 1/2, a checkpoint every 50) whose checkpoints at
# t=450, 500 and 550 find a node over its degree budget, so the random
# density subsets are drawn there
DEGREE_GOLDEN = "a544594cd2cc14d76159bbbb3d88abd0be2e534b800b5ecb3621702587fdcc84"


def csv_digest(reports) -> str:
    rows = list(csv.reader(io.StringIO(cli.render_report_csv(reports))))
    drop = rows[0].index("lambda2_live")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        row[:drop] + row[drop + 1:] for row in rows)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def run_case(name: str):
    if name.startswith("target-bridge"):
        strategy = Strategy("target-bridge", insert_fraction=0.5)
        _, reports, _ = cli.run_adaptive(strategy, 40, 200, cli.RunConfig(seed=3))
        return reports
    seed = int(name.split("-")[1])
    fault = "drop-black-edge" if name.endswith("drop-black-edge") else None
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 300, seed)
    _, reports = cli.run_trace(trace, cli.RunConfig(seed=seed), fault=fault)
    return reports


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_csv_matches_golden_digest(name):
    assert csv_digest(run_case(name)) == GOLDEN[name]


def test_final_snapshot_matches_golden_digest():
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 500, 750, 0)
    cfg = cli.RunConfig(alpha_target=Fraction(1, 2), seed=0)
    healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges,
                                 cfg.expander(), random.Random("0/engine"))
    for event in trace.events:
        healer.handle_event(event)
    text = json.dumps(cli.snapshot_state(healer, 0), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SNAPSHOT_GOLDEN


def test_violation_detail_matches_golden_digest():
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 400, 300, 0)
    cfg = cli.RunConfig(alpha_target=Fraction(1, 2), seed=0, checkpoint_every=50)
    _, reports = cli.run_trace(trace, cfg, fault="drop-black-edge")
    lines = "\n".join(line for r in reports for line in r.violation_detail)
    assert hashlib.sha256(lines.encode()).hexdigest() == DETAIL_GOLDEN


def test_degree_violating_run_matches_golden_digest():
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 500, 750, 2)
    cfg = cli.RunConfig(kappa=6, alpha_target=Fraction(1, 2), seed=2, checkpoint_every=50)
    _, reports = cli.run_trace(trace, cfg)
    assert [r.t for r in reports if r.degree_violations] == [450, 500, 550]
    text = "\n".join([csv_digest(reports)]
                     + [line for r in reports for line in r.violation_detail])
    assert hashlib.sha256(text.encode()).hexdigest() == DEGREE_GOLDEN
