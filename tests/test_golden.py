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
        "531ba6990a46c99427ccc39b274d8296ed436f36cff9159ae04aaa2fee0dd1de",
    "uniform-1":
        "ac470d2146d0767b58fff9e8e8e7ef0d22fa0c38b613db5d7fc725073635b9c8",
    "uniform-2":
        "1d222eac5ff01b142bc87687dc042df75d210a3ea3860114ac2c26b308c5216e",
    "uniform-0-drop-black-edge":
        "1899a9a4b6cff2d48c84c4dc4ba8f644509d2a9c6985d0edca42d176c3e873d9",
    "target-bridge-3":
        "0855e8d7a94c06546fee333ab2e3d662f07059ae1504ab9bb5f3196eb46cbf5f",
}

# final state after a churn-mid-sized uniform trace: n0=500, 750 events,
# alpha 1/2, seed 0; its final clouds reach 80 members, so the
# membership index, splices, merges grown from their largest cloud and
# borrowed bridges are exercised at scale
SNAPSHOT_GOLDEN = "8fabe732108f2733003f532d7cc3bfe323fae43260fd498034ef4bb4eeb023a5"

# every report's violation_detail lines, which the CSV digests omit, for
# a faulted n0=400 uniform run (300 events, drop-black-edge, alpha 1/2,
# a checkpoint every 50): 1071 lines, 568 of them from the density
# checks, each naming a subset's members and its missing edges
DETAIL_GOLDEN = "c08354c9e26b3df34c7053a0f95473295e55d3067e6787de822d869b4ca5ab87"

# the CSV and every violation_detail line of a faulted n0=500 uniform run
# (750 events, drop-black-edge, alpha 1/2, a checkpoint every 50): a
# missing baseline edge at every checkpoint after t=0 makes each draw its
# random density subsets, with no node over its degree budget
DRAW_GOLDEN = "3e5384cad5bab4374d1e9c34754c407341f493f0d696d09cae72a2c36d7e0446"


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


def test_density_draw_run_matches_golden_digest():
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 500, 750, 2)
    cfg = cli.RunConfig(kappa=6, alpha_target=Fraction(1, 2), seed=2, checkpoint_every=50)
    _, reports = cli.run_trace(trace, cfg, fault="drop-black-edge")
    assert not any(r.edge_preservation_ok for r in reports[1:])
    assert not any(r.degree_violations for r in reports)
    text = "\n".join([csv_digest(reports)]
                     + [line for r in reports for line in r.violation_detail])
    assert hashlib.sha256(text.encode()).hexdigest() == DRAW_GOLDEN
