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
        "959bf2d5697ab4409180861a4cdbaa83f40061e8c711ed87e17266d9dfdc5236",
    "uniform-1":
        "47b3290ef90b1c66a5d69307f7fb1ff606f23a470318cd9b10a2ed5747c531e3",
    "uniform-2":
        "b8cdba75e5281a9ef12b485809c00970cadc97b89d1d18a35f8382deb6e13e2b",
    "uniform-0-drop-black-edge":
        "1d22b9a53cae911a4e704e465dd2eb4e846b40db83a7c96bdaeaa18564892b99",
    "target-bridge-3":
        "acc0d38286ba57af87e5695cb9fc650c240e84caf0808fc009b144228f737f5e",
}

# final state after a churn-mid-sized uniform trace: n0=500, 750 events,
# alpha 1/2, seed 0; its final clouds reach 80 members, so the
# membership index, splices, merges grown from their largest cloud and
# borrowed bridges are exercised at scale
SNAPSHOT_GOLDEN = "7063cb622db59e53c74f83746dcea6ebea20651f3de9013dae06dbd078f78170"

# every report's violation_detail lines, which the CSV digests omit, for
# a faulted n0=400 uniform run (300 events, drop-black-edge, alpha 1/2,
# a checkpoint every 50): 1089 lines, 565 of them from the density
# checks, each naming a subset's members and its missing edges
DETAIL_GOLDEN = "4299006524b44ec46b18715c060144d5d1a69bef580bb4d7084abd184fc5aef6"

# the CSV and every violation_detail line of a faulted n0=500 uniform run
# (750 events, drop-black-edge, alpha 1/2, a checkpoint every 50): a
# missing baseline edge at every checkpoint after t=0 makes each draw its
# random density subsets, with no node over its degree budget
DRAW_GOLDEN = "10a67b8c428020b3c659750ebb468d78dbe5ae66663353068f46ef3f0e264dca"


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
