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

The membership digests hash, after every event of an unfaulted trace,
which clouds exist and who bridges what, and nothing of their edges or
ids.  Cloud membership does not depend on the edges drawn: a repair is
keyed by the clouds the dying node leaves, read from the registry, and
decides membership before it designs any topology.  So a change that
moves only draws re-pins the report and snapshot digests but must
leave these.  Nor does membership read edge colors: black neighbours and
free nodes come from the baseline, so drop-black-edge, which strips a
drawn black edge from the graph after each delete, changes the graph
only, and its runs of the uniform traces are held to the clean digests.
An adaptive run's events can follow the draws:
``target-max-degree`` deletes the node of largest live degree, where an
edge two clouds share counts once, and ``target-bridge`` falls back to
that rule whenever no bridge holder is alive.  So ``target-max-degree`` stays out, and
target-bridge-3 is hashed on the trace its run realised when the digest
was pinned (``tests/golden/target-bridge-3.jsonl``), replayed.
"""
import csv
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from xhealsim import cli
from xhealsim.adversary import Strategy, decode_trace, gen_trace
from xhealsim.engine import Healer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from ladder import Membership  # noqa: E402

GOLDEN = {
    "uniform-0":
        "d12ef4ec4dd58dc1a852978e5141212b92f37117358bb9db71b6d985f91e6eb5",
    "uniform-1":
        "1ee6c4c37b80e7f5607aa56939044ac56a7b47bdf5a7c6a556d18aaa191cb660",
    "uniform-2":
        "58355c4d386bfc284a5eee98d9b5a13be65bcfc3a9fbeafe2066161c550e559a",
    "uniform-0-drop-black-edge":
        "0dad16a7b75b028a7c975b2484dddf24c5820d1705b77a3b47416a86be7a21cd",
    "target-bridge-3":
        "4923f1cb30f27730974022ba9361830d1a1f768d1c69f2c576ac52d23c7bf188",
}

# final state after a churn-mid-sized uniform trace: n0=500, 750 events,
# alpha 1/2, seed 0; its final clouds reach 80 members, so the
# membership index, splices, merges grown from their largest cloud and
# borrowed bridges are exercised at scale
SNAPSHOT_GOLDEN = "20acafe6fdbf8036882945377c49e2f17769e0c53aa24858be42e3b1f8477ca4"

# every report's violation_detail lines, which the CSV digests omit, for
# a faulted n0=400 uniform run (300 events, drop-black-edge, alpha 1/2,
# a checkpoint every 50): 1094 lines, 569 of them from the density
# checks, each naming a subset's members and its missing edges
DETAIL_GOLDEN = "23a208ef889ae0574cca8c418d15e5ed45d42f9e653148a1a0e90991a7b0d45c"

# the CSV and every violation_detail line of a faulted n0=500 uniform run
# (750 events, drop-black-edge, alpha 1/2, a checkpoint every 50): a
# missing baseline edge at every checkpoint after t=0 makes each draw its
# random density subsets, with no node over its degree budget
DRAW_GOLDEN = "e1a33abd3a6f9ab0f220284feece35506053e1098e4a6a65a02ea06d8228a907"


# sha256 over every event of the membership after it (``ladder.Membership``)
MEMBERSHIP_GOLDEN = {
    "uniform-0":
        "70e8c0db43397a337391af5702b0a4c2bf4073a2034e911d676ea15fccabc403",
    "uniform-1":
        "562f1b8ce9ba9f87bce859fb2d709d67d105cf12470238668c5f9e6da927f29c",
    "uniform-2":
        "352e3f51a736d9637e9e85f7370dee3c6931fcbef5b0cae7f964a5b39bee4ff6",
    "target-bridge-3":
        "59d99710a02d486a76f843061a2d1083f3be2504b0882b05a572199f7fb22b22",
    "snapshot-trace":
        "0849baca21781fd1aa409cc1b636e29f24644be814f7063e2909d2a1f9832209",
}
TRACES = Path(__file__).resolve().parent / "golden"


def replay_membership(healer: Healer, events) -> str:
    """Drive *healer* through *events* and hash its membership after
    each, as the seed ladder does."""
    membership = Membership()
    for event in events:
        healer.handle_event(event)
        membership.update(healer.registry)
    return membership.hexdigest()


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


def membership_case(name: str, fault: str | None = None) -> str:
    if name.startswith("target-bridge"):
        trace = decode_trace((TRACES / f"{name}.jsonl").read_text(encoding="utf-8"))
        seed = trace.seed
    else:
        seed = int(name.split("-")[1])
        trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 300, seed)
    healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges,
                                 cli.RunConfig(seed=seed).expander(),
                                 random.Random(f"{seed}/engine"), fault=fault)
    return replay_membership(healer, trace.events)


@cache
def snapshot_trace_run() -> tuple[str, str]:
    """The final snapshot's digest and the membership digest of the
    churn-mid-sized trace, from one replay."""
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 500, 750, 0)
    cfg = cli.RunConfig(alpha_target=Fraction(1, 2), seed=0)
    healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges,
                                 cfg.expander(), random.Random("0/engine"))
    membership = replay_membership(healer, trace.events)
    text = json.dumps(cli.snapshot_state(healer, 0), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest(), membership


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_csv_matches_golden_digest(name):
    assert csv_digest(run_case(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_GOLDEN.keys() - {"snapshot-trace"}))
def test_membership_matches_golden_digest(name):
    assert membership_case(name) == MEMBERSHIP_GOLDEN[name]


@pytest.mark.parametrize("name", ["uniform-0", "uniform-1", "uniform-2"])
def test_dropped_black_edges_leave_the_clean_membership(name):
    # the fault strips a black edge from the graph after each delete; a
    # repair reads black neighbours and free nodes from the baseline, so
    # every event's clouds and bridges are the clean run's
    assert membership_case(name, fault="drop-black-edge") == MEMBERSHIP_GOLDEN[name]


def test_final_snapshot_matches_golden_digest():
    assert snapshot_trace_run()[0] == SNAPSHOT_GOLDEN


def test_snapshot_trace_membership_matches_golden_digest():
    assert snapshot_trace_run()[1] == MEMBERSHIP_GOLDEN["snapshot-trace"]


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
