"""Replay every pinned regression trace through ``xhealsim run``.

Each ``*.jsonl`` in ``tests/regressions/`` is a trace that once crashed
the simulator or misreported a defect.  ``EXPECTED_EXIT`` holds the exit
code each must give now; a trace without an entry fails the test, so a
new trace comes with its expected exit.
"""
from pathlib import Path

from xhealsim import cli

REGRESSIONS = Path(__file__).resolve().parent / "regressions"

EXPECTED_EXIT = {
    # a header whose params is the number 5 crashed decode_trace with a
    # TypeError traceback and exit 1, the code of a violated invariant
    "header-params-not-an-object.jsonl": 2,
    # initial node 2**63 was decoded and crashed the first checkpoint
    # with an OverflowError from graph.Csr.of, exit 1
    "huge-node-id.jsonl": 2,
    # an initial self loop exited 2 with the bare message "(3,3)"
    "initial-self-loop.jsonl": 2,
    # event 3 inserts node 5 below initial node 9: the healer rejects it
    # at event 3, after healing events 1 and 2 (validate_trace leaves
    # the rising-id rule to the healer)
    "insert-id-below-an-initial-id.jsonl": 2,
    # event 2 wires node 4 to node 0 twice: exited 2 at event 2, after
    # healing event 1; validate_trace now rejects it before event 1
    "insert-repeats-a-neighbour.jsonl": 2,
    # `gen --strategy uniform --n0 50 --steps 300 --seed 906`: exited 1
    # with "graph density 5 exceeds ... = 19/4" from a whole-graph
    # density bound that the cloud budget does not imply, since it left
    # out the alive nodes' baseline edges to dead nodes; every node kept
    # its budget and degree bound
    "whole-graph-density-906.jsonl": 0,
}


def test_regression_traces_exit_as_pinned(tmp_path, capsys):
    traces = sorted(REGRESSIONS.glob("*.jsonl"))
    assert [path.name for path in traces] == sorted(EXPECTED_EXIT)
    for path in traces:
        code = cli.main(["run", "--trace", str(path), "-o", str(tmp_path / "report.csv")])
        err = capsys.readouterr().err
        assert code == EXPECTED_EXIT[path.name], (path.name, err)
        assert "Traceback" not in err, path.name
