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
    # initial node 2**63 was decoded and crashed the first checkpoint
    # with an OverflowError from graph.Csr.of, exit 1
    "huge-node-id.jsonl": 2,
    # an initial self loop exited 2 with the bare message "(3,3)"
    "initial-self-loop.jsonl": 2,
}


def test_regression_traces_exit_as_pinned(tmp_path, capsys):
    traces = sorted(REGRESSIONS.glob("*.jsonl"))
    assert [path.name for path in traces] == sorted(EXPECTED_EXIT)
    for path in traces:
        code = cli.main(["run", "--trace", str(path), "-o", str(tmp_path / "report.csv")])
        err = capsys.readouterr().err
        assert code == EXPECTED_EXIT[path.name], (path.name, err)
        assert "Traceback" not in err, path.name
