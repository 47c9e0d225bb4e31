"""Checks on the benchmark itself: it does the shipped driver's work,
its failure count has teeth, and its statistics follow their rules."""
from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from xhealsim import adversary, cli, engine

import replay
from spans import Span, Target, Tracer, covered_length, self_times

ACCEPTANCE = replay.WORKLOADS["acceptance"]


def _replay(seed: int, tracer: Tracer | None = None, fault: str | None = None):
    text = replay.make_trace_text(ACCEPTANCE, seed)
    return replay.replay_trace(ACCEPTANCE, text, seed, tracer or Tracer(), fault=fault)


def test_library_loop_matches_cli_run_trace():
    result = _replay(3)
    trace = adversary.decode_trace(replay.make_trace_text(ACCEPTANCE, 3))
    _, reports = cli.run_trace(trace, replay.run_config(ACCEPTANCE, 3))
    assert result.csv == cli.render_report_csv(reports)
    assert result.csv.count("\n") == 1 + 31
    assert not replay.reference_problems(ACCEPTANCE, result)


def test_clean_run_has_no_failures_and_consistent_outputs():
    result = _replay(3)
    assert result.crash is None and not result.problems and not result.violations
    assert result.failed == 0
    assert result.attempted == 300 + 31 + 1


def test_skip_heal_fault_raises_failed_share():
    result = _replay(3, fault="skip-heal")
    assert result.crash is None
    assert 0 < result.failed <= result.attempted


def test_crash_counts_unreached_operations_as_failed():
    trace = adversary.decode_trace(replay.make_trace_text(ACCEPTANCE, 3))
    # validate_trace accepts a decreasing insert id; handle_event raises at t=2
    trace.events = [adversary.Event("ins", 1000), adversary.Event("ins", 999)]
    trace.events += [adversary.Event("ins", 1001 + i) for i in range(298)]
    text = adversary.encode_trace(trace)
    result = replay.replay_trace(ACCEPTANCE, text, 3, Tracer())
    assert result.crash is not None and "increasing" in result.crash
    # the t=0 checkpoint and event 1 completed; everything else failed
    assert result.failed == result.attempted - 2


def test_tracing_keeps_the_simulation_and_restores_attributes():
    original = vars(engine.Healer)["handle_event"]
    plain = _replay(5)
    tracer = Tracer()
    tracer.install(replay.trace_targets())
    try:
        traced = _replay(5, tracer)
    finally:
        tracer.uninstall()
    assert vars(engine.Healer)["handle_event"] is original
    assert isinstance(vars(engine.Healer)["from_initial"], classmethod)
    assert traced.digest_part() == plain.digest_part()
    names = {s.name for s in tracer.spans}
    assert {"engine.delete", "metrics.evaluate", "expander.build_topology",
            "metrics.bfs_distances", "cli.snapshot_state"} <= names
    builds = [s for s in tracer.spans if s.name == "expander.build_topology"]
    assert all(tracer.spans[s.parent].name == "engine.delete" for s in builds)
    assert all(s.request[0] == 5 for s in tracer.spans)

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    blocks = [replay.Block([traced], [[traced.setup_s]])]
    layers = replay.per_layer(tracer, blocks, ACCEPTANCE) | replay.overhead(blocks, blocks)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (name, unit) for name, (_, unit) in layers.items()}
    gated, _ = replay.end_to_end(blocks)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (name, unit) for name, (_, unit) in gated.items()}


def test_without_gc_restores_collection_after_a_raise():
    def fails():
        assert not gc.isenabled()
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        replay.without_gc(fails)
    assert gc.isenabled()


def test_span_sizes_and_nesting():
    tracer = Tracer()

    class Box:
        @staticmethod
        def inner(xs):
            return len(xs)

        @staticmethod
        def outer(xs):
            return Box.inner(xs) + Box.inner(xs)

    tracer.install([Target(Box, "inner", "inner", size=lambda args, r: r),
                    Target(Box, "outer", "outer")])
    try:
        assert Box.outer([1, 2, 3]) == 6
    finally:
        tracer.uninstall()
    outer, first, second = tracer.spans
    assert outer.parent == -1 and first.parent == second.parent == 0
    assert first.size == second.size == 3


def test_self_time_subtracts_union_of_children():
    assert covered_length(0, 10, [(1, 3), (2, 5), (8, 12)]) == pytest.approx(6)
    assert covered_length(0, 10, []) == 0
    spans = [Span("p", 0.0, 10.0, -1, None), Span("a", 1.0, 3.0, 0, None),
             Span("b", 2.0, 5.0, 0, None), Span("c", 8.0, 12.0, 0, None),
             Span("d", 2.5, 3.5, 2, None)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 4.0, 1.0])


@pytest.mark.parametrize("q, supported, unsupported", [(0.99, 1000, 999),
                                                       (0.95, 200, 199)])
def test_tail_is_null_below_ten_samples_beyond(q, supported, unsupported):
    values = [float(i) for i in range(supported)]
    assert replay.tail(values, q) == values[round(q * supported) - 1]
    assert replay.tail(values[:unsupported], q) is None
    assert replay.tail([], q) is None
