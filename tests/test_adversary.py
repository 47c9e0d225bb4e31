import random

import pytest

from xhealsim.adversary import (
    EmptyNetwork,
    Event,
    InvalidParams,
    ParseError,
    Strategy,
    Trace,
    VersionMismatch,
    decode_trace,
    encode_trace,
    gen_trace,
    initial_graph,
    next_event,
    validate_trace,
)
from xhealsim.engine import Healer
from xhealsim.expander import ExpanderConfig
from helpers import graph_from_edges, is_connected


def test_strategy_validation():
    with pytest.raises(InvalidParams):
        Strategy("nope")
    with pytest.raises(InvalidParams):
        Strategy("uniform", insert_fraction=1.5)
    with pytest.raises(InvalidParams):
        Strategy("uniform", insert_degree=0)


def test_initial_graph_connected_and_simple():
    for seed in range(5):
        nodes, edges = initial_graph(30, random.Random(seed))
        assert nodes == list(range(30))
        assert len(set(edges)) == len(edges)
        assert all(u < v for u, v in edges)
        assert is_connected(graph_from_edges(nodes, edges))


def test_gen_trace_no_events():
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 5, 0, seed=1)
    assert trace.events == []
    assert len(trace.initial_nodes) == 5


def test_gen_trace_deterministic():
    s = Strategy("uniform", insert_fraction=0.4)
    a = encode_trace(gen_trace(s, 20, 50, seed=9))
    b = encode_trace(gen_trace(s, 20, 50, seed=9))
    assert a == b


def test_delete_only_empties_network():
    trace = gen_trace(Strategy("delete-only"), 3, 3, seed=0)
    healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges,
                                 ExpanderConfig(), random.Random(0))
    for ev in trace.events:
        healer.handle_event(ev)
    assert healer.shadow.alive == set()
    assert healer.graph.node_set == set()


def test_delete_only_rejects_overlong():
    with pytest.raises(InvalidParams):
        gen_trace(Strategy("delete-only"), 3, 4, seed=0)


def test_adaptive_strategies_not_materializable():
    with pytest.raises(InvalidParams):
        gen_trace(Strategy("target-bridge"), 10, 5, seed=0)


def test_trace_round_trip():
    trace = gen_trace(Strategy("uniform", insert_fraction=0.3), 12, 40, seed=4)
    again = decode_trace(encode_trace(trace))
    assert again.initial_nodes == trace.initial_nodes
    assert again.initial_edges == trace.initial_edges
    assert again.events == trace.events
    assert again.kappa == trace.kappa and again.seed == trace.seed


def test_decode_truncated_line_reports_line_number():
    text = encode_trace(gen_trace(Strategy("uniform", insert_fraction=0.3), 5, 5, seed=2))
    lines = text.splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    with pytest.raises(ParseError) as err:
        decode_trace("\n".join(lines))
    assert err.value.line_no == len(lines)


def test_decode_version_mismatch():
    text = encode_trace(gen_trace(Strategy("uniform", insert_fraction=0.3), 5, 2, seed=2))
    bad = text.replace('{"v":1,', '{"v":99,', 1)
    with pytest.raises(VersionMismatch):
        decode_trace(bad)


def test_decode_unknown_op_rejected():
    trace = gen_trace(Strategy("uniform", insert_fraction=0.0), 5, 1, seed=2)
    text = encode_trace(trace).replace('"op":"del"', '"op":"zap"')
    with pytest.raises(ParseError):
        decode_trace(text)


def test_validate_trace_catches_bad_events():
    trace = Trace(6, 0, "uniform", {}, [0, 1], [(0, 1)],
                  [Event("ins", 0, ())])
    with pytest.raises(InvalidParams):
        validate_trace(trace)
    trace2 = Trace(6, 0, "uniform", {}, [0, 1], [(0, 1)],
                   [Event("del", 1), Event("ins", 2, (1,))])
    with pytest.raises(InvalidParams):
        validate_trace(trace2)


def _healer_with(nodes, edges, seed=0):
    return Healer.from_initial(nodes, edges, ExpanderConfig(), random.Random(seed))


def test_next_event_deterministic():
    strat = Strategy("uniform", insert_fraction=0.5)
    h1 = _healer_with([0, 1, 2], [(0, 1), (1, 2)])
    h2 = _healer_with([0, 1, 2], [(0, 1), (1, 2)])
    assert (next_event(strat, h1, random.Random(3))
            == next_event(strat, h2, random.Random(3)))


def test_target_max_degree_picks_star_center():
    h = _healer_with([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    ev = next_event(Strategy("target-max-degree"), h, random.Random(0))
    assert ev == Event("del", 0)


def test_target_bridge_prefers_duty_holder():
    h = _healer_with([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    h.handle_event(Event("del", 0))          # primary cloud over 1,2,3
    h.handle_event(Event("del", 1))          # branch 2: secondary gets a bridge
    assert h.registry.duty
    ev = next_event(Strategy("target-bridge"), h, random.Random(0))
    assert ev.op == "del"
    assert ev.node == sorted(h.registry.duty)[0]


def test_empty_network_raises_for_pure_deleters():
    h = _healer_with([0], [])
    h.handle_event(Event("del", 0))
    for deleter in (Strategy("delete-only"), Strategy("delete-only", insert_fraction=0.4)):
        with pytest.raises(EmptyNetwork):
            next_event(deleter, h, random.Random(0))
    ev = next_event(Strategy("uniform", insert_fraction=0.5), h, random.Random(0))
    assert ev.is_insert and ev.neighbors == ()
