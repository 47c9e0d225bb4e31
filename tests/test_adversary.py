import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from xhealsim.graph import MAX_NODE_ID
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


@pytest.mark.parametrize("frac", [-1.0, float("inf"), float("nan"), 1e308])
def test_initial_graph_refuses_an_extra_edge_quota_it_cannot_count(frac):
    # a quota that is negative, or not finite times n0, counts no edges;
    # 1e308 is finite alone but not times n0 = 2
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(InvalidParams, match="extra_edge_frac"):
        initial_graph(2, rng, frac)
    assert rng.getstate() == state  # refused before any draw


def test_initial_graph_keeps_every_quota_it_took():
    # a zero quota of either sign, and a finite huge one on a single node,
    # whose loop has no pair to try
    assert initial_graph(30, random.Random(2), -0.0) == initial_graph(30, random.Random(2), 0)
    assert initial_graph(1, random.Random(2), 1e308) == ([0], [])


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


HEADER = '{"v":1,"kappa":6,"seed":0,"strategy":"uniform","params":{}}'
INITIAL = '{"nodes":[0,1,2,3],"edges":[[0,1],[1,2],[2,3]]}'
DEL_0 = '{"t":1,"op":"del","node":0}'

# Event lines after the header and the initial line, and the line number
# and message of the ParseError they raise, as json.loads worded them
# when every line went through it.
DECODE_ERRORS = {
    "blank middle line": ([DEL_0, "", DEL_0], 4, "bad JSON (Expecting value)"),
    "truncated line": (['{"t":1,"op":"del","no'], 3,
                       "bad JSON (Unterminated string starting at)"),
    "two objects on one line": ([DEL_0 + DEL_0], 3, "bad JSON (Extra data)"),
    "trailing text": ([DEL_0 + " x"], 3, "bad JSON (Extra data)"),
    "non-object line": (["[1,2]"], 3, "expected a JSON object"),
    "number line": (["7"], 3, "expected a JSON object"),
    # joined as [l1,l2,l3] these three lines are exactly three objects,
    # so no count of decoded objects could tell them from three events
    "first of three joined lines": (['{"a":1},{"b":2}', '{"c":[{"d":1}', '{"e":2}]}'], 3,
                                    "bad JSON (Extra data)"),
    "second of three joined lines": ([DEL_0, '{"c":[{"d":1}', '{"e":2}]}'], 4,
                                     "bad JSON (Expecting ',' delimiter)"),
    "third of three joined lines": ([DEL_0, DEL_0, '{"e":2}]}'], 5, "bad JSON (Extra data)"),
    "string id": (['{"t":1,"op":"del","node":"0"}'], 3,
                  "node '0' is not a non-negative integer"),
    "negative id": (['{"t":1,"op":"del","node":-1}'], 3,
                    "node -1 is not a non-negative integer"),
    "missing id": (['{"t":1,"op":"del"}'], 3, "node None is not a non-negative integer"),
    "unknown op": (['{"t":1,"op":"mv","node":0}'], 3, "unknown op 'mv'"),
    "string nbrs": (['{"t":1,"op":"ins","node":4,"nbrs":"01"}'], 3,
                    "nbrs must be a list of non-negative integers"),
    "mixed nbrs": (['{"t":1,"op":"ins","node":4,"nbrs":[0,"1"]}'], 3,
                   "nbrs must be a list of non-negative integers"),
    "huge id": ([f'{{"t":1,"op":"del","node":{MAX_NODE_ID + 1}}}'], 3,
                f"node {MAX_NODE_ID + 1} must be at most {MAX_NODE_ID}"),
    "huge nbr": ([f'{{"t":1,"op":"ins","node":4,"nbrs":[0,{MAX_NODE_ID + 1}]}}'], 3,
                 f"nbrs must be at most {MAX_NODE_ID}"),
}


@pytest.mark.parametrize("case", sorted(DECODE_ERRORS))
def test_decode_errors_name_the_line(case):
    events, line_no, message = DECODE_ERRORS[case]
    with pytest.raises(ParseError) as err:
        decode_trace("\n".join([HEADER, INITIAL, *events]) + "\n")
    assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {message}")


node_id = st.integers(0, MAX_NODE_ID)
events = st.one_of(st.builds(Event, st.just("del"), node_id, st.just(())),
                   st.builds(Event, st.just("ins"), node_id,
                             st.lists(node_id, max_size=4).map(tuple)))
traces = st.builds(
    Trace, kappa=st.integers(), seed=st.integers(), strategy=st.text(max_size=8),
    params=st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
    initial_nodes=st.lists(node_id, max_size=6),
    initial_edges=st.lists(st.tuples(node_id, node_id).map(sorted).map(tuple), max_size=6),
    events=st.lists(events, max_size=12))


@settings(max_examples=80, deadline=None)
@given(trace=traces, pads=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                   min_size=12, max_size=12))
def test_decode_inverts_encode_with_padded_event_lines(trace, pads):
    header, initial, *lines = encode_trace(trace).splitlines()
    padded = [" " * left + line + " " * right for line, (left, right) in zip(lines, pads)]
    assert decode_trace("\n".join([header, initial, *padded]) + "\n") == trace


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


def test_target_bridge_prefers_bridge_holder():
    h = _healer_with([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    h.handle_event(Event("del", 0))          # primary cloud over 1,2,3
    h.handle_event(Event("del", 1))          # branch 2: secondary gets a bridge
    assert h.registry.bridges
    ev = next_event(Strategy("target-bridge"), h, random.Random(0))
    assert ev.op == "del"
    assert ev.node == min(h.registry.bridges)


def test_empty_network_raises_for_pure_deleters():
    h = _healer_with([0], [])
    h.handle_event(Event("del", 0))
    for deleter in (Strategy("delete-only"), Strategy("delete-only", insert_fraction=0.4)):
        with pytest.raises(EmptyNetwork):
            next_event(deleter, h, random.Random(0))
    ev = next_event(Strategy("uniform", insert_fraction=0.5), h, random.Random(0))
    assert ev.is_insert and ev.neighbors == ()
