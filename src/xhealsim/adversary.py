"""Adversarial event generation, trace encoding, and replay input.

A trace is a line-delimited JSON file: a header line, an initial-graph
line, then one event per line.  Non-adaptive strategies (uniform,
delete-only) can be materialized into trace files up front; the
targeting strategies inspect live simulator state and therefore run
online against the engine, one event at a time.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .graph import MAX_NODE_ID, EdgeKey, edge_key

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Healer

TRACE_VERSION = 1

STRATEGY_NAMES = ("uniform", "delete-only", "target-max-degree", "target-bridge")
ADAPTIVE_STRATEGIES = ("target-max-degree", "target-bridge")


class AdversaryError(Exception):
    pass


class EmptyNetwork(AdversaryError):
    pass


class InvalidParams(AdversaryError):
    pass


class ParseError(AdversaryError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class VersionMismatch(AdversaryError):
    pass


class Event(NamedTuple):
    """One adversarial move.  A named tuple: decoding builds one per
    trace line, and a tuple builds in about half the time of a frozen
    dataclass."""

    op: str  # "ins" | "del"
    node: int
    neighbors: tuple[int, ...] = ()

    @property
    def is_insert(self) -> bool:
        return self.op == "ins"


# Builds an Event from its three fields in C; the named tuple's own
# constructor is a Python function, a third of a decoded line's cost.
_event = functools.partial(tuple.__new__, Event)


@dataclass
class Trace:
    kappa: int
    seed: int
    strategy: str
    params: dict
    initial_nodes: list[int]
    initial_edges: list[EdgeKey]
    events: list[Event] = field(default_factory=list)


@dataclass(frozen=True)
class Strategy:
    """Event-picking policy.

    ``insert_fraction`` is the per-step probability of inserting a node
    (wired to up to ``insert_degree`` uniformly chosen alive nodes); the
    remaining mass goes to the strategy's deletion rule.
    """

    name: str
    insert_fraction: float = 0.0
    insert_degree: int = 4

    def __post_init__(self) -> None:
        if self.name not in STRATEGY_NAMES:
            raise InvalidParams(f"unknown strategy {self.name!r}")
        if not 0.0 <= self.insert_fraction <= 1.0:
            raise InvalidParams("insert_fraction must be in [0, 1]")
        if self.insert_degree < 1:
            raise InvalidParams("insert_degree must be >= 1")

    @property
    def adaptive(self) -> bool:
        return self.name in ADAPTIVE_STRATEGIES


def _insert_event(alive: list[int], next_id: int, degree: int, rng: random.Random) -> Event:
    k = min(degree, len(alive))
    nbrs = tuple(sorted(rng.sample(alive, k))) if k else ()
    return Event("ins", next_id, nbrs)


def _oblivious_event(strategy: Strategy, alive: list[int], next_id: int,
                     rng: random.Random) -> Event:
    """The uniform and delete-only rule over a sorted, non-empty alive
    list: insert with probability ``insert_fraction`` (never for
    delete-only, which draws no coin), else delete a uniform node."""
    if strategy.name != "delete-only" and rng.random() < strategy.insert_fraction:
        return _insert_event(alive, next_id, strategy.insert_degree, rng)
    return Event("del", rng.choice(alive))


def next_event(strategy: Strategy, state: "Healer", rng: random.Random) -> Event:
    """Pick the next adversarial move against live simulator state.

    Deterministic given the rng stream, so adaptive runs replay exactly.
    """
    alive = sorted(state.shadow.alive)
    next_id = 0 if state.shadow.max_node is None else state.shadow.max_node + 1
    if not alive:
        if strategy.insert_fraction > 0.0 and strategy.name != "delete-only":
            return Event("ins", next_id, ())
        raise EmptyNetwork("no alive node to delete")
    if not strategy.adaptive:
        return _oblivious_event(strategy, alive, next_id, rng)
    if rng.random() < strategy.insert_fraction:
        return _insert_event(alive, next_id, strategy.insert_degree, rng)
    if strategy.name == "target-bridge":
        holders = sorted(set(state.registry.duty) & state.shadow.alive)
        if holders:
            return Event("del", holders[0])
        # fall through to the max-degree rule
    max_deg = max(state.graph.degree(v) for v in alive)
    target = min(v for v in alive if state.graph.degree(v) == max_deg)
    return Event("del", target)


def initial_graph(n0: int, rng: random.Random, extra_edge_frac: float = 0.5
                  ) -> tuple[list[int], list[EdgeKey]]:
    """Seeded connected starting graph: a random recursive tree plus a
    quota of extra random edges."""
    if n0 < 1:
        raise InvalidParams("n0 must be >= 1")
    nodes = list(range(n0))
    edges: set[EdgeKey] = set()
    for v in range(1, n0):
        edges.add(edge_key(v, rng.randrange(v)))
    want_extra = int(n0 * extra_edge_frac)
    attempts = 0
    added = 0
    max_pairs = n0 * (n0 - 1) // 2
    while added < want_extra and len(edges) < max_pairs and attempts < 20 * (want_extra + 1):
        attempts += 1
        u = rng.randrange(n0)
        v = rng.randrange(n0)
        if u == v or edge_key(u, v) in edges:
            continue
        edges.add(edge_key(u, v))
        added += 1
    return nodes, sorted(edges)


def check_run_length(strategy: Strategy, n0: int, steps: int) -> None:
    """Reject a run shape the strategy cannot play out, before event 1."""
    if n0 < 1 or steps < 0:
        raise InvalidParams("need n0 >= 1 and steps >= 0")
    if (strategy.name == "delete-only" or strategy.insert_fraction == 0) and steps > n0:
        raise InvalidParams(f"{strategy.name} cannot delete more nodes than exist "
                            "without inserting")


def gen_trace(strategy: Strategy, n0: int, steps: int, seed: int,
              kappa: int = 6, extra_edge_frac: float = 0.5) -> Trace:
    """Materialize a non-adaptive trace, reproducible from its inputs."""
    if strategy.adaptive:
        raise InvalidParams(f"{strategy.name} inspects live state; run it online")
    check_run_length(strategy, n0, steps)
    rng = random.Random(f"{seed}/trace")
    nodes, edges = initial_graph(n0, rng, extra_edge_frac)
    alive = set(nodes)
    next_id = n0
    events: list[Event] = []
    for _ in range(steps):
        if not alive:
            ev = Event("ins", next_id, ())
        else:
            ev = _oblivious_event(strategy, sorted(alive), next_id, rng)
        events.append(ev)
        if ev.is_insert:
            alive.add(ev.node)
            next_id = ev.node + 1
        else:
            alive.discard(ev.node)
    params = {
        "insert_fraction": strategy.insert_fraction,
        "insert_degree": strategy.insert_degree,
        "n0": n0,
        "steps": steps,
        "extra_edge_frac": extra_edge_frac,
    }
    return Trace(kappa, seed, strategy.name, params, nodes, edges, events)


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def encode_trace(trace: Trace) -> str:
    """Render a trace in its line-delimited wire format."""
    lines = [
        _dump({"v": TRACE_VERSION, "kappa": trace.kappa, "seed": trace.seed,
               "strategy": trace.strategy, "params": trace.params}),
        _dump({"nodes": trace.initial_nodes,
               "edges": [[u, v] for u, v in trace.initial_edges]}),
    ]
    for t, ev in enumerate(trace.events, start=1):
        if ev.is_insert:
            lines.append(_dump({"t": t, "op": "ins", "node": ev.node,
                                "nbrs": list(ev.neighbors)}))
        else:
            lines.append(_dump({"t": t, "op": "del", "node": ev.node}))
    return "\n".join(lines) + "\n"


def _parse_line(line_no: int, raw: str) -> dict:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, f"bad JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ParseError(line_no, "expected a JSON object")
    return obj


# Parses one event line in one call: ``scan_once(raw, 0)`` is the C
# scanner behind ``json.loads``, without its whitespace and end checks,
# and returns the value and the index where it ends.
_scan_once = json.JSONDecoder().scan_once


def node_ids(values: object, what: str) -> list[int]:
    """*values* if it is a list of node ids, JSON integers in
    ``[0, MAX_NODE_ID]`` taken as written: a string, a float or a bool
    raises ValueError, never coerced.  Checked a list at a time, so the
    ids cost no Python call each.  Trace and snapshot loading share this
    rule."""
    if type(values) is not list or values and (set(map(type, values)) != {int}
                                               or min(values) < 0):
        raise ValueError(f"{what} must be a list of non-negative integers")
    if values and max(values) > MAX_NODE_ID:
        raise ValueError(f"{what} must be at most {MAX_NODE_ID}")
    return values


def decode_trace(text: str) -> Trace:
    """Parse the wire format back into a Trace, validating as it goes.

    An event line the C scanner reads whole as one JSON object is taken
    as read; any other line is parsed again by ``json.loads``, so a
    line's error reads as it always did."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 2:
        raise ParseError(1, "trace needs a header and an initial-graph line")

    header = _parse_line(1, lines[0])
    version = header.get("v")
    if version != TRACE_VERSION:
        raise VersionMismatch(f"trace version {version!r}, expected {TRACE_VERSION}")
    for key, kind in (("kappa", int), ("seed", int), ("strategy", str)):
        if key not in header:
            raise ParseError(1, f"header missing {key!r}")
        if type(header[key]) is not kind:
            raise ParseError(1, f"header {key!r} must be a JSON {kind.__name__}")

    init = _parse_line(2, lines[1])
    if "nodes" not in init or "edges" not in init:
        raise ParseError(2, "initial line needs 'nodes' and 'edges'")
    pairs = init["edges"]
    try:
        nodes = node_ids(init["nodes"], "nodes")
        if type(pairs) is not list or pairs and (set(map(type, pairs)) != {list}
                                                 or set(map(len, pairs)) != {2}):
            raise ValueError("edges must be a list of [u, v] pairs")
        node_ids(list(itertools.chain.from_iterable(pairs)), "edge endpoints")
    except ValueError as exc:
        raise ParseError(2, str(exc)) from None
    edges = [(u, v) if u < v else (v, u) for u, v in pairs]

    events = []
    for line_no, raw in enumerate(lines[2:], start=3):
        try:
            obj, end = _scan_once(raw, 0)
        except (StopIteration, ValueError):  # no value at 0, or a malformed one
            obj, end = None, -1
        if end != len(raw) or type(obj) is not dict:
            obj = _parse_line(line_no, raw)
        op, node = obj.get("op"), obj.get("node")
        # node_ids' rule for one id, inline: a call per event shows in decoding
        if type(node) is not int or not 0 <= node <= MAX_NODE_ID:
            if type(node) is int and node > MAX_NODE_ID:
                raise ParseError(line_no, f"node {node} must be at most {MAX_NODE_ID}")
            raise ParseError(line_no, f"node {node!r} is not a non-negative integer")
        if op == "ins":
            try:
                nbrs = node_ids(obj.get("nbrs", []), "nbrs")
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            events.append(_event(("ins", node, tuple(nbrs))))
        elif op == "del":
            events.append(_event(("del", node, ())))
        else:
            raise ParseError(line_no, f"unknown op {op!r}")
    return Trace(header["kappa"], header["seed"], header["strategy"],
                 dict(header.get("params", {})), nodes, edges, events)


def insert_error(node: int, nbrs: tuple[int, ...], used: set[int], max_node: int | None,
                 alive: set[int]) -> str | None:
    """Why an insert of *node* wired to *nbrs* is invalid after the ids
    *used* (largest *max_node*) with the nodes *alive*, or None.  Node
    ids are never reused and must rise; a node neighbours neither
    itself nor any node twice, and only alive nodes.  ``validate_trace``
    and ``Healer.handle_event`` share these rules."""
    if not 0 <= node <= MAX_NODE_ID:
        return f"node id {node} is not in [0, {MAX_NODE_ID}]"
    if node in used:
        return f"node id {node} was already used"
    if max_node is not None and node <= max_node:
        return f"node ids must be strictly increasing, got {node}"
    if node in nbrs:
        return "a node cannot neighbor itself"
    if len(set(nbrs)) != len(nbrs):
        return "duplicate neighbors in insert"
    if not alive.issuperset(nbrs):
        return f"insert wires to non-alive nodes {sorted(set(nbrs) - alive)}"
    return None


def validate_trace(trace: Trace) -> None:
    """Check that events are individually valid when applied in order,
    by ``insert_error``'s rules but one: that ids rise is left to the
    healer, which rejects a lower id at its event.  perfbench's crash
    test replays a trace that breaks only that rule, at event 2, and
    counts what the crash leaves unreached."""
    seen = set(trace.initial_nodes)
    alive = set(trace.initial_nodes)
    for i, (op, node, nbrs) in enumerate(trace.events, start=1):
        if op == "ins":
            problem = insert_error(node, nbrs, seen, None, alive)
            if problem is not None:
                raise InvalidParams(f"event {i}: {problem}")
            seen.add(node)
            alive.add(node)
        else:
            if node not in alive:
                raise InvalidParams(f"event {i}: delete of dead node {node}")
            alive.remove(node)
