"""Colored multigraph primitives for the self-healing overlay simulator.

Two graph values drive every run:

* ``ColoredGraph`` is the live network.  Every edge carries a *set* of
  colors: the sentinel ``BLACK`` marks edges that were present initially
  or were wired in by the adversary, and each non-black color is the id
  of one healing cloud that uses the edge.  An edge stays alive as long
  as at least one color needs it; the healer only ever deletes an edge
  whose color set has drained to empty.  All of one repair step's edge
  edits (strip old colors, color new edges, purge drained ones) are one
  ``recolor`` call.

* ``ShadowGraph`` is the deletion-free baseline: every node ever seen
  and every black edge ever created, kept forever.  All invariant checks
  compare the live graph against this baseline.

Node ids are non-negative integers up to ``MAX_NODE_ID`` and are never
reused after deletion.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .adversary import Event

# Sentinel color for original / adversary-inserted edges.  Cloud colors are
# the (non-negative) cloud ids, so a plain int covers both cases.
BLACK: int = -1

Color = int
EdgeKey = tuple[int, int]

# The largest node id: CSR snapshots hold ids as int64.
MAX_NODE_ID: int = 2**63 - 1


class GraphError(Exception):
    """Base class for graph contract violations."""


class DuplicateNode(GraphError):
    pass


class NodeIdOutOfRange(GraphError):
    pass


class UnknownNode(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class UnknownEdge(GraphError):
    pass


class ColorAbsent(GraphError):
    pass


class EmptySubset(GraphError):
    pass


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical unordered representation of an edge."""
    return (u, v) if u < v else (v, u)


def _check_id(v: int) -> None:
    if not 0 <= v <= MAX_NODE_ID:
        raise NodeIdOutOfRange(f"node id {v} is not in [0, {MAX_NODE_ID}]")


def _first_repeat(items: Iterable) -> object:
    """The first item of *items* equal to an earlier one, if any."""
    seen: set = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None


@dataclass(slots=True)
class EdgeRecord:
    """One undirected edge and the colors that keep it alive.

    ``BLACK`` stands for an original or adversary edge, every other
    color for the id of a cloud whose topology uses the edge.  The
    colors are the edge's whole state: a cloud's kind is read from the
    registry, and an edge is deleted once its color set is empty.
    """

    u: int
    v: int
    colors: set[Color] = field(default_factory=set)

    @property
    def key(self) -> EdgeKey:
        return edge_key(self.u, self.v)

    def other(self, node: int) -> int:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise UnknownNode(f"{node} is not an endpoint of {self.key}")


def black_neighbors(removed: Iterable[EdgeRecord], node: int) -> set[int]:
    """Other endpoints of the removed edges that carried the black color."""
    return {rec.other(node) for rec in removed if BLACK in rec.colors}


class ColoredGraph:
    """The live network: simple undirected graph with color-set edges."""

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._edges: dict[EdgeKey, EdgeRecord] = {}
        self._csr: Csr | None = None  # see Csr.of; dropped on adjacency change

    @classmethod
    def from_edges(cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]],
                   colors: Iterable[Iterable[Color]] | None = None) -> "ColoredGraph":
        """The graph that ``add_node`` over *nodes*, then ``add_edge`` over
        *edges* in sorted order, each with its entry of *colors* (black
        when omitted), would build.  The input is checked as a whole, in
        the order of those calls: a node id outside [0, MAX_NODE_ID]
        raises NodeIdOutOfRange, a node given twice DuplicateNode, a self
        loop SelfLoop, an endpoint not in *nodes* UnknownNode and an edge
        given twice (in either orientation) GraphError."""
        graph = cls()
        nodes = list(nodes)
        if nodes and (min(nodes) < 0 or max(nodes) > MAX_NODE_ID):
            _check_id(next(v for v in nodes if not 0 <= v <= MAX_NODE_ID))
        adj = graph._adj = {v: set() for v in nodes}
        if len(adj) < len(nodes):
            raise DuplicateNode(f"node {_first_repeat(nodes)} already present")
        keys = [(u, v) if u < v else (v, u) for u, v in edges]
        loop = next((u for u, v in keys if u == v), None)
        if loop is not None:
            raise SelfLoop(f"self loop ({loop},{loop})")
        unknown = set(itertools.chain.from_iterable(keys)).difference(adj)
        if unknown:
            u, v = next(k for k in keys if k[0] in unknown or k[1] in unknown)
            raise UnknownNode(f"endpoint of ({u},{v}) not present")
        if len(set(keys)) < len(keys):
            u, v = _first_repeat(sorted(keys))
            raise GraphError(f"edge ({u},{v}) already exists")
        paints = [(BLACK,)] * len(keys) if colors is None else colors
        records = graph._edges
        for (u, v), paint in sorted(zip(keys, paints, strict=True), key=itemgetter(0)):
            records[u, v] = EdgeRecord(u, v, set(paint))
            adj[u].add(v)
            adj[v].add(u)
        return graph

    # -- nodes ---------------------------------------------------------

    @property
    def node_set(self) -> set[int]:
        return set(self._adj)

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def nodes(self) -> Iterator[int]:
        return iter(self._adj)

    def add_node(self, v: int) -> None:
        _check_id(v)
        if v in self._adj:
            raise DuplicateNode(f"node {v} already present")
        self._csr = None
        self._adj[v] = set()

    def remove_node(self, v: int) -> None:
        """Drop *v* and all incident edges.  A caller that needs the lost
        edges' colors reads them with ``edge`` first."""
        if v not in self._adj:
            raise UnknownNode(f"node {v} not present")
        self._csr = None
        for nb in sorted(self._adj[v]):
            del self._edges[edge_key(v, nb)]
            self._adj[nb].discard(v)
        del self._adj[v]

    # -- edges ---------------------------------------------------------

    def neighbors(self, v: int) -> set[int]:
        if v not in self._adj:
            raise UnknownNode(f"node {v} not present")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edge(self, u: int, v: int) -> EdgeRecord:
        try:
            return self._edges[edge_key(u, v)]
        except KeyError:
            raise UnknownEdge(f"no edge {edge_key(u, v)}") from None

    def edges(self) -> Iterator[EdgeRecord]:
        return iter(self._edges.values())

    def edge_count(self) -> int:
        return len(self._edges)

    def add_edge(self, u: int, v: int, colors: Iterable[Color] = (BLACK,)) -> None:
        """Wire a fresh edge carrying *colors* (by default an original or
        adversary edge).  The pair must be new."""
        if u == v:
            raise SelfLoop(f"self loop ({u},{u})")
        if u not in self._adj or v not in self._adj:
            raise UnknownNode(f"endpoint of ({u},{v}) not present")
        key = edge_key(u, v)
        if key in self._edges:
            raise GraphError(f"edge ({key[0]},{key[1]}) already exists")
        self._csr = None
        self._edges[key] = EdgeRecord(key[0], key[1], colors=set(colors))
        self._adj[u].add(v)
        self._adj[v].add(u)

    def recolor(self, strip: Iterable[tuple[Color, Iterable[EdgeKey]]],
                paint: Iterable[tuple[Color, Iterable[EdgeKey]]]) -> tuple[int, int, int]:
        """One repair step's edge edits, in three phases.

        Each ``(color, keys)`` of *strip* takes *color* off its edges,
        which must exist and carry it.  Each ``(color, keys)`` of *paint*
        gives its edges the cloud color *color*, reusing an existing edge
        or creating one.  Last, the stripped edges left colorless are
        deleted.  Keys are canonical (``u < v``, as ``edge_key`` gives).
        Returns the counts of edges created, reused and deleted.
        """
        edges, adj = self._edges, self._adj
        drained = []
        for color, keys in strip:
            for key in keys:
                rec = edges.get(key)
                if rec is None:
                    raise UnknownEdge(f"no edge {key}")
                colors = rec.colors
                if color not in colors:
                    raise ColorAbsent(f"edge {key} does not carry color {color}")
                colors.remove(color)
                if not colors:
                    drained.append(key)
        created = reused = 0
        for color, keys in paint:
            if color == BLACK:
                raise ValueError("cloud colors only; black edges come from insertions")
            for key in keys:
                rec = edges.get(key)
                if rec is not None:
                    rec.colors.add(color)
                    reused += 1
                    continue
                u, v = key
                if u == v:
                    raise SelfLoop(f"self loop ({u},{u})")
                if u > v:
                    raise GraphError(f"edge key {key} is not canonical")
                if u not in adj or v not in adj:
                    raise UnknownNode(f"endpoint of ({u},{v}) not present")
                self._csr = None
                edges[key] = EdgeRecord(u, v, {color})
                adj[u].add(v)
                adj[v].add(u)
                created += 1
        deleted = 0
        for key in drained:
            rec = edges[key]
            if not rec.colors:
                self._csr = None
                del edges[key]
                adj[rec.u].discard(rec.v)
                adj[rec.v].discard(rec.u)
                deleted += 1
        return created, reused, deleted

    # -- integrity -----------------------------------------------------

    def integrity_errors(self) -> list[str]:
        """Structural self-check, used by tests and the verify command."""
        errs = []
        for key, rec in self._edges.items():
            if rec.key != key:
                errs.append(f"edge {key} stored under wrong key")
            if rec.u == rec.v:
                errs.append(f"self loop {key}")
            for end in key:
                if end not in self._adj:
                    errs.append(f"edge {key} endpoint {end} missing")
                elif rec.other(end) not in self._adj[end]:
                    errs.append(f"edge {key} missing from adjacency of {end}")
            if not rec.colors:
                errs.append(f"edge {key} colorless")
        for v, nbrs in self._adj.items():
            for nb in nbrs:
                if edge_key(v, nb) not in self._edges:
                    errs.append(f"adjacency {v}-{nb} has no edge record")
        return errs


class ShadowGraph:
    """Append-only record of all nodes and black edges ever created.

    Deletions only move a node out of ``alive``; the node and its edges
    stay, and metric checks that quote the baseline (degree, density,
    expansion, distances) are computed over this full graph.
    """

    def __init__(self) -> None:
        self.nodes: set[int] = set()
        self.edges: set[EdgeKey] = set()
        self.alive: set[int] = set()
        self.max_node: int | None = None  # largest id ever recorded
        self._adj: dict[int, set[int]] = {}
        self._csr: Csr | None = None  # see Csr.of; dropped on adjacency change

    @property
    def node_set(self) -> set[int]:
        return set(self.nodes)

    def __contains__(self, node: int) -> bool:
        return node in self.nodes

    def neighbors(self, v: int) -> set[int]:
        if v not in self.nodes:
            raise UnknownNode(f"node {v} never existed")
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Degree in the full baseline (dead neighbors included)."""
        return len(self.neighbors(v))

    def dead_degree(self, v: int) -> int:
        """Baseline neighbors of *v* that are no longer alive."""
        alive = self.alive
        return sum(nb not in alive for nb in self.neighbors(v))

    def apply(self, event: "Event") -> None:
        """Record an adversarial event: inserts append, deletes only
        toggle liveness."""
        if event.is_insert:
            if event.node in self.nodes:
                raise DuplicateNode(f"node {event.node} already recorded")
            self._csr = None
            self.nodes.add(event.node)
            self.max_node = max(event.node, event.node if self.max_node is None else self.max_node)
            self._adj[event.node] = set()
            self.alive.add(event.node)
            for nb in event.neighbors:
                if nb not in self.nodes:
                    raise UnknownNode(f"neighbor {nb} never existed")
                self.edges.add(edge_key(event.node, nb))
                self._adj[event.node].add(nb)
                self._adj[nb].add(event.node)
        else:
            if event.node not in self.alive:
                raise UnknownNode(f"node {event.node} is not alive")
            self.alive.discard(event.node)

    def seed_initial(self, nodes: Iterable[int], edges: Iterable[EdgeKey]) -> None:
        self._csr = None
        for v in nodes:
            if v in self.nodes:
                raise DuplicateNode(f"node {v} already recorded")
            self.nodes.add(v)
            self.max_node = max(v, v if self.max_node is None else self.max_node)
            self._adj[v] = set()
            self.alive.add(v)
        for u, v in edges:
            try:
                self._adj[u].add(v)
                self._adj[v].add(u)
            except KeyError:
                raise UnknownNode(f"endpoint of ({u},{v}) never existed") from None
            self.edges.add(edge_key(u, v))


def initial_views(nodes: Iterable[int], edges: Iterable[tuple[int, int]]
                  ) -> tuple[ColoredGraph, ShadowGraph]:
    """The live graph and the baseline of a run that starts from *nodes*
    joined by the black *edges*, every node alive.  The baseline is
    copied from the live graph, which ``ColoredGraph.from_edges`` builds
    and checks.  Raises what it raises."""
    graph = ColoredGraph.from_edges(nodes, edges)
    shadow = ShadowGraph()
    shadow.nodes, shadow.alive = set(graph._adj), set(graph._adj)
    shadow.edges = set(graph._edges)
    shadow.max_node = max(graph._adj, default=None)
    shadow._adj = {v: set(nbrs) for v, nbrs in graph._adj.items()}
    return graph, shadow


class Csr(NamedTuple):
    """Compressed sparse row snapshot of a view's adjacency.

    Node ``ids[i]`` (sorted ascending) sits at position ``i``; its
    neighbors' positions are ``indices[indptr[i]:indptr[i + 1]]``.  The
    arrays are read-only, because ``of`` hands the same snapshot to every
    caller until the view's adjacency changes.
    """

    ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def of(cls, view: ColoredGraph | ShadowGraph) -> "Csr":
        """The snapshot of *view*, cached on it until a node or an edge
        is added or deleted (recoloring an edge keeps it)."""
        if view._csr is None:
            order = sorted(view.node_set)
            ids = np.array(order, dtype=np.int64)
            degrees = np.fromiter((len(view.neighbors(v)) for v in order),
                                  dtype=np.int64, count=len(order))
            indptr = np.zeros(len(order) + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            flat = np.fromiter(itertools.chain.from_iterable(map(view.neighbors, order)),
                               dtype=np.int64, count=int(indptr[-1]))
            csr = cls(ids, indptr, np.searchsorted(ids, flat))
            for array in csr:
                array.flags.writeable = False
            view._csr = csr
        return view._csr

    def lookup(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the node ids *values* and a mask of those present."""
        pos = np.searchsorted(self.ids, values)
        found = pos < len(self.ids)
        found[found] = self.ids[pos[found]] == values[found]
        return pos, found

    def positions(self, nodes: Iterable[int]) -> np.ndarray:
        """Positions of *nodes*, which must all be present."""
        values = np.fromiter(nodes, dtype=np.int64)
        pos, found = self.lookup(values)
        if not found.all():
            raise UnknownNode(f"node {values[~found][0]} not present")
        return pos

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint positions (u < v) of every edge, once each."""
        tails = np.repeat(np.arange(len(self.ids)), np.diff(self.indptr))
        forward = tails < self.indices
        return tails[forward], self.indices[forward]


def csr_connected(csr: Csr) -> bool:
    """True for snapshots with at most one node or a single component.

    A level-synchronous BFS from position 0: each level gathers the
    ``indices`` of the frontier's rows and marks them in a bool mask,
    whose unseen positions are the next frontier.
    """
    n = len(csr.ids)
    seen = np.zeros(n, dtype=bool)
    frontier = np.zeros(min(n, 1), dtype=np.int64)
    seen[frontier] = True
    reached = len(frontier)
    while frontier.size and reached < n:
        starts = csr.indptr[frontier]
        lengths = csr.indptr[frontier + 1] - starts
        # entry j of the gathered rows sits at indices[start of its row + j
        # - entries gathered before its row]
        rows = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        level = np.zeros(n, dtype=bool)
        level[csr.indices[rows + np.arange(len(rows))]] = True
        level &= ~seen
        seen |= level
        frontier = np.flatnonzero(level)
        reached += len(frontier)
    return reached == n


def bfs_distances(csr: Csr, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Hop count from ``sources[i]`` to ``targets[i]`` (positions in
    *csr*) for each pair, as int32, -1 where the target is unreachable.

    One bit-parallel BFS serves every distinct source: node ``x`` keeps
    one bit per source in ``frontier[x]`` (uint64 words), and a level
    ORs each node's neighbors' words together, so it walks every edge
    once for all sources.  A pair is resolved at the level its source's
    bit first reaches its target; the walk stops when every pair is
    resolved or the frontier is empty.
    """
    dist = np.full(len(sources), -1, dtype=np.int32)
    if not len(sources):
        return dist
    unique, column = np.unique(sources, return_inverse=True)
    slot = np.arange(len(unique))
    slot_word = slot // 64
    slot_bit = np.left_shift(np.uint64(1), (slot % 64).astype(np.uint64))
    frontier = np.zeros((len(csr.ids), (len(unique) + 63) // 64), dtype=np.uint64)
    frontier[unique, slot_word] = slot_bit
    seen = frontier.copy()
    word, bit = slot_word[column], slot_bit[column]
    # reduceat gives a degree-0 row its successor's first word, so only
    # rows with neighbors are reduced; the rest keep an empty frontier
    has_neighbors = np.diff(csr.indptr) > 0
    starts = csr.indptr[:-1][has_neighbors]
    pending = np.arange(len(sources))
    level = 0
    while True:
        hit = (frontier[targets[pending], word[pending]] & bit[pending]) != 0
        dist[pending[hit]] = level
        pending = pending[~hit]
        if not pending.size or not starts.size:
            return dist
        reached = np.zeros_like(frontier)
        reached[has_neighbors] = np.bitwise_or.reduceat(frontier[csr.indices], starts, axis=0)
        frontier = reached & ~seen
        if not frontier.any():
            return dist
        seen |= frontier
        level += 1
