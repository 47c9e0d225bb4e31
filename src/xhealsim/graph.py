"""Colored multigraph primitives for the self-healing overlay simulator.

Two graph values drive every run:

* ``ColoredGraph`` is the live network.  An edge is its canonical key
  ``(u, v)``, ``u < v``, and its *set* of colors, nothing more: the
  sentinel ``BLACK`` marks edges that were present initially or were
  wired in by the adversary, and each non-black color is the id of one
  healing cloud that uses the edge.  An edge stays alive as long as at
  least one color needs it; the healer only ever deletes an edge whose
  color set has drained to empty.  All of one repair step's edge edits
  (strip old colors, color new edges, purge drained ones) are one
  ``recolor`` call.

* ``ShadowGraph`` is the deletion-free baseline: every node ever seen
  and every black edge ever created, kept forever as one adjacency, of
  which its node and edge sets are views.  All invariant checks compare
  the live graph against this baseline.

Node ids are non-negative integers up to ``MAX_NODE_ID`` and are never
reused after deletion.
"""
from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Iterator, KeysView, NamedTuple

import numpy as np

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


class ColoredGraph:
    """The live network: simple undirected graph with color-set edges."""

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._edges: dict[EdgeKey, set[Color]] = {}
        self._csr: Csr | None = None  # see Csr.of; dropped on adjacency change

    @classmethod
    def from_edges(cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]]
                   ) -> "ColoredGraph":
        """The graph that ``add_node`` over *nodes*, then ``add_edge`` over
        the canonical keys of *edges* in sorted order build, every edge
        black; raises what the first call to fail raises.  So an input
        with two faults reports the one those calls meet first: a node
        fault before any edge fault, and of two edge faults the one on
        the smaller key."""
        graph = cls()
        for v in nodes:
            graph.add_node(v)
        for u, v in sorted(edge_key(u, v) for u, v in edges):
            graph.add_edge(u, v)
        return graph

    # -- nodes ---------------------------------------------------------

    @property
    def node_set(self) -> set[int]:
        return set(self._adj)

    def __contains__(self, node: int) -> bool:
        return node in self._adj

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
        for nb in self._adj[v]:
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

    def edge(self, u: int, v: int) -> set[Color]:
        """The colors of the edge between *u* and *v*: the graph's own set."""
        try:
            return self._edges[edge_key(u, v)]
        except KeyError:
            raise UnknownEdge(f"no edge {edge_key(u, v)}") from None

    def edges(self) -> Iterator[tuple[EdgeKey, set[Color]]]:
        """Every edge, as its key and its colors."""
        return iter(self._edges.items())

    def edge_count(self) -> int:
        return len(self._edges)

    def add_edge(self, u: int, v: int) -> None:
        """Wire a fresh black edge, an original or adversary one.  The
        pair must be new."""
        if u == v:
            raise SelfLoop(f"self loop ({u},{u})")
        if u not in self._adj or v not in self._adj:
            raise UnknownNode(f"endpoint of ({u},{v}) not present")
        key = edge_key(u, v)
        if key in self._edges:
            raise GraphError(f"edge ({key[0]},{key[1]}) already exists")
        self._csr = None
        self._edges[key] = {BLACK}
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
                colors = edges.get(key)
                if colors is None:
                    raise UnknownEdge(f"no edge {key}")
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
                colors = edges.get(key)
                if colors is not None:
                    colors.add(color)
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
                edges[key] = {color}
                adj[u].add(v)
                adj[v].add(u)
                created += 1
        deleted = 0
        for key in drained:
            if not edges[key]:
                self._csr = None
                del edges[key]
                u, v = key
                adj[u].discard(v)
                adj[v].discard(u)
                deleted += 1
        return created, reused, deleted

    # -- integrity -----------------------------------------------------

    def integrity_errors(self) -> list[str]:
        """Structural self-check, used by tests and the verify command."""
        errs = []
        for key, colors in self._edges.items():
            u, v = key
            if not u < v:
                errs.append(f"edge key {key} is not canonical")
            for end, other in ((u, v), (v, u)):
                if end not in self._adj:
                    errs.append(f"edge {key} endpoint {end} missing")
                elif other not in self._adj[end]:
                    errs.append(f"edge {key} missing from adjacency of {end}")
            if not colors:
                errs.append(f"edge {key} colorless")
        for v, nbrs in self._adj.items():
            for nb in nbrs:
                if edge_key(v, nb) not in self._edges:
                    errs.append(f"adjacency {v}-{nb} has no edge record")
        return errs


class ShadowGraph:
    """Append-only record of all nodes and black edges ever created.

    The record is one adjacency; ``nodes`` and ``edges`` are read from
    it.  A deletion (``mark_dead``) only moves a node out of ``alive``
    and counts it in ``dead`` for each baseline neighbor; the node and
    its edges stay, and metric checks that quote the baseline (degree,
    density, expansion, distances) are computed over this full graph.
    """

    def __init__(self, adj: dict[int, set[int]] | None = None) -> None:
        """The baseline whose adjacency is *adj*, taken as given and
        unchecked (``from_edges`` checks), every node alive."""
        self._adj: dict[int, set[int]] = {} if adj is None else adj
        self.alive: set[int] = set(self._adj)
        # node -> its baseline neighbors not alive, for the nodes with one
        self.dead: Counter[int] = Counter()
        self.max_node: int | None = max(self._adj, default=None)  # largest id ever recorded
        self._csr: Csr | None = None  # see Csr.of; dropped on adjacency change

    @classmethod
    def from_edges(cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]]
                   ) -> "ShadowGraph":
        """The baseline of *nodes* joined by *edges*, every node alive,
        checked by ``ColoredGraph.from_edges``' rules; raises what it
        raises."""
        return cls(ColoredGraph.from_edges(nodes, edges)._adj)

    @property
    def nodes(self) -> KeysView[int]:
        return self._adj.keys()

    @property
    def edges(self) -> set[EdgeKey]:
        return {(u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v}

    @property
    def node_set(self) -> set[int]:
        return set(self._adj)

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def neighbors(self, v: int) -> set[int]:
        if v not in self._adj:
            raise UnknownNode(f"node {v} never existed")
        return self._adj[v]

    def dead_degree(self, v: int) -> int:
        """Baseline neighbors of *v* that are no longer alive."""
        if v not in self._adj:
            raise UnknownNode(f"node {v} never existed")
        return self.dead.get(v, 0)

    def mark_dead(self, v: int) -> None:
        """Delete the alive node *v*: it leaves ``alive`` and each of its
        baseline neighbors counts one more dead neighbor."""
        nbrs = self._adj.get(v)
        if nbrs is None:
            raise UnknownNode(f"node {v} never existed")
        try:
            self.alive.remove(v)
        except KeyError:
            raise UnknownNode(f"node {v} is not alive") from None
        self.dead.update(nbrs)

    def insert(self, node: int, nbrs: Iterable[int]) -> None:
        """Record the alive *node* wired to the recorded nodes *nbrs*."""
        adj = self._adj
        if node in adj:
            raise DuplicateNode(f"node {node} already recorded")
        nbrs = set(nbrs)
        unknown = nbrs.difference(adj)
        if unknown:
            raise UnknownNode(f"neighbor {min(unknown)} never existed")
        self._csr = None
        adj[node] = nbrs
        for nb in nbrs:
            adj[nb].add(node)
        self.alive.add(node)
        lost = len(nbrs - self.alive)
        if lost:
            self.dead[node] = lost
        self.max_node = node if self.max_node is None else max(node, self.max_node)


def initial_views(nodes: Iterable[int], edges: Iterable[tuple[int, int]]
                  ) -> tuple[ColoredGraph, ShadowGraph]:
    """The live graph and the baseline of a run that starts from *nodes*
    joined by the black *edges*, every node alive.  The baseline is a
    copy of the live graph's adjacency, which ``ColoredGraph.from_edges``
    builds and checks.  Raises what it raises."""
    graph = ColoredGraph.from_edges(nodes, edges)
    return graph, ShadowGraph({v: set(nbrs) for v, nbrs in graph._adj.items()})


class Csr(NamedTuple):
    """Compressed sparse row snapshot of a view's adjacency.

    Node ``ids[i]`` (sorted ascending) sits at position ``i``; its
    neighbors' positions are ``indices[indptr[i]:indptr[i + 1]]``.  The
    arrays are read-only, because ``of`` hands the same snapshot to every
    caller until the view's adjacency changes.  Snapshots feed only the
    array kernels: connectivity, BFS, the spectral gap, exact expansion.
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

    def positions(self, nodes: Iterable[int]) -> np.ndarray:
        """Positions of *nodes*, which must all be present."""
        values = np.fromiter(nodes, dtype=np.int64)
        pos = np.searchsorted(self.ids, values)
        found = pos < len(self.ids)
        found[found] = self.ids[pos[found]] == values[found]
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
