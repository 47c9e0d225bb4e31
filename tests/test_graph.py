import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xhealsim
from helpers import (
    bfs_oracle,
    density,
    density_oracle,
    graph_from_edges,
    is_connected,
    random_adjacency,
)
from xhealsim.graph import (
    BLACK,
    ColoredGraph,
    ColorAbsent,
    Csr,
    DuplicateNode,
    EmptySubset,
    GraphError,
    NodeIdOutOfRange,
    SelfLoop,
    ShadowGraph,
    UnknownEdge,
    UnknownNode,
    bfs_distances,
    csr_connected,
    edge_key,
)


def test_add_node_basics():
    g = ColoredGraph()
    g.add_node(0)
    assert g.node_set == {0} and g.neighbors(0) == set()
    g.add_node(1)
    assert g.node_set == {0, 1} and g.edge_count() == 0
    with pytest.raises(DuplicateNode):
        g.add_node(0)


def incident(g, v):
    """The colors of *v*'s edges, read before ``remove_node`` drops them."""
    return [g.edge(v, nb) for nb in sorted(g.neighbors(v))]


def test_remove_node_drops_incident_edges():
    g = graph_from_edges([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    removed = incident(g, 0)
    assert g.remove_node(0) is None
    assert len(removed) == 3
    assert all(colors == {BLACK} for colors in removed)
    assert g.node_set == {1, 2, 3} and g.edge_count() == 0
    assert all(g.neighbors(v) == set() for v in (1, 2, 3))


def test_remove_node_keeps_color_sets_intact():
    g = graph_from_edges([0, 1], [(0, 1)])
    g.recolor([], [(1, [(0, 1)])])
    (colors,) = incident(g, 0)
    g.remove_node(0)
    assert colors == {BLACK, 1}


def test_remove_isolated_node():
    g = ColoredGraph()
    g.add_node(5)
    g.remove_node(5)
    assert g.node_set == set()
    with pytest.raises(UnknownNode):
        g.remove_node(5)


def test_ensure_edge_color_reuse_and_create():
    g = graph_from_edges([0, 1, 2], [(0, 1)])
    assert g.recolor([], [(7, [(0, 1)])]) == (0, 1, 0)  # reused
    assert g.edge(0, 1) == {BLACK, 7}
    assert g.recolor([], [(7, [(1, 2)])]) == (1, 0, 0)  # created
    assert g.edge(1, 2) == {7}
    assert g.recolor([], [(8, [(0, 2), (1, 2)]), (9, [(0, 2)])]) == (1, 2, 0)
    assert g.edge(0, 2) == {8, 9}
    with pytest.raises(SelfLoop):
        g.recolor([], [(7, [(1, 1)])])
    with pytest.raises(UnknownNode):
        g.recolor([], [(7, [(0, 9)])])
    with pytest.raises(GraphError):
        g.recolor([], [(7, [(2, 0)])])  # keys are canonical
    with pytest.raises(ValueError):
        g.recolor([], [(BLACK, [(0, 1)])])
    assert g.integrity_errors() == []


def test_strip_color_variants():
    g = graph_from_edges([0, 1], [(0, 1)])
    g.recolor([], [(3, [(0, 1)])])
    assert g.recolor([(3, [(0, 1)])], []) == (0, 0, 0)  # still black
    assert g.edge(0, 1) == {BLACK}

    g2 = ColoredGraph()
    for v in (0, 1):
        g2.add_node(v)
    g2.recolor([], [(3, [(0, 1)]), (5, [(0, 1)])])
    assert g2.recolor([(3, [(0, 1)])], []) == (0, 0, 0)
    assert g2.edge(0, 1) == {5}
    assert g2.recolor([(5, [(0, 1)])], []) == (0, 0, 1)  # drained, so deleted
    assert g2.edge_count() == 0 and g2.integrity_errors() == []

    with pytest.raises(ColorAbsent):
        g.recolor([(99, [(0, 1)])], [])
    with pytest.raises(UnknownEdge):
        g.recolor([(3, [(0, 99)])], [])


def test_purge_if_colorless():
    g = ColoredGraph()
    for v in (0, 1, 2):
        g.add_node(v)
    g.recolor([], [(3, [(0, 1), (1, 2)])])
    assert g.recolor([(3, [(0, 1), (1, 2)])], []) == (0, 0, 2)
    assert 1 not in g.neighbors(0) and 1 not in g.neighbors(2)

    g.recolor([], [(3, [(0, 1), (1, 2)])])
    # a rebuild in the same step recolors (0, 1), so only (1, 2) goes
    assert g.recolor([(3, [(0, 1), (1, 2)])], [(9, [(0, 1)])]) == (0, 1, 1)
    assert g.neighbors(1) == {0} and g.edge(0, 1) == {9}
    assert g.integrity_errors() == []


def test_integrity_errors_name_each_broken_fact():
    faults = {
        "edge key (2, 1) is not canonical":
            lambda g: (g._edges.__setitem__((2, 1), {BLACK}), g._adj[1].add(2),
                       g._adj[2].add(1)),
        "edge (1, 5) endpoint 5 missing": lambda g: g._edges.__setitem__((1, 5), {BLACK}),
        "edge (0, 1) missing from adjacency of 0": lambda g: g._adj[0].discard(1),
        "edge (0, 1) colorless": lambda g: g.edge(0, 1).clear(),
        "adjacency 1-2 has no edge record": lambda g: (g._adj[1].add(2), g._adj[2].add(1)),
    }
    for message, damage in faults.items():
        g = graph_from_edges([0, 1, 2], [(0, 1)])
        assert g.integrity_errors() == []
        damage(g)
        assert message in g.integrity_errors(), message


@pytest.mark.parametrize("edges,subset,expected", [
    ([(0, 1), (1, 2), (0, 2)], {0, 1, 2}, Fraction(1)),        # triangle
    ([(0, 1), (1, 2)], {0, 1, 2}, Fraction(2, 3)),             # path
    ([(i, j) for i in range(5) for j in range(i + 1, 5)], set(range(5)),
     Fraction(2)),                                             # K5
])
def test_density_known_values(edges, subset, expected):
    g = graph_from_edges(sorted({v for e in edges for v in e}), edges)
    assert density(g, subset) == expected


def test_density_errors():
    g = graph_from_edges([0, 1], [(0, 1)])
    with pytest.raises(EmptySubset):
        density(g, set())
    with pytest.raises(UnknownNode):
        density(g, {0, 9})


def test_density_matches_pair_enumeration_oracle():
    rng = random.Random(42)
    adj = random_adjacency(10, 0.4, rng)
    edges = sorted({edge_key(u, v) for u, nbrs in adj.items() for v in nbrs})
    g = graph_from_edges(range(10), edges)
    for _ in range(30):
        subset = set(rng.sample(range(10), 6))
        assert density(g, subset) == density_oracle(lambda u, v: v in g.neighbors(u), subset)


def test_is_connected():
    single = ColoredGraph()
    single.add_node(0)
    assert is_connected(single)

    two = ColoredGraph()
    two.add_node(0)
    two.add_node(1)
    assert not is_connected(two)

    c6 = graph_from_edges(range(6), [(i, (i + 1) % 6) for i in range(6)])
    assert is_connected(c6)


def sequential_graph(nodes, edges, colors):
    """``ColoredGraph.from_edges``' reference: one call per node and per
    edge, edges in sorted order."""
    g = ColoredGraph()
    for v in nodes:
        g.add_node(v)
    for (u, v), paint in sorted(zip(map(sorted, edges), colors)):
        g.add_edge(u, v)
        own = g.edge(u, v)  # the graph's own color set, repainted in place
        own.clear()
        own.update(paint)
    return g


def graph_layout(g: ColoredGraph) -> tuple[list, list]:
    """Everything iteration order shows: nodes with their neighbor sets
    in set order, and edge keys with their colors in insertion order."""
    return ([(v, list(g.neighbors(v))) for v in g.node_set], list(g.edges()))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 40), p=st.floats(0, 1), seed=st.integers(0, 10_000))
def test_from_edges_builds_what_add_edge_builds(n, p, seed):
    rng = random.Random(seed)
    nodes = rng.sample(range(3 * n), n)  # unsorted, sparse ids
    edges = [(v, u) if rng.random() < 0.5 else (u, v)
             for i, u in enumerate(nodes) for v in nodes[i + 1:] if rng.random() < p]
    rng.shuffle(edges)
    black = ColoredGraph.from_edges(nodes, edges)
    assert graph_layout(black) == graph_layout(
        sequential_graph(nodes, edges, [[BLACK]] * len(edges)))
    assert black.integrity_errors() == []
    # repainted in input order, as load_snapshot repaints a snapshot's edges
    colors = [rng.sample([BLACK, 0, 1, 2], rng.randrange(3)) for _ in edges]
    for (u, v), paint in zip(edges, colors):
        own = black.edge(u, v)
        own.clear()
        own.update(paint)
    assert graph_layout(black) == graph_layout(sequential_graph(nodes, edges, colors))


@pytest.mark.parametrize("nodes, edges, error, message", [
    ([0, 1, 2, 3], [(0, 1), (3, 3)], SelfLoop, "self loop (3,3)"),
    ([0, 1, 2], [(1, 2), (0, 1), (1, 2)], GraphError, "edge (1,2) already exists"),
    ([0, 1, 2], [(1, 2), (0, 1), (2, 1)], GraphError, "edge (1,2) already exists"),
    ([0, 1, 2], [(0, 1), (1, 9)], UnknownNode, "endpoint of (1,9) not present"),
    ([0, 1, 2, 1], [(0, 1)], DuplicateNode, "node 1 already present"),
    # ids a CSR snapshot cannot hold as int64, which Csr.of overflowed on
    ([0, 2**63], [(0, 2**63)], NodeIdOutOfRange,
     f"node id {2**63} is not in [0, {2**63 - 1}]"),
    ([0, -1, 2], [(0, -1)], NodeIdOutOfRange, f"node id -1 is not in [0, {2**63 - 1}]"),
])
def test_from_edges_rejects_what_add_edge_rejects(nodes, edges, error, message):
    with pytest.raises(error) as bulk:
        ColoredGraph.from_edges(nodes, edges)
    with pytest.raises(error) as one_by_one:
        sequential_graph(nodes, edges, [[BLACK]] * len(edges))
    with pytest.raises(error) as baseline:
        ShadowGraph.from_edges(nodes, edges)
    assert str(bulk.value) == str(one_by_one.value) == str(baseline.value) == message


def test_csr_connected_edge_cases():
    assert csr_connected(Csr.of(ColoredGraph()))
    assert csr_connected(Csr.of(graph_from_edges([5], [])))
    assert not csr_connected(Csr.of(graph_from_edges([0, 1, 2], [(0, 1)])))  # isolated 2
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    assert not csr_connected(Csr.of(graph_from_edges(range(6), triangles)))
    assert csr_connected(Csr.of(graph_from_edges(range(6), triangles + [(2, 3)])))
    # a shadow keeps its dead nodes, so a dead hub still joins the leaves
    sh = ShadowGraph.from_edges(range(4), [(0, 1), (0, 2), (0, 3)])
    sh.mark_dead(0)
    assert csr_connected(Csr.of(sh))
    assert not csr_connected(Csr.of(graph_from_edges(sorted(sh.alive), [])))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 14), p=st.floats(0, 1), split=st.integers(0, 14),
       dead=st.sets(st.integers(0, 13)), seed=st.integers(0, 10_000))
def test_csr_connected_matches_is_connected(n, p, split, dead, seed):
    # edges never cross position *split*, so two components are common
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u < split) == (v < split) and rng.random() < p]
    sh = ShadowGraph.from_edges(range(n), edges)
    for v in sorted(dead & set(range(n))):
        sh.mark_dead(v)
    live = graph_from_edges(sorted(sh.alive), [(u, v) for u, v in edges
                                                if u in sh.alive and v in sh.alive])
    for view in (live, sh):
        assert csr_connected(Csr.of(view)) == is_connected(view)


def test_shadow_insert():
    sh = ShadowGraph.from_edges([0, 1], [(0, 1)])
    sh.insert(2, (0, 1))
    assert sh.edges == {(0, 1), (0, 2), (1, 2)}
    assert sh.alive == {0, 1, 2} and sh.max_node == 2

    sh.mark_dead(2)  # a delete toggles liveness and counts the dead
    assert sh.edges == {(0, 1), (0, 2), (1, 2)}  # untouched
    assert sh.alive == {0, 1}
    assert len(sh.neighbors(2)) == 2  # full baseline degree still counts dead edges
    assert [sh.dead_degree(v) for v in (0, 1, 2)] == [1, 1, 0]
    with pytest.raises(UnknownNode, match="node 2 is not alive"):
        sh.mark_dead(2)
    with pytest.raises(UnknownNode, match="node 9 never existed"):
        sh.mark_dead(9)

    with pytest.raises(DuplicateNode, match="node 0 already recorded"):
        sh.insert(0, ())
    with pytest.raises(UnknownNode, match="neighbor 9 never existed"):
        sh.insert(3, (0, 9))
    with pytest.raises(UnknownNode, match="neighbor 3 never existed"):
        sh.insert(3, (3,))
    # a refused insert records nothing
    assert sh.node_set == {0, 1, 2} and sh.max_node == 2
    assert sh.neighbors(0) == {1, 2}
    sh.insert(3, (0, 2))  # a recorded dead neighbor counts from the start
    assert sh.dead == {0: 1, 1: 1, 3: 1}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)), min_size=1, max_size=40))
def test_shadow_is_append_only(script):
    sh = ShadowGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    next_id = 3
    for do_insert, pick in script:
        nodes_before = sh.node_set
        edges_before = sh.edges
        alive = sorted(sh.alive)
        if do_insert or not alive:
            nbrs = tuple(alive[: pick % 3])
            sh.insert(next_id, nbrs)
            next_id += 1
        else:
            sh.mark_dead(alive[pick % len(alive)])
        assert nodes_before <= sh.node_set
        assert edges_before <= sh.edges
        assert sh.alive <= sh.node_set
        # each node's dead count is its baseline neighbors not alive
        assert {v: sh.dead_degree(v) for v in sh.nodes} == {
            v: len(sh.neighbors(v) - sh.alive) for v in sh.nodes}


def test_only_graph_module_touches_graph_internals():
    src = Path(xhealsim.__file__).parent
    offenders = [f"{path.name}:{no}"
                 for path in sorted(src.glob("*.py")) if path.name != "graph.py"
                 for no, line in enumerate(path.read_text().splitlines(), start=1)
                 if re.search(r"\._(adj|edges|csr)\b", line)]
    assert offenders == []


# -- CSR snapshots ----------------------------------------------------------


def snapshot_adjacency(csr: Csr) -> dict[int, set[int]]:
    """The adjacency a snapshot encodes, keyed by node id."""
    return {int(v): set(csr.ids[csr.indices[csr.indptr[i]:csr.indptr[i + 1]]].tolist())
            for i, v in enumerate(csr.ids)}


def view_adjacency(view) -> dict[int, set[int]]:
    return {v: set(view.neighbors(v)) for v in view.node_set}


LIVE_MUTATIONS = {
    "add_node": lambda g: g.add_node(9),
    "remove_node": lambda g: g.remove_node(1),
    "add_edge": lambda g: g.add_edge(0, 3),
    # a recolor that creates an edge, and one that deletes an edge
    "ensure_edge_color": lambda g: g.recolor([], [(5, [(0, 3)])]),
    "purge_colorless": lambda g: g.recolor([(BLACK, [(0, 1)])], []),
}


@pytest.mark.parametrize("mutation", sorted(LIVE_MUTATIONS))
def test_live_snapshot_is_rebuilt_after_each_adjacency_change(mutation):
    g = graph_from_edges([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    before = Csr.of(g)
    assert Csr.of(g) is before
    LIVE_MUTATIONS[mutation](g)
    after = Csr.of(g)
    assert snapshot_adjacency(after) == view_adjacency(g) != snapshot_adjacency(before)
    assert Csr.of(g) is after


def test_recoloring_keeps_the_live_snapshot():
    g = graph_from_edges([0, 1, 2], [(0, 1), (1, 2)])
    g.recolor([], [(5, [(0, 1)])])
    snap = Csr.of(g)
    assert g.recolor([(5, [(0, 1)])], []) == (0, 0, 0)
    assert Csr.of(g) is snap
    # drained by the strip, recolored by the paint, so kept
    assert g.recolor([(BLACK, [(0, 1)])], [(7, [(0, 1)])]) == (0, 1, 0)
    assert Csr.of(g) is snap
    assert snapshot_adjacency(snap) == view_adjacency(g)
    with pytest.raises(ValueError):
        snap.indices[0] = 2  # shared between callers, so read-only


SHADOW_MUTATIONS = {
    "insert": lambda sh: sh.insert(5, (0, 2)),
}


@pytest.mark.parametrize("mutation", sorted(SHADOW_MUTATIONS))
def test_shadow_snapshot_is_rebuilt_after_each_adjacency_change(mutation):
    sh = ShadowGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    before = Csr.of(sh)
    SHADOW_MUTATIONS[mutation](sh)
    after = Csr.of(sh)
    assert snapshot_adjacency(after) == view_adjacency(sh) != snapshot_adjacency(before)
    assert Csr.of(sh) is after
    sh.mark_dead(1)  # a deletion only toggles liveness
    assert Csr.of(sh) is after


# -- pair distances -----------------------------------------------------------


def oracle_distances(view, pairs) -> list[int]:
    return [bfs_oracle(view, u).get(v, -1) for u, v in pairs]


def pair_distances(view, pairs) -> list[int]:
    csr = Csr.of(view)
    dist = bfs_distances(csr, csr.positions([u for u, _ in pairs]),
                         csr.positions([v for _, v in pairs]))
    assert dist.dtype == np.int32
    return dist.tolist()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 100), p=st.floats(0, 0.12), seed=st.integers(0, 10_000),
       pair_count=st.integers(0, 300), shadow=st.booleans())
def test_bfs_distances_match_per_source_oracle(n, p, seed, pair_count, shadow):
    rng = random.Random(seed)
    ids = [3 * i + 1 for i in range(n)]  # sparse ids exercise the position lookup
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p]
    if shadow:
        view = ShadowGraph.from_edges(ids, edges)
        for v in rng.sample(ids, n // 2):
            view.mark_dead(v)  # dead nodes still relay baseline paths
        pool = sorted(view.alive)
    else:
        view = graph_from_edges(ids, edges)
        pool = ids
    if not pool:
        return
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(pair_count)]
    pairs += [(pool[0], pool[0])]  # source == target
    assert pair_distances(view, pairs) == oracle_distances(view, pairs)


def test_bfs_distances_across_several_words():
    # a 150-node path plus a triangle and isolated nodes: 150 distinct
    # sources fill three 64-bit words
    path = list(range(150))
    edges = list(zip(path, path[1:])) + [(200, 201), (201, 202), (200, 202)]
    g = graph_from_edges(path + [200, 201, 202, 300, 301], edges)
    rng = random.Random(4)
    pairs = [(u, rng.choice(path)) for u in path] + [(u, 149 - u) for u in path]
    pairs += [(0, 200), (200, 202), (300, 300), (300, 301), (5, 301), (149, 0)]
    got = pair_distances(g, pairs)
    assert got == oracle_distances(g, pairs)
    assert got[-6:] == [-1, 1, 0, -1, -1, 149]


def test_bfs_distances_with_no_pairs_or_no_edges():
    g = graph_from_edges([0, 1], [])
    assert pair_distances(g, []) == []
    assert pair_distances(g, [(0, 1), (1, 1)]) == [-1, 0]
