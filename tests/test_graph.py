import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xhealsim
from helpers import density, density_oracle, graph_from_edges, random_adjacency
from xhealsim.adversary import Event
from xhealsim.graph import (
    BLACK,
    ColoredGraph,
    ColorAbsent,
    DuplicateNode,
    EmptySubset,
    SelfLoop,
    ShadowGraph,
    UnknownEdge,
    UnknownNode,
    black_neighbors,
    edge_key,
    is_connected,
)


def test_add_node_basics():
    g = ColoredGraph()
    g.add_node(0)
    assert g.node_set == {0} and g.neighbors(0) == set()
    g.add_node(1)
    assert g.node_set == {0, 1} and g.edge_count() == 0
    with pytest.raises(DuplicateNode):
        g.add_node(0)


def test_remove_node_returns_records():
    g = graph_from_edges([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    removed = g.remove_node(0)
    assert len(removed) == 3
    assert all(rec.colors == {BLACK} for rec in removed)
    assert g.node_set == {1, 2, 3} and g.edge_count() == 0


def test_remove_node_keeps_color_sets_intact():
    g = graph_from_edges([0, 1], [(0, 1)])
    g.ensure_edge_color(0, 1, 1)
    (rec,) = g.remove_node(0)
    assert rec.colors == {BLACK, 1}


def test_remove_isolated_node():
    g = ColoredGraph()
    g.add_node(5)
    assert g.remove_node(5) == []
    with pytest.raises(UnknownNode):
        g.remove_node(5)


def test_ensure_edge_color_reuse_and_create():
    g = graph_from_edges([0, 1, 2], [(0, 1)])
    assert g.ensure_edge_color(0, 1, 7) is False  # reused
    assert g.edge(0, 1).colors == {BLACK, 7}
    assert g.ensure_edge_color(1, 2, 7) is True  # created
    assert g.edge(1, 2).colors == {7}
    with pytest.raises(SelfLoop):
        g.ensure_edge_color(1, 1, 7)
    with pytest.raises(UnknownNode):
        g.ensure_edge_color(0, 9, 7)
    with pytest.raises(ValueError):
        g.ensure_edge_color(0, 1, BLACK)


def test_strip_color_variants():
    g = graph_from_edges([0, 1], [(0, 1)])
    g.ensure_edge_color(0, 1, 3)
    assert g.strip_color(0, 1, 3) is False  # still black
    assert g.edge(0, 1).colors == {BLACK}

    g2 = ColoredGraph()
    for v in (0, 1):
        g2.add_node(v)
    g2.ensure_edge_color(0, 1, 3)
    g2.ensure_edge_color(0, 1, 5)
    assert g2.strip_color(0, 1, 3) is False
    assert g2.edge(0, 1).colors == {5}
    assert g2.strip_color(0, 1, 5) is True  # drained

    with pytest.raises(ColorAbsent):
        g.strip_color(0, 1, 99)
    with pytest.raises(UnknownEdge):
        g.strip_color(0, 99, 3)


def test_purge_if_colorless():
    g = ColoredGraph()
    for v in (0, 1):
        g.add_node(v)
    g.ensure_edge_color(0, 1, 3)
    g.strip_color(0, 1, 3)
    assert g.integrity_errors() == ["edge (0, 1) colorless"]
    assert g.purge_colorless([(0, 1)]) == 1
    assert not g.has_edge(0, 1)

    g.ensure_edge_color(0, 1, 3)
    g.strip_color(0, 1, 3)
    g.ensure_edge_color(0, 1, 9)  # recolored during rebuild
    assert g.purge_colorless([(0, 1)]) == 0
    assert g.has_edge(0, 1) and g.integrity_errors() == []

    with pytest.raises(UnknownEdge):
        g.purge_colorless([(0, 5)])


def test_black_neighbors():
    g = graph_from_edges([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    removed = g.remove_node(0)
    assert black_neighbors(removed, 0) == {1, 2, 3}
    assert black_neighbors([], 0) == set()

    g2 = graph_from_edges([0, 1, 2], [(0, 1)])
    g2.ensure_edge_color(0, 1, 1)
    g2.ensure_edge_color(0, 2, 1)
    removed = g2.remove_node(0)
    assert black_neighbors(removed, 0) == {1}


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
        assert density(g, subset) == density_oracle(g.has_edge, subset)


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


def test_shadow_apply():
    sh = ShadowGraph()
    sh.seed_initial([0, 1], [(0, 1)])
    sh.apply(Event("ins", 2, (0, 1)))
    assert sh.edges == {(0, 1), (0, 2), (1, 2)}
    assert sh.alive == {0, 1, 2}

    sh.apply(Event("del", 2))
    assert sh.edges == {(0, 1), (0, 2), (1, 2)}  # untouched
    assert sh.alive == {0, 1}
    assert sh.degree(2) == 2  # full baseline degree still counts dead edges

    with pytest.raises(UnknownNode):
        sh.apply(Event("del", 2))
    with pytest.raises(DuplicateNode):
        sh.apply(Event("ins", 0, ()))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)), min_size=1, max_size=40))
def test_shadow_is_append_only(script):
    sh = ShadowGraph()
    sh.seed_initial([0, 1, 2], [(0, 1), (1, 2)])
    next_id = 3
    for do_insert, pick in script:
        nodes_before = set(sh.nodes)
        edges_before = set(sh.edges)
        alive = sorted(sh.alive)
        if do_insert or not alive:
            nbrs = tuple(alive[: pick % 3])
            sh.apply(Event("ins", next_id, nbrs))
            next_id += 1
        else:
            sh.apply(Event("del", alive[pick % len(alive)]))
        assert nodes_before <= sh.nodes
        assert edges_before <= sh.edges
        assert sh.alive <= sh.nodes


def test_only_graph_module_touches_graph_internals():
    src = Path(xhealsim.__file__).parent
    offenders = [f"{path.name}:{no}"
                 for path in sorted(src.glob("*.py")) if path.name != "graph.py"
                 for no, line in enumerate(path.read_text().splitlines(), start=1)
                 if re.search(r"\._(adj|edges)\b", line)]
    assert offenders == []
