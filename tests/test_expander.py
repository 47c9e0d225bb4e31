import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    certificate_oracle,
    expansion_exact_oracle,
    expansion_oracle,
    index_arrays,
    random_adjacency,
)
from xhealsim import expander, metrics
from xhealsim.expander import (
    HARD_ENUMERATION_CEILING,
    CloudTopology,
    ExpanderConfig,
    RetriesExhausted,
    TooLarge,
    TopologyKind,
    ZeroNodes,
    _cheeger_lower_bound,
    _pairing_attempt,
    _spectral_gate,
    build_topology,
    expansion_exact,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ExpanderConfig(kappa=5)
    with pytest.raises(ValueError):
        ExpanderConfig(kappa=2)
    with pytest.raises(ValueError):
        ExpanderConfig(alpha_target=Fraction(0))


def test_config_rejects_exact_limit_beyond_the_enumeration_ceiling():
    assert ExpanderConfig(exact_limit=HARD_ENUMERATION_CEILING).exact_limit == 26
    with pytest.raises(ValueError, match="exact_limit must be in"):
        ExpanderConfig(exact_limit=HARD_ENUMERATION_CEILING + 1)
    with pytest.raises(ValueError, match="exact_limit must be in"):
        ExpanderConfig(exact_limit=1)


def test_clique_branch():
    cfg = ExpanderConfig()
    topo, _ = build_topology([3, 1, 2], cfg, random.Random(0))
    assert topo.kind is TopologyKind.CLIQUE
    assert topo.edges == {(1, 2), (1, 3), (2, 3)}
    assert topo.certified_expansion == Fraction(2)  # ceil(3/2)

    single, _ = build_topology([9], cfg, random.Random(0))
    assert single.edges == frozenset() and single.certified_expansion == 0


def test_clique_boundary_at_kappa_plus_one():
    cfg = ExpanderConfig(kappa=6)
    at_boundary, _ = build_topology(list(range(7)), cfg, random.Random(1))
    assert at_boundary.kind is TopologyKind.CLIQUE
    assert len(at_boundary.edges) == 21

    past_boundary, _ = build_topology(list(range(8)), cfg, random.Random(1))
    assert past_boundary.kind is TopologyKind.REGULAR_EXPANDER
    assert len(past_boundary.edges) == 8 * 6 // 2


def test_clique_certificates_match_exact_expansion():
    cfg = ExpanderConfig()
    for m in range(2, 8):
        topo, _ = build_topology(list(range(m)), cfg, random.Random(0))
        adj = {v: set() for v in range(m)}
        for u, v in topo.edges:
            adj[u].add(v)
            adj[v].add(u)
        assert topo.certified_expansion == expansion_exact(*index_arrays(adj), limit=10)


def test_expander_branch_regular_and_deterministic():
    cfg = ExpanderConfig()
    members = list(range(100, 120))
    a, _ = build_topology(members, cfg, random.Random(77))
    b, _ = build_topology(members, cfg, random.Random(77))
    assert a.edges == b.edges
    assert len(a.edges) == 20 * 6 // 2
    degree = {v: 0 for v in members}
    for u, v in a.edges:
        assert u != v
        degree[u] += 1
        degree[v] += 1
    assert set(degree.values()) == {6}
    assert all(u < v for u, v in a.edges)  # canonical keys, so no pair twice
    assert a.certified_expansion >= cfg.alpha_target


def test_retries_exhausted():
    cfg = ExpanderConfig(kappa=4, alpha_target=Fraction(50), max_retries=3)
    with pytest.raises(RetriesExhausted):
        build_topology(list(range(10)), cfg, random.Random(0))


GATE_ALPHAS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def on_positions(m: int, edges) -> tuple[int, np.ndarray, np.ndarray]:
    """Graph arguments for the edges of a graph on positions 0..m-1."""
    ends = np.array(sorted(edges), dtype=np.intp).reshape(-1, 2)
    return m, ends[:, 0], ends[:, 1]


def regular_draw(m: int, kappa: int, rng: random.Random):
    """Graph arguments of the first pairing draw on m nodes that does
    not dead-end, as build_topology hands them to the gate."""
    while (edges := _pairing_attempt(m, kappa, rng)) is None:
        pass
    return on_positions(m, edges)


@pytest.mark.parametrize("kappa", [4, 6, 8])
def test_spectral_gate_agrees_with_the_rounded_cheeger_bound(kappa):
    rng = random.Random(kappa)
    for m in range(kappa + 2, 201, 3):
        graph = regular_draw(m, kappa, rng)
        cert = _cheeger_lower_bound(*graph)
        for alpha in GATE_ALPHAS:
            assert _spectral_gate(*graph, alpha) == (cert >= alpha), (m, alpha, cert)


def cycle(n: int):
    return index_arrays({i: {(i - 1) % n, (i + 1) % n} for i in range(n)})


def clique(n: int):
    return index_arrays({i: set(range(n)) - {i} for i in range(n)})


def test_spectral_gate_at_the_rounding_step_of_a_known_spectrum():
    # the certificate lambda2/2 rounded as _cheeger_lower_bound rounds it:
    # the gate passes at it and 2^-33 below, and fails 2^-33 above and at
    # a target between two rounding steps, which the rounded bound misses
    known = ([(f"C{n}", cycle(n), 2 - 2 * math.cos(2 * math.pi / n)) for n in range(8, 60)]
             + [(f"K{n}", clique(n), n) for n in range(3, 41)])
    step = Fraction(1, 2**33)
    for name, graph, lam in known:
        cert = Fraction(int((lam - 1e-8) * 2**32), 2**33)
        assert _cheeger_lower_bound(*graph) == cert, name
        assert _spectral_gate(*graph, cert), name
        assert _spectral_gate(*graph, cert - step), name
        assert not _spectral_gate(*graph, cert + step), name
        assert not _spectral_gate(*graph, cert + step / 2), name


def test_spectral_gate_fails_a_disconnected_graph():
    two_cliques = {i: {j for j in range(10) if j != i and j // 5 == i // 5} for i in range(10)}
    for alpha in [Fraction(1, 2**30)] + GATE_ALPHAS:
        assert not _spectral_gate(*index_arrays(two_cliques), alpha)


def test_build_topology_records_the_bound_its_certificate_proved():
    # alpha 1 on 10-14 nodes of degree 4: lambda2/2 clears it on some
    # draws, only the exact cut enumeration on others
    cfg = ExpanderConfig(kappa=4, alpha_target=Fraction(1))
    passes = set()
    for m in (10, 12, 14):
        for seed in range(6):
            topo, _ = build_topology(list(range(m)), cfg, random.Random(seed))
            graph = on_positions(m, topo.edges)
            if _spectral_gate(*graph, cfg.alpha_target):
                passes.add("spectral")
                assert topo.certified_expansion == cfg.alpha_target
            else:
                passes.add("exact")
                assert topo.certified_expansion == expansion_exact(*graph, limit=20) >= 1
    assert passes == {"spectral", "exact"}


def test_eigensolve_runs_only_for_draws_that_fail_the_gate(monkeypatch):
    verdicts, solves = [], []
    gate, solve = expander._spectral_gate, metrics.lambda2_of_adjacency
    monkeypatch.setattr(expander, "_spectral_gate",
                        lambda *args: verdicts.append(gate(*args)) or verdicts[-1])
    monkeypatch.setattr(metrics, "lambda2_of_adjacency",
                        lambda *args: solves.append(solve(*args)) or solves[-1])
    cfg = ExpanderConfig(kappa=4, alpha_target=Fraction(2, 5))
    for seed in range(6):
        build_topology(list(range(40)), cfg, random.Random(seed))
    assert verdicts.count(True) == 6 and verdicts.count(False) > 0
    assert len(solves) == verdicts.count(False)


@pytest.mark.parametrize("adjacency,expected", [
    ({0: {1}, 1: {0}}, Fraction(1)),                                   # K2
    ({i: {(i - 1) % 6, (i + 1) % 6} for i in range(6)}, Fraction(2, 3)),  # C6
    ({i: {j for j in range(4) if j != i} for i in range(4)}, Fraction(2)),  # K4
    ({0: {1}, 1: {0}, 2: {3}, 3: {2}}, Fraction(0)),                   # disconnected
])
def test_expansion_exact_known_values(adjacency, expected):
    assert expansion_exact(*index_arrays(adjacency), limit=10) == expected


def test_expansion_exact_errors():
    with pytest.raises(ZeroNodes):
        expansion_exact(*index_arrays({0: set()}), limit=10)
    with pytest.raises(TooLarge):
        expansion_exact(*index_arrays({i: set() for i in range(11)}), limit=10)
    with pytest.raises(TooLarge):
        expansion_exact(*index_arrays({i: set() for i in range(27)}), limit=40)  # hard ceiling


def test_expansion_exact_matches_independent_enumerator():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 10)
        adj = random_adjacency(n, 0.5, rng)
        assert expansion_exact(*index_arrays(adj), limit=10) == expansion_oracle(adj)


def test_verify_cloud_recomputes_certificates():
    cfg = ExpanderConfig()
    clique4, _ = build_topology([0, 1, 2, 3], cfg, random.Random(0))
    assert certificate_oracle(range(4), clique4.edges, cfg) == Fraction(2)
    clique2, _ = build_topology([0, 1], cfg, random.Random(0))
    assert certificate_oracle(range(2), clique2.edges, cfg) == Fraction(1)

    # a C6 presented as a cloud certifies below alpha_target = 1
    c6 = [(i, (i + 1) % 6) for i in range(5)] + [(0, 5)]
    assert certificate_oracle(range(6), c6, cfg) == Fraction(2, 3) < cfg.alpha_target

    big, _ = build_topology(list(range(30)), cfg, random.Random(3))
    # spectral path, still a lower bound
    assert certificate_oracle(range(30), big.edges, cfg) >= 0


@st.composite
def graphs(draw, min_nodes, max_nodes):
    """Adjacency over non-contiguous ids, any edge density, isolated
    nodes and several components included."""
    n = draw(st.integers(min_nodes, max_nodes))
    ids = sorted(draw(st.sets(st.integers(0, 10_000), min_size=n, max_size=n)))
    p = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    adj = {v: set() for v in ids}
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def pendant_pair(core: int) -> dict[int, set[int]]:
    """A clique on ids 0..core-1 and a path core-1 - core - core+1: the
    minimum, 1/2, is the pendant pair, the side without node 0."""
    adj = {i: {j for j in range(core) if j != i} for i in range(core)}
    adj[core - 1].add(core)
    adj[core] = {core - 1, core + 1}
    adj[core + 1] = {core}
    return adj


@settings(max_examples=80, deadline=None)
@given(adj=graphs(2, 12), block=st.sampled_from([1, 2, 3, expander.LOW_BLOCK_BITS]))
@example(adj={3: set(), 10: {20}, 20: {10}}, block=1)  # isolated node
@example(adj={1: {4, 7}, 4: {1, 7}, 7: {1, 4}, 9: {12}, 12: {9}}, block=2)  # two parts
@example(adj=pendant_pair(5), block=2)
def test_expansion_exact_matches_subset_enumeration(adj, block):
    # a block of 1-3 nodes leaves most nodes to the Gray-code walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expander, "LOW_BLOCK_BITS", block)
        assert expansion_exact(*index_arrays(adj), limit=12) == expansion_oracle(adj)


@settings(max_examples=30, deadline=None)
@given(adj=graphs(13, 22))
@example(adj=pendant_pair(14))  # 16 nodes, the pair past the 14-node block
@example(adj={v: set() for v in range(15)})  # the block is exactly nodes 1..14
@example(adj={v: set() for v in range(16)})  # one node past the block
def test_expansion_exact_matches_whole_table_kernel(adj):
    assert expansion_exact(*index_arrays(adj), limit=22) == expansion_exact_oracle(adj)


def circulant(n: int, offsets: tuple[int, ...]) -> dict[int, set[int]]:
    return {i: {(i + d) % n for d in offsets} | {(i - d) % n for d in offsets}
            for i in range(n)}


@pytest.mark.parametrize("n", [24, HARD_ENUMERATION_CEILING])
def test_expansion_exact_memory_is_bounded(n):
    graph = index_arrays(circulant(n, (1, 2, 5)))  # 6-regular
    tracemalloc.start()
    try:
        value = expansion_exact(*graph, limit=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < value <= 6
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB at n={n}"


def without(topology, node):
    """*topology* as the engine hands it back after *node* died: the
    dead member's edges scrubbed, everything else kept (all of it when
    *node* is None)."""
    return CloudTopology(topology.kind, frozenset(e for e in topology.edges if node not in e),
                         topology.certified_expansion)


def expander_topology(adjacency, cfg):
    edges = frozenset((min(u, v), max(u, v)) for u in adjacency for v in adjacency[u])
    return CloudTopology(TopologyKind.REGULAR_EXPANDER, edges, cfg.alpha_target)


def degrees(edge_list):
    return Counter(end for edge in edge_list for end in edge)


@pytest.mark.parametrize("kappa,m", [(4, 12), (6, 16), (6, 30), (8, 40)])
def test_splice_keeps_a_simple_regular_cloud_on_exactly_its_members(kappa, m):
    cfg = ExpanderConfig(kappa=kappa, alpha_target=Fraction(1, 2))
    for seed in range(5):
        rng = random.Random(seed)
        previous, _ = build_topology(list(range(m)), cfg, rng)
        gone = seed % m
        neighbours = {u if v == gone else v for u, v in previous.edges if gone in (u, v)}
        members = [x for x in range(m) if x != gone]
        scrubbed = without(previous, gone)
        topo, spliced = build_topology(members, cfg, rng, previous=scrubbed)
        assert spliced and topo.kind is TopologyKind.REGULAR_EXPANDER
        assert all(u < v for u, v in topo.edges)
        assert degrees(topo.edges) == {x: kappa for x in members}
        added = set(topo.edges) - set(scrubbed.edges)
        assert set(scrubbed.edges) <= set(topo.edges) and len(added) == kappa // 2
        assert {end for edge in added for end in edge} == neighbours
        assert certificate_oracle(members, topo.edges, cfg) >= cfg.alpha_target


def test_splice_pairs_only_nodes_that_are_not_yet_neighbours():
    # in the circulant C_12(1, 2), node 0's neighbours 1, 2, 10, 11 are
    # joined by 1-2, 10-11 and 11-1, so of the three ways to pair them
    # only {1-10, 2-11} adds no existing edge
    cfg = ExpanderConfig(kappa=4, alpha_target=Fraction(1, 2))
    scrubbed = without(expander_topology(circulant(12, (1, 2)), cfg), 0)
    splices = 0
    for seed in range(20):
        topo, spliced = build_topology(list(range(1, 12)), cfg, random.Random(seed),
                                       previous=scrubbed)
        if spliced:
            splices += 1
            assert set(topo.edges) - set(scrubbed.edges) == {(1, 10), (2, 11)}
        else:  # eight shuffles clashed, each with odds 2/3
            assert degrees(topo.edges) == {x: 4 for x in range(1, 12)}
    assert splices >= 15


def test_splice_that_cannot_avoid_an_existing_edge_falls_back_to_a_redraw():
    # node 0's neighbours 1-4 form a K4, so every pairing clashes
    cfg = ExpanderConfig(kappa=4, alpha_target=Fraction(1, 2))
    adjacency = {i: {j for j in range(5) if j != i} for i in range(5)}
    adjacency.update({5 + i: {5 + j for j in nbrs} for i, nbrs in circulant(10, (1, 2)).items()})
    scrubbed = without(expander_topology(adjacency, cfg), 0)
    topo, spliced = build_topology(list(range(1, 15)), cfg, random.Random(0), previous=scrubbed)
    assert not spliced and topo.kind is TopologyKind.REGULAR_EXPANDER
    assert degrees(topo.edges) == {x: 4 for x in range(1, 15)}


def test_replacement_inherits_the_departed_members_edges():
    cfg = ExpanderConfig(kappa=6, alpha_target=Fraction(1, 2))
    previous, _ = build_topology(list(range(30)), cfg, random.Random(4))
    gone, newcomer = 7, 99
    scrubbed = without(previous, gone)
    members = [x for x in range(30) if x != gone] + [newcomer]
    topo, spliced = build_topology(members, cfg, random.Random(5), previous=scrubbed)
    assert spliced
    inherited = {(min(u, v), max(u, v)) for u, v in
                 ((newcomer if u == gone else u, newcomer if v == gone else v)
                  for u, v in previous.edges)}
    assert topo.edges == inherited


def test_splice_that_fails_the_gate_falls_back_to_the_redraw_loop(monkeypatch):
    cfg = ExpanderConfig(kappa=6, alpha_target=Fraction(1, 2))
    previous, _ = build_topology(list(range(30)), cfg, random.Random(1))
    members = list(range(1, 30))
    gate, states = expander._gate_certificate, []

    def failing_first(m, u, v, cfg):
        if not states:  # the splice's certificate: the shuffle has drawn
            states.append(rng.getstate())
            return Fraction(0)
        return gate(m, u, v, cfg)

    monkeypatch.setattr(expander, "_gate_certificate", failing_first)
    rng = random.Random(2)
    topo, spliced = build_topology(members, cfg, rng, previous=without(previous, 0))
    assert not spliced and states
    # the same draws as a build without a previous topology from there on
    redraw = random.Random()
    redraw.setstate(states[0])
    assert build_topology(members, cfg, redraw) == (topo, False)


def test_splice_applies_only_to_one_member_lost_from_a_regular_expander():
    cfg = ExpanderConfig(kappa=6, alpha_target=Fraction(1, 2))
    previous, _ = build_topology(list(range(30)), cfg, random.Random(1))
    two_gone = without(without(previous, 0), 1)
    clique = CloudTopology(TopologyKind.CLIQUE, previous.edges, Fraction(15))
    for members, given in [(list(range(2, 30)), two_gone),         # two lost
                           (list(range(30)), previous),            # none lost
                           (list(range(1, 30)), without(clique, 0)),  # not an expander
                           (list(range(2, 30)), without(previous, 0))]:  # edge leaves members
        _, spliced = build_topology(members, cfg, random.Random(3), previous=given)
        assert not spliced


@settings(max_examples=60, deadline=None)
@given(kappa=st.sampled_from([4, 6, 8]), extra=st.integers(1, 30), drop=st.booleans(),
       newcomers=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@example(kappa=4, extra=1, drop=True, newcomers=6, seed=0).via("more newcomers than members")
def test_splice_of_a_lost_member_and_newcomers(kappa, extra, drop, newcomers, seed):
    # a certified cloud on 0..m-1 loses one member or none and gains
    # newcomers m..; a splice gives None or a simple kappa-regular
    # certified cloud on exactly the members that keeps every previous
    # edge but those a newcomer subdivided
    cfg = ExpanderConfig(kappa=kappa, alpha_target=Fraction(1, 2))
    m = kappa + 1 + extra
    rng = random.Random(seed)
    previous, _ = build_topology(list(range(m)), cfg, rng)
    gone = rng.randrange(m) if drop else None
    scrubbed = without(previous, gone)
    joined = list(range(m, m + newcomers))
    members = [x for x in range(m) if x != gone] + joined
    topo = expander._splice(scrubbed, members, cfg, rng)
    if not drop and not newcomers:
        assert topo is None  # nothing to mend
    if topo is None:
        return
    assert topo.kind is TopologyKind.REGULAR_EXPANDER
    assert all(u < v for u, v in topo.edges)
    assert degrees(topo.edges) == {x: kappa for x in members}
    # a subdivided edge's ends each took an edge to a newcomer, which a
    # later newcomer may have subdivided in turn
    newcomer_ends = {end for edge in topo.edges if set(edge) & set(joined) for end in edge}
    subdivided = scrubbed.edges - topo.edges
    assert {end for edge in subdivided for end in edge} <= newcomer_ends
    further = newcomers - drop if newcomers else 0
    assert len(subdivided) <= kappa // 2 * further
    assert topo.certified_expansion >= cfg.alpha_target
    assert certificate_oracle(members, topo.edges, cfg) >= cfg.alpha_target


def test_a_merge_grows_from_a_cloud_that_lost_a_member():
    # the first newcomer takes the departed member's kappa edges, each
    # further one subdivides kappa/2 vertex-disjoint edges
    cfg = ExpanderConfig(kappa=6, alpha_target=Fraction(1, 2))
    grown = 0
    for seed in range(5):
        rng = random.Random(seed)
        previous, _ = build_topology(list(range(40)), cfg, rng)
        scrubbed = without(previous, 0)
        orphans = {u if v == 0 else v for u, v in previous.edges if 0 in (u, v)}
        members = list(range(1, 40)) + [50, 51, 52]
        topo, spliced = build_topology(members, cfg, rng, previous=scrubbed)
        assert degrees(topo.edges) == {x: 6 for x in members}
        if spliced:
            grown += 1
            # at most three from each of 51 and 52: 52 may subdivide an
            # edge 51 just took
            assert 5 <= len(scrubbed.edges - topo.edges) <= 6
            assert orphans <= {end for edge in topo.edges if {50, 51, 52} & set(edge)
                               for end in edge}
    assert grown >= 4
