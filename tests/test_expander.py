import itertools
import math
import pickle
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
from xhealsim import engine, expander
from xhealsim.adversary import Strategy, gen_trace
from xhealsim.engine import Healer
from xhealsim.expander import (
    HARD_ENUMERATION_CEILING,
    CloudTopology,
    ExpanderConfig,
    RetriesExhausted,
    TooLarge,
    ZeroNodes,
    _cheeger_lower_bound,
    _pairing_attempt,
    _spectral_gate,
    build_topology,
    expansion_exact,
    is_clique,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ExpanderConfig(kappa=5)
    with pytest.raises(ValueError):
        ExpanderConfig(kappa=2)
    with pytest.raises(ValueError):
        ExpanderConfig(alpha_target=Fraction(0))


@pytest.mark.parametrize("kappa,ceiling", [(4, Fraction(8, 3)), (6, Fraction(15, 4)),
                                           (8, Fraction(24, 5))])
def test_config_rejects_an_alpha_no_cloud_can_certify(kappa, ceiling):
    # kappa*ceil(m/2)/(m-1) bounds a kappa-regular cloud's expansion on m
    # nodes; over the non-clique sizes it is largest at m = kappa+3
    bound = max(Fraction(kappa * -(-m // 2), m - 1) for m in range(kappa + 2, 200))
    assert bound == ceiling == Fraction(kappa * (kappa + 4), 2 * (kappa + 2))
    assert ExpanderConfig(kappa=kappa, alpha_target=ceiling).alpha_target == ceiling
    with pytest.raises(ValueError, match="the most a non-clique"):
        ExpanderConfig(kappa=kappa, alpha_target=ceiling + Fraction(1, 2**40))


def test_config_rejects_exact_limit_beyond_the_enumeration_ceiling():
    assert ExpanderConfig(exact_limit=HARD_ENUMERATION_CEILING).exact_limit == 26
    with pytest.raises(ValueError, match="exact_limit must be in"):
        ExpanderConfig(exact_limit=HARD_ENUMERATION_CEILING + 1)
    with pytest.raises(ValueError, match="exact_limit must be in"):
        ExpanderConfig(exact_limit=1)


def test_clique_branch():
    cfg = ExpanderConfig()
    topo, _ = build_topology([3, 1, 2], cfg, random.Random(0))
    assert is_clique(topo)
    assert topo.edges == {(1, 2), (1, 3), (2, 3)}
    assert topo.certified_expansion == Fraction(2)  # ceil(3/2)

    single, _ = build_topology([9], cfg, random.Random(0))
    assert single.edges == frozenset() and single.certified_expansion == 0


def test_clique_boundary_at_kappa_plus_one():
    cfg = ExpanderConfig(kappa=6)
    at_boundary, _ = build_topology(list(range(7)), cfg, random.Random(1))
    assert is_clique(at_boundary)
    assert len(at_boundary.edges) == 21

    past_boundary, _ = build_topology(list(range(8)), cfg, random.Random(1))
    assert not is_clique(past_boundary)
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


@pytest.mark.parametrize("kappa", [4, 6, 8])
def test_dense_draws_are_simple_regular_on_exactly_their_members(kappa):
    cfg = ExpanderConfig(kappa=kappa)
    for m in range(kappa + 2, 2 * kappa + 1):
        members = random.Random(m).sample(range(1000), m)
        topo, spliced = build_topology(members, cfg, random.Random(m))
        again, _ = build_topology(members, cfg, random.Random(m))
        assert again == topo and not spliced
        assert not is_clique(topo)
        assert topo.certified_expansion >= cfg.alpha_target
        assert all(u < v for u, v in topo.edges)  # canonical keys: simple
        degree = Counter(itertools.chain.from_iterable(topo.edges))
        assert degree.keys() == set(members) and set(degree.values()) == {kappa}, m


@pytest.mark.parametrize("kappa", [4, 6, 8])
def test_a_cloud_of_kappa_plus_two_needs_one_draw(kappa):
    # the complement of a perfect matching: no draw dead-ends or fails the gate
    cfg = ExpanderConfig(kappa=kappa, max_retries=1)
    for seed in range(200):
        topo, _ = build_topology(list(range(kappa + 2)), cfg, random.Random(seed))
        assert len(topo.edges) == (kappa + 2) * kappa // 2


@st.composite
def drawn_shapes(draw):
    """(n, degree) of a pairing draw ``build_topology`` makes: a cloud of
    m members, kappa in {4, 6, 8}, is drawn directly above 2*kappa
    members and as the complement of degree m-1-kappa up to it."""
    kappa = draw(st.sampled_from([4, 6, 8]))
    m = draw(st.integers(kappa + 2, 60))
    return m, kappa if m > 2 * kappa else m - 1 - kappa


@settings(max_examples=150, deadline=None)
@given(shape=drawn_shapes(), seed=st.integers(0, 2**32 - 1))
@example(shape=(9, 4), seed=0).via("the smallest direct draw")
@example(shape=(13, 6), seed=1).via("the smallest directly drawn cloud at kappa 6")
@example(shape=(16, 7), seed=2).via("the densest complement draw")
def test_pairing_attempt_gives_a_simple_regular_graph_after_one_shuffle(shape, seed):
    # every clash is switched in, so one shuffle is the whole draw
    n, degree = shape
    shuffles, shuffle = [], expander.partial_shuffle
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expander, "partial_shuffle",
                   lambda items, rng: shuffles.append(1) or shuffle(items, rng))
        edges = _pairing_attempt(n, degree, random.Random(seed))
    assert len(shuffles) == 1 and edges is not None
    assert all(0 <= u < v < n for u, v in edges)  # pairs, no loop, each once
    assert degrees(edges) == {x: degree for x in range(n)}


def test_retries_exhausted():
    # 5/2 is below the bound kappa(kappa+4)/(2(kappa+2)) = 8/3 that the
    # config checks, but above 20/9, the most a 4-regular graph on 10
    # nodes can reach (its average half split)
    cfg = ExpanderConfig(kappa=4, alpha_target=Fraction(5, 2), max_retries=3)
    with pytest.raises(RetriesExhausted) as info:
        build_topology(list(range(10)), cfg, random.Random(0))
    exc = info.value
    assert exc.size == 10 and 0 < exc.best <= Fraction(20, 9)
    assert "on 10 nodes" in str(exc) and f"(best certificate {float(exc.best):.3f};" in str(exc)
    # the --jobs pool re-raises a worker's exception in the parent
    twin = pickle.loads(pickle.dumps(exc))
    assert type(twin) is RetriesExhausted and str(twin) == str(exc)
    assert (twin.size, twin.best) == (exc.size, exc.best)


GATE_ALPHAS = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def on_positions(m: int, edges) -> tuple[int, np.ndarray, np.ndarray]:
    """Array arguments for the edges of a graph on positions 0..m-1."""
    ends = np.array(sorted(edges), dtype=np.intp).reshape(-1, 2)
    return m, ends[:, 0], ends[:, 1]


def gate(graph, alpha: Fraction) -> bool:
    """The spectral gate's verdict at *alpha* on a regular *graph*, given
    as (n, degree, pairs).  The threshold comes from a config whose kappa
    is the degree made even and at least 4, which admits every alpha
    such a graph can certify."""
    kappa = max(4, graph[1] + graph[1] % 2)
    return _spectral_gate(*graph, ExpanderConfig(kappa=kappa, alpha_target=alpha).gate_threshold)


def cheeger(graph) -> Fraction:
    n, _, pairs = graph
    return _cheeger_lower_bound(*on_positions(n, pairs))


def regular_draw(m: int, kappa: int, rng: random.Random):
    """The first pairing draw on m nodes that does not dead-end, as
    (m, kappa, pairs), the graph build_topology hands to the gate."""
    while (edges := _pairing_attempt(m, kappa, rng)) is None:
        pass
    return m, kappa, edges


def complement_draw(m: int, kappa: int, rng: random.Random):
    """The pairs missing from the first (m-1-kappa)-regular pairing draw
    on m nodes that does not dead-end, as (m, kappa, pairs): how
    build_topology draws a cloud of at most 2*kappa members."""
    while (edges := _pairing_attempt(m, m - 1 - kappa, rng)) is None:
        pass
    return m, kappa, set(itertools.combinations(range(m), 2)) - edges


def dense_draws(kappa: int, rng: random.Random):
    """(m, graph) for a direct draw at every m in [kappa+2, 2*kappa+2]
    and a complement draw at every m in [kappa+2, 2*kappa]."""
    for m in range(kappa + 2, 2 * kappa + 3):
        yield m, regular_draw(m, kappa, rng)
        if m <= 2 * kappa:
            yield m, complement_draw(m, kappa, rng)


@pytest.mark.parametrize("kappa", [4, 6, 8])
def test_spectral_gate_agrees_with_the_rounded_cheeger_bound(kappa):
    rng = random.Random(kappa)
    sparse = ((m, regular_draw(m, kappa, rng)) for m in range(2 * kappa + 5, 201, 3))
    for m, graph in itertools.chain(dense_draws(kappa, rng), sparse):
        cert = cheeger(graph)
        for alpha in GATE_ALPHAS:
            assert gate(graph, alpha) == (cert >= alpha), (m, alpha, cert)


def test_spectral_gate_factors_only_where_the_degree_bound_cannot_decide(monkeypatch):
    # lambda2 >= 2*kappa + 2 - m on a kappa-regular graph, and the gate
    # needs lambda2 just above 2*alpha: past that bound it must not factor
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(len(a)) or cholesky(a))
    closed_form = set()
    for kappa in (4, 6, 8):
        rng = random.Random(kappa)
        for m, graph in dense_draws(kappa, rng):
            for alpha in GATE_ALPHAS:
                factored.clear()
                verdict = gate(graph, alpha)
                if 2 * kappa + 2 - m > 2 * alpha:
                    assert verdict and not factored, (kappa, m, alpha)
                    closed_form.add((kappa, alpha, m))
                else:
                    assert factored == [m], (kappa, m, alpha)
    assert {m for k, a, m in closed_form if (k, a) == (6, 1)} == set(range(8, 12))
    assert {m for k, a, m in closed_form if (k, a) == (6, Fraction(1, 2))} == set(range(8, 13))


def cycle(n: int):
    return n, 2, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def clique(n: int):
    return n, n - 1, list(itertools.combinations(range(n), 2))


def test_spectral_gate_at_the_rounding_step_of_a_known_spectrum():
    # the certificate lambda2/2 rounded as _cheeger_lower_bound rounds it:
    # the gate passes at it and 2^-33 below, and fails 2^-33 above and at
    # a target between two rounding steps, which the rounded bound misses
    known = ([(f"C{n}", cycle(n), 2 - 2 * math.cos(2 * math.pi / n)) for n in range(8, 60)]
             + [(f"K{n}", clique(n), n) for n in range(3, 41)])
    step = Fraction(1, 2**33)
    for name, graph, lam in known:
        cert = Fraction(int((lam - 1e-8) * 2**32), 2**33)
        assert cheeger(graph) == cert, name
        assert gate(graph, cert), name
        assert gate(graph, cert - step), name
        assert not gate(graph, cert + step), name
        assert not gate(graph, cert + step / 2), name


def test_spectral_gate_fails_a_disconnected_graph():
    two_cliques = [(i, j) for i, j in itertools.combinations(range(10), 2) if i // 5 == j // 5]
    for alpha in [Fraction(1, 2**30)] + GATE_ALPHAS:
        assert not gate((10, 4, two_cliques), alpha)


def test_build_topology_records_the_bound_its_certificate_proved():
    # alpha 1 on 10-14 nodes of degree 4: lambda2/2 clears it on some
    # draws, only the exact cut enumeration on others
    cfg = ExpanderConfig(kappa=4, alpha_target=Fraction(1))
    passes = set()
    for m in (10, 12, 14):
        for seed in range(6):
            topo, _ = build_topology(list(range(m)), cfg, random.Random(seed))
            if gate((m, 4, topo.edges), cfg.alpha_target):
                passes.add("spectral")
                assert topo.certified_expansion == cfg.alpha_target
            else:
                passes.add("exact")
                exact = expansion_exact(*on_positions(m, topo.edges), limit=20)
                assert topo.certified_expansion == exact >= 1
    assert passes == {"spectral", "exact"}


def test_eigensolve_runs_only_for_draws_that_fail_the_gate(monkeypatch):
    verdicts, solves = [], []
    gate, solve = expander._spectral_gate, expander.lambda2_of_adjacency
    monkeypatch.setattr(expander, "_spectral_gate",
                        lambda *args: verdicts.append(gate(*args)) or verdicts[-1])
    monkeypatch.setattr(expander, "lambda2_of_adjacency",
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
    return CloudTopology(frozenset(e for e in topology.edges if node not in e),
                         topology.certified_expansion)


def expander_topology(adjacency, cfg):
    edges = frozenset((min(u, v), max(u, v)) for u in adjacency for v in adjacency[u])
    return CloudTopology(edges, cfg.alpha_target)


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
        assert spliced
        assert all(u < v for u, v in topo.edges)
        assert degrees(topo.edges) == {x: kappa for x in members}
        added = set(topo.edges) - set(scrubbed.edges)
        assert set(scrubbed.edges) <= set(topo.edges) and len(added) == kappa // 2
        assert {end for edge in added for end in edge} == neighbours
        assert certificate_oracle(members, topo.edges, cfg) >= cfg.alpha_target


def test_splice_pairs_only_nodes_that_are_not_yet_neighbours():
    # in the circulant C_12(1, 2), node 0's neighbours 1, 2, 10, 11 are
    # joined by 1-2, 10-11 and 11-1, so of the three ways to pair them
    # only {1-10, 2-11} adds no existing edge, which the matching search
    # finds from every shuffle
    cfg = ExpanderConfig(kappa=4, alpha_target=Fraction(1, 2))
    scrubbed = without(expander_topology(circulant(12, (1, 2)), cfg), 0)
    for seed in range(20):
        topo, spliced = build_topology(list(range(1, 12)), cfg, random.Random(seed),
                                       previous=scrubbed)
        assert spliced, seed
        assert set(topo.edges) - set(scrubbed.edges) == {(1, 10), (2, 11)}


def test_splice_that_cannot_avoid_an_existing_edge_falls_back_to_a_redraw():
    # node 0's neighbours 1-4 form a K4, so every pairing clashes
    cfg = ExpanderConfig(kappa=4, alpha_target=Fraction(1, 2))
    adjacency = {i: {j for j in range(5) if j != i} for i in range(5)}
    adjacency.update({5 + i: {5 + j for j in nbrs} for i, nbrs in circulant(10, (1, 2)).items()})
    scrubbed = without(expander_topology(adjacency, cfg), 0)
    topo, spliced = build_topology(list(range(1, 15)), cfg, random.Random(0), previous=scrubbed)
    assert not spliced
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
    gate, splice, states, refused = expander._gate_certificate, expander._splice, [], []

    def failing_in_the_splice(m, pairs, cfg):
        if not states:  # a certificate of the splice: refuse every matching
            refused.append(sorted(pairs))
            return Fraction(0)
        return gate(m, pairs, cfg)

    def splice_then_record(*args):
        spliced = splice(*args)
        states.append(rng.getstate())  # the splice has made all its draws
        return spliced

    monkeypatch.setattr(expander, "_gate_certificate", failing_in_the_splice)
    monkeypatch.setattr(expander, "_splice", splice_then_record)
    rng = random.Random(2)
    topo, spliced = build_topology(members, cfg, rng, previous=without(previous, 0))
    assert not spliced and states
    # the search went on past the refused matchings, each a different one
    assert len(refused) == expander.SPLICE_TRIES
    assert len({tuple(pairs) for pairs in refused}) == len(refused)
    # the same draws as a build without a previous topology from there on
    redraw = random.Random()
    redraw.setstate(states[0])
    assert build_topology(members, cfg, redraw) == (topo, False)


def test_splice_applies_only_to_one_member_lost_from_a_regular_expander():
    cfg = ExpanderConfig(kappa=6, alpha_target=Fraction(1, 2))
    previous, _ = build_topology(list(range(30)), cfg, random.Random(1))
    two_gone = without(without(previous, 0), 1)
    # the clique on 0..5 less 0: degree 4, neither kappa nor kappa-1
    clique, _ = build_topology(list(range(6)), cfg, random.Random(3))
    for members, given in [(list(range(2, 30)), two_gone),         # two lost
                           (list(range(30)), previous),            # none lost
                           (list(range(1, 30)), without(clique, 0)),  # not regular
                           (list(range(2, 30)), without(previous, 0))]:  # edge leaves members
        _, spliced = build_topology(members, cfg, random.Random(3), previous=given)
        assert not spliced


def test_splice_with_no_edge_to_switch_a_newcomer_into_gives_none():
    cfg = ExpanderConfig(kappa=6, alpha_target=Fraction(1, 2))
    empty = CloudTopology(frozenset(), Fraction(0))
    assert expander._splice(empty, list(range(10)), cfg, random.Random(0)) is None


def test_is_clique_reads_the_edges():
    cfg = ExpanderConfig(kappa=6, alpha_target=Fraction(1, 2))
    clique, _ = build_topology(list(range(7)), cfg, random.Random(0))
    drawn, _ = build_topology(list(range(8)), cfg, random.Random(0))
    assert is_clique(CloudTopology(frozenset(), Fraction(0)))  # undesigned
    assert is_clique(clique) and is_clique(without(clique, 3))
    # kappa-regular on more than kappa+1 members, and that less a member
    assert not is_clique(drawn) and not is_clique(without(drawn, 3))


@settings(max_examples=60, deadline=None)
@given(kappa=st.sampled_from([4, 6, 8]), extra=st.integers(1, 30), drop=st.booleans(),
       newcomers=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
@example(kappa=4, extra=1, drop=True, newcomers=6, seed=0).via("more newcomers than members")
@example(kappa=4, extra=1, drop=False, newcomers=10, seed=0).via("newcomers only, outnumbering")
def test_splice_of_a_lost_member_and_newcomers(kappa, extra, drop, newcomers, seed):
    # a certified cloud on 0..m-1 loses one member or none and gains
    # newcomers m..; at an alpha every connected cloud of these sizes
    # clears (lambda2 is at least 4/(m * diameter), above 2^-10 for
    # m <= 49, and the gate asks for just over 2 * alpha = 2^-11), a
    # splice with newcomers never gives None: each newcomer past a
    # replacement finds its kappa/2 switches.  The result is a simple
    # kappa-regular certified cloud on exactly the members that keeps
    # every previous edge but those a switch removed
    cfg = ExpanderConfig(kappa=kappa, alpha_target=Fraction(1, 2**12))
    m = kappa + 1 + extra
    rng = random.Random(seed)
    previous, _ = build_topology(list(range(m)), cfg, rng)
    gone = rng.randrange(m) if drop else None
    scrubbed = without(previous, gone)
    joined = list(range(m, m + newcomers))
    members = [x for x in range(m) if x != gone] + joined
    topo = expander._splice(scrubbed, members, cfg, rng)
    if not newcomers:
        if not drop:
            assert topo is None  # nothing to mend
        if topo is None:
            return  # no re-pairing avoids the existing edges
    assert topo is not None
    assert all(u < v for u, v in topo.edges)
    assert degrees(topo.edges) == {x: kappa for x in members}
    # each switch removed one edge, whose ends now neighbour a newcomer
    # (a later newcomer may have subdivided that edge in turn)
    newcomer_ends = {end for edge in topo.edges if set(edge) & set(joined) for end in edge}
    lost = scrubbed.edges - topo.edges
    assert {end for edge in lost for end in edge} <= newcomer_ends
    further = newcomers - drop if newcomers else 0
    assert len(lost) <= kappa // 2 * further
    assert topo.certified_expansion >= cfg.alpha_target
    assert certificate_oracle(members, topo.edges, cfg) >= cfg.alpha_target


def test_a_merge_grows_from_a_cloud_that_lost_a_member(monkeypatch):
    # the first newcomer takes the departed member's kappa edges, each
    # further one is switched in as kappa/2 pairs of its own stubs, each
    # switch subdividing one edge
    cfg = ExpanderConfig(kappa=6, alpha_target=Fraction(1, 2))
    switch_in, taken = expander._switch_in, []

    def one_newcomer_at_a_time(edges, stubs, rng):
        # the edges each newcomer's kappa/2 switches removed, in stub
        # order, logged on a copy of the edge set; the copy may iterate
        # in another order, so its picks can differ from an unlogged call
        removed = []

        class Logged(set):
            def remove(self, edge):
                removed.append(edge)
                super().remove(edge)

        grown = switch_in(Logged(edges), stubs, rng)
        half = cfg.kappa // 2
        taken.extend(set(removed[i:i + half]) for i in range(0, len(removed), half))
        return set(grown)

    monkeypatch.setattr(expander, "_switch_in", one_newcomer_at_a_time)
    grown = 0
    for seed in range(5):
        rng = random.Random(seed)
        previous, _ = build_topology(list(range(40)), cfg, rng)
        scrubbed = without(previous, 0)
        orphans = {u if v == 0 else v for u, v in previous.edges if 0 in (u, v)}
        members = list(range(1, 40)) + [50, 51, 52]
        ranked = sorted(members)
        taken.clear()
        topo, spliced = build_topology(members, cfg, rng, previous=scrubbed)
        assert degrees(topo.edges) == {x: 6 for x in members}
        if spliced:
            grown += 1
            by_51, by_52 = ({(ranked[a], ranked[b]) for a, b in edges} for edges in taken)
            assert len(by_51) == len(by_52) == 3
            # 50 takes the departed member's edges, none of them in
            # scrubbed; 51 subdivides three vertex-disjoint edges of
            # scrubbed or 50's, at most one of 50's as they share 50, and
            # 52 three of any, at most one of 50's and one of 51's: so 3
            # to 6 of scrubbed go
            lost = scrubbed.edges - topo.edges
            assert lost == (by_51 | by_52) & scrubbed.edges
            assert len(lost) == 6 - sum(1 for u, v in by_51 | by_52 if {u, v} & {50, 51})
            assert 3 <= len(lost) <= 6
            assert orphans <= {end for edge in topo.edges if {50, 51, 52} & set(edge)
                               for end in edge}
    assert grown >= 4


def perfect_matchings(nodes: list[int]):
    """Every perfect matching of *nodes*, as lists of pairs (a, b), a < b."""
    if not nodes:
        yield []
        return
    first, rest = nodes[0], nodes[1:]
    for k, partner in enumerate(rest):
        for tail in perfect_matchings(rest[:k] + rest[k + 1:]):
            yield [(min(first, partner), max(first, partner))] + tail


def splice_fallback_with_a_matching(previous, ranked, cfg) -> bool:
    """Whether *previous*, a cloud on *ranked* less one departed member,
    has a re-pairing of the departed member's neighbours that adds no
    existing edge and certifies: a splice that gives None missed it."""
    degree = Counter(itertools.chain.from_iterable(previous.edges))
    short = sorted(x for x in ranked if degree[x] == cfg.kappa - 1)
    if (len(short) != cfg.kappa or not degree.keys() <= set(ranked)
            or any(degree[x] not in (cfg.kappa - 1, cfg.kappa) for x in ranked)):
        return False  # not the one-member-lost shape
    return any(certificate_oracle(ranked, previous.edges | set(pairs), cfg) >= cfg.alpha_target
               for pairs in perfect_matchings(short) if previous.edges.isdisjoint(pairs))


def test_cloud_design_wastes_no_draw_and_no_array(monkeypatch):
    # counts, not times, so host noise cannot move them: each trace
    # replays the same designs on every run
    kappa, alpha = 6, Fraction(1)
    s = math.ceil(alpha * 2**33) / 2**32 + 1e-8  # the gate's lambda2 threshold
    missed, dead_ends, arrays, sizes = [], [], [], []
    numpy_touched: list[str] = []
    splice, attempt, build = expander._splice, expander._pairing_attempt, engine.build_topology

    class RecordingNumpy:
        def __getattr__(self, name):
            numpy_touched.append(name)
            return getattr(np, name)

    def checked_splice(previous, ranked, cfg, rng):
        spliced = splice(previous, ranked, cfg, rng)
        if spliced is None and splice_fallback_with_a_matching(previous, ranked, cfg):
            missed.append(len(ranked))
        return spliced

    def checked_attempt(n, degree, rng):
        edges = attempt(n, degree, rng)
        if edges is None and n > 2 * kappa:
            dead_ends.append(n)
        return edges

    def checked_build(members, cfg, rng, previous=None):
        numpy_touched.clear()
        result = build(members, cfg, rng, previous=previous)
        m = len(members)
        sizes.append(m)
        if m > kappa + 1 and 2 * kappa + 2 - m > s and numpy_touched:
            arrays.append((m, sorted(set(numpy_touched))))
        return result

    monkeypatch.setattr(expander, "np", RecordingNumpy())
    monkeypatch.setattr(expander, "_splice", checked_splice)
    monkeypatch.setattr(expander, "_pairing_attempt", checked_attempt)
    monkeypatch.setattr(engine, "build_topology", checked_build)
    for seed in range(4):
        trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 300, seed)
        cfg = ExpanderConfig(kappa=kappa, alpha_target=alpha)
        healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges, cfg,
                                     random.Random(f"{seed}/engine"))
        for event in trace.events:
            healer.handle_event(event)
    # the traces design closed-form clouds and directly drawn ones
    assert {m for m in sizes if 2 * kappa + 2 - m > s} - set(range(kappa + 2)), sizes
    assert max(sizes) > 2 * kappa
    assert missed == [], "a splice fell back though a re-pairing certifies"
    assert dead_ends == [], "a pairing draw past 2*kappa members dead-ended"
    assert arrays == [], "a design the closed form decides built numpy arrays"
