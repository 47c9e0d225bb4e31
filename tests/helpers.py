"""Independent brute-force oracles and small builders shared by tests.

Everything here deliberately avoids the production code paths it is
used to check: densities count pairs, expansion enumerates subsets in
descending size order, graphs are built edge by edge.
"""
from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

from xhealsim.expander import ExpanderConfig, _cheeger_lower_bound, expansion_exact
from xhealsim.graph import ColoredGraph, EmptySubset, UnknownNode, edge_key
from xhealsim.metrics import ALL_PAIRS_LIMIT


def density(view, subset) -> Fraction:
    """Induced edge count over subset size, as an exact rational."""
    s = set(subset)
    if not s:
        raise EmptySubset("density of the empty set is undefined")
    twice_edges = 0
    for u in s:
        if u not in view:
            raise UnknownNode(f"node {u} not in view")
        twice_edges += len(view.neighbors(u) & s)
    return Fraction(twice_edges // 2, len(s))


def density_oracle(has_edge, subset) -> Fraction:
    """|E(S)|/|S| by enumerating all node pairs."""
    nodes = sorted(subset)
    edges = sum(1 for u, v in itertools.combinations(nodes, 2) if has_edge(u, v))
    return Fraction(edges, len(nodes))


def expansion_oracle(adjacency: dict[int, set[int]]) -> Fraction:
    """Minimum cut ratio by plain subset enumeration, largest sizes first."""
    nodes = sorted(adjacency)
    n = len(nodes)
    best = None
    for k in range(n // 2, 0, -1):
        for combo in itertools.combinations(nodes, k):
            inside = set(combo)
            crossing = sum(1 for u in inside for v in adjacency[u] if v not in inside)
            cand = Fraction(crossing, k)
            if best is None or cand < best:
                best = cand
    return best


def bfs_oracle(view, source: int) -> dict[int, int]:
    """Hop counts from *source* to every reachable node, one node at a time."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for nb in view.neighbors(cur):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist


def induced_edges_oracle(view, subset) -> set[tuple[int, int]]:
    s = set(subset)
    return {edge_key(u, v) for u in s for v in view.neighbors(u) & s if u < v}


def density_lower_oracle(graph, shadow, subsets) -> list[str]:
    """Set-based twin of ``metrics.check_density_lower``."""
    violations = []
    for subset in subsets:
        live_edges = induced_edges_oracle(graph, subset)
        base_edges = induced_edges_oracle(shadow, subset)
        if not base_edges <= live_edges:
            missing = sorted(base_edges - live_edges)
            violations.append(f"S={sorted(subset)}: baseline edges {missing} not live")
        if density(graph, subset) < density(shadow, subset):
            violations.append(f"S={sorted(subset)}: live density below baseline")
    return violations


def density_upper_oracle(graph, shadow, kappa, subsets) -> list[str]:
    """``Fraction``-based twin of ``metrics.check_density_upper``."""
    violations = []
    alive = frozenset(shadow.alive)
    for subset in subsets:
        deg_sum = sum(shadow.degree(v) for v in subset)
        bound = (density(shadow, subset)
                 + Fraction(kappa * deg_sum, 2 * len(subset))
                 + Fraction(kappa, 2))
        if density(graph, subset) > bound:
            violations.append(f"S={sorted(subset)}: per-subset upper bound broken")
    if alive:
        whole = density(graph, alive)
        bound_whole = (kappa + 1) * density(shadow, alive) + Fraction(kappa, 2)
        if whole > bound_whole:
            violations.append(
                f"graph density {whole} exceeds (kappa+1)*baseline+kappa/2 = {bound_whole}")
    return violations


def stretch_oracle(graph, shadow, pair_samples, rng):
    """Per-source BFS twin of ``metrics.stretch``, same pairs and draws."""
    alive = sorted(shadow.alive)
    if len(alive) < 2:
        return None, [], 0
    if len(alive) <= ALL_PAIRS_LIMIT:
        pairs = [(alive[i], alive[j]) for i in range(len(alive))
                 for j in range(i + 1, len(alive))]
    else:
        pairs = [tuple(sorted(rng.sample(alive, 2))) for _ in range(pair_samples)]
    live_cache: dict[int, dict[int, int]] = {}
    shadow_cache: dict[int, dict[int, int]] = {}
    worst = None
    violations = []
    evaluated = 0
    for u, v in pairs:
        if u not in shadow_cache:
            shadow_cache[u] = bfs_oracle(shadow, u)
        base_d = shadow_cache[u].get(v)
        if base_d is None:
            continue
        if u not in live_cache:
            live_cache[u] = bfs_oracle(graph, u)
        live_d = live_cache[u].get(v)
        if live_d is None:
            violations.append(f"pair ({u},{v}) connected in baseline but not live")
            continue
        evaluated += 1
        ratio = Fraction(live_d, base_d)
        if worst is None or ratio > worst:
            worst = ratio
    return worst, violations, evaluated


def certificate_oracle(members, edge_list, cfg: ExpanderConfig) -> Fraction:
    """Recomputed expansion certificate of a cloud topology: exact up to
    ``cfg.exact_limit`` members, the spectral lower bound beyond, zero
    for fewer than two members."""
    if len(members) < 2:
        return Fraction(0)
    adj: dict[int, set[int]] = {v: set() for v in members}
    for u, v in edge_list:
        adj[u].add(v)
        adj[v].add(u)
    if len(members) <= cfg.exact_limit:
        return expansion_exact(adj, limit=cfg.exact_limit)
    return _cheeger_lower_bound(adj)


def random_adjacency(n: int, p: float, rng: random.Random) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def graph_from_edges(nodes, edges) -> ColoredGraph:
    g = ColoredGraph()
    for v in nodes:
        g.add_node(v)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def cycle_adjacency(n: int) -> dict[int, set[int]]:
    return {i: {(i - 1) % n, (i + 1) % n} for i in range(n)}


def complete_adjacency(n: int) -> dict[int, set[int]]:
    return {i: {j for j in range(n) if j != i} for i in range(n)}
