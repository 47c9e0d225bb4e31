"""Independent brute-force oracles and small builders shared by tests.

Everything here deliberately avoids the production code paths it is
used to check: densities count pairs, expansion enumerates subsets in
descending size order (or, for larger graphs, tabulates every cut as
the replaced kernel did), graphs are built edge by edge.  The per-edge
recoloring calls and the stdlib-drawing pairing and subset samplers are
the code paths the library inlined, kept here as its references.
"""
from __future__ import annotations

import itertools
import random
from collections import defaultdict, deque
from fractions import Fraction

import numpy as np

from xhealsim.expander import ExpanderConfig, _cheeger_lower_bound, expansion_exact
from xhealsim.graph import (
    BLACK,
    ColorAbsent,
    ColoredGraph,
    EmptySubset,
    UnknownEdge,
    UnknownNode,
    edge_key,
)
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


def expansion_exact_oracle(adjacency: dict[int, set[int]]) -> Fraction:
    """The whole-table kernel ``expansion_exact`` replaced: every cut
    containing the first node gets its size and cut count in 2^(n-1)
    entry arrays, and a float argmin per side picks the minimum ratio.
    Memory grows as 2^n (about 110 MB at 22 nodes)."""
    n = len(adjacency)
    order = sorted(adjacency)
    index = {v: i for i, v in enumerate(order)}
    nbr_idx: list[list[int]] = [[] for _ in range(n)]
    for v, nbrs in adjacency.items():
        for nb in nbrs:
            nbr_idx[index[v]].append(index[nb])
    deg = [len(nb) for nb in nbr_idx]

    # m encodes the subset S(m) = {0} union {b+1 : bit b of m set}
    total = 1 << (n - 1)
    ar = np.arange(total, dtype=np.int32)
    sizes = np.zeros(total, dtype=np.int16)
    vol = np.zeros(total, dtype=np.int16)
    inner = np.zeros(total, dtype=np.int16)
    sizes[0] = 1
    vol[0] = deg[0]
    for h in range(n - 1):
        lo = 1 << h
        node = h + 1
        sizes[lo:2 * lo] = sizes[:lo] + 1
        vol[lo:2 * lo] = vol[:lo] + deg[node]
        gained = np.zeros(lo, dtype=np.int16)
        for j in nbr_idx[node]:
            if j == 0:
                gained += 1
            elif j < node:
                gained += ((ar[:lo] >> (j - 1)) & 1).astype(np.int16)
        inner[lo:2 * lo] = inner[:lo] + gained
    cross = vol - 2 * inner

    # small integer quotients are correctly rounded and distinct ratios
    # differ by far more than rounding error, so the float argmin is exact
    half = n // 2
    sizes_f = sizes.astype(np.float64)
    cross_f = cross.astype(np.float64)
    best = None
    for denom in (sizes_f, n - sizes_f):
        ratios = np.full(total, np.inf)
        np.divide(cross_f, denom, out=ratios, where=(denom >= 1) & (denom <= half))
        pos = int(ratios.argmin())
        if ratios[pos] != np.inf:
            cand = Fraction(int(cross[pos]), int(denom[pos]))
            if best is None or cand < best:
                best = cand
    return best


def is_connected(view) -> bool:
    """True for graphs with at most one node or a single component; the
    set-based reference for ``graph.csr_connected``."""
    nodes = view.node_set
    if len(nodes) <= 1:
        return True
    start = next(iter(nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nb in view.neighbors(cur):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(nodes)


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
        return expansion_exact(*index_arrays(adj), limit=cfg.exact_limit)
    return _cheeger_lower_bound(*index_arrays(adj))


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


def index_arrays(adj) -> tuple[int, np.ndarray, np.ndarray]:
    """Node count and endpoint positions (u < v) of every edge of *adj*,
    its nodes numbered in sorted order: the graph arguments of
    ``metrics.lambda2_of_adjacency`` and ``expander.expansion_exact``."""
    index = {v: i for i, v in enumerate(sorted(adj))}
    pairs = [(index[u], index[v]) for u in adj for v in adj[u] if index[u] < index[v]]
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return len(index), ends[:, 0], ends[:, 1]


# -- references for the inlined hot loops ------------------------------------


def ensure_edge_color(g: ColoredGraph, u: int, v: int, color: int) -> bool:
    """Give the pair (u, v) the cloud color *color*, reusing any existing
    edge, otherwise creating one.  True when created."""
    if color == BLACK:
        raise ValueError("cloud colors only; black edges come from insertions")
    try:
        g.edge(u, v).colors.add(color)
        return False
    except UnknownEdge:
        g.add_edge(u, v, colors=(color,))
        return True


def strip_color(g: ColoredGraph, u: int, v: int, color: int) -> bool:
    """Remove *color* from the edge; True when it drained to colorless."""
    rec = g.edge(u, v)
    if color not in rec.colors:
        raise ColorAbsent(f"edge {rec.key} does not carry color {color}")
    rec.colors.discard(color)
    return not rec.colors


def purge_colorless(g: ColoredGraph, keys) -> int:
    """Delete those of the edges *keys* that are still colorless."""
    deleted = 0
    for u, v in keys:
        rec = g.edge(u, v)
        if not rec.colors:
            g._csr = None
            del g._edges[rec.key]
            g._adj[rec.u].discard(rec.v)
            g._adj[rec.v].discard(rec.u)
            deleted += 1
    return deleted


def recolor_oracle(g: ColoredGraph, strip, paint) -> tuple[int, int, int]:
    """``ColoredGraph.recolor`` one edge call at a time: strip each
    color's edges in sorted order, color the painted ones, then purge
    the drained keys in sorted order."""
    drained = set()
    for color, keys in strip:
        for u, v in sorted(keys):
            if strip_color(g, u, v, color):
                drained.add(edge_key(u, v))
    created = reused = 0
    for color, keys in paint:
        for u, v in keys:
            if ensure_edge_color(g, u, v, color):
                created += 1
            else:
                reused += 1
    return created, reused, purge_colorless(g, sorted(drained))


def apply_full_oracle(healer, step) -> None:
    """``Healer._apply`` as a full strip and paint: every stripped
    cloud's edges lose its color and every built cloud's edges take it,
    so an edge a rebuilt cloud keeps is stripped, repainted and counted
    as reused.  A rebuilt cloud paints the edges it adds first, in the
    order ``_apply`` iterates them, so that edges are created in the
    same order."""
    old = {cloud.id: cloud.topology.edges for cloud in step.stripped}

    def painted(cloud):
        edges = cloud.topology.edges
        if cloud.id not in old:
            return cloud.id, edges
        return cloud.id, [*(edges - old[cloud.id]), *(edges & old[cloud.id])]

    created, reused, deleted = healer.graph.recolor(
        [(cloud.id, cloud.topology.edges) for cloud in step.stripped],
        [painted(cloud) for cloud in step.built])
    healer.counters.edges_created += created
    healer.counters.edges_reused += reused
    healer.counters.edges_deleted += deleted


def pairing_attempt_oracle(n: int, kappa: int, rng: random.Random):
    """``expander._pairing_attempt`` drawing through ``rng.shuffle``."""

    def suitable(edges, potential) -> bool:
        if not potential:
            return True
        stubs = list(potential)
        for i, s1 in enumerate(stubs):
            for s2 in stubs[i + 1:]:
                if (min(s1, s2), max(s1, s2)) not in edges:
                    return True
        return False

    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * kappa
    rounds = 0
    while stubs:
        rounds += 1
        if rounds > 200:
            return None
        potential: dict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential[s1] += 1
                potential[s2] += 1
        if not suitable(edges, potential):
            return None
        stubs = [node for node, count in potential.items() for _ in range(count)]
    return edges


def sample_subsets_oracle(alive, samples: int, rng: random.Random) -> list[list[int]]:
    """``metrics.sample_subsets`` drawing through ``randint`` and ``sample``
    from ``sorted(alive)``; each subset's ids in selection order."""
    pool = sorted(alive)
    if not pool:
        return []
    return [rng.sample(pool, rng.randint(1, len(pool))) for _ in range(samples)]


def picked_ids(alive, sampled: tuple[np.ndarray, np.ndarray]) -> list[list[int]]:
    """The subsets ``metrics.sample_subsets(len(alive), ...)`` drew, as
    ids of ``sorted(alive)`` in selection order."""
    pool = sorted(alive)
    picks, sizes = sampled
    starts = np.cumsum(sizes) - sizes
    return [[pool[p] for p in picks[s:s + k].tolist()]
            for s, k in zip(starts.tolist(), sizes.tolist())]
