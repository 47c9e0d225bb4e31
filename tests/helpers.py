"""Independent brute-force oracles and small builders shared by tests.

Everything here deliberately avoids the production code paths it is
used to check: densities count pairs, expansion enumerates subsets in
descending size order (or, for larger graphs, tabulates every cut as
the replaced kernel did), graphs are built edge by edge.  The per-edge
recoloring calls, the stdlib-drawing pairing sampler and the free-node
scan are the code paths the library inlined or indexed, kept here as
its references.
"""
from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

import numpy as np

from xhealsim.engine import CloudKind
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
    for subset in subsets:
        deg_sum = sum(len(shadow.neighbors(v)) for v in subset)
        bound = (density(shadow, subset)
                 + Fraction(kappa * deg_sum, 2 * len(subset))
                 + Fraction(kappa, 2))
        if density(graph, subset) > bound:
            violations.append(f"S={sorted(subset)}: per-subset upper bound broken")
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
    ``expander.lambda2_of_adjacency`` and ``expander.expansion_exact``."""
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
        g.edge(u, v).add(color)
        return False
    except UnknownEdge:
        g.add_edge(u, v)
        g.edge(u, v).symmetric_difference_update((BLACK, color))  # black becomes color
        return True


def strip_color(g: ColoredGraph, u: int, v: int, color: int) -> bool:
    """Remove *color* from the edge; True when it drained to colorless."""
    colors = g.edge(u, v)
    if color not in colors:
        raise ColorAbsent(f"edge {edge_key(u, v)} does not carry color {color}")
    colors.discard(color)
    return not colors


def purge_colorless(g: ColoredGraph, keys) -> int:
    """Delete those of the edges *keys* that are still colorless."""
    deleted = 0
    for u, v in keys:
        if not g.edge(u, v):
            g._csr = None
            del g._edges[edge_key(u, v)]
            g._adj[u].discard(v)
            g._adj[v].discard(u)
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


def changed_oracle(plan, first_fresh: int) -> set[int]:
    """The ids of the clouds *plan* may change other than by retiring
    them, read off the scrub and its registry: the dying node's clouds
    and every cloud it registered, from id *first_fresh* on, and kept.
    A repair retires other clouds but never alters one."""
    return {*plan.primaries, *plan.secondaries,
            *(cid for cid in plan.registry.clouds if cid >= first_fresh)}


def apply_full_oracle(healer, plan, before: dict) -> None:
    """``Healer._apply`` as a full strip and paint: every changed or
    retired cloud's edges in the clouds *before* the plan, less the dead
    node's, lose its color and every such cloud's edges in *plan*'s
    registry take it, so an edge a rebuilt cloud keeps is stripped,
    repainted and counted as reused.  The clouds are the dying node's,
    the scrub's lists say which, and those registered on only one side.
    A cloud paints the edges it adds first, in the order ``_apply``
    iterates them, so that edges are created in the same order."""
    old, new = before, plan.registry.clouds
    strip, paint = [], []
    for cid in sorted({*plan.primaries, *plan.secondaries} | (old.keys() ^ new.keys())):
        was = old[cid].topology.edges - plan.dying_keys if cid in old else frozenset()
        now = new[cid].topology.edges if cid in new else frozenset()
        strip.append((cid, was))
        paint.append((cid, [*(now - was), *(now & was)]))
    created, reused, deleted = healer.graph.recolor(strip, paint)
    healer.counters.edges_created += created
    healer.counters.edges_reused += reused
    healer.counters.edges_deleted += deleted


def pick_free_oracle(registry, shadow, cid: int, reserved) -> tuple[int | None, int, int]:
    """``Plan._pick_free_node`` as the scan the free-member index
    replaced: the cloud's members in id order, then every member of
    every primary cloud that shares a member with it, each free node's
    dead baseline neighbors counted afresh.  Returns the pick and the
    amounts it adds to ``bridges_borrowed`` and ``free_node_misses``."""
    bridges, member_of = registry.bridges, registry.member_of

    def free(node):
        return (node not in bridges and node not in reserved
                and len(member_of.get(node, ())) <= len(shadow.neighbors(node) - shadow.alive))

    cloud = registry.clouds[cid]
    own = next((node for node in sorted(cloud.members) if free(node)), None)
    if own is not None:
        return own, 0, 0
    sharing = {other for node in cloud.members for other in member_of[node]} - {cid}
    candidates = sorted({node for other in sharing
                         if registry.clouds[other].kind is CloudKind.PRIMARY
                         for node in registry.clouds[other].members})
    borrowed = next((node for node in candidates if free(node)), None)
    return (borrowed, 1, 0) if borrowed is not None else (None, 0, 1)


def checked_pick(pick, picks: list):
    """A stand-in for ``Plan._pick_free_node`` (the function *pick*)
    that appends to *picks* the indexed pick, with what it added to the
    two counters, and ``pick_free_oracle``'s, as made on the same state."""
    def checked(plan, cid, reserved):
        want = pick_free_oracle(plan.registry, plan.shadow, cid, reserved)
        counters = plan.counters
        borrowed, misses = counters.bridges_borrowed, counters.free_node_misses
        node = pick(plan, cid, reserved)
        picks.append(((node, counters.bridges_borrowed - borrowed,
                       counters.free_node_misses - misses), want))
        return node
    return checked


def pairing_attempt_oracle(n: int, degree: int, rng: random.Random):
    """``expander._pairing_attempt`` drawing through ``rng.shuffle``: one
    shuffle, each stub pair in order an edge unless it is a loop or
    repeats one, and every such clash switched in afterwards."""
    stubs = list(range(n)) * degree
    rng.shuffle(stubs)
    edges, clashes = set(), []
    for s1, s2 in zip(stubs[0::2], stubs[1::2]):
        pair = (min(s1, s2), max(s1, s2))
        if s1 == s2 or pair in edges:
            clashes += pair
        else:
            edges.add(pair)
    return switch_in_oracle(edges, clashes, rng) if clashes else edges


def switch_in_oracle(edges, stubs, rng: random.Random):
    """``expander._switch_in``: each two stubs x, y take the first edge (a, b), scanned cyclically from a random one, whose ends
    avoid x and y and where (x, a), (y, b) or else (x, b), (y, a) are
    both new; the edge makes way for those two."""
    def key(p, q):
        return (min(p, q), max(p, q))

    pool = list(edges)
    for x, y in zip(stubs[0::2], stubs[1::2]):
        if not pool:
            return None
        start = rng.randrange(len(pool))
        for i in [*range(start, len(pool)), *range(start)]:
            a, b = pool[i]
            if {a, b} & {x, y}:
                continue
            new = next(((key(x, p), key(y, q)) for p, q in ((a, b), (b, a))
                        if key(x, p) not in edges and key(y, q) not in edges), None)
            if new is not None:
                break
        else:
            return None
        edges.remove(pool[i])
        edges.update(new)
        pool[i] = new[0]
        pool.append(new[1])
    return edges
