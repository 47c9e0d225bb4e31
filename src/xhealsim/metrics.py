"""Checkpoint metrics and bound verdicts.

Every quantity a verdict depends on (degrees, densities, expansion,
distances) is computed in exact integer or rational arithmetic; the
spectral gap is the one floating-point value and is reported for
context only, never asserted.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, AbstractSet

import numpy as np

from . import expander
from .expander import TooLarge
from .graph import (
    ColoredGraph,
    Csr,
    EmptySubset,
    ShadowGraph,
    UnknownNode,
    bfs_distances,
    is_connected,
)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Healer

LAMBDA_SIZE_CAP = 500
ALL_PAIRS_LIMIT = 60


class MetricsError(Exception):
    pass


def lambda2_of_adjacency(adjacency: Mapping[int, AbstractSet[int]]) -> float:
    """Second-smallest eigenvalue of the combinatorial Laplacian, via a
    dense symmetric eigensolver (documented tolerance ~1e-9)."""
    order = sorted(adjacency)
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    degrees = np.fromiter(map(len, map(adjacency.__getitem__, order)), dtype=np.intp, count=n)
    heads = np.fromiter((index[nb] for v in order for nb in adjacency[v]),
                        dtype=np.intp, count=int(degrees.sum()))
    lap = np.zeros((n, n))
    np.fill_diagonal(lap, degrees)
    lap[np.repeat(np.arange(n), degrees), heads] = -1.0
    return float(np.linalg.eigvalsh(lap)[1])


def lambda2(view: ColoredGraph | ShadowGraph, cap: int = LAMBDA_SIZE_CAP) -> float:
    nodes = sorted(view.node_set)
    if len(nodes) < 2:
        raise MetricsError("lambda2 needs at least 2 nodes")
    if len(nodes) > cap:
        raise TooLarge(f"{len(nodes)} nodes exceeds spectral size cap {cap}")
    return lambda2_of_adjacency({v: view.neighbors(v) for v in nodes})


def expansion(view: ColoredGraph | ShadowGraph, exact_limit: int) -> Fraction:
    """Exact edge expansion of the view over its own node set."""
    nodes = sorted(view.node_set)
    return expander.expansion_exact({v: view.neighbors(v) for v in nodes}, limit=exact_limit)


# -- per-bound checks ----------------------------------------------------


def check_edge_preservation(graph: ColoredGraph, shadow: ShadowGraph
                            ) -> tuple[bool, list[tuple[int, int]]]:
    """Every baseline edge between two alive nodes must still be live."""
    missing = _missing_edges(graph, shadow)
    return (not len(missing), [tuple(e) for e in missing.tolist()])


def _missing_edges(graph: ColoredGraph, shadow: ShadowGraph) -> np.ndarray:
    """Baseline edges between two alive nodes that are not live, as
    sorted ``(u, v)`` id rows with ``u < v``."""
    base = Csr.of(shadow)
    n = len(base.ids)
    bu, bv = base.edge_ends()
    alive = np.zeros(n, dtype=bool)
    alive[base.positions(shadow.alive)] = True
    keep = alive[bu] & alive[bv]
    codes = bu[keep] * n + bv[keep]
    lu, lv = _edges_within(Csr.of(graph), base)
    # both code lists are duplicate-free; saying so also skips np.unique,
    # whose first call imports numpy.ma (about 2 MB resident)
    missing = np.sort(codes[np.isin(codes, lu * n + lv, assume_unique=True, invert=True)])
    return base.ids[np.stack(np.divmod(missing, n), axis=1)]


def _edges_within(src: Csr, dst: Csr) -> tuple[np.ndarray, np.ndarray]:
    """Edges of *src* with both ends in *dst*, as positions in *dst*;
    both id lists are sorted, so the relabelling keeps u < v."""
    u, v = src.edge_ends()
    u, found_u = dst.lookup(src.ids[u])
    v, found_v = dst.lookup(src.ids[v])
    both = found_u & found_v
    return u[both], v[both]


def check_degree_bound(graph: ColoredGraph, shadow: ShadowGraph, kappa: int
                       ) -> tuple[int | None, list[tuple[int, int]]]:
    """Per-node slack of degree(x) <= kappa * baseline_degree(x) + kappa.

    Returns the minimum slack over alive nodes (None when empty) and the
    nodes with negative slack.
    """
    min_slack: int | None = None
    violations = []
    for v in sorted(shadow.alive):
        slack = kappa * shadow.degree(v) + kappa - graph.degree(v)
        if min_slack is None or slack < min_slack:
            min_slack = slack
        if slack < 0:
            violations.append((v, slack))
    return min_slack, violations


def sample_subsets(alive: Iterable[int], samples: int, rng: random.Random
                   ) -> list[frozenset[int]]:
    """Uniform random size in [1, n], then uniform members.

    Draws exactly as ``rng.sample(pool, rng.randint(1, n))`` per subset
    does in CPython, inlined over ``getrandbits``: ``sample`` keeps a pool
    of unpicked members (a partial shuffle) when that list is smaller
    than a set of the picks (its ``setsize`` rule), else it redraws
    picked positions.  Each frozenset is built in ``sample``'s selection
    order.
    """
    pool = sorted(alive)
    n = len(pool)
    if not n:
        return []
    getrandbits = rng.getrandbits
    n_bits = n.bit_length()
    out = []
    for _ in range(samples):
        size = getrandbits(n_bits)
        while size >= n:
            size = getrandbits(n_bits)
        size += 1
        setsize = 21
        if size > 5:
            setsize += 4 ** math.ceil(math.log(size * 3, 4))
        if n <= setsize:
            picks = pool[:]
            expander.partial_shuffle(picks, size, rng)
            out.append(frozenset(reversed(picks[n - size:])))
        else:
            chosen: list[int] = []
            taken: set[int] = set()
            for _ in range(size):
                j = getrandbits(n_bits)
                while j >= n or j in taken:
                    j = getrandbits(n_bits)
                taken.add(j)
                chosen.append(pool[j])
            out.append(frozenset(chosen))
    return out


def mandatory_subsets(healer: "Healer") -> list[frozenset[int]]:
    """Deterministic subsets that every checkpoint must inspect: the
    whole live node set, every current cloud, and the black neighborhood
    of the last deletion (healing acts exactly there)."""
    subsets = []
    alive = healer.shadow.alive
    if alive:
        subsets.append(frozenset(alive))
    for cid in sorted(healer.registry.clouds):
        members = healer.registry.clouds[cid].members
        if members:
            subsets.append(frozenset(members))
    last = healer.last_black_neighbors & alive
    if last:
        subsets.append(frozenset(last))
    return subsets


def _membership(live: Csr, subsets: list[frozenset[int]]) -> np.ndarray:
    """Boolean subset x node mask over the positions of *live*.

    Raises ``EmptySubset`` or ``UnknownNode`` for the first subset that
    is empty or holds a node missing from the live graph.
    """
    sizes = np.fromiter(map(len, subsets), dtype=np.int64, count=len(subsets))
    values = np.fromiter(itertools.chain.from_iterable(subsets), dtype=np.int64,
                         count=int(sizes.sum()))
    pos, found = live.lookup(values)
    empty = np.flatnonzero(sizes == 0)
    unknown = np.flatnonzero(~found)
    # subset of each member value, to tell which problem comes first
    owner = np.repeat(np.arange(len(subsets)), sizes)
    if empty.size and (not unknown.size or empty[0] < owner[unknown[0]]):
        raise EmptySubset("density of the empty set is undefined")
    if unknown.size:
        raise UnknownNode(f"node {values[unknown[0]]} not present")
    mask = np.zeros((len(subsets), len(live.ids)), dtype=bool)
    mask[owner, pos] = True
    return mask


def _induced(mask: np.ndarray, ends: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per mask row, the number of edges with both *ends* inside."""
    u, v = ends
    return (mask[:, u] & mask[:, v]).sum(axis=1, dtype=np.int64)


def check_density_lower(graph: ColoredGraph, shadow: ShadowGraph,
                        subsets: Iterable[frozenset[int]]) -> list[str]:
    """Live induced density must dominate the baseline density on every
    subset of alive nodes; checked through the stronger statement that
    the baseline's induced edges are a subset of the live ones.

    Only subsets holding a missing baseline edge are counted: without
    one, E_base(S) is a subset of E_live(S), so live density cannot fall
    below the baseline's.
    """
    subsets = list(subsets)
    live = Csr.of(graph)
    mask = _membership(live, subsets)
    missing = _missing_edges(graph, shadow)
    pos, found = live.lookup(missing.reshape(-1))
    in_live = found.reshape(-1, 2).all(axis=1)
    missing, pos = missing[in_live], pos.reshape(-1, 2)[in_live]
    inside = mask[:, pos[:, 0]] & mask[:, pos[:, 1]]
    touched = np.flatnonzero(inside.any(axis=1))
    if not touched.size:
        return []
    live_count = _induced(mask[touched], live.edge_ends())
    base_count = _induced(mask[touched], _edges_within(Csr.of(shadow), live))
    violations = []
    for row, i in enumerate(touched.tolist()):
        edges = [tuple(e) for e in missing[inside[i]].tolist()]
        violations.append(f"S={sorted(subsets[i])}: baseline edges {edges} not live")
        if live_count[row] < base_count[row]:
            violations.append(f"S={sorted(subsets[i])}: live density below baseline")
    return violations


def check_density_upper(graph: ColoredGraph, shadow: ShadowGraph, kappa: int,
                        subsets: Iterable[frozenset[int]]) -> list[str]:
    """Two exact upper bounds on healed density.

    Per subset: live density <= baseline density + kappa * (sum of
    baseline degrees) / (2|S|) + kappa/2, with baseline degrees counted
    in the full shadow.  For the whole live node set: live density <=
    (kappa + 1) * induced baseline density + kappa/2.  Both are compared
    after multiplying through by 2|S|, in integers.
    """
    subsets = list(subsets)
    alive = frozenset(shadow.alive)
    live, base = Csr.of(graph), Csr.of(shadow)
    mask = _membership(live, subsets + [alive] if alive else subsets)
    live_count = _induced(mask, live.edge_ends())
    base_count = _induced(mask, _edges_within(base, live))
    degrees = np.diff(base.indptr)[base.positions(live.ids)]
    twice_bound = (2 * base_count + kappa * (mask.astype(np.int64) @ degrees)
                   + kappa * mask.sum(axis=1, dtype=np.int64))
    broken = np.flatnonzero((2 * live_count > twice_bound)[:len(subsets)])
    violations = [f"S={sorted(subsets[i])}: per-subset upper bound broken" for i in broken]
    if alive:
        live_n, base_n, n = int(live_count[-1]), int(base_count[-1]), len(alive)
        if 2 * live_n > 2 * (kappa + 1) * base_n + kappa * n:
            whole = Fraction(live_n, n)
            bound_whole = (kappa + 1) * Fraction(base_n, n) + Fraction(kappa, 2)
            violations.append(
                f"graph density {whole} exceeds (kappa+1)*baseline+kappa/2 = {bound_whole}")
    return violations


@dataclass
class ConnectivityVerdict:
    shadow_connected: bool
    live_connected: bool

    @property
    def ok(self) -> bool:
        return self.live_connected or not self.shadow_connected


def check_connectivity(graph: ColoredGraph, shadow: ShadowGraph) -> ConnectivityVerdict:
    """Baseline connected (over all nodes ever) must imply live connected."""
    return ConnectivityVerdict(is_connected(shadow), is_connected(graph))


def stretch(graph: ColoredGraph, shadow: ShadowGraph, pair_samples: int,
            rng: random.Random) -> tuple[Fraction | None, list[str], int]:
    """Worst sampled ratio of live distance to baseline distance.

    Baseline distances run over the full shadow, so deleted nodes count
    as intermediate hops.  Pairs the baseline cannot connect are
    skipped; pairs the baseline connects but the live graph does not are
    returned as violations.
    """
    alive = sorted(shadow.alive)
    if len(alive) < 2:
        return None, [], 0
    if len(alive) <= ALL_PAIRS_LIMIT:
        pairs = [(alive[i], alive[j]) for i in range(len(alive))
                 for j in range(i + 1, len(alive))]
    else:
        pairs = [tuple(sorted(rng.sample(alive, 2))) for _ in range(pair_samples)]
    sources = [u for u, _ in pairs]
    targets = [v for _, v in pairs]
    base_csr, live_csr = Csr.of(shadow), Csr.of(graph)
    base_dist = bfs_distances(base_csr, base_csr.positions(sources),
                              base_csr.positions(targets))
    live_dist = bfs_distances(live_csr, live_csr.positions(sources),
                              live_csr.positions(targets))
    connected = base_dist >= 0
    cut = np.flatnonzero(connected & (live_dist < 0))
    violations = [f"pair ({pairs[i][0]},{pairs[i][1]}) connected in baseline but not live"
                  for i in cut.tolist()]
    both = connected & (live_dist >= 0)
    evaluated = int(both.sum())
    if not evaluated:
        return None, violations, evaluated
    live_d, base_d = live_dist[both], base_dist[both]
    # hop counts are below n, so two distinct ratios differ by at least
    # 1/n^2: the float argmax picks an exactly worst pair
    i = int(np.argmax(live_d / base_d))
    return Fraction(int(live_d[i]), int(base_d[i])), violations, evaluated


def stretch_bound(n_alive: int, constant: int) -> int | None:
    """Configured gate standing in for logarithmic stretch growth."""
    if n_alive < 2:
        return None
    return constant * max(1, (n_alive - 1).bit_length())


# -- checkpoint report ----------------------------------------------------


@dataclass
class MetricsReport:
    """One checkpoint row; immutable once emitted."""

    t: int
    n_alive: int
    connected_shadow: bool
    connected_live: bool
    connectivity_ok: bool
    edge_preservation_ok: bool
    degree_slack_min: int | None
    degree_violations: int
    density_violations: int
    density_ub_violations: int
    expansion_live: Fraction | None
    expansion_shadow: Fraction | None
    expansion_ok: bool | None
    lambda2_live: float | None
    max_stretch: Fraction | None
    stretch_bound: int | None
    stretch_ok: bool | None
    repair_counters: dict[str, int] = field(default_factory=dict)
    violation_detail: list[str] = field(default_factory=list)


def evaluate(healer: "Healer", t: int, seed: int, *, density_samples: int,
             stretch_pairs: int, stretch_constant: int, exact_limit: int) -> MetricsReport:
    """Run every check against the current state and assemble a report.

    Sampling rngs are derived from (seed, t), so a checkpoint's verdict
    does not depend on when other checkpoints ran.
    """
    graph, shadow = healer.graph, healer.shadow
    alpha = healer.cfg.alpha_target
    detail: list[str] = []

    preserved, missing = check_edge_preservation(graph, shadow)
    detail.extend(f"preservation: {m}" for m in missing)

    slack, degree_viols = check_degree_bound(graph, shadow, healer.cfg.kappa)
    detail.extend(f"degree: node {v} slack {s}" for v, s in degree_viols)

    rng_density = random.Random(f"{seed}/density/{t}")
    subsets = mandatory_subsets(healer)
    subsets.extend(sample_subsets(shadow.alive, density_samples, rng_density))
    lower_viols = check_density_lower(graph, shadow, subsets)
    upper_viols = check_density_upper(graph, shadow, healer.cfg.kappa, subsets)
    detail.extend(f"density: {v}" for v in lower_viols)
    detail.extend(f"density-upper: {v}" for v in upper_viols)

    conn = check_connectivity(graph, shadow)
    if not conn.ok:
        detail.append("connectivity: baseline connected but live graph is not")

    exp_live = exp_shadow = None
    exp_ok: bool | None = None
    if 2 <= len(shadow.alive) <= exact_limit:
        exp_live = expansion(graph, exact_limit)
    if 2 <= len(shadow.nodes) <= exact_limit:
        exp_shadow = expansion(shadow, exact_limit)
    if exp_live is not None and exp_shadow is not None:
        exp_ok = exp_live >= min(alpha, exp_shadow)
        if not exp_ok:
            detail.append(f"expansion: live {exp_live} < min({alpha}, {exp_shadow})")

    lam = None
    if 2 <= len(shadow.alive) <= LAMBDA_SIZE_CAP:
        lam = lambda2(graph)

    rng_stretch = random.Random(f"{seed}/stretch/{t}")
    worst, stretch_viols, _ = stretch(graph, shadow, stretch_pairs, rng_stretch)
    detail.extend(f"stretch: {v}" for v in stretch_viols)
    bound = stretch_bound(len(shadow.alive), stretch_constant)
    s_ok: bool | None = None
    if worst is not None and bound is not None:
        s_ok = worst <= bound and not stretch_viols
        if worst > bound:
            detail.append(f"stretch: worst ratio {worst} exceeds gate {bound}")
    elif stretch_viols:
        s_ok = False

    return MetricsReport(
        t=t,
        n_alive=len(shadow.alive),
        connected_shadow=conn.shadow_connected,
        connected_live=conn.live_connected,
        connectivity_ok=conn.ok,
        edge_preservation_ok=preserved,
        degree_slack_min=slack,
        degree_violations=len(degree_viols),
        density_violations=len(lower_viols),
        density_ub_violations=len(upper_viols),
        expansion_live=exp_live,
        expansion_shadow=exp_shadow,
        expansion_ok=exp_ok,
        lambda2_live=lam,
        max_stretch=worst,
        stretch_bound=bound,
        stretch_ok=s_ok,
        repair_counters=healer.counters.as_dict(),
        violation_detail=detail,
    )
