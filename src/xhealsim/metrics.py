"""Checkpoint metrics and bound verdicts.

Every quantity a verdict depends on (degrees, densities, expansion,
distances) is computed in exact integer or rational arithmetic; the
spectral gap is the one floating-point value and is reported for
context only, never asserted.
"""
from __future__ import annotations

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
    bfs_distances,
    edge_key,
    is_connected,
)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Healer

LAMBDA_SIZE_CAP = 500
ALL_PAIRS_LIMIT = 60
BFS_BLOCK = 32  # sources per batched BFS; bounds its sources x nodes frontier


class MetricsError(Exception):
    pass


def lambda2_of_adjacency(adjacency: Mapping[int, AbstractSet[int]]) -> float:
    """Second-smallest eigenvalue of the combinatorial Laplacian, via a
    dense symmetric eigensolver (documented tolerance ~1e-9)."""
    order = sorted(adjacency)
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    lap = np.zeros((n, n))
    for v, nbrs in adjacency.items():
        lap[index[v], index[v]] = len(nbrs)
        for nb in nbrs:
            lap[index[v], index[nb]] = -1.0
    return float(np.linalg.eigvalsh(lap)[1])


def lambda2(view: ColoredGraph | ShadowGraph, cap: int = LAMBDA_SIZE_CAP) -> float:
    nodes = sorted(view.node_set)
    if len(nodes) < 2:
        raise MetricsError("lambda2 needs at least 2 nodes")
    if len(nodes) > cap:
        raise TooLarge(f"{len(nodes)} nodes exceeds spectral size cap {cap}")
    return lambda2_of_adjacency({v: view.neighbors(v) for v in nodes})


def expansion(view: ColoredGraph | ShadowGraph, exact_limit: int = 20) -> Fraction:
    """Exact edge expansion of the view over its own node set."""
    nodes = sorted(view.node_set)
    return expander.expansion_exact({v: view.neighbors(v) for v in nodes}, limit=exact_limit)


# -- per-bound checks ----------------------------------------------------


def check_edge_preservation(graph: ColoredGraph, shadow: ShadowGraph
                            ) -> tuple[bool, list[tuple[int, int]]]:
    """Every baseline edge between two alive nodes must still be live."""
    violations = []
    for u, v in shadow.edges:
        if u in shadow.alive and v in shadow.alive and not graph.has_edge(u, v):
            violations.append(edge_key(u, v))
    return (not violations, sorted(violations))


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
    """Uniform random size in [1, n], then uniform members."""
    pool = sorted(alive)
    if not pool:
        return []
    out = []
    for _ in range(samples):
        size = rng.randint(1, len(pool))
        out.append(frozenset(rng.sample(pool, size)))
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


@dataclass
class _SubsetCounts:
    """Exact per-subset edge counts, one entry per subset in order.

    ``live`` and ``base`` count the induced live and baseline edges,
    ``size`` the members and ``degree_sum`` their full-baseline degrees.
    ``missing`` holds the baseline edges between two live nodes that are
    not live, sorted; ``mask`` marks each subset's members by position
    in ``ids`` (the sorted live node ids).
    """

    ids: np.ndarray
    mask: np.ndarray
    live: np.ndarray
    base: np.ndarray
    size: np.ndarray
    degree_sum: np.ndarray
    missing: np.ndarray


def _subset_counts(graph: ColoredGraph, shadow: ShadowGraph,
                   subsets: list[frozenset[int]]) -> _SubsetCounts:
    """Count every subset's induced edges in both views at once.

    Raises ``EmptySubset`` or ``UnknownNode`` for the first subset that
    is empty or holds a node missing from the live graph.
    """
    live, base = Csr.of(graph), Csr.of(shadow)
    mask = np.zeros((len(subsets), len(live.ids)), dtype=bool)
    for row, subset in zip(mask, subsets):
        if not subset:
            raise EmptySubset("density of the empty set is undefined")
        row[live.positions(subset)] = True
    lu, lv = live.edge_ends()
    bu, bv = base.edge_ends()
    # baseline edges between two live nodes, relabelled to live positions;
    # both id lists are sorted, so the relabelling keeps u < v and order
    bu, found_u = live.lookup(base.ids[bu])
    bv, found_v = live.lookup(base.ids[bv])
    both = found_u & found_v
    bu, bv = bu[both], bv[both]
    n = len(live.ids)
    base_codes = bu * n + bv
    missing = np.sort(base_codes[~np.isin(base_codes, lu * n + lv)])
    degrees = np.diff(base.indptr)[base.positions(live.ids)]
    return _SubsetCounts(
        ids=live.ids,
        mask=mask,
        live=(mask[:, lu] & mask[:, lv]).sum(axis=1, dtype=np.int64),
        base=(mask[:, bu] & mask[:, bv]).sum(axis=1, dtype=np.int64),
        size=mask.sum(axis=1, dtype=np.int64),
        degree_sum=mask.astype(np.int64) @ degrees,
        missing=np.stack([missing // n, missing % n], axis=1),
    )


def check_density_lower(graph: ColoredGraph, shadow: ShadowGraph,
                        subsets: Iterable[frozenset[int]]) -> list[str]:
    """Live induced density must dominate the baseline density on every
    subset of alive nodes; checked through the stronger statement that
    the baseline's induced edges are a subset of the live ones."""
    subsets = list(subsets)
    counts = _subset_counts(graph, shadow, subsets)
    mu, mv = counts.missing[:, 0], counts.missing[:, 1]
    violations = []
    for i, subset in enumerate(subsets):
        if len(mu):
            inside = counts.mask[i, mu] & counts.mask[i, mv]
            if inside.any():
                missing = [tuple(e) for e in counts.ids[counts.missing[inside]].tolist()]
                violations.append(f"S={sorted(subset)}: baseline edges {missing} not live")
        if counts.live[i] < counts.base[i]:
            violations.append(f"S={sorted(subset)}: live density below baseline")
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
    counts = _subset_counts(graph, shadow, subsets + [alive] if alive else subsets)
    twice_live = 2 * counts.live
    twice_bound = 2 * counts.base + kappa * counts.degree_sum + kappa * counts.size
    broken = np.flatnonzero(twice_live[:len(subsets)] > twice_bound[:len(subsets)])
    violations = [f"S={sorted(subsets[i])}: per-subset upper bound broken" for i in broken]
    if alive:
        live, base, n = (int(counts.live[-1]), int(counts.base[-1]), len(alive))
        if 2 * live > 2 * (kappa + 1) * base + kappa * n:
            whole = Fraction(live, n)
            bound_whole = (kappa + 1) * Fraction(base, n) + Fraction(kappa, 2)
            violations.append(
                f"graph density {whole} exceeds (kappa+1)*baseline+kappa/2 = {bound_whole}")
    return violations


@dataclass
class ConnectivityVerdict:
    shadow_connected: bool
    live_connected: bool

    @property
    def vacuous(self) -> bool:
        return not self.shadow_connected

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
    row: dict[int, int] = {}  # source -> its row in the distance matrices
    rows = [row.setdefault(u, len(row)) for u, _ in pairs]
    targets = [v for _, v in pairs]
    base_csr, live_csr = Csr.of(shadow), Csr.of(graph)
    base_dist = _source_distances(base_csr, list(row))[rows, base_csr.positions(targets)]
    live_dist = _source_distances(live_csr, list(row))[rows, live_csr.positions(targets)]
    worst: Fraction | None = None
    violations = []
    evaluated = 0
    for (u, v), base_d, live_d in zip(pairs, base_dist.tolist(), live_dist.tolist()):
        if base_d < 0:
            continue
        if live_d < 0:
            violations.append(f"pair ({u},{v}) connected in baseline but not live")
            continue
        evaluated += 1
        ratio = Fraction(live_d, base_d)
        if worst is None or ratio > worst:
            worst = ratio
    return worst, violations, evaluated


def _source_distances(csr: Csr, sources: list[int]) -> np.ndarray:
    """Distance rows from each source, by batched BFS over blocks of
    ``BFS_BLOCK`` sources."""
    src = csr.positions(sources)
    dist = np.empty((len(src), len(csr.ids)), dtype=np.int32)
    for lo in range(0, len(src), BFS_BLOCK):
        dist[lo:lo + BFS_BLOCK] = bfs_distances(csr, src[lo:lo + BFS_BLOCK])
    return dist


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

    @property
    def clean(self) -> bool:
        return (self.edge_preservation_ok
                and self.connectivity_ok
                and self.degree_violations == 0
                and self.density_violations == 0
                and self.density_ub_violations == 0
                and self.expansion_ok is not False
                and self.stretch_ok is not False)


def evaluate(healer: "Healer", t: int, seed: int, *,
             density_samples: int = 100,
             stretch_pairs: int = 200,
             stretch_constant: int = 4,
             exact_limit: int | None = None,
             lambda_cap: int = LAMBDA_SIZE_CAP,
             alpha_target: Fraction | None = None) -> MetricsReport:
    """Run every check against the current state and assemble a report.

    Sampling rngs are derived from (seed, t), so a checkpoint's verdict
    does not depend on when other checkpoints ran.
    """
    graph, shadow = healer.graph, healer.shadow
    limit = exact_limit if exact_limit is not None else healer.cfg.exact_limit
    alpha = alpha_target if alpha_target is not None else healer.cfg.alpha_target
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
    if 2 <= len(shadow.alive) <= limit:
        exp_live = expansion(graph, limit)
    if 2 <= len(shadow.nodes) <= limit:
        exp_shadow = expansion(shadow, limit)
    if exp_live is not None and exp_shadow is not None:
        exp_ok = exp_live >= min(alpha, exp_shadow)
        if not exp_ok:
            detail.append(f"expansion: live {exp_live} < min({alpha}, {exp_shadow})")

    lam = None
    if 2 <= len(shadow.alive) <= lambda_cap:
        lam = lambda2(graph, lambda_cap)

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
