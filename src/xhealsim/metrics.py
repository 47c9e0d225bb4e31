"""Checkpoint metrics and bound verdicts.

Every quantity a verdict depends on (degrees, densities, expansion,
distances) is computed in exact integer or rational arithmetic; the
spectral gap is the one floating-point value and is reported for
context only, never asserted.

Preservation and the degree bound read the alive nodes' adjacency sets;
CSR snapshots feed only connectivity, BFS distances, the spectral gap
and exact expansion.

A density subset is a collection of node ids: the mandatory ones
(alive set, clouds, last black neighbourhood) and the sampled ones that
``sample_subsets`` draws from the sorted alive ids.  Both density
checks read a subset as a set of ids and count its induced edges, as
neighbours within the set, only where the premise of their bound fails
on it: preservation for the lower bound, the degree bound for the
upper.  So a clean checkpoint counts none, and a faulted one pays a
pure-Python pass over each subset the fault reaches.  Only then does
``evaluate`` draw the sampled subsets, since otherwise none of them can
break a density bound.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

import numpy as np

from . import expander
from .adversary import run_stream
from .expander import TooLarge, lambda2_of_adjacency
from .graph import (
    ColoredGraph,
    Csr,
    EmptySubset,
    ShadowGraph,
    UnknownNode,
    bfs_distances,
    csr_connected,
)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Healer

LAMBDA_SIZE_CAP = 500
ALL_PAIRS_LIMIT = 60


class MetricsError(Exception):
    pass


def lambda2(view: ColoredGraph | ShadowGraph) -> float:
    csr = Csr.of(view)
    n = len(csr.ids)
    if n < 2:
        raise MetricsError("lambda2 needs at least 2 nodes")
    if n > LAMBDA_SIZE_CAP:
        raise TooLarge(f"{n} nodes exceeds spectral size cap {LAMBDA_SIZE_CAP}")
    return lambda2_of_adjacency(n, *csr.edge_ends())


def expansion(view: ColoredGraph | ShadowGraph, exact_limit: int) -> Fraction:
    """Exact edge expansion of the view over its own node set.

    ``evaluate`` gates live expansion >= min(alpha, baseline expansion),
    the expansion guarantee of Xheal (Pandurangan and Trehan, PODC'11),
    which this healer keeps by certifying every expander cloud at alpha.
    """
    csr = Csr.of(view)
    return expander.expansion_exact(len(csr.ids), *csr.edge_ends(), limit=exact_limit)


# -- per-bound checks ----------------------------------------------------


def _recorded_alive(shadow: ShadowGraph) -> set[int]:
    """The alive ids; raises ``UnknownNode`` for the first the baseline lacks."""
    if not shadow.alive <= shadow.nodes:
        raise UnknownNode(f"node {next(v for v in shadow.alive if v not in shadow)} not present")
    return shadow.alive


def check_edge_preservation(graph: ColoredGraph, shadow: ShadowGraph
                            ) -> tuple[bool, list[tuple[int, int]]]:
    """Every baseline edge between two alive nodes must still be live.

    This is edge preservation by definition: healing may add edges but
    never remove a baseline edge whose ends are both alive.  Returns the
    verdict and the edges that are not, as ``(u, v)`` with ``u < v``, in
    sorted order; an alive node missing from the live graph has lost them.
    """
    alive = _recorded_alive(shadow)
    live = graph.node_set
    missing = []
    for u in alive:
        lost = shadow.neighbors(u).difference(graph.neighbors(u) if u in live else ())
        if not alive.isdisjoint(lost):
            missing.extend((u, v) for v in lost & alive if u < v)
    missing.sort()
    return not missing, missing


def check_degree_bound(graph: ColoredGraph, shadow: ShadowGraph, kappa: int
                       ) -> tuple[int | None, list[tuple[int, int]]]:
    """Per-node slack of degree(x) <= kappa * baseline_degree(x) + kappa.

    The bound follows from the cloud budget p(x) + s(x) <= dead(x) + 1,
    which ``engine.budget_errors`` checks: x keeps baseline_degree(x) -
    dead(x) black edges and each of its clouds adds at most kappa.
    Returns the minimum slack over alive nodes (None when empty) and the
    nodes with negative slack, in node order.
    """
    ids = sorted(_recorded_alive(shadow))
    slack = [kappa * len(shadow.neighbors(x)) + kappa - len(graph.neighbors(x)) for x in ids]
    violations = [(x, s) for x, s in zip(ids, slack) if s < 0]
    return (min(slack) if slack else None), violations


def sample_subsets(alive: Iterable[int], samples: int, rng: random.Random
                   ) -> list[list[int]]:
    """*samples* subsets of ``sorted(alive)``, each of a uniform random
    size in [1, n] with uniform members, as id lists in selection order;
    none when *alive* is empty."""
    pool = sorted(alive)
    if not pool:
        return []
    return [rng.sample(pool, rng.randint(1, len(pool))) for _ in range(samples)]


def mandatory_subsets(healer: "Healer") -> list[frozenset[int]]:
    """Deterministic subsets that every checkpoint must inspect: the
    whole live node set, every current cloud, and the black neighborhood
    of the last deletion (healing acts exactly there)."""
    alive, clouds = healer.shadow.alive, healer.registry.clouds
    family = [frozenset(alive), *(clouds[cid].members for cid in sorted(clouds)),
              frozenset(healer.last_black_neighbors & alive)]
    return [subset for subset in family if subset]


def _node_sets(graph: ColoredGraph, subsets: Sequence[Collection[int]]
               ) -> list[frozenset[int]]:
    """The *subsets*, each a collection of distinct node ids, as sets,
    in order.  Raises ``EmptySubset`` or ``UnknownNode`` for the first
    subset that is empty or holds a node missing from *graph*."""
    nodes = graph.node_set
    sets = []
    for subset in subsets:
        members = frozenset(subset)
        if not members:
            raise EmptySubset("density of the empty set is undefined")
        if not members <= nodes:
            raise UnknownNode(f"node {next(v for v in subset if v not in nodes)} not present")
        sets.append(members)
    return sets


def _edges_inside(view: ColoredGraph | ShadowGraph, members: frozenset[int]) -> int:
    """The number of edges of *view* with both ends in *members*."""
    return sum(len(view.neighbors(v) & members) for v in members) // 2


def check_density_lower(graph: ColoredGraph, shadow: ShadowGraph,
                        subsets: Sequence[Collection[int]],
                        missing: Sequence[tuple[int, int]]) -> list[str]:
    """Live induced density must dominate the baseline density on every
    subset of alive nodes; checked through the stronger statement that
    the baseline's induced edges are a subset of the live ones.  It
    follows from edge preservation: a baseline edge inside S has both
    ends alive, so it is live.

    *missing* lists the baseline edges between alive nodes that are not
    live, as ``check_edge_preservation`` returns them for this state.
    Only subsets holding one of them are counted: without one, E_base(S)
    is a subset of E_live(S), so live density cannot fall below the
    baseline's.
    """
    sets = _node_sets(graph, subsets)
    if not missing:
        return []
    violations = []
    for members in sets:
        held = [(u, v) for u, v in missing if u in members and v in members]
        if held:
            listed = sorted(members)
            violations.append(f"S={listed}: baseline edges {held} not live")
            if _edges_inside(graph, members) < _edges_inside(shadow, members):
                violations.append(f"S={listed}: live density below baseline")
    return violations


def check_density_upper(graph: ColoredGraph, shadow: ShadowGraph, kappa: int,
                        subsets: Sequence[Collection[int]],
                        over: Collection[int]) -> list[str]:
    """One exact upper bound on healed density, per subset.

    For every subset S: live density <= baseline density + kappa * (sum
    of baseline degrees) / (2|S|) + kappa/2, with baseline degrees
    counted in G'_t, the full shadow, where dead nodes keep their edges.
    It is the degree bound summed over S: 2|E_live(S)| <= sum over S of
    live_deg <= sum over S of (kappa * base_deg + kappa), and the
    baseline density term only adds slack.  ``mandatory_subsets`` puts
    the alive set first, so its line is the whole-graph bound, stated
    against G'_t.  Compared after multiplying through by 2|S|, in
    integers.

    A subset whose live degree sum fits within the slack keeps the
    bound, and so does one holding no node of *over*, the alive nodes
    that ``check_degree_bound`` finds over their budgets.  So only the
    others have their degrees summed, and their induced edges are
    counted only when the live sum exceeds the slack.
    """
    sets = _node_sets(graph, subsets)
    violations = []
    for members in sets:
        if members.isdisjoint(over):
            continue
        slack = kappa * sum(len(shadow.neighbors(v)) for v in members) + kappa * len(members)
        if (sum(len(graph.neighbors(v)) for v in members) > slack
                and 2 * _edges_inside(graph, members)
                > 2 * _edges_inside(shadow, members) + slack):
            violations.append(f"S={sorted(members)}: per-subset upper bound broken")
    return violations


@dataclass
class ConnectivityVerdict:
    shadow_connected: bool
    live_connected: bool

    @property
    def ok(self) -> bool:
        return self.live_connected or not self.shadow_connected


def check_connectivity(graph: ColoredGraph, shadow: ShadowGraph) -> ConnectivityVerdict:
    """Baseline connected (over all nodes ever) must imply live connected.

    This is Xheal's connectivity guarantee: each deletion ties the dead
    node's live neighbours together through clouds, so every path
    through a dead node has a live detour.
    """
    return ConnectivityVerdict(csr_connected(Csr.of(shadow)), csr_connected(Csr.of(graph)))


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
    """Configured gate standing in for logarithmic stretch growth.

    This is not a derived bound: Xheal's O(log n) stretch carries no
    constant, so ``constant`` * ceil(log2 n) is a setting of the run.
    """
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

    The random density subsets are drawn only when one of them can break
    a bound, that is when a baseline edge between alive nodes is missing
    or an alive node is over its degree budget, the premises each density
    check states; otherwise both run on the mandatory subsets alone.  A
    drawn family is the one an always-drawing checkpoint would draw.
    """
    graph, shadow = healer.graph, healer.shadow
    alpha = healer.cfg.alpha_target
    detail: list[str] = []

    preserved, missing = check_edge_preservation(graph, shadow)
    detail.extend(f"preservation: {m}" for m in missing)

    slack, degree_viols = check_degree_bound(graph, shadow, healer.cfg.kappa)
    detail.extend(f"degree: node {v} slack {s}" for v, s in degree_viols)

    family: list[Collection[int]] = [*mandatory_subsets(healer)]
    if not preserved or degree_viols:
        family += sample_subsets(shadow.alive, density_samples,
                                 run_stream(seed, f"density/{t}"))
    lower_viols = check_density_lower(graph, shadow, family, missing)
    upper_viols = check_density_upper(graph, shadow, healer.cfg.kappa, family,
                                      [v for v, _ in degree_viols])
    detail.extend(f"density: {v}" for v in lower_viols)
    detail.extend(f"density-upper: {v}" for v in upper_viols)

    conn = check_connectivity(graph, shadow)
    if not conn.ok:
        detail.append("connectivity: baseline connected but live graph is not")

    n_live = len(Csr.of(graph).ids)  # what exact expansion and lambda2 enumerate
    exp_live = exp_shadow = None
    exp_ok: bool | None = None
    if 2 <= n_live <= exact_limit:
        exp_live = expansion(graph, exact_limit)
    if 2 <= len(shadow.nodes) <= exact_limit:
        exp_shadow = expansion(shadow, exact_limit)
    if exp_live is not None and exp_shadow is not None:
        exp_ok = exp_live >= min(alpha, exp_shadow)
        if not exp_ok:
            detail.append(f"expansion: live {exp_live} < min({alpha}, {exp_shadow})")

    lam = None
    if 2 <= n_live <= LAMBDA_SIZE_CAP:
        lam = lambda2(graph)

    worst, stretch_viols, _ = stretch(graph, shadow, stretch_pairs,
                                      run_stream(seed, f"stretch/{t}"))
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
