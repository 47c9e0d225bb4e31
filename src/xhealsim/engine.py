"""The healing state machine.

Every adversarial delete is answered inside the same step by one of
three repairs, keyed by the colors of the edges that vanished with the
node:

* only black edges lost: the black neighbors are joined into a fresh
  primary cloud;
* primary cloud edges lost: each of those clouds is rebuilt over its
  survivors, then one free node per cloud plus the black neighbors form
  a new secondary cloud;
* secondary edges lost too: primaries are rebuilt, the secondary cloud
  replaces its dead bridge (or everything merges into one big primary
  cloud when no free node can be found), and the remaining unbridged
  primaries get a new secondary.

A repair decides membership first and designs topologies last.  The
branch retires clouds (merges, folds), registers new ones and marks
surviving ones for a rebuild, none of which reads a topology; then every
marked or new cloud still registered is designed once, in id order
(``Plan._design``), so no draw is spent on a cloud the repair does not
keep.  A rebuilt expander cloud is spliced from its topology scrubbed of
the dead member, and a merge grows from the largest merged expander
topology (``expander._splice``); only when that fails is the cloud drawn
whole (``expander.build_topology``).  A free node is one with no bridge
duty and a slot left in its cloud budget: a node may be held by at most
one cloud more than it has dead baseline neighbors (``budget_errors``),
which keeps the degree bound.

Each delete is planned as one value, a ``Plan`` with its own registry,
counters and next cloud id and the delete's edge edits recorded as one
step; the healer then takes its state and applies the step to the graph,
so a plan that raises (a cloud that cannot be certified) is dropped with
nothing to restore.  An edge's colors are its only state, and a cloud's
topology is a frozen set of edges: the step strips each retired cloud's
color from its edges and each rebuilt cloud's from ``old - new`` only,
colors ``new - old`` (reusing any edge that exists, a retired cloud's
too) and deletes the stripped edges left colorless, all in one
``ColoredGraph.recolor`` call.  Black is never stripped, so no black
edge goes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .adversary import Event, insert_error
from .expander import CloudTopology, ExpanderConfig, TopologyKind, build_topology
from .graph import (
    BLACK,
    ColoredGraph,
    EdgeKey,
    ShadowGraph,
    black_neighbors,
    edge_key,
    initial_views,
)

FAULTS = ("skip-heal", "drop-black-edge")

# the topology a new cloud is registered with until it is designed
UNDESIGNED = CloudTopology(TopologyKind.CLIQUE, frozenset(), Fraction(0))


class InvalidEvent(Exception):
    pass


class CloudKind(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"


@dataclass(frozen=True)
class Cloud:
    id: int
    kind: CloudKind
    members: frozenset[int]
    topology: CloudTopology


class CloudRegistry:
    """Who is in which cloud, which node bridges what, who is busy."""

    def __init__(self) -> None:
        self.clouds: dict[int, Cloud] = {}
        # node -> ids of the clouds holding it; kept by store and retire
        self.member_of: dict[int, frozenset[int]] = {}
        # (secondary id, primary id) -> the node representing that primary
        self.bridges: dict[tuple[int, int], int] = {}
        # bridge node -> the one secondary cloud it bridges into
        self.duty: dict[int, int] = {}

    def copy(self) -> "CloudRegistry":
        """New dicts sharing the clouds and index entries, which are
        replaced, never mutated."""
        twin = CloudRegistry()
        twin.clouds, twin.member_of, twin.bridges, twin.duty = (
            self.clouds.copy(), self.member_of.copy(), self.bridges.copy(),
            self.duty.copy())
        return twin

    def store(self, cloud: Cloud) -> None:
        """Register *cloud*, replacing any cloud of its id, and re-index
        the members it gained or lost."""
        old = self.clouds.get(cloud.id)
        before = old.members if old is not None else frozenset()
        self.clouds[cloud.id] = cloud
        for node in cloud.members - before:
            self.member_of[node] = self.member_of.get(node, frozenset()) | {cloud.id}
        for node in before - cloud.members:
            self._unindex(node, cloud.id)

    def retire(self, cid: int) -> None:
        cloud = self.clouds.pop(cid)
        for node in cloud.members:
            self._unindex(node, cid)
        for key in [k for k in self.bridges if cid in k]:
            del self.bridges[key]
        if cloud.kind is CloudKind.SECONDARY:
            for node in [n for n, f in self.duty.items() if f == cid]:
                del self.duty[node]

    def _unindex(self, node: int, cid: int) -> None:
        held = self.member_of[node] - {cid}
        if held:
            self.member_of[node] = held
        else:
            del self.member_of[node]

    def bridged_primaries(self, secondary_id: int) -> set[int]:
        return {c for (f, c) in self.bridges if f == secondary_id}

    def validation_errors(self, alive: set[int]) -> list[str]:
        errs = []
        indexed: dict[int, set[int]] = {}
        for cid, cloud in self.clouds.items():
            for node in cloud.members:
                indexed.setdefault(node, set()).add(cid)
            if cid != cloud.id:
                errs.append(f"cloud {cid} stored under wrong id")
            if not cloud.members:
                errs.append(f"cloud {cid} is empty but registered")
            if not cloud.members <= alive:
                errs.append(f"cloud {cid} has dead members")
            members = cloud.members
            for u, v in sorted(e for e in cloud.topology.edges
                               if e[0] not in members or e[1] not in members):
                errs.append(f"cloud {cid} topology edge ({u},{v}) leaves member set")
        for (f, c), node in self.bridges.items():
            if f not in self.clouds or self.clouds[f].kind is not CloudKind.SECONDARY:
                errs.append(f"bridge entry ({f},{c}) has no secondary cloud")
            elif node not in self.clouds[f].members:
                errs.append(f"bridge {node} of ({f},{c}) is not in the secondary cloud")
            if c not in self.clouds or self.clouds[c].kind is not CloudKind.PRIMARY:
                errs.append(f"bridge entry ({f},{c}) has no primary cloud")
        for node, f in self.duty.items():
            if node not in alive:
                errs.append(f"dead node {node} holds duty")
            if f not in self.clouds or self.clouds[f].kind is not CloudKind.SECONDARY:
                errs.append(f"duty of {node} points to missing secondary {f}")
            elif node not in self.clouds[f].members:
                errs.append(f"duty holder {node} not a member of secondary {f}")
        for node in sorted(set(indexed) | set(self.member_of)):
            if indexed.get(node, set()) != self.member_of.get(node, set()):
                errs.append(f"node {node} indexed in clouds "
                            f"{sorted(self.member_of.get(node, ()))} but member of "
                            f"{sorted(indexed.get(node, ()))}")
        return errs


@dataclass
class EdgeStep:
    """Strip old clouds' colors, color built clouds' edges, then purge the drained edges."""

    stripped: list[Cloud] = field(default_factory=list)
    built: list[Cloud] = field(default_factory=list)


@dataclass
class RepairCounters:
    """Cumulative per-run tallies; edge counts proxy repair cost."""

    events: int = 0
    inserts: int = 0
    deletes: int = 0
    branch_all_black: int = 0
    branch_primary: int = 0
    branch_secondary: int = 0
    clouds_built: int = 0
    clouds_rebuilt: int = 0
    clouds_spliced: int = 0
    merges: int = 0
    bridges_borrowed: int = 0
    free_node_misses: int = 0
    edges_created: int = 0
    edges_reused: int = 0
    edges_deleted: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Healer:
    """Mutable simulation state plus the event handler operating on it."""

    def __init__(self, cfg: ExpanderConfig, rng: random.Random,
                 fault: str | None = None) -> None:
        if fault is not None and fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}")
        self.cfg = cfg
        self.rng = rng
        self.fault = fault
        self.graph = ColoredGraph()
        self.shadow = ShadowGraph()
        self.registry = CloudRegistry()
        self.counters = RepairCounters()
        self.next_cloud_id = 0
        self.last_black_neighbors: set[int] = set()

    @classmethod
    def from_initial(cls, nodes: Iterable[int], edges: Iterable[EdgeKey],
                     cfg: ExpanderConfig, rng: random.Random,
                     fault: str | None = None) -> "Healer":
        """A healer whose live graph and baseline are *nodes* joined by the
        black *edges*; raises what ``graph.initial_views`` raises."""
        healer = cls(cfg, rng, fault)
        healer.graph, healer.shadow = initial_views(sorted(nodes), edges)
        return healer

    # -- event entry point ----------------------------------------------

    def handle_event(self, event: Event) -> None:
        if event.is_insert:
            shadow = self.shadow
            problem = insert_error(event.node, event.neighbors, shadow.nodes,
                                   shadow.max_node, shadow.alive)
            if problem is not None:
                raise InvalidEvent(problem)
            self._insert(event)
        else:
            if event.node not in self.shadow.alive:
                raise InvalidEvent(f"delete of non-alive node {event.node}")
            self._delete(event.node)
        self.counters.events += 1

    def _insert(self, event: Event) -> None:
        self.shadow.apply(event)
        self.graph.add_node(event.node)
        for nb in sorted(event.neighbors):
            self.graph.add_edge(event.node, nb)
        self.counters.inserts += 1

    def _delete(self, v: int) -> None:
        """Plan the repair, then take the plan; a plan that raises is dropped."""
        plan = Plan(self, v)
        if self.fault != "skip-heal":
            plan.repair()
        self.registry, self.counters, self.next_cloud_id = (
            plan.registry, plan.counters, plan.next_cloud_id)
        self.counters.deletes += 1
        self.shadow.apply(Event("del", v))
        self.graph.remove_node(v)
        self.last_black_neighbors = set(plan.blacks)
        self._apply(plan.step)
        if self.fault == "drop-black-edge":
            self._drop_one_black_edge()

    # -- edge lifecycle ----------------------------------------------------

    def _apply(self, step: EdgeStep) -> None:
        """Recolor the graph by the step's per-color difference: a cloud
        stripped and built in the same step loses only ``old - new`` and
        gains only ``new - old``.  The graph ends as after stripping
        every old edge and painting every new one, since an edge a cloud
        keeps would be repainted before the purge; it is just no longer
        counted as reused."""
        old = {cloud.id: cloud.topology.edges for cloud in step.stripped}
        new = {cloud.id: cloud.topology.edges for cloud in step.built}
        created, reused, deleted = self.graph.recolor(
            [(cid, edges - new[cid] if cid in new else edges) for cid, edges in old.items()],
            [(cid, edges - old[cid] if cid in old else edges) for cid, edges in new.items()])
        self.counters.edges_created += created
        self.counters.edges_reused += reused
        self.counters.edges_deleted += deleted

    # -- fault injection ----------------------------------------------------

    def _drop_one_black_edge(self) -> None:
        candidates = sorted(rec.key for rec in self.graph.edges() if BLACK in rec.colors)
        if not candidates:
            return
        self.graph.recolor([(BLACK, [self.rng.choice(candidates)])], [])


class Plan:
    """Every decision of one delete's repair, made on copies of the
    healer's registry, counters and next cloud id before any is applied.
    It changes nothing of the healer but the state of its random stream.

    The repair first decides membership only: which clouds are retired,
    which new ones are registered and which are marked for rebuilding,
    none of which reads a topology.  It then designs, once, every marked
    or new cloud that is still registered, so no draw is spent on a
    cloud the repair does not keep, and records all of the delete's
    edge edits as one ``EdgeStep``.
    """

    def __init__(self, healer: Healer, dying: int | None = None) -> None:
        self.cfg, self.rng, self.shadow = healer.cfg, healer.rng, healer.shadow
        self.registry = healer.registry.copy()
        self.counters = RepairCounters(**vars(healer.counters))
        self.next_cloud_id = healer.next_cloud_id
        # clouds of this id or above are new in this plan: no edge of
        # theirs is in the graph until the plan is applied
        self.first_new_id = healer.next_cloud_id
        # the clouds to design over their members at the end of the
        # repair, if a merge or a fold has not retired them by then
        self.marked: set[int] = set()
        # the delete's graph edits
        self.step = EdgeStep()
        # the node whose delete is planned, the edges it takes with it
        # and the endpoints of the black ones
        self.dying = dying
        self.removed = [] if dying is None else [
            healer.graph.edge(dying, nb) for nb in sorted(healer.graph.neighbors(dying))]
        self.blacks = frozenset(black_neighbors(self.removed, dying))
        self.primaries, self.secondaries, self.lost_roles = self._scrub_dead_node()

    # -- bookkeeping when a node dies ------------------------------------

    def _scrub_dead_node(self) -> tuple[list[int], list[int], dict[int, int]]:
        """Remove the dying node from every registry structure.

        Returns its primary cloud ids, secondary cloud ids (read before
        any emptied cloud retires), and the map secondary-id ->
        primary-id for bridge roles it held, all of which the repair
        dispatch needs.
        """
        reg, v = self.registry, self.dying
        lost_roles: dict[int, int] = {}
        for (f, c), node in list(reg.bridges.items()):
            if node == v:
                lost_roles[f] = c
                del reg.bridges[(f, c)]
        reg.duty.pop(v, None)

        v_primary, v_secondary = [], []
        dying_keys = {rec.key for rec in self.removed}
        for cid in sorted(reg.member_of.get(v, ())):
            cloud = reg.clouds[cid]
            (v_primary if cloud.kind is CloudKind.PRIMARY else v_secondary).append(cid)
            topology = replace(cloud.topology, edges=cloud.topology.edges - dying_keys)
            reg.store(replace(cloud, members=cloud.members - {v}, topology=topology))
            if not reg.clouds[cid].members:
                reg.retire(cid)
        return v_primary, v_secondary, lost_roles

    # -- dispatch ---------------------------------------------------------

    def repair(self) -> None:
        """Plan the repair branch that the dying node's lost edge colors
        select, then design the clouds it marked and kept."""
        self._dispatch()
        self._design()

    def _dispatch(self) -> None:
        # every lost cloud color is a cloud the dead node was a member
        # of, so it sits in primaries or secondaries
        lost_colors = {c for rec in self.removed for c in rec.colors if c != BLACK}

        if not lost_colors:
            self.counters.branch_all_black += 1
            if self.blacks:
                self._new_cloud(self.blacks, CloudKind.PRIMARY)
            return

        if not lost_colors & set(self.secondaries):
            # a lost color sits on an edge at a surviving member, so its
            # cloud is still registered
            self.counters.branch_primary += 1
            self.marked |= lost_colors
            self._make_secondary_cloud(lost_colors, self.blacks)
            return

        self.counters.branch_secondary += 1
        self.marked.update(self.primaries)
        merged_ids: list[int] = []
        for f in sorted(self.lost_roles):
            merged = self._fix_secondary_cloud(f, self.lost_roles[f])
            if merged is not None:
                merged_ids.append(merged)
        # The new secondary must tie together every region the deleted
        # node used to join.  Regions with an outside attachment (a
        # surviving secondary that bridges some primary, a merge result,
        # an unbridged primary) each contribute one cloud participant; a
        # surviving secondary with no bridged primary has no attachment
        # at all, so it is folded: retired, its members joining the new
        # cloud directly, like black neighbors.
        reg = self.registry
        bridged: set[int] = set()
        anchors: list[int] = []
        folds: list[int] = []
        for f in sorted(set(self.secondaries)):
            if f not in reg.clouds:
                continue
            reachable = sorted(reg.bridged_primaries(f))
            bridged |= set(reachable)
            if reachable:
                anchors.append(reachable[0])
                if f not in self.lost_roles:
                    self.marked.add(f)
            else:
                folds.append(f)
        leftovers = {c for c in self.primaries if c in reg.clouds and c not in bridged}
        # a merge result is a fresh primary no bridge names, so no later
        # secondary repair retires it
        participants = sorted(leftovers | set(anchors) | set(merged_ids))
        fold_nodes: set[int] = set()
        for f in folds:
            fold_nodes |= reg.clouds[f].members
        loose = sorted(self.blacks | fold_nodes)
        if not loose and len(participants) <= 1:
            # a single self-contained region (or none) needs no tie;
            # folds always carry members, so none are pending here
            return
        self._retire(folds)
        self._make_secondary_cloud(participants, loose)

    # -- repair subroutines ----------------------------------------------

    def _make_secondary_cloud(self, cloud_ids: Iterable[int],
                              extra_members: Iterable[int]) -> None:
        """Bridge one free node per participant cloud, plus any loose
        nodes (black neighbors, folded members), into a fresh secondary
        cloud.  If any participant has no reachable free node,
        everything merges instead.  The participants are registered and
        at least one participant or loose node is given."""
        cids = sorted(set(cloud_ids))
        extras = sorted(set(extra_members))
        picks: dict[int, int] = {}
        reserved: set[int] = set()
        for cid in cids:
            free = self._pick_free_node(cid, reserved)
            if free is None:
                self._merge_into_primary(cids, extra_nodes=extras)
                return
            picks[cid] = free
            reserved.add(free)
        members = sorted(set(picks.values()) | set(extras))
        fid = self._new_cloud(members, CloudKind.SECONDARY)
        # loose nodes take no duty: a dead neighbor pays for their slot
        for cid in sorted(picks):
            self.registry.bridges[(fid, cid)] = picks[cid]
            self.registry.duty[picks[cid]] = fid

    def _fix_secondary_cloud(self, fid: int, lost_primary: int) -> int | None:
        """Repair secondary cloud *fid* after the deleted node, its bridge
        to primary *lost_primary*, died: draft a free replacement and
        mark the cloud for rebuilding with it, or merge everything if
        none exists.
        The scrub or an earlier merge may have retired either cloud.
        Returns the id of the merge result when a merge happened."""
        reg = self.registry
        if fid not in reg.clouds:
            return None
        if lost_primary in reg.clouds:
            replacement = self._pick_free_node(lost_primary, set())
            if replacement is None:
                merge_list = sorted({fid, lost_primary} | reg.bridged_primaries(fid))
                return self._merge_into_primary(merge_list, extra_nodes=())
            reg.duty[replacement] = fid
            reg.bridges[(fid, lost_primary)] = replacement
            cloud = reg.clouds[fid]
            reg.store(replace(cloud, members=cloud.members | {replacement}))
        self.marked.add(fid)
        return None

    def _merge_into_primary(self, cloud_ids: Sequence[int],
                            extra_nodes: Sequence[int]) -> int:
        """Collapse the listed clouds, which must be registered, and any
        loose nodes into one fresh primary cloud, retiring the clouds.
        The merge is designed from the largest of their regular-expander
        topologies, the others' members joining it as newcomers (see
        ``expander._splice``), or drawn afresh when that fails."""
        live = sorted(set(cloud_ids))
        clouds = [self.registry.clouds[cid] for cid in live]
        union = set(extra_nodes).union(*(cloud.members for cloud in clouds))
        largest = max((c.topology for c in clouds
                       if c.topology.kind is TopologyKind.REGULAR_EXPANDER),
                      key=lambda topology: len(topology.edges), default=UNDESIGNED)
        self._retire(live)
        self.counters.merges += 1
        return self._new_cloud(union, CloudKind.PRIMARY, grow_from=largest)

    def _pick_free_node(self, cid: int, reserved: set[int]) -> int | None:
        """Smallest-id free node of the cloud, else the smallest-id free
        node of a primary cloud sharing a member (borrowed), else None.

        A free node holds no secondary duty, is not *reserved*, and has
        a slot left for the cloud it is drafted into (``_has_free_slot``).
        """
        reg = self.registry
        cloud = reg.clouds[cid]
        for node in sorted(cloud.members):
            if node not in reg.duty and node not in reserved and self._has_free_slot(node):
                return node
        primary = CloudKind.PRIMARY
        sharing = {other for node in cloud.members for other in reg.member_of[node]}
        sharing.discard(cid)
        candidates = sorted({
            node
            for other in sharing if reg.clouds[other].kind is primary
            for node in reg.clouds[other].members
            if node not in reg.duty and node not in reserved
        })
        for node in candidates:
            if self._has_free_slot(node):
                self.counters.bridges_borrowed += 1
                return node
        self.counters.free_node_misses += 1
        return None

    def _has_free_slot(self, node: int) -> bool:
        """Whether *node* may be drafted into one more cloud by the
        repair of ``dying`` and keep its cloud budget (see
        ``budget_errors``).

        Its clouds held, plus one when it is a black neighbor of the
        dying node (it also joins that repair's new secondary cloud as a
        loose member), must not exceed its dead baseline neighbors,
        counting the dying node.
        """
        held = len(self.registry.member_of.get(node, ())) + (node in self.blacks)
        dead = self.shadow.dead_degree(node) + (self.dying in self.shadow.neighbors(node))
        return held <= dead

    # -- planned edge edits ------------------------------------------------

    def _new_cloud(self, members: Iterable[int], kind: CloudKind,
                   grow_from: CloudTopology = UNDESIGNED) -> int:
        """Register a cloud of a fresh color over the non-empty *members*
        and mark it for design, from *grow_from* when that is a regular
        expander (a merge), from scratch otherwise."""
        color = self.next_cloud_id
        self.next_cloud_id += 1
        self.counters.clouds_built += 1
        self.registry.store(Cloud(color, kind, frozenset(members), grow_from))
        self.marked.add(color)
        return color

    def _retire(self, cloud_ids: Iterable[int]) -> None:
        """Retire the listed clouds, stripping the colors of those whose
        edges are in the graph."""
        for cid in cloud_ids:
            if cid < self.first_new_id:
                self.step.stripped.append(self.registry.clouds[cid])
            self.registry.retire(cid)

    def _design(self) -> None:
        """Design each marked cloud that is still registered over its
        current members, in id order, from its registered topology: a
        rebuilt cloud's, scrubbed of the dead node, or the one a merge
        grows from.  ``build_topology`` splices that topology when it
        can and draws afresh otherwise.  A rebuilt cloud is stripped and
        built in the one step, so ``Healer._apply`` recolors only its
        difference."""
        reg = self.registry
        for cid in sorted(self.marked):
            cloud = reg.clouds.get(cid)
            if cloud is None:
                continue  # retired by the scrub, a merge or a fold
            topology, spliced = build_topology(sorted(cloud.members), self.cfg, self.rng,
                                               previous=cloud.topology)
            existing = cid < self.first_new_id
            if spliced:
                self.counters.clouds_spliced += 1
            elif existing:
                self.counters.clouds_rebuilt += 1
            if existing:
                self.step.stripped.append(cloud)
            cloud = replace(cloud, topology=topology)
            reg.store(cloud)
            self.step.built.append(cloud)


# -- coherence oracle ---------------------------------------------------


def expected_edge_state(healer: Healer) -> dict[EdgeKey, set[int]]:
    """Reconstruct, from the shadow and the registry alone, the color
    set every live edge is supposed to carry."""
    expected: dict[EdgeKey, set[int]] = {}
    alive = healer.shadow.alive
    for u, v in healer.shadow.edges:
        if u in alive and v in alive:
            expected[edge_key(u, v)] = {BLACK}
    for cid, cloud in healer.registry.clouds.items():
        for key in cloud.topology.edges:
            expected.setdefault(key, set()).add(cid)
    return expected


def budget_errors(healer: Healer) -> list[str]:
    """Alive nodes over their cloud budget.

    A node x held by p(x) primary and s(x) secondary clouds, with dead(x)
    dead baseline neighbors, must have ``p(x) + s(x) <= dead(x) + 1``:
    its live black degree is its baseline degree less dead(x), and each
    cloud adds at most kappa edges, so the budget gives the degree bound
    ``kappa * baseline_degree + kappa``.  Only alive nodes the shadow
    knows are counted; a dead or unknown cloud member is reported by the
    registry and shadow checks.
    """
    shadow = healer.shadow
    held: dict[int, list[int]] = {}
    for cloud in healer.registry.clouds.values():
        for node in cloud.members:
            held.setdefault(node, [0, 0])[cloud.kind is CloudKind.SECONDARY] += 1
    errs = []
    for node in sorted(held):
        if node not in shadow.alive or node not in shadow:
            continue
        (p, s), dead = held[node], shadow.dead_degree(node)
        if p + s > dead + 1:
            errs.append(f"node {node} holds {p} primary and {s} secondary clouds, "
                        f"over its budget of {dead} dead baseline neighbors + 1")
    return errs


def coherence_errors(healer: Healer) -> list[str]:
    """Full cross-check of graph, shadow, and registry.

    Empty result means: the graph's color sets are exactly what the
    registry implies, structural indexes agree, no colorless edge is
    left behind, every expander cloud's certificate clears
    ``alpha_target``, and every node keeps its cloud budget.
    """
    errs = healer.graph.integrity_errors()
    errs.extend(healer.registry.validation_errors(set(healer.shadow.alive)))
    errs.extend(budget_errors(healer))
    alpha = healer.cfg.alpha_target
    for cid, cloud in healer.registry.clouds.items():
        cert = cloud.topology.certified_expansion
        if cloud.topology.kind is TopologyKind.REGULAR_EXPANDER and cert < alpha:
            errs.append(f"cloud {cid} certified expansion {cert} below alpha_target {alpha}")
    if healer.graph.node_set != healer.shadow.alive:
        errs.append("live node set differs from shadow alive set")
    expected = expected_edge_state(healer)
    actual = {rec.key: rec for rec in healer.graph.edges()}
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            errs.append(f"edge {key} expected but missing from graph")
        elif key not in expected:
            errs.append(f"edge {key} present but unexplained by registry/shadow")
        elif actual[key].colors != expected[key]:
            errs.append(f"edge {key} colors {sorted(actual[key].colors)} "
                        f"!= expected {sorted(expected[key])}")
    return errs
