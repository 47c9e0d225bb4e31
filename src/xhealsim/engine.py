"""The healing state machine.

Every adversarial delete is answered inside the same step by one of
three repairs, keyed by the clouds the node leaves that keep a member,
read from the registry (``Plan._scrub_dead_node``).  Its black
neighbors are its alive baseline neighbors (``ShadowGraph``).

* none: the black neighbors are joined into a fresh primary cloud;
* primary clouds only: each of those clouds is rebuilt over its
  survivors, then one free node per cloud plus the black neighbors form
  a new secondary cloud;
* a secondary cloud too: primaries are rebuilt, the secondary cloud
  replaces its dead bridge (or everything merges into one big primary
  cloud when no free node can be found), and the remaining unbridged
  primaries get a new secondary.

A repair decides membership first and designs topologies last.  The
branch retires clouds (merges, folds) and registers new ones, none of
which reads a topology; then every cloud the repair touched
(``CloudRegistry.touched``), the dead node's and the new ones, that is
still registered is designed once, in id order (``Plan._design``), so no
draw is spent on a cloud the repair does not keep.  A rebuilt expander
cloud is spliced from its topology scrubbed of the dead member, and a merge grows from
the largest merged topology that is not a clique (``expander._splice``);
only when that fails is the cloud drawn whole (``build_topology``).  A
free node is one that holds no bridge entry (``CloudRegistry.bridges``
is keyed by the nodes that do) and no more clouds than it has dead
baseline neighbors (``CloudRegistry.free``): a node may hold one cloud
more (``budget_errors``), which keeps the degree bound.

Each delete is planned as one value, a ``Plan`` with its own counters,
next cloud id and draws, that writes the healer's registry under a
journal; the healer then commits the journal and applies the plan to
the graph, and a plan that raises (a cloud that cannot be certified) is
rolled back.  A delete's work grows with the clouds it touches, not with
the clouds the run has registered: the dying node's bridge role is one
dict lookup, a cloud's bridge entries are indexed by its id
(``CloudRegistry.bridges_of``), the free cloud members are kept in one
set that a pick intersects with the cloud's members
(``CloudRegistry.first_free``), a node's dead baseline neighbors are
counted as they die (``ShadowGraph.mark_dead``), its stream is seeded
only if a design draws, and the edge step walks only the clouds the plan
touched.  A borrowed pick still reads the cloud's members to find the
primaries that share one.  Only a plan that is rolled back, one that
raises or one a test discards, pays for the whole registry: the rollback
puts back what the journal kept and derives the indexes from the whole
record (``CloudRegistry.derived``).

An edge's owner count is its only state, and a cloud's topology is a
frozen set of edges, so the delete's edge step is, over the clouds the
plan touched, the difference between each one's cloud before the plan,
as ``CloudRegistry.touched`` recorded it, and after (``Healer._apply``):
each such cloud gives up its ownership of ``old - new`` only and takes
``new - old`` (reusing any edge that exists, a retired cloud's too),
and the stripped edges left with no owner go, all in one
``ColoredGraph.reown`` call.  A black edge's own owner is never
stripped, so no black edge goes.  An edge's colors are derived, never
stored: black while the baseline holds it and both ends live, and the
id of each cloud whose topology holds it (``expected_edge_state``).
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .adversary import Event, insert_error
from .expander import CloudTopology, ExpanderConfig, build_topology, is_clique
from .graph import ColoredGraph, EdgeKey, InputError, ShadowGraph, edge_key, initial_views

FAULTS = ("skip-heal", "drop-black-edge")

# the topology a new cloud is registered with until it is designed
UNDESIGNED = CloudTopology(frozenset(), Fraction(0))


class InvalidEvent(InputError):
    pass


class CloudKind(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"


@dataclass(frozen=True)
class Cloud:
    kind: CloudKind
    members: frozenset[int]
    topology: CloudTopology


class CloudRegistry:
    """Who is in which cloud and which node bridges what; a node that
    holds a bridge entry is busy, and holds only that one.  The clouds,
    keyed by id, and ``bridges``, keyed by the node holding each entry,
    are the record.  Three indexes are derived from them and from the
    shadow's dead counts: ``member_of``, ``bridges_of`` and
    ``free_members``, the cloud members ``free`` accepts.  Only the
    methods below write these fields, and nothing but the record is
    saved.

    ``begin`` opens a journal for one plan; ``commit`` keeps what the
    plan wrote and ``rollback`` undoes it, and either closes the
    journal.  While it is open, ``touched`` maps each cloud id that
    ``store`` and ``retire`` write to the cloud it held at ``begin``
    (None for an id that held none), and the journal keeps the bridge
    entry each node held before its first change.  A rollback puts
    those back, restoring the record, and assigns the indexes from
    ``derived``, the derivation ``validation_errors`` checks them by.
    ``touched`` outlives the journal as the record of the last plan."""

    def __init__(self, shadow: ShadowGraph) -> None:
        self.shadow = shadow
        self.clouds: dict[int, Cloud] = {}
        # node -> ids of the clouds holding it
        self.member_of: dict[int, frozenset[int]] = {}
        # node -> (secondary id, primary id): the node represents that
        # primary in that secondary
        self.bridges: dict[int, tuple[int, int]] = {}
        # cloud id -> the nodes holding an entry that names it
        self.bridges_of: dict[int, set[int]] = {}
        self.free_members: set[int] = set()  # the cloud members ``free`` accepts
        self.touched: dict[int, Cloud | None] = {}
        # the journal while a plan is open, None otherwise: node -> its
        # bridge entry at begin
        self._entries_then: dict[int, tuple[int, int] | None] | None = None

    def begin(self) -> None:
        self.touched, self._entries_then = {}, {}

    def commit(self) -> None:
        self._entries_then = None

    def rollback(self) -> None:
        """Undo every write since ``begin``: put back the touched clouds and
        the journaled bridge entries, then derive the indexes from them; a
        closed journal has nothing to undo."""
        entries = self._entries_then
        if entries is None:
            return
        self._entries_then = None
        for table, journal in ((self.clouds, self.touched), (self.bridges, entries)):
            for key, then in journal.items():
                if then is None:
                    table.pop(key, None)
                else:
                    table[key] = then
        self.member_of, self.bridges_of, self.free_members = self.derived()

    def store(self, cid: int, cloud: Cloud) -> None:
        """Register *cloud* under id *cid*, replacing any cloud of that
        id, and re-index the members it gained or lost."""
        clouds, member_of = self.clouds, self.member_of
        old = clouds.get(cid)
        self.touched.setdefault(cid, old)
        clouds[cid] = cloud
        before = old.members if old is not None else frozenset()
        if cloud.members is before:
            return
        free, free_members = self.free, self.free_members
        for node in cloud.members - before:  # a cloud more can only end a node's freedom
            held = member_of.get(node)
            if held:
                member_of[node] = held | {cid}
                if node in free_members and not free(node):
                    free_members.discard(node)
            else:
                member_of[node] = frozenset((cid,))
                if free(node):
                    free_members.add(node)
        lost = before - cloud.members
        if lost:
            self._leave(lost, cid)

    def retire(self, cid: int) -> None:
        cloud = self.clouds.pop(cid)
        self.touched.setdefault(cid, cloud)
        self._leave(cloud.members, cid)
        holders = self.bridges_of.pop(cid, None)
        if holders:
            for node in holders:
                f, c = entry = self.bridges.pop(node)
                if self._entries_then is not None:
                    self._entries_then.setdefault(node, entry)
                self._unbridge(c if f == cid else f, node)
            self.refresh_free(holders)

    def bridge(self, secondary: int, primary: int, node: int) -> None:
        """Let *node*, which must hold no bridge entry, represent
        *primary* in *secondary*; raises ValueError when it holds one."""
        if node in self.bridges:
            f, c = self.bridges[node]
            raise ValueError(f"node {node} already holds bridge entry ({f},{c})")
        if self._entries_then is not None:
            self._entries_then.setdefault(node, None)
        self.bridges[node] = (secondary, primary)
        self.bridges_of.setdefault(secondary, set()).add(node)
        self.bridges_of.setdefault(primary, set()).add(node)
        self.free_members.discard(node)

    def release(self, node: int) -> tuple[int, int] | None:
        """Drop the bridge entry *node* holds and return its key, or
        None when it holds none."""
        key = self.bridges.pop(node, None)
        if key is None:
            return None
        if self._entries_then is not None:
            self._entries_then.setdefault(node, key)
        for cid in key:
            self._unbridge(cid, node)
        self.refresh_free((node,))
        return key

    def _leave(self, nodes: Iterable[int], cid: int) -> None:
        """Take cloud *cid* off each of *nodes*' clouds; a cloud less can
        only free a node."""
        member_of, gone = self.member_of, {cid}
        free, free_members = self.free, self.free_members
        for node in nodes:
            held = member_of[node] - gone
            if held:
                member_of[node] = held
                if node not in free_members and free(node):
                    free_members.add(node)
            else:
                del member_of[node]
                free_members.discard(node)

    def _unbridge(self, cid: int, node: int) -> None:
        holders = self.bridges_of[cid]
        holders.discard(node)
        if not holders:
            del self.bridges_of[cid]

    def bridged_primaries(self, secondary_id: int) -> set[int]:
        bridges = self.bridges
        return {bridges[node][1] for node in self.bridges_of.get(secondary_id, ())
                if bridges[node][0] == secondary_id}

    # -- free members --------------------------------------------------------

    def free(self, node: int) -> bool:
        """Whether *node* may be drafted into one more cloud: it holds no
        bridge entry, and keeps its cloud budget (see ``budget_errors``)
        with one more cloud, so the clouds it holds do not exceed its dead
        baseline neighbors.  A delete adds one to each side of a baseline
        neighbor of the dying node, a dead neighbor and a loose membership
        in the repair's new cloud (it is a black neighbor), so the rule
        reads state only and a repair reads it before the node dies."""
        return (node not in self.bridges
                and len(self.member_of.get(node, ())) <= self.shadow.dead.get(node, 0))

    def refresh_free(self, nodes: Iterable[int]) -> None:
        """Put each of *nodes* in ``free_members`` exactly when it is a
        free cloud member, once its clouds, its bridge entry or its dead
        baseline neighbors have changed."""
        free, free_members, member_of = self.free, self.free_members, self.member_of
        for node in nodes:
            if node in member_of and free(node):
                free_members.add(node)
            else:
                free_members.discard(node)

    def first_free(self, cids: Iterable[int], reserved: set[int]) -> int | None:
        """The smallest-id free member of the clouds *cids* not in
        *reserved*, or None: the least of each cloud's members that
        ``free_members`` holds."""
        lows = []
        for cid in cids:
            candidates = self.free_members.intersection(self.clouds[cid].members)
            candidates -= reserved
            if candidates:
                lows.append(min(candidates))
        return min(lows, default=None)

    def derived(self) -> tuple[dict[int, frozenset[int]], dict[int, set[int]], set[int]]:
        """``member_of``, ``bridges_of`` and ``free_members`` as the record and
        the shadow's dead counts give them, with the free rule stated apart
        from ``free`` so that ``validation_errors`` checks one by the other."""
        held: dict[int, set[int]] = {}
        for cid, cloud in self.clouds.items():
            for node in cloud.members:
                held.setdefault(node, set()).add(cid)
        bridges_of: dict[int, set[int]] = {}
        for node, entry in self.bridges.items():
            for cid in entry:
                bridges_of.setdefault(cid, set()).add(node)
        free = {node for node, ids in held.items()
                if node not in self.bridges and len(ids) <= self.shadow.dead.get(node, 0)}
        return {node: frozenset(ids) for node, ids in held.items()}, bridges_of, free

    def validation_errors(self, alive: set[int]) -> list[str]:
        errs = []
        for cid, cloud in self.clouds.items():
            if not cloud.members:
                errs.append(f"cloud {cid} is empty but registered")
            if not cloud.members <= alive:
                errs.append(f"cloud {cid} has dead members")
            members = cloud.members
            for u, v in sorted(e for e in cloud.topology.edges
                               if e[0] not in members or e[1] not in members):
                errs.append(f"cloud {cid} topology edge ({u},{v}) leaves member set")
        holders: dict[tuple[int, int], list[int]] = {}
        for node, (f, c) in self.bridges.items():
            holders.setdefault((f, c), []).append(node)
            if f not in self.clouds or self.clouds[f].kind is not CloudKind.SECONDARY:
                errs.append(f"bridge entry ({f},{c}) has no secondary cloud")
            elif node not in self.clouds[f].members:
                errs.append(f"bridge {node} of ({f},{c}) is not in the secondary cloud")
            if c not in self.clouds or self.clouds[c].kind is not CloudKind.PRIMARY:
                errs.append(f"bridge entry ({f},{c}) has no primary cloud")
        for (f, c), nodes in sorted(holders.items()):
            if len(nodes) > 1:
                errs.append(f"bridge entry ({f},{c}) is held by nodes {sorted(nodes)}")
        member_of, bridges_of, free = self.derived()
        # one comparison per index; the sorted walk only names a difference
        if member_of != self.member_of:
            for node in sorted(member_of.keys() | self.member_of.keys()):
                if member_of.get(node, set()) != self.member_of.get(node, set()):
                    errs.append(f"node {node} indexed in clouds "
                                f"{sorted(self.member_of.get(node, ()))} but member of "
                                f"{sorted(member_of.get(node, ()))}")
        if bridges_of != self.bridges_of:
            for cid in sorted(bridges_of.keys() | self.bridges_of.keys()):
                if bridges_of.get(cid, set()) != self.bridges_of.get(cid, set()):
                    errs.append(f"cloud {cid} indexed with bridge holders "
                                f"{sorted(self.bridges_of.get(cid, ()))} but named by the "
                                f"entries of {sorted(bridges_of.get(cid, ()))}")
        for node in sorted(free ^ self.free_members):
            errs.append(f"free member {node} is missing from the free member index"
                        if node in free else
                        f"node {node} is in the free member index but is not a free member")
        return errs


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
    """The live *graph*, its baseline *shadow* and a cloud registry over
    that baseline, plus the event handler operating on them."""

    def __init__(self, graph: ColoredGraph, shadow: ShadowGraph, cfg: ExpanderConfig,
                 rng: random.Random, fault: str | None = None) -> None:
        if fault is not None and fault not in FAULTS:
            raise InputError(f"unknown fault {fault!r}")
        self.cfg = cfg
        self.run_key = rng.getrandbits(64)  # seeds each ``Plan``'s draws
        self.fault = fault
        self.graph, self.shadow = graph, shadow
        self.registry = CloudRegistry(shadow)
        self.counters = RepairCounters()
        self.next_cloud_id = 0
        self.last_black_neighbors: set[int] = set()
        self.stripped_black: set[EdgeKey] = set()  # edges whose black owner drop-black-edge took

    @classmethod
    def from_initial(cls, nodes: Iterable[int], edges: Iterable[EdgeKey],
                     cfg: ExpanderConfig, rng: random.Random,
                     fault: str | None = None) -> "Healer":
        """A healer whose live graph and baseline are *nodes* joined by the
        black *edges*; raises what ``graph.initial_views`` raises."""
        return cls(*initial_views(sorted(nodes), edges), cfg, rng, fault)

    # -- event entry point ----------------------------------------------

    def handle_event(self, event: Event) -> None:
        try:
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
        except Exception as exc:
            exc.add_note(f"event {self.counters.events + 1} "
                         f"{'inserts' if event.is_insert else 'deletes'} node {event.node}")
            raise
        self.counters.events += 1

    def _insert(self, event: Event) -> None:
        self.shadow.insert(event.node, event.neighbors)
        self.graph.add_node(event.node)
        for nb in sorted(event.neighbors):
            self.graph.add_edge(event.node, nb)
        self.counters.inserts += 1

    def _delete(self, v: int) -> None:
        """Plan the repair, then take the plan; the registry writes of a
        plan that raises are rolled back, and nothing else was written."""
        try:
            plan = Plan(self, v)
            if self.fault != "skip-heal":
                plan.repair()
            self.registry.commit()
        finally:
            self.registry.rollback()  # nothing to undo once committed
        self.counters, self.next_cloud_id = plan.counters, plan.next_cloud_id
        self.counters.deletes += 1
        self.shadow.mark_dead(v)
        self.registry.refresh_free(plan.blacks)
        self.graph.remove_node(v)
        self.last_black_neighbors = set(plan.blacks)
        self._apply(plan)
        if self.fault == "drop-black-edge":
            self._drop_one_black_edge(plan.stream)

    # -- edge lifecycle ----------------------------------------------------

    def _apply(self, plan: Plan) -> None:
        """Reown the graph, the dead node's edges gone, from the registry
        before *plan* to the registry it left: each cloud the plan touched
        gives up its owner on ``was - now`` and takes one on ``now - was``,
        less the dead node's edges, a cloud that is not registered owning
        no edges.  The clouds before are the ones ``touched`` recorded.
        The graph ends as after stripping every old edge and painting
        every new one, since an edge a cloud keeps would be repainted
        before the purge; it is just not counted as reused."""
        new, dying = self.registry.clouds, plan.dying_keys
        strip, paint = [], []
        for cid, old in self.registry.touched.items():
            was = old.topology.edges if old is not None else frozenset()
            now = new[cid].topology.edges if cid in new else frozenset()
            strip.append(was - now - dying)
            paint.append(now - was)
        created, reused, deleted = self.graph.reown(strip, paint)
        self.counters.edges_created += created
        self.counters.edges_reused += reused
        self.counters.edges_deleted += deleted

    # -- fault injection ----------------------------------------------------

    def _drop_one_black_edge(self, rng: random.Random) -> None:
        """Strip the black owner of one live edge that still holds it: a
        baseline edge between alive nodes that no earlier drop stripped."""
        candidates = sorted(self.shadow.edges_within(self.shadow.alive) - self.stripped_black)
        if not candidates:
            return
        key = rng.choice(candidates)
        self.stripped_black.add(key)
        self.graph.reown([[key]], [])


class LazyRandom:
    """``random.Random(key)``, seeded when an attribute is first read:
    a repair that designs only cliques draws nothing, and seeding costs
    more than most such repairs."""

    __slots__ = ("_key", "_rng")

    def __init__(self, key: str) -> None:
        self._key, self._rng = key, None

    def __getattr__(self, name: str):
        if self._rng is None:
            self._rng = random.Random(self._key)
        return getattr(self._rng, name)


class Plan:
    """Every decision of one delete's repair, made before any is applied
    to the graph.  It writes the healer's registry under a journal it
    opens, and counts on a copy of the healer's counters and next cloud
    id; the healer commits the journal when it takes the plan and rolls
    it back otherwise, so a plan not taken leaves the healer as it was.
    Its draws come from a stream keyed by the run and the dying node,
    which no other delete of the run shares (node ids are never reused),
    so a delete planned twice gives one plan.  The stream is seeded on
    its first draw (``LazyRandom``), so a plan that designs only cliques
    seeds none.  Its branch, black neighbors and free nodes come from the
    registry and the baseline, never from edge owners; the graph gives
    only the dying node's edges.

    The registry's ``touched`` is the plan's one record of the delete:
    the clouds it names, as they were and as they are, differ by the edge
    step ``Healer._apply`` makes.
    """

    def __init__(self, healer: Healer, dying: int | None = None) -> None:
        self.cfg, self.shadow = healer.cfg, healer.shadow
        self.stream = LazyRandom(f"{healer.run_key}/{dying}")
        self.registry = healer.registry
        self.registry.begin()
        self.counters = RepairCounters(**vars(healer.counters))
        self.next_cloud_id = healer.next_cloud_id
        # the node whose delete is planned, the keys of the live edges it
        # takes with it, and its black neighbours, its alive baseline ones
        self.dying = dying
        nbs = () if dying is None else healer.graph.neighbors(dying)
        self.dying_keys = frozenset(edge_key(dying, nb) for nb in nbs)
        self.blacks = frozenset(() if dying is None
                                else self.shadow.neighbors(dying) & self.shadow.alive)
        self.primaries, self.secondaries, self.lost_role = self._scrub_dead_node()

    # -- bookkeeping when a node dies ------------------------------------

    def _scrub_dead_node(self) -> tuple[list[int], list[int], tuple[int, int] | None]:
        """Remove the dying node from every registry structure, retiring
        a cloud it leaves empty.

        Returns the ids of its primary and of its secondary clouds that
        keep a member, which select the repair, and the key (secondary
        id, primary id) of the bridge entry it held, or None.
        """
        reg, v = self.registry, self.dying
        lost_role = reg.release(v)

        v_primary, v_secondary = [], []
        # sorted for determinism: the repair reads these lists in order
        for cid in sorted(reg.member_of.get(v, ())):
            cloud = reg.clouds[cid]
            members, old = cloud.members - {v}, cloud.topology
            if not members:
                reg.retire(cid)
                continue
            (v_primary if cloud.kind is CloudKind.PRIMARY else v_secondary).append(cid)
            topology = CloudTopology(old.edges - self.dying_keys, old.certified_expansion)
            reg.store(cid, Cloud(cloud.kind, members, topology))
        return v_primary, v_secondary, lost_role

    # -- dispatch ---------------------------------------------------------

    def repair(self) -> None:
        """Plan the repair branch that the clouds the dying node leaves
        select, then design the changed clouds it kept."""
        self._dispatch()
        self._design()

    def _dispatch(self) -> None:
        if not self.primaries and not self.secondaries:
            self.counters.branch_all_black += 1
            if self.blacks:
                self._new_cloud(self.blacks, CloudKind.PRIMARY)
            return

        if not self.secondaries:
            self.counters.branch_primary += 1
            self._make_secondary_cloud(self.primaries, self.blacks)
            return

        self.counters.branch_secondary += 1
        merged_ids: list[int] = []
        if self.lost_role is not None:
            merged = self._fix_secondary_cloud(*self.lost_role)
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
        for f in self.secondaries:
            if f not in reg.clouds:
                continue
            reachable = reg.bridged_primaries(f)
            bridged |= reachable
            if reachable:
                anchors.append(min(reachable))
            else:
                folds.append(f)
        leftovers = {c for c in self.primaries if c in reg.clouds and c not in bridged}
        # a merge result is a fresh primary no bridge names, so no later
        # secondary repair retires it; sorted for determinism, since the
        # participants draft their free nodes in this order
        participants = sorted(leftovers | set(anchors) | set(merged_ids))
        fold_nodes: set[int] = set()
        for f in folds:
            fold_nodes |= reg.clouds[f].members
        loose = self.blacks | fold_nodes
        if not loose and len(participants) <= 1:
            # a single self-contained region (or none) needs no tie;
            # folds always carry members, so none are pending here
            return
        for f in folds:
            reg.retire(f)
        self._make_secondary_cloud(participants, loose)

    # -- repair subroutines ----------------------------------------------

    def _make_secondary_cloud(self, cloud_ids: Sequence[int],
                              extra_members: Iterable[int]) -> None:
        """Bridge one free node per participant cloud, plus any loose
        nodes (black neighbors, folded members), into a fresh secondary
        cloud.  If any participant has no reachable free node,
        everything merges instead.  The participants, in id order, are
        registered and at least one participant or loose node is given."""
        picks: dict[int, int] = {}
        reserved: set[int] = set()
        for cid in cloud_ids:
            free = self._pick_free_node(cid, reserved)
            if free is None:
                self._merge_into_primary(cloud_ids, extra_nodes=extra_members)
                return
            picks[cid] = free
            reserved.add(free)
        members = set(picks.values()).union(extra_members)
        fid = self._new_cloud(members, CloudKind.SECONDARY)
        # loose nodes bridge nothing: a dead neighbor pays for their slot
        for cid, free in picks.items():
            self.registry.bridge(fid, cid, free)

    def _fix_secondary_cloud(self, fid: int, lost_primary: int) -> int | None:
        """Repair secondary cloud *fid* after the deleted node, its bridge
        to primary *lost_primary*, died: draft a free replacement into
        the cloud, which is redesigned with the dead node's other clouds,
        or merge everything if none exists.
        The scrub or an earlier merge may have retired either cloud.
        Returns the id of the merge result when a merge happened."""
        reg = self.registry
        if fid not in reg.clouds:
            return None
        if lost_primary in reg.clouds:
            replacement = self._pick_free_node(lost_primary, set())
            if replacement is None:
                # sorted for determinism: a merge grows from the first largest topology
                merge_list = sorted({fid, lost_primary} | reg.bridged_primaries(fid))
                return self._merge_into_primary(merge_list, extra_nodes=())
            reg.bridge(fid, lost_primary, replacement)
            cloud = reg.clouds[fid]
            reg.store(fid, Cloud(cloud.kind, cloud.members | {replacement}, cloud.topology))
        return None

    def _merge_into_primary(self, cloud_ids: Sequence[int],
                            extra_nodes: Iterable[int]) -> int:
        """Collapse the listed clouds, registered and in id order, and any
        loose nodes into one fresh primary cloud, retiring the clouds.
        The merge is designed from the largest of their topologies that
        is not a clique, the others' members joining it as newcomers (see
        ``expander._splice``), or drawn afresh when that fails.  Its edges
        tell (``is_clique``): a designed expander is kappa-regular on more
        than kappa+1 members, a scrubbed one leaves kappa members one edge
        short, and a clique less a member, or undesigned, is a clique."""
        clouds = [self.registry.clouds[cid] for cid in cloud_ids]
        union = set(extra_nodes).union(*(cloud.members for cloud in clouds))
        largest = max((c.topology for c in clouds if not is_clique(c.topology)),
                      key=lambda topology: len(topology.edges), default=UNDESIGNED)
        for cid in cloud_ids:
            self.registry.retire(cid)
        self.counters.merges += 1
        return self._new_cloud(union, CloudKind.PRIMARY, grow_from=largest)

    def _pick_free_node(self, cid: int, reserved: set[int]) -> int | None:
        """Smallest-id free node of the cloud, else the smallest-id free
        node of a primary cloud sharing a member (borrowed), else None.
        A free node (``CloudRegistry.free``) is drafted only when it is
        not *reserved*."""
        reg = self.registry
        node = reg.first_free((cid,), reserved)
        if node is not None:
            return node
        sharing = set().union(*map(reg.member_of.__getitem__, reg.clouds[cid].members))
        sharing.discard(cid)
        primary = CloudKind.PRIMARY
        borrowed = reg.first_free([other for other in sharing
                                   if reg.clouds[other].kind is primary], reserved)
        if borrowed is not None:
            self.counters.bridges_borrowed += 1
            return borrowed
        self.counters.free_node_misses += 1
        return None

    # -- clouds the repair changes -------------------------------------------

    def _new_cloud(self, members: Iterable[int], kind: CloudKind,
                   grow_from: CloudTopology = UNDESIGNED) -> int:
        """Register a cloud of a fresh id over the non-empty *members*,
        to be designed from *grow_from* when that has edges (a merge),
        from scratch otherwise."""
        cid = self.next_cloud_id
        self.next_cloud_id += 1
        self.counters.clouds_built += 1
        self.registry.store(cid, Cloud(kind, frozenset(members), grow_from))
        return cid

    def _design(self) -> None:
        """Design each touched cloud still registered, the dying node's
        and the fresh ones, over its current members, in id order, from
        its registered topology: a surviving cloud's, scrubbed of the
        dead node, or the one a merge grows from.  ``build_topology``
        splices that topology when it can and draws afresh otherwise."""
        reg = self.registry
        # sorted for determinism: the clouds draw from one stream in this order
        for cid in sorted(reg.clouds.keys() & reg.touched):
            cloud = reg.clouds[cid]
            topology, spliced = build_topology(cloud.members, self.cfg, self.stream,
                                               previous=cloud.topology)
            if spliced:
                self.counters.clouds_spliced += 1
            elif reg.touched[cid] is not None:
                self.counters.clouds_rebuilt += 1
            reg.store(cid, Cloud(cloud.kind, cloud.members, topology))


# -- coherence oracle ---------------------------------------------------


def expected_edge_state(healer: Healer) -> dict[EdgeKey, int]:
    """Reconstruct, from the shadow and the registry alone, the owner
    count every live edge is supposed to have: one if it is black, the
    baseline holding it with both ends alive, plus one for each cloud
    whose topology holds it."""
    expected = Counter(healer.shadow.edges_within(healer.shadow.alive))
    for cloud in healer.registry.clouds.values():
        expected.update(cloud.topology.edges)
    return expected


def budget_errors(healer: Healer) -> list[str]:
    """Alive nodes over their cloud budget.

    A node x held by p(x) primary and s(x) secondary clouds, with dead(x)
    dead baseline neighbors, must have ``p(x) + s(x) <= dead(x) + 1``:
    its live black degree is its baseline degree less dead(x), and each
    cloud adds at most kappa edges, so the budget gives the degree bound
    ``kappa * baseline_degree + kappa``.  Only alive nodes the shadow
    knows are counted; a dead or unknown cloud member is reported by the
    registry and shadow checks.  dead(x) is recounted from the baseline,
    and each node whose ``ShadowGraph.dead`` count differs is reported.
    """
    shadow, alive = healer.shadow, healer.shadow.alive
    dead = {node: len(shadow.neighbors(node) - alive) for node in shadow.nodes}
    errs = [f"node {node} counts {shadow.dead_degree(node)} dead baseline neighbors, "
            f"not {dead[node]}"
            for node in sorted(dead) if shadow.dead_degree(node) != dead[node]]
    held: dict[int, list[int]] = {}
    for cloud in healer.registry.clouds.values():
        for node in cloud.members:
            held.setdefault(node, [0, 0])[cloud.kind is CloudKind.SECONDARY] += 1
    for node in sorted(held):
        if node not in alive or node not in shadow:
            continue
        (p, s), dead_degree = held[node], dead[node]
        if p + s > dead_degree + 1:
            errs.append(f"node {node} holds {p} primary and {s} secondary clouds, "
                        f"over its budget of {dead_degree} dead baseline neighbors + 1")
    return errs


def coherence_errors(healer: Healer) -> list[str]:
    """Full cross-check of graph, shadow, and registry.

    Empty result means: the graph's owner counts are exactly what the
    shadow and the registry imply, structural indexes agree with a
    recount (the registry's membership and bridge indexes and its set of
    free members, and the shadow's dead counts), no edge without an
    owner is left behind, every cloud id is below the next cloud id (which
    ``Plan._new_cloud`` relies on for a fresh id), every cloud of more
    than kappa+1 members, as ``verify`` sizes one, certifies
    ``alpha_target``, every node keeps its cloud budget, and the last
    delete's black neighbours are alive.
    """
    errs = healer.graph.integrity_errors()
    errs.extend(healer.registry.validation_errors(set(healer.shadow.alive)))
    errs.extend(f"cloud {cid} is not below the next cloud id {healer.next_cloud_id}"
                for cid in sorted(healer.registry.clouds) if cid >= healer.next_cloud_id)
    errs.extend(budget_errors(healer))
    errs.extend(f"last black neighbour {node} is not alive"
                for node in sorted(healer.last_black_neighbors - healer.shadow.alive))
    alpha, kappa = healer.cfg.alpha_target, healer.cfg.kappa
    for cid, cloud in healer.registry.clouds.items():
        cert = cloud.topology.certified_expansion
        if len(cloud.members) > kappa + 1 and cert < alpha:
            errs.append(f"cloud {cid} certified expansion {cert} below alpha_target {alpha}")
    if healer.graph.node_set != healer.shadow.alive:
        errs.append("live node set differs from shadow alive set")
    expected = expected_edge_state(healer)
    actual = dict(healer.graph.edges())
    if expected == actual:  # one dict comparison; the sorted walk only names a difference
        return errs
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            errs.append(f"edge {key} expected but missing from graph")
        elif key not in expected:
            errs.append(f"edge {key} present but unexplained by registry/shadow")
        elif actual[key] != expected[key]:
            errs.append(f"edge {key} owners {actual[key]} != expected {expected[key]}")
    return errs
