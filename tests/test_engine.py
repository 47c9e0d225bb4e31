import ast
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from xhealsim import cli, engine
from xhealsim.adversary import Event, Strategy, gen_trace, run_stream
from xhealsim.engine import (
    Cloud,
    CloudKind,
    CloudRegistry,
    Healer,
    InvalidEvent,
    Plan,
    UNDESIGNED,
    budget_errors,
    coherence_errors,
    expected_edge_state,
)
from xhealsim.expander import CloudTopology, ExpanderConfig, RetriesExhausted, build_topology
from xhealsim.graph import ShadowGraph
from helpers import changed_oracle, is_connected


def make_healer(nodes, edges, seed=0, fault=None, **cfg):
    return Healer.from_initial(nodes, edges, ExpanderConfig(**cfg),
                               run_stream(seed, "engine"), fault=fault)


def held_by(h, secondary, primary):
    """The node holding bridge entry (*secondary*, *primary*)."""
    (node,) = [n for n, key in h.registry.bridges.items() if key == (secondary, primary)]
    return node


def plan_and_apply(h, planner, *args):
    """Run one repair planner outside an event as a delete runs its
    plan: plan on a ``Plan``, design the clouds it changed, take its
    state, then apply the registry difference."""
    plan = Plan(h)
    getattr(plan, planner)(*args)
    plan._design()
    h.registry.commit()
    h.counters, h.next_cloud_id = plan.counters, plan.next_cloud_id
    h._apply(plan)


def index_state(h):
    """Copies of the registry's and the shadow's indexes."""
    reg = h.registry
    return (dict(h.shadow.dead), dict(reg.member_of),
            {cid: set(holders) for cid, holders in reg.bridges_of.items()},
            set(reg.free_members))


def assert_indexes_rebuilt(h, fresh):
    """*h*'s indexes equal the ones *fresh*, a healer loaded from its
    snapshot, rebuilt."""
    assert index_state(h) == index_state(fresh)


def test_plan_blacks_are_the_dying_nodes_black_neighbours():
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    assert Plan(h, 0).blacks == {1, 2, 3}
    assert Plan(h).blacks == Plan(make_healer([0], []), 0).blacks == frozenset()

    h2 = make_healer([0, 1, 2], [(0, 1)])
    h2.graph.reown([], [[(0, 1), (0, 2)]])
    plan = Plan(h2, 0)
    assert plan.blacks == {1}
    assert plan.dying_keys == {(0, 1), (0, 2)}

    # a black edge stripped from the graph, as drop-black-edge strips
    # one: its baseline neighbour is still a black neighbour, and its key
    # leaves the dying node's edges
    h.graph.reown([[(0, 2)]], [])
    plan = Plan(h, 0)
    assert plan.blacks == {1, 2, 3}
    assert plan.dying_keys == {(0, 1), (0, 3)}


def test_plan_branch_follows_cloud_membership_not_edge_colors():
    # a node that sits in one cloud and bridges nothing, with that cloud's
    # ownership stripped from its edges, still takes the branch of the
    # cloud's kind: the repair reads membership from the registry
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 120, 4)
    h = cli.replay(trace, cli.RunConfig(seed=4))
    reg = h.registry
    for kind, branch in ((CloudKind.PRIMARY, "branch_primary"),
                         (CloudKind.SECONDARY, "branch_secondary")):
        v, cid = next((v, cid) for v in sorted(h.shadow.alive)
                      if v not in reg.bridges and len(reg.member_of.get(v, ())) == 1
                      for cid in reg.member_of[v] if reg.clouds[cid].kind is kind)
        colored = [key for key in reg.clouds[cid].topology.edges if v in key]
        assert colored, kind
        h.graph.reown([colored], [])
        errs = coherence_errors(h)
        assert all(any(e.startswith(f"edge {key} ") for e in errs) for key in colored), kind
        plan = Plan(h, v)
        plan.repair()
        assert getattr(plan.counters, branch) == getattr(h.counters, branch) + 1, kind
        assert plan.counters.branch_all_black == h.counters.branch_all_black, kind
        h.registry.rollback()


def test_insert_wires_black_edges_only():
    h = make_healer([0, 1], [(0, 1)])
    h.handle_event(Event("ins", 2, (0, 1)))
    assert dict(h.graph.edges()) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    assert h.registry.clouds == {}
    assert h.shadow.edges == {(0, 1), (0, 2), (1, 2)}


def test_insert_validation():
    h = make_healer([0, 1], [(0, 1)])
    with pytest.raises(InvalidEvent):
        h.handle_event(Event("ins", 1, ()))          # id reuse
    with pytest.raises(InvalidEvent):
        h.handle_event(Event("ins", 5, (5,)))        # self neighbor
    with pytest.raises(InvalidEvent):
        h.handle_event(Event("ins", 5, (9,)))        # unknown neighbor
    h.handle_event(Event("del", 0))
    with pytest.raises(InvalidEvent):
        h.handle_event(Event("ins", 5, (0,)))        # dead neighbor
    h.handle_event(Event("ins", 5, (1,)))
    with pytest.raises(InvalidEvent):
        h.handle_event(Event("ins", 4, (1,)))        # ids must increase
    with pytest.raises(InvalidEvent, match="not in"):
        h.handle_event(Event("ins", 2**63, (1,)))    # beyond int64 CSR ids
    with pytest.raises(InvalidEvent):
        h.handle_event(Event("del", 0))              # already dead


def test_all_black_deletion_builds_primary_clique():
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    h.handle_event(Event("del", 0))
    assert sorted(key for key, _ in h.graph.edges()) == [(1, 2), (1, 3), (2, 3)]
    (cloud,) = h.registry.clouds.values()
    assert cloud.kind is CloudKind.PRIMARY and cloud.members == {1, 2, 3}
    assert dict(h.graph.edges()) == dict.fromkeys(cloud.topology.edges, 1)
    assert h.counters.branch_all_black == 1
    assert coherence_errors(h) == []


def test_all_black_deletion_reuses_existing_black_edge():
    h = make_healer([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    h.handle_event(Event("del", 0))
    assert dict(h.graph.edges()) == {(1, 2): 2}  # black, and the new cloud's
    assert h.counters.edges_reused == 1 and h.counters.edges_created == 0


def test_single_black_neighbor_makes_singleton_cloud():
    h = make_healer([0, 1], [(0, 1)])
    h.handle_event(Event("del", 0))
    (cloud,) = h.registry.clouds.values()
    assert cloud.members == {1} and cloud.topology.edges == frozenset()
    assert h.graph.edge_count() == 0


def test_isolated_deletion_builds_nothing():
    h = make_healer([0, 1], [(0, 1)])
    h.handle_event(Event("ins", 2, ()))
    h.handle_event(Event("del", 2))
    assert h.registry.clouds == {}
    assert h.counters.branch_all_black == 1


def test_primary_only_deletion_rebuilds_and_bridges():
    # star 0-{1,2,3,4}; deleting 0 builds a primary clique; deleting 4
    # (whose remaining edges are all that cloud's) exercises branch 2
    h = make_healer([0, 1, 2, 3, 4], [(0, 1), (0, 2), (0, 3), (0, 4)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    h.handle_event(Event("del", 4))
    assert h.counters.branch_primary == 1
    primary = h.registry.clouds[pid]
    assert primary.members == {1, 2, 3}
    assert sorted(primary.topology.edges) == [(1, 2), (1, 3), (2, 3)]
    # a fresh secondary cloud bridges the repaired primary
    secondaries = [cid for cid, c in h.registry.clouds.items()
                   if c.kind is CloudKind.SECONDARY]
    assert len(secondaries) == 1
    (fid,) = secondaries
    bridge = held_by(h, fid, pid)
    assert bridge in primary.members
    assert h.registry.bridges == {bridge: (fid, pid)}
    assert coherence_errors(h) == []


def test_cloud_only_edges_of_dead_node_disappear_cleanly():
    h = make_healer([0, 1, 2, 3, 4], [(0, 1), (0, 2), (0, 3), (0, 4)])
    h.handle_event(Event("del", 0))
    h.handle_event(Event("del", 4))
    live_keys = {key for key, _ in h.graph.edges()}
    assert all(4 not in key for key in live_keys)
    # black edges never existed among leaves, so every edge left is a cloud's
    assert not live_keys & h.shadow.edges


def test_secondary_branch_repairs_bridge_loss():
    # two healed star regions joined by one black edge, then kill the
    # node that became both primary member and secondary bridge
    nodes = [0, 1, 2, 3, 4, 5]
    edges = [(0, 1), (0, 2), (3, 4), (3, 5), (1, 4)]
    h = make_healer(nodes, edges)
    h.handle_event(Event("del", 0))     # P1 = {1,2}
    h.handle_event(Event("del", 3))     # P2 = {4,5}
    p1 = next(cid for cid, c in h.registry.clouds.items() if c.members == {1, 2})
    h.handle_event(Event("del", 1))     # branch 2: fixes P1, bridges it, black nbr 4
    assert h.counters.branch_primary == 1
    # the survivor 2 bridges P1; the loose black neighbor 4 bridges nothing
    (fid,) = [cid for cid, c in h.registry.clouds.items() if c.kind is CloudKind.SECONDARY]
    assert h.registry.bridges == {2: (fid, p1)}
    assert h.registry.clouds[fid].members == {2, 4}
    h.handle_event(Event("del", 2))     # branch 3: 2 is in the secondary cloud
    assert h.counters.branch_secondary == 1
    assert coherence_errors(h) == []
    assert is_connected(h.graph)


def test_pick_free_node_prefers_own_cloud_smallest_id():
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    assert h.registry.clouds[pid].members == {1, 2, 3}
    plan = Plan(h)
    assert plan._pick_free_node(pid, set()) == 1
    plan.registry.bridge(99, pid, 1)
    assert plan._pick_free_node(pid, set()) == 2
    assert plan._pick_free_node(pid, {2}) == 3


def test_pick_free_node_borrows_from_neighbor_cloud():
    h = make_healer([0, 1, 2, 3, 4, 5],
                    [(0, 1), (0, 2), (3, 2), (3, 4), (3, 5), (1, 4)])
    h.handle_event(Event("del", 0))     # P1 = {1,2}
    h.handle_event(Event("del", 3))     # P2 = {2,4,5}, shares node 2 with P1
    p1 = next(cid for cid, c in h.registry.clouds.items() if c.members == {1, 2})
    h.registry.bridge(98, p1, 1)
    h.registry.bridge(99, p1, 2)
    plan = Plan(h)
    borrowed = plan._pick_free_node(p1, set())
    assert borrowed == 4            # smallest free id in the sharing cloud
    assert plan.counters.bridges_borrowed == 1


def test_pick_free_node_null_when_everyone_busy():
    h = make_healer([0, 1, 2], [(0, 1), (0, 2)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    h.registry.bridge(98, pid, 1)
    h.registry.bridge(99, pid, 2)
    plan = Plan(h)
    assert plan._pick_free_node(pid, set()) is None
    assert plan.counters.free_node_misses == 1


def test_make_secondary_merges_when_no_free_node():
    # one primary cloud whose members all bridge forces the merge path
    h = make_healer([0, 1, 2], [(0, 1), (0, 2)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    h.registry.bridge(98, pid, 1)
    h.registry.bridge(99, pid, 2)
    plan_and_apply(h, "_make_secondary_cloud", [pid], [])
    assert h.counters.merges == 1
    assert pid not in h.registry.clouds
    assert h.registry.bridges == {}  # retiring the primary drops its entries
    merged = [c for c in h.registry.clouds.values() if c.kind is CloudKind.PRIMARY]
    assert len(merged) == 1 and merged[0].members == {1, 2}


def test_merge_includes_black_participants():
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3), (1, 3)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    for f, node in ((97, 1), (98, 2), (99, 3)):
        h.registry.bridge(f, pid, node)
    plan_and_apply(h, "_make_secondary_cloud", [pid], [3])
    merged = [c for c in h.registry.clouds.values() if c.kind is CloudKind.PRIMARY]
    assert len(merged) == 1 and merged[0].members == {1, 2, 3}


def test_a_bridge_whose_primary_merges_away_is_free_again():
    # 1 lost both hubs 0 and 3, so it may hold three clouds: P1 = {1,2},
    # P2 = {1,4} and a secondary F that it bridges P1 into, 2 and 4
    # joining F as loose members and so reaching their budgets
    h = make_healer(list(range(5)), [(0, 1), (0, 2), (3, 1), (3, 4)])
    h.handle_event(Event("del", 0))
    h.handle_event(Event("del", 3))
    p1, p2 = sorted(h.registry.clouds)
    plan_and_apply(h, "_make_secondary_cloud", [p1], [2, 4])
    (fid,) = [cid for cid, c in h.registry.clouds.items() if c.kind is CloudKind.SECONDARY]
    assert h.registry.bridges == {1: (fid, p1)}
    # no free node bridges P1 (1 bridges, 2 and 4 are at their budgets),
    # so P1 and P2 merge; retiring P1 drops 1's entry while F survives
    plan_and_apply(h, "_make_secondary_cloud", [p1, p2], [])
    (merged,) = [cid for cid, c in h.registry.clouds.items() if c.kind is CloudKind.PRIMARY]
    assert h.counters.merges == 1 and fid in h.registry.clouds
    assert h.registry.bridges == {}
    assert coherence_errors(h) == []
    # 1 now holds the merge and F on two dead neighbors, a free slot, so
    # it is drafted again instead of the merge being merged once more
    assert Plan(h)._pick_free_node(merged, set()) == 1
    plan_and_apply(h, "_make_secondary_cloud", [merged], [])
    assert h.counters.merges == 1
    (new,) = set(h.registry.clouds) - {fid, merged}
    assert h.registry.bridges == {1: (new, merged)}
    assert coherence_errors(h) == []


def trio_of_bridged_primaries():
    """Three healed star regions, then one secondary cloud bridging all
    three primaries (planned and applied directly to keep the layout
    predictable)."""
    nodes = list(range(12))
    edges = [(0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (6, 8),
             (1, 4), (4, 7), (2, 9), (5, 10), (8, 11)]
    h = make_healer(nodes, edges)
    h.handle_event(Event("del", 0))   # P1 = {1,2}
    h.handle_event(Event("del", 3))   # P2 = {4,5}
    h.handle_event(Event("del", 6))   # P3 = {7,8}
    p1, p2, p3 = sorted(h.registry.clouds)
    plan_and_apply(h, "_make_secondary_cloud", [p1, p2, p3], [])
    (fid,) = [cid for cid, c in h.registry.clouds.items()
              if c.kind is CloudKind.SECONDARY]
    return h, (p1, p2, p3), fid


def test_fix_secondary_replaces_dead_bridge():
    h, (p1, p2, p3), fid = trio_of_bridged_primaries()
    bridge2 = held_by(h, fid, p2)
    others = {held_by(h, fid, p1), held_by(h, fid, p3)}
    h.handle_event(Event("del", bridge2))
    assert h.counters.branch_secondary == 1
    replacement = held_by(h, fid, p2)
    assert replacement != bridge2
    assert replacement in h.registry.clouds[p2].members
    assert h.registry.bridges[replacement] == (fid, p2)
    assert others <= h.registry.clouds[fid].members
    assert replacement in h.registry.clouds[fid].members
    assert coherence_errors(h) == []
    assert is_connected(h.graph)


def test_bridge_refuses_a_node_that_holds_an_entry():
    # busy means holding a bridge entry, which stands for one role only,
    # so drafting a busy node again is refused, with nothing written
    h, (p1, p2, p3), fid = trio_of_bridged_primaries()
    bridge1 = held_by(h, fid, p1)
    before = cli.snapshot_state(h, 0)
    with pytest.raises(ValueError, match=f"node {bridge1} already holds bridge entry "
                                         rf"\({fid},{p1}\)"):
        h.registry.bridge(fid, p2, bridge1)
    assert cli.snapshot_state(h, 0) == before
    assert coherence_errors(h) == []


def two_bridged_clouds():
    """Primary 0 on {1, 2} and secondary 1 on {2, 3}, where node 2
    represents 0 in 1: a registry with no error on alive {1, 2, 3}, its
    nodes having lost their baseline neighbor 4, so 1 and 3 are free."""
    shadow = ShadowGraph.from_edges([1, 2, 3, 4], [(1, 4), (2, 4), (3, 4)])
    shadow.mark_dead(4)
    reg = CloudRegistry(shadow)
    reg.store(0, Cloud(CloudKind.PRIMARY, frozenset({1, 2}),
                       CloudTopology(frozenset({(1, 2)}), Fraction(1))))
    reg.store(1, Cloud(CloudKind.SECONDARY, frozenset({2, 3}),
                       CloudTopology(frozenset({(2, 3)}), Fraction(1))))
    reg.bridge(1, 0, 2)
    return reg


def cloud_with_a_stray_edge(reg):
    reg.store(0, Cloud(CloudKind.PRIMARY, frozenset({1, 2}),
                       CloudTopology(frozenset({(1, 2), (2, 9)}), Fraction(1))))


def holder_outside_its_secondary(reg):
    reg.release(2)
    reg.bridge(1, 0, 1)


def free_member_left_out(reg):
    assert reg.first_free([0], set()) == 1
    reg.free_members.remove(1)


@pytest.mark.parametrize("damage,line", [
    pytest.param(lambda reg: reg.store(5, Cloud(CloudKind.PRIMARY, frozenset(), UNDESIGNED)),
                 "cloud 5 is empty but registered", id="empty-cloud"),
    pytest.param(cloud_with_a_stray_edge, "cloud 0 topology edge (2,9) leaves member set",
                 id="edge-leaves-members"),
    pytest.param(lambda reg: reg.bridge(7, 0, 3), "bridge entry (7,0) has no secondary cloud",
                 id="no-secondary"),
    pytest.param(lambda reg: reg.bridge(1, 7, 3), "bridge entry (1,7) has no primary cloud",
                 id="no-primary"),
    pytest.param(holder_outside_its_secondary, "bridge 1 of (1,0) is not in the secondary cloud",
                 id="holder-outside-secondary"),
    pytest.param(lambda reg: reg.member_of.__setitem__(3, frozenset({0, 1})),
                 "node 3 indexed in clouds [0, 1] but member of [1]", id="index-disagrees"),
    pytest.param(lambda reg: reg.bridges_of.__setitem__(0, {3}),
                 "cloud 0 indexed with bridge holders [3] but named by the entries of [2]",
                 id="bridge-index-disagrees"),
    pytest.param(free_member_left_out, "free member 1 is missing from the free member index",
                 id="free-member-not-indexed"),
    pytest.param(lambda reg: reg.free_members.add(2),
                 "node 2 is in the free member index but is not a free member",
                 id="bridge-holder-indexed-free"),
])
def test_validation_errors_name_each_planted_fault(damage, line):
    reg = two_bridged_clouds()
    assert reg.validation_errors({1, 2, 3}) == []
    damage(reg)
    assert reg.validation_errors({1, 2, 3}) == [line]


def test_rollback_takes_a_borrowed_bridge_back_out_of_the_free_members():
    # 3 represents primary 0 in secondary 1 without being a member of 0,
    # as a borrowed pick leaves it: retiring 0 frees 3 but leaves its
    # clouds as they were, and the rollback must bind it again
    reg = two_bridged_clouds()
    reg.release(2)
    reg.bridge(1, 0, 3)
    before = set(reg.free_members)
    assert 3 not in before
    reg.begin()
    reg.retire(0)
    assert 3 in reg.free_members
    reg.rollback()
    assert reg.free_members == before
    assert reg.validation_errors({1, 2, 3}) == []


def test_rolling_back_a_plan_of_every_branch_leaves_the_indexes_as_they_were():
    # every 30 events of an acceptance-shaped run, each alive node's delete
    # is planned and rolled back: whichever branch, merge or borrowed pick
    # the plan took, the indexes are the ones the record gives
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 300, 0)
    h = make_healer(trace.initial_nodes, trace.initial_edges, alpha_target=Fraction(1))
    reached = dict.fromkeys(("branch_all_black", "branch_primary", "branch_secondary",
                             "merges", "bridges_borrowed"), 0)
    for t in cli.applied(h, trace.events):
        if not t or t % 30:
            continue
        indexes, reg = index_state(h), h.registry
        for v in sorted(h.shadow.alive):
            plan = Plan(h, v)
            plan.repair()
            reg.rollback()
            assert index_state(h) == indexes, (t, v)
            assert reg.derived() == (reg.member_of, reg.bridges_of, reg.free_members), (t, v)
            assert reg.validation_errors(set(h.shadow.alive)) == [], (t, v)
            for name in reached:
                reached[name] += getattr(plan.counters, name) - getattr(h.counters, name)
    assert all(reached.values()), reached


def test_coherence_flags_a_bridge_entry_held_by_two_nodes():
    # an entry names one representative of its primary; a second holder
    # is a second bridge the secondary cannot tell from the first
    h, (p1, p2, p3), fid = trio_of_bridged_primaries()
    bridge1, bridge2 = held_by(h, fid, p1), held_by(h, fid, p2)
    h.registry.release(bridge2)
    h.registry.bridge(fid, p1, bridge2)
    assert coherence_errors(h) == [
        f"bridge entry ({fid},{p1}) is held by nodes {sorted([bridge1, bridge2])}"]


def test_fix_secondary_merges_when_no_replacement_exists():
    h, (p1, p2, p3), fid = trio_of_bridged_primaries()
    bridge2 = held_by(h, fid, p2)
    # exhaust every free node the dead bridge's cloud could draw on: a
    # second secondary cloud drafts every member the first one left free
    plan_and_apply(h, "_make_secondary_cloud", [p1, p2, p3], [])
    assert set(h.registry.bridges) == {1, 2, 4, 5, 7, 8}
    h.handle_event(Event("del", bridge2))
    assert fid not in h.registry.clouds
    assert h.counters.merges >= 1
    merged = [c for c in h.registry.clouds.values()
              if c.kind is CloudKind.PRIMARY and len(c.members) > 2]
    assert merged, "expected one big merged primary cloud"
    assert coherence_errors(h) == []
    assert is_connected(h.graph)


def assert_failed_event_changes_nothing(h, event, seed):
    """The failed *event* leaves *h* as it was, its indexes too, which
    equal the ones a load of its snapshot rebuilds, and later deletes
    included: each alive node's delete is planned on *h* and on the
    loaded state, in id order, and rolled back on both, until one plan
    that draws is made on both.  Returns that node, or None when no plan
    draws."""
    before, indexes = cli.snapshot_state(h, seed), index_state(h)
    with pytest.raises(RetriesExhausted):
        h.handle_event(event)
    assert coherence_errors(h) == []
    assert cli.snapshot_state(h, seed) == before
    assert index_state(h) == indexes
    saved, _ = cli.load_snapshot(before)
    assert_indexes_rebuilt(h, saved)
    for v in sorted(h.shadow.alive - {event.node}):
        ours, theirs = Plan(h, v), Plan(saved, v)
        start = ours.stream.getstate()
        try:
            ours.repair()
        except RetriesExhausted:
            h.registry.rollback()
            continue
        theirs.repair()
        assert ours.registry.clouds == theirs.registry.clouds
        assert ours.registry.bridges == theirs.registry.bridges
        assert ours.counters == theirs.counters
        h.registry.rollback()
        saved.registry.rollback()
        if ours.stream.getstate() != start:
            return v
    return None


def test_certification_failure_on_a_real_trace_changes_nothing():
    # at alpha 1, event 304 of this trace needs an 80-member cloud and no
    # 6-regular draw certifies it (the exit-3 trace of the CLI tests)
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 200, 400, 38)
    h = cli.trace_healer(trace, cli.RunConfig(seed=38))
    for _ in cli.applied(h, trace.events[:303]):
        pass
    assert assert_failed_event_changes_nothing(h, trace.events[303], 38) is not None


def test_planning_a_delete_twice_gives_the_same_plan():
    # the hub's 14 leaves form a drawn 6-regular cloud; each plan of the
    # hub's delete draws from a stream keyed by the hub alone
    h = make_healer(list(range(15)), [(0, leaf) for leaf in range(1, 15)])
    first = Plan(h, 0)
    first.repair()
    planned = dict(first.registry.clouds)
    h.registry.rollback()
    assert h.registry.clouds == {}
    second = Plan(h, 0)
    second.repair()
    (cloud,) = planned.values()
    assert len(cloud.topology.edges) == 14 * 6 // 2
    assert planned == second.registry.clouds


def test_a_plan_seeds_its_stream_only_when_it_draws(monkeypatch):
    # a clique cloud takes no draw, and most repairs design only cliques,
    # so a plan's stream is seeded on its first draw, not with the plan
    seeded, plans = [], []

    class CountingRandom(random.Random):
        def __init__(self, key):
            seeded.append(key)
            super().__init__(key)

    repair = Plan.repair

    def checked_repair(plan):
        before = len(seeded)
        repair(plan)
        # a seeded stream has drawn: its state left the one it was seeded with
        assert len(seeded) - before in (0, 1)
        if len(seeded) > before:
            assert plan.stream.getstate() != random.Random(seeded[-1]).getstate()
        plans.append(len(seeded) - before)

    monkeypatch.setattr(engine, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(Plan, "repair", checked_repair)
    for seed in (1, 2, 3):
        trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 1000, 700, seed)
        cli.replay(trace, cli.RunConfig(seed=seed, alpha_target=Fraction(1, 2)))
    assert (len(seeded), sum(plans), len(plans)) == (75, 75, 1265)


def test_certification_failure_after_a_planned_rebuild_changes_nothing():
    # at kappa 4 and alpha 5/2 only cliques (up to 5 members) certify: no
    # 4-regular cloud of 6 members certifies above 12/5.  Deleting 0 builds the clique {1,2,3}; deleting 1 changes it and
    # registers the secondary cloud of free node 2 and black neighbors
    # 4..8.  The design at the end rebuilds the clique over {2,3} first,
    # in id order, then fails on the secondary
    h = make_healer(list(range(9)), [(0, 1), (0, 2), (0, 3)] + [(1, b) for b in range(4, 9)],
                    kappa=4, alpha_target=Fraction(5, 2), max_retries=4)
    h.handle_event(Event("del", 0))
    assert_failed_event_changes_nothing(h, Event("del", 1), 0)
    before = dict(h.registry.clouds)
    plan = Plan(h, 1)
    with pytest.raises(RetriesExhausted):
        plan.repair()
    clique, secondary = sorted(changed_oracle(plan, h.next_cloud_id))
    after = plan.registry.clouds
    assert before[clique].members == {1, 2, 3} and after[clique].members == {2, 3}
    assert plan.counters.clouds_rebuilt == h.counters.clouds_rebuilt + 1
    assert plan.counters.clouds_spliced == h.counters.clouds_spliced
    assert secondary not in before and after[secondary].topology is UNDESIGNED
    h.registry.rollback()
    assert h.registry.clouds == before


def merge_heavy_healer():
    """The healer after a trace whose repairs merge clouds of up to 80
    members."""
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 200, 300, 0)
    return cli.replay(trace, cli.RunConfig(seed=0, alpha_target=Fraction(1, 2)))


def test_no_plan_designs_a_cloud_it_retires(monkeypatch):
    # every topology a plan draws is one it leaves registered, one per
    # changed cloud it keeps, so no draw goes to a cloud a merge or a
    # fold retires, or to one designed twice
    repair, drawn, designed = Plan.repair, [], []

    def recording_build(*args, **kwargs):
        topology, spliced = build_topology(*args, **kwargs)
        drawn.append(topology)
        return topology, spliced

    def checked_repair(plan):
        drawn.clear()
        first_fresh = plan.next_cloud_id
        repair(plan)
        kept = [plan.registry.clouds[cid].topology
                for cid in sorted(changed_oracle(plan, first_fresh))
                if cid in plan.registry.clouds]
        assert len(drawn) == len(kept)
        assert all(ours is theirs for ours, theirs in zip(drawn, kept))
        designed.append(len(drawn))

    monkeypatch.setattr(engine, "build_topology", recording_build)
    monkeypatch.setattr(Plan, "repair", checked_repair)
    h = merge_heavy_healer()
    assert h.counters.merges > 10 and sum(designed) > h.counters.deletes
    assert coherence_errors(h) == []


def test_a_plan_keeps_every_cloud_outside_touched(monkeypatch):
    # the edge step walks only the clouds the plan touched, so every
    # cloud a plan keeps outside the ones it changed must be the
    # healer's own object
    delete, apply, starts, kept = Healer._delete, Healer._apply, [], []

    def recording_delete(healer, v):
        starts.append((healer.next_cloud_id, dict(healer.registry.clouds)))
        delete(healer, v)

    def checked_apply(healer, plan):
        first_fresh, before = starts[-1]
        changed = changed_oracle(plan, first_fresh)
        others = [cid for cid in plan.registry.clouds if cid not in changed]
        for cid in others:
            assert before[cid] is plan.registry.clouds[cid]
        kept.append(len(others))
        apply(healer, plan)

    monkeypatch.setattr(Healer, "_delete", recording_delete)
    monkeypatch.setattr(Healer, "_apply", checked_apply)
    h, adaptive = merge_heavy_and_target_bridge_runs()
    assert len(kept) == h.counters.deletes + adaptive.counters.deletes
    assert h.counters.merges > 10 and adaptive.counters.branch_secondary > 0
    assert sum(kept) > len(kept)
    assert coherence_errors(h) == coherence_errors(adaptive) == []


def merge_heavy_and_target_bridge_runs():
    """``merge_heavy_healer`` after its trace, and the healer of an
    adaptive target-bridge run whose deletes reach the secondary branch."""
    h = merge_heavy_healer()
    strategy = Strategy("target-bridge", insert_fraction=0.5)
    adaptive, _, _ = cli.run_adaptive(strategy, 40, 200,
                                      cli.RunConfig(seed=3, checkpoint_every=200))
    return h, adaptive


def test_touched_is_what_a_plan_changed_retired_or_registered(monkeypatch):
    # the edge step and the design walk registry.touched, so it must name
    # exactly the clouds the scrub and the two registries say the plan
    # changed, retired or registered, fresh ones it retired again too
    delete, apply, starts, checked = Healer._delete, Healer._apply, [], []

    def recording_delete(healer, v):
        starts.append((healer.next_cloud_id, dict(healer.registry.clouds)))
        delete(healer, v)

    def checked_apply(healer, plan):
        first_fresh, before = starts[-1]
        retired = before.keys() - plan.registry.clouds.keys()
        fresh = set(range(first_fresh, plan.next_cloud_id))
        assert plan.registry.touched.keys() == changed_oracle(plan, first_fresh) | retired | fresh
        # and each recorded cloud is the one the registry held before
        assert all(plan.registry.touched[cid] is before.get(cid) for cid in plan.registry.touched)
        checked.append(plan.dying)
        apply(healer, plan)

    monkeypatch.setattr(Healer, "_delete", recording_delete)
    monkeypatch.setattr(Healer, "_apply", checked_apply)
    h, adaptive = merge_heavy_and_target_bridge_runs()
    assert len(checked) == h.counters.deletes + adaptive.counters.deletes
    assert coherence_errors(h) == coherence_errors(adaptive) == []


def test_a_plan_that_is_not_taken_changes_nothing():
    # a branch-3 delete of trio_of_bridged_primaries' bridge: the plan
    # rebuilds, drafts a replacement and counts, all on its own copies
    h, (p1, p2, p3), fid = trio_of_bridged_primaries()
    before, clouds, indexes = cli.snapshot_state(h, 0), dict(h.registry.clouds), index_state(h)
    plan = Plan(h, held_by(h, fid, p2))
    plan.repair()
    assert plan.counters.branch_secondary == 1
    assert plan.counters.clouds_rebuilt + plan.counters.clouds_spliced > (
        h.counters.clouds_rebuilt + h.counters.clouds_spliced)
    assert plan.registry.clouds != clouds
    h.registry.rollback()
    assert cli.snapshot_state(h, 0) == before
    assert index_state(h) == indexes
    assert coherence_errors(h) == []


def test_replay_determinism():
    nodes = list(range(12))
    edges = [(i, i + 1) for i in range(11)] + [(0, 5), (2, 9), (4, 11)]
    script = [Event("del", 3), Event("ins", 12, (0, 1)), Event("del", 5),
              Event("del", 0), Event("ins", 13, (9, 12)), Event("del", 9),
              Event("del", 12)]
    snapshots = []
    for _ in range(2):
        h = make_healer(nodes, edges, seed=5)
        for ev in script:
            h.handle_event(ev)
        snapshots.append((
            sorted(h.graph.edges()),
            h.counters.as_dict(),
            {cid: sorted(c.members) for cid, c in h.registry.clouds.items()},
        ))
    assert snapshots[0] == snapshots[1]


def rebuild_sets_shuffled(h, rng):
    """Rebuild every set and frozenset of *h* from its elements in a
    shuffled insertion order: the same values, a fresh hash-table layout
    and so, for colliding ids, another iteration order.  Dicts keep
    their order, which the record fixes."""
    def shuffled(items, kind=set):
        items = list(items)
        rng.shuffle(items)
        return kind(items)

    for adj in (h.graph._adj, h.shadow._adj):
        for key, items in adj.items():
            adj[key] = shuffled(items)
    h.shadow.alive = shuffled(h.shadow.alive)
    reg = h.registry
    for cid, cloud in reg.clouds.items():
        topology = CloudTopology(shuffled(cloud.topology.edges, frozenset),
                                 cloud.topology.certified_expansion)
        reg.clouds[cid] = Cloud(cloud.kind, shuffled(cloud.members, frozenset), topology)
    for node, ids in reg.member_of.items():
        reg.member_of[node] = shuffled(ids, frozenset)
    for cid, holders in reg.bridges_of.items():
        reg.bridges_of[cid] = shuffled(holders)
    reg.free_members = shuffled(reg.free_members)
    h.last_black_neighbors = shuffled(h.last_black_neighbors)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_event_depends_on_the_record_not_on_set_layout(seed):
    # an acceptance trace: n0=50, 300 events, insert fraction 0.4, alpha 1
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 300, seed)
    plain, shuffled = (make_healer(trace.initial_nodes, trace.initial_edges, seed=seed)
                       for _ in range(2))
    rng = random.Random(seed)
    # each step applies one event to both, then *shuffled*'s sets are
    # rebuilt before the next
    for t, _ in zip(cli.applied(plain, trace.events), cli.applied(shuffled, trace.events)):
        assert cli.snapshot_state(shuffled, seed) == cli.snapshot_state(plain, seed), t
        rebuild_sets_shuffled(shuffled, rng)
    assert coherence_errors(shuffled) == []


def test_registry_reconstruction_matches_graph():
    h = make_healer(list(range(8)),
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                     (0, 4), (2, 6)])
    for ev in [Event("del", 4), Event("del", 2), Event("ins", 8, (0, 1)),
               Event("del", 0), Event("del", 6)]:
        h.handle_event(ev)
        expected = expected_edge_state(h)
        actual = dict(h.graph.edges())
        assert expected == actual
        assert coherence_errors(h) == []


def test_no_phase_debris_after_events():
    h = make_healer(list(range(6)), [(i, (i + 1) % 6) for i in range(6)])
    for ev in [Event("del", 0), Event("del", 2), Event("del", 4)]:
        h.handle_event(ev)
        assert all(owners > 0 for _, owners in h.graph.edges())


def test_skip_heal_fault_disables_repair():
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)], fault="skip-heal")
    h.handle_event(Event("del", 0))
    assert h.graph.edge_count() == 0
    assert not is_connected(h.graph)
    assert h.registry.clouds == {}


def test_drop_black_edge_fault_breaks_preservation():
    from xhealsim.metrics import check_edge_preservation
    h = make_healer(list(range(5)),
                    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
                    fault="drop-black-edge")
    h.handle_event(Event("del", 0))
    ok, missing = check_edge_preservation(h.graph, h.shadow)
    assert not ok and missing


def test_unknown_fault_rejected():
    with pytest.raises(ValueError):
        make_healer([0], [], fault="chaos-monkey")


def test_degree_bound_hand_example():
    # healed 3-leaf star with kappa=6: leaves had baseline degree 1 and
    # end with live degree 2, so slack is 6*1 + 6 - 2 = 10
    from xhealsim.metrics import check_degree_bound
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    h.handle_event(Event("del", 0))
    slack, violations = check_degree_bound(h.graph, h.shadow, 6)
    assert violations == []
    assert slack == 10


@pytest.mark.parametrize("n0,seed,alpha", [
    (50, 9, Fraction(1)),        # budget broke at t=40 under the old free-node rule
    (100, 3, Fraction(1)),       # degree bound broke at t=122
    (500, 2, Fraction(1, 2)),    # degree bound broke at t=450
])
def test_every_event_keeps_the_cloud_budget_and_the_degree_bound(n0, seed, alpha):
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), n0,
                      750 if n0 == 500 else 300, seed)
    cfg = cli.RunConfig(seed=seed, alpha_target=alpha)
    h = cli.trace_healer(trace, cfg)
    kappa, alive = cfg.kappa, h.shadow.alive
    for t in cli.applied(h, trace.events):
        assert budget_errors(h) == [], t
        over = [x for x in alive
                if h.graph.degree(x) > kappa * len(h.shadow.neighbors(x)) + kappa]
        assert over == [], t
    assert coherence_errors(h) == []


def test_budget_errors_name_a_node_over_its_budget():
    # node 1 lost one baseline neighbor, so it may hold two clouds
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    assert budget_errors(h) == []
    for extra in range(2):
        h.registry.store(100 + extra, h.registry.clouds[pid])
    assert budget_errors(h) == [
        f"node {x} holds 3 primary and 0 secondary clouds, "
        "over its budget of 1 dead baseline neighbors + 1" for x in (1, 2, 3)]


def test_budget_errors_recount_dead_baseline_neighbours():
    # the budget reads the shadow's dead counts; a count that is off is
    # named, and the budget is judged by the recount
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    h.handle_event(Event("del", 0))
    h.shadow.dead[1] = 5
    h.shadow.dead.pop(2)
    assert budget_errors(h) == ["node 1 counts 5 dead baseline neighbors, not 1",
                                "node 2 counts 0 dead baseline neighbors, not 1"]


def test_free_slot_compares_held_clouds_with_dead_baseline_neighbours():
    # 4 lost its baseline neighbor 3 and holds two clouds, a full budget;
    # once its baseline neighbor 5 is dead too it has a slot left
    h = make_healer(list(range(6)), [(3, 0), (3, 4), (4, 5), (5, 1)])
    h.handle_event(Event("del", 3))  # primary {0, 4}
    (pid,) = h.registry.clouds
    h.registry.store(pid + 1, h.registry.clouds[pid])
    assert not h.registry.free(4)  # 2 held, 1 dead
    h.shadow.mark_dead(5)
    assert h.registry.free(4)  # 2 held, 2 dead


def test_a_cloud_that_loses_one_member_is_spliced_with_kappa_half_new_edges():
    # the hub's 14 leaves form a 6-regular cloud; when leaf 1 dies its six
    # cloud neighbors are re-paired by three new edges, the rest is kept
    h = make_healer(list(range(15)), [(0, leaf) for leaf in range(1, 15)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    before = set(h.registry.clouds[pid].topology.edges)
    orphans = {u if v == 1 else v for u, v in before if 1 in (u, v)}
    created, reused = h.counters.edges_created, h.counters.edges_reused
    h.handle_event(Event("del", 1))
    after = set(h.registry.clouds[pid].topology.edges)
    assert before - after == {e for e in before if 1 in e}
    assert len(after - before) == 3 and all(set(e) <= orphans for e in after - before)
    c = h.counters
    assert (c.clouds_spliced, c.clouds_rebuilt) == (1, 0)
    # only the new edges are painted; the kept ones are not counted as reused
    assert (c.edges_created - created, c.edges_reused - reused, c.edges_deleted) == (3, 0, 0)
    assert coherence_errors(h) == []


# the registry's fields, and the calls that change a dict or set in place
REGISTRY_FIELDS = {"clouds", "member_of", "bridges", "bridges_of", "free_members", "touched",
                   "_entries_then"}
MUTATORS = {"pop", "popitem", "update", "clear", "setdefault", "add", "discard", "remove",
            "difference_update", "intersection_update", "symmetric_difference_update"}


class RegistryWrites(ast.NodeVisitor):
    """The lines of a module that write a registry field outside
    ``CloudRegistry``'s methods: an assignment, augmented assignment or
    ``del`` of ``x.<field>`` or ``x.<field>[k]``, or a mutating call on
    ``x.<field>``, directly or through a local name bound to one."""

    def __init__(self) -> None:
        self.lines: list[int] = []
        self.aliases: set[str] = set()

    def visit_ClassDef(self, node):
        if node.name != "CloudRegistry":
            self.generic_visit(node)

    def visit_FunctionDef(self, node):
        outer, self.aliases = self.aliases, set(self.aliases)
        self.generic_visit(node)
        self.aliases = outer

    def is_field(self, node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr in REGISTRY_FIELDS
                or isinstance(node, ast.Name) and node.id in self.aliases)

    def writes(self, target) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(self.writes(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return self.writes(target.value)
        if isinstance(target, ast.Subscript):
            return self.is_field(target.value)
        return isinstance(target, ast.Attribute) and target.attr in REGISTRY_FIELDS

    def bind(self, target, value) -> None:
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                self.bind(t, v)
        elif isinstance(target, ast.Name):
            if isinstance(value, ast.Attribute) and value.attr in REGISTRY_FIELDS:
                self.aliases.add(target.id)
            else:
                self.aliases.discard(target.id)

    def visit_Assign(self, node):
        for target in node.targets:
            self.bind(target, node.value)
            if self.writes(target):
                self.lines.append(node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self.bind(node.target, node.value)
        if self.writes(node.target):
            self.lines.append(node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if self.writes(node.target) or self.is_field(node.target):
            self.lines.append(node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node):
        if any(self.writes(t) for t in node.targets):
            self.lines.append(node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                and self.is_field(func.value)):
            self.lines.append(node.lineno)
        self.generic_visit(node)


def registry_writes(source: str) -> list[int]:
    visitor = RegistryWrites()
    visitor.visit(ast.parse(source))
    return visitor.lines


def test_only_the_registry_methods_write_its_fields():
    # the edge step walks the ids store and retire record, so it is
    # complete only while every write goes through store, retire, bridge
    # and release
    package = Path(engine.__file__).parent
    writes = {path.name: registry_writes(path.read_text())
              for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in writes.items() if lines} == {}
    # the check sees each kind of write, directly and through an alias
    for body in ["h.registry.clouds[3] = c", "reg.member_of = {}", "del reg.bridges[n]",
                 "reg.bridges.pop(n)", "reg.touched |= {1}", "reg.clouds.update(o)",
                 "held = reg.member_of\nheld[n] = frozenset()",
                 "cloud, bridges = c, reg.bridges\ndel bridges[n]",
                 "touched: set[int] = reg.touched\ntouched.add(1)"]:
        assert registry_writes("def f(reg):\n    " + body.replace("\n", "\n    ")) != [], body
    assert registry_writes("class CloudRegistry:\n"
                           "    def f(self):\n        self.clouds[1] = 2") == []
    assert registry_writes("def f(reg):\n    bridges = reg.bridges\n    bridges = {}\n"
                           "    bridges[1] = 2\n    return reg.clouds.get(1)") == []
