import random
from dataclasses import replace
from fractions import Fraction

import pytest

from xhealsim import cli
from xhealsim.adversary import Event, Strategy, gen_trace
from xhealsim.engine import (
    CloudKind,
    Healer,
    InvalidEvent,
    Plan,
    budget_errors,
    coherence_errors,
    expected_edge_state,
)
from xhealsim.expander import ExpanderConfig, RetriesExhausted
from xhealsim.graph import BLACK
from helpers import is_connected


def make_healer(nodes, edges, seed=0, fault=None, **cfg):
    return Healer.from_initial(nodes, edges, ExpanderConfig(**cfg),
                               random.Random(seed), fault=fault)


def plan_and_apply(h, planner, *args):
    """Run one repair planner outside an event as a delete runs its
    plan: plan on a ``Plan``, design the clouds it marked, take its
    state, then apply its step."""
    plan = Plan(h)
    getattr(plan, planner)(*args)
    plan._design()
    h.registry, h.counters, h.next_cloud_id = plan.registry, plan.counters, plan.next_cloud_id
    h._apply(plan.step)


def test_insert_wires_black_edges_only():
    h = make_healer([0, 1], [(0, 1)])
    h.handle_event(Event("ins", 2, (0, 1)))
    assert h.graph.edge(0, 2).colors == {BLACK}
    assert h.graph.edge(1, 2).colors == {BLACK}
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
    assert sorted(rec.key for rec in h.graph.edges()) == [(1, 2), (1, 3), (2, 3)]
    (cloud,) = h.registry.clouds.values()
    assert cloud.kind is CloudKind.PRIMARY and cloud.members == {1, 2, 3}
    assert all(h.graph.edge(u, v).colors == {cloud.id}
               for u, v in cloud.topology.edges)
    assert h.counters.branch_all_black == 1
    assert coherence_errors(h) == []


def test_all_black_deletion_reuses_existing_black_edge():
    h = make_healer([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    h.handle_event(Event("del", 0))
    (cloud,) = h.registry.clouds.values()
    assert h.graph.edge(1, 2).colors == {BLACK, cloud.id}
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
    secondaries = [c for c in h.registry.clouds.values()
                   if c.kind is CloudKind.SECONDARY]
    assert len(secondaries) == 1
    (fid,) = [c.id for c in secondaries]
    bridge = h.registry.bridges[(fid, pid)]
    assert bridge in primary.members
    assert h.registry.duty[bridge] == fid
    assert coherence_errors(h) == []


def test_cloud_only_edges_of_dead_node_disappear_cleanly():
    h = make_healer([0, 1, 2, 3, 4], [(0, 1), (0, 2), (0, 3), (0, 4)])
    h.handle_event(Event("del", 0))
    h.handle_event(Event("del", 4))
    live_keys = {rec.key for rec in h.graph.edges()}
    assert all(4 not in key for key in live_keys)
    # black edges never existed among leaves, so everything left is cloud-colored
    assert all(BLACK not in h.graph.edge(u, v).colors for u, v in live_keys)


def test_secondary_branch_repairs_bridge_loss():
    # two healed star regions joined by one black edge, then kill the
    # node that became both primary member and secondary bridge
    nodes = [0, 1, 2, 3, 4, 5]
    edges = [(0, 1), (0, 2), (3, 4), (3, 5), (1, 4)]
    h = make_healer(nodes, edges)
    h.handle_event(Event("del", 0))     # P1 = {1,2}
    h.handle_event(Event("del", 3))     # P2 = {4,5}
    h.handle_event(Event("del", 1))     # branch 2: fixes P1, bridges it, black nbr 4
    assert h.counters.branch_primary == 1
    # the bridge takes duty; the loose black neighbor 4 takes none
    assert h.registry.duty == {node: f for (f, _), node in h.registry.bridges.items()}
    assert 4 not in h.registry.duty
    h.handle_event(Event("del", 2))     # branch 3: 2 carries secondary color
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
    plan.registry.duty[1] = 99
    assert plan._pick_free_node(pid, set()) == 2
    assert plan._pick_free_node(pid, {2}) == 3


def test_pick_free_node_borrows_from_neighbor_cloud():
    h = make_healer([0, 1, 2, 3, 4, 5],
                    [(0, 1), (0, 2), (3, 2), (3, 4), (3, 5), (1, 4)])
    h.handle_event(Event("del", 0))     # P1 = {1,2}
    h.handle_event(Event("del", 3))     # P2 = {2,4,5}, shares node 2 with P1
    p1 = next(cid for cid, c in h.registry.clouds.items() if c.members == {1, 2})
    h.registry.duty[1] = 99
    h.registry.duty[2] = 99
    plan = Plan(h)
    borrowed = plan._pick_free_node(p1, set())
    assert borrowed == 4            # smallest free id in the sharing cloud
    assert plan.counters.bridges_borrowed == 1


def test_pick_free_node_null_when_everyone_busy():
    h = make_healer([0, 1, 2], [(0, 1), (0, 2)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    h.registry.duty[1] = 99
    h.registry.duty[2] = 99
    plan = Plan(h)
    assert plan._pick_free_node(pid, set()) is None
    assert plan.counters.free_node_misses == 1


def test_make_secondary_merges_when_no_free_node():
    # one primary cloud whose members are all on duty forces the merge path
    h = make_healer([0, 1, 2], [(0, 1), (0, 2)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    h.registry.duty[1] = 99
    h.registry.duty[2] = 99
    plan_and_apply(h, "_make_secondary_cloud", [pid], [])
    assert h.counters.merges == 1
    assert pid not in h.registry.clouds
    merged = [c for c in h.registry.clouds.values() if c.kind is CloudKind.PRIMARY]
    assert len(merged) == 1 and merged[0].members == {1, 2}


def test_merge_includes_black_participants():
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3), (1, 3)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    h.registry.duty.update({1: 99, 2: 99, 3: 99})
    plan_and_apply(h, "_make_secondary_cloud", [pid], [3])
    merged = [c for c in h.registry.clouds.values() if c.kind is CloudKind.PRIMARY]
    assert len(merged) == 1 and merged[0].members == {1, 2, 3}


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
    (fid,) = [c.id for c in h.registry.clouds.values()
              if c.kind is CloudKind.SECONDARY]
    return h, (p1, p2, p3), fid


def test_fix_secondary_replaces_dead_bridge():
    h, (p1, p2, p3), fid = trio_of_bridged_primaries()
    bridge2 = h.registry.bridges[(fid, p2)]
    others = {h.registry.bridges[(fid, p1)], h.registry.bridges[(fid, p3)]}
    h.handle_event(Event("del", bridge2))
    assert h.counters.branch_secondary == 1
    replacement = h.registry.bridges[(fid, p2)]
    assert replacement != bridge2
    assert replacement in h.registry.clouds[p2].members
    assert h.registry.duty[replacement] == fid
    assert others <= h.registry.clouds[fid].members
    assert replacement in h.registry.clouds[fid].members
    assert coherence_errors(h) == []
    assert is_connected(h.graph)


def test_fix_secondary_merges_when_no_replacement_exists():
    h, (p1, p2, p3), fid = trio_of_bridged_primaries()
    bridge2 = h.registry.bridges[(fid, p2)]
    # exhaust every free node the dead bridge's cloud could draw on
    for cloud in h.registry.clouds.values():
        for member in cloud.members:
            h.registry.duty.setdefault(member, fid)
    h.handle_event(Event("del", bridge2))
    assert fid not in h.registry.clouds
    assert h.counters.merges >= 1
    merged = [c for c in h.registry.clouds.values()
              if c.kind is CloudKind.PRIMARY and len(c.members) > 2]
    assert merged, "expected one big merged primary cloud"
    assert coherence_errors(h) == []
    assert is_connected(h.graph)


def assert_failed_event_changes_nothing(h, event, seed):
    before = cli.snapshot_state(h, seed)
    with pytest.raises(RetriesExhausted):
        h.handle_event(event)
    assert coherence_errors(h) == []
    assert cli.snapshot_state(h, seed) == before


def test_certification_failure_on_a_real_trace_changes_nothing():
    # at alpha 1, event 342 of this trace needs an 81-member cloud and no
    # 6-regular draw certifies it (the exit-3 trace of the CLI tests)
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 200, 400, 1)
    h = Healer.from_initial(trace.initial_nodes, trace.initial_edges,
                            cli.RunConfig(seed=1).expander(), random.Random("1/engine"))
    for event in trace.events[:341]:
        h.handle_event(event)
    assert_failed_event_changes_nothing(h, trace.events[341], 1)


def test_certification_failure_after_a_planned_rebuild_changes_nothing():
    # at kappa 4 and alpha 100 only cliques (up to 5 members) certify.
    # Deleting 0 builds the clique {1,2,3}; deleting 1 marks it for a
    # rebuild and registers the secondary cloud of free node 2 and black
    # neighbors 4..8.  The design at the end rebuilds the clique over
    # {2,3} first, in id order, then fails on the secondary
    h = make_healer(list(range(9)), [(0, 1), (0, 2), (0, 3)] + [(1, b) for b in range(4, 9)],
                    kappa=4, alpha_target=Fraction(100), max_retries=4)
    h.handle_event(Event("del", 0))
    assert_failed_event_changes_nothing(h, Event("del", 1), 0)
    plan = Plan(h, 1)
    with pytest.raises(RetriesExhausted):
        plan.repair()
    assert [c.members for c in plan.step.built] == [{2, 3}]
    assert [c.members for c in plan.step.stripped] == [{2, 3}]


def test_no_plan_designs_a_cloud_it_retires(monkeypatch):
    # every cloud a plan designs is the one it leaves registered, so no
    # draw goes to a cloud a merge or a fold retires, or to one designed
    # twice, on a trace whose repairs merge clouds of up to 80 members
    repair, designed = Plan.repair, []

    def checked_repair(plan):
        repair(plan)
        for cloud in plan.step.built:
            assert plan.registry.clouds.get(cloud.id) is cloud
        designed.append(len(plan.step.built))

    monkeypatch.setattr(Plan, "repair", checked_repair)
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 200, 300, 0)
    cfg = cli.RunConfig(seed=0, alpha_target=Fraction(1, 2))
    h = Healer.from_initial(trace.initial_nodes, trace.initial_edges, cfg.expander(),
                            random.Random("0/engine"))
    for event in trace.events:
        h.handle_event(event)
    assert h.counters.merges > 10 and sum(designed) > h.counters.deletes
    assert coherence_errors(h) == []


def test_a_plan_that_is_not_taken_changes_nothing():
    # a branch-3 delete of trio_of_bridged_primaries' bridge: the plan
    # rebuilds, drafts a replacement and counts, all on its own copies
    h, (p1, p2, p3), fid = trio_of_bridged_primaries()
    before = cli.snapshot_state(h, 0)
    plan = Plan(h, h.registry.bridges[(fid, p2)])
    plan.repair()
    assert plan.counters.branch_secondary == 1 and plan.step.built
    assert plan.registry.clouds != h.registry.clouds
    assert cli.snapshot_state(h, 0) == before
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
            sorted((rec.key, tuple(sorted(rec.colors))) for rec in h.graph.edges()),
            h.counters.as_dict(),
            {cid: sorted(c.members) for cid, c in h.registry.clouds.items()},
        ))
    assert snapshots[0] == snapshots[1]


def test_registry_reconstruction_matches_graph():
    h = make_healer(list(range(8)),
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                     (0, 4), (2, 6)])
    for ev in [Event("del", 4), Event("del", 2), Event("ins", 8, (0, 1)),
               Event("del", 0), Event("del", 6)]:
        h.handle_event(ev)
        expected = expected_edge_state(h)
        actual = {rec.key: rec.colors for rec in h.graph.edges()}
        assert expected == actual
        assert coherence_errors(h) == []


def test_no_phase_debris_after_events():
    h = make_healer(list(range(6)), [(i, (i + 1) % 6) for i in range(6)])
    for ev in [Event("del", 0), Event("del", 2), Event("del", 4)]:
        h.handle_event(ev)
        assert all(rec.colors for rec in h.graph.edges())


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
    h = Healer.from_initial(trace.initial_nodes, trace.initial_edges, cfg.expander(),
                            random.Random(f"{seed}/engine"))
    kappa, alive = cfg.kappa, h.shadow.alive
    for t, event in enumerate(trace.events, start=1):
        h.handle_event(event)
        assert budget_errors(h) == [], t
        over = [x for x in alive
                if h.graph.degree(x) > kappa * h.shadow.degree(x) + kappa]
        assert over == [], t
    assert coherence_errors(h) == []


def test_budget_errors_name_a_node_over_its_budget():
    # node 1 lost one baseline neighbor, so it may hold two clouds
    h = make_healer([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    h.handle_event(Event("del", 0))
    (pid,) = h.registry.clouds
    assert budget_errors(h) == []
    for extra in range(2):
        h.registry.store(replace(h.registry.clouds[pid], id=100 + extra))
    assert budget_errors(h) == [
        f"node {x} holds 3 primary and 0 secondary clouds, "
        "over its budget of 1 dead baseline neighbors + 1" for x in (1, 2, 3)]


def test_free_slot_counts_the_dying_node_and_a_loose_membership():
    # 4 lost its baseline neighbor 3 and holds two clouds, a full budget.
    # The dying node 5 is also its baseline neighbor and pays for one
    # more cloud, unless 4 is one of 5's black neighbors, which join the
    # new secondary as loose members anyway
    h = make_healer(list(range(6)), [(3, 0), (3, 4), (4, 5), (5, 1)])
    h.handle_event(Event("del", 3))  # primary {0, 4}
    (pid,) = h.registry.clouds
    h.registry.store(replace(h.registry.clouds[pid], id=pid + 1))
    plan = Plan(h)
    assert not plan._has_free_slot(4)  # 2 held, 1 dead
    plan.dying = 5
    assert plan._has_free_slot(4)  # 2 held, 2 dead counting the dying node
    plan.blacks = frozenset({1, 4})
    assert not plan._has_free_slot(4)  # 2 held and 1 loose, 2 dead


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
