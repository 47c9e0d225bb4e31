import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (complete_adjacency, cycle_adjacency, density, density_oracle,
                     expansion_oracle, graph_from_edges, index_arrays)
from xhealsim import metrics
from xhealsim.adversary import Event, Strategy, gen_trace
from xhealsim.cli import RunConfig, run_trace
from xhealsim.engine import Healer
from xhealsim.expander import ExpanderConfig, lambda2_of_adjacency
from xhealsim.graph import BLACK, ShadowGraph, UnknownNode, edge_key
from xhealsim.metrics import (
    LAMBDA_SIZE_CAP,
    check_connectivity,
    check_degree_bound,
    check_density_lower,
    check_density_upper,
    check_edge_preservation,
    evaluate,
    expansion,
    lambda2,
    mandatory_subsets,
    sample_subsets,
    stretch,
    stretch_bound,
)

# the checkpoint settings of a default run
CHECKPOINT = {name: getattr(RunConfig(), name) for name in
              ("density_samples", "stretch_pairs", "stretch_constant", "exact_limit")}


def healed_star(fault=None):
    healer = Healer.from_initial([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)],
                                 ExpanderConfig(), random.Random(0), fault=fault)
    healer.handle_event(Event("del", 0))
    return healer


def test_edge_preservation_clean_and_faulted():
    h = healed_star()
    ok, missing = check_edge_preservation(h.graph, h.shadow)
    assert ok and missing == []

    # plant a fault: remove a live black edge behind the healer's back
    h.handle_event(Event("ins", 4, (1, 2)))
    assert h.graph.recolor([(BLACK, [(1, 4)])], []) == (0, 0, 1)
    ok, missing = check_edge_preservation(h.graph, h.shadow)
    assert not ok and missing == [(1, 4)]


@pytest.mark.parametrize("fault", ["skip-heal", "drop-black-edge"])
def test_reports_hold_python_ints_not_numpy_scalars(fault, monkeypatch):
    # numpy 2 prints a leaked scalar as np.int64(7), changing report text
    seen = []

    def recording(graph, shadow):
        result = check_edge_preservation(graph, shadow)
        seen.append(result)
        return result

    monkeypatch.setattr(metrics, "check_edge_preservation", recording)
    trace = gen_trace(Strategy("uniform", insert_fraction=0.3), 30, 50, 2)
    _, reports = run_trace(trace, RunConfig(seed=2), fault=fault)
    detail = [line for rep in reports for line in rep.violation_detail]
    assert detail and not [line for line in detail if "np." in line]
    edges = [e for _, missing in seen for e in missing]
    assert all(type(end) is int for e in edges for end in e)
    assert edges or fault == "skip-heal"


def test_degree_bound_isolated_insert_has_kappa_slack():
    h = healed_star()
    h.handle_event(Event("ins", 4, ()))
    slack, violations = check_degree_bound(h.graph, h.shadow, 6)
    assert violations == []
    assert slack == 6  # the isolated node: 6*0 + 6 - 0


def test_density_lower_singleton_and_fault():
    h = healed_star()
    assert check_density_lower(h.graph, h.shadow, [frozenset([1]), frozenset([1, 2, 3])],
                               []) == []

    h2 = healed_star()
    h2.handle_event(Event("ins", 4, (1, 2)))
    assert h2.graph.recolor([(BLACK, [(1, 4)])], []) == (0, 0, 1)
    _, missing = check_edge_preservation(h2.graph, h2.shadow)
    assert missing == [(1, 4)]
    assert check_density_lower(h2.graph, h2.shadow, [frozenset([1, 2, 4])], missing)


def test_density_upper_hand_computed_bound():
    # healed star, S = the three leaves, kappa 6: live density 1, baseline
    # density 0, bound 0 + 6*3/(2*3) + 3 = 6; every member is passed as
    # over budget, so the bound itself decides
    h = healed_star()
    subset = frozenset([1, 2, 3])
    assert check_density_upper(h.graph, h.shadow, 6, [subset], subset) == []
    assert density(h.graph, subset) == 1
    assert density(h.shadow, subset) == 0


def test_premise_checks_on_alive_nodes_a_graph_lacks():
    # alive 3 and 4 are missing from the live graph: preservation counts
    # their baseline edges as lost, the degree check names the smaller.
    # An alive id the baseline never recorded stops both checks
    shadow = ShadowGraph.from_edges(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    graph = graph_from_edges([0, 1, 2], [(0, 1), (1, 2)])
    assert check_edge_preservation(graph, shadow) == (False, [(2, 3), (3, 4)])
    with pytest.raises(UnknownNode, match="^node 3 not present$"):
        check_degree_bound(graph, shadow, 6)
    shadow.alive.add(9)
    with pytest.raises(UnknownNode, match="^node 9 not present$"):
        check_edge_preservation(graph, shadow)
    with pytest.raises(UnknownNode, match="^node 9 not present$"):
        check_degree_bound(graph, shadow, 6)


def test_density_upper_counts_baseline_edges_to_dead_nodes():
    # kappa 2; baseline edges (i, i+6) with 6-11 dead, so the alive set
    # 0-5 induces no baseline edge but each alive node keeps one edge to
    # a dead node.  The live K6 minus a perfect matching gives every
    # node degree 4 = kappa * 1 + kappa: the degree bound with zero
    # slack, and on the alive set 2 * 12 <= 2 * 0 + 2 * 6 + 2 * 6.  Every
    # node is passed as over budget, so the bound itself decides
    shadow = ShadowGraph.from_edges(range(12), [(i, i + 6) for i in range(6)])
    for v in range(6, 12):
        shadow.mark_dead(v)
    graph = graph_from_edges(range(6), [(u, v) for u in range(6) for v in range(u + 1, 6)
                                        if v != u + 3])
    slack, violations = check_degree_bound(graph, shadow, 2)
    assert (slack, violations) == (0, [])
    assert check_density_upper(graph, shadow, 2, [frozenset(range(6))], range(6)) == []


def test_density_checks_match_oracle_on_untouched_graph():
    h = Healer.from_initial(list(range(6)), [(i, (i + 1) % 6) for i in range(6)],
                            ExpanderConfig(), random.Random(0))
    sampled = sample_subsets(h.shadow.alive, 20, random.Random(1))
    assert check_edge_preservation(h.graph, h.shadow) == (True, [])
    assert check_density_lower(h.graph, h.shadow, sampled, []) == []
    for s in sampled:
        assert density_oracle(lambda u, v: v in h.graph.neighbors(u), s) == density_oracle(
            lambda u, v: edge_key(u, v) in h.shadow.edges, s)


def test_mandatory_subsets_cover_healing_sites():
    h = healed_star()
    subsets = mandatory_subsets(h)
    assert frozenset(h.shadow.alive) in subsets
    (cloud,) = h.registry.clouds.values()
    assert frozenset(cloud.members) in subsets
    assert frozenset(h.last_black_neighbors) in subsets


def test_expansion_views():
    k4 = graph_from_edges(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert expansion(k4, 10) == Fraction(2)
    two_edges = graph_from_edges(range(4), [(0, 1), (2, 3)])
    assert expansion(two_edges, 10) == Fraction(0)
    c6 = graph_from_edges(range(6), [(i, (i + 1) % 6) for i in range(6)])
    assert expansion(c6, 10) == Fraction(2, 3)


def test_expansion_counts_dead_shadow_nodes():
    h = healed_star()
    # shadow keeps the deleted hub: star on 4 nodes has expansion 1
    assert expansion(h.shadow, 10) == Fraction(1)
    # live clique on the three leaves: ceil(3/2) = 2 crossing / 1
    assert expansion(h.graph, 10) == Fraction(2)


@settings(max_examples=60, deadline=None)
@given(ids=st.sets(st.integers(0, 60), min_size=2, max_size=10),
       dead=st.sets(st.integers(0, 60)), base_p=st.floats(0, 1), live_p=st.floats(0, 1),
       seed=st.integers(0, 10_000))
@example(ids={5, 17, 40, 41}, dead={17}, base_p=1.0, live_p=0.0, seed=0)  # isolated live
@example(ids={3, 9, 30}, dead=set(), base_p=0.0, live_p=1.0, seed=0)  # isolated shadow
def test_expansion_matches_subset_enumeration_on_views(ids, dead, base_p, live_p, seed):
    # sparse ids, so CSR positions differ from ids; the shadow keeps its
    # dead nodes, which the live graph has dropped
    rng = random.Random(seed)
    order = sorted(ids)
    shadow = ShadowGraph.from_edges(order, [(u, v) for i, u in enumerate(order)
                                            for v in order[i + 1:] if rng.random() < base_p])
    for v in sorted(dead & ids):
        shadow.mark_dead(v)
    alive = sorted(shadow.alive)
    graph = graph_from_edges(alive, [(u, v) for i, u in enumerate(alive)
                                     for v in alive[i + 1:] if rng.random() < live_p])
    for view in (graph, shadow):
        if len(view.node_set) >= 2:
            adjacency = {v: view.neighbors(v) for v in view.node_set}
            assert expansion(view, 10) == expansion_oracle(adjacency)


def test_lambda2_closed_forms():
    assert abs(lambda2_of_adjacency(*index_arrays({0: {1}, 1: {0}})) - 2.0) < 1e-9
    for n in range(2, 13):
        km = lambda2_of_adjacency(*index_arrays(complete_adjacency(n)))
        assert abs(km - n) < 1e-6
    for n in range(3, 13):
        cn = lambda2_of_adjacency(*index_arrays(cycle_adjacency(n)))
        assert abs(cn - (2 - 2 * math.cos(2 * math.pi / n))) < 1e-6


def test_lambda2_view_and_caps():
    k4 = graph_from_edges(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert abs(lambda2(k4) - 4.0) < 1e-6
    from xhealsim.metrics import MetricsError, TooLarge
    single = graph_from_edges([0], [])
    with pytest.raises(MetricsError):
        lambda2(single)
    with pytest.raises(TooLarge):
        lambda2(graph_from_edges(range(LAMBDA_SIZE_CAP + 1), []))


def test_stretch_identity_on_untouched_graph():
    h = Healer.from_initial(list(range(8)), [(i, (i + 1) % 8) for i in range(8)],
                            ExpanderConfig(), random.Random(0))
    worst, viols, pairs = stretch(h.graph, h.shadow, 50, random.Random(0))
    assert worst == Fraction(1) and not viols and pairs == 8 * 7 // 2


def test_stretch_healed_star_is_half():
    h = healed_star()
    worst, viols, _ = stretch(h.graph, h.shadow, 50, random.Random(0))
    assert worst == Fraction(1, 2)  # live distance 1, baseline 2 via dead hub
    assert not viols


def test_stretch_skips_baseline_disconnected_pairs():
    h = Healer.from_initial([0, 1], [(0, 1)], ExpanderConfig(), random.Random(0))
    h.handle_event(Event("ins", 2, ()))   # isolated: baseline cannot reach it
    worst, viols, pairs = stretch(h.graph, h.shadow, 50, random.Random(0))
    assert pairs == 1 and worst == Fraction(1) and not viols


def test_stretch_reports_live_disconnection():
    h = Healer.from_initial([0, 1, 2], [(0, 1), (0, 2)], ExpanderConfig(),
                            random.Random(0), fault="skip-heal")
    h.handle_event(Event("del", 0))
    worst, viols, _ = stretch(h.graph, h.shadow, 50, random.Random(0))
    assert viols and worst is None


def test_stretch_bound_values():
    assert stretch_bound(1, 4) is None
    assert stretch_bound(2, 4) == 4
    assert stretch_bound(50, 4) == 4 * 6
    assert stretch_bound(64, 4) == 4 * 6


def test_connectivity_verdicts():
    h = healed_star()
    verdict = check_connectivity(h.graph, h.shadow)
    assert verdict.ok and verdict.shadow_connected

    h.handle_event(Event("ins", 4, ()))   # isolated insert: baseline splits
    verdict = check_connectivity(h.graph, h.shadow)
    assert not verdict.shadow_connected and verdict.ok

    h2 = Healer.from_initial([0, 1, 2], [(0, 1), (0, 2)], ExpanderConfig(),
                             random.Random(0), fault="skip-heal")
    h2.handle_event(Event("del", 0))      # unhealed loss splits the live graph
    verdict = check_connectivity(h2.graph, h2.shadow)
    assert not verdict.ok


def test_evaluate_produces_clean_report():
    h = healed_star()
    report = evaluate(h, 1, seed=0, **CHECKPOINT)
    assert not report.violation_detail
    assert report.n_alive == 3
    assert report.edge_preservation_ok
    assert report.max_stretch == Fraction(1, 2)
    assert report.expansion_live == Fraction(2)
    assert report.expansion_shadow == Fraction(1)
    assert report.expansion_ok
    assert report.degree_slack_min == 10
    assert report.repair_counters["branch_all_black"] == 1


def test_evaluate_flags_faulty_state():
    h = Healer.from_initial(list(range(5)),
                            [(0, 1), (1, 2), (2, 3), (3, 4)],
                            ExpanderConfig(), random.Random(0), fault="skip-heal")
    h.handle_event(Event("del", 2))
    report = evaluate(h, 1, seed=0, **CHECKPOINT)
    assert not report.connectivity_ok
    assert report.violation_detail


def test_empty_network_report():
    h = Healer.from_initial([0], [], ExpanderConfig(), random.Random(0))
    h.handle_event(Event("del", 0))
    report = evaluate(h, 1, seed=0, **CHECKPOINT)
    assert report.n_alive == 0
    assert not report.violation_detail
    assert report.degree_slack_min is None
    assert report.max_stretch is None


def test_shadow_distances_use_dead_intermediates():
    # 1 - 0 - 2 with hub deleted: baseline distance via the dead hub is 2
    sh = ShadowGraph.from_edges([0, 1, 2], [(0, 1), (0, 2)])
    sh.mark_dead(0)
    from xhealsim.graph import Csr, bfs_distances
    csr = Csr.of(sh)
    dist = bfs_distances(csr, csr.positions([1, 2]), csr.positions([2, 1]))
    assert dist.tolist() == [2, 2]
