"""The density and stretch checks against their straightforward twins.

``metrics.check_density_lower`` and ``check_density_upper`` decide most
subsets from missing edges and degree sums, and ``stretch`` works on CSR
arrays; the oracles in ``helpers`` are the straightforward per-subset
and per-source versions, fed the same subsets as frozensets.  Both must
return exactly the same values: violation lists, worst ratio and pair
count.

``metrics.evaluate`` draws its random density subsets only when a
missing edge or a node over its degree budget lets one break a bound;
its density lines must equal those of both checks on the always-drawn
family, and a healthy run must never draw.
"""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import density_lower_oracle, density_upper_oracle, graph_from_edges, stretch_oracle
from xhealsim import cli, metrics
from xhealsim.adversary import Event, Strategy, gen_trace, run_stream
from xhealsim.cli import RunConfig, run_trace
from xhealsim.engine import Healer
from xhealsim.expander import ExpanderConfig
from xhealsim.graph import EmptySubset, ShadowGraph, UnknownNode
from xhealsim.metrics import (check_degree_bound, check_density_lower, check_density_upper,
                              check_edge_preservation, evaluate, mandatory_subsets,
                              sample_subsets, stretch)

KAPPA = 6


def over_budget(graph, shadow, kappa: int) -> list[int]:
    """The alive nodes over their degree budget, as ``evaluate`` passes
    them to ``check_density_upper``."""
    return [v for v, _ in check_degree_bound(graph, shadow, kappa)[1]]


def checks_and_oracles(healer: Healer, seed: int, t: int, samples: int = 100,
                       pairs: int = 200):
    """(new, oracle) results of the three checks at one state."""
    graph, shadow = healer.graph, healer.shadow
    drawn = sample_subsets(shadow.alive, samples, run_stream(seed, f"density/{t}"))
    subsets = mandatory_subsets(healer) + drawn
    frozen = mandatory_subsets(healer) + [frozenset(s) for s in drawn]
    new = (check_density_lower(graph, shadow, subsets,
                               check_edge_preservation(graph, shadow)[1]),
           check_density_upper(graph, shadow, KAPPA, subsets, over_budget(graph, shadow, KAPPA)),
           stretch(graph, shadow, pairs, run_stream(seed, f"stretch/{t}")))
    old = (density_lower_oracle(graph, shadow, frozen),
           density_upper_oracle(graph, shadow, KAPPA, frozen),
           stretch_oracle(graph, shadow, pairs, run_stream(seed, f"stretch/{t}")))
    return new, old


def replay(n0: int, steps: int, seed: int, insert_fraction: float = 0.4,
           fault: str | None = None, checkpoint_every: int = 1):
    """Yield (t, healer) at t=0 and at every checkpoint of a uniform trace."""
    trace = gen_trace(Strategy("uniform", insert_fraction=insert_fraction),
                      n0, steps, seed, kappa=KAPPA)
    healer = cli.trace_healer(trace, RunConfig(seed=seed, kappa=KAPPA), fault)
    return ((t, healer) for t in cli.applied(healer, trace.events)
            if cli.checkpoint_due(t, steps, checkpoint_every))


@settings(max_examples=40, deadline=None)
@given(n0=st.integers(1, 14), steps=st.integers(0, 25), seed=st.integers(0, 10_000),
       insert_fraction=st.sampled_from([0.2, 0.4, 0.7]),
       fault=st.sampled_from([None, "skip-heal", "drop-black-edge"]),
       samples=st.integers(0, 12))
def test_parity_on_generated_small_states(n0, steps, seed, insert_fraction, fault, samples):
    for t, healer in replay(n0, steps, seed, insert_fraction, fault):
        new, old = checks_and_oracles(healer, seed, t, samples=samples)
        assert new == old, (t, fault)


@pytest.mark.parametrize("fault", ["skip-heal", "drop-black-edge"])
def test_parity_on_faulted_runs_with_violations(fault):
    flagged = 0
    for t, healer in replay(30, 50, 2, insert_fraction=0.3, fault=fault,
                            checkpoint_every=5):
        new, old = checks_and_oracles(healer, 2, t)
        assert new == old, t
        flagged += bool(old[0] or old[2][1])
    assert flagged  # the faults must reach the density or stretch verdicts


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_parity_at_every_acceptance_checkpoint(seed):
    for t, healer in replay(50, 300, seed, checkpoint_every=10):
        new, old = checks_and_oracles(healer, seed, t)
        assert new == old, t


def test_parity_with_sampled_stretch_pairs():
    # above ALL_PAIRS_LIMIT alive nodes stretch samples its pairs
    for t, healer in replay(150, 60, 5, checkpoint_every=20):
        assert len(healer.shadow.alive) > 60
        new, old = checks_and_oracles(healer, 5, t, samples=20)
        assert new == old, t
        assert new[2][2] > 0


@pytest.mark.parametrize("check", ["lower", "upper"])
def test_density_checks_reject_bad_subsets(check):
    healer = Healer.from_initial([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)],
                                 ExpanderConfig(), random.Random(0))
    healer.handle_event(Event("del", 0))

    def run(family):
        if check == "lower":
            return check_density_lower(healer.graph, healer.shadow, family,
                                       check_edge_preservation(healer.graph, healer.shadow)[1])
        return check_density_upper(healer.graph, healer.shadow, KAPPA, family,
                                   over_budget(healer.graph, healer.shadow, KAPPA))

    assert run([frozenset([1, 2])]) == []
    with pytest.raises(UnknownNode):
        run([frozenset([1, 2]), frozenset([0, 1])])   # 0 is dead
    with pytest.raises(UnknownNode):
        run([frozenset([1, 99])])                      # 99 never existed
    with pytest.raises(EmptySubset):
        run([frozenset([1]), frozenset()])
    # the first bad subset decides which error is raised
    with pytest.raises(UnknownNode):
        run([frozenset([1, 99]), frozenset()])
    with pytest.raises(EmptySubset):
        run([frozenset([2]), frozenset(), frozenset([99])])
    # a sampled subset is an id list in selection order; [1, 0] holds dead 0
    with pytest.raises(UnknownNode):
        run([frozenset([1]), [1, 0]])
    with pytest.raises(EmptySubset):
        run([frozenset(), [1, 0]])
    assert run([[2, 1]]) == []


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), dead=st.sets(st.integers(0, 11)),
       base_p=st.floats(0, 1), live_p=st.floats(0, 1), kappa=st.integers(0, 2),
       seed=st.integers(0, 10_000))
def test_parity_on_arbitrary_graph_pairs(n, dead, base_p, live_p, kappa, seed):
    # unrelated live and baseline graphs reach every violation message
    rng = random.Random(seed)
    shadow = ShadowGraph.from_edges(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                                               if rng.random() < base_p])
    for v in sorted(dead & set(range(n))):
        shadow.mark_dead(v)
    alive = sorted(shadow.alive)
    graph = graph_from_edges(alive, [(u, v) for i, u in enumerate(alive)
                                     for v in alive[i + 1:] if rng.random() < live_p])
    sampled = sample_subsets(alive, 15, rng)
    frozen = [frozenset(s) for s in sampled]
    assert (check_density_lower(graph, shadow, sampled,
                                check_edge_preservation(graph, shadow)[1])
            == density_lower_oracle(graph, shadow, frozen))
    assert (check_density_upper(graph, shadow, kappa, sampled,
                                over_budget(graph, shadow, kappa))
            == density_upper_oracle(graph, shadow, kappa, frozen))
    assert (stretch(graph, shadow, 20, random.Random(seed))
            == stretch_oracle(graph, shadow, 20, random.Random(seed)))


def eager_density(healer: Healer, seed: int, t: int, samples: int):
    """Density counts and lines of both checks on the family that draws
    its random subsets at every checkpoint."""
    graph, shadow = healer.graph, healer.shadow
    drawn = sample_subsets(shadow.alive, samples, run_stream(seed, f"density/{t}"))
    subsets = mandatory_subsets(healer) + drawn
    lower = check_density_lower(graph, shadow, subsets,
                                check_edge_preservation(graph, shadow)[1])
    upper = check_density_upper(graph, shadow, healer.cfg.kappa, subsets,
                                over_budget(graph, shadow, healer.cfg.kappa))
    return (len(lower), len(upper),
            [f"density: {v}" for v in lower] + [f"density-upper: {v}" for v in upper])


def reported_density(healer: Healer, seed: int, t: int, samples: int):
    cfg = RunConfig(density_samples=samples)
    report = evaluate(healer, t, seed, density_samples=samples, stretch_pairs=cfg.stretch_pairs,
                      stretch_constant=cfg.stretch_constant, exact_limit=cfg.exact_limit)
    return (report.density_violations, report.density_ub_violations,
            [line for line in report.violation_detail
             if line.startswith(("density: ", "density-upper: "))])


@settings(max_examples=30, deadline=None)
@given(n0=st.integers(1, 14), steps=st.integers(0, 25), seed=st.integers(0, 10_000),
       fault=st.sampled_from([None, "skip-heal", "drop-black-edge"]),
       samples=st.integers(1, 30))
def test_evaluate_density_matches_always_drawn_family(n0, steps, seed, fault, samples):
    for t, healer in replay(n0, steps, seed, fault=fault, checkpoint_every=3):
        assert reported_density(healer, seed, t, samples) == eager_density(
            healer, seed, t, samples), (t, fault)


def test_evaluate_reports_a_sampled_subset_over_the_degree_budget():
    # nodes 0-9 are isolated in the baseline but a live clique: degree 9
    # against a budget of kappa = 4.  The whole alive set keeps its
    # per-subset bound (2*45 <= 4*25), so only sampled subsets heavy in
    # clique members break it.
    healer = Healer.from_initial(range(25), [], ExpanderConfig(kappa=4), random.Random(0))
    healer.graph.reown([], [[(u, v) for u in range(10) for v in range(u + 1, 10)]])
    over = over_budget(healer.graph, healer.shadow, 4)
    assert over == list(range(10))
    assert check_density_upper(healer.graph, healer.shadow, 4, mandatory_subsets(healer),
                               over) == []
    reported = reported_density(healer, 3, 0, 100)
    assert reported[1] > 0
    assert reported == eager_density(healer, 3, 0, 100)


def test_healthy_acceptance_run_draws_no_subsets(monkeypatch):
    # the acceptance shape: n0=50, 300 events, a checkpoint every 10,
    # alpha 1; a degree sum must decide every subset, so no induced edge
    # is counted either
    def refuse(name):
        def refused(*_args):
            raise AssertionError(f"{name} called on a healthy checkpoint")
        return refused

    monkeypatch.setattr(metrics, "sample_subsets", refuse("sample_subsets"))
    monkeypatch.setattr(metrics, "_edges_inside", refuse("_edges_inside"))
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 300, 0, kappa=KAPPA)
    _, reports = run_trace(trace, RunConfig(kappa=KAPPA, seed=0, checkpoint_every=10))
    assert len(reports) == 31
    assert [r.violation_detail for r in reports] == [[]] * 31
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), dead=st.sets(st.integers(0, 11)), base_p=st.floats(0, 1),
       live_p=st.floats(0, 1), kappa=st.integers(0, 2), seed=st.integers(0, 10_000),
       fixed=st.lists(st.sets(st.integers(0, 11), min_size=1), max_size=4))
# every live edge the budgets allow, over a sparse baseline with alive
# nodes wired to dead ones: the alive set holds more live edges than
# (kappa + 1) * its baseline edges + kappa * n / 2
@example(n=12, dead={10, 11}, base_p=0.1, live_p=1.0, kappa=2, seed=6, fixed=[])
def test_degree_budget_keeps_every_subset_within_the_upper_bound(
        n, dead, base_p, live_p, kappa, seed, fixed):
    rng = random.Random(seed)
    shadow = ShadowGraph.from_edges(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                                               if rng.random() < base_p])
    for v in sorted(dead & set(range(n))):
        shadow.mark_dead(v)
    alive = sorted(shadow.alive)
    # live edges, each added only while both ends stay within budget
    budget = {v: kappa * len(shadow.neighbors(v)) + kappa for v in alive}
    live_edges = []
    for i, u in enumerate(alive):
        for v in alive[i + 1:]:
            if budget[u] and budget[v] and rng.random() < live_p:
                budget[u] -= 1
                budget[v] -= 1
                live_edges.append((u, v))
    graph = graph_from_edges(alive, live_edges)
    assert check_degree_bound(graph, shadow, kappa)[1] == []
    # the ungated oracle: the gated check, passed no node over budget,
    # would return nothing whatever the bound
    family = [s for s in fixed if s <= shadow.alive]
    assert density_upper_oracle(graph, shadow, kappa,
                                family + [frozenset(s) for s in sample_subsets(alive, 20, rng)]
                                ) == []
