"""Acceptance suite: every structural bound, verified at desk scale.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  The adversarial suites are shared module-scoped fixtures so the
expensive simulations run once.
"""
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from helpers import (certificate_oracle, complete_adjacency, cycle_adjacency, density,
                     density_oracle, expansion_oracle, index_arrays, random_adjacency)
from xhealsim import cli
from xhealsim.adversary import Strategy, gen_trace, initial_graph, next_event
from xhealsim.engine import Healer, coherence_errors
from xhealsim.expander import ExpanderConfig, build_topology
from xhealsim.graph import edge_key
from xhealsim.metrics import (
    Subsets,
    check_connectivity,
    check_degree_bound,
    check_density_lower,
    check_density_upper,
    check_edge_preservation,
    expansion,
    lambda2_of_adjacency,
    mandatory_subsets,
    sample_subsets,
    stretch,
    stretch_bound,
)

KAPPA = 6
STANDARD_SEEDS = list(range(10))
BRIDGE_SEEDS = [100, 101, 102, 103, 104]
# uniform(f=0.42, n0=10, T=40) seeds screened so every state has at most
# 16 alive nodes and the baseline stays within exact-enumeration reach
EXPANSION_SEEDS = [6, 11, 13, 27, 43, 62, 64, 84, 90, 120]
EXPANSION_EXACT_LIMIT = 26


def conclude(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@dataclass
class SuiteResult:
    preservation_failures: list = field(default_factory=list)
    degree_failures: list = field(default_factory=list)
    connectivity_failures: list = field(default_factory=list)
    coherence_failures: list = field(default_factory=list)
    density_failures: list = field(default_factory=list)
    density_ub_failures: list = field(default_factory=list)
    stretch_failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    checkpoints: int = 0
    elapsed: float = 0.0


def drive(healer: Healer, events, seed: int, total: int,
          result: SuiteResult, checkpoint_every: int = 10) -> None:
    for t, event in enumerate(events, start=1):
        healer.handle_event(event)
        ok, missing = check_edge_preservation(healer.graph, healer.shadow)
        if not ok:
            result.preservation_failures.append((seed, t, missing[:3]))
        _, degree_viols = check_degree_bound(healer.graph, healer.shadow, KAPPA)
        if degree_viols:
            result.degree_failures.append((seed, t, degree_viols[:3]))
        if not check_connectivity(healer.graph, healer.shadow).ok:
            result.connectivity_failures.append((seed, t))
        mismatches = coherence_errors(healer)
        if mismatches:
            result.coherence_failures.append((seed, t, mismatches[:3]))
        if t % checkpoint_every == 0 or t == total:
            result.checkpoints += 1
            alive = healer.shadow.alive
            subsets = Subsets.of(healer.graph, mandatory_subsets(healer), alive,
                                 sample_subsets(len(alive), 100,
                                                random.Random(f"{seed}/density/{t}")))
            lower = check_density_lower(healer.graph, healer.shadow, subsets, missing)
            if lower:
                result.density_failures.append((seed, t, lower[:2]))
            upper = check_density_upper(healer.graph, healer.shadow, KAPPA, subsets)
            if upper:
                result.density_ub_failures.append((seed, t, upper[:2]))
            worst, viols, _ = stretch(healer.graph, healer.shadow, 200,
                                      random.Random(f"{seed}/stretch/{t}"))
            bound = stretch_bound(len(healer.shadow.alive), 4)
            if viols:
                result.stretch_failures.append((seed, t, viols[:2]))
            if worst is not None and bound is not None and worst > bound:
                result.stretch_failures.append((seed, t, f"{worst} > {bound}"))
    for name, value in healer.counters.as_dict().items():
        result.counters[name] = result.counters.get(name, 0) + value


@pytest.fixture(scope="module")
def standard_suite():
    """10 uniform-churn runs: n0=50, T=300, insert fraction 0.4."""
    result = SuiteResult()
    start = time.time()
    for seed in STANDARD_SEEDS:
        trace = gen_trace(Strategy("uniform", insert_fraction=0.4),
                          50, 300, seed, kappa=KAPPA)
        healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges,
                                     ExpanderConfig(kappa=KAPPA),
                                     random.Random(f"{seed}/engine"))
        drive(healer, trace.events, seed, len(trace.events), result)
    result.elapsed = time.time() - start
    return result


@pytest.fixture(scope="module")
def bridge_suite():
    """5 adaptive bridge-targeting runs: n0=40, T=200, insert fraction 0.5."""
    result = SuiteResult()
    start = time.time()
    strategy = Strategy("target-bridge", insert_fraction=0.5)
    for seed in BRIDGE_SEEDS:
        nodes, edges = initial_graph(40, random.Random(f"{seed}/trace"))
        healer = Healer.from_initial(nodes, edges, ExpanderConfig(kappa=KAPPA),
                                     random.Random(f"{seed}/engine"))
        rng = random.Random(f"{seed}/adversary")

        def online():
            for _ in range(200):
                yield next_event(strategy, healer, rng)

        drive(healer, online(), seed, 200, result)
    result.elapsed = time.time() - start
    return result


def test_edge_preservation(standard_suite):
    detail = (f"{len(STANDARD_SEEDS)} runs x 300 events, "
              f"{standard_suite.elapsed:.1f}s")
    ok = (not standard_suite.preservation_failures
          and standard_suite.elapsed < 60.0)
    conclude("edge-preservation", ok,
             detail if ok else f"{standard_suite.preservation_failures[:3]} "
                               f"elapsed={standard_suite.elapsed:.1f}s")


def test_degree_bound(standard_suite, bridge_suite):
    failures = standard_suite.degree_failures + bridge_suite.degree_failures
    conclude("degree-bound", not failures,
             f"uniform + bridge suites, kappa={KAPPA}"
             if not failures else str(failures[:3]))


def test_density_lower_bound(standard_suite):
    ok = not standard_suite.density_failures
    conclude("density-lower-bound", ok,
             f"{standard_suite.checkpoints} checkpoints x (100 samples + mandatory)"
             if ok else str(standard_suite.density_failures[:3]))


def test_density_upper_bounds(standard_suite):
    ok = not standard_suite.density_ub_failures
    conclude("density-upper-bounds", ok,
             f"{standard_suite.checkpoints} checkpoints, exact rationals"
             if ok else str(standard_suite.density_ub_failures[:3]))


def test_connectivity(standard_suite, bridge_suite):
    failures = (standard_suite.connectivity_failures
                + bridge_suite.connectivity_failures)
    conclude("connectivity", not failures,
             "baseline connected implies live connected, every event"
             if not failures else str(failures[:5]))


def test_expansion_small_traces():
    cfg = ExpanderConfig(kappa=KAPPA, exact_limit=EXPANSION_EXACT_LIMIT)
    failures = []
    evaluated = 0
    start = time.time()
    for seed in EXPANSION_SEEDS:
        trace = gen_trace(Strategy("uniform", insert_fraction=0.42),
                          10, 40, seed, kappa=KAPPA)
        healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges,
                                     cfg, random.Random(f"{seed}/engine"))
        for t, event in enumerate(trace.events, start=1):
            healer.handle_event(event)
            assert len(healer.shadow.alive) <= 16, (seed, t)
            assert len(healer.shadow.nodes) <= EXPANSION_EXACT_LIMIT, (seed, t)
            assert not coherence_errors(healer), (seed, t)
            if t % 10 == 0 or t == len(trace.events):
                if len(healer.shadow.alive) < 2:
                    continue
                live = expansion(healer.graph, EXPANSION_EXACT_LIMIT)
                base = expansion(healer.shadow, EXPANSION_EXACT_LIMIT)
                evaluated += 1
                if live < min(Fraction(1), base):
                    failures.append((seed, t, live, base))
    elapsed = time.time() - start
    ok = not failures and elapsed < 120.0 and evaluated >= 30
    conclude("expansion", ok,
             f"{evaluated} exact checkpoints on both graphs, {elapsed:.1f}s"
             if ok else f"failures={failures[:3]} elapsed={elapsed:.1f}s "
                        f"evaluated={evaluated}")


def test_stretch(standard_suite):
    ok = not standard_suite.stretch_failures
    conclude("stretch", ok,
             "max sampled ratio within 4*ceil(log2 n) at every checkpoint"
             if ok else str(standard_suite.stretch_failures[:3]))


def test_expander_builder():
    cfg = ExpanderConfig(kappa=KAPPA)
    problems = []
    for i in range(100):
        n = 8 + (i % 33)
        members = list(range(n))
        topo, _ = build_topology(members, cfg, random.Random(f"builder/{i}"))
        degrees = {v: 0 for v in members}
        seen = set()
        for u, v in topo.edges:
            if u == v or (u, v) in seen:
                problems.append((i, n, "not simple"))
            seen.add((u, v))
            degrees[u] += 1
            degrees[v] += 1
        if not all(KAPPA - 1 <= d <= KAPPA + 1 for d in degrees.values()):
            problems.append((i, n, "degree out of range"))
        adj = {v: set() for v in members}
        for u, v in topo.edges:
            adj[u].add(v)
            adj[v].add(u)
        reached = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for nb in adj[cur]:
                if nb not in reached:
                    reached.add(nb)
                    frontier.append(nb)
        if len(reached) != n:
            problems.append((i, n, "disconnected"))
        cert = certificate_oracle(members, topo.edges, cfg)
        if cert < Fraction(1):
            problems.append((i, n, f"certificate {cert}"))
    conclude("expander-builder", not problems,
             "100 builds, n in [8,40], simple + regular + connected + certified >= 1"
             if not problems else str(problems[:5]))


def test_metric_oracles():
    problems = []
    rng = random.Random(2024)
    from xhealsim.expander import expansion_exact
    for trial in range(50):
        n = rng.randint(2, 10)
        adj = random_adjacency(n, 0.5, rng)
        if expansion_exact(*index_arrays(adj), limit=10) != expansion_oracle(adj):
            problems.append(("expansion", trial))
    for n in range(2, 13):
        if abs(lambda2_of_adjacency(*index_arrays(complete_adjacency(n))) - n) > 1e-6:
            problems.append(("lambda2-complete", n))
    for n in range(3, 13):
        want = 2 - 2 * math.cos(2 * math.pi / n)
        if abs(lambda2_of_adjacency(*index_arrays(cycle_adjacency(n))) - want) > 1e-6:
            problems.append(("lambda2-cycle", n))
    for trial in range(20):
        n = rng.randint(2, 12)
        adj = random_adjacency(n, 0.45, rng)
        from helpers import graph_from_edges
        edges = sorted({edge_key(u, v) for u, nbrs in adj.items() for v in nbrs})
        g = graph_from_edges(range(n), edges)
        for mask in range(1, 1 << n):       # every non-empty subset
            subset = {i for i in range(n) if mask >> i & 1}
            if density(g, subset) != density_oracle(lambda u, v: v in g.neighbors(u), subset):
                problems.append(("density", trial, subset))
                break
    conclude("metric-oracles", not problems,
             "expansion vs enumerator, lambda2 closed forms, density exhaustive"
             if not problems else str(problems[:5]))


def test_coherence_and_determinism(standard_suite, bridge_suite, tmp_path):
    failures = list(standard_suite.coherence_failures
                    + bridge_suite.coherence_failures)
    trace_path = tmp_path / "det.jsonl"
    assert cli.main(["gen", "--strategy", "uniform", "--n0", "50", "--steps",
                     "300", "--seed", "0", "-o", str(trace_path)]) == 0
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(["run", "--trace", str(trace_path), "--seed", "0",
                     "-o", str(out1)]) == 0
    assert cli.main(["run", "--trace", str(trace_path), "--seed", "0",
                     "-o", str(out2)]) == 0
    if out1.read_bytes() != out2.read_bytes():
        failures.append("reports differ between identical runs")
    conclude("coherence-and-determinism", not failures,
             "registry reconstruction exact after every event; "
             "byte-identical reports"
             if not failures else str(failures[:3]))


def test_fault_sensitivity(tmp_path, capsys):
    trace_path = tmp_path / "fault.jsonl"
    assert cli.main(["gen", "--strategy", "uniform", "--n0", "30", "--steps",
                     "50", "--insert-fraction", "0.3", "--seed", "2",
                     "-o", str(trace_path)]) == 0
    clean = cli.main(["run", "--trace", str(trace_path), "--seed", "2",
                      "-o", str(tmp_path / "clean.csv")])
    codes = {}
    for fault in ("skip-heal", "drop-black-edge"):
        codes[fault] = cli.main(["run", "--trace", str(trace_path), "--seed",
                                 "2", "--fault", fault,
                                 "-o", str(tmp_path / f"{fault}.csv")])
    capsys.readouterr()
    ok = clean == 0 and all(code == 1 for code in codes.values())
    conclude("fault-sensitivity", ok,
             f"clean run exit 0, faults detected with exit 1: {codes}"
             if ok else f"clean={clean} fault codes={codes}")


def test_branch_coverage(standard_suite, bridge_suite):
    totals = dict(standard_suite.counters)
    for key, value in bridge_suite.counters.items():
        totals[key] = totals.get(key, 0) + value
    needed = ["branch_all_black", "branch_primary", "branch_secondary",
              "merges", "bridges_borrowed", "free_node_misses"]
    missing = [name for name in needed if totals.get(name, 0) < 1]
    conclude("branch-coverage", not missing,
             ", ".join(f"{name}={totals[name]}" for name in needed)
             if not missing else f"never exercised: {missing}")
