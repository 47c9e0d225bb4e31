"""Closed-loop replay of seeded uniform-churn traces through the xhealsim API.

Each trace is driven call by call in the order ``cli.run_trace`` uses,
with the same RNG derivations, so the CSV report is byte-identical to
the shipped driver's.  Unlike ``xhealsim run``, the loop times each call
separately: engine time (``Healer.handle_event``) and checkpoint time
(``metrics.evaluate``) are kept apart, and engine-only workloads skip
checkpoints altogether.  One event is applied only after the previous
one returns.

A run replays a fixed number of blocks of traces, set by the workload and
``--seconds`` alone, so its inputs, its operation count and its failure
count depend only on the seed and the run length, never on how fast the
host happened to be.  Automatic garbage collection is off while a trace
replays and while a setup is timed, as ``timeit`` does: the library makes
almost no cyclic garbage (a few dozen objects a trace), and a collector
pause of up to 30 ms otherwise lands on whichever call happens to
trigger it, usually a delete following a checkpoint's allocations.  The
collector runs fully between traces, outside the timings.

Operations and failures: every event, every checkpoint and the final
coherence check is one operation; engine-only traces add the final
edge-preservation and degree-bound checks.  An operation fails when it
reports a violation or raises, and a trace that raises counts every
operation it did not reach as failed.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from xhealsim import adversary, cli, engine, expander, metrics
from xhealsim.cli import RunConfig

from spans import Target, Tracer, has_ancestor, self_times

KAPPA = 6
INSERT_FRACTION = 0.4
SEED_STRIDE = 100_000  # trace seeds of one run: seed * SEED_STRIDE + k
TAIL_SUPPORT = 10  # samples a reported percentile needs beyond it
WARM_UP_STEPS = 100
SPAN_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    n0: int
    steps: int
    alpha_target: Fraction
    checkpoint_every: int | None  # None: engine only, no checkpoints
    traces_per_block: int
    # Blocks every run makes at least, enough deletes for a supported
    # repair p99.  The traced run makes exactly these, so its counts,
    # spans and the sim_digest repeat exactly for a seed.
    min_blocks: int
    # Nominal seconds per block on a 2-vCPU x86 VM; a run makes
    # --seconds / block_s blocks, so it lasts about --seconds there.
    block_s: float
    # Compare the first trace of a run with cli.run_trace byte for byte.
    reference_check: bool = False


# Why these three (see BENCHMARK.json for the one-line versions):
# * acceptance is the README / acceptance-suite shape.  Graphs stay small,
#   so all-pairs stretch, exact expansion, lambda2 and exact cloud
#   certificates all run and per-call overhead dominates; about 80% of the
#   time is in `metrics`.  A change that wins only at scale shows its
#   small-graph cost here.
# * churn-mid is engine only: `engine`, `expander` and `graph` do all the
#   work, clouds merge into ones of 150-200 members certified with dense
#   eigvalsh.  `metrics` does nothing, so a metrics-only change must read
#   unchanged.  At n0=2000 and 3000 events one trace takes 10-24 s on a
#   2-vCPU VM and a few giant clouds dominate it, too few and too uneven
#   samples for a steady median within one run.
# * audit-large is checkpoint bound (stretch BFS and density over large
#   subsets at 810-1000 alive, mostly 850+); the engine is a few percent
#   of the time, so an engine-only change must read unchanged.  700 events
#   with a checkpoint every 140 give six checkpoints and about 420 deletes
#   a trace.
# alpha_target=1/2 at scale: the default 1 raises RetriesExhausted on large
# clouds (ROADMAP item 1).  Failures are reported as measured; no seed is
# skipped.
# A block lasts 5-6.5 s: a shared host's speed swings by up to 1.5x on a
# scale of seconds, so setup_s, a median over blocks, takes each block's
# setups from seconds apart rather than from one instant.
WORKLOADS = {
    wl.name: wl for wl in (
        Workload("acceptance", n0=50, steps=300, alpha_target=Fraction(1),
                 checkpoint_every=10, traces_per_block=8, min_blocks=2,
                 block_s=6.0, reference_check=True),
        Workload("churn-mid", n0=500, steps=750, alpha_target=Fraction(1, 2),
                 checkpoint_every=None, traces_per_block=6, min_blocks=1,
                 block_s=6.5),
        Workload("audit-large", n0=1000, steps=700, alpha_target=Fraction(1, 2),
                 checkpoint_every=140, traces_per_block=1, min_blocks=4,
                 block_s=5.0),
    )
}

CHECKS = ("check_edge_preservation", "check_degree_bound", "check_density_lower",
          "check_density_upper", "check_connectivity", "expansion", "lambda2",
          "stretch")


def run_config(wl: Workload, trace_seed: int) -> RunConfig:
    return RunConfig(kappa=KAPPA, alpha_target=wl.alpha_target, seed=trace_seed,
                     checkpoint_every=wl.checkpoint_every or 1)


def make_trace_text(wl: Workload, trace_seed: int) -> str:
    strategy = adversary.Strategy("uniform", insert_fraction=INSERT_FRACTION)
    trace = adversary.gen_trace(strategy, wl.n0, wl.steps, trace_seed, kappa=KAPPA)
    return adversary.encode_trace(trace)


def checkpoint_times(wl: Workload) -> set[int]:
    if wl.checkpoint_every is None:
        return set()
    return {0, wl.steps} | set(range(wl.checkpoint_every, wl.steps + 1,
                                     wl.checkpoint_every))


def setup(text: str, cfg: RunConfig, fault: str | None = None
          ) -> tuple[adversary.Trace, engine.Healer]:
    trace = adversary.decode_trace(text)
    adversary.validate_trace(trace)
    healer = engine.Healer.from_initial(trace.initial_nodes, trace.initial_edges,
                                        cfg.expander(),
                                        random.Random(f"{cfg.seed}/engine"),
                                        fault=fault)
    return trace, healer


@dataclass
class TraceResult:
    seed: int
    setup_s: float = 0.0
    wall_s: float = 0.0
    insert_s: list[float] = field(default_factory=list)
    delete_s: list[float] = field(default_factory=list)
    checkpoint_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    csv: str = ""
    counters: dict[str, int] = field(default_factory=dict)
    final_edges: int = 0
    final_alive: int = 0
    crash: str | None = None
    violations: list[str] = field(default_factory=list)  # why operations failed
    problems: list[str] = field(default_factory=list)  # output inconsistencies

    def digest_part(self) -> str:
        return (self.csv + json.dumps(self.counters, sort_keys=True)
                + (f"crash:{self.crash}" if self.crash else ""))


def replay_trace(wl: Workload, text: str, trace_seed: int, tracer: Tracer,
                 fault: str | None = None) -> TraceResult:
    """Replay one trace text; times the calls, counts operations."""
    cfg = run_config(wl, trace_seed)
    ckpts = checkpoint_times(wl)
    res = TraceResult(trace_seed)
    res.attempted = wl.steps + len(ckpts) + 1 + (2 if not ckpts else 0)
    done = 0
    reports = []
    healer = None

    def checkpoint(t: int) -> None:
        start = perf_counter()
        rep = metrics.evaluate(healer, t, cfg.seed,
                               density_samples=cfg.density_samples,
                               stretch_pairs=cfg.stretch_pairs,
                               stretch_constant=cfg.stretch_constant,
                               exact_limit=cfg.exact_limit)
        res.checkpoint_s.append(perf_counter() - start)
        reports.append(rep)
        res.failed += bool(rep.violation_detail)
        res.violations.extend(f"t={t} {v}" for v in rep.violation_detail)

    try:
        tracer.request = (trace_seed, 0)
        start = perf_counter()
        trace, healer = setup(text, cfg, fault)
        res.setup_s = perf_counter() - start
        if 0 in ckpts:
            checkpoint(0)
            done += 1
        for t, event in enumerate(trace.events, start=1):
            tracer.request = (trace_seed, t)
            t0 = perf_counter()
            healer.handle_event(event)
            (res.insert_s if event.is_insert else res.delete_s).append(perf_counter() - t0)
            done += 1
            if t in ckpts:
                checkpoint(t)
                done += 1
        coherence = engine.coherence_errors(healer)
        res.failed += bool(coherence)
        res.violations.extend(f"coherence: {err}" for err in coherence)
        done += 1
        res.csv = cli.render_report_csv(reports)
        snapshot = json.dumps(cli.snapshot_state(healer, trace_seed),
                              sort_keys=True, indent=0)
        res.wall_s = perf_counter() - start
    except Exception as exc:  # a crashed trace is measured, not fatal
        res.wall_s = perf_counter() - start
        res.crash = f"{type(exc).__name__}: {exc}"
        res.failed += res.attempted - done
        res.violations.append(f"crash after {done} operations: {res.crash}")
        traceback.print_exc(file=sys.stderr)
        return res

    if not ckpts:  # untimed end-of-trace checks for engine-only traces
        preserved, missing = metrics.check_edge_preservation(healer.graph, healer.shadow)
        _, degree_viols = metrics.check_degree_bound(healer.graph, healer.shadow, KAPPA)
        res.failed += (not preserved) + bool(degree_viols)
        res.violations.extend(f"preservation: {m}" for m in missing)
        res.violations.extend(f"degree: node {v} slack {sl}" for v, sl in degree_viols)
    res.counters = healer.counters.as_dict()
    res.final_edges = healer.graph.edge_count()
    res.final_alive = len(healer.shadow.alive)
    res.problems = consistency_problems(res, trace, reports, json.loads(snapshot))
    return res


def consistency_problems(res: TraceResult, trace: adversary.Trace,
                         reports: list, snapshot: dict) -> list[str]:
    """Cross-checks of the program's own outputs against each other."""
    c = res.counters
    problems = []
    if c["events"] != len(trace.events) or c["inserts"] + c["deletes"] != c["events"]:
        problems.append(f"seed {res.seed}: event counters {c} disagree with the trace")
    if reports and reports[-1].repair_counters != c:
        problems.append(f"seed {res.seed}: final CSV row counters differ from the healer's")
    if snapshot["counters"] != c or len(snapshot["nodes"]) != res.final_alive:
        problems.append(f"seed {res.seed}: snapshot disagrees with the healer")
    return problems


def trace_seeds(wl: Workload, seed: int, block: int) -> list[int]:
    first = seed * SEED_STRIDE + block * wl.traces_per_block
    return list(range(first, first + wl.traces_per_block))


@dataclass
class Block:
    results: list[TraceResult]
    # per trace: the replay's own setup plus the extra ones made around it
    setups: list[list[float]]

    @property
    def run_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def setup_s(self) -> float:
        return sum(statistics.median(times) for times in self.setups)


def without_gc(fn, *args):
    """Call *fn* after a full collection, with automatic collection off."""
    gc.collect()
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()


def timed_setup(text: str, cfg: RunConfig) -> float:
    start = perf_counter()
    setup(text, cfg)
    return perf_counter() - start


def run_block(wl: Workload, seed: int, block: int, tracer: Tracer,
              extra_setups: bool = False) -> Block:
    """Replay the block's traces.  With *extra_setups*, each trace is also
    set up once before and once after its replay, so the block's setup
    time averages over seconds of host speed, not one instant."""
    blk = Block([], [])
    for s in trace_seeds(wl, seed, block):
        text = make_trace_text(wl, s)
        extra = []
        if extra_setups:
            extra.append(without_gc(timed_setup, text, run_config(wl, s)))
        blk.results.append(without_gc(replay_trace, wl, text, s, tracer))
        if extra_setups:
            extra.append(without_gc(timed_setup, text, run_config(wl, s)))
        blk.setups.append([blk.results[-1].setup_s] + extra)
    return blk


def reference_problems(wl: Workload, result: TraceResult) -> list[str]:
    """The library-driven loop must reproduce cli.run_trace's CSV."""
    cfg = run_config(wl, result.seed)
    trace = adversary.decode_trace(make_trace_text(wl, result.seed))
    _, reports = cli.run_trace(trace, cfg)
    if cli.render_report_csv(reports) != result.csv:
        return [f"seed {result.seed}: CSV differs from cli.run_trace"]
    return []


def sim_digest(blocks: list[Block]) -> str:
    h = hashlib.sha256()
    for block in blocks:
        for r in block.results:
            h.update(r.digest_part().encode())
    return h.hexdigest()


def tail(values: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile, or None when fewer than TAIL_SUPPORT
    samples lie beyond it."""
    xs = sorted(values)
    rank = math.ceil(q * len(xs))
    if rank < 1 or len(xs) - rank < TAIL_SUPPORT:
        return None
    return xs[rank - 1]


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def _ms(x: float | None) -> float | None:
    return None if x is None else x * 1e3


def end_to_end(blocks: list[Block]) -> tuple[dict, dict]:
    """Gated metrics (defined on every workload) and printed-only ones."""
    results = [r for b in blocks for r in b.results]
    deletes = [x for r in results for x in r.delete_s]
    ckpts = [x for r in results for x in r.checkpoint_s]
    attempted = sum(r.attempted for r in results)
    events = sum(len(r.insert_s) + len(r.delete_s) for r in results)
    busy = sum(sum(r.insert_s) + sum(r.delete_s) for r in results)
    # name: (value, unit, sample count).  run_s and events_per_s are totals
    # over the run's fixed set of traces: the cost of a trace varies by a
    # third from one to the next, and a total averages that out better than
    # a median of a few block sums.  setup_s is a median over blocks, each
    # block's traces set up three times and the middle time kept.
    measured = {
        "setup_s": (median([b.setup_s for b in blocks]), "s", len(blocks)),
        "run_s": (sum(b.run_s for b in blocks), "s", len(results)),
        "events_per_s": (events / busy if busy else None, "1/s", events),
        "repair_p99_ms": (_ms(tail(deletes, 0.99)), "ms", len(deletes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        # Printed, not gated: no checkpoints on churn-mid, too few for p95
        # on audit-large, failed_share is 0 on clean runs, and the delete
        # p50 of acceptance sits on the cliff between clique and expander
        # rebuilds, so it swings with the trace mix more than a bound allows.
        "repair_p50_ms": (_ms(median(deletes)), "ms", len(deletes)),
        "checkpoint_p50_ms": (_ms(median(ckpts)), "ms", len(ckpts)),
        "checkpoint_p95_ms": (_ms(tail(ckpts, 0.95)), "ms", len(ckpts)),
        "failed_share": (sum(r.failed for r in results) / attempted, "share", attempted),
    }
    for name, (value, unit, n) in measured.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"# {name} = {shown} {unit} (n={n})")
    metrics = {name: (value, unit) for name, (value, unit, _) in measured.items()}
    gated = {k: metrics.pop(k) for k in ("setup_s", "run_s", "events_per_s",
                                         "repair_p99_ms", "peak_rss_mb")}
    return gated, metrics


def trace_targets() -> list[Target]:
    def members(args, _result):
        return len(args[0])

    targets = [
        Target(adversary, "decode_trace", "adversary.decode_trace"),
        Target(adversary, "validate_trace", "adversary.validate_trace"),
        Target(engine.Healer, "from_initial", "engine.from_initial"),
        Target(engine.Healer, "handle_event",
               lambda args: "engine.insert" if args[1].is_insert else "engine.delete"),
        Target(engine, "coherence_errors", "engine.coherence"),
        # the engine calls build_topology through its own module namespace
        Target(engine, "build_topology", "expander.build_topology", size=members),
        Target(metrics, "lambda2_of_adjacency", "metrics.lambda2_of_adjacency"),
        Target(expander, "expansion_exact", "expander.expansion_exact"),
        Target(metrics, "evaluate", "metrics.evaluate"),
        Target(metrics, "bfs_distances", "metrics.bfs_distances"),
        Target(cli, "render_report_csv", "cli.render_report_csv"),
        Target(cli, "snapshot_state", "cli.snapshot_state"),
    ]
    sizes = {"check_density_lower": lambda args, _r: len(args[2]),
             "stretch": lambda _args, result: result[2]}
    targets += [Target(metrics, name, f"metrics.{name}", size=sizes.get(name))
                for name in CHECKS]
    return targets


def per_layer(tracer: Tracer, blocks: list[Block], wl: Workload) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    time_of: dict[str, float] = {}
    count_of: dict[str, int] = {}
    for s in spans:
        time_of[s.name] = time_of.get(s.name, 0.0) + s.duration
        count_of[s.name] = count_of.get(s.name, 0) + 1
    build = "expander.build_topology"
    builds = [i for i, s in enumerate(spans) if s.name == build]
    under_build = {name: [i for i, s in enumerate(spans)
                          if s.name == name and has_ancestor(spans, i, build)]
                   for name in ("metrics.lambda2_of_adjacency", "expander.expansion_exact")}
    certificates = len(under_build["metrics.lambda2_of_adjacency"])
    sampled = sum(spans[i].size > KAPPA + 1 for i in builds)
    exact_limit = run_config(wl, 0).exact_limit

    results = [r for b in blocks for r in b.results]
    counters = {k: sum(r.counters.get(k, 0) for r in results)
                for k in engine.RepairCounters().as_dict()}
    created, reused = counters["edges_created"], counters["edges_reused"]
    deleted, deletes = counters["edges_deleted"], counters["deletes"]

    out: dict[str, tuple[float, str]] = {}
    for name in ("adversary.decode_trace", "adversary.validate_trace",
                 "engine.from_initial", "engine.insert", "engine.delete",
                 "engine.coherence", build):
        out[f"{name}_s"] = (time_of.get(name, 0.0), "s")
    for key in ("branch_all_black", "branch_primary", "branch_secondary",
                "clouds_built", "clouds_rebuilt", "merges", "bridges_borrowed",
                "free_node_misses"):
        out[f"engine.{key}"] = (counters[key], "count")
    out["graph.edges_created"] = (created, "count")
    out["graph.edges_reused"] = (reused, "count")
    out["graph.edges_deleted"] = (deleted, "count")
    out["graph.final_edges"] = (sum(r.final_edges for r in results), "count")
    out["graph.final_alive"] = (sum(r.final_alive for r in results), "count")
    out["graph.edge_churn_per_delete"] = (
        (created + deleted) / deletes if deletes else 0.0, "edges/delete")
    out["graph.reuse_ratio"] = (reused / (created + reused) if created + reused else 0.0,
                                "ratio")
    out["expander.sample_s"] = (sum(selfs[i] for i in builds), "s")
    out["expander.eig_s"] = (sum(spans[i].duration for i in
                                 under_build["metrics.lambda2_of_adjacency"]), "s")
    out["expander.expansion_exact_s"] = (sum(spans[i].duration for i in
                                             under_build["expander.expansion_exact"]), "s")
    out["expander.builds"] = (len(builds), "count")
    out["expander.spectral_builds"] = (sum(spans[i].size > exact_limit for i in builds),
                                       "count")
    out["expander.certificates_per_build"] = (
        certificates / sampled if sampled else 0.0, "certs/build")
    out["expander.max_cloud_size"] = (max((spans[i].size for i in builds), default=0),
                                      "nodes")
    out["metrics.evaluate_s"] = (time_of.get("metrics.evaluate", 0.0), "s")
    for name in CHECKS:
        out[f"metrics.{name}_s"] = (time_of.get(f"metrics.{name}", 0.0), "s")
    out["metrics.density_subsets"] = (
        sum(s.size for s in spans if s.name == "metrics.check_density_lower"), "count")
    out["metrics.bfs_calls"] = (count_of.get("metrics.bfs_distances", 0), "count")
    out["metrics.stretch_pairs_evaluated"] = (
        sum(s.size for s in spans if s.name == "metrics.stretch"), "count")
    out["cli.render_report_csv_s"] = (time_of.get("cli.render_report_csv", 0.0), "s")
    out["cli.snapshot_s"] = (time_of.get("cli.snapshot_state", 0.0), "s")
    return out


def overhead(plain: list[Block], traced: list[Block]) -> dict:
    """Tracing overhead: traced minus untraced run_s, same inputs."""
    base = sum(b.run_s for b in plain)
    extra = sum(b.run_s for b in traced) - base
    return {"trace.overhead_s": (extra, "s"), "trace.overhead_share": (extra / base, "ratio")}


def print_violations(blocks: list[Block], limit: int = 10) -> None:
    found = [f"seed {r.seed} {v}" for b in blocks for r in b.results for v in r.violations]
    for line in found[:limit]:
        print(f"# FAILED {line}")
    if len(found) > limit:
        print(f"# ... and {len(found) - limit} more violation lines")


def totals(blocks: list[Block]) -> tuple[int, int, list[str]]:
    results = [r for b in blocks for r in b.results]
    return (sum(r.attempted for r in results), sum(r.failed for r in results),
            [p for r in results for p in r.problems])


def warm_up(wl: Workload, seed: int) -> None:
    """One untimed replay of a shortened trace of the workload: first-call
    costs, and a CPU that was idle.  Being the same kind of trace, it does
    not raise the peak RSS above what the workload reaches by itself."""
    short = replace(wl, steps=min(wl.steps, WARM_UP_STEPS))
    first = trace_seeds(wl, seed, 0)[0]
    without_gc(replay_trace, short, make_trace_text(short, first), first, Tracer())


def blocks_for(wl: Workload, seconds: int) -> int:
    return max(wl.min_blocks, round(seconds / wl.block_s))


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    wl = WORKLOADS[workload]
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {wl.name}: n0={wl.n0} steps={wl.steps} "
          f"alpha_target={wl.alpha_target} checkpoint_every={wl.checkpoint_every} "
          f"traces/block={wl.traces_per_block} seed={seed} closed loop, 1 client")
    if traced:
        return run_traced(wl, seed)
    warm_up(wl, seed)
    start = perf_counter()
    blocks = [run_block(wl, seed, b, Tracer(), extra_setups=True)
              for b in range(blocks_for(wl, seconds))]
    attempted, failed, problems = totals(blocks)
    print_violations(blocks)
    if wl.reference_check:
        problems += reference_problems(wl, blocks[0].results[0])
    print(f"# blocks {len(blocks)}, traces {sum(len(b.results) for b in blocks)}, "
          f"measured {perf_counter() - start:.1f} s; run_s per block: "
          + " ".join(f"{b.run_s:.3f}" for b in blocks))
    print(f"# sim_digest {sim_digest(blocks[:wl.min_blocks])} "
          f"(first {wl.min_blocks} block(s))")
    for p in problems:
        print(f"# INCORRECT {p}")
    gated, _ = end_to_end(blocks)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}}


def run_traced(wl: Workload, seed: int) -> dict:
    """Replay each of the workload's fixed blocks untraced, then traced."""
    warm_up(wl, seed)
    tracer = Tracer()
    plain, traced = [], []
    for b in range(wl.min_blocks):
        plain.append(run_block(wl, seed, b, Tracer()))
        tracer.install(trace_targets())
        try:
            traced.append(run_block(wl, seed, b, tracer))
        finally:
            tracer.uninstall()
    digest, digest_traced = sim_digest(plain), sim_digest(traced)
    print(f"# sim_digest {digest} (untraced) {digest_traced} (traced)")
    layers = per_layer(tracer, traced, wl) | overhead(plain, traced)
    SPAN_DIR.mkdir(exist_ok=True)
    span_path = SPAN_DIR / f"spans-{wl.name}-{seed}.jsonl"
    tracer.write_jsonl(span_path)
    print(f"# {len(tracer.spans)} spans written to {span_path.name}")
    for name, (value, unit) in layers.items():
        print(f"# {name} = {value:.6g} {unit}")
    attempted, failed, problems = totals(plain + traced)
    print_violations(plain)
    if digest != digest_traced:
        problems.append("tracing changed the simulation (sim_digest differs)")
    for p in problems:
        print(f"# INCORRECT {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}
