"""Command-line front end.

Subcommands:

* ``gen``     materialize a seeded adversarial trace file
* ``run``     replay a trace (or drive an adaptive strategy online)
              through the healer, verifying every bound at checkpoints
* ``verify``  re-check a state snapshot's internal coherence, each
              expander cloud's design, and its metrics
* ``report``  summarize one or more CSV report files

Exit codes: 0 all checks passed, 1 an invariant was violated, 2 input
refused where it is parsed or validated (``graph.InputError``) or an
I/O error, 3 a cloud could not be certified within its retries: the
failed repair plan is dropped, so the healer is as it was before the
failing event, and each later delete draws what it would have drawn had
that event never been tried; 4 any other exception, an internal error.
``exit_line`` maps each exception to its code and line.  ``run`` checks
the input its seeds share before any seed runs, and prints an error
there once, unprefixed; what a seed raises ends that seed alone, after
``seed N:``, naming its ``event t deletes node v`` or ``checkpoint at
t=...``.  ``run --seeds`` runs every seed and exits with the worst code.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import io
import json
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from .adversary import (
    Event,
    Strategy,
    Trace,
    check_run_length,
    decode_trace,
    encode_trace,
    gen_trace,
    initial_graph,
    node_id_rows,
    node_ids,
    online_events,
    run_stream,
    validate_trace,
)
from .engine import (
    FAULTS,
    Cloud,
    CloudKind,
    Healer,
    RepairCounters,
    coherence_errors,
)
from .expander import (
    CloudTopology,
    ExpanderConfig,
    RetriesExhausted,
    topology_error,
)
from .graph import ColoredGraph, GraphError, InputError, ShadowGraph, edge_key
from .metrics import MetricsReport, evaluate

SNAPSHOT_VERSION = 6

# one column per scalar report field, then one per repair counter
_METRIC_COLUMNS = [f.name for f in fields(MetricsReport)
                   if f.name not in ("repair_counters", "violation_detail")]
_COUNTER_COLUMNS = [f.name for f in fields(RepairCounters)]
REPORT_COLUMNS = _METRIC_COLUMNS + _COUNTER_COLUMNS


@dataclass(frozen=True)
class RunConfig(ExpanderConfig):
    seed: int = 0
    checkpoint_every: int = 10
    density_samples: int = 100
    stretch_pairs: int = 200
    stretch_constant: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("checkpoint_every", "density_samples", "stretch_pairs",
                     "stretch_constant"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")

    def expander(self) -> ExpanderConfig:
        return ExpanderConfig(**{f.name: getattr(self, f.name) for f in fields(ExpanderConfig)})


# the RunConfig fields a checkpoint reads besides the expander's, which a
# snapshot records so that verify re-checks it as run did
CHECKPOINT_SETTINGS = ("density_samples", "stretch_pairs", "stretch_constant")


def _fmt_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fmt_cell(value) -> str:
    if value is None:
        return "skipped"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return _fmt_fraction(value)
    if isinstance(value, float):
        return f"{value:.9f}"
    return str(value)


def report_row(report: MetricsReport) -> list[str]:
    values = [getattr(report, name) for name in _METRIC_COLUMNS]
    values.extend(report.repair_counters[name] for name in _COUNTER_COLUMNS)
    return [_fmt_cell(v) for v in values]


def render_report_csv(reports: list[MetricsReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for rep in reports:
        writer.writerow(report_row(rep))
    return buf.getvalue()


# -- simulation drivers ----------------------------------------------------


def applied(healer: Healer, events: Iterable[Event]) -> Iterator[int]:
    """The run's one event loop: yield the t *healer* is at, its event
    count, then apply each event and yield its t.  A hook is the caller's
    loop body, run at t before the next event is drawn; an event that
    raises ends the caller's loop."""
    yield healer.counters.events
    for event in events:
        healer.handle_event(event)
        yield healer.counters.events


def checkpoint_due(t: int, total: int, every: int) -> bool:
    """Every *every* events from t=0, and after the last of *total*; so a
    resumed run checkpoints at its cut as the uninterrupted run did."""
    return t % every == 0 or t == total


def checkpoint_reports(healer: Healer, events: Iterable[Event], total: int, cfg: RunConfig
                       ) -> list[MetricsReport]:
    """The run's report at each checkpoint due from *healer*'s t on."""
    return [_checkpoint(healer, t, cfg) for t in applied(healer, events)
            if checkpoint_due(t, total, cfg.checkpoint_every)]


def trace_healer(trace: Trace, cfg: RunConfig, fault: str | None = None) -> Healer:
    """The healer a replay of the checked *trace* starts from; an initial
    graph that ``graph.initial_views`` refuses raises InputError."""
    validate_trace(trace)
    try:
        return Healer.from_initial(trace.initial_nodes, trace.initial_edges, cfg.expander(),
                                   run_stream(cfg.seed, "engine"), fault=fault)
    except GraphError as exc:
        raise InputError(str(exc)) from exc


def run_trace(trace: Trace, cfg: RunConfig, fault: str | None = None
              ) -> tuple[Healer, list[MetricsReport]]:
    """Replay a trace, evaluating all metrics at every checkpoint."""
    healer = trace_healer(trace, cfg, fault)
    return healer, checkpoint_reports(healer, trace.events, len(trace.events), cfg)


def run_adaptive(strategy: Strategy, n0: int, steps: int, cfg: RunConfig,
                 fault: str | None = None
                 ) -> tuple[Healer, list[MetricsReport], Trace]:
    """Drive a strategy online for a run length ``check_run_length``
    passed, recording the trace."""
    params = {"insert_fraction": strategy.insert_fraction,
              "insert_degree": strategy.insert_degree, "n0": n0, "steps": steps}
    trace = Trace(cfg.kappa, cfg.seed, strategy.name, params,
                  *initial_graph(n0, run_stream(cfg.seed, "trace")))
    healer = trace_healer(trace, cfg, fault)
    events = online_events(strategy, healer, steps, run_stream(cfg.seed, "adversary"),
                           trace.events)
    return healer, checkpoint_reports(healer, events, steps, cfg), trace


def replay(trace: Trace, cfg: RunConfig) -> Healer:
    """The healer after every event of *trace*, with no checkpoint."""
    healer = trace_healer(trace, cfg)
    for _ in applied(healer, trace.events):
        pass
    return healer


def _checkpoint(healer: Healer, t: int, cfg: RunConfig) -> MetricsReport:
    try:
        return evaluate(healer, t, cfg.seed,
                        density_samples=cfg.density_samples,
                        stretch_pairs=cfg.stretch_pairs,
                        stretch_constant=cfg.stretch_constant,
                        exact_limit=cfg.exact_limit)
    except Exception as exc:
        exc.add_note(f"checkpoint at t={t}")
        raise


# -- snapshots --------------------------------------------------------------


def snapshot_state(healer: Healer, seed: int, cfg: RunConfig | None = None) -> dict:
    """Versioned JSON-ready dump of the full healer state, with the
    checkpoint settings of *cfg* (``RunConfig``'s defaults if None)."""
    checkpoint = cfg if cfg is not None else RunConfig()
    clouds = []
    for cid in sorted(healer.registry.clouds):
        cloud = healer.registry.clouds[cid]
        clouds.append({
            "id": cid,
            "kind": cloud.kind.value,
            "members": sorted(cloud.members),
            "topology": {
                "edges": [[u, v] for u, v in sorted(cloud.topology.edges)],
                "certified": _fmt_fraction(cloud.topology.certified_expansion),
            },
        })
    lost = sorted([u, v] for u, v in healer.stripped_black if {u, v} <= healer.shadow.alive)
    return {
        "v": SNAPSHOT_VERSION,
        "seed": seed,
        "config": {name: _fmt_fraction(value) if isinstance(value, Fraction) else value
                   for name, value in asdict(healer.cfg).items()},
        "checkpoint": {name: getattr(checkpoint, name) for name in CHECKPOINT_SETTINGS},
        "next_cloud_id": healer.next_cloud_id,
        "nodes": sorted(healer.graph.node_set),
        "shadow": {
            "nodes": sorted(healer.shadow.nodes),
            "edges": sorted([u, v] for u, v in healer.shadow.edges),
            "alive": sorted(healer.shadow.alive),
        },
        "clouds": clouds,
        "bridges": sorted([f, c, node] for node, (f, c) in healer.registry.bridges.items()),
        "last_black_neighbors": sorted(healer.last_black_neighbors),
        "counters": healer.counters.as_dict(),
    } | ({"lost_black_edges": lost} if lost else {})


def _snapshot_count(value: object, what: str) -> int:
    """*value* if it is a non-negative JSON integer as written, never
    coerced: ``node_ids``' rule for one id or count."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} {value!r} is not a non-negative integer")
    return value


def _snapshot_fraction(value: object, what: str) -> Fraction:
    """*value* if it is a non-negative ``p/q`` string, the form
    ``_fmt_fraction`` writes; a float, a sign or a zero q is refused."""
    if type(value) is not str or not re.fullmatch(r"[0-9]+/0*[1-9][0-9]*", value):
        raise ValueError(f"{what} {value!r} is not a non-negative fraction p/q")
    return Fraction(value)


def _snapshot_keys(value: object, keys: set[str], what: str) -> dict:
    """*value* if it is a JSON object with no key outside *keys*; a key
    the loader would not read is refused, not dropped."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not a JSON object")
    unknown = value.keys() - keys
    if unknown:
        raise ValueError(f"{what} has unknown keys {sorted(unknown)}")
    return value


def load_snapshot(data: dict) -> tuple[Healer, RunConfig]:
    """Rebuild a Healer from a snapshot dict, with the run settings a
    checkpoint of it needs: seed, expander config and checkpoint
    settings.  Raises ValueError on structural problems, among them an
    id or count that is not a non-negative JSON integer as written
    (checked as ``decode_trace`` checks node ids, with no coercion), a
    checkpoint setting that is not positive, a certificate that is not
    a non-negative fraction string, an alive id, cloud id, bridge key,
    bridge holder, topology edge or lost black edge listed twice, which
    a set or a dict would drop unseen, and a key of an object that it
    does not read; semantic damage surfaces in coherence checks.  The
    live graph is derived: each baseline edge between live alive nodes
    has one owner unless ``lost_black_edges`` lists it (a listed edge
    must be one), and each cloud adds one to each of its topology edges
    between live nodes; one that leaves them is left for coherence."""
    if not isinstance(data, dict):
        raise ValueError("snapshot is not a JSON object")
    if data.get("v") != SNAPSHOT_VERSION:
        raise ValueError(f"snapshot version {data.get('v')!r} not supported")
    _snapshot_keys(data, {"v", "seed", "config", "checkpoint", "next_cloud_id", "nodes",
                          "shadow", "clouds", "bridges", "last_black_neighbors", "counters",
                          "lost_black_edges"}, "snapshot")
    config = _snapshot_keys(data["config"], {f.name for f in fields(ExpanderConfig)},
                            "snapshot config")
    cfg = ExpanderConfig(**{
        f.name: (_snapshot_fraction if type(f.default) is Fraction else _snapshot_count)(
            config[f.name], f"config {f.name}")
        for f in fields(ExpanderConfig)})
    seed = data["seed"]
    if type(seed) is not int:  # run takes any integer seed, negative too
        raise ValueError(f"seed {seed!r} is not an integer")
    shadow = _snapshot_keys(data["shadow"], {"nodes", "edges", "alive"}, "snapshot shadow")
    baseline = ShadowGraph.from_edges(node_ids(shadow["nodes"], "shadow nodes"),
                                      node_id_rows(shadow["edges"], 2, "shadow edges"))
    alive = node_ids(shadow["alive"], "shadow alive")
    if len(set(alive)) < len(alive):
        raise ValueError("shadow alive lists a node twice")
    for node in sorted(baseline.nodes - set(alive)):
        baseline.mark_dead(node)
    # an alive id the baseline never recorded has no neighbor to count it
    # dead; it is kept for the coherence check to report
    baseline.alive.update(set(alive) - baseline.nodes)
    nodes = node_ids(data["nodes"], "nodes")
    live = set(nodes)
    owned = baseline.edges_within(live & baseline.alive)
    rows = node_id_rows(data.get("lost_black_edges", []), 2, "lost_black_edges")
    lost = {edge_key(u, v) for u, v in rows}
    if len(lost) < len(rows) or not lost <= owned:
        raise ValueError("lost_black_edges lists an edge twice or one with no black owner")
    graph = ColoredGraph.from_edges(nodes, owned - lost)
    healer = Healer(graph, baseline, cfg, run_stream(seed, "engine"))
    healer.stripped_black = lost
    for entry in data["clouds"]:
        _snapshot_keys(entry, {"id", "kind", "members", "topology"}, "snapshot cloud")
        cid = _snapshot_count(entry["id"], "cloud id")
        topo = _snapshot_keys(entry["topology"], {"edges", "certified"}, f"cloud {cid} topology")
        if cid in healer.registry.clouds:
            raise ValueError(f"cloud {cid} is listed twice")
        keys = [edge_key(u, v) for u, v in node_id_rows(topo["edges"], 2, f"cloud {cid} edges")]
        edges = frozenset(keys)
        if len(edges) < len(keys):
            raise ValueError(f"cloud {cid} topology lists an edge twice")
        topology = CloudTopology(edges, _snapshot_fraction(topo["certified"],
                                                           f"cloud {cid} certificate"))
        cloud = Cloud(CloudKind(entry["kind"]),
                      frozenset(node_ids(entry["members"], f"cloud {cid} members")), topology)
        healer.registry.store(cid, cloud)
        graph.reown([], [[e for e in edges if e[0] in live and e[1] in live]])
    listed: set[tuple[int, int]] = set()
    for f, c, node in node_id_rows(data["bridges"], 3, "bridges"):
        if (f, c) in listed:
            raise ValueError(f"bridge entry ({f},{c}) is listed twice")
        listed.add((f, c))
        healer.registry.bridge(f, c, node)  # raises for a node listed twice
    healer.next_cloud_id = _snapshot_count(data["next_cloud_id"], "next_cloud_id")
    healer.last_black_neighbors = set(node_ids(data["last_black_neighbors"],
                                               "last_black_neighbors"))
    counters = data["counters"]
    if not isinstance(counters, dict):
        raise ValueError("snapshot counters are not a JSON object")
    names = set(healer.counters.as_dict())
    if set(counters) != names:
        raise ValueError(f"snapshot counters: unknown {sorted(set(counters) - names)}, "
                         f"missing {sorted(names - set(counters))}")
    for name, value in counters.items():
        setattr(healer.counters, name, _snapshot_count(value, f"counter {name}"))
    settings = _snapshot_keys(data["checkpoint"], set(CHECKPOINT_SETTINGS), "snapshot checkpoint")
    checkpoint = {name: _snapshot_count(settings[name], f"checkpoint {name}")
                  for name in CHECKPOINT_SETTINGS}
    return healer, RunConfig(seed=seed, **asdict(cfg), **checkpoint)


# -- subcommands -------------------------------------------------------------


def _flag_fraction(text: str) -> Fraction:
    """``Fraction(text)`` for a flag; a zero denominator is refused as a
    malformed fraction is, as a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _flag_seeds(text: str) -> list[int]:
    """The comma-separated integers of ``--seeds``; an empty item is a usage error."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed list: {text!r}") from None


def _add_run_config_flags(parser: argparse.ArgumentParser) -> None:
    """One ``--flag`` per RunConfig field, typed and defaulted by it."""
    for f in fields(RunConfig):
        kind = type(f.default)
        parser.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                            type=_flag_fraction if kind is Fraction else kind,
                            metavar="P/Q" if kind is Fraction else None)


def cmd_gen(args: argparse.Namespace) -> int:
    ExpanderConfig(kappa=args.kappa)  # refuses a kappa no healer can use
    strategy = Strategy(args.strategy, insert_fraction=args.insert_fraction,
                        insert_degree=args.insert_degree)
    trace = gen_trace(strategy, args.n0, args.steps, args.seed,
                      kappa=args.kappa, extra_edge_frac=args.extra_edge_frac)
    text = encode_trace(trace)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def read_trace(path: str, kappa: int, source: str) -> Trace:
    """The trace at *path*, refused unless its header kappa is *kappa*,
    which *source* names: ``run``'s ``--kappa`` or the snapshot's."""
    trace = decode_trace(Path(path).read_text(encoding="utf-8"))
    if trace.kappa != kappa:
        raise InputError(f"trace header kappa {trace.kappa} differs from {source} {kappa}")
    return trace


def exit_line(exc: Exception) -> tuple[int, str]:
    """The exit code for *exc* and its line, the notes naming where it
    happened in front: 3 for a cloud that could not be certified, 2 for
    input, I/O or a file that is not UTF-8, else 4, an internal error."""
    where = "".join(f"{note}: " for note in getattr(exc, "__notes__", ()))
    if isinstance(exc, RetriesExhausted):
        return 3, f"error: {where}{exc}"
    if isinstance(exc, (InputError, OSError, UnicodeDecodeError)):
        return 2, f"error: {where}{exc}"
    return 4, f"internal error: {where}{type(exc).__name__}: {exc}"


def _run_one_seed(args: argparse.Namespace, source: Trace | Strategy, cfg: RunConfig
                  ) -> tuple[int, list[str], str]:
    """Run the seed of *cfg* from the checked trace or strategy *source*:
    its exit code, its lines for stderr, and its CSV when ``-o -`` sends
    that to stdout (else "").  Whatever the seed raises ends it with
    ``exit_line``'s code and line, and one raised first writes no file."""
    try:
        if args.trace:
            recorded = source
            healer, reports = run_trace(recorded, cfg, fault=args.fault)
        else:
            healer, reports, recorded = run_adaptive(source, args.n0, args.steps,
                                                     cfg, fault=args.fault)
        if args.record:
            Path(_expand_seed(args.record, cfg.seed)).write_text(
                encode_trace(recorded), encoding="utf-8")
        if args.snapshot:
            payload = json.dumps(snapshot_state(healer, cfg.seed, cfg), sort_keys=True)
            Path(_expand_seed(args.snapshot, cfg.seed)).write_text(payload, encoding="utf-8")
        csv_text = render_report_csv(reports)
        if args.out != "-":
            Path(_expand_seed(args.out, cfg.seed)).write_text(csv_text, encoding="utf-8")
            csv_text = ""
        violations = [line for rep in reports for line in rep.violation_detail]
        violations.extend(f"coherence: {err}" for err in coherence_errors(healer))
    except Exception as exc:
        code, line = exit_line(exc)
        return code, [line], ""
    return (1 if violations else 0), [f"VIOLATION {line}" for line in violations], csv_text


def _expand_seed(path: str, seed: int) -> str:
    return path.replace("{seed}", str(seed))


def cmd_run(args: argparse.Namespace) -> int:
    if bool(args.trace) == bool(args.strategy):
        raise InputError("run needs exactly one of --trace or --strategy")
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    seeds = args.seeds or [args.seed]  # ``_flag_seeds`` gives no empty list
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise InputError(f"--seeds lists {', '.join(map(str, repeated))} more than once")
    # one file per seed, or the seeds overwrite (and race on) one path
    paths = {"--out": args.out if args.out != "-" else None,
             "--snapshot": args.snapshot, "--record": args.record}
    for flag, path in paths.items():
        if len(seeds) > 1 and path and "{seed}" not in path:
            raise InputError(f"multiple seeds need '{{seed}}' in {flag}")
    # the input every seed shares is checked once, before any seed runs
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    if args.trace:
        source = read_trace(args.trace, cfg.kappa, "--kappa")
        trace_healer(source, cfg, args.fault)  # validates it and builds its initial graph
    else:
        source = Strategy(args.strategy, insert_fraction=args.insert_fraction,
                          insert_degree=args.insert_degree)
        check_run_length(source, args.n0, args.steps)
    run_seed = functools.partial(_run_one_seed, args, source)
    configs = [replace(cfg, seed=seed) for seed in seeds]
    # the pool starts all its workers at once, so start no more than seeds
    workers = min(args.jobs, len(seeds))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_seed, configs))
    else:
        results = list(map(run_seed, configs))
    # in seed order, whichever worker finished first
    for (_, lines, csv_text), seed in zip(results, seeds):
        sys.stdout.write(csv_text)
        for line in lines:
            print(f"seed {seed}: {line}", file=sys.stderr)
    return max(code for code, _, _ in results)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.snapshot).read_text(encoding="utf-8"))
        healer, cfg = load_snapshot(data)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, GraphError) as exc:
        print(f"malformed snapshot: {exc}", file=sys.stderr)
        return 2
    trace = read_trace(args.trace, cfg.kappa, "the snapshot's kappa") if args.trace else None
    problems = coherence_errors(healer)
    problems.extend(_design_errors(healer))
    try:
        problems.extend(_checkpoint(healer, healer.counters.events, cfg).violation_detail)
    except GraphError as exc:
        # the checks read the live graph for every alive node and cloud
        # member, so only a state the coherence lines above fault gets here
        problems.append(f"metrics: not evaluated ({exc})")
    if trace is not None:
        want, have = (snapshot_state(h, cfg.seed, cfg) for h in (replay(trace, cfg), healer))
        problems.extend(f"replayed trace does not reproduce the snapshot's {key}"
                        for key in sorted(want.keys() | have.keys())
                        if want.get(key) != have.get(key))
    for line in problems:
        print(f"VIOLATION {line}", file=sys.stderr)
    if not problems:
        print(f"snapshot coherent: {len(healer.shadow.alive)} alive nodes, "
              f"{healer.graph.edge_count()} edges, "
              f"{len(healer.registry.clouds)} clouds")
    return 1 if problems else 0


def _design_errors(healer: Healer) -> list[str]:
    """Each cloud's topology re-checked against what its size designs
    (``expander.topology_error``): run by ``verify``, by no checkpoint."""
    return [f"cloud {cid} topology {error}"
            for cid, cloud in sorted(healer.registry.clouds.items())
            if (error := topology_error(cloud.members, cloud.topology, healer.cfg))]


def cmd_report(args: argparse.Namespace) -> int:
    code = 0
    for path_str in sorted(args.reports):
        path = Path(path_str)
        try:
            with path.open(newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                header, rows = reader.fieldnames or [], list(reader)
        except OSError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
        missing = [c for c in REPORT_COLUMNS if c not in header]
        if missing:
            print(f"{path}: not a report, missing columns {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        # DictReader keys a long row's surplus under None and fills a
        # short row's gaps with None
        ragged = [n for n, r in enumerate(rows, start=2) if None in r or None in r.values()]
        if ragged:
            print(f"{path}: line {ragged[0]} does not match the header", file=sys.stderr)
            return 2
        if not rows:
            print(f"{path}: empty report", file=sys.stderr)
            return 2
        final = rows[-1]
        try:
            slacks = [int(r["degree_slack_min"]) for r in rows
                      if r["degree_slack_min"] != "skipped"]
            stretches = [Fraction(r["max_stretch"]) for r in rows
                         if r["max_stretch"] != "skipped"]
        except (ValueError, ZeroDivisionError) as exc:
            kind = "has a zero denominator" if type(exc) is ZeroDivisionError else "is malformed"
            print(f"{path}: a degree_slack_min or max_stretch cell {kind}: {exc}", file=sys.stderr)
            return 2
        print(f"== {path}")
        print(f"  checkpoints: {len(rows)}  final t={final['t']} "
              f"n_alive={final['n_alive']}")
        print(f"  min degree slack: {min(slacks) if slacks else 'n/a'}")
        print(f"  max stretch: {max(stretches) if stretches else 'n/a'}")
        traj = [f"t={r['t']}:{r['expansion_live']}|{r['expansion_shadow']}"
                for r in rows if r["expansion_live"] != "skipped"]
        print(f"  expansion (live|baseline): {' '.join(traj) if traj else 'skipped'}")
        print(f"  merges: {final['merges']}  clouds built: {final['clouds_built']} "
              f"rebuilt: {final['clouds_rebuilt']} spliced: {final['clouds_spliced']}")
        bad = [r["t"] for r in rows if _row_dirty(r)]
        if bad:
            code = 1
            print(f"  VIOLATIONS at t: {', '.join(bad)}")
    return code


def _row_dirty(row: dict[str, str]) -> bool:
    return (row["edge_preservation_ok"] == "false"
            or row["connectivity_ok"] == "false"
            or row["degree_violations"] != "0"
            or row["density_violations"] != "0"
            or row["density_ub_violations"] != "0"
            or row["expansion_ok"] == "false"
            or row["stretch_ok"] == "false")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xhealsim",
        description="Self-healing overlay simulator with exact bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a trace file")
    gen.add_argument("--strategy", required=True)
    gen.add_argument("--n0", type=int, required=True)
    gen.add_argument("--steps", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--kappa", type=int, default=6)
    gen.add_argument("--insert-fraction", type=float, default=0.4)
    gen.add_argument("--insert-degree", type=int, default=4)
    gen.add_argument("--extra-edge-frac", type=float, default=0.5)
    gen.add_argument("-o", "--out", default="-")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="replay a trace or run a strategy online")
    run.add_argument("--trace")
    run.add_argument("--strategy")
    run.add_argument("--n0", type=int, default=50)
    run.add_argument("--steps", type=int, default=100)
    run.add_argument("--insert-fraction", type=float, default=0.4)
    run.add_argument("--insert-degree", type=int, default=4)
    run.add_argument("--fault", choices=FAULTS)
    run.add_argument("--record", help="write the realized trace here")
    run.add_argument("--snapshot", help="write the final state here")
    run.add_argument("--seeds", type=_flag_seeds, help="comma-separated seed list")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("-o", "--out", default="-")
    _add_run_config_flags(run)
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="re-check a state snapshot")
    verify.add_argument("--snapshot", required=True)
    verify.add_argument("--trace", help="also replay this trace and compare")
    verify.set_defaults(func=cmd_verify)

    rep = sub.add_parser("report", help="summarize CSV report files")
    rep.add_argument("reports", nargs="+")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code, line = exit_line(exc)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
