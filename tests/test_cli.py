import copy
import json
import re

from xhealsim import cli
from xhealsim.adversary import Strategy, decode_trace, encode_trace, gen_trace
from xhealsim.engine import coherence_errors


def run_cli(args):
    return cli.main(args)


def test_gen_line_count_and_determinism(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    argv = ["gen", "--strategy", "uniform", "--n0", "50", "--steps", "300",
            "--seed", "7"]
    assert run_cli(argv + ["-o", str(out1)]) == 0
    assert run_cli(argv + ["-o", str(out2)]) == 0
    text = out1.read_text()
    assert len(text.splitlines()) == 302
    assert text == out2.read_text()


def test_gen_unknown_strategy_exits_2(capsys):
    code = run_cli(["gen", "--strategy", "chaos", "--n0", "5", "--steps", "1",
                    "-o", "-"])
    assert code == 2
    assert "chaos" in capsys.readouterr().err


def test_run_delete_only_trace_to_empty(tmp_path):
    trace = tmp_path / "t.jsonl"
    report = tmp_path / "r.csv"
    assert run_cli(["gen", "--strategy", "delete-only", "--n0", "12",
                    "--steps", "12", "--seed", "3", "-o", str(trace)]) == 0
    assert run_cli(["run", "--trace", str(trace), "--seed", "3",
                    "-o", str(report)]) == 0
    rows = report.read_text().splitlines()
    header = rows[0].split(",")
    final = rows[-1].split(",")
    assert final[header.index("n_alive")] == "0"
    assert final[header.index("t")] == "12"


def test_run_delete_only_online_never_inserts(tmp_path):
    # --insert-fraction keeps its default 0.4, which delete-only ignores
    rec = tmp_path / "rec.jsonl"
    assert run_cli(["run", "--strategy", "delete-only", "--n0", "30", "--steps", "20",
                    "--seed", "1", "--record", str(rec), "-o", str(tmp_path / "r.csv")]) == 0
    events = decode_trace(rec.read_text()).events
    assert len(events) == 20 and not any(ev.is_insert for ev in events)


def test_run_delete_only_overlong_rejected_before_event_1(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(["run", "--strategy", "delete-only", "--n0", "5", "--steps", "6",
                    "-o", str(out)])
    assert code == 2
    assert "delete-only cannot delete more nodes than exist" in capsys.readouterr().err
    assert not out.exists()


def test_never_inserting_runs_rejected_before_event_1_by_gen_and_run(tmp_path, capsys):
    # at insert fraction 0, uniform only deletes, like delete-only
    shape = ["--strategy", "uniform", "--insert-fraction", "0", "--n0", "3", "--steps", "5"]
    trace, out = tmp_path / "t.jsonl", tmp_path / "r.csv"
    assert run_cli(["gen", *shape, "-o", str(trace)]) == 2
    gen_err = capsys.readouterr().err
    assert "uniform cannot delete more nodes than exist" in gen_err
    assert run_cli(["run", *shape, "-o", str(out)]) == 2
    assert capsys.readouterr().err == gen_err
    assert not trace.exists() and not out.exists()


def test_run_rejects_exact_limit_beyond_ceiling_before_event_1(tmp_path, capsys):
    trace, out, rec = tmp_path / "t.jsonl", tmp_path / "r.csv", tmp_path / "rec.jsonl"
    assert run_cli(["gen", "--strategy", "uniform", "--n0", "30", "--steps", "20",
                    "--seed", "1", "-o", str(trace)]) == 0
    capsys.readouterr()
    for source in (["--trace", str(trace)], ["--strategy", "uniform", "--n0", "30"]):
        assert run_cli(["run", *source, "--steps", "20", "--seed", "1",
                        "--exact-limit", "30", "--record", str(rec), "-o", str(out)]) == 2
        assert "exact_limit must be in [2, 26], got 30" in capsys.readouterr().err
        assert not out.exists() and not rec.exists()


def test_run_reports_are_byte_identical_for_same_seed(tmp_path):
    trace = tmp_path / "t.jsonl"
    run_cli(["gen", "--strategy", "uniform", "--n0", "25", "--steps", "60",
             "--seed", "11", "-o", str(trace)])
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(["run", "--trace", str(trace), "--seed", "11", "-o", str(r1)]) == 0
    assert run_cli(["run", "--trace", str(trace), "--seed", "11", "-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_run_fault_detected(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_cli(["gen", "--strategy", "uniform", "--n0", "30", "--steps", "50",
             "--insert-fraction", "0.3", "--seed", "2", "-o", str(trace)])
    clean = run_cli(["run", "--trace", str(trace), "--seed", "2", "-o",
                     str(tmp_path / "clean.csv")])
    assert clean == 0
    for fault in ("skip-heal", "drop-black-edge"):
        code = run_cli(["run", "--trace", str(trace), "--seed", "2",
                        "--fault", fault, "-o", str(tmp_path / f"{fault}.csv")])
        err = capsys.readouterr().err
        assert code == 1, fault
        assert "VIOLATION" in err


def test_run_certification_failure_exits_3(tmp_path, capsys):
    # alpha_target=1 cannot be certified on this trace's 80-node clouds
    trace = tmp_path / "t.jsonl"
    assert run_cli(["gen", "--strategy", "uniform", "--n0", "200", "--steps", "400",
                    "--seed", "1", "-o", str(trace)]) == 0
    code = run_cli(["run", "--trace", str(trace), "--seed", "1",
                    "-o", str(tmp_path / "r.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "certified expansion" in err
    # the cloud size, the best certificate over the draws and the ceiling
    best = re.search(r"on (\d+) nodes .* \(best certificate (0\.\d{3});", err)
    assert best and int(best.group(1)) > 20 and float(best.group(2)) < 1
    assert "(kappa-2*sqrt(kappa-1))/2 = 0.764" in err


def test_run_requires_trace_or_strategy(tmp_path, capsys):
    assert run_cli(["run", "-o", "-"]) == 2


def test_run_missing_trace_file_exits_2(tmp_path):
    assert run_cli(["run", "--trace", str(tmp_path / "nope.jsonl"), "-o", "-"]) == 2


def test_run_adaptive_records_replayable_trace(tmp_path):
    rec = tmp_path / "rec.jsonl"
    rep1 = tmp_path / "r1.csv"
    rep2 = tmp_path / "r2.csv"
    assert run_cli(["run", "--strategy", "target-bridge", "--n0", "20",
                    "--steps", "40", "--insert-fraction", "0.5", "--seed", "4",
                    "--record", str(rec), "-o", str(rep1)]) == 0
    assert run_cli(["run", "--trace", str(rec), "--seed", "4",
                    "-o", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()


def test_verify_snapshot_roundtrip(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    snap = tmp_path / "s.json"
    run_cli(["gen", "--strategy", "uniform", "--n0", "20", "--steps", "30",
             "--seed", "5", "-o", str(trace)])
    assert run_cli(["run", "--trace", str(trace), "--seed", "5",
                    "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")]) == 0
    assert run_cli(["verify", "--snapshot", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "coherent" in out
    assert run_cli(["verify", "--snapshot", str(snap),
                    "--trace", str(trace)]) == 0


def test_verify_repeats_the_runs_final_checkpoint(tmp_path, capsys):
    # 74 nodes survive, so stretch samples its pairs: the lines depend on
    # the seed, t and the checkpoint settings verify shares with run
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 80, 40, 1)
    path, snap = tmp_path / "t.jsonl", tmp_path / "s.json"
    path.write_text(encode_trace(trace))
    assert run_cli(["run", "--trace", str(path), "--seed", "1", "--fault", "skip-heal",
                    "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")]) == 1
    _, reports = cli.run_trace(trace, cli.RunConfig(seed=1), fault="skip-heal")
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(snap)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"VIOLATION {line}" for line in reports[-1].violation_detail]
    assert sum("stretch: pair" in line for line in lines) == 16
    # the snapshot keeps the run's checkpoint settings for verify
    assert run_cli(["run", "--trace", str(path), "--seed", "1", "--fault", "skip-heal",
                    "--stretch-pairs", "50", "--density-samples", "7",
                    "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")]) == 1
    cfg = cli.RunConfig(seed=1, stretch_pairs=50, density_samples=7)
    _, reports = cli.run_trace(trace, cfg, fault="skip-heal")
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(snap)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"VIOLATION {line}" for line in reports[-1].violation_detail]
    assert 0 < sum("stretch: pair" in line for line in lines) < 16


def small_snapshot(tmp_path):
    trace = tmp_path / "t.jsonl"
    snap = tmp_path / "s.json"
    run_cli(["gen", "--strategy", "uniform", "--n0", "20", "--steps", "30",
             "--seed", "5", "-o", str(trace)])
    run_cli(["run", "--trace", str(trace), "--seed", "5",
             "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")])
    return json.loads(snap.read_text())


def test_verify_detects_corrupted_color(tmp_path, capsys):
    data = small_snapshot(tmp_path)
    stray = data["edges"][0]["colors"] + [424242]
    for name, colors in (("stray", stray), ("colorless", [])):
        victim = copy.deepcopy(data)
        victim["edges"][0]["colors"] = colors
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(victim))
        capsys.readouterr()
        assert run_cli(["verify", "--snapshot", str(path)]) == 1, name
        assert "VIOLATION" in capsys.readouterr().err


def repeat_topology_edge(data, orient):
    edges = next(c["topology"]["edges"] for c in data["clouds"] if c["topology"]["edges"])
    edges.append(orient(list(edges[0])))


def test_snapshot_lists_topology_edges_sorted_and_loads_back_to_the_same_dump(tmp_path):
    data = small_snapshot(tmp_path)
    topologies = [c["topology"]["edges"] for c in data["clouds"]]
    assert any(topologies) and all(edges == sorted(edges) for edges in topologies)
    healer, cfg = cli.load_snapshot(copy.deepcopy(data))
    assert cli.snapshot_state(healer, 5, cfg) == data


def test_verify_missing_or_malformed_snapshot(tmp_path, capsys):
    assert run_cli(["verify", "--snapshot", str(tmp_path / "none.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["verify", "--snapshot", str(bad)]) == 2
    wrong_version = tmp_path / "v9.json"
    wrong_version.write_text('{"v": 9}')
    assert run_cli(["verify", "--snapshot", str(wrong_version)]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[]")
    assert run_cli(["verify", "--snapshot", str(not_object)]) == 2
    data = small_snapshot(tmp_path)
    broken = {
        "v1": lambda d: d.update(v=1),
        "v2": lambda d: d.update(v=2),
        "no-checkpoint-settings": lambda d: d.pop("checkpoint"),
        "zero-stretch-pairs": lambda d: d["checkpoint"].update(stretch_pairs=0),
        "string-density-samples": lambda d: d["checkpoint"].update(density_samples="100"),
        "unknown-counter": lambda d: d["counters"].update(bogus_counter=0),
        "missing-counter": lambda d: d["counters"].pop("merges"),
        "exact-limit-over-ceiling": lambda d: d["config"].update(exact_limit=30),
        # ids are taken as written, as a trace's are, never coerced
        "string-ids": lambda d: (d.update(nodes=[str(v) for v in d["nodes"]]),
                                 d["shadow"]["nodes"].__setitem__(0, 0.25)),
        "string-shadow-ids": lambda d: d["shadow"]["nodes"].__setitem__(0, "0"),
        "float-cloud-member": lambda d: d["clouds"][0]["members"].__setitem__(0, 0.0),
        "negative-certificate": lambda d: d["clouds"][0]["topology"].update(certified="-3/1"),
        "float-certificate": lambda d: d["clouds"][0]["topology"].update(certified=0.5),
        "zero-denominator": lambda d: d["clouds"][0]["topology"].update(certified="1/0"),
        "string-counter": lambda d: d["counters"].update(merges="0"),
        # metrics fixes this density subset, so a default would check another family
        "no-last-black-neighbors": lambda d: d.pop("last_black_neighbors"),
        # a topology is a set of edges, which would drop a repeat unseen
        "topology-edge-twice": lambda d: repeat_topology_edge(d, lambda e: e),
        "topology-edge-twice-flipped": lambda d: repeat_topology_edge(d, lambda e: e[::-1]),
    }
    for name, damage in broken.items():
        victim = copy.deepcopy(data)
        damage(victim)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(victim))
        capsys.readouterr()
        assert run_cli(["verify", "--snapshot", str(path)]) == 2, name
        assert "malformed snapshot" in capsys.readouterr().err


def test_verify_flags_an_expander_cloud_certified_below_alpha_target(tmp_path, capsys):
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 300, 0)
    healer, _ = cli.run_trace(trace, cli.RunConfig(seed=0, checkpoint_every=300))
    data = cli.snapshot_state(healer, 0)
    expander = next(c for c in data["clouds"] if c["topology"]["kind"] == "regular_expander")
    assert expander["topology"]["certified"] == "1/1"  # the alpha_target the gate proved
    expander["topology"]["certified"] = "99/100"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"VIOLATION cloud {expander['id']} certified expansion 99/100 below alpha_target 1"]


def test_verify_reports_an_incoherent_snapshot_line_by_line(tmp_path, capsys):
    # metrics cannot run on these states; every coherence line is still
    # printed and the exit is 1, not a usage error
    data = small_snapshot(tmp_path)
    dead = min(set(data["shadow"]["nodes"]) - set(data["shadow"]["alive"]))
    broken = {
        "dead-cloud-member": lambda d: d["clouds"][0]["members"].append(dead),
        "extra-alive": lambda d: d["shadow"]["alive"].append(dead),
        "alive-never-seen": lambda d: d["shadow"]["alive"].append(10**6),
    }
    for name, damage in broken.items():
        victim = copy.deepcopy(data)
        damage(victim)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(victim))
        expected = coherence_errors(cli.load_snapshot(victim)[0])
        capsys.readouterr()
        assert run_cli(["verify", "--snapshot", str(path)]) == 1, name
        lines = capsys.readouterr().err.splitlines()
        assert expected, name
        assert lines[:len(expected)] == [f"VIOLATION {e}" for e in expected], name
        assert lines[len(expected):] == [lines[-1]], name
        assert lines[-1].startswith("VIOLATION metrics: not evaluated (node "), name


def test_report_rejects_a_csv_that_is_not_a_report(tmp_path, capsys):
    trace, good = tmp_path / "t.jsonl", tmp_path / "good.csv"
    run_cli(["gen", "--strategy", "uniform", "--n0", "20", "--steps", "20",
             "--seed", "6", "-o", str(trace)])
    run_cli(["run", "--trace", str(trace), "--seed", "6", "-o", str(good)])
    header, first, *rest = good.read_text().splitlines()
    foreign = tmp_path / "foreign.csv"
    foreign.write_text("t,n_alive\n0,20\n")
    short_row = tmp_path / "short.csv"
    short_row.write_text("\n".join([header, first.rsplit(",", 1)[0], *rest]) + "\n")
    for path, message in ((foreign, "not a report, missing columns connected_shadow"),
                          (short_row, "line 2 does not match the header")):
        capsys.readouterr()
        assert run_cli(["report", str(path)]) == 2, path.name
        assert message in capsys.readouterr().err


def test_run_rejects_malformed_trace_input_before_event_1(tmp_path, capsys):
    header = '{"v":1,"kappa":6,"seed":0,"strategy":"uniform","params":{}}'
    initial = '{"nodes":[0,1,2,3],"edges":[[0,1],[1,2],[2,3]]}'
    first = '{"t":1,"op":"del","node":0}'
    big = 2**63  # one above the largest id an int64 CSR snapshot holds
    traces = {
        "unknown-endpoint": ([header, '{"nodes":[0,1,2,3],"edges":[[0,1],[1,9]]}', first],
                             "endpoint of (1,9) not present"),
        "self-loop": ([header, '{"nodes":[0,1,2,3],"edges":[[0,1],[3,3]]}', first],
                      "self loop (3,3)"),
        "duplicate-edge": ([header, '{"nodes":[0,1,2,3],"edges":[[1,2],[0,1],[1,2]]}', first],
                           "edge (1,2) already exists"),
        "duplicate-edge-flipped": (
            [header, '{"nodes":[0,1,2,3],"edges":[[1,2],[0,1],[2,1]]}', first],
            "edge (1,2) already exists"),
        "duplicate-node": ([header, '{"nodes":[0,1,2,1,3],"edges":[[0,1]]}', first],
                           "node 1 already present"),
        "huge-initial-id": ([header, f'{{"nodes":[0,1,{big}],"edges":[[0,1],[1,{big}]]}}',
                             first],
                            f"line 2: nodes must be at most {big - 1}"),
        "huge-event-id": ([header, initial, f'{{"t":1,"op":"ins","node":{big},"nbrs":[0]}}'],
                          f"line 3: node {big} must be at most {big - 1}"),
        "string-nbrs": ([header, initial, '{"t":1,"op":"ins","node":4,"nbrs":"12"}'],
                        "line 3: nbrs must be a list of non-negative integers"),
        "float-node": ([header, initial, '{"t":1,"op":"del","node":2.7}'],
                       "line 3: node 2.7 is not a non-negative integer"),
        "bool-node": ([header, initial, '{"t":1,"op":"del","node":true}'],
                      "line 3: node True is not a non-negative integer"),
        "string-kappa": ([header.replace("6", '"6"'), initial, first],
                         "line 1: header 'kappa' must be a JSON int"),
        # the healer's insert rules, checked before event 1 too
        "insert-repeats-a-neighbour": (
            [header, initial, first, '{"t":2,"op":"del","node":3}',
             '{"t":3,"op":"ins","node":4,"nbrs":[1,1]}'],
            "event 3: duplicate neighbors in insert"),
        "insert-neighbours-itself": (
            [header, initial, first, '{"t":2,"op":"ins","node":4,"nbrs":[4]}'],
            "event 2: a node cannot neighbor itself"),
    }
    for name, (lines, message) in traces.items():
        path, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["run", "--trace", str(path), "-o", str(out)]) == 2, name
        assert capsys.readouterr().err == f"error: {message}\n", name
        assert not out.exists(), name


def test_report_summary_and_ordering(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_cli(["gen", "--strategy", "uniform", "--n0", "20", "--steps", "40",
             "--seed", "6", "-o", str(trace)])
    r1, r2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["run", "--trace", str(trace), "--seed", "6", "-o", str(r1)])
    run_cli(["run", "--trace", str(trace), "--seed", "7", "-o", str(r2)])
    assert run_cli(["report", str(r2), str(r1)]) == 0
    out = capsys.readouterr().out
    assert out.index(str(r1)) < out.index(str(r2))  # sorted by filename
    assert "min degree slack" in out and "max stretch" in out


def test_report_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run_cli(["report", str(empty)]) == 2


def test_run_multi_seed_needs_placeholder(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_cli(["gen", "--strategy", "uniform", "--n0", "10", "--steps", "5",
             "--seed", "1", "-o", str(trace)])
    code = run_cli(["run", "--trace", str(trace), "--seeds", "1,2",
                    "-o", str(tmp_path / "r.csv")])
    assert code == 2
    assert run_cli(["run", "--trace", str(trace), "--seeds", "1,2",
                    "-o", str(tmp_path / "r{seed}.csv")]) == 0
    assert (tmp_path / "r1.csv").exists() and (tmp_path / "r2.csv").exists()


def test_run_multi_seed_needs_placeholder_in_snapshot_and_record(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_cli(["gen", "--strategy", "uniform", "--n0", "10", "--steps", "5",
             "--seed", "1", "-o", str(trace)])
    base = ["run", "--trace", str(trace), "--seeds", "1,2",
            "-o", str(tmp_path / "r{seed}.csv")]
    for flag in ("--snapshot", "--record"):
        capsys.readouterr()
        assert run_cli(base + [flag, str(tmp_path / "one.json")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "one.json").exists()
    assert run_cli(base + ["--snapshot", str(tmp_path / "s{seed}.json"),
                           "--record", str(tmp_path / "t{seed}.jsonl")]) == 0
    for seed in (1, 2):
        assert json.loads((tmp_path / f"s{seed}.json").read_text())["seed"] == seed
        assert (tmp_path / f"t{seed}.jsonl").exists()


def test_run_parallel_jobs_match_sequential(tmp_path):
    trace = tmp_path / "t.jsonl"
    run_cli(["gen", "--strategy", "uniform", "--n0", "15", "--steps", "20",
             "--seed", "1", "-o", str(trace)])
    assert run_cli(["run", "--trace", str(trace), "--seeds", "3,4", "--jobs", "2",
                    "-o", str(tmp_path / "par{seed}.csv")]) == 0
    assert run_cli(["run", "--trace", str(trace), "--seeds", "3,4",
                    "-o", str(tmp_path / "seq{seed}.csv")]) == 0
    for seed in (3, 4):
        assert ((tmp_path / f"par{seed}.csv").read_bytes()
                == (tmp_path / f"seq{seed}.csv").read_bytes())



def test_run_starts_no_more_workers_than_seeds(tmp_path, monkeypatch, capsys):
    started = []

    class InlineExecutor:
        """A ``ProcessPoolExecutor`` that starts no process: it records
        the worker count asked for and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    trace = tmp_path / "t.jsonl"
    run_cli(["gen", "--strategy", "uniform", "--n0", "15", "--steps", "20",
             "--seed", "1", "-o", str(trace)])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    argv = ["run", "--trace", str(trace), "-o", str(tmp_path / "r{seed}.csv")]
    assert run_cli(argv + ["--seeds", "3,4", "--jobs", "8"]) == 0
    assert run_cli(argv + ["--seeds", "3,4,5", "--jobs", "2"]) == 0
    assert run_cli(argv + ["--seeds", "3", "--jobs", "8"]) == 0  # one seed: no pool
    assert started == [2, 2]
    assert {p.name for p in tmp_path.glob("r*.csv")} == {"r3.csv", "r4.csv", "r5.csv"}
    capsys.readouterr()
    for jobs in ("0", "-1"):
        assert run_cli(argv + ["--seeds", "3,4", "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert started == [2, 2]
