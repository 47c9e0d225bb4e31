import copy
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xhealsim import cli
from xhealsim.adversary import Strategy, decode_trace, encode_trace, gen_trace
from xhealsim.engine import Healer, coherence_errors


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
    assert run_cli(["gen", "--strategy", "uniform", "--n0", "0", "--steps", "5",
                    "-o", str(trace)]) == 2
    assert capsys.readouterr().err == "error: need n0 >= 1 and steps >= 0\n"
    assert not trace.exists()


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
    assert run_cli(["report", str(tmp_path / "skip-heal.csv")]) == 1
    assert "  VIOLATIONS at t: 20, 30\n" in capsys.readouterr().out


def test_run_certification_failure_exits_3(tmp_path, capsys):
    # alpha_target=1 cannot be certified on the 80-node cloud that event
    # 304 of this trace needs under seed 38; seed 39 certifies every
    # cloud, and still runs, in order or in parallel
    trace = tmp_path / "t.jsonl"
    assert run_cli(["gen", "--strategy", "uniform", "--n0", "200", "--steps", "400",
                    "--seed", "38", "-o", str(trace)]) == 0
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        out.mkdir()
        code = run_cli(["run", "--trace", str(trace), "--seeds", "38,39", "--jobs", jobs,
                        "-o", str(out / "r{seed}.csv")])
        assert code == 3, jobs
        err = capsys.readouterr().err
        assert err.startswith("seed 38: error: event 304 deletes node 73: "), jobs
        assert "certified expansion" in err, jobs
        # the cloud size, the best certificate over the draws and the ceiling
        best = re.search(r"on (\d+) nodes .* \(best certificate (0\.\d{3});", err)
        assert best and int(best.group(1)) > 20 and float(best.group(2)) < 1, jobs
        assert "(kappa-2*sqrt(kappa-1))/2 = 0.764" in err, jobs
        # the failing seed writes nothing; the other writes its report
        assert [p.name for p in out.iterdir()] == ["r39.csv"], jobs


def test_run_rejects_an_alpha_no_cloud_can_certify(tmp_path, capsys):
    # no 6-regular cloud certifies above 15/4, so alpha 4 exits 2 before
    # event 1 and writes nothing, where it once ran until the first cloud
    # past kappa+1 members and exited 3
    trace, out, snap = tmp_path / "t.jsonl", tmp_path / "r.csv", tmp_path / "s.json"
    assert run_cli(["gen", "--strategy", "uniform", "--n0", "200", "--steps", "400",
                    "--seed", "20", "-o", str(trace)]) == 0
    code = run_cli(["run", "--trace", str(trace), "--seed", "20", "--alpha-target", "4",
                    "-o", str(out), "--snapshot", str(snap)])
    assert code == 2
    assert "alpha_target 4 exceeds 15/4" in capsys.readouterr().err
    assert not out.exists() and not snap.exists()


def test_run_zero_denominator_alpha_target_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--strategy", "uniform", "--n0", "10", "--steps", "5",
                 "--alpha-target", "1/0", "-o", str(out)])
    assert exc.value.code == 2
    assert "argument --alpha-target: invalid Fraction value: '1/0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("frac", ["inf", "1e308", "-1", "nan"])
def test_gen_refuses_an_extra_edge_frac_it_cannot_count(tmp_path, capsys, frac):
    out = tmp_path / "t.jsonl"
    assert run_cli(["gen", "--strategy", "uniform", "--n0", "10", "--steps", "5",
                    f"--extra-edge-frac={frac}", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: extra_edge_frac {float(frac)} must be")
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["2", "5"])
def test_gen_refuses_a_kappa_no_healer_can_use(tmp_path, capsys, kappa):
    out = tmp_path / "t.jsonl"
    assert run_cli(["gen", "--strategy", "uniform", "--n0", "10", "--steps", "5",
                    "--kappa", kappa, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: kappa must be even and >= 4, got {kappa}\n"
    assert not out.exists()


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


def test_verify_trace_replays_without_checkpoints_and_names_each_mismatch(
        tmp_path, monkeypatch, capsys):
    # the replay is compared by its final state, one line per snapshot
    # key that differs
    trace, other, snap = tmp_path / "t.jsonl", tmp_path / "u.jsonl", tmp_path / "s.json"
    for path, seed in ((trace, "5"), (other, "6")):
        run_cli(["gen", "--strategy", "uniform", "--n0", "20", "--steps", "30",
                 "--seed", seed, "-o", str(path)])
    assert run_cli(["run", "--trace", str(trace), "--seed", "5",
                    "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")]) == 0
    evaluated, evaluate = [], cli.evaluate

    def counted(healer, t, *args, **kwargs):
        evaluated.append(t)
        return evaluate(healer, t, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", counted)
    assert run_cli(["verify", "--snapshot", str(snap), "--trace", str(trace)]) == 0
    assert evaluated == [30]
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(snap), "--trace", str(other)]) == 1
    assert "VIOLATION replayed trace does not reproduce the snapshot's edges" in (
        capsys.readouterr().err.splitlines())
    saved = json.loads(snap.read_text())
    # a bridge entry moved to an idle member of its secondary, and other
    # last black neighbors, are coherent states the run did not reach
    members = {cloud["id"]: set(cloud["members"]) for cloud in saved["clouds"]}
    busy = {node for _, _, node in saved["bridges"]}
    row, idle = next((i, min(members[f] - busy))
                     for i, (f, _, _) in enumerate(saved["bridges"]) if members[f] - busy)
    alive = set(saved["shadow"]["alive"])
    damages = {
        "counters": lambda d: d["counters"].update(merges=d["counters"]["merges"] + 1),
        "bridges": lambda d: d["bridges"][row].__setitem__(2, idle),
        "last_black_neighbors": lambda d: d.update(
            last_black_neighbors=[min(alive - set(d["last_black_neighbors"]))]),
    }
    for key, damage in damages.items():
        data = copy.deepcopy(saved)
        damage(data)
        snap.write_text(json.dumps(data))
        assert run_cli(["verify", "--snapshot", str(snap)]) == 0, key
        capsys.readouterr()
        assert run_cli(["verify", "--snapshot", str(snap), "--trace", str(trace)]) == 1, key
        assert capsys.readouterr().err.splitlines() == [
            f"VIOLATION replayed trace does not reproduce the snapshot's {key}"]


@pytest.mark.parametrize("n0,steps,seed,k,alpha", [
    (50, 300, 7, 150, Fraction(1)),
    (500, 750, 0, 300, Fraction(1, 2)),
    # a splice with newcomers once read its edges in frozenset order,
    # which a loaded snapshot lays out otherwise: event 303 drew apart
    (200, 400, 2, 300, Fraction(1, 2)),
])
def test_a_run_continued_from_a_snapshot_ends_as_the_uninterrupted_run(n0, steps, seed, k,
                                                                       alpha):
    # a snapshot is the whole healer: each delete draws from a stream
    # keyed by the run and the dying node, which no earlier event moves
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), n0, steps, seed)
    cfg = cli.RunConfig(seed=seed, alpha_target=alpha)
    healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges, cfg.expander(),
                                 random.Random(f"{seed}/engine"))
    for event in trace.events[:k]:
        healer.handle_event(event)
    continued, _ = cli.load_snapshot(json.loads(json.dumps(cli.snapshot_state(healer, seed))))
    for event in trace.events[k:]:
        healer.handle_event(event)
        continued.handle_event(event)
    assert cli.snapshot_state(continued, seed) == cli.snapshot_state(healer, seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 9), cut=st.integers(0, 300))
# a cut after which a splice read its pairs in the loaded sets' layout
# until expander._splice sorted them
@example(seed=0, cut=85)
def test_a_run_resumed_from_a_snapshot_writes_the_uninterrupted_runs_rows(seed, cut):
    # the acceptance shape: n0=50, 300 events, a checkpoint every 10.  A
    # run snapshotted after event *cut*, loaded and continued writes the
    # uninterrupted run's CSV rows from the cut on and its final snapshot
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 300, seed)
    cfg = cli.RunConfig(seed=seed, checkpoint_every=10)
    healer, reports = cli.run_trace(trace, cfg)
    head = cli._trace_healer(trace, cfg)
    for event in trace.events[:cut]:
        head.handle_event(event)
    resumed, loaded = cli.load_snapshot(json.loads(json.dumps(
        cli.snapshot_state(head, seed, cfg), sort_keys=True)))
    rows = [cli._checkpoint(resumed, cut, loaded)] if cut % 10 == 0 or cut == 300 else []
    for t, event in enumerate(trace.events[cut:], start=cut + 1):
        resumed.handle_event(event)
        if t % loaded.checkpoint_every == 0 or t == 300:
            rows.append(cli._checkpoint(resumed, t, loaded))
    assert (cli.render_report_csv(rows)
            == cli.render_report_csv([r for r in reports if r.t >= cut]))
    assert (json.dumps(cli.snapshot_state(resumed, seed, loaded), sort_keys=True)
            == json.dumps(cli.snapshot_state(healer, seed, cfg), sort_keys=True))


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


def repeat_unbridged_cloud(data, kind):
    """List again a cloud that no bridge names, its kind mapped by
    *kind*: kept as the last entry, the state would still be coherent."""
    named = {cid for f, c, _ in data["bridges"] for cid in (f, c)}
    cloud = next(c for c in data["clouds"] if c["id"] not in named)
    data["clouds"].append(dict(copy.deepcopy(cloud), kind=kind(cloud["kind"])))


def repeat_bridge_with_another_member(data):
    """List a bridge key again, held by another member of its secondary
    cloud that holds no bridge: kept as the last entry, the state would
    still be coherent."""
    busy = {node for _, _, node in data["bridges"]}
    members = {cloud["id"]: set(cloud["members"]) for cloud in data["clouds"]}
    f, c, other = next((f, c, min(members[f] - busy))
                       for f, c, _ in data["bridges"] if members[f] - busy)
    data["bridges"].append([f, c, other])


def test_verify_missing_or_malformed_snapshot(tmp_path, capsys):
    assert run_cli(["verify", "--snapshot", str(tmp_path / "none.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["verify", "--snapshot", str(bad)]) == 2
    wrong_version = tmp_path / "v9.json"
    wrong_version.write_text('{"v": 9}')
    assert run_cli(["verify", "--snapshot", str(wrong_version)]) == 2
    before_v4 = tmp_path / "v3.json"
    before_v4.write_text('{"v": 3}')
    assert run_cli(["verify", "--snapshot", str(before_v4)]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[]")
    assert run_cli(["verify", "--snapshot", str(not_object)]) == 2
    data = small_snapshot(tmp_path)
    broken = {
        "v1": lambda d: d.update(v=1),
        "v2": lambda d: d.update(v=2),
        "v3": lambda d: d.update(v=3),
        # v4 recorded a kind in each cloud topology, which its size decides
        "v4": lambda d: d.update(v=4),
        "string-seed": lambda d: d.update(seed="5"),
        "string-color": lambda d: d["edges"][0]["colors"].append("7"),
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
        # the counter names alone, as a list, match the key set check
        "counters-as-list": lambda d: d.update(counters=sorted(d["counters"])),
        # metrics fixes this density subset, so a default would check another family
        "no-last-black-neighbors": lambda d: d.pop("last_black_neighbors"),
        # a topology is a set of edges, which would drop a repeat unseen
        "topology-edge-twice": lambda d: repeat_topology_edge(d, lambda e: e),
        "topology-edge-twice-flipped": lambda d: repeat_topology_edge(d, lambda e: e[::-1]),
        # the baseline is checked by the live graph's rules
        "shadow-edge-twice": lambda d: d["shadow"]["edges"].append(d["shadow"]["edges"][0][:]),
        "shadow-edge-twice-flipped":
            lambda d: d["shadow"]["edges"].append(d["shadow"]["edges"][0][::-1]),
        "shadow-self-loop": lambda d: d["shadow"]["edges"].append([3, 3]),
        "shadow-node-twice": lambda d: d["shadow"]["nodes"].append(d["shadow"]["nodes"][0]),
        # a repeat would replace the first entry, or a set would drop it, unseen
        "alive-twice": lambda d: d["shadow"]["alive"].append(d["shadow"]["alive"][0]),
        "cloud-twice": lambda d: repeat_unbridged_cloud(d, lambda kind: kind),
        "cloud-twice-other-kind": lambda d: repeat_unbridged_cloud(
            d, lambda kind: "secondary" if kind == "primary" else "primary"),
        "bridge-twice": lambda d: d["bridges"].append(d["bridges"][0][:]),
        "bridge-twice-other-node": repeat_bridge_with_another_member,
        # a key the loader does not read is refused, not dropped unseen
        "unknown-key": lambda d: d.update(extra=1),
        "unknown-config-key": lambda d: d["config"].update(seed=5),
        "unknown-checkpoint-key": lambda d: d["checkpoint"].update(checkpoint_every=10),
        "unknown-shadow-key": lambda d: d["shadow"].update(dead=[]),
        "unknown-edge-key": lambda d: d["edges"][0].update(w=1),
        "unknown-cloud-key": lambda d: d["clouds"][0].update(size=2),
        # v4 recorded it, v5 leaves it to the cloud's size
        "topology-kind": lambda d: d["clouds"][0]["topology"].update(kind="clique"),
        "config-not-object": lambda d: d.update(config=[]),
        "topology-not-object": lambda d: d["clouds"][0].update(topology=[]),
    }
    for name, damage in broken.items():
        victim = copy.deepcopy(data)
        damage(victim)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(victim))
        capsys.readouterr()
        assert run_cli(["verify", "--snapshot", str(path)]) == 2, name
        assert "malformed snapshot" in capsys.readouterr().err


def test_verify_flags_a_node_listed_for_two_bridge_entries(tmp_path, capsys):
    # a node holds one bridge entry at most, and the registry keys each
    # entry by its holder, so a node listed twice is refused on load, as
    # a repeated entry key is
    data = small_snapshot(tmp_path)
    members = {cloud["id"]: set(cloud["members"]) for cloud in data["clouds"]}
    entry, node = next((b, a[2]) for a in data["bridges"] for b in data["bridges"]
                       if a is not b and a[2] in members[b[0]])
    entry[2] = node
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(path)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"malformed snapshot: node {node} already holds bridge entry")
    assert captured.out == ""


def test_verify_flags_a_cloud_id_not_below_the_next_cloud_id(tmp_path, capsys):
    # a plan takes every id from next_cloud_id up as one it registered
    trace, snap = tmp_path / "t.jsonl", tmp_path / "s.json"
    run_cli(["gen", "--strategy", "uniform", "--n0", "30", "--steps", "60",
             "--seed", "3", "-o", str(trace)])
    run_cli(["run", "--trace", str(trace), "--seed", "3",
             "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")])
    data = json.loads(snap.read_text())
    top = max(c["id"] for c in data["clouds"])
    assert data["next_cloud_id"] == top + 1
    for next_id in (top, 0):
        data["next_cloud_id"] = next_id
        snap.write_text(json.dumps(data))
        for replay in ([], ["--trace", str(trace)]):
            capsys.readouterr()
            assert run_cli(["verify", "--snapshot", str(snap), *replay]) == 1
            expected = [f"VIOLATION cloud {cid} is not below the next cloud id {next_id}"
                        for cid in sorted(c["id"] for c in data["clouds"]) if cid >= next_id]
            if replay:  # the replay reaches the true next id
                expected.append(
                    "VIOLATION replayed trace does not reproduce the snapshot's next_cloud_id")
            assert capsys.readouterr().err.splitlines() == expected


def test_verify_flags_an_expander_cloud_certified_below_alpha_target(tmp_path, capsys):
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), 50, 300, 0)
    healer, _ = cli.run_trace(trace, cli.RunConfig(seed=0, checkpoint_every=300))
    data = cli.snapshot_state(healer, 0)
    expander = next(c for c in data["clouds"] if len(c["members"]) > 7)
    assert expander["topology"]["certified"] == "1/1"  # the alpha_target the gate proved
    expander["topology"]["certified"] = "99/100"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"VIOLATION cloud {expander['id']} certified expansion 99/100 below alpha_target 1"]


def test_verify_flags_last_black_neighbours_that_are_not_alive(tmp_path, capsys):
    # each delete sets them to the dying node's alive baseline neighbours
    trace, snap = tmp_path / "t.jsonl", tmp_path / "s.json"
    run_cli(["gen", "--strategy", "uniform", "--n0", "30", "--steps", "40",
             "--seed", "1", "-o", str(trace)])
    run_cli(["run", "--trace", str(trace), "--seed", "1",
             "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")])
    data = json.loads(snap.read_text())
    data["last_black_neighbors"] = [999999, 5000]
    snap.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(snap)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "VIOLATION last black neighbour 5000 is not alive",
        "VIOLATION last black neighbour 999999 is not alive"]


def test_verify_checks_a_clique_clouds_certificate(tmp_path, capsys):
    # a clique records its exact expansion, m - m//2, which verify
    # recomputes as it re-certifies an expander cloud
    trace, snap = tmp_path / "t.jsonl", tmp_path / "s.json"
    run_cli(["gen", "--strategy", "uniform", "--n0", "30", "--steps", "40",
             "--seed", "1", "-o", str(trace)])
    run_cli(["run", "--trace", str(trace), "--seed", "1",
             "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")])
    data = json.loads(snap.read_text())
    cloud = next(c for c in data["clouds"] if len(c["members"]) == 3)
    assert cloud["topology"]["certified"] == "2/1"
    cloud["topology"]["certified"] = "99/1"
    snap.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(snap)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"VIOLATION cloud {cloud['id']} topology records certificate 99 for the clique "
        "on its 3 members, whose expansion is 2"]


def test_verify_replay_that_cannot_certify_exits_3(tmp_path, capsys):
    # the seed-38 trace's event 304 needs a cloud no draw certifies at
    # alpha 1; the snapshot is of its first 300 events
    full, head, snap = tmp_path / "t.jsonl", tmp_path / "head.jsonl", tmp_path / "s.json"
    assert run_cli(["gen", "--strategy", "uniform", "--n0", "200", "--steps", "400",
                    "--seed", "38", "-o", str(full)]) == 0
    head.write_text("\n".join(full.read_text().splitlines()[:302]) + "\n")
    assert run_cli(["run", "--trace", str(head), "--seed", "38", "--checkpoint-every", "300",
                    "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(snap), "--trace", str(full)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: event 304 deletes node 73: no 6-regular candidate")


def test_verify_reports_an_incoherent_snapshot_line_by_line(tmp_path, capsys):
    # metrics cannot run on these states; every coherence line is still
    # printed and the exit is 1, not a usage error
    data = small_snapshot(tmp_path)
    dead = min(set(data["shadow"]["nodes"]) - set(data["shadow"]["alive"]))
    # each damage, and the design lines verify prints after the coherence ones
    broken = {
        "dead-cloud-member": (lambda d: d["clouds"][0]["members"].append(dead),
                              ["cloud 0 topology is not the clique on its 2 members"]),
        "extra-alive": (lambda d: d["shadow"]["alive"].append(dead), []),
        "alive-never-seen": (lambda d: d["shadow"]["alive"].append(10**6), []),
    }
    for name, (damage, design) in broken.items():
        victim = copy.deepcopy(data)
        damage(victim)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(victim))
        incoherent = coherence_errors(cli.load_snapshot(victim)[0])
        expected = incoherent + design
        capsys.readouterr()
        assert run_cli(["verify", "--snapshot", str(path)]) == 1, name
        lines = capsys.readouterr().err.splitlines()
        assert incoherent, name
        assert lines[:len(expected)] == [f"VIOLATION {e}" for e in expected], name
        assert lines[len(expected):] == [lines[-1]], name
        assert lines[-1].startswith("VIOLATION metrics: not evaluated (node "), name


@pytest.mark.parametrize("extra", ["dead", "never-seen"])
def test_verify_evaluates_a_live_graph_holding_a_node_that_is_not_alive(
        tmp_path, capsys, extra):
    # 20 alive nodes, the exact expansion limit, and a 21st node in the
    # live graph: each live check is sized by the live graph, so exact
    # expansion is skipped instead of refusing 21 nodes with exit 2
    trace, snap = tmp_path / "t.jsonl", tmp_path / "s.json"
    run_cli(["gen", "--strategy", "uniform", "--n0", "30", "--steps", "40",
             "--seed", "2", "-o", str(trace)])
    assert run_cli(["run", "--trace", str(trace), "--seed", "2", "--snapshot", str(snap),
                    "-o", str(tmp_path / "r.csv")]) == 0
    data = json.loads(snap.read_text())
    assert len(data["shadow"]["alive"]) == cli.RunConfig().exact_limit
    dead = min(set(data["shadow"]["nodes"]) - set(data["shadow"]["alive"]))
    data["nodes"].append(dead if extra == "dead" else 999)
    snap.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(snap)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "VIOLATION live node set differs from shadow alive set",
        "VIOLATION connectivity: baseline connected but live graph is not"]


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
    # a zero denominator is malformed input (exit 2), not a violation (exit 1)
    cells = first.split(",")
    cells[header.split(",").index("max_stretch")] = "1/0"
    zero_stretch = tmp_path / "zero.csv"
    zero_stretch.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    for path, message in ((foreign, "not a report, missing columns connected_shadow"),
                          (short_row, "line 2 does not match the header"),
                          (zero_stretch, "cell has a zero denominator: Fraction(1, 0)")):
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
        # a string params was passed to dict() and a list of pairs taken as one
        "string-params": ([header.replace("{}", '"ab"'), initial, first],
                          "line 1: header 'params' must be a JSON object"),
        "list-params": ([header.replace("{}", '[["a",1]]'), initial, first],
                        "line 1: header 'params' must be a JSON object"),
        # the healer's insert rules, checked before event 1 too
        "insert-repeats-a-neighbour": (
            [header, initial, first, '{"t":2,"op":"del","node":3}',
             '{"t":3,"op":"ins","node":4,"nbrs":[1,1]}'],
            "event 3: duplicate neighbors in insert"),
        "insert-neighbours-itself": (
            [header, initial, first, '{"t":2,"op":"ins","node":4,"nbrs":[4]}'],
            "event 2: a node cannot neighbor itself"),
        "one-line": ([header], "line 1: trace needs a header and an initial-graph line"),
        "no-kappa": ([header.replace('"kappa":6,', ""), initial, first],
                     "line 1: header missing 'kappa'"),
        "initial-without-edges": ([header, '{"nodes":[0,1,2,3]}', first],
                                  "line 2: initial line needs 'nodes' and 'edges'"),
        "three-id-edge": ([header, '{"nodes":[0,1,2,3],"edges":[[0,1,2]]}', first],
                          "line 2: edges must be a list of 2-element lists"),
        "delete-twice": ([header, initial, first, first.replace('"t":1', '"t":2')],
                         "event 2: delete of dead node 0"),
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
    # a header and no row passes the column check
    header_only = tmp_path / "header.csv"
    header_only.write_text(",".join(cli.REPORT_COLUMNS) + "\n")
    capsys.readouterr()
    assert run_cli(["report", str(header_only)]) == 2
    assert capsys.readouterr().err == f"{header_only}: empty report\n"


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


def test_run_refuses_a_repeated_seed(tmp_path, capsys):
    # two runs of one seed would write, and race on, one expanded path
    trace = tmp_path / "t.jsonl"
    run_cli(["gen", "--strategy", "uniform", "--n0", "10", "--steps", "5",
             "--seed", "1", "-o", str(trace)])
    for seeds in ("1,1", "2,1,3,1,2"):
        capsys.readouterr()
        assert run_cli(["run", "--trace", str(trace), "--seeds", seeds, "--jobs", "2",
                        "-o", str(tmp_path / "o{seed}.csv")]) == 2, seeds
        assert "more than once" in capsys.readouterr().err, seeds
    assert not list(tmp_path.glob("o*.csv"))


@pytest.mark.parametrize("seeds", ["", "1,,2"])
def test_run_refuses_an_empty_seed_list_or_item(tmp_path, capsys, seeds):
    # an empty --seeds is no seed list, not a missing flag that runs --seed
    trace, out = tmp_path / "t.jsonl", tmp_path / "r{seed}.csv"
    run_cli(["gen", "--strategy", "uniform", "--n0", "10", "--steps", "5",
             "--seed", "1", "-o", str(trace)])
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--trace", str(trace), "--seeds", seeds, "-o", str(out)])
    assert exc.value.code == 2
    assert f"argument --seeds: invalid seed list: {seeds!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*.csv"))


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


def test_run_parallel_jobs_print_reports_in_seed_order(tmp_path, capfd):
    # with -o -, each seed's CSV goes to stdout in the order of --seeds,
    # not in the order the workers finish; capfd also sees what a worker
    # process would write
    trace = tmp_path / "t.jsonl"
    run_cli(["gen", "--strategy", "uniform", "--n0", "50", "--steps", "300",
             "--seed", "7", "-o", str(trace)])
    stdouts = []
    for jobs in ("1", "2"):
        capfd.readouterr()
        assert run_cli(["run", "--trace", str(trace), "--seeds", "1,2,3,4",
                        "--jobs", jobs, "-o", "-"]) == 0
        stdouts.append(capfd.readouterr().out)
    assert stdouts[0] == stdouts[1]


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


def largest_expander_snapshot(tmp_path):
    """A snapshot whose largest cloud, of 17 members, is a drawn
    6-regular expander, and that cloud's entry in it."""
    trace = tmp_path / "t.jsonl"
    snap = tmp_path / "s.json"
    run_cli(["gen", "--strategy", "uniform", "--n0", "60", "--steps", "100",
             "--seed", "2", "-o", str(trace)])
    run_cli(["run", "--trace", str(trace), "--seed", "2",
             "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")])
    data = json.loads(snap.read_text())
    cloud = max(data["clouds"], key=lambda c: len(c["members"]))
    assert len(cloud["members"]) == 17
    return data, cloud


def two_regular_parts(members):
    """Edges of a 6-regular graph on *members* (at least 14) in two
    parts, a clique on the first 7 and a circulant on the others: its
    expansion is 0."""
    first, rest = members[:7], members[7:]
    edges = set(itertools.combinations(first, 2))
    edges |= {tuple(sorted((rest[i], rest[(i + d) % len(rest)])))
              for i in range(len(rest)) for d in (1, 2, 3)}
    return sorted([u, v] for u, v in edges)


def test_verify_recertifies_each_expander_clouds_topology(tmp_path, capsys):
    data, cloud = largest_expander_snapshot(tmp_path)
    path = tmp_path / "clean.json"
    path.write_text(json.dumps(data))
    assert run_cli(["verify", "--snapshot", str(path)]) == 0
    cid, members = cloud["id"], cloud["members"]
    edges = cloud["topology"]["edges"]
    u = edges[0][0]
    extra = next([a, b] for a, b in itertools.combinations(members, 2) if [a, b] not in edges)
    damaged = {
        "dropped edge": (edges[1:], f"node {u} has degree 5"),
        "degree 7": (sorted(edges + [extra]), f"node {extra[0]} has degree 7"),
        "below alpha": (two_regular_parts(members), "re-certifies 0.000, below alpha_target 1"),
    }
    for name, (topology, message) in damaged.items():
        victim = copy.deepcopy(data)
        next(c for c in victim["clouds"] if c["id"] == cid)["topology"]["edges"] = topology
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(victim))
        capsys.readouterr()
        assert run_cli(["verify", "--snapshot", str(path)]) == 1, name
        design = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith(f"VIOLATION cloud {cid} topology ")]
        assert len(design) == 1 and design[0].endswith(message), (name, design)


def test_verify_checks_a_cloud_by_its_size_not_its_recorded_kind(tmp_path, capsys):
    # a topology records no kind: its certificate and its design are
    # both judged by its cloud's size
    trace, snap = tmp_path / "t.jsonl", tmp_path / "s.json"
    run_cli(["gen", "--strategy", "uniform", "--n0", "200", "--steps", "300",
             "--seed", "3", "-o", str(trace)])
    run_cli(["run", "--trace", str(trace), "--seed", "3", "--alpha-target", "1/2",
             "--snapshot", str(snap), "-o", str(tmp_path / "r.csv")])
    data = json.loads(snap.read_text())
    cloud = next(c for c in data["clouds"] if c["id"] == 192)
    assert len(cloud["members"]) == 39 and len(cloud["topology"]["edges"]) == 117
    # drop 59 of its edges, and its color on them
    dropped = {tuple(e) for e in cloud["topology"]["edges"][:59]}
    cloud["topology"]["edges"] = cloud["topology"]["edges"][59:]
    for record in data["edges"]:
        if (record["u"], record["v"]) in dropped:
            record["colors"].remove(192)
    data["edges"] = [record for record in data["edges"] if record["colors"]]
    assert cloud["topology"] == {"edges": cloud["topology"]["edges"], "certified": "1/2"}
    cloud["topology"]["certified"] = "0/1"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["verify", "--snapshot", str(path)]) == 1
    lines = [line for line in capsys.readouterr().err.splitlines() if "cloud 192 " in line]
    assert len(lines) == 2
    assert lines[0] == "VIOLATION cloud 192 certified expansion 0 below alpha_target 1/2"
    assert lines[1].startswith("VIOLATION cloud 192 topology is not 6-regular")
