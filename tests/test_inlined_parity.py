"""The inlined and batched hot paths against the code paths they replaced.

``expander.partial_shuffle`` (and so ``_pairing_attempt``) draws from
``getrandbits`` directly instead of through ``Random.shuffle``; it must
return the same values and leave the generator in the same state, or
every cloud after it changes.  ``ColoredGraph.recolor`` makes a repair
step's edge edits in one call; a healer driven through it must match one
driven through the per-edge calls in ``helpers``.  ``Healer._apply``
derives a delete's edge step from the registry before and after its
plan, recoloring only what the topology of a cloud the plan touched
gained or lost; a healer driven through it must match one that strips
every old edge of each changed or retired cloud and repaints every new
one.  The density sampler's draws must be subsets of distinct alive ids
at every size where ``Random.sample`` switches branch.
"""
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (apply_full_oracle, checked_pick, pairing_attempt_oracle,
                     recolor_oracle)
from xhealsim.adversary import Strategy, gen_trace
from xhealsim.engine import Healer, Plan, coherence_errors
from xhealsim.expander import (ExpanderConfig, RetriesExhausted, _pairing_attempt,
                               partial_shuffle)
from xhealsim.metrics import sample_subsets

# sizes at the edges of a getrandbits width, plus the small lists
EDGE_SIZES = [0, 1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 1023, 1024, 1025]
sizes = st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 1100))
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=120, deadline=None)
@given(n=sizes, seed=seeds)
def test_shuffle_draws_like_random_shuffle(n, seed):
    ours, ref = random.Random(seed), random.Random(seed)
    items = list(range(n))
    expected = items[:]
    partial_shuffle(items, ours)
    ref.shuffle(expected)
    assert items == expected
    assert ours.getstate() == ref.getstate()


@settings(max_examples=60, deadline=None)
@given(n=sizes, degree=st.integers(1, 8), seed=seeds)
@example(n=0, degree=6, seed=0).via("empty stub list")
@example(n=5, degree=6, seed=1).via("too few members: dead end")
@example(n=7, degree=6, seed=2).via("the clique size")
@example(n=8, degree=1, seed=3).via("the complement of a 6-regular cloud of 8")
@example(n=11, degree=4, seed=4).via("the complement of a 6-regular cloud of 11")
def test_pairing_attempt_draws_like_random_shuffle(n, degree, seed):
    ours, ref = random.Random(seed), random.Random(seed)
    assert _pairing_attempt(n, degree, ours) == pairing_attempt_oracle(n, degree, ref)
    assert ours.getstate() == ref.getstate()


def sample_keeps_a_pool(n: int, k: int) -> bool:
    """``Random.sample``'s branch rule: a pool list when n items take less
    room than a set of k picks, else a set of picked positions."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n <= setsize


@pytest.mark.parametrize("n", [21, 22, 85, 86, 277, 278, 886, 1045, 1046])
def test_sample_subsets_at_the_sample_branch_boundaries(n):
    # sample's setsize is 21, 85, 277 or 1045 for the sizes drawn here;
    # n equal to it still keeps a pool, one more redraws positions
    alive = random.Random(n).sample(range(2 * n), n)  # sparse, unsorted ids
    drawn = sample_subsets(alive, 200, random.Random(n))
    branches = {sample_keeps_a_pool(n, len(s)) for s in drawn}
    assert branches == ({True} if n == 21 else {True, False})
    assert all(len(set(s)) == len(s) and set(s) <= set(alive) for s in drawn)


def replay_pair(n0: int, steps: int, seed: int, fault: str | None, reference):
    """Yield a healer as it is and one that *reference* patched, after
    each event of one uniform trace."""
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), n0, steps, seed)
    cfg = ExpanderConfig(alpha_target=Fraction(1, 2))
    healers = [Healer.from_initial(trace.initial_nodes, trace.initial_edges, cfg,
                                   random.Random(seed), fault=fault) for _ in range(2)]
    reference(healers[1])
    for event in trace.events:
        outcomes = []
        for healer in healers:
            try:
                healer.handle_event(event)
                outcomes.append(None)
            except RetriesExhausted as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            return
        yield healers


def per_edge_recolor(healer):
    healer.graph.recolor = types.MethodType(recolor_oracle, healer.graph)


def full_strip_and_paint(healer):
    delete, before = healer._delete, {}

    def recording_delete(v):
        before.clear()
        before.update(healer.registry.clouds)
        delete(v)

    healer._delete = recording_delete
    healer._apply = lambda plan: apply_full_oracle(healer, plan, before)


def edge_state(healer):
    graph = healer.graph
    return (list(graph.edges()),
            {v: list(graph.neighbors(v)) for v in graph.node_set})


@settings(max_examples=30, deadline=None)
@given(n0=st.integers(1, 40), steps=st.integers(0, 60), seed=st.integers(0, 10_000),
       fault=st.sampled_from([None, "skip-heal", "drop-black-edge"]))
@example(n0=40, steps=60, seed=3, fault=None).via("rebuilds, merges and reuse")
@example(n0=40, steps=60, seed=3, fault="skip-heal")
@example(n0=40, steps=60, seed=3, fault="drop-black-edge")
def test_recolor_matches_per_edge_calls_on_healer_states(n0, steps, seed, fault):
    for batched, per_edge in replay_pair(n0, steps, seed, fault, per_edge_recolor):
        # colors, edge insertion order and adjacency iteration order
        assert edge_state(batched) == edge_state(per_edge)
        assert batched.counters == per_edge.counters
        assert batched.graph.integrity_errors() == []
        assert per_edge.graph.integrity_errors() == []


def assert_apply_parity(n0: int, steps: int, seed: int, fault: str | None):
    """The graph, every counter but edges_reused and the registry agree
    after each event; the full path counts at least as many reuses, and
    no edge carries the color of a cloud that an event registered and
    retired.  Returns the last pair of healers and the ids of those
    clouds."""
    last, first_fresh, registered_and_retired = None, 0, []
    for diffed, full in replay_pair(n0, steps, seed, fault, full_strip_and_paint):
        assert edge_state(diffed) == edge_state(full)
        ours, ref = diffed.counters.as_dict(), full.counters.as_dict()
        assert ours.pop("edges_reused") <= ref.pop("edges_reused")
        assert ours == ref
        assert diffed.registry.clouds == full.registry.clouds
        gone = set(range(first_fresh, diffed.next_cloud_id)) - diffed.registry.clouds.keys()
        assert not [key for key, colors in diffed.graph.edges() if colors & gone]
        registered_and_retired += sorted(gone)
        first_fresh = diffed.next_cloud_id
        last = diffed, full
    return last, registered_and_retired


# event 49 deletes node 7, a bridge with no replacement: its secondary
# cloud merges into a fresh primary cloud 30, then the new secondary
# finds no free node for cloud 30 and merges it away with the others
REGISTERED_AND_RETIRED = dict(n0=80, steps=80, seed=51, fault=None)


@settings(max_examples=30, deadline=None)
@given(n0=st.integers(1, 80), steps=st.integers(0, 80), seed=st.integers(0, 10_000),
       fault=st.sampled_from([None, "skip-heal", "drop-black-edge"]))
@example(**REGISTERED_AND_RETIRED).via("a delete registers and retires a cloud")
def test_apply_by_color_difference_matches_full_strip_and_paint(n0, steps, seed, fault):
    _, registered_and_retired = assert_apply_parity(n0, steps, seed, fault)
    if dict(n0=n0, steps=steps, seed=seed, fault=fault) == REGISTERED_AND_RETIRED:
        assert registered_and_retired == [30]


def test_apply_parity_on_a_trace_that_splices_clouds():
    (diffed, full), _ = assert_apply_parity(200, 200, 1, None)
    assert diffed.counters.clouds_spliced > 0
    assert diffed.counters.edges_reused < full.counters.edges_reused


@settings(max_examples=30, deadline=None)
@given(n0=st.integers(1, 80), steps=st.integers(0, 80), seed=st.integers(0, 10_000),
       fault=st.sampled_from([None, "skip-heal", "drop-black-edge"]))
@example(**REGISTERED_AND_RETIRED).via("a delete registers and retires a cloud")
@example(n0=40, steps=60, seed=3, fault=None).via("rebuilds, merges and reuse")
def test_indexed_picks_match_the_scan_on_healer_states(n0, steps, seed, fault):
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), n0, steps, seed)
    healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges,
                                 ExpanderConfig(alpha_target=Fraction(1, 2)),
                                 random.Random(seed), fault=fault)
    picks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Plan, "_pick_free_node", checked_pick(Plan._pick_free_node, picks))
        for event in trace.events:
            try:
                healer.handle_event(event)
            except RetriesExhausted:
                break
            # the indexes, the set of free members among them, are coherent
            errors = coherence_errors(healer)
            assert [e for e in errors if "index" in e or " counts " in e] == []
    assert [got for got, want in picks if got != want] == []
    if dict(n0=n0, steps=steps, seed=seed, fault=fault) == REGISTERED_AND_RETIRED:
        assert len(picks) > 20
