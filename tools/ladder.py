"""Seed ladder: replay one uniform trace per seed, engine only, and print
one JSON line per seed.

Usage, from the root of a checkout:

    python tools/ladder.py --n0 200 --steps 400 --alpha 1 --seeds 0-119 [--kappa 6]

Seed s replays the trace of ``xhealsim gen --strategy uniform --n0 N
--steps T --seed s`` (insert fraction 0.4) through a healer keyed as
``xhealsim run --seed s`` keys it, with no checkpoint.  ``--alpha``
takes a fraction p/q; ``--seeds`` takes ranges and lists, as in
``0-39`` or ``1,5,9-12``.  Each line holds the seed and its ``exit``: 0,
or 3 with the ``event`` whose cloud failed to certify and that cloud's
``size``.  Then the repair counters ``branch_*``, ``clouds_built``,
``merges``, ``bridges_borrowed`` and ``free_node_misses``, and the
number of ``budget_errors`` and ``coherence_errors`` lines summed over
the state after every event applied (these recount the registry's and
the shadow's indexes too), the ``membership`` digest of
those states (``Membership``), which ``tests/test_golden.py`` pins, and
the ``design`` digest of their cloud edges and certificates (``Design``).
Cloud membership does not depend on the draws, so a change that moves
only draws leaves every counter but ``exit``, and the membership digest,
equal seed by seed, as long as both sides run the same events; the
design digest shows whether it moved a draw.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from xhealsim.adversary import Strategy, gen_trace  # noqa: E402
from xhealsim.engine import Healer, budget_errors, coherence_errors  # noqa: E402
from xhealsim.expander import ExpanderConfig, RetriesExhausted  # noqa: E402

COUNTERS = ("branch_all_black", "branch_primary", "branch_secondary", "clouds_built",
            "merges", "bridges_borrowed", "free_node_misses")


class Membership:
    """sha256 over a run's events of the membership after each: the
    multiset of (kind, sorted members) over the live clouds and each
    bridge entry as (its node, its secondary's and its primary's member
    sets), and nothing of the clouds' edges or ids.  A cloud is hashed
    only when ``registry.clouds`` holds another object for its id than
    at the last ``update``: the registry replaces a cloud it changes and
    shares every other."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.seen: dict = {}
        self.names: dict[int, str] = {}  # cloud id -> digest of (kind, sorted members)

    def update(self, registry) -> None:
        clouds, names = registry.clouds, self.names
        for cid in names.keys() - clouds.keys():
            del names[cid]
        for cid, cloud in clouds.items():
            if self.seen.get(cid) is not cloud:
                text = f"{cloud.kind.value}:{sorted(cloud.members)}"
                names[cid] = hashlib.sha256(text.encode()).hexdigest()
        self.seen = dict(clouds)
        entries = sorted(f"{node}:{names[f]}:{names[c]}"
                         for node, (f, c) in registry.bridges.items())
        self.digest.update(f"{','.join(sorted(names.values()))}/{','.join(entries)}\n".encode())

    def hexdigest(self) -> str:
        return self.digest.hexdigest()


class Design:
    """sha256 over a run's events of the clouds each event changed: the
    id, sorted edges and certificate of every cloud that
    ``registry.clouds`` holds another object for than at the last
    ``update``, as ``Membership`` finds them, in id order."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.seen: dict = {}

    def update(self, registry) -> None:
        clouds = registry.clouds
        for cid in sorted(clouds):
            cloud = clouds[cid]
            if self.seen.get(cid) is not cloud:
                topology = cloud.topology
                self.digest.update(f"{cid}:{sorted(topology.edges)}:"
                                   f"{topology.certified_expansion}\n".encode())
        self.seen = dict(clouds)
        self.digest.update(b"/\n")

    def hexdigest(self) -> str:
        return self.digest.hexdigest()


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_seed(n0: int, steps: int, cfg: ExpanderConfig, seed: int) -> dict:
    trace = gen_trace(Strategy("uniform", insert_fraction=0.4), n0, steps, seed,
                      kappa=cfg.kappa)
    healer = Healer.from_initial(trace.initial_nodes, trace.initial_edges, cfg,
                                 random.Random(f"{seed}/engine"))
    line: dict = {"seed": seed, "exit": 0}
    budget = coherence = 0
    membership, design = Membership(), Design()
    for t, event in enumerate(trace.events, start=1):
        try:
            healer.handle_event(event)
        except RetriesExhausted as exc:
            line.update(exit=3, event=t, size=exc.size)
            break
        budget += len(budget_errors(healer))
        coherence += len(coherence_errors(healer))
        membership.update(healer.registry)
        design.update(healer.registry)
    line.update({name: getattr(healer.counters, name) for name in COUNTERS})
    line.update(budget_errors=budget, coherence_errors=coherence,
                membership=membership.hexdigest(), design=design.hexdigest())
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n0", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--alpha", type=Fraction, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--kappa", type=int, default=ExpanderConfig.kappa)
    args = parser.parse_args(argv)
    cfg = ExpanderConfig(kappa=args.kappa, alpha_target=args.alpha)
    for seed in args.seeds:
        print(json.dumps(run_seed(args.n0, args.steps, cfg, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
