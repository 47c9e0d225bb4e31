"""Cloud topology construction and edge-expansion certification.

Small member sets become cliques; larger ones become seeded random
kappa-regular graphs sampled with the pairing model and accepted only
once an expansion certificate clears the configured target.  A
topology is a frozen set of canonical edge keys.  A cloud designed from
a previous topology (one that lost a member, or a merge grown from its
largest cloud) is spliced before any draw, in one degree repair: a
departed member's kappa neighbours are re-paired with kappa/2 new edges
or give those edges to the first newcomer, and each further newcomer
subdivides kappa/2 vertex-disjoint edges.  The result must clear the
same certificate; only if it does not is the cloud drawn whole.  At every
size the first test is a spectral gate: one Cholesky factorization
proves lambda2 large enough that lambda2/2 clears the target (Cheeger),
with no eigensolve.  Only a draw that fails the gate is measured: by
the exact edge expansion when it has at most ``exact_limit`` nodes, by
the spectral lower bound lambda2/2 otherwise.  The exact expansion
enumerates every cut but keeps only the smallest cut count of each side
size, then minimizes count over small-side size in exact fractions; a
fixed block of 2^LOW_BLOCK_BITS tabulated cut masks bounds its memory at
every size it accepts.  A candidate is drawn and certified on positions
0..m-1 and mapped to member ids only once accepted.  The pairing shuffle
makes exactly the draws of ``random.Random.shuffle``, inlined (see
``partial_shuffle``).
"""
from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graph import EdgeKey


class ExpanderError(Exception):
    pass


class TooLarge(ExpanderError):
    pass


class ZeroNodes(ExpanderError):
    pass


class RetriesExhausted(ExpanderError):
    pass


class TopologyKind(Enum):
    CLIQUE = "clique"
    REGULAR_EXPANDER = "regular_expander"


# Largest graph expansion_exact enumerates.  Its memory is fixed by the
# low block, but its time doubles per node past it (tens of ms at 26).
HARD_ENUMERATION_CEILING = 26
# Nodes after the first whose cut masks expansion_exact tabulates at once.
LOW_BLOCK_BITS = 14
# Shuffles a splice tries before it gives up on pairing only non-neighbours.
SPLICE_TRIES = 8


@dataclass(frozen=True)
class ExpanderConfig:
    """Tuning knobs for cloud construction.

    ``kappa`` must be even (odd regular graphs are not realizable on odd
    member counts) and at least 4.  ``alpha_target`` is the expansion a
    non-clique cloud has to certify before it is accepted.
    ``exact_limit`` is the largest cloud certified by exact cut
    enumeration, at most HARD_ENUMERATION_CEILING.
    """

    kappa: int = 6
    alpha_target: Fraction = Fraction(1)
    exact_limit: int = 20
    max_retries: int = 64

    def __post_init__(self) -> None:
        if self.kappa < 4 or self.kappa % 2 != 0:
            raise ValueError(f"kappa must be even and >= 4, got {self.kappa}")
        if self.alpha_target <= 0:
            raise ValueError("alpha_target must be positive")
        if not 2 <= self.exact_limit <= HARD_ENUMERATION_CEILING:
            raise ValueError(f"exact_limit must be in [2, {HARD_ENUMERATION_CEILING}], "
                             f"got {self.exact_limit}")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


@dataclass(frozen=True)
class CloudTopology:
    """A cloud's edges and the expansion certificate they were accepted on.

    Frozen, with its edges a frozen set of canonical keys: registry
    copies and repair plans share one topology until a rebuild replaces
    it, and a rebuild's edge changes are set differences.
    """

    kind: TopologyKind
    edges: frozenset[EdgeKey]
    certified_expansion: Fraction


def expansion_exact(n: int, u: np.ndarray, v: np.ndarray, limit: int) -> Fraction:
    """Exact edge expansion of the graph on positions 0..n-1 whose edges
    ``(u[i], v[i])`` are listed once each: minimum over all cuts with the
    small side at most half the nodes of crossing-edge count over
    small-side size.

    Every unordered cut is visited once, as the side S containing the
    first node, and only the smallest cut count of each size |S| is
    kept: the expansion is the minimum over sizes s of
    ``min_cut[s] / min(s, n-s)``, compared in integers.  The next
    ``LOW_BLOCK_BITS`` nodes form a low block whose masks are tabulated
    once (size, cut count, and each node's neighbours inside), sorted by
    size; the other nodes are walked in Gray-code order, so each step
    toggles one node, moves every tabulated cut by twice that node's
    neighbours in the low part and takes one minimum per size.  Memory
    stays near n * 2^LOW_BLOCK_BITS small integers; time doubles per
    node beyond the block, so n is capped at HARD_ENUMERATION_CEILING
    regardless of *limit*.
    """
    if n < 2:
        raise ZeroNodes(f"expansion needs >= 2 nodes, got {n}")
    if n > min(limit, HARD_ENUMERATION_CEILING):
        raise TooLarge(f"{n} nodes exceeds exact enumeration limit "
                       f"{min(limit, HARD_ENUMERATION_CEILING)}")
    deg = (np.bincount(u, minlength=n) + np.bincount(v, minlength=n)).tolist()
    twice_adj = np.zeros((n, n), dtype=np.int16)  # what a joining neighbour adds
    twice_adj[u, v] = twice_adj[v, u] = 2

    # low mask m encodes S(m) = {0} union {b+1 : bit b of m set}
    low = min(n - 1, LOW_BLOCK_BITS)
    width = 1 << low
    sizes = np.empty(width, dtype=np.int16)
    cut = np.empty(width, dtype=np.int16)
    twice_inside = np.empty((n, width), dtype=np.int16)  # 2 * |N(y) & S(m)| at [y, m]
    sizes[0] = 1
    cut[0] = deg[0]
    twice_inside[:, 0] = twice_adj[:, 0]
    for b in range(low):
        lo = 1 << b
        node = b + 1
        np.add(sizes[:lo], 1, out=sizes[lo:2 * lo])
        np.subtract(cut[:lo], twice_inside[node, :lo], out=cut[lo:2 * lo])
        cut[lo:2 * lo] += deg[node]
        np.add(twice_inside[:, :lo], twice_adj[:, node:node + 1],
               out=twice_inside[:, lo:2 * lo])

    by_size = np.argsort(sizes, kind="stable")
    starts = np.searchsorted(sizes[by_size], np.arange(1, low + 2))
    steps = twice_inside[low + 1:, by_size]

    # high node low+1+b joins S with bit b of h; H(h) is that high part
    # and h_cut its own cut count.  cur[m] is the cut count of S(m) less
    # twice its edges to H(h), which both counts hold but which do not
    # cross, so cut(S(m) | H(h)) = cur[m] + h_cut.
    cur = cut[by_size]
    high = n - 1 - low
    # bit b of hi_nbrs[c] is set when high nodes b and c are neighbours
    hi_nbrs = ((twice_adj[low + 1:, low + 1:] > 0) @ (1 << np.arange(high))).tolist()
    min_cut = np.full(n + 1, n * n, dtype=np.int32)  # above any cut count
    h = h_cut = 0
    for step in range(1 << high):
        if step:
            b = (step & -step).bit_length() - 1
            gain = deg[low + 1 + b] - 2 * (hi_nbrs[b] & h).bit_count()
            h ^= 1 << b
            if h >> b & 1:
                h_cut += gain
                cur -= steps[b]
            else:
                h_cut -= gain
                cur += steps[b]
        size = h.bit_count()
        per_size = min_cut[size + 1:size + low + 2]
        np.minimum(per_size, np.minimum.reduceat(cur, starts) + h_cut, out=per_size)

    # smallest min_cut[s] / min(s, n-s), compared by cross-multiplying
    best_cut, best_side = n * n, 1
    for s, c in enumerate(min_cut[1:n].tolist(), start=1):
        side = min(s, n - s)
        if c * best_side < best_cut * side:
            best_cut, best_side = c, side
    return Fraction(best_cut, best_side)


def _cheeger_lower_bound(n: int, u: np.ndarray, v: np.ndarray) -> Fraction:
    """lambda2/2 of the graph on positions 0..n-1 with edges
    ``(u[i], v[i])``, as a conservative exact rational.

    The eigenvalue itself is floating point; rounding down at 32
    fractional bits keeps the certificate a valid lower bound well below
    the solver tolerance.
    """
    from .metrics import lambda2_of_adjacency  # deferred: metrics imports us

    lam = lambda2_of_adjacency(n, u, v)
    safe = max(0.0, lam - 1e-8)
    return Fraction(int(safe * (1 << 32)), 1 << 33)


def _spectral_gate(n: int, u: np.ndarray, v: np.ndarray, alpha: Fraction) -> bool:
    """Whether ``_cheeger_lower_bound(n, u, v) >= alpha``, decided by
    one Cholesky factorization instead of an eigensolve.

    That bound clears *alpha* exactly when lambda2 >= s, with s =
    ceil(alpha * 2^33) / 2^32 + 1e-8 undoing its rounding.  With L the
    Laplacian and J the all-ones matrix, M = L + ((s+1)/n) J - s I maps
    the all-ones vector to itself and every other eigenvector of L to
    (lambda_i - s) times it, so M is positive definite, and factors,
    exactly when lambda2 > s: the two tests differ only on an exact tie.
    A disconnected graph has lambda2 = 0 and never passes.
    """
    s = math.ceil(alpha * (1 << 33)) / (1 << 32) + 1e-8
    shift = (s + 1) / n
    gram = np.full((n, n), shift)
    gram[u, v] = gram[v, u] = shift - 1.0
    gram.flat[::n + 1] += np.bincount(u, minlength=n) + np.bincount(v, minlength=n) - s
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _gate_certificate(m: int, u: np.ndarray, v: np.ndarray, cfg: ExpanderConfig) -> Fraction:
    """Expansion certificate of the graph on positions 0..m-1 with edges
    ``(u[i], v[i])``, measured only as far as the acceptance gate needs.

    The spectral gate runs first at every size and, when it passes,
    ``alpha_target`` itself is the certificate: the gate proved it, and
    no eigenvalue is computed.  A graph that fails the gate is measured
    for the retry message: exactly by cut enumeration when m is at most
    ``exact_limit`` (a small graph can clear the target on cuts that
    lambda2 cannot prove), by lambda2/2 otherwise.  Every certificate is
    a lower bound on the true expansion, so a disconnected graph
    (expansion 0) never clears the positive target.
    """
    if _spectral_gate(m, u, v, cfg.alpha_target):
        return cfg.alpha_target
    if m <= cfg.exact_limit:
        return expansion_exact(m, u, v, limit=cfg.exact_limit)
    return _cheeger_lower_bound(m, u, v)


def partial_shuffle(items: list, count: int, rng: random.Random) -> None:
    """Fisher-Yates from the back over the last *count* positions: each
    takes a uniform pick from itself and the positions before it.

    The draws are CPython's ``_randbelow_with_getrandbits``, made inline
    to save two method calls a swap, with the bit width worked out once
    for each run of positions that shares it.  ``count = len(items) - 1``
    is exactly ``rng.shuffle(items)``; ``count = k`` makes the draws of
    ``rng.sample(items, k)`` when it keeps a pool, and leaves its picks,
    in reverse order, in the last k positions.
    """
    getrandbits = rng.getrandbits
    i, stop = len(items) - 1, len(items) - 1 - count
    while i > stop:
        bits = (i + 1).bit_length()
        low = max(stop, (1 << (bits - 1)) - 2)
        for i in range(i, low, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        i = low


def _pairing_attempt(n: int, kappa: int, rng: random.Random) -> set[tuple[int, int]] | None:
    """One pairing-model draw of a simple kappa-regular graph on
    0..n-1, rematching clashing stubs; None when the draw dead-ends."""

    def suitable(edges: set[tuple[int, int]], potential: dict[int, int]) -> bool:
        if not potential:
            return True
        stubs = list(potential)
        for i, s1 in enumerate(stubs):
            for s2 in stubs[i + 1:]:
                if (min(s1, s2), max(s1, s2)) not in edges:
                    return True
        return False

    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * kappa
    rounds = 0
    while stubs:
        rounds += 1
        if rounds > 200:
            return None
        potential: dict[int, int] = defaultdict(int)
        partial_shuffle(stubs, len(stubs) - 1, rng)  # rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential[s1] += 1
                potential[s2] += 1
        if not suitable(edges, potential):
            return None
        stubs = [node for node, count in potential.items() for _ in range(count)]
    return edges


def _splice(previous: CloudTopology, ranked: list[int], cfg: ExpanderConfig,
            rng: random.Random) -> CloudTopology | None:
    """Mend *previous*, a kappa-regular cloud topology whose members all
    stay, into one on the sorted members *ranked*, or return None.

    A member one edge short lost a neighbour that left; a newcomer is a
    member with no edge yet.  Exactly kappa short members (one member
    left) or none, and any newcomers, are mended in one degree repair:
    * kappa short members and no newcomer are shuffled and joined in
      adjacent pairs, kappa/2 new edges; a shuffle that pairs two
      existing neighbours is redone, up to SPLICE_TRIES times;
    * with newcomers, the first takes the short members' kappa edges,
      as a replacement joining in the departed member's place;
    * each further newcomer x subdivides kappa/2 random vertex-disjoint
      edges: (a, b) goes, (a, x) and (x, b) come.  An edge whose ends
      clash with one already picked is redrawn, up to SPLICE_TRIES
      times.
    Any other shape, a clash on every try, or a result that fails the
    gate of ``_gate_certificate`` gives None.  An accepted result is
    simple, kappa-regular on exactly *ranked*, and keeps every edge of
    *previous* it did not subdivide.
    """
    kappa, m = cfg.kappa, len(ranked)
    ids = np.array(ranked, dtype=np.int64)
    ends = np.fromiter(itertools.chain.from_iterable(previous.edges), dtype=np.int64,
                       count=2 * len(previous.edges)).reshape(-1, 2)
    pos = np.minimum(np.searchsorted(ids, ends), m - 1)
    if not (ids[pos] == ends).all():
        return None  # an edge leaves the member set
    deg = np.bincount(pos.ravel(), minlength=m)
    short = np.flatnonzero(deg == kappa - 1).tolist()
    newcomers = np.flatnonzero(deg == 0).tolist()
    if (len(short) not in (0, kappa) or not (short or newcomers)
            or len(short) + len(newcomers) < np.count_nonzero(deg != kappa)):
        return None
    if not newcomers:
        for _ in range(SPLICE_TRIES):
            partial_shuffle(short, kappa - 1, rng)  # rng.shuffle(short)
            it = iter(short)
            pairs = [(a, b) if a < b else (b, a) for a, b in zip(it, it)]
            if previous.edges.isdisjoint((ranked[a], ranked[b]) for a, b in pairs):
                break
        else:
            return None
    else:
        pairs = [(a, newcomers[0]) if a < newcomers[0] else (newcomers[0], a)
                 for a in short]
        if short:
            del newcomers[0]
    codes = pos[:, 0] * m + pos[:, 1]  # edge (a, b), a < b, as a * m + b
    added = [a * m + b for a, b in pairs]
    gone: set[int] = set()
    if newcomers:
        kept = _subdivide(sorted(codes.tolist()) + added, newcomers, m, kappa, rng)
        if kept is None:
            return None
        before, after = set(codes.tolist()), set(kept)
        gone, added = before - after, after - before
        codes = np.array(kept, dtype=np.int64)
    else:
        codes = np.concatenate([codes, np.array(added, dtype=np.int64)])
    cert = _gate_certificate(m, *np.divmod(codes, m), cfg)
    if cert < cfg.alpha_target:
        return None
    edges = previous.edges.difference((ranked[c // m], ranked[c % m]) for c in gone)
    return CloudTopology(TopologyKind.REGULAR_EXPANDER,
                         edges.union((ranked[c // m], ranked[c % m]) for c in added), cert)


def _subdivide(codes: list[int], newcomers: list[int], m: int, kappa: int,
               rng: random.Random) -> list[int] | None:
    """The edges of the graph on positions 0..m-1 whose edges (a, b),
    a < b, are the codes ``a * m + b`` of *codes*, after each of
    *newcomers* in turn subdivides kappa/2 random vertex-disjoint edges:
    (a, b) goes, (a, x) and (x, b) come.  An edge whose ends clash with
    one already picked is redrawn, up to SPLICE_TRIES times; None when
    every try clashes."""
    codes = list(codes)
    for x in newcomers:
        picked: list[int] = []
        touched: list[int] = []
        for _ in range(kappa // 2):
            for _ in range(SPLICE_TRIES):
                i = rng.randrange(len(codes))
                a, b = divmod(codes[i], m)
                if a not in touched and b not in touched:
                    break
            else:
                return None
            touched += (a, b)
            picked.append(i)
        for i in sorted(picked, reverse=True):  # swap each with the last, then drop it
            codes[i] = codes[-1]
            codes.pop()
        codes.extend(end * m + x if end < x else x * m + end for end in touched)
    return codes


def build_topology(
    members: Sequence[int], cfg: ExpanderConfig, rng: random.Random,
    previous: CloudTopology | None = None,
) -> tuple[CloudTopology, bool]:
    """Design the edge set of a cloud over *members*; the flag says
    whether it was spliced from *previous* instead of drawn.

    Up to kappa+1 members the cloud is a clique (its exact expansion is
    recorded but never gated).  Beyond that, when *previous* is the
    cloud's regular-expander topology less one departed member, a splice
    that re-pairs that member's neighbours is tried first (see
    ``_splice``).  Otherwise, or when the splice fails, simple
    kappa-regular candidates are sampled until one certifies expansion
    at least ``alpha_target``, which also proves it connected; the cloud
    records that certificate: ``alpha_target`` after a spectral gate
    pass, the exact expansion after an exact one.  Deterministic for a
    fixed rng state.
    """
    ordered = list(members)
    if len(set(ordered)) != len(ordered):
        raise ValueError("cloud members must be distinct")
    m = len(ordered)
    ranked = sorted(ordered)

    if m <= cfg.kappa + 1:
        edges = frozenset(itertools.combinations(ranked, 2))
        # a clique's minimum cut ratio is attained by a half split:
        # |S|*(m-|S|)/|S| = m - |S|, smallest at |S| = floor(m/2)
        cert = Fraction(0) if m < 2 else Fraction(m - m // 2)
        return CloudTopology(TopologyKind.CLIQUE, edges, cert), False

    if previous is not None and previous.kind is TopologyKind.REGULAR_EXPANDER:
        spliced = _splice(previous, ranked, cfg, rng)
        if spliced is not None:
            return spliced, True

    best = Fraction(0)  # a draw that dead-ends certifies nothing
    for _ in range(cfg.max_retries):
        idx_edges = _pairing_attempt(m, cfg.kappa, rng)
        if idx_edges is None:
            continue
        # certified on positions 0..m-1: ranked is sorted, so mapping
        # positions to members keeps the order, the Laplacian and every cut
        ends = np.fromiter(itertools.chain.from_iterable(idx_edges), dtype=np.intp,
                           count=2 * len(idx_edges))
        cert = _gate_certificate(m, ends[0::2], ends[1::2], cfg)
        if cert >= cfg.alpha_target:
            edges = frozenset((ranked[i], ranked[j]) for i, j in idx_edges)
            return CloudTopology(TopologyKind.REGULAR_EXPANDER, edges, cert), False
        best = max(best, cert)
    # lambda2/2 of large random kappa-regular graphs tends to this (Friedman, Alon-Boppana)
    ceiling = (cfg.kappa - 2 * (cfg.kappa - 1) ** 0.5) / 2
    raise RetriesExhausted(
        f"no {cfg.kappa}-regular candidate on {m} nodes certified "
        f"expansion >= {cfg.alpha_target} within {cfg.max_retries} tries "
        f"(best certificate {float(best):.3f}; large random {cfg.kappa}-regular "
        f"ceiling (kappa-2*sqrt(kappa-1))/2 = {ceiling:.3f})"
    )
