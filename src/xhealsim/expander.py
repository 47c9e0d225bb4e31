"""Cloud topology construction and edge-expansion certification.

Small member sets become cliques; larger ones become seeded random
kappa-regular graphs sampled with the pairing model and accepted only
once an expansion certificate clears the configured target.  Up to
2*kappa members the draw is of the complement: a simple
(m-1-kappa)-regular graph, whose missing pairs are the cloud's edges.  A
graph is simple kappa-regular exactly when its complement is simple
(m-1-kappa)-regular.  A pairing draw shuffles its stubs once; each pair
that clashes, a loop or a repeated edge, is placed by a double-edge
switch (``_switch_in``), as switchings repair a pairing in McKay and
Wormald (J. Algorithms 1990), not redrawn.  A topology is a frozen set
of canonical edge keys and its certificate; its cloud's size decides
its design.  A cloud designed from a previous topology (one that lost a
member, or a merge grown from its largest non-clique cloud) is spliced
before any draw, in one degree repair: a departed member's kappa
neighbours are re-paired with kappa/2 new edges, a matching searched for
among them, or give those edges to the first newcomer, and each further
newcomer is placed by the same switch as kappa/2 pairs of its own
stubs, each subdividing one edge.  The result must clear the same
certificate; the cloud is drawn whole only when no splice the search
finds clears it.  Every
candidate, drawn, complemented or spliced, is kappa-regular by
construction, so the gate takes the degree instead of counting it.  At
every size the first test is that spectral gate, which proves lambda2
large enough that lambda2/2 clears the target (Cheeger) with no
eigensolve: by the closed form lambda2 >= 2*kappa + 2 - m where that
suffices, before any array is built, and by one Cholesky factorization
otherwise.  Only
a draw that fails the gate is measured: by the exact edge expansion
when it has at most ``exact_limit`` nodes, by the spectral lower bound
lambda2/2 otherwise.  The exact expansion
enumerates every cut but keeps only the smallest cut count of each side
size, then minimizes count over small-side size in exact fractions; a
fixed block of 2^LOW_BLOCK_BITS tabulated cut masks bounds its memory at
every size it accepts.  A candidate is drawn and certified on positions
0..m-1 and mapped to member ids only once accepted.  The pairing shuffle
makes exactly the draws of ``random.Random.shuffle``, inlined (see
``partial_shuffle``); it is the one stdlib draw the package inlines.
``lambda2_of_adjacency`` is the one Laplacian eigensolve, shared by the
certificates here and the checkpoint metric ``metrics.lambda2``.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graph import EdgeKey


class ExpanderError(Exception):
    pass


class TooLarge(ExpanderError):
    pass


class ZeroNodes(ExpanderError):
    pass


class RetriesExhausted(ExpanderError):
    """No candidate certified the cloud of ``size`` members; ``best`` is their best certificate."""

    def __init__(self, message: str, size: int, best: Fraction) -> None:
        super().__init__(message)
        self.size, self.best = size, best

    def __reduce__(self):
        # a --jobs worker's exception is pickled back to the parent
        return type(self), (self.args[0], self.size, self.best)


# Largest graph expansion_exact enumerates.  Its memory is fixed by the
# low block, but its time doubles per node past it (tens of ms at 26).
HARD_ENUMERATION_CEILING = 26
# Nodes after the first whose cut masks expansion_exact tabulates at once.
LOW_BLOCK_BITS = 14
# Matchings a splice gates before it gives up; its matching search makes
# SPLICE_TRIES * kappa partner tries.
SPLICE_TRIES = 8


@dataclass(frozen=True)
class ExpanderConfig:
    """Tuning knobs for cloud construction.

    ``kappa`` must be even (odd regular graphs are not realizable on odd
    member counts) and at least 4.  ``alpha_target`` is the expansion a
    non-clique cloud has to certify before it is accepted, at most
    kappa(kappa+4)/(2(kappa+2)): 3.75 at kappa 6, 8/3 at kappa 4.  No
    non-clique cloud can certify more.  A kappa-regular graph on m nodes
    has kappa*m/2 edges, and a uniformly random split into sides of
    floor(m/2) and ceil(m/2) nodes cuts each edge with probability
    2*floor(m/2)*ceil(m/2)/(m(m-1)), so some such split cuts at most
    kappa*floor(m/2)*ceil(m/2)/(m-1) edges: a ratio of at most
    kappa*ceil(m/2)/(m-1) over its smaller side.  That ratio falls with m
    along the odd sizes and along the even ones, and at the non-clique
    sizes m >= kappa+2 it peaks at m = kappa+3.  ``exact_limit`` is the
    largest cloud certified by exact cut enumeration, at most
    HARD_ENUMERATION_CEILING.
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
        ceiling = Fraction(self.kappa * (self.kappa + 4), 2 * (self.kappa + 2))
        if self.alpha_target > ceiling:
            raise ValueError(f"alpha_target {self.alpha_target} exceeds {ceiling}, the most "
                             f"a non-clique {self.kappa}-regular cloud can certify")
        if not 2 <= self.exact_limit <= HARD_ENUMERATION_CEILING:
            raise ValueError(f"exact_limit must be in [2, {HARD_ENUMERATION_CEILING}], "
                             f"got {self.exact_limit}")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

    @cached_property
    def gate_threshold(self) -> float:
        """The spectral gate's threshold s, worked out once: the smallest
        lambda2 that the rounded bound of ``_cheeger_lower_bound`` accepts
        at ``alpha_target``, ceil(alpha * 2^33) / 2^32 + 1e-8 undoing its
        rounding."""
        return math.ceil(self.alpha_target * (1 << 33)) / (1 << 32) + 1e-8


@dataclass(frozen=True)
class CloudTopology:
    """A cloud's edges and the expansion certificate they were accepted on.

    Frozen, with its edges a frozen set of canonical keys: a cloud and
    the prior value a plan's journal keeps of it share one topology until
    a rebuild replaces it, and a rebuild's edge changes are set
    differences.  Its cloud's
    size, or its edges (``is_clique``), tell a clique from an expander.
    """

    edges: frozenset[EdgeKey]
    certified_expansion: Fraction


def is_clique(topology: CloudTopology) -> bool:
    """Whether *topology* joins every two of its edges' endpoints; the
    empty topology does."""
    ends = {x for edge in topology.edges for x in edge}
    return len(topology.edges) == len(ends) * (len(ends) - 1) // 2


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


def lambda2_of_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> float:
    """Second-smallest eigenvalue of the combinatorial Laplacian of the
    graph on positions 0..n-1 whose edges ``(u[i], v[i])`` are listed
    once each, via a dense symmetric eigensolver (documented tolerance
    ~1e-9)."""
    lap = np.zeros((n, n))
    lap[u, v] = lap[v, u] = -1.0
    np.fill_diagonal(lap, np.count_nonzero(lap, axis=1))
    return float(np.linalg.eigvalsh(lap)[1])


def _cheeger_lower_bound(n: int, u: np.ndarray, v: np.ndarray) -> Fraction:
    """lambda2/2 of the graph on positions 0..n-1 with edges
    ``(u[i], v[i])``, as a conservative exact rational.

    The eigenvalue itself is floating point; rounding down at 32
    fractional bits keeps the certificate a valid lower bound well below
    the solver tolerance.
    """
    lam = lambda2_of_adjacency(n, u, v)
    safe = max(0.0, lam - 1e-8)
    return Fraction(int(safe * (1 << 32)), 1 << 33)


def _edge_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays ``u, v`` of the position pairs *pairs*."""
    ends = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.intp,
                       count=2 * len(pairs))
    return ends[0::2], ends[1::2]


def _spectral_gate(n: int, degree: int, pairs, s: float) -> bool:
    """Whether the *degree*-regular graph on positions 0..n-1 with edges
    *pairs* has lambda2 > s, s = ``ExpanderConfig.gate_threshold``,
    which is ``_cheeger_lower_bound >= alpha_target`` but on an exact
    tie.  Decided in closed form where the degree suffices, before any
    array is built, and by one Cholesky factorization otherwise, never
    by an eigensolve.

    With L the Laplacian and J the all-ones matrix, M = L + ((s+1)/n) J -
    s I maps the all-ones vector to itself and every other eigenvector
    of L to (lambda_i - s) times it, so M is positive definite, and
    factors, exactly when lambda2 > s.  A disconnected graph has
    lambda2 = 0 and never passes.

    The closed form: L(G) + L(H) = nI - J for the complement H, which is
    (n-1-degree)-regular, and the largest Laplacian eigenvalue of H is
    at most twice that degree.  So every eigenvector of L(G) orthogonal
    to the all-ones vector has eigenvalue at least n - 2(n-1-degree) =
    2*degree + 2 - n, and when that exceeds s the factorization would
    succeed; the gate passes without it.
    """
    if 2 * degree + 2 - n > s:
        return True
    u, v = _edge_arrays(pairs)
    shift = (s + 1) / n
    gram = np.full((n, n), shift)
    gram[u, v] = gram[v, u] = shift - 1.0
    gram.flat[::n + 1] += degree - s
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _gate_certificate(m: int, pairs, cfg: ExpanderConfig) -> Fraction:
    """Expansion certificate of the kappa-regular graph on positions
    0..m-1 with edges *pairs*, measured only as far as the acceptance
    gate needs.

    The spectral gate runs first at every size and, when it passes,
    ``alpha_target`` itself is the certificate: the gate proved it, in
    closed form or by a factorization, and no eigenvalue is computed.  A
    graph that fails the gate is measured for the retry message: exactly
    by cut enumeration when m is at most ``exact_limit`` (a small graph
    can clear the target on cuts that lambda2 cannot prove), by
    lambda2/2 otherwise.  Every certificate is a lower bound on the true
    expansion, so a disconnected graph (expansion 0) never clears the
    positive target.
    """
    if _spectral_gate(m, cfg.kappa, pairs, cfg.gate_threshold):
        return cfg.alpha_target
    if m <= cfg.exact_limit:
        return expansion_exact(m, *_edge_arrays(pairs), limit=cfg.exact_limit)
    return _cheeger_lower_bound(m, *_edge_arrays(pairs))


def partial_shuffle(items: list, rng: random.Random) -> None:
    """``rng.shuffle(items)``: Fisher-Yates from the back, each position
    swapped with a uniform pick from itself and the positions before it.

    The draws are CPython's ``_randbelow_with_getrandbits``, made inline
    to save two method calls a swap, with the bit width worked out once
    for each run of positions that shares it.
    """
    getrandbits = rng.getrandbits
    i = len(items) - 1
    while i > 0:
        bits = (i + 1).bit_length()
        low = (1 << (bits - 1)) - 2
        for i in range(i, low, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        i = low


def _pairing_attempt(n: int, degree: int, rng: random.Random) -> set[tuple[int, int]] | None:
    """One pairing-model draw of a simple *degree*-regular graph on
    0..n-1: the stubs are shuffled once and paired in order, and each
    pair that clashes, a loop or an edge already drawn, is placed by
    ``_switch_in``.  None when a clash finds no switch."""
    edges: set[tuple[int, int]] = set()
    clashes: list[int] = []
    stubs = list(range(n)) * degree
    partial_shuffle(stubs, rng)
    it = iter(stubs)
    for s1, s2 in zip(it, it):
        if s1 > s2:
            s1, s2 = s2, s1
        if s1 != s2 and (s1, s2) not in edges:
            edges.add((s1, s2))
        else:
            clashes += (s1, s2)
    return _switch_in(edges, clashes, rng) if clashes else edges


def _switch_in(edges: set[tuple[int, int]], stubs: list[int],
               rng: random.Random) -> set[tuple[int, int]] | None:
    """*edges* with the *stubs* placed two at a time by double-edge
    switches: stubs x and y (one node twice, or two nodes already
    joined) and an edge (a, b) whose ends are neither x nor y and where
    x, a and y, b are not neighbours yet become (x, a) and (y, b).  The
    edge is the first that fits, scanning from a random one, in either
    orientation.  Each end of the edge keeps its degree, so a simple
    graph stays simple and each stub placed is one edge end.  On the
    pair (x, x) the switch is a subdivision: (a, b) goes, (x, a) and
    (x, b) come.  None when no edge fits.

    A newcomer x, placed as kappa/2 pairs (x, x) into a graph with more
    than kappa-2 nodes of degree kappa, always finds an edge.  Before
    each of its switches x has at most kappa-2 neighbours, so some node
    a of degree kappa lies outside N[x], x and its neighbours.  None of
    a's kappa neighbours is x and at most kappa-2 of them neighbour x,
    so a keeps a neighbour b outside N[x], and the edge (a, b) fits.  A
    splice meets that premise: by then every member but the newcomers
    still to place has degree kappa, and one such member with its kappa
    neighbours already makes kappa+1.
    """
    pool = list(edges)
    it = iter(stubs)
    for x, y in zip(it, it):
        start = rng.randrange(len(pool)) if pool else 0
        for i in itertools.chain(range(start, len(pool)), range(start)):
            a, b = pool[i]
            if a in (x, y) or b in (x, y):
                continue
            xa, yb = (x, a) if x < a else (a, x), (y, b) if y < b else (b, y)
            if xa in edges or yb in edges:
                xa, yb = (x, b) if x < b else (b, x), (y, a) if y < a else (a, y)
                if xa in edges or yb in edges:
                    continue
            break
        else:
            return None
        edges.remove(pool[i])
        edges.add(xa)
        edges.add(yb)
        pool[i] = xa
        pool.append(yb)
    return edges


def _rematch(short: list[int], ranked: list[int], edges: frozenset[EdgeKey],
             probes: int):
    """Each perfect matching of the positions *short* that adds no edge
    of *edges* (keys over the members *ranked*), as a list of pairs
    (a, b), a < b, in first-fit order: the first unmatched position is
    tried against each later one in turn, backtracking on a dead end.
    Stops after *probes* partner tries.  When *short*'s adjacent pairs
    add no edge, they are the first matching."""
    left = probes
    matched: list[tuple[int, int]] = []

    def search(rest: list[int]):
        nonlocal left
        if not rest:
            yield list(matched)
            return
        a = rest[0]
        for k in range(1, len(rest)):
            if not left:
                return
            left -= 1
            pair = (a, rest[k]) if a < rest[k] else (rest[k], a)
            if (ranked[pair[0]], ranked[pair[1]]) in edges:
                continue
            matched.append(pair)
            yield from search(rest[1:k] + rest[k + 1:])
            matched.pop()

    return search(short)


def _splice(previous: CloudTopology, ranked: list[int], cfg: ExpanderConfig,
            rng: random.Random) -> CloudTopology | None:
    """Mend *previous*, a kappa-regular cloud topology whose members all
    stay, into one on the sorted members *ranked*, or return None.

    A member one edge short lost a neighbour that left; a newcomer is a
    member with no edge yet.  Exactly kappa short members (one member
    left) or none, and any newcomers, are mended in one degree repair:
    * kappa short members and no newcomer are shuffled once and joined
      by kappa/2 new edges, a perfect matching that pairs no two
      existing neighbours (``_rematch``, first-fit in shuffled order,
      at most SPLICE_TRIES*kappa partner tries); a matching that fails
      the gate hands over to the next one of the same search, up to
      SPLICE_TRIES gated matchings;
    * with newcomers, the first takes the short members' kappa edges,
      as a replacement joining in the departed member's place;
    * each further newcomer x is placed by ``_switch_in`` as kappa/2
      pairs (x, x) of its own stubs, each a subdivision: (a, b) goes,
      (a, x) and (x, b) come.  Such a switch always exists (see
      ``_switch_in``).
    Any other shape, a search with no matching, a newcomer no switch
    places, or results that all fail the gate of ``_gate_certificate``
    give None.  An accepted result is simple, kappa-regular on exactly
    *ranked*, and keeps every edge of *previous* that no switch removed.
    Newcomers are switched into sorted pairs, so no draw reads the edge
    set's layout, which differs between a live set and a loaded one.
    """
    kappa, m = cfg.kappa, len(ranked)
    index = {x: i for i, x in enumerate(ranked)}
    try:  # ranked is sorted, so a key (a, b), a < b, keeps its order
        pairs = [(index[a], index[b]) for a, b in previous.edges]
    except KeyError:
        return None  # an edge leaves the member set
    deg = [0] * m
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    short = [i for i, d in enumerate(deg) if d == kappa - 1]
    newcomers = [i for i, d in enumerate(deg) if d == 0]
    if (len(short) not in (0, kappa) or not (short or newcomers)
            or len(short) + len(newcomers) + deg.count(kappa) < m):
        return None
    if not newcomers:
        partial_shuffle(short, rng)
        matchings = _rematch(short, ranked, previous.edges, SPLICE_TRIES * kappa)
        candidates = ((set(), added, pairs + added)
                      for added in itertools.islice(matchings, SPLICE_TRIES))
    else:
        pairs.sort()  # the switch pool must not follow the edge set's layout
        before = set(pairs)
        if short:
            first = newcomers.pop(0)
            pairs += [(a, first) if a < first else (first, a) for a in short]
        grown = _switch_in(set(pairs), [x for x in newcomers for _ in range(kappa)], rng)
        candidates = [] if grown is None else [(before - grown, grown - before, grown)]
    for gone, added, graph in candidates:
        cert = _gate_certificate(m, graph, cfg)
        if cert >= cfg.alpha_target:
            edges = previous.edges.difference((ranked[a], ranked[b]) for a, b in gone)
            return CloudTopology(edges.union((ranked[a], ranked[b]) for a, b in added), cert)
    return None


def _clique(ranked: Sequence[int]) -> CloudTopology:
    """The clique on the sorted *ranked* with its exact expansion, which a
    half split attains: m - floor(m/2), and 0 below two members."""
    m = len(ranked)
    return CloudTopology(frozenset(itertools.combinations(ranked, 2)),
                         Fraction(m - m // 2 if m >= 2 else 0))


def topology_error(members: frozenset[int], topology: CloudTopology,
                   cfg: ExpanderConfig) -> str | None:
    """Why *topology* is not one ``build_topology`` could have designed
    on *members*, or None.

    A re-check of a design, for a loaded snapshot: up to kappa+1
    members the clique on them, certified m - floor(m/2) (0 below two
    members), as ``_clique`` states it; beyond, a simple kappa-regular
    graph on exactly *members* that clears
    ``alpha_target`` as the design did, by the spectral gate or, failing
    it, by the exact expansion up to ``exact_limit`` members.  One
    factorization at most.
    """
    ranked, edges = sorted(members), topology.edges
    m = len(ranked)
    if m <= cfg.kappa + 1:
        clique = _clique(ranked)
        if edges != clique.edges:
            return f"is not the clique on its {m} members"
        want, cert = clique.certified_expansion, topology.certified_expansion
        return None if cert == want else (
            f"records certificate {cert} for the clique on its {m} members, "
            f"whose expansion is {want}")
    index = {x: i for i, x in enumerate(ranked)}
    pairs = []
    for a, b in sorted(edges):
        if a == b or a not in index or b not in index:
            return f"has edge ({a},{b}), not a pair of its members"
        pairs.append((index[a], index[b]))
    deg = [0] * len(ranked)
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    for x, d in zip(ranked, deg):
        if d != cfg.kappa:
            return f"is not {cfg.kappa}-regular on its members: node {x} has degree {d}"
    cert = _gate_certificate(len(ranked), pairs, cfg)
    if cert < cfg.alpha_target:
        return f"re-certifies {float(cert):.3f}, below alpha_target {cfg.alpha_target}"
    return None


def build_topology(
    members: Iterable[int], cfg: ExpanderConfig, rng: random.Random,
    previous: CloudTopology | None = None,
) -> tuple[CloudTopology, bool]:
    """Design the edge set of a cloud over *members*; the flag says
    whether it was spliced from *previous* instead of drawn.

    Up to kappa+1 members the cloud is a clique (its exact expansion is
    recorded but never gated).  Beyond that, when *previous* has edges,
    a splice that mends it is tried first (``_splice`` refuses any
    shape it cannot mend).  Otherwise, or when the splice fails, simple
    kappa-regular candidates are sampled until one certifies expansion
    at least ``alpha_target``, which also proves it connected; the cloud
    records that certificate: ``alpha_target`` after a spectral gate
    pass, the exact expansion after an exact one.  Up to 2*kappa members
    a candidate is the complement of a pairing draw of degree
    m-1-kappa, which is below kappa there.  A draw gives no candidate
    only when a clash finds no switch (``_pairing_attempt``), which
    counts as one of the ``max_retries`` tries.  Deterministic for a fixed rng
    state.
    """
    ordered = list(members)
    if len(set(ordered)) != len(ordered):
        raise ValueError("cloud members must be distinct")
    m = len(ordered)
    ranked = sorted(ordered)

    if m <= cfg.kappa + 1:
        return _clique(ranked), False

    if previous is not None and previous.edges:
        spliced = _splice(previous, ranked, cfg, rng)
        if spliced is not None:
            return spliced, True

    every_pair = frozenset(itertools.combinations(range(m), 2)) if m <= 2 * cfg.kappa else None
    degree = cfg.kappa if every_pair is None else m - 1 - cfg.kappa
    best = Fraction(0)  # a draw with a clash left certifies nothing
    for _ in range(cfg.max_retries):
        idx_edges = _pairing_attempt(m, degree, rng)
        if idx_edges is None:
            continue
        if every_pair is not None:
            idx_edges = every_pair - idx_edges
        # certified on positions 0..m-1: ranked is sorted, so mapping
        # positions to members keeps the order, the Laplacian and every cut
        cert = _gate_certificate(m, idx_edges, cfg)
        if cert >= cfg.alpha_target:
            edges = frozenset((ranked[i], ranked[j]) for i, j in idx_edges)
            return CloudTopology(edges, cert), False
        best = max(best, cert)
    # lambda2/2 of large random kappa-regular graphs tends to this (Friedman, Alon-Boppana)
    ceiling = (cfg.kappa - 2 * (cfg.kappa - 1) ** 0.5) / 2
    raise RetriesExhausted(
        f"no {cfg.kappa}-regular candidate on {m} nodes certified "
        f"expansion >= {cfg.alpha_target} within {cfg.max_retries} tries "
        f"(best certificate {float(best):.3f}; large random {cfg.kappa}-regular "
        f"ceiling (kappa-2*sqrt(kappa-1))/2 = {ceiling:.3f})",
        m, best,
    )
