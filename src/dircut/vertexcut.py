"""Vertex-capacitated connectivity via the split-graph reduction.

A vertex-capacitated graph is modeled by an edge-capacitated one: each
vertex v becomes an arc (v_in, v_out) carrying v's capacity, and each
original arc (u, v) becomes an infinite arc (u_out, v_in).  Finite rooted
cuts in the split graph then consist purely of split arcs, which is what
lets an edge cut be read back as a vertex separator.

Rooted cuts run the edge module's probe and search drivers (``probe``,
``level_prober``, ``level_search``, ``integer_search``) with a prober on
the split graph (v_in = v, v_out = n + v): shared conditioning, the edge
sampler restricted to the admissible sinks, and sink sets mapped back to
vertex separators.  Rooted and global solves build that prober one way,
on the instance pruned for its root (``prune_for_root``).  A probe's
credit (``credit_closure``) is the one rule of ``RootedTopology``, which
passes an arc's credit on through the infinite arcs out of its head: a
cut below the threshold whose sink holds w_in holds u_out too for every
arc u→w, so a certified u_in credits its split arc to w_in, and the
root its conditioning arc into u_out.  Global cuts draw roots once in
proportion to capacity, as many as the slack below the trivial cut asks
for, and run one search over the ``union_prober`` of each distinct
root's instances in both orientations.  A global solve builds the
reversal once (``_reversal``) and hands it to every step.
Every mode answers a cut at the smallest positive capacity from the
preorder dominator tree of the graph module (``dominator_tree``),
without a flow, before it builds a prober.  Otherwise the approximate
modes search a geometric grid of levels, and the exact small-optimum
modes the capacity numerators k above that capacity, level k/scale at
tolerance 1/(1+k), so that every answer comes out exact.

The exact oracle runs at most one capped flow per admissible sink of a
root, in the edge module's sink loop (``capped_sinks``).  A sink needs no
flow once its in-neighbours among the root's out-neighbours and the sinks
already certified weigh at least the cap: those never lie in a sink of a
cut below the cap, so they lie in its separator.  Its global cut is the
deterministic form of that root draw: every vertex by decreasing
capacity, in both orientations, until the roots done weigh more than the
best cut so far.  One of them, r, then lies outside an optimal separator
W.  If r is on W's source side S, the forward run at r finds W's value.
If r is in W's sink U, no arc runs from S into U, so S's
in-neighbourhood in the reversal lies in W, and the reverse run does.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import attrgetter

from .edgecut import (
    CutResult,
    RootedTopology,
    as_fraction,
    capped_sinks,
    clamp_epsilon,
    condition_rooted,
    derive_seed,
    integer_search,
    level_prober,
    level_search,
    probe,
    _better,
    _edge_sample,
    _search_tail,
    _tag,
    _volume_schedule,
)
from .graph import DiGraph, NoCutExistsError, dominator_tree, max_adjacency_bound, reach
from .graph import _check_arc, _check_root, _check_shape


class VertexCapGraph:
    """Directed graph topology with exact scaled-integer vertex capacities.

    Arcs are ``(tail, head)`` pairs with dense vertex ids ``0..n-1``, and
    ``vcaps[v]`` is vertex v's capacity numerator at ``scale``.  The
    constructor validates outside input with the graph module's checks of
    the count, the scale and each arc (ints, not bools; no self-loops;
    parallel arcs permitted), plus one nonnegative int capacity per
    vertex.  Every graph the library derives from a validated one
    (``_normalize``, ``_reversal``, ``prune_for_root``) is built by
    ``_unchecked``.
    """

    __slots__ = ("n", "arcs", "vcaps", "scale")

    def __init__(self, n, arcs, vcaps, scale=1):
        _check_shape(n, scale)
        vcaps = tuple(vcaps)
        if len(vcaps) != n:
            raise ValueError("need one capacity per vertex")
        for v, c in enumerate(vcaps):
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"vertex {v}: capacity must be a nonnegative int")
        arcs = tuple(arcs)
        for i, (u, v) in enumerate(arcs):
            _check_arc(i, u, v, n)
        self.n, self.arcs, self.vcaps, self.scale = n, arcs, vcaps, scale

    @classmethod
    def _unchecked(cls, n, arcs, vcaps, scale) -> "VertexCapGraph":
        """The graph on ``range(n)`` with the arcs ``arcs``, stored as a
        tuple, and the tuple ``vcaps`` at ``scale``.  Nothing is checked:
        the caller derives it from a validated graph and passes that
        graph's ``vcaps``."""
        g = cls.__new__(cls)
        g.n, g.arcs, g.vcaps, g.scale = n, tuple(arcs), vcaps, scale
        return g

    @property
    def m(self) -> int:
        return len(self.arcs)

    def value(self, numerator: int) -> Fraction:
        return Fraction(numerator, self.scale)

    def out_neighbors(self, v):
        return frozenset(h for t, h in self.arcs if t == v)

    def __eq__(self, other):
        return (
            isinstance(other, VertexCapGraph)
            and (self.n, self.arcs, self.vcaps, self.scale)
            == (other.n, other.arcs, other.vcaps, other.scale)
        )

    def __hash__(self):
        return hash((self.n, self.arcs, self.vcaps, self.scale))

    def __repr__(self):
        return f"VertexCapGraph(n={self.n}, m={self.m}, scale={self.scale})"


@dataclass(frozen=True)
class VertexCutCertificate:
    """Separator W with its sink component U, N-in(U) == W exactly.

    ``orientation`` records whether the certificate refers to the input
    graph or its reversal (global modes try both).
    """

    separator: frozenset
    sink_component: frozenset
    value: Fraction
    orientation: str = "forward"

    @property
    def rank(self) -> tuple:
        """Key of the deterministic order among vertex cuts: value, then
        separator size, sorted separator, sorted sink and orientation."""
        return (self.value, len(self.separator), tuple(sorted(self.separator)),
                tuple(sorted(self.sink_component)), self.orientation)


def split_transform(g: VertexCapGraph) -> DiGraph:
    """Edge-capacitated model on 2n vertices, v_in = v and v_out = n + v:
    the finite arc (v_in, v_out) of each vertex v, in vertex order, then
    the infinite arc (u_out, v_in) of each original arc (u, v).  Every
    ``VertexCapGraph`` was validated or derived from a validated one, so
    its endpoints and capacities are sound and the graph is built
    unchecked (``DiGraph._unchecked``)."""
    tails, heads = zip(*g.arcs) if g.arcs else ((), ())
    return DiGraph._unchecked(2 * g.n, [*range(g.n), *[g.n + u for u in tails]],
                              [*range(g.n, 2 * g.n), *heads], [*g.vcaps, *[0] * g.m], g.scale,
                              frozenset(range(g.n, g.n + g.m)))


def _normalize(g: VertexCapGraph) -> VertexCapGraph:
    """Deduplicate parallel arcs; topology duplicates carry no information."""
    return VertexCapGraph._unchecked(g.n, sorted(set(g.arcs)), g.vcaps, g.scale)


def _reversal(g: VertexCapGraph) -> VertexCapGraph:
    """``g`` with every arc reversed, which a global solve builds once."""
    return VertexCapGraph._unchecked(g.n, [(v, u) for u, v in g.arcs], g.vcaps, g.scale)


def _sink_certificate(g: VertexCapGraph, component: frozenset) -> VertexCutCertificate:
    """The vertex cut of a sink component: its in-neighborhood, valued at
    the raw vertex capacities."""
    separator = frozenset(u for u, v in g.arcs if v in component and u not in component)
    value = Fraction(sum(g.vcaps[w] for w in separator), g.scale)
    return VertexCutCertificate(separator, component, value)


def _admissible_sinks(g: VertexCapGraph, r: int):
    """V' = V minus the root and its out-neighborhood: every rooted vertex
    cut is the in-neighborhood of some subset of V'."""
    blocked = g.out_neighbors(r) | {r}
    return tuple(v for v in range(g.n) if v not in blocked)


def _unreached(g: VertexCapGraph, r: int, arcs):
    """The zero cut onto the vertices ``r`` cannot reach along ``arcs``
    (pairs of ``g``), or None when it reaches them all."""
    missing = frozenset(range(g.n)) - reach(g.n, arcs, r)
    return _sink_certificate(g, missing) if missing else None


def _positive_arcs(g: VertexCapGraph, r: int) -> list:
    """Arcs out of ``r`` and out of positive-capacity vertices.  A vertex
    they miss is cut off from ``r`` by zero-capacity vertices alone, and
    when they miss none every vertex cut rooted at ``r`` contains a
    positive-capacity vertex, so its value is at least ``_c_min(g)``."""
    return [(u, v) for u, v in g.arcs if u == r or g.vcaps[u] > 0]


def _c_min(g: VertexCapGraph) -> Fraction:
    """Smallest positive vertex capacity (0 when there is none)."""
    return Fraction(min((c for c in g.vcaps if c > 0), default=0), g.scale)


def _singletons(g: VertexCapGraph) -> list:
    """The vertex cut of every single-vertex sink of ``g``, indexed by
    vertex, from one pass over the arcs."""
    neighbours = [set() for _ in range(g.n)]
    for u, v in g.arcs:
        neighbours[v].add(u)
    return [
        VertexCutCertificate(frozenset(sep), frozenset([v]),
                             g.value(sum(g.vcaps[w] for w in sep)))
        for v, sep in enumerate(neighbours)
    ]


# -- rooted approximation ----------------------------------------------------


def _split_prober(base: VertexCapGraph, r: int, log):
    """``level_prober`` of the rooted instance of ``base`` at ``r``, pruned
    for ``r``, or None when it has no admissible sink: the shared probe on
    the split graph, rooted at r's out-copy, on one ``RootedTopology``,
    whose credit passes through the infinite arcs, with in-copies of
    terminals drawn by the edge sampler from the in-degrees of the
    admissible sinks.
    Pruning keeps the in-neighbourhood of every admissible sink, so no
    vertex cut changes.  Certificates are re-evaluated against the raw
    vertex capacities before acceptance."""
    ng = prune_for_root(base, r)
    admissible = frozenset(_admissible_sinks(ng, r))
    if not admissible:
        return None
    topology = RootedTopology(split_transform(ng), ng.n + r)
    # an in-copy's in-degree in the split graph is its vertex's in ng
    deg = [d if v in admissible else 0 for v, d in enumerate(topology.degrees[:ng.n])]

    def extract(sink):
        # every sink holds its terminal, the in-copy of an admissible vertex
        cert = _sink_certificate(ng, sink & admissible)
        assert cert.sink_component and r not in cert.separator, (
            "sink component empty or leaked into the root's fan-out")
        return cert

    def run(cfg, terminals):
        floor = cfg.epsilon * cfg.level / (4 * ng.n)
        h = condition_rooted(topology, cfg.level, cfg.volume, cfg.epsilon, 6, floor)
        return probe(h, topology, terminals, cfg, extract)

    return level_prober(lambda cfg: _edge_sample(deg, r, cfg), run,
                        _volume_schedule(max(ng.m, 1)), log, sum(map(bool, deg)))


def _split_member(base: VertexCapGraph, r: int, orientation="forward"):
    """The ``union_prober`` member of the rooted instance of ``base`` at
    ``r``, or None when it has no admissible sink: its bound from r and
    r's out-neighbours, an arc u→v weighing u's capacity and the arcs out
    of r left out, and its ``_split_prober``.  The first sink vertex u in
    the bound's order has its in-neighbours added before it, all outside
    the sink and none of them r, in its separator.  Pruning for r drops
    only arcs into r and its out-neighbours, which the order starts from,
    so the bound is that of the pruned instance, which is not built here."""
    bound = max_adjacency_bound(base.n, [(u, v, base.vcaps[u]) for u, v in base.arcs if u != r],
                                [r, *(v for u, v in base.arcs if u == r)])
    if bound is None:
        return None
    return orientation, base.value(bound), partial(_split_prober, base, r)


def _vertex_floor_cut(ng: VertexCapGraph, r: int, c_min: Fraction):
    """The rank-best rooted vertex cut at ``r`` of value ``c_min``, the
    smallest positive capacity, among the largest sinks of such cuts, or
    None when no cut has that value; no flow runs.  ``r`` reaches every
    vertex along ``_positive_arcs(ng, r)``.

    Such a cut's separator holds one positive vertex w, of capacity
    ``c_min``, and zero-capacity ones, so w dominates every sink vertex in
    that flow graph.  Conversely the vertices D that such a w ≠ r strictly
    dominates, when there are any, form a sink whose separator is w plus
    zero-capacity vertices: no other arc of the flow graph enters D.  The
    separators of distinct w differ, so they alone rank the candidates,
    and only the best one's certificate is built.  The arcs out of
    zero-capacity vertices are sorted once by their head's preorder slot,
    so each candidate reads only those entering D: the scan costs at most
    candidates × the zero arcs entering the deepest such D."""
    c = int(c_min * ng.scale)
    order, first, size = dominator_tree(ng.n, _positive_arcs(ng, r), r)
    zero_arcs = sorted((first[v], first[u], u) for u, v in ng.arcs
                       if ng.vcaps[u] == 0 and u != r)
    candidates = []
    for w in range(ng.n):
        if w == r or ng.vcaps[w] != c or size[w] == 1:
            continue
        lo, hi = first[w] + 1, first[w] + size[w]  # D is order[lo:hi]
        entering = zero_arcs[bisect_left(zero_arcs, (lo,)):bisect_left(zero_arcs, (hi,))]
        separator = {w}.union(u for _, slot, u in entering if not lo <= slot < hi)
        candidates.append((len(separator), sorted(separator), lo, hi))
    if not candidates:
        return None
    _, separator, lo, hi = min(candidates)
    cert = _sink_certificate(ng, frozenset(order[lo:hi]))
    assert cert.value == c_min and sorted(cert.separator) == separator, (
        "a dominator subtree's vertex cut is not at the floor")
    return cert


def _global_vertex_floor_cut(ng: VertexCapGraph, reversal: VertexCapGraph,
                             c_min: Fraction):
    """The rank-best global vertex cut of value ``c_min`` that
    ``_vertex_floor_cut`` finds at r, the first positive-capacity vertex,
    in ``ng`` and in its ``reversal``, or None.  Every such cut leaves r
    on its source side in one orientation, unless r is the positive
    vertex of its separator, so when r has capacity ``c_min`` a second
    positive root is tried too.  ``ng``'s best trivial global cut lies
    above ``c_min``, so a second positive root exists when one is needed:
    with r the only positive vertex, a floor cut's sink would hold a
    singleton of value ``c_min``."""
    positive = [v for v, c in enumerate(ng.vcaps) if c > 0]
    roots = positive[:2] if ng.value(ng.vcaps[positive[0]]) == c_min else positive[:1]
    best = None
    for r in roots:
        for orientation, graph in (("forward", ng), ("reverse", reversal)):
            best = _better(best, _tag(_vertex_floor_cut(graph, r, c_min), orientation))
    return best


def _rooted_search(ng: VertexCapGraph, r: int, search) -> CutResult:
    """Rooted cut: the zero cut onto the vertices ``r`` cannot reach through
    positive-capacity vertices, else the best admissible singleton when
    it is at most ``c_min``, else a cut of value ``c_min`` from
    ``_vertex_floor_cut``, else that singleton improved by
    ``search(probe_at, best, c_min)`` with the instance's split prober.
    Raises TypeError for a root that is not an int, ValueError for one
    outside 0..n-1 and NoCutExistsError when no rooted vertex cut exists."""
    _check_root(r, ng.n)
    best = _unreached(ng, r, _positive_arcs(ng, r))
    admissible = _admissible_sinks(ng, r)
    if not admissible:
        raise NoCutExistsError("every vertex is the root or a direct out-neighbor")
    if best is None:
        singletons = _singletons(ng)
        best = min((singletons[t] for t in admissible), key=attrgetter("rank"))
    c_min = _c_min(ng)
    return _search_tail(lambda: [_split_member(ng, r)], best, c_min, search,
                        partial(_vertex_floor_cut, ng, r, c_min), indexed=False)


def approx_rooted_vertex_cut(
    g: VertexCapGraph,
    r: int,
    epsilon,
    seed: int = 0,
) -> CutResult:
    """Rooted vertex cut within (1+epsilon) of optimal w.h.p.

    Always returns a valid separator with its exact value; raises
    NoCutExistsError when the root's out-neighborhood covers every other
    vertex (no rooted vertex cut exists at all).  A zero cut, found when
    the root cannot reach some vertex through positive-capacity vertices,
    is returned without probing, and a cut of the smallest positive
    capacity without a flow.
    """
    eps = clamp_epsilon(epsilon)
    search = partial(level_search, epsilon=eps, seed_parts=(seed, "vertex"))
    return _rooted_search(_normalize(g), r, search)


# -- global reduction --------------------------------------------------------


def sample_roots(g: VertexCapGraph, epsilon, rng, bound) -> list:
    """Root sample for the global reduction, given ``bound`` = B, the value
    of some vertex cut of ``g`` and so at least the optimum.

    The sample count is min over the two standard bounds (tolerance-driven
    and slack-driven, 2·total·ln n/(total − B)), clamped to [1, n]; roots
    are drawn i.i.d. in proportion to their capacities, except that a
    count of n takes every positive-capacity vertex once.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices")
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    total = sum(g.vcaps)
    if total == 0:
        raise ValueError("all vertex capacities are zero; no root can be sampled")
    slack = total - bound * g.scale
    # both bounds compared in exact rationals (the float logarithm taken
    # exactly), so tolerances and capacities beyond float range stay finite
    log_n = Fraction(math.log(g.n))
    count = min(g.n, math.ceil(2 * log_n / eps))
    if slack > 0:
        count = min(count, math.ceil(2 * total * log_n / slack))
    if count == g.n:
        return [v for v, c in enumerate(g.vcaps) if c > 0]
    count = max(1, count)
    # rng.choices sums the weights as floats: floor capacities beyond float
    # range by a power of two, which moves each probability by < n * 2^-999
    shift = max(0, total.bit_length() - 1000)
    return rng.choices(range(g.n), weights=[c >> shift for c in g.vcaps], k=count)


def prune_for_root(g: VertexCapGraph, r: int) -> VertexCapGraph:
    """Drop arcs that cannot matter for r-connectivity: every arc into an
    out-neighbor of r other than the arc from r itself, and every arc into
    r.  The rooted connectivity value is unchanged.  ``g`` is trusted, as
    every ``VertexCapGraph`` is validated or derived from a validated one,
    so the pruned graph is built unchecked (``VertexCapGraph._unchecked``)."""
    fanout = g.out_neighbors(r)
    arcs = [(u, v) for u, v in g.arcs if v != r and not (v in fanout and u != r)]
    return VertexCapGraph._unchecked(g.n, arcs, g.vcaps, g.scale)


def _oriented_zero(ng: VertexCapGraph, reversal: VertexCapGraph, r: int, arcs_of):
    """The zero cut onto the vertices ``r`` cannot reach along
    ``arcs_of(graph)`` in ``ng``, else in its ``reversal``, tagged with
    its orientation; None when ``r`` reaches every vertex in both."""
    for orientation, graph in (("forward", ng), ("reverse", reversal)):
        cert = _unreached(graph, r, arcs_of(graph))
        if cert is not None:
            return _tag(cert, orientation)
    return None


def _global_start(ng: VertexCapGraph, reversal: VertexCapGraph):
    """Zero-value certificate when ``ng`` is not strongly connected, else
    None.  The sink component is closed under incoming arcs in the
    reported orientation, so the empty separator is genuinely N-in(U).
    Raises NoCutExistsError for fewer than two vertices."""
    if ng.n < 2:
        raise NoCutExistsError("need at least two vertices")
    return _oriented_zero(ng, reversal, 0, attrgetter("arcs"))


def _global_trivial(ng: VertexCapGraph, reversal: VertexCapGraph):
    """The solvers' best trivial global cut of ``ng``: the zero cut of
    ``_global_start`` or the best valid singleton over both orientations
    (one that leaves a vertex outside its separator and sink), replaced by
    an exact zero cut when that singleton is positive.  A zero global
    vertex cut has only zero-capacity vertices in its separator, so a
    positive-capacity vertex r lies in its sink or outside both, and in one
    orientation r cannot reach the other side through positive-capacity
    vertices.  When the result is positive, every global vertex cut has a
    positive-capacity vertex in its separator, so its value is at least
    ``_c_min(ng)``.  Raises NoCutExistsError when no global vertex cut
    exists: a strongly connected graph without a valid singleton is a
    complete digraph."""
    best = _global_start(ng, reversal)
    if best is None:
        for orientation, graph in (("forward", ng), ("reverse", reversal)):
            valid = (cert for cert in _singletons(graph) if len(cert.separator) + 1 < ng.n)
            best = _better(best, _tag(min(valid, key=attrgetter("rank"), default=None),
                                      orientation))
        if best is None:
            raise NoCutExistsError("complete digraph has no vertex cut")
    if best.value > 0:  # so some vertex has positive capacity
        r = next(v for v, c in enumerate(ng.vcaps) if c > 0)
        best = _oriented_zero(ng, reversal, r, lambda graph: _positive_arcs(graph, r)) or best
    return best


def _global_search(ng: VertexCapGraph, reversal: VertexCapGraph, best, root_eps, seed,
                   search) -> CutResult:
    """Global cut as one ``search(probe_at, best, c_min)`` over the union of
    the rooted instances of every distinct root that ``sample_roots`` draws
    at tolerance ``root_eps``, in ``ng`` and in its ``reversal``, each
    pruned for its root and left out when it has no admissible sink.
    Nothing is drawn or probed when the trivial cut ``best`` is at most
    ``c_min`` (optimal), or when ``_global_vertex_floor_cut`` finds a cut
    of value ``c_min``.  Each instance has a bound B (``_split_member``):
    ordered from r and its out-neighbours, the first sink vertex u of a cut
    has its in-neighbours ordered before it in the separator, so the cut
    is at least u's support and so at least B.  An instance is not probed
    at a threshold at most its B, and nothing is probed when ``best`` is
    at most every instance's B.  That does not prove ``best`` optimal,
    only that no drawn root's instance holds a better cut."""
    def instances():
        roots = sample_roots(ng, root_eps, random.Random(derive_seed(seed, "roots")), best.value)
        members = [_split_member(base, r, orientation) for r in sorted(set(roots))
                   for orientation, base in (("forward", ng), ("reverse", reversal))]
        return [member for member in members if member is not None]

    c_min = _c_min(ng)
    return _search_tail(instances, best, c_min, search,
                        partial(_global_vertex_floor_cut, ng, reversal, c_min))


def approx_global_vertex_cut(
    g: VertexCapGraph,
    epsilon,
    seed: int = 0,
    threads: int = 1,
) -> CutResult:
    """Global vertex cut within (1+epsilon) of optimal w.h.p.

    Draws roots in proportion to capacity at tolerance epsilon and runs
    one level search over the pruned instances of the distinct roots in
    both orientations.  A zero-valued cut (disconnected graph, zero-valued
    singleton, or zero-capacity vertices cutting the graph) is returned
    without probing, and a cut of the smallest positive capacity without
    a flow or a root draw.  Raises NoCutExistsError on complete digraphs,
    where no vertex cut exists.  ``threads`` is accepted for compatibility
    and ignored.
    """
    eps = clamp_epsilon(epsilon)
    ng = _normalize(g)
    reversal = _reversal(ng)
    search = partial(level_search, epsilon=eps, seed_parts=(seed, "vertex"))
    return _global_search(ng, reversal, _global_trivial(ng, reversal), eps, seed, search)


# -- exact modes -------------------------------------------------------------


def exact_small_vertex_cut(
    g: VertexCapGraph,
    root=None,
    seed: int = 0,
) -> CutResult:
    """Exact minimum vertex cut w.h.p., efficient when the optimum's
    numerator at the graph's scale is small.

    A zero cut, and any cut at the smallest positive capacity, are
    returned without a flow: the latter has one positive vertex in its
    separator, found from a dominator tree (``_vertex_floor_cut``).
    Otherwise ``integer_search`` searches the numerators k above that
    capacity's down from the trivial cut (30 flows for the global cut of
    the bidirectional 6-cycle with capacities 10^400, whose trivial cut
    is optimal), level k/scale at tolerance 1/(1+k), which makes every
    answer exact.  A probe can miss, so the value is exact only w.h.p.,
    while the certificate is always valid.
    ``root=None`` solves the global problem as one integer search over
    the pruned instances of the distinct roots in both orientations.  The
    roots are drawn once, at the tolerance 1/(1+s) of the top level, whose
    numerator s is that of the best trivial cut.
    """
    ng = _normalize(g)
    search = partial(integer_search, scale=ng.scale, seed_parts=(seed, "small"))
    if root is not None:
        return _rooted_search(ng, root, search)
    reversal = _reversal(ng)
    singleton = _global_trivial(ng, reversal)
    return _global_search(ng, reversal, singleton, 1 / (1 + singleton.value * ng.scale), seed,
                          search)


# -- exact oracle ------------------------------------------------------------


def _oracle_extract(ng, source, flow_result):
    sink = frozenset(range(ng.n)) - flow_result.source_side - {source}
    cert = _sink_certificate(ng, sink)
    assert cert.value == ng.value(flow_result.value), "split-graph cut is not its separator's"
    return cert


def _vertex_oracle(g: VertexCapGraph, root=None) -> CutResult:
    """Exact oracle with the flows it ran counted: the capped root loop of
    the module docstring at ``root``, or for ``root=None`` at every vertex
    by decreasing capacity (ties to the smaller id) until the roots done
    outweigh the best cut.  One cap, at first above every cut, serves all.
    Each (root, orientation) runs ``capped_sinks`` on the admissible sinks
    of its split graph.  Every in-neighbour of a sink vertex lies in the
    separator or in the sink, and an out-neighbour of the root, or a
    certified vertex once the cut is below the cap, never lies in the
    sink: so each of those credits its capacity to its out-neighbours."""
    ng = _normalize(g)
    if root is not None:
        _check_root(root, ng.n)
        if not _admissible_sinks(ng, root):
            raise NoCutExistsError("every vertex is the root or a direct out-neighbor")
        zero, roots, bases = _unreached(ng, root, ng.arcs), [root], [("forward", ng)]
    else:
        reversal = _reversal(ng)
        zero, bases = _global_start(ng, reversal), [("forward", ng), ("reverse", reversal)]
        if ng.m == ng.n * (ng.n - 1):
            raise NoCutExistsError("complete digraph has no vertex cut")
        roots = sorted(range(ng.n), key=lambda v: (-ng.vcaps[v], v))
    if zero is not None:
        return CutResult(zero, 0, ())
    splits = []
    for orientation, h in bases:
        credit = [[] for _ in range(h.n)]
        for u, v in h.arcs:
            credit[u].append((v, h.vcaps[u]))
        splits.append((orientation, h, split_transform(h), credit))
    best, flows, weight, cap = None, 0, 0, sum(ng.vcaps) + 1
    for r in roots:
        for orientation, h, split, credit in splits:
            found, k, cap = capped_sinks(
                split, h.n + r, _admissible_sinks(h, r), cap, credit,
                [x for x, _ in credit[r]], partial(_oracle_extract, h, r))
            best, flows = _better(best, _tag(found, orientation)), flows + k
        weight += ng.vcaps[r]
        if weight >= cap:  # more than the best cut's numerator, cap - 1
            break
    return CutResult(best, flows, ())


def exact_vertex_cut_oracle(g: VertexCapGraph, root=None) -> VertexCutCertificate:
    """Exact minimum vertex cut by split-graph flows, each stopped one above
    the best cut so far, into the admissible sinks of ``root``, or of each
    vertex by decreasing capacity in both orientations until those done
    outweigh the best cut (``root=None``).  The sinks of a root run in
    breadth-first order from it, and a sink whose in-neighbours among the
    root's out-neighbours and the vertices already certified (their flows
    reached the cap) weigh at least the cap needs no flow.  Test oracle
    and CLI --exact mode."""
    return _vertex_oracle(g, root).certificate
