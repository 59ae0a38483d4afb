"""Vertex-capacitated connectivity via the split-graph reduction.

A vertex-capacitated graph is modeled by an edge-capacitated one: each
vertex v becomes an arc (v_in, v_out) carrying v's capacity, and each
original arc (u, v) becomes an infinite arc (u_out, v_in).  Finite rooted
cuts in the split graph then consist purely of split arcs, which is what
lets an edge cut be read back as a vertex separator.

Rooted cuts run the edge module's probe and search drivers (``probe``,
``probe_level``, ``level_search``, ``integer_search``) with a probe on the
split graph: shared conditioning, terminals drawn from the admissible
sinks, and sink sets mapped back to vertex separators.  Global cuts sample
roots in proportion to capacity, prune each rooted instance, and run both
orientations; the exact small-optimum mode searches integer levels with
per-level tolerance 1/(1+level) so that integer answers come out exact.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .edgecut import (
    DEFAULT_SAMPLE_CONST,
    as_fraction,
    clamp_epsilon,
    condition_rooted,
    derive_seed,
    integer_search,
    level_search,
    probe,
    probe_level,
    _small_probe,
    _total_flow_calls,
    _volume_schedule,
)
from .graph import INFINITE, DiGraph, NoCutExistsError
from .maxflow import max_flow


class VertexCapGraph:
    """Directed graph topology with exact scaled-integer vertex capacities."""

    __slots__ = ("n", "arcs", "vcaps", "scale")

    def __init__(self, n, arcs, vcaps, scale=1):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if scale <= 0:
            raise ValueError("scale must be positive")
        vcaps = tuple(vcaps)
        if len(vcaps) != n:
            raise ValueError("need one capacity per vertex")
        for v, c in enumerate(vcaps):
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"vertex {v}: capacity must be a nonnegative int")
        arcs = tuple(arcs)
        for i, (u, v) in enumerate(arcs):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc {i}: endpoint out of range")
            if u == v:
                raise ValueError(f"arc {i}: self-loop")
        self.n = n
        self.arcs = arcs
        self.vcaps = vcaps
        self.scale = scale

    @property
    def m(self) -> int:
        return len(self.arcs)

    def value(self, numerator: int) -> Fraction:
        return Fraction(numerator, self.scale)

    def in_degrees(self):
        deg = [0] * self.n
        for _, v in self.arcs:
            deg[v] += 1
        return deg

    def out_neighbors(self, v):
        return frozenset(h for t, h in self.arcs if t == v)

    def in_neighbors(self, v):
        return frozenset(t for t, h in self.arcs if h == v)

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
class SplitMaps:
    """Bijections v <-> (v_in, v_out) between a graph and its split form."""

    n: int

    def to_in(self, v: int) -> int:
        return v

    def to_out(self, v: int) -> int:
        return self.n + v

    def original(self, split_id: int) -> int:
        return split_id if split_id < self.n else split_id - self.n

    def is_out(self, split_id: int) -> bool:
        return split_id >= self.n


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


@dataclass
class VertexCutResult:
    certificate: VertexCutCertificate
    flow_calls: int
    probe_log: tuple

    @property
    def value(self) -> Fraction:
        return self.certificate.value


def split_transform(g: VertexCapGraph):
    """Edge-capacitated model: 2n vertices, one finite arc per vertex and
    one infinite arc per original arc (m + n arcs total)."""
    maps = SplitMaps(g.n)
    arcs = [(maps.to_in(v), maps.to_out(v), g.vcaps[v]) for v in range(g.n)]
    for u, v in g.arcs:
        arcs.append((maps.to_out(u), maps.to_in(v), INFINITE))
    return DiGraph(2 * g.n, arcs, scale=g.scale), maps


def _normalize(g: VertexCapGraph) -> VertexCapGraph:
    """Deduplicate parallel arcs; topology duplicates carry no information."""
    arcs = sorted(set(g.arcs))
    return VertexCapGraph(g.n, arcs, g.vcaps, g.scale)


def _reverse_topology(g: VertexCapGraph) -> VertexCapGraph:
    return VertexCapGraph(g.n, [(v, u) for u, v in g.arcs], g.vcaps, g.scale)


def _reach(g: VertexCapGraph, source: int) -> frozenset:
    adj = [[] for _ in range(g.n)]
    for u, v in g.arcs:
        adj[u].append(v)
    seen = [False] * g.n
    seen[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return frozenset(v for v in range(g.n) if seen[v])


def _in_neighbors_of_set(g: VertexCapGraph, vertices: frozenset) -> frozenset:
    return frozenset(u for u, v in g.arcs if v in vertices and u not in vertices)


def _vbetter(a, b):
    if a is None:
        return b
    if b is None:
        return a
    ka = (a.value, len(a.separator), tuple(sorted(a.separator)),
          tuple(sorted(a.sink_component)), a.orientation)
    kb = (b.value, len(b.separator), tuple(sorted(b.separator)),
          tuple(sorted(b.sink_component)), b.orientation)
    return a if ka <= kb else b


def _sink_certificate(g: VertexCapGraph, component: frozenset,
                      orientation="forward") -> VertexCutCertificate:
    """The vertex cut of a sink component: its in-neighborhood, valued at
    the raw vertex capacities."""
    separator = _in_neighbors_of_set(g, component)
    value = Fraction(sum(g.vcaps[w] for w in separator), g.scale)
    return VertexCutCertificate(separator, component, value, orientation)


def _admissible_sinks(g: VertexCapGraph, r: int):
    """V' = V minus the root and its out-neighborhood: every rooted vertex
    cut is the in-neighborhood of some subset of V'."""
    blocked = g.out_neighbors(r) | {r}
    return tuple(v for v in range(g.n) if v not in blocked)


def _rooted_start(ng: VertexCapGraph, r: int):
    """Admissible sinks, and the zero cut onto the vertices the root cannot
    reach (None when it reaches them all).  Raises NoCutExistsError when
    no rooted vertex cut exists."""
    admissible = _admissible_sinks(ng, r)
    if not admissible:
        raise NoCutExistsError("every vertex is the root or a direct out-neighbor")
    missing = frozenset(range(ng.n)) - _reach(ng, r)
    if missing:
        return admissible, _sink_certificate(ng, missing)
    return admissible, None


def _best_singleton(ng: VertexCapGraph, admissible) -> VertexCutCertificate:
    best = None
    for t in admissible:
        best = _vbetter(best, _sink_certificate(ng, frozenset([t])))
    return best


# -- rooted approximation ----------------------------------------------------


def _split_probe(ng: VertexCapGraph, admissible, r: int):
    """The probe function of one rooted instance for ``probe_level``: the
    shared probe on the split graph, rooted at r's out-copy, with terminals
    sampled among the admissible sinks.  Certificates are re-evaluated
    against the raw vertex capacities before acceptance."""
    split, maps = split_transform(ng)
    root_out = maps.to_out(r)
    deg = ng.in_degrees()

    def extract(sink):
        component = frozenset(v for v in admissible if maps.to_in(v) in sink)
        if not component:
            return None
        cert = _sink_certificate(ng, component)
        assert r not in cert.separator, "sink component leaked into the root's fan-out"
        return cert

    def run(cfg):
        floor = cfg.epsilon * cfg.level / (4 * ng.n)
        cond = condition_rooted(
            split, root_out, cfg.level, cfg.volume, cfg.epsilon, 6, floor
        )
        rng = random.Random(cfg.seed)
        rate = float(cfg.sample_const) * math.log(ng.n) / cfg.volume
        terminals = frozenset(
            maps.to_in(v) for v in admissible
            if deg[v] > 0 and rng.random() < min(1.0, rate * deg[v])
        )
        threshold = (1 + cfg.epsilon) * cfg.level
        return probe(cond.h, root_out, terminals, threshold, extract, _vbetter)

    return run


def approx_rooted_vertex_cut(
    g: VertexCapGraph,
    r: int,
    epsilon,
    seed: int = 0,
    threads: int = 1,
    sample_const=DEFAULT_SAMPLE_CONST,
) -> VertexCutResult:
    """Rooted vertex cut within (1+epsilon) of optimal w.h.p.

    Always returns a valid separator with its exact value; raises
    NoCutExistsError when the root's out-neighborhood covers every other
    vertex (no rooted vertex cut exists at all).  ``threads`` is accepted
    for compatibility and ignored.
    """
    eps = clamp_epsilon(epsilon)
    sample_const = as_fraction(sample_const)
    ng = _normalize(g)
    admissible, best = _rooted_start(ng, r)
    best = best or _best_singleton(ng, admissible)
    log = []
    if best.value > 0:
        best = level_search(
            _split_probe(ng, admissible, r), best,
            Fraction(min(c for c in ng.vcaps if c > 0), ng.scale) / (2 * ng.n),
            eps, _volume_schedule(max(ng.m, 1)), sample_const, (seed, "vertex"),
            _vbetter, log,
        )
    return VertexCutResult(best, _total_flow_calls(log), tuple(log))


# -- global reduction --------------------------------------------------------


def sample_roots(g: VertexCapGraph, epsilon, rng) -> list:
    """Root sample for the global reduction.

    The sample count is min over the two standard bounds (tolerance-driven
    and singleton-slack-driven, constant 2), clamped to [1, n]; roots are
    drawn i.i.d. in proportion to their capacities.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices")
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    total = sum(g.vcaps)
    if total == 0:
        raise ValueError("all vertex capacities are zero; no root can be sampled")
    singleton_floor = min(
        min(
            sum(g.vcaps[u] for u in g.in_neighbors(v)),
            sum(g.vcaps[u] for u in g.out_neighbors(v)),
        )
        for v in range(g.n)
    )
    count = math.ceil(2 * math.log(g.n) / float(eps))
    if total > singleton_floor:
        alt = math.ceil(2 * total * math.log(g.n) / (total - singleton_floor))
        count = min(count, alt)
    count = max(1, min(count, g.n))
    return rng.choices(range(g.n), weights=g.vcaps, k=count)


def prune_for_root(g: VertexCapGraph, r: int) -> VertexCapGraph:
    """Drop arcs that cannot matter for r-connectivity: every arc into an
    out-neighbor of r other than the arc from r itself, and every arc into
    r.  The rooted connectivity value is unchanged."""
    fanout = g.out_neighbors(r)
    arcs = [
        (u, v)
        for u, v in g.arcs
        if v != r and not (v in fanout and u != r)
    ]
    return VertexCapGraph(g.n, arcs, g.vcaps, g.scale)


def _is_complete(g: VertexCapGraph) -> bool:
    pairs = set(g.arcs)
    return all(
        (u, v) in pairs
        for u in range(g.n)
        for v in range(g.n)
        if u != v
    )


def _disconnected_certificate(g: VertexCapGraph):
    """Zero-value certificate when the graph is not strongly connected,
    or None.  The sink component is closed under incoming arcs in the
    reported orientation, so the empty separator is genuinely N-in(U)."""
    for orientation, graph in (("forward", g), ("reverse", _reverse_topology(g))):
        sink = frozenset(range(g.n)) - _reach(graph, 0)
        if sink:
            return _sink_certificate(graph, sink, orientation)
    return None


def _global_singleton(g: VertexCapGraph):
    """Best valid single-sink certificate over both orientations, or None
    (None only for complete digraphs)."""
    best = None
    rev = _reverse_topology(g)
    for orientation, graph in (("forward", g), ("reverse", rev)):
        for v in range(g.n):
            cert = _sink_certificate(graph, frozenset([v]), orientation)
            if len(cert.separator) + 1 < g.n:  # else no outside vertex survives
                best = _vbetter(best, cert)
    return best


def _global_start(ng: VertexCapGraph):
    """Zero-value certificate when ``ng`` is not strongly connected, else
    None.  Raises NoCutExistsError when no global vertex cut exists."""
    if ng.n < 2:
        raise NoCutExistsError("need at least two vertices")
    zero = _disconnected_certificate(ng)
    if zero is None and _is_complete(ng):
        raise NoCutExistsError("complete digraph has no vertex cut")
    return zero


def _over_roots(ng: VertexCapGraph, roots, solve):
    """Best certificate over the sampled roots in both orientations.

    ``solve(pruned, root, i, orientation)`` handles the instance pruned for
    the i-th root and returns a certificate in that orientation, or None.
    """
    rev = _reverse_topology(ng)
    best = None
    for i, root in enumerate(roots):
        for orientation, base in (("forward", ng), ("reverse", rev)):
            cert = solve(prune_for_root(base, root), root, i, orientation)
            if cert is not None:
                best = _vbetter(best, VertexCutCertificate(
                    cert.separator, cert.sink_component, cert.value, orientation
                ))
    return best


def approx_global_vertex_cut(
    g: VertexCapGraph,
    epsilon,
    seed: int = 0,
    threads: int = 1,
    sample_const=DEFAULT_SAMPLE_CONST,
) -> VertexCutResult:
    """Global vertex cut within (1+epsilon) of optimal w.h.p.

    Samples roots in proportion to capacity, prunes each rooted instance,
    and solves it in both orientations.  A zero-valued cut (disconnected
    graph or zero-valued singleton) is returned without probing.  Raises
    NoCutExistsError on complete digraphs, where no vertex cut exists.
    ``threads`` is accepted for compatibility and ignored.
    """
    eps = clamp_epsilon(epsilon)
    ng = _normalize(g)
    best = _global_start(ng) or _global_singleton(ng)
    if best.value == 0:
        return VertexCutResult(best, 0, ())
    roots = sample_roots(ng, eps, random.Random(derive_seed(seed, "roots")))
    log = []

    def solve(pruned, root, i, orientation):
        try:
            res = approx_rooted_vertex_cut(
                pruned, root, eps, seed=derive_seed(seed, "root", i, orientation),
                sample_const=sample_const,
            )
        except NoCutExistsError:
            return None
        log.extend(res.probe_log)
        return res.certificate

    best = _vbetter(best, _over_roots(ng, roots, solve))
    return VertexCutResult(best, _total_flow_calls(log), tuple(log))


# -- exact modes -------------------------------------------------------------


def _require_integer_vcaps(g: VertexCapGraph):
    for c in g.vcaps:
        if c % g.scale != 0:
            raise ValueError("exact small-connectivity mode needs integer capacities")


def exact_small_vertex_cut(
    g: VertexCapGraph,
    root=None,
    seed: int = 0,
    threads: int = 1,
    sample_const=DEFAULT_SAMPLE_CONST,
) -> VertexCutResult:
    """Exact minimum vertex cut w.h.p. for integer capacities, efficient
    when the optimum is small.

    Doubles the probe level until a certificate appears (or the trivial
    singleton bound is passed), then binary searches the integers below
    it.  Per-level tolerance 1/(1+level) makes integer answers exact; a
    probe can miss, so the value is exact only w.h.p., while the
    certificate is always valid.  ``root=None`` solves the global problem,
    probing sampled roots in both orientations at each level; its result
    carries the flow count but no probe log.  ``threads`` is accepted for
    compatibility and ignored.
    """
    _require_integer_vcaps(g)
    sample_const = as_fraction(sample_const)
    ng = _normalize(g)
    log = []
    if root is not None:
        admissible, singleton = _rooted_start(ng, root)
        singleton = singleton or _best_singleton(ng, admissible)
        if singleton.value == 0:
            return VertexCutResult(singleton, 0, ())
        probe_at = _small_probe(
            _split_probe(ng, admissible, root), _volume_schedule(max(ng.m, 1)),
            sample_const, seed, _vbetter, log,
        )
        best = integer_search(probe_at, singleton, _vbetter)
        return VertexCutResult(best, _total_flow_calls(log), tuple(log))

    singleton = _global_start(ng) or _global_singleton(ng)
    if singleton.value == 0:
        return VertexCutResult(singleton, 0, ())

    def probe_at(level, _tag):
        eps = Fraction(1, 1 + level)
        roots = sample_roots(ng, eps, random.Random(derive_seed(seed, "roots", level)))

        def solve(pruned, r, i, orientation):
            admissible = _admissible_sinks(pruned, r)
            if not admissible:
                return None
            return probe_level(
                _split_probe(pruned, admissible, r), Fraction(level),
                _volume_schedule(max(pruned.m, 1)), eps, sample_const,
                (seed, "probe", level, i, orientation), _vbetter, log,
            )

        return _over_roots(ng, roots, solve)

    best = integer_search(probe_at, singleton, _vbetter)
    return VertexCutResult(best, _total_flow_calls(log), ())


# -- exact oracle ------------------------------------------------------------


def _oracle_extract(ng, maps, source, flow_result):
    sink_side = frozenset(range(2 * ng.n)) - flow_result.source_side
    component = frozenset(
        v for v in range(ng.n)
        if v != source and maps.to_in(v) in sink_side
    )
    cert = _sink_certificate(ng, component)
    assert cert.value == Fraction(flow_result.value, ng.scale), (
        "split-graph cut does not match its vertex separator"
    )
    return cert


def exact_vertex_cut_oracle(g: VertexCapGraph, root=None) -> VertexCutCertificate:
    """Exact minimum vertex cut by pairwise split-graph flows.

    ``root`` given: one flow per admissible sink.  ``root=None``: one flow
    per ordered nonadjacent pair.  Test oracle and CLI --exact mode.
    """
    ng = _normalize(g)
    if root is not None:
        admissible, zero = _rooted_start(ng, root)
        if zero is not None:
            return zero
        split, maps = split_transform(ng)
        best = None
        for t in admissible:
            res = max_flow(split, maps.to_out(root), maps.to_in(t))
            best = _vbetter(best, _oracle_extract(ng, maps, root, res))
        return best

    zero = _global_start(ng)
    if zero is not None:
        return zero
    split, maps = split_transform(ng)
    adjacent = set(ng.arcs)
    best = None
    for s in range(ng.n):
        for t in range(ng.n):
            if s == t or (s, t) in adjacent:
                continue
            res = max_flow(split, maps.to_out(s), maps.to_in(t))
            best = _vbetter(best, _oracle_extract(ng, maps, s, res))
    return best
