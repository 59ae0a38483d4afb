"""Exact single-commodity max-flow / min-cut (Dinic on a residual network
of paired arcs).

All arithmetic is on integer capacity numerators, so flow values, per-arc
flows and cut values are exact.  The engine sits behind one function so a
faster solver could replace it without touching callers.

The residual network of a graph is built at its first flow and kept on
the graph, which is immutable (``graph._network``): edge ``2i`` is
``arcs[i]`` and edge ``2i+1`` its reverse, with per-vertex lists of edge
ids.  Every graph owns its arrays; no two graphs share them.  A call
copies only the capacities; one with demand arcs into a supersink
``g.n`` appends them to those arrays until the flow ends (so threads
must not flow on one graph at once), which is how the Steiner
recursion routes to a terminal set without building a new graph, and how
the exact oracles stop each per-sink flow one above the best cut so far.
Infinite arcs keep ``g``'s sentinel unless the demands total at least
that much.  Below it the supersink's in-arcs form a cheaper cut than any
through an infinite arc, so raising them would change only their forward
residuals.

Each phase labels vertices by residual distance to the sink, with a
reverse BFS that stops once the source is labelled, and pushes a blocking
flow along arcs that lower that distance by one.  Dead ends are marked,
and after an augmentation the search resumes at the tail of the first
saturated arc.  A flow stops once the arcs into the sink are full, and
its residual source side is computed only when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import CutCertificate, DiGraph, _network, cut_certificate


@dataclass(slots=True)
class MaxFlowResult:
    """Flow value plus the canonical minimal source side.

    ``source_side``, the vertices the source reaches in the residual
    graph, fixes the induced minimum cut.  It is read on first use over
    ``graph``'s arrays, whose demand arcs are gone by then; a
    maximum flow leaves the supersink unreachable, so none is needed.
    ``residual`` is the flow's own copy of the capacities: edge ``2i`` is
    ``graph.arcs[i]``, and edge ``2i+1``, its reverse, holds its flow.
    An infinite arc's forward residual starts at the sentinel that
    ``max_flow`` gave it.  The sink is not kept: the cut's sink side is
    the complement of ``source_side``.
    """

    graph: DiGraph
    source: int
    value: int  # numerator at graph.scale
    residual: list = field(repr=False, compare=False)
    _side: frozenset = field(default=None, init=False, repr=False, compare=False)

    @property
    def source_side(self) -> frozenset:
        if self._side is None:
            head, _, adj, _ = _network(self.graph)
            cap = self.residual
            seen = [False] * len(adj)
            seen[self.source] = True
            reached = [self.source]
            for u in reached:
                for e in adj[u]:
                    v = head[e]
                    if cap[e] and not seen[v]:
                        seen[v] = True
                        reached.append(v)
            self._side = frozenset(reached)
        return self._side


def max_flow(g: DiGraph, s: int, t: int, demands=()) -> MaxFlowResult:
    """Exact maximum (s, t)-flow.

    ``demands`` lists ``(vertex, numerator)`` arcs into the sink, which
    must then be the extra vertex ``g.n``; ``residual`` has them after
    ``g``'s arcs.  When their total reaches ``g.inf_value``, infinite arcs
    are raised to the extended graph's sentinel, ``g.inf_value`` plus the
    total; below it they keep ``g.inf_value``, which changes only their
    forward residuals, not the value, the source side or any arc's flow.
    ``min_cut_sink_side`` gives the cut of ``g`` that the source side
    leaves, of the flow's value when it crosses no demand or infinite arc.
    """
    if s == t:
        raise ValueError("source and sink coincide")
    if not (0 <= s < g.n and (t == g.n if demands else 0 <= t < g.n)):
        raise ValueError("source or sink out of range")
    extra = 0
    for v, c in demands:
        if not 0 <= v < g.n or c < 0:
            raise ValueError("demand arc out of range or negative")
        extra += c
    head, cap, adj, inf_edges = _network(g)
    cap = cap[:]
    if extra >= g.inf_value:
        sentinel = g.inf_value + extra
        for e in inf_edges:
            cap[e] = sentinel
    base = e = len(head)
    into_supersink = []
    for v, c in demands:
        adj[v].append(e)
        into_supersink.append(e + 1)
        head += (g.n, v)
        cap += (c, 0)
        e += 2
    adj.append(into_supersink)
    try:
        value = _dinic(head, cap, adj, g.n + 1, s, t)
    finally:
        del head[base:]
        adj.pop()
        for v, _ in demands:
            adj[v].pop()
    return MaxFlowResult(g, s, value, cap)


def _dinic(head, cap, adj, n, s, t) -> int:
    """Saturate ``cap`` in place, up to filling ``t``'s in-arcs; returns the value."""
    bound = sum(cap[e ^ 1] for e in adj[t] if e & 1)
    total = 0
    while True:
        dist = [-1] * n
        dist[t] = 0
        queue = [t]
        for u in queue:
            du = dist[u] + 1
            for e in adj[u]:
                w = head[e]
                if dist[w] < 0 and cap[e ^ 1]:
                    dist[w] = du
                    queue.append(w)
            if dist[s] >= 0:
                break
        else:
            return total
        ptr = [0] * n
        path = []  # edge ids from s to v
        v = s
        while True:
            if v == t:
                flow = cap[path[0]]
                for e in path:
                    if cap[e] < flow:
                        flow = cap[e]
                total += flow
                first = None
                for i, e in enumerate(path):
                    cap[e] -= flow
                    cap[e ^ 1] += flow
                    if first is None and not cap[e]:
                        first = i
                if total == bound:
                    return total
                del path[first:]
                v = head[path[-1]] if path else s
                continue
            edges = adj[v]
            i = ptr[v]
            k = len(edges)
            want = dist[v] - 1
            while i < k:
                e = edges[i]
                if cap[e] and dist[head[e]] == want:
                    break
                i += 1
            ptr[v] = i
            if i < k:
                path.append(e)
                v = head[e]
                continue
            dist[v] = -1  # dead end for the rest of the phase
            if not path:
                break
            v = head[path.pop() ^ 1]
            ptr[v] += 1


def min_cut_sink_side(res: MaxFlowResult) -> CutCertificate:
    """Certificate of the minimum cut whose sink side is V minus source_side."""
    g = res.graph
    sink = frozenset(range(g.n)) - res.source_side
    cert = cut_certificate(g, sink)
    assert cert.value == g.value(res.value), "max-flow/min-cut duality violated"
    return cert
