"""Exact single-commodity max-flow / min-cut (Dinic on a residual network
of paired arcs).

All arithmetic is on integer capacity numerators, so flow values, per-arc
flows and cut values are exact.  The engine sits behind one function so a
faster solver could replace it without touching callers.

The residual network of a graph is built once and kept on the graph,
which is immutable: edge ``2i`` is ``arcs[i]`` and edge ``2i+1`` its
reverse, with per-vertex lists of edge ids.  Graphs that differ only in
capacities can share one set of those arrays (``share_network``).  A
call copies the capacities; one with demand arcs into a supersink ``g.n``
also copies the head array and the edge lists it extends, then appends
the arcs, which is how the Steiner recursion routes to a terminal set
without building a new graph, and how the exact oracles stop each
per-sink flow one above the best cut so far.

Each phase labels vertices by residual distance to the sink, with a
reverse BFS that stops once the source is labelled, and pushes a blocking
flow along arcs that lower that distance by one.  Dead ends are marked,
and after an augmentation the search resumes at the tail of the first
saturated arc.  A flow stops once the arcs into the sink are full, and
its residual source side is computed only when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import CutCertificate, DiGraph, cut_certificate


@dataclass(slots=True)
class MaxFlowResult:
    """Flow value plus the canonical minimal source side.

    ``source_side`` is the set of vertices reachable from the source in
    the residual graph (computed on first read), which makes the induced
    minimum cut deterministic.  ``residual``, ``head`` and ``adj`` are the
    flow's network arrays: edge ``2i`` is ``graph.arcs[i]`` and edge
    ``2i+1`` its reverse, whose residual capacity is the flow on that arc.
    """

    graph: DiGraph
    source: int
    sink: int
    value: int  # numerator at graph.scale
    residual: list = field(repr=False, compare=False)
    head: list = field(repr=False, compare=False)
    adj: list = field(repr=False, compare=False)
    _side: frozenset = field(default=None, init=False, repr=False, compare=False)

    @property
    def source_side(self) -> frozenset:
        if self._side is None:
            head, cap, adj = self.head, self.residual, self.adj
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


def _network(g: DiGraph):
    """(head, cap, adj, infinite edge ids) of ``g``, built on first use."""
    net = g._flow_network
    if net is None:
        m = g.m
        head = [0] * (2 * m)
        cap = [0] * (2 * m)
        adj = [[] for _ in range(g.n)]
        if m:
            tails, heads, caps = zip(*g.arcs)
            head[0::2] = heads
            head[1::2] = tails
            cap[0::2] = caps
        e = 0
        for u, v, _ in g.arcs:
            adj[u].append(e)
            adj[v].append(e + 1)
            e += 2
        net = g._flow_network = (head, cap, adj, [2 * i for i in sorted(g.inf_arcs)])
    return net


def share_network(g: DiGraph, like: DiGraph) -> DiGraph:
    """Give ``g`` the residual arrays of ``like``, a graph with the same
    arcs and infinite arcs but other capacities, so that only ``g``'s
    capacities are new; returns ``g``."""
    head, _, adj, inf_edges = _network(like)
    cap = [0] * len(head)
    cap[0::2] = [c for _, _, c in g.arcs]
    g._flow_network = (head, cap, adj, inf_edges)
    return g


def max_flow(g: DiGraph, s: int, t: int, demands=()) -> MaxFlowResult:
    """Exact maximum (s, t)-flow.

    ``demands`` lists ``(vertex, numerator)`` arcs into an extra vertex
    ``g.n``, the supersink, appended after ``g``'s arcs; infinite arcs
    then get the sentinel the extended graph would have.  ``residual``
    then describes the extended network, and ``min_cut_sink_side`` the
    cut of ``g`` that the source side leaves, whose value is the flow's
    when that cut crosses no demand arc and no infinite arc.
    """
    n = g.n + 1 if demands else g.n
    if s == t:
        raise ValueError("source and sink coincide")
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("source or sink out of range")
    head, cap, adj, inf_edges = _network(g)
    cap = cap[:]
    if demands:
        supersink = g.n
        head = head[:]
        adj = adj[:]
        into_supersink = []
        extra = 0
        for v, c in demands:
            if not 0 <= v < supersink or c < 0:
                raise ValueError("demand arc out of range or negative")
            e = len(head)
            head += (supersink, v)
            cap += (c, 0)
            adj[v] = adj[v] + [e]
            into_supersink.append(e + 1)
            extra += c
        adj.append(into_supersink)
        if extra:
            sentinel = g.inf_value + extra
            for e in inf_edges:
                cap[e] = sentinel

    return MaxFlowResult(g, s, t, _dinic(head, cap, adj, n, s, t), cap, head, adj)


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
