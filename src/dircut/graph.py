"""Directed multigraphs with exact scaled-integer arc capacities.

Every capacity is a nonnegative rational stored as an integer numerator
over a single per-graph denominator (``scale``), so sums and comparisons
stay in exact integer arithmetic.  Arcs may be marked ``INFINITE``: they
are materialized with a sentinel numerator equal to (sum of all finite
numerators) + 1, computed at construction, which makes any cut crossing
one compare greater than every finite cut in the same graph.

Only outside input is validated, by ``DiGraph(n, arcs, scale)`` and
``vertexcut.VertexCapGraph(n, arcs, vcaps, scale)``, which share the
checks of the vertex count, the scale and each arc's endpoints
(``_check_shape``, ``_check_arc``): counts and ids must be ints, not
bools.  A rooted solve checks its root the same way, once, where it
starts (``_check_root``), and ``cut_certificate`` its root and sink.
Every graph of either type derived from a validated one is built by its
``_unchecked``.  ``DiGraph.__init__`` and ``DiGraph._unchecked`` store
through ``DiGraph._store``, which computes the sentinel.

Graphs are immutable after construction.  All operations here are pure
functions returning new graphs, so concurrent readers need no locking.
Each graph owns the residual arrays that its flows run on, built at its
first flow (``_network``); no two graphs share them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction


class NoCutExistsError(ValueError):
    """The requested cut does not exist (complete digraph, dominated root, ...)."""


class _InfiniteCapacity:
    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"


#: Marker accepted wherever an arc capacity is expected.
INFINITE = _InfiniteCapacity()


def _check_int(field, value) -> None:
    """Reject a ``value`` of ``field`` that is not an int: a float or
    Fraction would fail deep inside a solver, and a bool pass as 0 or 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{field} must be int, not {type(value).__name__}")


def _check_shape(n, scale) -> None:
    """Reject a vertex count that is not a nonnegative int, or a scale
    (the capacity denominator) that is not a positive int."""
    _check_int("vertex count", n)
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    _check_int("scale", scale)
    if scale <= 0:
        raise ValueError("scale must be positive")


def _check_root(r, n) -> None:
    """Reject a root that is not an int of ``range(n)``; each rooted solve
    checks its root once, where it starts."""
    _check_int("root", r)
    if not 0 <= r < n:
        raise ValueError(f"root {r} out of range 0..{n - 1}")


def _check_arc(i, tail, head, n) -> None:
    """Reject input arc ``i`` unless its endpoints are two distinct ints
    of ``range(n)``.  Plain ints skip the ``isinstance`` tests, which
    accept every other int subclass but bool."""
    if not (type(tail) is int and type(head) is int) and (
            not (isinstance(tail, int) and isinstance(head, int))
            or isinstance(tail, bool) or isinstance(head, bool)):
        raise TypeError(f"arc {i}: endpoints must be int")
    if not (0 <= tail < n and 0 <= head < n):
        raise ValueError(f"arc {i}: endpoint out of range")
    if tail == head:
        raise ValueError(f"arc {i}: self-loop {tail}->{head}")


class DiGraph:
    """Immutable directed multigraph.

    Arcs are ``(tail, head, numerator)`` triples with dense vertex ids
    ``0..n-1``, the arc ids in ``inf_arcs`` at the sentinel
    ``inf_value``.  The constructor validates input arcs, in which
    ``INFINITE`` marks an infinite arc; self-loops are rejected, parallel
    arcs are permitted and counted individually by in-degree and
    in-volume.  ``_flow_network`` holds the graph's own residual arrays
    (``_network``), None until its first flow builds them.
    """

    __slots__ = ("n", "arcs", "scale", "inf_arcs", "inf_value", "_flow_network")

    def __init__(self, n, arcs, scale=1):
        _check_shape(n, scale)
        tails, heads, caps, inf_arcs = [], [], [], []
        for i, (tail, head, cap) in enumerate(arcs):
            _check_arc(i, tail, head, n)
            if isinstance(cap, _InfiniteCapacity):
                inf_arcs.append(i)
            elif type(cap) is not int and (not isinstance(cap, int) or isinstance(cap, bool)):
                raise TypeError(f"arc {i}: capacity numerator must be int")
            elif cap < 0:
                raise ValueError(f"arc {i}: negative capacity")
            tails.append(tail)
            heads.append(head)
            caps.append(cap)
        self._store(n, tails, heads, caps, scale, frozenset(inf_arcs))

    @classmethod
    def _unchecked(cls, n, tails, heads, caps, scale, inf_arcs) -> "DiGraph":
        """The graph on ``range(n)`` with arcs (tails[i], heads[i], caps[i])
        at the positive int ``scale``, the arc ids ``inf_arcs`` (a
        frozenset) infinite.  Nothing is checked: the caller builds it from
        a validated graph.  ``_store`` overwrites ``caps`` at the infinite
        ids, so when there are any it must be a list of the caller's own."""
        g = cls.__new__(cls)
        g._store(n, tails, heads, caps, scale, inf_arcs)
        return g

    def _store(self, n, tails, heads, caps, scale, inf_arcs) -> None:
        """Set every field, the one place that computes the sentinel: what
        ``caps`` holds at ``inf_arcs`` is replaced by the sum of its other
        entries + 1."""
        for i in inf_arcs:
            caps[i] = 0
        self.n, self.scale, self.inf_arcs = n, scale, inf_arcs
        self.inf_value = sum(caps) + 1
        for i in inf_arcs:
            caps[i] = self.inf_value
        self.arcs, self._flow_network = tuple(zip(tails, heads, caps)), None

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.arcs)

    def value(self, numerator: int) -> Fraction:
        """Rational value of a capacity numerator at this graph's scale."""
        return Fraction(numerator, self.scale)

    def arcs_as_input(self):
        """Arcs with INFINITE restored: input for ``DiGraph`` outside the
        library, which builds its derived graphs unchecked."""
        return [
            (t, h, INFINITE if i in self.inf_arcs else c)
            for i, (t, h, c) in enumerate(self.arcs)
        ]

    def in_degrees(self) -> list[int]:
        deg = [0] * self.n
        for _, h, _ in self.arcs:
            deg[h] += 1
        return deg

    def __eq__(self, other):
        return (
            isinstance(other, DiGraph)
            and self.n == other.n
            and self.scale == other.scale
            and self.arcs == other.arcs
            and self.inf_arcs == other.inf_arcs
        )

    def __hash__(self):
        return hash((self.n, self.scale, self.arcs, self.inf_arcs))

    def __repr__(self):
        return f"DiGraph(n={self.n}, m={self.m}, scale={self.scale})"


def _network(g: DiGraph):
    """(head, cap, adj, infinite edge ids) of ``g``, built at its first flow
    and kept on the graph: edge ``2i`` is arc i and edge ``2i+1`` its
    reverse, and ``adj[v]`` lists the edges out of v."""
    net = g._flow_network
    if net is None:
        tails, heads, caps = zip(*g.arcs) if g.arcs else ((), (), ())
        head = [0] * (2 * g.m)
        head[0::2] = heads
        head[1::2] = tails
        cap = [0] * len(head)
        cap[0::2] = caps
        adj = [[] for _ in range(g.n)]
        e = 0
        for u, v in zip(tails, heads):
            adj[u].append(e)
            adj[v].append(e + 1)
            e += 2
        net = g._flow_network = (head, cap, adj, [2 * i for i in sorted(g.inf_arcs)])
    return net


@dataclass(frozen=True)
class CutCertificate:
    """A rooted cut identified by its sink component.

    ``crossing`` holds indices into the arc list of the graph the
    certificate was built against; ``value`` is the exact total capacity
    of those arcs.  ``orientation`` records whether that graph is the
    input graph or its reversal (global modes try both).
    """

    sink_set: frozenset
    crossing: tuple
    value: Fraction
    orientation: str = "forward"

    @property
    def rank(self) -> tuple:
        """Key of the deterministic order among cuts: value, then sink
        size, the sorted sink and orientation."""
        return (self.value, len(self.sink_set), tuple(sorted(self.sink_set)),
                self.orientation)


def cut_certificate(g: DiGraph, sink, root=None) -> CutCertificate:
    """Build the exact certificate for the cut whose sink component is
    ``sink``; its vertices and ``root`` are checked as ``_check_root`` does."""
    sink_set = frozenset(sink)
    if not sink_set:
        raise ValueError("sink set must be nonempty")
    for v in sink_set:
        if type(v) is not int:
            _check_int("sink vertex", v)
        if not (0 <= v < g.n):
            raise ValueError(f"sink vertex {v} out of range")
    if root is not None:
        _check_root(root, g.n)
        if root in sink_set:
            raise ValueError("root may not lie in the sink set")
    crossing = [i for i, (t, h, _) in enumerate(g.arcs) if h in sink_set and t not in sink_set]
    total = sum(g.arcs[i][2] for i in crossing)
    return CutCertificate(sink_set, tuple(crossing), Fraction(total, g.scale))


def reverse(g: DiGraph) -> DiGraph:
    """Graph with every arc reversed; an involution."""
    tails, heads, caps = zip(*g.arcs) if g.arcs else ((), (), ())
    return DiGraph._unchecked(g.n, heads, tails, list(caps), g.scale, g.inf_arcs)


def in_volume(g: DiGraph, vertices) -> int:
    """Number of stored arcs whose head lies in ``vertices`` (capacities ignored)."""
    vs = set(vertices)
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    return sum(1 for _, h, _ in g.arcs if h in vs)


def merge_parallel(g: DiGraph) -> DiGraph:
    """Sum parallel finite arcs so each ordered pair carries at most one
    finite arc, after which its infinite arcs follow as they are.

    Cut values are unchanged exactly: the finite total, and with it the
    sentinel, stays the same, and so does each cut's count of infinite
    arcs.  Note that unweighted in-degrees do change; all volume and
    sampling computations are defined on the graph as stored, so callers
    merge first when they need stable degrees.
    """
    finite: dict = {}
    arcs = []  # (tail, head, infinite?, numerator)
    for i, (t, h, c) in enumerate(g.arcs):
        if i in g.inf_arcs:
            arcs.append((t, h, True, c))
        else:
            finite[(t, h)] = finite.get((t, h), 0) + c
    arcs += [(t, h, False, c) for (t, h), c in finite.items()]
    arcs.sort()  # finite first within a pair
    tails, heads, infinite, caps = zip(*arcs) if arcs else ((), (), (), ())
    return DiGraph._unchecked(g.n, tails, heads, list(caps), g.scale,
                              frozenset(i for i, inf in enumerate(infinite) if inf))


def contract_into_root(g: DiGraph, r: int, block) -> tuple:
    """Contract ``block`` (which must contain ``r``) into the root, keeping
    every vertex id.

    Arcs whose head lies in the block vanish (inside the block, or into
    the root: neither crosses a rooted cut), arcs leaving the block start
    at ``r``, everything keeps its capacity, and the block's other
    vertices are left isolated.  Returns ``(contracted, survivors)``, the
    survivors being the vertices outside the block.  For every sink set
    S disjoint from the block the cut value is identical before and after.
    """
    block_set = frozenset(block)
    if r not in block_set:
        raise ValueError("contraction block must contain the root")
    for v in block_set:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    survivors = frozenset(range(g.n)) - block_set
    kept = [(i, r if t in block_set else t, h, c) for i, (t, h, c) in enumerate(g.arcs)
            if h not in block_set]
    ids, tails, heads, caps = zip(*kept) if kept else ((), (), (), ())
    contracted = DiGraph._unchecked(g.n, tails, heads, list(caps), g.scale,
                                    frozenset(j for j, i in enumerate(ids) if i in g.inf_arcs))
    assert contracted.m <= in_volume(g, survivors)
    return contracted, survivors


def dominator_tree(n: int, pairs, root: int) -> tuple:
    """The dominator tree of the flow graph on ``range(n)`` with arcs
    ``(tail, head)`` in ``pairs``, rooted at ``root``, in preorder:
    ``(order, first, size)`` with subtree(v), the vertices that v
    dominates, equal to ``order[first[v] : first[v] + size[v]]``.  Vertex
    d dominates v when every path from ``root`` to v passes through d.
    A vertex that ``root`` cannot reach is left out of ``order``, and its
    interval is empty (size 0).

    Lengauer and Tarjan's algorithm with path compression (TOPLAS 1979),
    O(m log n), with an iterative depth-first search and compression, so
    that long chains never reach the recursion limit.  Internally every
    vertex is named by its depth-first number, which is below the number
    of every vertex it dominates.  So the sizes are summed in one pass
    backwards over the numbers, and in one pass forwards each vertex
    takes the next free slot inside its dominator's interval."""
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range 0..{n - 1}")
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for t, h in pairs:
        succ[t].append(h)
        pred[h].append(t)
    number = [-1] * n
    number[root] = 0
    order = [root]  # vertices by depth-first number
    parent = [0]
    stack = [(root, iter(succ[root]))]
    while stack:
        v, children = stack[-1]
        for w in children:
            if number[w] < 0:
                number[w] = len(order)
                parent.append(number[v])
                order.append(w)
                stack.append((w, iter(succ[w])))
                break
        else:
            stack.pop()
    k = len(order)
    semi = list(range(k))
    label = list(range(k))
    ancestor = [-1] * k  # the forest that LINK builds, -1 at its roots
    idom = [0] * k
    bucket = [[] for _ in range(k)]

    def evaluate(v):
        """The vertex of least semidominator on the forest path above v."""
        if ancestor[v] < 0:
            return v
        path = []
        while ancestor[ancestor[v]] >= 0:
            path.append(v)
            v = ancestor[v]
        for x in reversed(path):
            a = ancestor[x]
            if semi[label[a]] < semi[label[x]]:
                label[x] = label[a]
            ancestor[x] = ancestor[a]
        return label[path[0]] if path else label[v]

    for w in range(k - 1, 0, -1):
        for u in pred[order[w]]:
            u = number[u]
            if u >= 0:
                u = evaluate(u)
                if semi[u] < semi[w]:
                    semi[w] = semi[u]
        bucket[semi[w]].append(w)
        p = parent[w]
        ancestor[w] = p
        for v in bucket[p]:
            u = evaluate(v)
            idom[v] = u if semi[u] < semi[v] else p
        bucket[p].clear()
    for w in range(1, k):
        if idom[w] != semi[w]:
            idom[w] = idom[idom[w]]
    size = [1] * k
    for w in range(k - 1, 0, -1):
        size[idom[w]] += size[w]
    slot = [0] * k
    free = [1] * k  # the next free slot inside each vertex's interval
    for w in range(1, k):
        d = idom[w]
        slot[w] = free[d]
        free[w] = free[d] + 1
        free[d] += size[w]
    preorder, first, sizes = [0] * k, [0] * n, [0] * n
    for w, v in enumerate(order):
        preorder[slot[w]] = v
        first[v] = slot[w]
        sizes[v] = size[w]
    return preorder, first, sizes


def max_adjacency_bound(n: int, weighted_arcs, start):
    """The least support in the maximum-adjacency order of ``range(n)``
    from the vertices ``start``, or None when they are all of it.  Each
    step adds the vertex with the most weight arriving from the vertices
    already added (its support) along the ``(tail, head, weight)`` arcs
    ``weighted_arcs``, ties to the smaller id, as Nagamochi and Ibaraki
    (SIAM J. Discrete Math. 1992) and Stoer and Wagner (J. ACM 1997)
    order them.  Every cut whose sink avoids ``start`` weighs at least
    that: the vertices before its first sink vertex u in the order lie
    outside the sink, so the cut crosses every arc of u's support.  One
    heap pass, O(m log n); a vertex that ``start`` cannot reach has
    support 0."""
    out = [[] for _ in range(n)]
    for t, h, w in weighted_arcs:
        out[t].append((h, w))
    support = [0] * n
    added = [False] * n
    new = list(dict.fromkeys(start))
    for v in new:
        added[v] = True
    left = n - len(new)
    heap, bound = [], None
    while left:
        for v in new:
            for h, w in out[v]:
                if not added[h]:
                    support[h] += w
                    heapq.heappush(heap, (-support[h], h))
        while heap and added[heap[0][1]]:
            heapq.heappop(heap)  # an entry of a vertex added under a newer, larger one
        if not heap:
            return 0  # the vertices left have no arc from the order
        _, v = heapq.heappop(heap)
        added[v] = True
        bound = support[v] if bound is None else min(bound, support[v])
        left -= 1
        new = [v]
    return bound


def reachable(g: DiGraph, source: int) -> frozenset:
    """Vertices reachable from ``source`` along arcs of any capacity."""
    return reach(g.n, [(t, h) for t, h, _ in g.arcs], source)


def reach(n: int, pairs, source: int) -> frozenset:
    """Vertices of ``range(n)`` reachable from ``source`` along the arcs
    ``(tail, head)`` in ``pairs`` (``_reach_out``).  Raises ValueError for
    a ``source`` outside ``range(n)``, so -1 is not read as vertex n-1."""
    if not 0 <= source < n:
        raise ValueError(f"root {source} out of range 0..{n - 1}")
    adj = [[] for _ in range(n)]
    for t, h in pairs:
        adj[t].append(h)
    return _reach_out(adj, source)


def _reach_out(out, source: int) -> frozenset:
    """The vertices reachable from ``source`` along the out-lists ``out``:
    the one traversal, shared by ``reach`` and ``edgecut._rooted_start``."""
    seen, stack = {source}, [source]
    while stack:
        for v in out[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)
