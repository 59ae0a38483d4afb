"""Directed multigraphs with exact scaled-integer arc capacities.

Every capacity is a nonnegative rational stored as an integer numerator
over a single per-graph denominator (``scale``), so sums and comparisons
stay in exact integer arithmetic.  Arcs may be marked ``INFINITE``: they
are materialized with a sentinel numerator equal to (sum of all finite
numerators) + 1, computed at construction, which makes any cut crossing
one compare greater than every finite cut in the same graph.

Graphs are immutable after construction.  All operations here are pure
functions returning new graphs, so concurrent readers need no locking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


class NoCutExistsError(ValueError):
    """The requested cut does not exist (complete digraph, dominated root, ...)."""


class _InfiniteCapacity:
    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"


#: Marker accepted wherever an arc capacity is expected.
INFINITE = _InfiniteCapacity()


class DiGraph:
    """Immutable directed multigraph.

    Arcs are ``(tail, head, numerator)`` triples with dense vertex ids
    ``0..n-1``.  Self-loops are rejected; parallel arcs are permitted and
    counted individually by in-degree and in-volume.  ``_flow_network``
    holds the graph's residual arrays once ``maxflow`` has built them, or
    shared those of a graph with the same arcs (``share_network``), so
    they live as long as the graphs that use them.
    """

    __slots__ = ("n", "arcs", "scale", "inf_arcs", "inf_value", "_flow_network")

    def __init__(self, n, arcs, scale=1):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if scale <= 0:
            raise ValueError("scale must be positive")
        raw = list(arcs)
        inf_idx = []
        total = 0
        for i, (tail, head, cap) in enumerate(raw):
            if not (0 <= tail < n and 0 <= head < n):
                raise ValueError(f"arc {i}: endpoint out of range")
            if tail == head:
                raise ValueError(f"arc {i}: self-loop {tail}->{head}")
            if cap is INFINITE or isinstance(cap, _InfiniteCapacity):
                inf_idx.append(i)
            else:
                if not isinstance(cap, int) or isinstance(cap, bool):
                    raise TypeError(f"arc {i}: capacity numerator must be int")
                if cap < 0:
                    raise ValueError(f"arc {i}: negative capacity")
                total += cap
        inf_value = total + 1
        self.n = n
        self.scale = scale
        self.inf_arcs = frozenset(inf_idx)
        self.inf_value = inf_value
        self.arcs = tuple(
            (t, h, inf_value if i in self.inf_arcs else c)
            for i, (t, h, c) in enumerate(raw)
        )
        self._flow_network = None

    def with_capacities(self, caps, scale) -> "DiGraph":
        """A graph with this graph's arcs, in order, and its infinite arcs,
        but the finite numerators ``caps`` (one per arc; the list is
        modified, and entries at infinite arcs are overwritten) at
        ``scale``.  Only the capacities are checked; ``maxflow.share_network``
        then gives it this graph's residual arrays."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        if len(caps) != len(self.arcs):
            raise ValueError("need one capacity per arc")
        inf_ids = self.inf_arcs
        for i in inf_ids:
            caps[i] = 0
        if not all(type(c) is int for c in caps):
            raise TypeError("capacity numerators must be int")
        if caps and min(caps) < 0:
            raise ValueError("negative capacity")
        g = DiGraph.__new__(DiGraph)
        g.n = self.n
        g.scale = scale
        g.inf_arcs = inf_ids
        g.inf_value = sum(caps) + 1
        for i in inf_ids:
            caps[i] = g.inf_value
        g.arcs = tuple([(t, h, c) for (t, h, _), c in zip(self.arcs, caps)])
        g._flow_network = None
        return g

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.arcs)

    def value(self, numerator: int) -> Fraction:
        """Rational value of a capacity numerator at this graph's scale."""
        return Fraction(numerator, self.scale)

    def arcs_as_input(self):
        """Arcs with INFINITE restored, suitable for building derived graphs."""
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


@dataclass(frozen=True)
class ContractionMap:
    """Total map old vertex id -> new vertex id after contracting into the root."""

    mapping: tuple
    new_n: int
    root_image: int

    def apply(self, v: int) -> int:
        return self.mapping[v]

    def preimage(self, new_ids: Iterable[int]) -> frozenset:
        """Preimage of a set of surviving (non-root) vertex ids."""
        want = frozenset(new_ids)
        if self.root_image in want:
            raise ValueError("preimage of the root image is not a vertex set")
        return frozenset(v for v, w in enumerate(self.mapping) if w in want)


def cut_certificate(g: DiGraph, sink, root=None) -> CutCertificate:
    """Build the exact certificate for the cut whose sink component is ``sink``."""
    sink_set = frozenset(sink)
    if not sink_set:
        raise ValueError("sink set must be nonempty")
    for v in sink_set:
        if not (0 <= v < g.n):
            raise ValueError(f"sink vertex {v} out of range")
    if root is not None and root in sink_set:
        raise ValueError("root may not lie in the sink set")
    crossing = []
    total = 0
    for i, (t, h, c) in enumerate(g.arcs):
        if h in sink_set and t not in sink_set:
            crossing.append(i)
            total += c
    return CutCertificate(sink_set, tuple(crossing), Fraction(total, g.scale))


def reverse(g: DiGraph) -> DiGraph:
    """Graph with every arc reversed; an involution."""
    arcs = [
        (h, t, INFINITE if i in g.inf_arcs else c)
        for i, (t, h, c) in enumerate(g.arcs)
    ]
    return DiGraph(g.n, arcs, scale=g.scale)


def in_volume(g: DiGraph, vertices) -> int:
    """Number of stored arcs whose head lies in ``vertices`` (capacities ignored)."""
    vs = set(vertices)
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    return sum(1 for _, h, _ in g.arcs if h in vs)


def merge_parallel(g: DiGraph) -> DiGraph:
    """Sum parallel arcs so each ordered pair appears at most once.

    Cut values are unchanged exactly.  Note that unweighted in-degrees do
    change; all volume and sampling computations are defined on the graph
    as stored, so callers merge first when they need stable degrees.
    """
    finite: dict = {}
    infinite: set = set()
    for i, (t, h, c) in enumerate(g.arcs):
        if i in g.inf_arcs:
            infinite.add((t, h))
        else:
            finite[(t, h)] = finite.get((t, h), 0) + c
    arcs = []
    for (t, h) in sorted(set(finite) | infinite):
        if (t, h) in infinite:
            arcs.append((t, h, INFINITE))
        else:
            arcs.append((t, h, finite[(t, h)]))
    return DiGraph(g.n, arcs, scale=g.scale)


def contract_into_root(g: DiGraph, r: int, block) -> tuple:
    """Contract ``block`` (which must contain ``r``) into the root.

    Arcs inside the block vanish, arcs whose image head would be the root
    are dropped, everything else keeps its capacity.  For every sink set
    S disjoint from the block the cut value is identical before and after.
    """
    block_set = frozenset(block)
    if r not in block_set:
        raise ValueError("contraction block must contain the root")
    for v in block_set:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    survivors = sorted(v for v in range(g.n) if v not in block_set)
    mapping = [0] * g.n
    for new_id, v in enumerate(survivors, start=1):
        mapping[v] = new_id
    new_n = len(survivors) + 1
    arcs = []
    for i, (t, h, c) in enumerate(g.arcs):
        nt, nh = mapping[t], mapping[h]
        if nh == 0:
            continue  # head lands in the root: never crosses a rooted cut
        arcs.append((nt, nh, INFINITE if i in g.inf_arcs else c))
    contracted = DiGraph(new_n, arcs, scale=g.scale)
    assert contracted.m <= in_volume(g, survivors)
    return contracted, ContractionMap(tuple(mapping), new_n, 0)


def reachable(g: DiGraph, source: int) -> frozenset:
    """Vertices reachable from ``source`` along arcs of any capacity."""
    return reach(g.n, [(t, h) for t, h, _ in g.arcs], source)


def reach(n: int, pairs, source: int) -> frozenset:
    """Vertices of ``range(n)`` reachable from ``source`` along the arcs
    ``(tail, head)`` in ``pairs``.  Raises ValueError for a ``source``
    outside ``range(n)``, so a root of -1 is not read as vertex n-1."""
    if not 0 <= source < n:
        raise ValueError(f"root {source} out of range 0..{n - 1}")
    adj = [[] for _ in range(n)]
    for t, h in pairs:
        adj[t].append(h)
    seen = [False] * n
    seen[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return frozenset(v for v in range(n) if seen[v])
