"""Rooted Steiner connectivity via the shrink-wrap divide-and-conquer.

Given a root r, terminals T and a connectivity target, either certify that
r can push the target amount of flow to a terminal, or produce a rooted
cut of smaller value whose sink contains that terminal.  Each recursion
node runs one flow into a supersink fed by per-terminal demand arcs.  A
flow that fills every demand arc certifies all the node's terminals;
otherwise a one-terminal node's flow cuts its terminal off, and a larger
node certifies the terminals in the minimal source side (their demand
arcs are saturated), contracts that side into the root and recurses on
the two halves of the terminals left.

Contraction keeps every vertex id: it drops the arcs into the source side
and leaves that side's vertices other than the root isolated, so a cut
found deeper in the recursion names the same vertices in the instance
graph.  Contraction preserves every surviving cut value exactly, so each
such cut is built once in the instance graph.

The probe layer is the only caller, and it passes values that the solvers
computed from checked input: a nonempty set of terminals in range and
apart from the root, a positive level and a group cap of at least one.
None of them is checked again here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import CutCertificate, DiGraph, contract_into_root, cut_certificate
from .maxflow import max_flow


@dataclass(frozen=True)
class Below:
    """Terminal separated by a rooted cut of value strictly below the level.
    The cut lives in the instance's original graph."""

    cut: CutCertificate


@dataclass
class ShrinkWrapStats:
    """Flow-call accounting for one shrink-wrap group.

    ``raw_flow_calls`` counts every max-flow invocation, one per recursion
    node (sequential implementation).  ``paper_flow_calls`` is the
    batched-equivalent count: the internal nodes of one depth run their
    flows on disjoint contracted graphs, charged two per depth that has
    any, plus one per one-terminal leaf, the quantity bounded by
    2*ceil(log2 k) + leaves.
    ``contraction_log`` records (depth, edges after contraction, surviving
    terminal count) for every recursion edge, for the shrink-bound checks.
    """

    group_size: int
    raw_flow_calls: int = 0
    leaf_flow_calls: int = 0
    internal_depths: set = field(default_factory=set)
    contraction_log: list = field(default_factory=list)
    max_depth: int = 0

    @property
    def paper_flow_calls(self) -> int:
        return 2 * len(self.internal_depths) + self.leaf_flow_calls

    def depth_bound(self) -> int:
        return math.ceil(math.log2(self.group_size)) if self.group_size > 1 else 0


def build_steiner_network(graph: DiGraph, terminals, level: int):
    """Attach a supersink fed by one demand arc per terminal.

    Returns the extended graph and the supersink id.  Each terminal t gets
    an arc (t, supersink) of capacity ``level``, a numerator at
    ``graph.scale``, so a max flow from the root simultaneously tries to
    route ``level`` units to every terminal.  The recursion runs the same
    network as ``max_flow`` demand arcs on the instance graph instead of
    building this graph.
    """
    terms = sorted(terminals)
    tails, heads, caps = zip(*graph.arcs) if graph.arcs else ((), (), ())
    return DiGraph._unchecked(graph.n + 1, [*tails, *terms], [*heads, *[graph.n] * len(terms)],
                              [*caps, *[level] * len(terms)], graph.scale, graph.inf_arcs), graph.n


def partition_terminals(terminals, cap: int):
    """Split terminals into ceil(|T|/cap) sorted groups of size at most
    cap, a positive int (``group_capacity`` returns at least 1)."""
    ordered = sorted(terminals)
    return [tuple(ordered[i : i + cap]) for i in range(0, len(ordered), cap)]


def shrink_wrap(graph: DiGraph, root: int, terminals, level: int):
    """Resolve every terminal of the rooted Steiner instance: can ``root``
    send ``level``, a numerator at ``graph.scale``, to each of
    ``terminals`` in ``graph``?  The probe passes a nonempty set of
    non-root vertices and a positive level, unchecked.

    Returns (outcome, stats) where outcome maps each terminal to None when
    it is certified (its root connectivity in ``graph`` is at least the
    level), else to Below, whose cut is valid in ``graph`` with value
    strictly below the level.
    """
    stats = ShrinkWrapStats(group_size=len(terminals))
    outcome = _solve(graph, graph, root, tuple(sorted(terminals)), level,
                     frozenset(range(graph.n)), 0, stats)
    assert len(stats.internal_depths) <= stats.depth_bound(), (
        "shrink-wrap exceeded its recursion-depth flow budget"
    )
    return outcome, stats


def _solve(top: DiGraph, g: DiGraph, r: int, terms, level: int, alive: frozenset, depth: int,
           stats) -> dict:
    """Outcomes of ``terms`` in ``g``, the instance graph ``top`` with the
    vertices outside ``alive`` contracted into the root (left isolated)."""
    stats.max_depth = max(stats.max_depth, depth)
    # the network of build_steiner_network, as demand arcs on g's arrays
    res = max_flow(g, r, g.n, demands=[(t, level) for t in terms])
    stats.raw_flow_calls += 1
    if len(terms) == 1:
        stats.leaf_flow_calls += 1
    else:
        stats.internal_depths.add(depth)
    # each demand arc carries at most the level, so at this value all are
    # full, though the minimal source side may hold none of the terminals
    if res.value == level * len(terms):
        return dict.fromkeys(terms)
    if len(terms) == 1:
        # below the level the cut avoids the demand arc and every infinite
        # arc, so it is a minimum (r, t)-cut of g; its sink, without the
        # isolated vertices, lies in alive, where contraction kept every
        # cut value, so the same sink is a minimum (r, t)-cut of top
        cert = cut_certificate(top, alive - res.source_side, root=r)
        assert cert.value == g.value(res.value), (
            "the instance cut differs from the contracted graph's min cut"
        )
        return {terms[0]: Below(cert)}

    source_side = res.source_side
    # a terminal in the minimal source side has its demand arc saturated,
    # so some terminal with an unfilled demand arc lies outside it
    out = dict.fromkeys(t for t in terms if t in source_side)
    uncertified = tuple(t for t in terms if t not in source_side)
    contracted, survivors = contract_into_root(g, r, source_side)
    stats.contraction_log.append((depth + 1, contracted.m, len(uncertified)))
    mid = (len(uncertified) + 1) // 2
    for half in (uncertified[:mid], uncertified[mid:]):
        if half:
            out.update(_solve(top, contracted, r, half, level, alive & survivors,
                              depth + 1, stats))
    return out
