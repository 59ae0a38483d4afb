"""Shared brute-force oracles, instance generators and test helpers.

The brute-force oracles here enumerate subsets or separators directly
and never call the library's flow or certificate machinery, so they stay
independent of the code paths they check.  The plain per-sink oracles
(``plain_edge_oracle``, ``plain_vertex_oracle``) do call ``max_flow``:
they run every flow to completion, the reference that the library's
capped oracles must match exactly.
"""

import contextlib
import itertools
import json
import random
import signal
import sys
from collections import deque
from dataclasses import replace
from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

from dircut import INFINITE, DiGraph, NoCutExistsError, VertexCapGraph
from dircut.edgecut import CutResult, _better
from dircut.graph import reverse
from dircut.maxflow import max_flow, min_cut_sink_side
from dircut.vertexcut import (
    _admissible_sinks,
    _global_start,
    _normalize,
    _oracle_extract,
    _reversal,
    _unreached,
    split_transform,
)

# Property tests draw the same examples on every run and have no deadline,
# so a slow or loaded machine neither changes nor fails them.  The
# "explore" profile (pytest --hypothesis-profile=explore) draws fresh
# examples, fixed by --hypothesis-seed, still without a deadline.
settings.register_profile("dircut", derandomize=True, deadline=None)
settings.register_profile("explore", derandomize=False, deadline=None)
settings.load_profile("dircut")


class Overtime(Exception):
    """Raised by the alarm of ``time_bound``; no input-error class, so the
    command line does not catch it."""


@contextlib.contextmanager
def time_bound(seconds):
    """Raise ``Overtime`` in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def golden_main(argv, path, compute):
    """Command line of a golden-output test file.  ``--write`` records
    ``compute()``, a dict of entry id to record, in ``path``, one entry a
    line.  ``--diff`` writes nothing: it prints every entry whose current
    record differs from the recorded one, with each field that differs as
    recorded -> current, and exits 0."""
    if argv not in (["--write"], ["--diff"]):
        sys.exit(f"usage: python {sys.argv[0]} --write | --diff")
    data = compute()
    if argv == ["--write"]:
        lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(data.items())]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {len(data)} entries to {path}")
        return
    recorded = json.loads(path.read_text())
    changed = [e for e in sorted(data.keys() | recorded.keys())
               if data.get(e) != recorded.get(e)]
    for entry in changed:
        old, new = recorded.get(entry, {}), data.get(entry, {})
        print(entry)
        for field in sorted(old.keys() | new.keys()):
            if old.get(field) != new.get(field):
                print(f"  {field}: {json.dumps(old.get(field))} -> {json.dumps(new.get(field))}")
    print(f"{len(changed)} of {len(recorded)} recorded entries differ")


def arc_flows(res):
    """The flow on each arc of ``res.graph``, in arc order: the residual
    capacity of the arc's reverse edge (edge 2i+1 of the flow network),
    which starts at zero."""
    return tuple(res.residual[1 : 2 * res.graph.m : 2])


def verify_flow(g, flows, s, t):
    """Check capacity feasibility and conservation of ``flows`` exactly."""
    if len(flows) != g.m:
        return False
    for (u, v, c), f in zip(g.arcs, flows):
        if f < 0 or f > c:
            return False
    net = [0] * g.n
    for (u, v, _), f in zip(g.arcs, flows):
        net[u] -= f
        net[v] += f
    for v in range(g.n):
        if v not in (s, t) and net[v] != 0:
            return False
    return True


def cut_value(g, sink):
    """Independent re-summation of the cut into ``sink`` over the arc list."""
    sink = set(sink)
    total = 0
    for t, h, c in g.arcs:
        if h in sink and t not in sink:
            total += c
    return Fraction(total, g.scale)


def conditioning_ratio(level, volume, epsilon, aux_divisor=2):
    """The ratio that ``condition_rooted`` guarantees between every rooted
    cut of its output and the cut's in-volume there:
    epsilon*level/(2*aux_divisor*volume).  ``precondition_rooted`` uses
    aux divisor 2, the vertex prober 6."""
    return Fraction(epsilon) * Fraction(level) / (2 * aux_divisor * volume)


def iter_sink_sets(n, root):
    others = [v for v in range(n) if v != root]
    for size in range(1, len(others) + 1):
        for combo in itertools.combinations(others, size):
            yield frozenset(combo)


def brute_min_rooted_cut(g, root):
    """Exhaustive minimum rooted cut: (value, sink set)."""
    best = None
    for sink in iter_sink_sets(g.n, root):
        val = cut_value(g, sink)
        if best is None or val < best[0]:
            best = (val, sink)
    return best


def brute_min_st_cut(g, s, t):
    """Exhaustive minimum (s, t)-cut value."""
    best = None
    for sink in iter_sink_sets(g.n, s):
        if t not in sink:
            continue
        val = cut_value(g, sink)
        if best is None or val < best:
            best = val
    return best


def brute_minimal_source_side(g, s, t):
    """Intersection of the source sides of all minimum (s, t)-cuts."""
    best = None
    side = None
    for sink in iter_sink_sets(g.n, s):
        if t not in sink:
            continue
        val = cut_value(g, sink)
        source = frozenset(range(g.n)) - sink
        if best is None or val < best:
            best, side = val, source
        elif val == best:
            side &= source
    return side


def in_neighbors(g, v):
    """The in-neighbours of ``v`` in the vertex graph ``g``."""
    return frozenset(t for t, h in g.arcs if h == v)


def topo_reach(n, arcs, source, removed=frozenset()):
    """Reachability in a plain arc list with some vertices removed."""
    removed = set(removed)
    adj = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
    if source in removed:
        return set()
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen and v not in removed:
                seen.add(v)
                queue.append(v)
    return seen


def brute_min_separator(g, s, t):
    """Exhaustive minimum vertex (s, t)-separator value, or None if s->t
    survives every removal (i.e. the arc (s, t) exists)."""
    others = [v for v in range(g.n) if v not in (s, t)]
    best = None
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            if t in topo_reach(g.n, g.arcs, s, frozenset(combo)):
                continue
            val = Fraction(sum(g.vcaps[w] for w in combo), g.scale)
            if best is None or val < best:
                best = val
    return best


def brute_global_vertex_cut(g):
    """Exhaustive global minimum vertex cut value, or None for complete graphs."""
    best = None
    vertices = list(range(g.n))
    for size in range(g.n - 1):
        for combo in itertools.combinations(vertices, size):
            removed = frozenset(combo)
            survivors = [v for v in vertices if v not in removed]
            if len(survivors) < 2:
                continue
            base = survivors[0]
            fwd = topo_reach(g.n, g.arcs, base, removed)
            rev = topo_reach(g.n, [(v, u) for u, v in g.arcs], base, removed)
            if all(v in fwd and v in rev for v in survivors):
                continue  # still strongly connected
            val = Fraction(sum(g.vcaps[w] for w in combo), g.scale)
            if best is None or val < best:
                best = val
    return best


def _plain_rooted_oracle(g, r):
    """One uncapped flow per non-root sink; the first zero cut ends the loop."""
    if g.n < 2:
        raise NoCutExistsError("graph has no non-root vertex")
    best = None
    calls = 0
    for t in range(g.n):
        if t == r:
            continue
        cut = min_cut_sink_side(max_flow(g, r, t))
        calls += 1
        if cut.value == 0:
            best = cut
            break
        best = _better(best, cut)
    return CutResult(best, calls, ())


def plain_edge_oracle(g, root=None):
    """The exact edge oracle with every per-sink flow run to completion, as
    a CutResult: rooted at ``root``, or global over vertex 0 of ``g`` and
    of its reversal (a forward zero cut skips the reversal)."""
    if root is not None:
        return _plain_rooted_oracle(g, root)
    forward = _plain_rooted_oracle(g, 0)
    if forward.value == 0:
        return forward
    backward = _plain_rooted_oracle(reverse(g), 0)
    best = _better(forward.certificate,
                   replace(backward.certificate, orientation="reverse"))
    return CutResult(best, forward.flow_calls + backward.flow_calls, ())


def plain_vertex_oracle(g, root=None):
    """The exact vertex oracle with every split-graph flow run to
    completion, as a CutResult: one flow per admissible sink of ``root``,
    or per ordered nonadjacent pair when ``root`` is None."""
    ng = _normalize(g)
    if root is not None:
        zero = _unreached(ng, root, ng.arcs)
        pairs = [(root, t) for t in _admissible_sinks(ng, root)]
        if not pairs:
            raise NoCutExistsError("every vertex is the root or a direct out-neighbor")
    else:
        zero = _global_start(ng, _reversal(ng))
        adjacent = set(ng.arcs)
        pairs = [
            (s, t) for s in range(ng.n) for t in range(ng.n)
            if s != t and (s, t) not in adjacent
        ]
    if zero is not None:
        return CutResult(zero, 0, ())
    if not pairs:
        raise NoCutExistsError("complete digraph has no vertex cut")
    split = split_transform(ng)
    best = None
    for s, t in pairs:
        best = _better(best, _oracle_extract(ng, s, max_flow(split, ng.n + s, t)))
    return CutResult(best, len(pairs), ())


def root_loop_vertex_oracle(g):
    """The global exact vertex oracle's root loop with every capped flow
    run, as a CutResult: roots by decreasing capacity, each in both
    orientations, one flow per admissible sink into a demand arc at the
    shared cap, until the roots done weigh at least the cap."""
    ng = _normalize(g)
    reversal = _reversal(ng)
    zero = _global_start(ng, reversal)
    if zero is not None:
        return CutResult(zero, 0, ())
    if ng.m == ng.n * (ng.n - 1):
        raise NoCutExistsError("complete digraph has no vertex cut")
    splits = [(orientation, h, split_transform(h))
              for orientation, h in (("forward", ng), ("reverse", reversal))]
    best, flows, weight, cap = None, 0, 0, sum(ng.vcaps) + 1
    for r in sorted(range(ng.n), key=lambda v: (-ng.vcaps[v], v)):
        for orientation, h, split in splits:
            for t in _admissible_sinks(h, r):
                res = max_flow(split, h.n + r, split.n, demands=[(t, cap)])
                flows += 1
                if res.value < cap:
                    cert = replace(_oracle_extract(h, r, res), orientation=orientation)
                    best = _better(best, cert)
                    cap = res.value + 1
        weight += ng.vcaps[r]
        if weight >= cap:
            break
    return CutResult(best, flows, ())


def rand_digraph(rng, n, extra, wmax=10, strong=True, scale=1):
    """Random weighted digraph; a shuffled cycle keeps it strongly connected."""
    pairs = set()
    if strong:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            pairs.add((order[i], order[(i + 1) % n]))
    while len(pairs) < min(extra + (n if strong else 0), n * (n - 1)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            pairs.add((u, v))
    arcs = [(u, v, rng.randint(1, wmax)) for u, v in sorted(pairs)]
    return DiGraph(n, arcs, scale=scale)


def rand_vertex_graph(rng, n, p=0.35, vmax=10, strong=True):
    pairs = set()
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                pairs.add((u, v))
    if strong:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            pairs.add((order[i], order[(i + 1) % n]))
    vcaps = [rng.randint(1, vmax) for _ in range(n)]
    return VertexCapGraph(n, sorted(pairs), vcaps)


def g1():
    """The small worked example used throughout: r->a:2, r->b:1, a->b:1, b->a:1."""
    return DiGraph(3, [(0, 1, 2), (0, 2, 1), (1, 2, 1), (2, 1, 1)])


def g2():
    """Vertex example: r->a, r->b, a->t, b->t with caps a=1, b=2."""
    return VertexCapGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [5, 1, 2, 5])


#: Capacities that stress the flow engine: zero, small, near 2**70, infinite.
capacities = st.one_of(
    st.integers(0, 4),
    st.integers(2**70 - 3, 2**70 + 3),
    st.just(INFINITE),
)


@st.composite
def tiny_graphs(draw, max_n=7):
    """Digraphs on 2..max_n vertices with parallel arcs and mixed capacities."""
    n = draw(st.integers(2, max_n))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), capacities),
        max_size=3 * n,
    ))
    scale = draw(st.integers(1, 3))
    return DiGraph(n, [(u, v, c) for u, v, c in arcs if u != v], scale=scale)


#: Positive capacities: small, near 2**70 and infinite.
positive_capacities = st.one_of(
    st.integers(1, 4),
    st.integers(2**70 - 3, 2**70 + 3),
    st.just(INFINITE),
)


@st.composite
def probing_graphs(draw, max_n=7):
    """``tiny_graphs`` plus, into every vertex v, an arc of a positive
    capacity from each of v-1 and v+1 (mod n).  So the root 0 reaches
    every vertex along positive arcs and no rooted cut is zero; on three or
    more vertices every singleton cut is at least twice the smallest
    positive capacity, so the rooted searches run and probe."""
    g = draw(tiny_graphs(max_n))
    n = g.n
    ring = [(u, v) for v in range(n) for u in ((v - 1) % n, (v + 1) % n)]
    caps = draw(st.lists(positive_capacities, min_size=len(ring), max_size=len(ring)))
    arcs = g.arcs_as_input() + [(u, v, c) for (u, v), c in zip(ring, caps)]
    return DiGraph(n, arcs, scale=g.scale)


#: Capacities of which half are zero.
zero_heavy = st.sampled_from([0, 0, 1, 2])


def _cycle_and_chords(draw, n):
    """The cycle 0 -> 1 -> ... -> 0 plus up to 2n drawn arcs, so every
    vertex is reachable from every other."""
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2 * n))
    return [(v, (v + 1) % n) for v in range(n)] + [(u, v) for u, v in chords if u != v]


@st.composite
def zero_heavy_graphs(draw, max_n=6, caps=zero_heavy):
    """Integer-capacity digraphs on 3..max_n vertices built by
    ``_cycle_and_chords`` with capacities drawn from ``caps``; by default
    half of them are zero, so zero cuts hide behind zero-capacity arcs."""
    n = draw(st.integers(3, max_n))
    pairs = _cycle_and_chords(draw, n)
    caps = draw(st.lists(caps, min_size=len(pairs), max_size=len(pairs)))
    return DiGraph(n, [(u, v, c) for (u, v), c in zip(pairs, caps)])


@st.composite
def zero_heavy_vertex_graphs(draw, max_n=6, caps=zero_heavy):
    """Vertex-capacitated digraphs on 3..max_n vertices built by
    ``_cycle_and_chords`` with capacities drawn from ``caps``, by default
    half of them zero."""
    n = draw(st.integers(3, max_n))
    arcs = _cycle_and_chords(draw, n)
    vcaps = draw(st.lists(caps, min_size=n, max_size=n))
    return VertexCapGraph(n, arcs, vcaps)


@st.composite
def probing_vertex_graphs(draw, caps, max_n=6):
    """Vertex-capacitated digraphs on 4..max_n vertices: the arcs of
    ``_cycle_and_chords`` plus the reverse cycle, so both arcs join v and
    v+1 (mod n), with positive capacities drawn from ``caps``.  Each
    single-vertex sink v that admits a cut then has v-1 and v+1 in its
    separator, rooted at 0 or global, so every trivial cut is at least
    twice the smallest capacity and the searches probe."""
    n = draw(st.integers(4, max_n))
    arcs = _cycle_and_chords(draw, n) + [((v + 1) % n, v) for v in range(n)]
    vcaps = draw(st.lists(caps, min_size=n, max_size=n))
    return VertexCapGraph(n, arcs, vcaps)
