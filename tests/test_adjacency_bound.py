"""The maximum-adjacency lower bound and the probes it skips.

``graph.max_adjacency_bound`` orders the vertices greedily from a start
set, each step adding the vertex with the most weight arriving from
those already added (its support), and returns the least support B.
Every cut whose sink avoids the start set is at least B.  The searches
skip a rooted instance's probe when B reaches the probe's threshold, and
the whole search when the trivial cut is at most every instance's B.

These tests check B against brute force, edge and vertex, at every root;
pin B on a few graphs; and run every searching entry point once with the
real bound and once with a bound of 0, which skips nothing.  The two runs
must return the same certificates and flow calls, and the skipping run's
probe log must be a subsequence of the other's.
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import dircut.edgecut
import dircut.vertexcut
from dircut import (
    INFINITE,
    DiGraph,
    NoCutExistsError,
    VertexCapGraph,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    approx_rooted_edge_cut,
    approx_rooted_vertex_cut,
    exact_small_edge_cut,
    exact_small_vertex_cut,
)
from dircut.edgecut import _edge_member
from dircut.graph import max_adjacency_bound, merge_parallel
from dircut.vertexcut import _admissible_sinks, _normalize, _split_member, prune_for_root

from conftest import (
    brute_min_rooted_cut,
    brute_min_separator,
    probing_graphs,
    probing_vertex_graphs,
    rand_vertex_graph,
    tiny_graphs,
    zero_heavy_graphs,
    zero_heavy_vertex_graphs,
)


def _edge_bound(g, r):
    return _edge_member(g, r)[1]


@settings(max_examples=200)
@given(st.one_of(tiny_graphs(), probing_graphs()))
def test_edge_bound_is_at_most_every_rooted_cut(g):
    # infinite arcs count at the sentinel, both in B and in brute force
    for r in range(g.n):
        bound = _edge_bound(g, r)
        assert 0 <= bound <= brute_min_rooted_cut(g, r)[0]
        # merging parallel arcs keeps every support
        assert _edge_bound(merge_parallel(g), r) == bound


@st.composite
def zero_cap_vertex_graphs(draw):
    """``rand_vertex_graph`` graphs on 2..7 vertices, strongly connected or
    not, with a drawn set of vertices at capacity zero."""
    n = draw(st.integers(2, 7))
    g = rand_vertex_graph(random.Random(draw(st.integers(0, 2**32))), n,
                          p=draw(st.sampled_from([0.2, 0.35, 0.6])), vmax=4,
                          strong=draw(st.booleans()))
    zeros = draw(st.sets(st.integers(0, n - 1)))
    return VertexCapGraph(n, g.arcs, [0 if v in zeros else c for v, c in enumerate(g.vcaps)])


@settings(max_examples=200)
@given(zero_cap_vertex_graphs())
def test_vertex_bound_is_at_most_every_admissible_sink_cut(g):
    ng = _normalize(g)
    for r in range(g.n):
        pruned = prune_for_root(ng, r)
        admissible = _admissible_sinks(pruned, r)
        member = _split_member(ng, r)
        if not admissible:
            assert member is None
            continue
        bound = member[1]
        assert 0 <= bound <= min(brute_min_separator(pruned, r, t) for t in admissible)
        # pruning drops only arcs into the start set, so B is the pruned instance's
        assert _split_member(pruned, r)[1] == bound


def test_bound_on_the_bidirected_cycle_and_the_complete_digraph():
    # the first vertex of the order has only its arc from the root, so B is
    # one arc's capacity: the optimum on two vertices, and half the optimum
    # 2c of the bidirected cycle, 1/(n-1) of the complete digraph's (n-1)c,
    # on three or more
    for n in range(2, 7):
        cycle = DiGraph(n, [(v, (v + d) % n, 5) for v in range(n) for d in {1, n - 1}])
        complete = DiGraph(n, [(u, v, 5) for u in range(n) for v in range(n) if u != v])
        for g, optimum in ((cycle, 5 if n == 2 else 10), (complete, 5 * (n - 1))):
            for r in range(n):
                assert brute_min_rooted_cut(g, r)[0] == optimum
                assert _edge_bound(g, r) == 5
    # vertex cuts: on the bidirected 4-cycle the one admissible sink has
    # both of the root's out-neighbours in its support, so B is the optimum
    # 2c; on longer cycles the first sink vertex has one, so B is c
    for n in range(4, 8):
        g = VertexCapGraph(n, [(v, (v + d) % n) for v in range(n) for d in (1, n - 1)], [3] * n)
        for r in range(n):
            assert _split_member(g, r)[1] == (6 if n == 4 else 3)
    # the complete digraph has no admissible sink
    complete = VertexCapGraph(4, [(u, v) for u in range(4) for v in range(4) if u != v], [1] * 4)
    assert all(_split_member(complete, r) is None for r in range(4))


def test_edge_bound_is_capped_at_the_total_finite_capacity():
    # the all-infinite 3-vertex graph of the credit tests: the order from 0
    # counts each infinite arc at the sentinel 1, the optimum, but there is
    # no finite capacity, so the bound is 0; from 1 and 2 the root has no
    # arc, a zero cut
    g = DiGraph(3, [(0, 1, INFINITE), (2, 1, INFINITE), (1, 2, INFINITE)])
    assert g.inf_value == 1
    assert max_adjacency_bound(3, g.arcs, [0]) == 1 == brute_min_rooted_cut(g, 0)[0]
    assert [_edge_bound(g, r) for r in range(3)] == [0, 0, 0]
    assert brute_min_rooted_cut(g, 1)[0] == 0 == brute_min_rooted_cut(g, 2)[0]


def test_probes_of_an_instance_that_infinite_arcs_span_keep_their_flows():
    # vertex 0 reaches 1 and 2 along infinite arcs, so every forward cut
    # crosses one and weighs at least the sentinel 3, while the reverse
    # cut into {1, 2} weighs 2.  Every trivial cut is at least 3, so both
    # searches probe below it.  The order counts the forward instance at 3,
    # above the total finite capacity 2 that the conditioned sentinels
    # exceed; a bound of 3 would skip forward probes that run flows
    g = DiGraph(3, [(0, 1, INFINITE), (1, 2, INFINITE), (2, 1, INFINITE), (1, 0, 1), (2, 0, 1)])
    assert max_adjacency_bound(3, g.arcs, [0]) == 3
    assert _edge_bound(g, 0) == 2
    for solve in (lambda: approx_global_edge_cut(g, Fraction(1, 5), seed=1),
                  lambda: exact_small_edge_cut(g, seed=1)):
        skipping, full = _with_and_without_skips(solve)
        assert skipping.value == 2 and skipping.orientation == "reverse"
        _same_answers(skipping, full)


def test_bound_order_and_unreached_vertices():
    # from 0: 1 (support 4), then 2 (3 + 2 = 5), then 3 (1); B = 1
    arcs = [(0, 1, 4), (0, 2, 3), (1, 2, 2), (2, 3, 1), (0, 3, 0)]
    assert max_adjacency_bound(4, arcs, [0]) == 1
    # vertex 4 has no arc from the order: support 0
    assert max_adjacency_bound(5, arcs, [0]) == 0
    # a start set of every vertex leaves no cut; repeated start vertices count once
    assert max_adjacency_bound(2, [(0, 1, 1)], [0, 1, 1]) is None
    assert max_adjacency_bound(3, [(0, 2, 7), (1, 2, 2)], [0, 1, 0]) == 9


def _unbounded(real):
    """``max_adjacency_bound`` with every bound 0, so that nothing is
    skipped; None (no vertex outside the start set) stays None."""
    def bound(*args):
        return None if real(*args) is None else 0
    return bound


def _solved(solve):
    """``solve()``, or None when no cut exists."""
    try:
        return solve()
    except NoCutExistsError:
        return None


def _with_and_without_skips(solve):
    """``solve()`` with the real bound, then with a bound of 0."""
    skipping = _solved(solve)
    patch = _unbounded(max_adjacency_bound)
    with mock.patch.object(dircut.edgecut, "max_adjacency_bound", patch), \
            mock.patch.object(dircut.vertexcut, "max_adjacency_bound", patch):
        full = _solved(solve)
    return skipping, full


def _is_subsequence(short, long):
    rest = iter(long)
    return all(entry in rest for entry in short)


def _same_answers(skipping, full):
    if skipping is None or full is None:
        assert skipping is full
        return
    assert skipping.certificate == full.certificate
    assert skipping.flow_calls == full.flow_calls
    assert _is_subsequence(skipping.probe_log, full.probe_log)


EPSILONS = st.sampled_from([Fraction(1, 100), Fraction(1, 10), Fraction(1, 5), Fraction(1, 4),
                            Fraction(1, 2), Fraction(99, 100)])
SEEDS = st.integers(0, 2**16)
EDGE_GRAPHS = st.one_of(tiny_graphs(), probing_graphs(), zero_heavy_graphs(),
                        zero_heavy_graphs(caps=st.integers(1, 9)))


@settings(max_examples=150)
@given(EDGE_GRAPHS, EPSILONS, SEEDS, st.data())
def test_skips_change_no_edge_answer(g, epsilon, seed, data):
    r = data.draw(st.integers(0, g.n - 1))
    for solve in (lambda: approx_rooted_edge_cut(g, r, epsilon, seed=seed),
                  lambda: exact_small_edge_cut(g, root=r, seed=seed),
                  lambda: approx_global_edge_cut(g, epsilon, seed=seed),
                  lambda: exact_small_edge_cut(g, seed=seed)):
        _same_answers(*_with_and_without_skips(solve))


VERTEX_GRAPHS = st.one_of(zero_heavy_vertex_graphs(),
                          zero_heavy_vertex_graphs(caps=st.integers(1, 9)),
                          probing_vertex_graphs(st.integers(1, 9)),
                          probing_vertex_graphs(st.sampled_from([1, 2**70, 2**70 + 1])))


@settings(max_examples=150)
@given(VERTEX_GRAPHS, EPSILONS, SEEDS, st.data())
def test_skips_change_no_vertex_answer(g, epsilon, seed, data):
    r = data.draw(st.integers(0, g.n - 1))
    ng = _normalize(g)
    solvers = [lambda: approx_global_vertex_cut(g, epsilon, seed=seed),
               lambda: exact_small_vertex_cut(g, seed=seed)]
    if _admissible_sinks(ng, r):
        solvers += [lambda: approx_rooted_vertex_cut(g, r, epsilon, seed=seed),
                    lambda: exact_small_vertex_cut(g, root=r, seed=seed)]
    for solve in solvers:
        _same_answers(*_with_and_without_skips(solve))
