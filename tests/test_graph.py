import enum
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dircut.edgecut
from dircut import (
    INFINITE,
    DiGraph,
    VertexCapGraph,
    cut_certificate,
    exact_rooted_edge_cut_oracle,
    reverse,
)
from dircut.graph import contract_into_root, in_volume, merge_parallel, reach
from dircut.steiner import build_steiner_network

from conftest import (
    brute_min_rooted_cut,
    cut_value,
    g1,
    iter_sink_sets,
    rand_digraph,
    tiny_graphs,
    topo_reach,
)


def test_reverse_single_arc():
    g = DiGraph(2, [(0, 1, 5)])
    assert reverse(g).arcs == ((1, 0, 5),)


def test_reverse_empty():
    g = DiGraph(3, [])
    r = reverse(g)
    assert r.n == 3 and r.arcs == ()


def test_reverse_g1():
    r = reverse(g1())
    assert sorted(r.arcs) == [(1, 0, 2), (1, 2, 1), (2, 0, 1), (2, 1, 1)]


def test_reverse_involution_random():
    rng = random.Random(0)
    for _ in range(25):
        g = rand_digraph(rng, rng.randint(2, 8), rng.randint(0, 12))
        assert reverse(reverse(g)) == g


def test_in_volume_examples():
    g = g1()
    assert in_volume(g, [2]) == 2
    assert in_volume(g, range(3)) == g.m
    assert in_volume(g, []) == 0
    with pytest.raises(ValueError):
        in_volume(g, [7])


def test_contract_g1_example():
    g = g1()
    contracted, survivors = contract_into_root(g, 0, [0, 1])
    assert contracted.n == 3
    # arc (1, 2) leaves the block, so it starts at the root; vertex 1
    # keeps its id, isolated
    assert sorted(contracted.arcs) == [(0, 2, 1), (0, 2, 1)]
    assert contracted.m <= in_volume(g, [2])
    assert survivors == frozenset([2])
    assert cut_value(contracted, [2]) == cut_value(g, [2])


def test_contract_singleton_block():
    g = DiGraph(3, [(0, 1, 2), (1, 0, 3), (1, 2, 1)])
    contracted, survivors = contract_into_root(g, 0, [0])
    # arcs into the root vanish, everything else stays in place
    assert sorted(contracted.arcs) == [(0, 1, 2), (1, 2, 1)]
    assert survivors == frozenset([1, 2])


def test_contract_everything():
    g = g1()
    contracted, survivors = contract_into_root(g, 0, [0, 1, 2])
    assert contracted.n == 3 and contracted.m == 0
    assert survivors == frozenset()


def test_contract_requires_root_in_block():
    with pytest.raises(ValueError):
        contract_into_root(g1(), 0, [1])
    with pytest.raises(ValueError):
        contract_into_root(g1(), 0, [0, 3])


def test_contract_preserves_surviving_cuts():
    rng = random.Random(1)
    for _ in range(30):
        g = rand_digraph(rng, rng.randint(3, 7), rng.randint(0, 10))
        block = {0} | {v for v in range(1, g.n) if rng.random() < 0.4}
        contracted, survivors = contract_into_root(g, 0, block)
        assert survivors == frozenset(range(g.n)) - block
        assert contracted.n == g.n
        for sink in iter_sink_sets(g.n, 0):
            if not block & set(sink):
                assert cut_value(g, sink) == cut_value(contracted, sink)


def test_merge_parallel_examples():
    g = DiGraph(2, [(0, 1, 2), (0, 1, 3)])
    assert merge_parallel(g).arcs == ((0, 1, 5),)
    simple = DiGraph(2, [(0, 1, 2), (1, 0, 3)])
    assert sorted(merge_parallel(simple).arcs) == [(0, 1, 2), (1, 0, 3)]
    assert merge_parallel(g1()) == DiGraph(
        3, sorted([(0, 1, 2), (0, 2, 1), (1, 2, 1), (2, 1, 1)])
    )
    # a finite arc parallel to an infinite one counts in the sentinel
    g = DiGraph(2, [(0, 1, INFINITE), (0, 1, 5), (1, 0, 1)])
    merged = merge_parallel(g)
    assert merged.arcs == ((0, 1, 5), (0, 1, 7), (1, 0, 1))
    assert merged.inf_arcs == frozenset([1])
    assert cut_value(merged, [1]) == cut_value(g, [1]) == 12
    two = DiGraph(2, [(0, 1, INFINITE), (0, 1, INFINITE)])
    assert merge_parallel(two) == two


def test_merge_parallel_preserves_cuts():
    rng = random.Random(2)
    for _ in range(20):
        g = rand_digraph(rng, rng.randint(2, 6), rng.randint(0, 8))
        doubled = DiGraph(g.n, list(g.arcs) + [(t, h, c) for t, h, c in g.arcs[:3]])
        # infinite arcs parallel to finite ones and to each other
        infinite = DiGraph(g.n, doubled.arcs_as_input()
                           + [(t, h, INFINITE) for t, h, _ in g.arcs[:2] * 2])
        for graph in (doubled, infinite):
            merged = merge_parallel(graph)
            assert merged.inf_value == graph.inf_value
            for sink in iter_sink_sets(g.n, 0):
                assert cut_value(graph, sink) == cut_value(merged, sink)


def test_certificate_matches_brute_force_sum():
    rng = random.Random(3)
    for _ in range(20):
        g = rand_digraph(rng, rng.randint(2, 7), rng.randint(0, 10))
        for sink in iter_sink_sets(g.n, 0):
            cert = cut_certificate(g, sink, root=0)
            assert cert.value == cut_value(g, sink)
            assert all(g.arcs[i][1] in sink and g.arcs[i][0] not in sink
                       for i in cert.crossing)


def test_certificate_validations():
    g = g1()
    with pytest.raises(ValueError):
        cut_certificate(g, [])
    with pytest.raises(ValueError):
        cut_certificate(g, [0], root=0)
    with pytest.raises(ValueError):
        cut_certificate(g, [9])


@pytest.mark.parametrize("sink, root, error, message", [
    ([1], -1, ValueError, r"^root -1 out of range 0\.\.2$"),
    ([1], 5, ValueError, r"^root 5 out of range 0\.\.2$"),
    ([1], True, TypeError, r"^root must be int, not bool$"),
    ([1], 0.0, TypeError, r"^root must be int, not float$"),
    ([True], None, TypeError, r"^sink vertex must be int, not bool$"),
    ([1.0], None, TypeError, r"^sink vertex must be int, not float$"),
    ([Fraction(1)], None, TypeError, r"^sink vertex must be int, not Fraction$"),
    (["1"], None, TypeError, r"^sink vertex must be int, not str$"),
])
def test_certificate_rejects_vertices_that_do_not_exist(sink, root, error, message):
    g = DiGraph(3, [(0, 1, 2), (1, 2, 3), (2, 0, 1)])
    with pytest.raises(error, match=message):
        cut_certificate(g, sink, root=root)


@st.composite
def pair_lists(draw, max_n=8):
    """(n, pairs): arcs on ``range(n)`` with self-loops, repeated pairs
    (parallel arcs) and a directed cycle through drawn vertices."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=n))
    cycle = draw(st.lists(vertex, unique=True, max_size=n))
    pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    return n, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(pair_lists(), st.data())
def test_reach_matches_topo_reach(case, data):
    n, pairs = case
    source = data.draw(st.integers(0, n - 1))
    reached = reach(n, pairs, source)
    assert isinstance(reached, frozenset)
    assert reached == topo_reach(n, pairs, source)
    for bad in (-1, n):
        with pytest.raises(ValueError, match=rf"^root {bad} out of range 0\.\.{n - 1}$"):
            reach(n, pairs, bad)


def test_infinite_sentinel_dominates_finite_cuts():
    g = DiGraph(3, [(0, 1, 7), (0, 2, INFINITE), (1, 2, 4)])
    assert g.inf_value == 12
    best_finite, _ = brute_min_rooted_cut(DiGraph(3, [(0, 1, 7), (1, 2, 4)]), 0)
    assert g.value(g.inf_value) > best_finite
    # any cut crossing the infinite arc costs more than every finite cut
    assert cut_value(g, [2]) > cut_value(g, [1])


def test_sentinel_recomputed_on_derived_graphs():
    g = DiGraph(3, [(0, 1, 1), (1, 2, INFINITE)])
    r = reverse(g)
    assert r.inf_arcs == frozenset([1])
    assert r.arcs[1][2] == r.inf_value == 2
    bigger = DiGraph(3, g.arcs_as_input() + [(0, 2, 100)])
    assert bigger.arcs[1][2] == bigger.inf_value == 102


def test_constructor_rejections():
    # each message names the arc's index in the input
    with pytest.raises(ValueError, match=r"^arc 1: self-loop 0->0$"):
        DiGraph(2, [(0, 1, 1), (0, 0, 1)])
    with pytest.raises(ValueError, match=r"^arc 0: negative capacity$"):
        DiGraph(2, [(0, 1, -1)])
    for arc in ((0, 5, 1), (-1, 1, 1), (0, 2, INFINITE)):
        with pytest.raises(ValueError, match=r"^arc 1: endpoint out of range$"):
            DiGraph(2, [(1, 0, 2), arc])
    for cap in (Fraction(1, 2), 1.0, True, "1", None):
        with pytest.raises(TypeError, match=r"^arc 0: capacity numerator must be int$"):
            DiGraph(2, [(0, 1, cap)])
    with pytest.raises(ValueError, match=r"^vertex count must be nonnegative$"):
        DiGraph(-1, [])
    # a bad count or scale is reported before any arc, and in one arc a
    # bad endpoint before its capacity
    with pytest.raises(ValueError, match=r"^vertex count must be nonnegative$"):
        DiGraph(-1, [(0, 0, -1)], scale=0)
    with pytest.raises(ValueError, match=r"^scale must be positive$"):
        DiGraph(2, [(0, 0, -1)], scale=0)
    with pytest.raises(TypeError, match=r"^arc 0: endpoints must be int$"):
        DiGraph(2, [(0, 1.0, -1)])


@pytest.mark.parametrize("args, error, message", [
    ((-1, [], []), ValueError, r"^vertex count must be nonnegative$"),
    ((2, [], [1, 1], 0), ValueError, r"^scale must be positive$"),
    ((2, [(0, 1)], [1]), ValueError, r"^need one capacity per vertex$"),
    ((2, [(0, 1)], [1, 1.0]), ValueError, r"^vertex 1: capacity must be a nonnegative int$"),
    ((2, [(0, 1)], [1, -1]), ValueError, r"^vertex 1: capacity must be a nonnegative int$"),
    ((2, [(0, 1)], [True, 1]), ValueError, r"^vertex 0: capacity must be a nonnegative int$"),
    ((2, [(1, 0), (0, 2)], [1, 1]), ValueError, r"^arc 1: endpoint out of range$"),
    ((2, [(-1, 1)], [1, 1]), ValueError, r"^arc 0: endpoint out of range$"),
    ((2, [(0, 1), (1, 1)], [1, 1]), ValueError, r"^arc 1: self-loop 1->1$"),
    ((2, [(0, 1.0)], [1, 1]), TypeError, r"^arc 0: endpoints must be int$"),
    ((2.0, [], [1, 1]), TypeError, r"^vertex count must be int, not float$"),
], ids=["count", "scale", "vcaps-length", "vcap-float", "vcap-negative", "vcap-bool",
        "endpoint-high", "endpoint-negative", "self-loop", "endpoint-float", "count-float"])
def test_vertex_constructor_rejections(args, error, message):
    # the count, the scale and each arc are checked as by DiGraph
    with pytest.raises(error, match=message):
        VertexCapGraph(*args)


@pytest.mark.parametrize("n", [2.5, 3.0, True, Fraction(3), "3", None])
def test_vertex_count_must_be_int(n):
    # 2.5 and 3.0 fail deep in a solver, and True would pass as one vertex
    message = rf"^vertex count must be int, not {type(n).__name__}$"
    with pytest.raises(TypeError, match=message):
        DiGraph(n, [])
    with pytest.raises(TypeError, match=message):
        VertexCapGraph(n, [], [1])


@pytest.mark.parametrize("arc", [(0, 1.0), (1.0, 2), (True, 2), (0, False), (Fraction(0), 1),
                                 ("0", 1), (None, 1)])
def test_endpoints_must_be_int(arc):
    # a float id fails deep in a solver, and True would pass as vertex 1
    with pytest.raises(TypeError, match=r"^arc 1: endpoints must be int$"):
        DiGraph(3, [(1, 2, 1), (*arc, 1), (2, 0, 1)])
    with pytest.raises(TypeError, match=r"^arc 1: endpoints must be int$"):
        VertexCapGraph(3, [(1, 2), arc, (2, 0)], [1, 1, 1])


class Vertex(enum.IntEnum):
    A = 0
    B = 1
    C = 2


def test_int_subclasses_other_than_bool_are_ints():
    # plain ints take a fast path; other int subclasses still pass the
    # isinstance tests, and bool still fails them
    g = DiGraph(3, [(Vertex.A, Vertex.B, Vertex.C), (Vertex.B, Vertex.C, 1)])
    assert g.arcs == ((0, 1, 2), (1, 2, 1))
    vg = VertexCapGraph(3, [(Vertex.A, Vertex.B), (Vertex.B, Vertex.C)], [1, 1, 1])
    assert vg.arcs == ((0, 1), (1, 2))
    with pytest.raises(TypeError, match=r"^arc 0: endpoints must be int$"):
        DiGraph(3, [(Vertex.A, True, 1)])
    with pytest.raises(TypeError, match=r"^arc 0: endpoints must be int$"):
        VertexCapGraph(3, [(True, Vertex.B)], [1, 1, 1])
    with pytest.raises(TypeError, match=r"^arc 0: capacity numerator must be int$"):
        DiGraph(3, [(Vertex.A, Vertex.B, True)])
    assert cut_certificate(g, [Vertex.C], root=Vertex.A) == cut_certificate(g, [2], root=0)


@pytest.mark.parametrize("scale", [Fraction(1, 2), 2.0, True])
def test_scale_must_be_int(scale):
    with pytest.raises(TypeError, match="scale must be int"):
        DiGraph(2, [(0, 1, 1)], scale=scale)
    with pytest.raises(TypeError, match="scale must be int"):
        VertexCapGraph(2, [(0, 1)], [1, 1], scale=scale)
    with pytest.raises(ValueError, match="positive"):
        DiGraph(2, [], scale=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 9)),
                max_size=14))
def test_reverse_and_merge_properties(raw):
    arcs = [(u, v, c) for u, v, c in raw if u != v]
    g = DiGraph(6, arcs)
    assert reverse(reverse(g)) == g
    merged = merge_parallel(g)
    assert merge_parallel(merged) == merged
    pair_count = len({(t, h) for t, h, _ in merged.arcs})
    assert pair_count == merged.m


def _fields(g):
    return g.n, g.arcs, g.inf_arcs, g.inf_value, g.scale


def _merged_reference(g):
    """``merge_parallel`` rebuilt from ``arcs_as_input``: each pair's
    finite arcs summed, its infinite arcs after them, pairs in order."""
    finite, infinite = {}, []
    for t, h, c in g.arcs_as_input():
        if c is INFINITE:
            infinite.append((t, h, c))
        else:
            finite[(t, h)] = finite.get((t, h), 0) + c
    arcs = [(t, h, c) for (t, h), c in finite.items()] + infinite
    return DiGraph(g.n, sorted(arcs, key=lambda arc: arc[:2]), scale=g.scale)


@settings(max_examples=200, deadline=None)
@given(tiny_graphs(), st.data())
def test_derived_graphs_equal_their_validated_builds(g, data):
    """Every graph derived from a validated one is built unchecked; each
    equals the graph that ``DiGraph`` builds from the same arcs given as
    input, with INFINITE restored, in every field, the sentinel
    included."""
    arcs = g.arcs_as_input()
    assert _fields(reverse(g)) == _fields(
        DiGraph(g.n, [(h, t, c) for t, h, c in arcs], scale=g.scale))
    assert _fields(merge_parallel(g)) == _fields(_merged_reference(g))
    r = data.draw(st.integers(0, g.n - 1))
    block = {r} | data.draw(st.sets(st.integers(0, g.n - 1)))
    contracted, _ = contract_into_root(g, r, block)
    assert _fields(contracted) == _fields(DiGraph(
        g.n, [(r if t in block else t, h, c) for t, h, c in arcs if h not in block],
        scale=g.scale))
    terminals = data.draw(st.frozensets(st.sampled_from(sorted(set(range(g.n)) - {r})),
                                        min_size=1))
    level = data.draw(st.sampled_from([1, 7, 2**70]))
    network, supersink = build_steiner_network(g, terminals, level)
    assert supersink == g.n
    assert _fields(network) == _fields(DiGraph(
        g.n + 1, arcs + [(t, g.n, level) for t in sorted(terminals)], scale=g.scale))


@settings(max_examples=100, deadline=None)
@given(tiny_graphs())
def test_the_edge_oracle_flows_on_plain_arcs_at_the_sentinel(g):
    """The rooted oracle's flow graph is ``g`` itself, or, when ``g`` has
    infinite arcs, the graph of its arcs as plain finite arcs at the
    sentinel, as ``DiGraph`` builds it from ``g.arcs``."""
    flow_graphs = []
    real = dircut.edgecut.capped_sinks

    def recording(flow_graph, *args):
        flow_graphs.append(flow_graph)
        return real(flow_graph, *args)

    with mock.patch.object(dircut.edgecut, "capped_sinks", recording):
        exact_rooted_edge_cut_oracle(g, 0)
    (flow_graph,) = flow_graphs
    if not g.inf_arcs:
        assert flow_graph is g
    else:
        assert _fields(flow_graph) == _fields(DiGraph(g.n, g.arcs, scale=g.scale))
