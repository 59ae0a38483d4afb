"""The floor tests against brute force.

A cut whose value is the smallest positive capacity ``c_min`` crosses
one positive arc, or has one positive vertex in its separator, so every
mode answers that level from a dominator tree without a flow
(``_edge_floor_cut``, ``_vertex_floor_cut`` and their global forms).
These tests check the immediate dominators that ``dominator_tree``'s
intervals imply against the definition, and each floor test against
exhaustive enumeration: given no zero cut, it returns a certificate
exactly when the optimum is ``c_min``, and that certificate is a valid
cut of value ``c_min``.  Long cycles, and a broom whose chain's end and
root both point at every leaf, check that the tests stay near-linear and
need no recursion, and that exact-small answers a floor optimum with no
flow; approx answers it with the same certificate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import (
    DiGraph,
    NoCutExistsError,
    VertexCapGraph,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    approx_rooted_edge_cut,
    approx_rooted_vertex_cut,
    exact_small_edge_cut,
    generate,
    parse_text,
    reverse,
)
from dircut.edgecut import _edge_floor_cut, _global_edge_floor_cut, _rooted_start
from dircut.graph import dominator_tree, merge_parallel
from dircut.vertexcut import (
    _admissible_sinks,
    _c_min,
    _global_trivial,
    _global_vertex_floor_cut,
    _normalize,
    _positive_arcs,
    _reversal,
    _unreached,
    _vertex_floor_cut,
    exact_small_vertex_cut,
)

from conftest import (
    brute_global_vertex_cut,
    brute_min_rooted_cut,
    brute_min_separator,
    cut_value,
    probing_graphs,
    probing_vertex_graphs,
    time_bound,
    tiny_graphs,
    topo_reach,
    zero_heavy_graphs,
    zero_heavy_vertex_graphs,
)


@st.composite
def flow_graphs(draw):
    """Arc lists on 1..8 vertices with a root; sparse draws leave some
    vertices unreachable, and repeated arcs and both directions occur."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return n, [(u, v) for u, v in pairs if u != v], draw(st.integers(0, n - 1))


@settings(max_examples=300)
@given(flow_graphs())
def test_dominators_match_the_definition(case):
    # v dominates x exactly when the root cannot reach x once v is removed
    n, pairs, root = case
    order, first, size = dominator_tree(n, pairs, root)
    # the immediate dominator of v: the innermost other interval holding v
    idom = [None] * n
    idom[root] = root
    for v in order:
        holders = [u for u in range(n) if u != v and first[u] <= first[v] < first[u] + size[u]]
        if holders:
            idom[v] = max(holders, key=first.__getitem__)
    reached = topo_reach(n, pairs, root)
    assert idom[root] == root
    for x in range(n):
        if x not in reached:
            assert idom[x] is None
            continue
        above, d = {x}, x
        while d != root:
            d = idom[d]
            above.add(d)
        for v in range(n):
            if v != x:
                assert (v in above) == (x not in topo_reach(n, pairs, root, {v}))


def test_dominators_reject_a_root_out_of_range():
    with pytest.raises(ValueError):
        dominator_tree(3, [(0, 1)], 3)


def _check_edge_floor_cut(g, r):
    """Given no zero cut at ``r``, ``_edge_floor_cut`` finds a valid cut
    exactly when the brute-force optimum is ``c_min``."""
    gm, trivial, c_min = _rooted_start(g, r)
    if trivial.value == 0:
        return
    cut = _edge_floor_cut(gm, r, c_min)
    assert (cut is not None) == (brute_min_rooted_cut(g, r)[0] == c_min)
    if cut is not None:
        assert r not in cut.sink_set
        assert cut.value == cut_value(g, cut.sink_set) == c_min


EDGE_GRAPHS = st.one_of(tiny_graphs(), probing_graphs(), zero_heavy_graphs())


@settings(max_examples=200)
@given(EDGE_GRAPHS)
def test_edge_floor_cut_matches_brute_force(g):
    for r in range(g.n):
        _check_edge_floor_cut(g, r)
    gm, forward, c_min = _rooted_start(g, 0)
    rm, backward, _ = _rooted_start(reverse(g), 0)
    if forward.value == 0 or backward.value == 0:
        return
    cut = _global_edge_floor_cut(gm, rm, c_min)
    optimum = min(brute_min_rooted_cut(g, 0)[0], brute_min_rooted_cut(reverse(g), 0)[0])
    assert (cut is not None) == (optimum == c_min)
    if cut is not None:
        oriented = reverse(g) if cut.orientation == "reverse" else g
        assert 0 not in cut.sink_set
        assert cut.value == cut_value(oriented, cut.sink_set) == c_min


def _check_vertex_cut(g, cut, c_min):
    """``cut`` separates its sink from a nonempty rest of ``g`` (the graph
    of its orientation) through exactly its separator, of value c_min."""
    sink, separator = cut.sink_component, cut.separator
    assert sink and not sink & separator and len(sink | separator) < g.n
    assert separator == {u for u, v in g.arcs if v in sink and u not in sink}
    assert cut.value == g.value(sum(g.vcaps[w] for w in separator)) == c_min


@st.composite
def shared_vertex_graphs(draw):
    """Two ``probing_vertex_graphs`` that share their vertex 0, which so
    separates the others; its capacity is drawn like theirs, so it is
    sometimes the least, and some capacities are zero."""
    caps = st.sampled_from([0, 1, 1, 2, 3])
    a = draw(probing_vertex_graphs(caps=caps, max_n=5))
    b = draw(probing_vertex_graphs(caps=caps, max_n=5))

    def shift(v):
        return v + a.n - 1 if v else 0

    arcs = list(a.arcs) + [(shift(u), shift(v)) for u, v in b.arcs]
    return VertexCapGraph(a.n + b.n - 1, arcs, a.vcaps + b.vcaps[1:])


VERTEX_GRAPHS = st.one_of(zero_heavy_vertex_graphs(),
                          probing_vertex_graphs(caps=st.sampled_from([1, 1, 2, 3])),
                          shared_vertex_graphs())


@settings(max_examples=200)
@given(VERTEX_GRAPHS)
def test_vertex_floor_cut_matches_brute_force(g):
    ng = _normalize(g)
    c_min = _c_min(ng)
    for r in range(g.n):
        admissible = _admissible_sinks(ng, r)
        if not admissible or _unreached(ng, r, _positive_arcs(ng, r)) is not None:
            continue
        cut = _vertex_floor_cut(ng, r, c_min)
        optimum = min(brute_min_separator(g, r, t) for t in admissible)
        assert (cut is not None) == (optimum == c_min)
        if cut is not None:
            assert r not in cut.sink_component | cut.separator
            _check_vertex_cut(ng, cut, c_min)
    reversal = _reversal(ng)
    try:
        trivial = _global_trivial(ng, reversal)
    except NoCutExistsError:
        return
    if trivial.value <= c_min:
        return  # no search; a lone positive vertex may then cut at c_min
    cut = _global_vertex_floor_cut(ng, reversal, c_min)
    assert (cut is not None) == (brute_global_vertex_cut(g) == c_min)
    if cut is not None:
        _check_vertex_cut(reversal if cut.orientation == "reverse" else ng, cut, c_min)


def test_global_vertex_floor_cut_whose_separator_is_the_first_root():
    # two bidirectional triangles share vertex 0, the only vertex of
    # capacity 1; at the root 0 no separator may hold 0 itself, so only
    # the second root 1 finds the cut
    pairs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    g = VertexCapGraph(5, pairs + [(v, u) for u, v in pairs], [1, 2, 2, 2, 2])
    cut = _global_vertex_floor_cut(g, _reversal(g), 1)
    assert cut.separator == {0} and cut.sink_component == {3, 4}
    assert cut.orientation == "forward" and cut.value == 1
    res = exact_small_vertex_cut(g, seed=1)
    assert res.certificate == cut and res.flow_calls == 0


N = 3000
DIRECTED = [(v, (v + 1) % N) for v in range(N)]
BIDIRECTED = DIRECTED + [((v + 1) % N, v) for v in range(N)]


def test_edge_floor_cut_on_long_cycles():
    # the directed cycle's floor cut at 0 is its last vertex, and the least
    # of either orientation vertex 1 of the reversal; the bidirectional
    # cycle has none, since two arcs enter every proper sink
    with time_bound(2):
        directed = merge_parallel(DiGraph(N, [(u, v, 1) for u, v in DIRECTED]))
        cut = _edge_floor_cut(directed, 0, 1)
        assert cut.sink_set == {N - 1} and cut.value == 1
        cut = _global_edge_floor_cut(directed, merge_parallel(reverse(directed)), 1)
        assert cut.sink_set == {1} and cut.orientation == "reverse"
        bidirected = merge_parallel(DiGraph(N, [(u, v, 1) for u, v in BIDIRECTED]))
        assert _edge_floor_cut(bidirected, 0, 1) is None
        assert _global_edge_floor_cut(bidirected, bidirected, 1) is None


def test_vertex_floor_cut_on_long_cycles():
    # on the directed cycle vertex 1 cuts 2..N-1 off the root 0, and vertex
    # 0 is the least separator (found at the second root 1, reversed);
    # removing one vertex leaves the bidirectional cycle a path
    with time_bound(2):
        directed = VertexCapGraph(N, DIRECTED, [1] * N)
        cut = _vertex_floor_cut(directed, 0, 1)
        assert cut.separator == {1} and cut.sink_component == frozenset(range(2, N))
        cut = _global_vertex_floor_cut(directed, _reversal(directed), 1)
        assert cut.separator == {0} and cut.orientation == "reverse"
        bidirected = VertexCapGraph(N, BIDIRECTED, [1] * N)
        assert _vertex_floor_cut(bidirected, 0, 1) is None
        assert _global_vertex_floor_cut(bidirected, _reversal(bidirected), 1) is None


LEAVES = 15000
# a broom: the chain 0..LEAVES-1, whose last vertex and the root both point
# at every leaf, and every leaf points back at the root
BROOM = [(v, v + 1) for v in range(LEAVES - 1)]
BROOM += [(u, LEAVES + leaf) for leaf in range(LEAVES) for u in (0, LEAVES - 1)]
BROOM += [(LEAVES + leaf, 0) for leaf in range(LEAVES)]


def test_floor_cuts_on_a_broom():
    # every leaf has two in-arcs, from the root and the chain's end, so the
    # root is its immediate dominator; a dominator pass that is quadratic
    # on this fan-in overruns the bound
    with time_bound(2):
        edges = merge_parallel(DiGraph(2 * LEAVES, [(u, v, 1) for u, v in BROOM]))
        assert _edge_floor_cut(edges, 0, 1).sink_set == {LEAVES - 1}
        cut = _vertex_floor_cut(VertexCapGraph(2 * LEAVES, BROOM, [1] * (2 * LEAVES)), 0, 1)
        assert cut.separator == {1} and cut.sink_component == frozenset(range(2, LEAVES))


def test_vertex_floor_cut_on_a_broom_with_zero_capacity_leaves():
    # every arc out of a leaf is a zero-capacity arc into the root; a test
    # that rescans those arcs for each of the chain's candidates overruns
    # the bound
    g = VertexCapGraph(2 * LEAVES, BROOM, [1] * LEAVES + [0] * LEAVES)
    with time_bound(2):
        cut = _vertex_floor_cut(g, 0, 1)
    assert cut.separator == {1} and cut.sink_component == frozenset(range(2, LEAVES))


def test_exact_small_answers_a_floor_optimum_without_a_flow():
    # two bidirectional unit cycles of 1500 vertices, joined by one arc
    # each way: every singleton cut is 2, and the joining arcs cut 1
    half = 1500
    arcs = [(base + v, base + (v + 1) % half, 1) for base in (0, half) for v in range(half)]
    arcs += [(base + (v + 1) % half, base + v, 1) for base in (0, half) for v in range(half)]
    g = DiGraph(2 * half, arcs + [(0, half, 1), (half, 0, 1)])
    with time_bound(2):
        res = exact_small_edge_cut(g, seed=1)
    assert res.value == 1 and res.flow_calls == 0 and res.probe_log == ()
    assert len(res.certificate.sink_set) == half


def _vertex_floor_graph():
    """Vertex 2 is the only way from 0 and 1 into the bidirectional ring
    3..7, and every singleton's separator has two or more vertices."""
    arcs = [(0, 1), (1, 0), (0, 2), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2), (7, 0)]
    arcs += [(v, 3 + (v - 2) % 5) for v in range(3, 8)]
    arcs += [(3 + (v - 2) % 5, v) for v in range(3, 8)]
    return VertexCapGraph(8, arcs, [1] * 8)


def test_exact_small_vertex_answers_a_floor_optimum_without_a_flow():
    g = _vertex_floor_graph()
    for res in (exact_small_vertex_cut(g, seed=1), exact_small_vertex_cut(g, root=0, seed=1)):
        assert res.value == 1 and res.flow_calls == 0 and res.probe_log == ()


def _same_floor_answer(approx, exact):
    """``approx`` answers without a flow, with ``exact``'s certificate."""
    assert approx.flow_calls == 0 and approx.probe_log == ()
    assert approx.certificate == exact.certificate


def test_approx_vertex_answers_a_floor_optimum_without_a_flow():
    g = _vertex_floor_graph()
    _same_floor_answer(approx_rooted_vertex_cut(g, 0, "0.2", seed=1),
                       exact_small_vertex_cut(g, root=0, seed=1))
    _same_floor_answer(approx_global_vertex_cut(g, "0.2", seed=1),
                       exact_small_vertex_cut(g, seed=1))


@pytest.mark.parametrize("seed", [0, 1])
def test_approx_answers_a_planted_sink_without_a_flow(seed):
    # the planted crossing arc is the smallest capacity, and its cut optimal
    g = parse_text(generate("planted-sink", seed=seed, n=50, sink_size=5, volume=14,
                            value=5, out_degree=3).text)
    rooted = approx_rooted_edge_cut(g, 0, "0.2", seed=seed)
    assert rooted.value == 5
    _same_floor_answer(rooted, exact_small_edge_cut(g, root=0, seed=seed))
    _same_floor_answer(approx_global_edge_cut(g, "0.2", seed=seed),
                       exact_small_edge_cut(g, seed=seed))


@settings(max_examples=150)
@given(st.one_of(tiny_graphs(), probing_graphs()), st.data())
def test_approx_edge_agrees_with_exact_small_at_the_floor(g, data):
    # whenever exact-small answers c_min without a flow, so does approx
    r = data.draw(st.integers(0, g.n - 1))
    c_min = _rooted_start(g, r)[2]
    for approx, exact in ((lambda: approx_rooted_edge_cut(g, r, "0.2", seed=1),
                           exact_small_edge_cut(g, root=r, seed=1)),
                          (lambda: approx_global_edge_cut(g, "0.2", seed=1),
                           exact_small_edge_cut(g, seed=1))):
        if exact.flow_calls == 0 and exact.value == c_min:
            _same_floor_answer(approx(), exact)


@settings(max_examples=150)
@given(VERTEX_GRAPHS, st.data())
def test_approx_vertex_agrees_with_exact_small_at_the_floor(g, data):
    r = data.draw(st.integers(0, g.n - 1))
    c_min = _c_min(g)
    for approx, solve_exact in ((lambda: approx_rooted_vertex_cut(g, r, "0.2", seed=1),
                                 lambda: exact_small_vertex_cut(g, root=r, seed=1)),
                                (lambda: approx_global_vertex_cut(g, "0.2", seed=1),
                                 lambda: exact_small_vertex_cut(g, seed=1))):
        try:
            exact = solve_exact()
        except NoCutExistsError:
            continue
        if exact.flow_calls == 0 and exact.value == c_min:
            _same_floor_answer(approx(), exact)
