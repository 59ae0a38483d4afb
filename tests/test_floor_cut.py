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

The edge floor test builds its tree only on the vertices that the root
cannot reach along arcs heavier than ``c_min``.  It is checked against
the same test on the whole graph (``_whole_graph_edge_floor_cut``) on
Hypothesis graphs, and pinned where the heavy reach covers every vertex,
leaves only a planted sink, or meets light and infinite arcs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import (
    INFINITE,
    DiGraph,
    NoCutExistsError,
    VertexCapGraph,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    approx_rooted_edge_cut,
    approx_rooted_vertex_cut,
    edgecut,
    exact_small_edge_cut,
    generate,
    parse_text,
    reverse,
)
from dircut.edgecut import _better, _edge_floor_cut, _global_edge_floor_cut, _rooted_start, _tag
from dircut.graph import cut_certificate, dominator_tree, merge_parallel
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


def _whole_graph_edge_floor_cut(gm, r, c_min):
    """The edge floor test with no vertex contracted: one dominator tree
    of all of ``gm``'s positive arcs, read as ``_edge_floor_cut`` reads
    its tree; the reference that the pruned test must match."""
    c = int(c_min * gm.scale)
    order, first, size = dominator_tree(gm.n, [(t, h) for t, h, cap in gm.arcs if cap > 0], r)
    entering, last = [0] * gm.n, [0] * gm.n
    for t, h, cap in gm.arcs:
        if cap > 0 and not first[h] <= first[t] < first[h] + size[h]:
            entering[h] += 1
            last[h] = cap
    candidates = [v for v in range(gm.n) if entering[v] == 1 and last[v] == c]
    if not candidates:
        return None
    least = min(size[v] for v in candidates)
    sink = min(sorted(order[first[v]:first[v] + least]) for v in candidates if size[v] == least)
    return cut_certificate(gm, sink, root=r)


@settings(max_examples=300)
@given(st.one_of(tiny_graphs(), probing_graphs()))
def test_pruned_edge_floor_cut_matches_the_whole_graph_test(g):
    # the same certificate (value, sink and crossing arcs) at every root
    # with no zero cut, and in the global test the same orientation too
    for r in range(g.n):
        gm, trivial, c_min = _rooted_start(g, r)
        if trivial.value > 0:
            assert _edge_floor_cut(gm, r, c_min) == _whole_graph_edge_floor_cut(gm, r, c_min)
    gm, forward, c_min = _rooted_start(g, 0)
    rm, backward, _ = _rooted_start(reverse(g), 0)
    if forward.value > 0 and backward.value > 0:
        whole = _better(_whole_graph_edge_floor_cut(gm, 0, c_min),
                        _tag(_whole_graph_edge_floor_cut(rm, 0, c_min), "reverse"))
        assert _global_edge_floor_cut(gm, rm, c_min) == whole


def _spy_on_dominator_tree(monkeypatch):
    """The arcs that each call of ``dominator_tree`` from the edge floor
    test receives, one list a call."""
    calls = []

    def spy(n, pairs, root):
        calls.append(list(pairs))
        return dominator_tree(n, calls[-1], root)

    monkeypatch.setattr(edgecut, "dominator_tree", spy)
    return calls


def test_edge_floor_cut_builds_no_tree_when_heavy_arcs_reach_every_vertex(monkeypatch):
    # at seed 1 the root 0 of the graph and of its reversal reaches all 16
    # vertices along arcs above c_min = 1, so neither orientation has a
    # floor cut, and no dominator tree is built
    def refuse(*args):
        raise AssertionError("dominator_tree called")

    monkeypatch.setattr(edgecut, "dominator_tree", refuse)
    g = parse_text(generate("erdos-renyi-digraph", seed=1, n=16, p=0.3).text)
    gm, trivial, c_min = _rooted_start(g, 0)
    rm = _rooted_start(reverse(g), 0)[0]
    assert trivial.value > c_min == 1
    assert _edge_floor_cut(gm, 0, c_min) is None
    assert _global_edge_floor_cut(gm, rm, c_min) is None


def test_edge_floor_cut_builds_the_tree_on_the_planted_sink_only(monkeypatch):
    # every arc but the planted one weighs more than the value 5, so the
    # heavy reach covers the 396 ambient vertices in the graph and all 400
    # in its reversal; the one tree built has only arcs into the sink
    instance = generate("planted-sink", seed=7, n=400, sink_size=4, volume=12, value=5)
    g = parse_text(instance.text)
    sink = frozenset(instance.meta["sink"])
    calls = _spy_on_dominator_tree(monkeypatch)
    gm, _, c_min = _rooted_start(g, 0)
    rm = _rooted_start(reverse(g), 0)[0]
    for cut in (_edge_floor_cut(gm, 0, c_min), _global_edge_floor_cut(gm, rm, c_min)):
        assert cut.sink_set == sink and cut.value == 5 and cut.orientation == "forward"
    assert len(calls) == 2
    assert all(h in sink for pairs in calls for _, h in pairs)


@pytest.mark.parametrize("arcs, sink", [
    # 3 -> 1 is light, but 0 -> 1 heavy; only 0 -> 2 enters {2, 3}
    ([(0, 1, 2), (3, 1, 1), (0, 2, 1), (2, 3, 2), (3, 0, 2), (1, 0, 2)], {2, 3}),
    # 2 -> 1 is light, but 0 -> 1 heavy; two unit arcs enter {2}, {3} and
    # {2, 3}, so no cut is at 1
    ([(0, 1, 2), (2, 1, 1), (0, 2, 1), (0, 3, 1), (2, 3, 1), (3, 2, 1)], None),
])
def test_a_light_arc_into_a_heavily_reached_vertex_makes_no_candidate(arcs, sink):
    # vertex 1 is reached along the heavy arc 0 -> 1; its light in-arc
    # must give it no candidate, whose subtree in the pruned tree is empty
    g = DiGraph(4, arcs)
    gm, _, c_min = _rooted_start(g, 0)
    cut = _edge_floor_cut(gm, 0, c_min)
    assert cut == _whole_graph_edge_floor_cut(gm, 0, c_min)
    assert (None if cut is None else cut.sink_set) == sink


def test_an_infinite_arc_counts_as_heavy(monkeypatch):
    # 0 -> 1 is infinite, so vertex 1 is reached and the tree holds only
    # the arc into 2, which is then the floor cut's sink; with 1 -> 0 the
    # only finite arc, the infinite arc reaches every vertex and no tree
    # is built
    calls = _spy_on_dominator_tree(monkeypatch)
    g = DiGraph(3, [(0, 1, INFINITE), (1, 2, 1), (2, 0, 1)])
    gm, _, c_min = _rooted_start(g, 0)
    assert _edge_floor_cut(gm, 0, c_min).sink_set == {2}
    assert calls == [[(0, 2)]]
    g = DiGraph(2, [(0, 1, INFINITE), (1, 0, 1)])
    gm, _, c_min = _rooted_start(g, 0)
    assert _edge_floor_cut(gm, 0, c_min) is None
    assert len(calls) == 1


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
