"""The capped exact oracles against the plain per-sink oracles.

Each library oracle runs its per-sink flows through one demand arc of
capacity one above the best cut so far, so a flow stops once it cannot
win, and skips the flow of a sink whose arcs from vertices already
certified prove its cut at least that cap.  These tests check that cap
and skip change nothing but the work: on small graphs with parallel,
zero, near-2^70 and infinite arcs, at rational scales, the capped and the
plain oracle (``conftest``) return equal certificates (crossing and
orientation included), the capped one with no more flows, rooted at
every vertex and global for edges, and both find the brute-force
optimum; a later tie of smaller rank still wins.  A wrapped sink loop
shows that every sink it skips has a brute-force minimum cut at least
the cap in force when it skipped it.  The global vertex oracle runs its
roots in order of decreasing capacity, in both orientations, and stops
once the roots done weigh more than the best cut: one of them then lies
outside an optimal separator, on its source side or in its sink, and the
forward or the reverse run at that root finds the optimum.  It runs other
flows than the plain pair loop, so it is checked against it and the
brute force by value, raises exactly when no cut exists, and its
certificate is re-validated in its own orientation; it equals the
certificate of the same root loop with every capped flow run
(``conftest``), with no more flows.  On the benchmark's
planted-sink instances the capped oracle runs a few dozen of the 399
sink flows, and no flow carries more than one unit above the best
singleton.  The best flow below the cap stays pending and its
certificate is built once, at the end of the loop: a flow that a lower
one supersedes is never read, and a tie is read only when its sink lies
outside the pending cut's sink, since from inside it leaves that same
cut.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import (
    DiGraph,
    NoCutExistsError,
    VertexCapGraph,
    generate,
    parse_text,
    reverse,
)
from dircut import edgecut, vertexcut
from dircut.edgecut import _edge_oracle, _rooted_start, _sink_order
from dircut.vertexcut import _vertex_oracle

from conftest import (
    brute_global_vertex_cut,
    brute_min_rooted_cut,
    brute_min_separator,
    brute_min_st_cut,
    plain_edge_oracle,
    plain_vertex_oracle,
    probing_graphs,
    root_loop_vertex_oracle,
    probing_vertex_graphs,
    tiny_graphs,
    zero_heavy_graphs,
    zero_heavy_vertex_graphs,
)

#: Capacities with zeros and values near 2^70.
HUGE = st.sampled_from([0, 0, 1, 2**70])
HUGE_POSITIVE = st.sampled_from([1, 2**70, 2**70 + 1, 2**70 + 2])
SCALES = st.sampled_from([1, 3, 10**20])


def _outcome(oracle, g, root):
    """The oracle's CutResult, or the class of the ValueError it raised."""
    try:
        return oracle(g, root)
    except ValueError as exc:
        return type(exc)


@st.composite
def _rescaled(draw, graphs):
    """A drawn graph with its numerators read at a drawn scale."""
    g = draw(graphs)
    scale = draw(SCALES)
    if isinstance(g, DiGraph):
        return DiGraph(g.n, g.arcs_as_input(), scale=scale)
    return VertexCapGraph(g.n, g.arcs, g.vcaps, scale)


EDGE_GRAPHS = st.one_of(
    tiny_graphs(),
    probing_graphs(),
    _rescaled(zero_heavy_graphs()),
    _rescaled(zero_heavy_graphs(caps=HUGE)),
    _rescaled(probing_graphs()),
)

VERTEX_GRAPHS = st.one_of(
    _rescaled(zero_heavy_vertex_graphs()),
    _rescaled(zero_heavy_vertex_graphs(caps=HUGE)),
    _rescaled(probing_vertex_graphs(caps=HUGE_POSITIVE)),
)


def _same_answer(res, plain):
    """Equal certificates, or the same error class, and no more flows."""
    if isinstance(plain, type):
        return res is plain
    return res.certificate == plain.certificate and res.flow_calls <= plain.flow_calls


@settings(max_examples=200)
@given(EDGE_GRAPHS)
def test_capped_edge_oracle_equals_the_plain_one(g):
    for root in range(g.n):
        res = _edge_oracle(g, root)
        assert _same_answer(res, plain_edge_oracle(g, root))
        assert res.value == brute_min_rooted_cut(g, root)[0]
    res = _edge_oracle(g)
    assert _same_answer(res, plain_edge_oracle(g))
    assert res.value == min(brute_min_rooted_cut(g, 0)[0],
                            brute_min_rooted_cut(reverse(g), 0)[0])


@settings(max_examples=200)
@given(VERTEX_GRAPHS)
def test_capped_vertex_oracle_equals_the_plain_one(g):
    for root in range(g.n):
        res = _outcome(_vertex_oracle, g, root)
        assert _same_answer(res, _outcome(plain_vertex_oracle, g, root))
        values = [brute_min_separator(g, root, t) for t in range(g.n) if t != root]
        values = [v for v in values if v is not None]
        if values:
            assert res.value == min(values)
        else:
            assert res is NoCutExistsError
    res = _outcome(_vertex_oracle, g, None)
    plain = _outcome(plain_vertex_oracle, g, None)
    assert _same_answer(res, _outcome(lambda g, _: root_loop_vertex_oracle(g), g, None))
    opt = brute_global_vertex_cut(g)
    if opt is None:
        assert res is plain is NoCutExistsError
        return
    assert res.value == plain.value == opt
    cert = res.certificate
    arcs = g.arcs if cert.orientation == "forward" else [(v, u) for u, v in g.arcs]
    assert cert.sink_component and not cert.sink_component & cert.separator
    assert len(cert.sink_component | cert.separator) < g.n
    assert cert.separator == {u for u, v in arcs
                              if v in cert.sink_component and u not in cert.sink_component}
    assert cert.value == Fraction(sum(g.vcaps[w] for w in cert.separator), g.scale)


def _skipped_sinks(order, flows, cap):
    """The (sink, cap in force) of every sink of ``order`` that a sink loop
    starting at ``cap`` skipped, given the (sink, demand, value) of each
    flow it ran, in order; the loop ends at the first zero cut."""
    flows = iter(flows)
    pending = next(flows, None)
    skipped = []
    for t in order:
        if pending is None or pending[0] != t:
            skipped.append((t, cap))
            continue
        _, demand, value = pending
        assert demand == cap
        pending = next(flows, None)
        if value == 0:
            break
        cap = min(cap, value + 1)
    assert pending is None, "a flow ran out of the visit order"
    return skipped


def _split_base(split, source):
    """The root and the vertex graph whose split graph ``split`` is."""
    n = split.n // 2
    return source - n, VertexCapGraph(n, [(u - n, v) for u, v, _ in split.arcs[n:]],
                                      [c for _, _, c in split.arcs[:n]], split.scale)


def _recorded_skips(oracle, g, root):
    """Runs ``oracle(g, root)`` with every sink loop wrapped, and returns
    per loop its flow graph, source and skipped sinks."""
    loops, flows = [], []
    real_loop, real_flow = edgecut.capped_sinks, edgecut.max_flow

    def recording_flow(graph, source, sink, demands):
        res = real_flow(graph, source, sink, demands=demands)
        [(t, demand)] = demands
        flows.append((t, demand, res.value))
        return res

    def recording_loop(flow_graph, source, sinks, cap, credit, start, extract):
        flows.clear()
        out = real_loop(flow_graph, source, sinks, cap, credit, start, extract)
        order = _sink_order(sinks, credit, start)
        loops.append((flow_graph, source, _skipped_sinks(order, flows, cap)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edgecut, "max_flow", recording_flow)
        mp.setattr(edgecut, "capped_sinks", recording_loop)
        mp.setattr(vertexcut, "capped_sinks", recording_loop)
        _outcome(oracle, g, root)
    return loops


@settings(max_examples=150)
@given(EDGE_GRAPHS)
def test_edge_sinks_skipped_by_their_credit_are_at_least_the_cap(g):
    for root in [*range(g.n), None]:
        for flow_graph, source, skipped in _recorded_skips(_edge_oracle, g, root):
            for t, cap in skipped:
                assert brute_min_st_cut(flow_graph, source, t) >= flow_graph.value(cap)


@settings(max_examples=150)
@given(VERTEX_GRAPHS)
def test_vertex_sinks_skipped_by_their_credit_are_at_least_the_cap(g):
    for root in [*range(g.n), None]:
        for split, source, skipped in _recorded_skips(_vertex_oracle, g, root):
            r, h = _split_base(split, source)
            for t, cap in skipped:
                assert brute_min_separator(h, r, t) >= h.value(cap)


def test_sink_order_on_a_fixed_credit_table():
    # vertex 0 starts the search and is no sink; 4 and 7 are reached only
    # along zero pairs or not at all, so they come first, in their given
    # order, and the others follow in breadth-first order of first enqueue
    credit = [
        [(3, 2), (1, 0), (3, 1)],  # a zero pair to 1 and a duplicate pair to 3
        [(2, 5)],
        [(6, 1)],
        [(5, 1), (4, 0), (5, 2)],
        [],
        [(1, 3), (3, 1)],
        [(2, 1)],
        [(2, 4)],
    ]
    assert _sink_order(list(range(1, 8)), credit, [0]) == [4, 7, 3, 5, 1, 2, 6]
    assert _sink_order([2, 4, 5], credit, [0]) == [4, 5, 2]

def test_a_later_tie_of_smaller_rank_is_kept():
    # sink 1 finds the cut {1, 2} of value 1 first; sink 3's cut {3} has
    # the same value and a smaller sink, so it wins only if the cap after
    # the first cut is 2, not 1
    g = DiGraph(4, [(0, 1, 1), (1, 2, 5), (2, 1, 5), (0, 3, 1)])
    res = _edge_oracle(g, 0)
    assert res == plain_edge_oracle(g, 0)
    assert res.certificate.sink_set == frozenset([3])


def _extractions(monkeypatch):
    """Wraps the edge oracle's flows and certificate extractions: returns
    the (sink, result) of each flow and the results extracted, in order."""
    flows, extracted = [], []
    max_flow, extract = edgecut.max_flow, edgecut.min_cut_sink_side

    def recording_max_flow(graph, source, sink, demands):
        res = max_flow(graph, source, sink, demands=demands)
        flows.append((demands[0][0], res))
        return res

    def recording_extract(res):
        extracted.append(res)
        return extract(res)

    monkeypatch.setattr(edgecut, "max_flow", recording_max_flow)
    monkeypatch.setattr(edgecut, "min_cut_sink_side", recording_extract)
    return flows, extracted


def test_a_superseded_flow_is_never_extracted(monkeypatch):
    # sinks run in the order 1, 2, 3: sink 1's flow finds its singleton
    # cut of value 4, then sink 2's finds the cut {2, 3} of value 2, below
    # it, and sink 3's ties it from inside that sink; only sink 2's flow
    # is extracted, once, when the loop ends
    g = DiGraph(4, [(0, 1, 4), (0, 2, 1), (0, 3, 1), (2, 3, 10), (3, 2, 10)])
    flows, extracted = _extractions(monkeypatch)
    res = _edge_oracle(g, 0)
    assert [(t, flow.value) for t, flow in flows] == [(1, 4), (2, 2), (3, 2)]
    assert extracted == [flows[1][1]]
    assert res == plain_edge_oracle(g, 0)
    assert res.certificate.sink_set == frozenset([2, 3])


@pytest.mark.parametrize("graph_seed", [7, 8])
def test_planted_sink_oracle_extracts_only_ties_outside_the_pending_sink(graph_seed,
                                                                        monkeypatch):
    # every vertex of the planted sink finds the same cut; only the first
    # flow below the cap, and ties from sinks outside its sink, are read
    g = parse_text(generate("planted-sink", seed=graph_seed, n=400,
                            sink_size=4, volume=12, value=5).text)
    flows, extracted = _extractions(monkeypatch)
    res = _edge_oracle(g, root=0)
    assert len(flows) == res.flow_calls == {7: 9, 8: 7}[graph_seed]
    assert len(extracted) == {7: 3, 8: 1}[graph_seed]
    assert res.value == 5


@pytest.mark.parametrize("graph_seed", [7, 8])
def test_planted_sink_oracle_flows_stop_one_above_the_best_singleton(graph_seed,
                                                                     monkeypatch):
    # the benchmark's planted-rooted parameters at n=400; an uncapped flow
    # into a sink of large in-weight carries far more than the bound.  Of
    # the 399 sinks, all but a few are certified by the arcs from the root
    # and from sinks certified before them, with no flow
    g = parse_text(generate("planted-sink", seed=graph_seed, n=400,
                            sink_size=4, volume=12, value=5).text)
    values = []
    max_flow = edgecut.max_flow

    def recording_max_flow(*args, **kwargs):
        res = max_flow(*args, **kwargs)
        values.append(res.value)
        return res

    monkeypatch.setattr(edgecut, "max_flow", recording_max_flow)
    res = _edge_oracle(g, root=0)
    singleton = _rooted_start(g, 0)[1]  # the root reaches every vertex
    assert len(singleton.sink_set) == 1
    bound = singleton.value * g.scale + 1
    assert res.flow_calls == len(values) == {7: 9, 8: 7}[graph_seed]
    assert max(values) <= bound
    assert res.value == 5
