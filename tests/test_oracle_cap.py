"""The capped exact oracles against the plain per-sink oracles.

Each library oracle runs its per-sink flows through one demand arc of
capacity one above the best cut so far, so a flow stops once it cannot
win.  These tests check that the cap changes nothing but the work: on
small graphs with parallel, zero, near-2^70 and infinite arcs, at
rational scales, the capped and the plain oracle (``conftest``) return
equal ``CutResult``s, certificate (crossing and orientation included) and
flow count alike, rooted at every vertex and global for edges, and both
find the brute-force optimum; a later tie of smaller rank still wins.
The global vertex oracle runs its roots in order of decreasing capacity,
in both orientations, and stops once the roots done weigh more than the
best cut: one of them then lies outside an optimal separator, on its
source side or in its sink, and the forward or the reverse run at that
root finds the optimum.  It runs other flows than the plain pair loop, so
it is checked against it and the brute force by value, raises exactly
when no cut exists, and its certificate is re-validated in its own
orientation.  On the benchmark's planted-sink instances the capped oracle
still runs one flow per sink, and no flow carries more than one unit
above the best singleton.
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
from dircut import edgecut
from dircut.edgecut import _edge_oracle, _min_singleton_cut
from dircut.vertexcut import _vertex_oracle

from conftest import (
    brute_global_vertex_cut,
    brute_min_rooted_cut,
    brute_min_separator,
    plain_edge_oracle,
    plain_vertex_oracle,
    probing_graphs,
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


@settings(max_examples=200)
@given(EDGE_GRAPHS)
def test_capped_edge_oracle_equals_the_plain_one(g):
    for root in range(g.n):
        res = _edge_oracle(g, root)
        assert res == plain_edge_oracle(g, root)
        assert res.value == brute_min_rooted_cut(g, root)[0]
    res = _edge_oracle(g)
    assert res == plain_edge_oracle(g)
    assert res.value == min(brute_min_rooted_cut(g, 0)[0],
                            brute_min_rooted_cut(reverse(g), 0)[0])


@settings(max_examples=200)
@given(VERTEX_GRAPHS)
def test_capped_vertex_oracle_equals_the_plain_one(g):
    for root in range(g.n):
        res = _outcome(_vertex_oracle, g, root)
        assert res == _outcome(plain_vertex_oracle, g, root)
        values = [brute_min_separator(g, root, t) for t in range(g.n) if t != root]
        values = [v for v in values if v is not None]
        if values:
            assert res.value == min(values)
        else:
            assert res is NoCutExistsError
    res = _outcome(_vertex_oracle, g, None)
    plain = _outcome(plain_vertex_oracle, g, None)
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


def test_a_later_tie_of_smaller_rank_is_kept():
    # sink 1 finds the cut {1, 2} of value 1 first; sink 3's cut {3} has
    # the same value and a smaller sink, so it wins only if the cap after
    # the first cut is 2, not 1
    g = DiGraph(4, [(0, 1, 1), (1, 2, 5), (2, 1, 5), (0, 3, 1)])
    res = _edge_oracle(g, 0)
    assert res == plain_edge_oracle(g, 0)
    assert res.certificate.sink_set == frozenset([3])


@pytest.mark.parametrize("graph_seed", [7, 8])
def test_planted_sink_oracle_flows_stop_one_above_the_best_singleton(graph_seed,
                                                                     monkeypatch):
    # the benchmark's planted-rooted parameters at n=400; an uncapped flow
    # into a sink of large in-weight carries far more than the bound
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
    bound = _min_singleton_cut(g, 0).value * g.scale + 1
    assert res.flow_calls == len(values) == 399
    assert max(values) <= bound
    assert res.value == 5
