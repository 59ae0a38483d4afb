"""Differential test of the four global entry points against brute force.

On small graphs, half of them with half the capacities zero and half
with positive capacities only (so that the searches run), every
certificate, re-summed in its own orientation from the arc list, equals
its value; exact-small returns the brute-force optimum; and approx lies in
[opt, (1+epsilon)*opt].  The edge entry points also run on graphs with
parallel, zero, near-2^70 and infinite arcs at scales 1-3, half of them
drawn so that the searches probe, and the vertex entry points on
capacities up to 2^70+2 and at rational scales.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import (
    DiGraph,
    NoCutExistsError,
    VertexCapGraph,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    exact_small_edge_cut,
    exact_small_vertex_cut,
)

from conftest import (
    brute_global_vertex_cut,
    brute_min_rooted_cut,
    cut_value,
    probing_graphs,
    probing_vertex_graphs,
    tiny_graphs,
    zero_heavy_graphs,
    zero_heavy_vertex_graphs,
)

EPSILON = "0.2"
FACTOR = 1 + Fraction(EPSILON)
POSITIVE = st.integers(1, 9)
#: Vertex capacities up to 2^70+2, zero-heavy and positive.
HUGE = st.sampled_from([0, 0, 1, 2**70])
HUGE_POSITIVE = st.sampled_from([1, 2**70, 2**70 + 1, 2**70 + 2])


@settings(max_examples=300)
@given(st.one_of(zero_heavy_graphs(), zero_heavy_graphs(caps=POSITIVE)))
def test_global_edge_entry_points(g):
    rev = DiGraph(g.n, [(v, u, c) for u, v, c in g.arcs], scale=g.scale)
    opt = min(brute_min_rooted_cut(g, 0)[0], brute_min_rooted_cut(rev, 0)[0])
    approx = approx_global_edge_cut(g, EPSILON, seed=1)
    small = exact_small_edge_cut(g, seed=1)
    for res in (approx, small):
        sink = res.certificate.sink_set
        assert sink and 0 not in sink
        base = g if res.orientation == "forward" else rev
        assert cut_value(base, sink) == res.value
    assert small.value == opt
    assert opt <= approx.value <= opt * FACTOR


@settings(max_examples=150, deadline=None)
@given(st.one_of(tiny_graphs(), probing_graphs()))
def test_global_edge_entry_points_on_infinite_and_huge_arcs(g):
    rev = DiGraph(g.n, [(v, u, c) for u, v, c in g.arcs_as_input()], scale=g.scale)
    opt = min(brute_min_rooted_cut(g, 0)[0], brute_min_rooted_cut(rev, 0)[0])
    runs = ((approx_global_edge_cut(g, EPSILON, seed=1), FACTOR),
            (exact_small_edge_cut(g, seed=1), 1))
    for res, factor in runs:
        sink = res.certificate.sink_set
        assert sink and 0 not in sink
        base = g if res.orientation == "forward" else rev
        if opt < g.value(g.inf_value):
            # a finite cut exists, and the answer is one within the factor
            assert cut_value(base, sink) == res.value
            assert opt <= res.value <= opt * factor
        else:
            # every cut crosses an infinite arc, and so does the answer
            assert any(i in base.inf_arcs for i, (t, h, _) in enumerate(base.arcs)
                       if h in sink and t not in sink)


def _assert_valid_global_vertex_cut(g, cert):
    arcs = g.arcs if cert.orientation == "forward" else [(v, u) for u, v in g.arcs]
    sink, sep = cert.sink_component, cert.separator
    assert sink and not sink & sep
    assert len(sink) + len(sep) < g.n, "some vertex must lie outside the cut"
    assert {u for u, v in arcs if v in sink and u not in sink} == set(sep)
    assert Fraction(sum(g.vcaps[w] for w in sep), g.scale) == cert.value


def _check_global_vertex_entry_points(g):
    opt = brute_global_vertex_cut(g)
    if opt is None:  # complete digraph
        with pytest.raises(NoCutExistsError):
            approx_global_vertex_cut(g, EPSILON, seed=1)
        with pytest.raises(NoCutExistsError):
            exact_small_vertex_cut(g, seed=1)
        return
    approx = approx_global_vertex_cut(g, EPSILON, seed=1)
    small = exact_small_vertex_cut(g, seed=1)
    for res in (approx, small):
        _assert_valid_global_vertex_cut(g, res.certificate)
    assert small.value == opt
    assert opt <= approx.value <= opt * FACTOR


@settings(max_examples=300)
@given(st.one_of(zero_heavy_vertex_graphs(), zero_heavy_vertex_graphs(caps=POSITIVE)))
def test_global_vertex_entry_points(g):
    _check_global_vertex_entry_points(g)


@settings(max_examples=100, deadline=None)
@given(st.one_of(zero_heavy_vertex_graphs(caps=HUGE),
                 zero_heavy_vertex_graphs(caps=HUGE_POSITIVE),
                 probing_vertex_graphs(caps=HUGE_POSITIVE)))
def test_global_vertex_entry_points_on_huge_capacities(g):
    _check_global_vertex_entry_points(g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(zero_heavy_vertex_graphs(), zero_heavy_vertex_graphs(caps=POSITIVE),
                 probing_vertex_graphs(caps=POSITIVE)), st.integers(2, 7))
def test_global_vertex_entry_points_at_a_rational_scale(g, scale):
    _check_global_vertex_entry_points(VertexCapGraph(g.n, g.arcs, g.vcaps, scale))
