"""Differential test of the four global entry points against brute force.

On small graphs, half of them with half the capacities zero and half
with positive capacities only (so that the searches run), every
certificate, re-summed in its own orientation from the arc list, equals
its value; exact-small returns the brute-force optimum; and approx lies in
[opt, (1+epsilon)*opt].
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircut import (
    DiGraph,
    NoCutExistsError,
    approx_global_edge_cut,
    approx_global_vertex_cut,
    exact_small_edge_cut,
    exact_small_vertex_cut,
)

from conftest import (
    brute_global_vertex_cut,
    brute_min_rooted_cut,
    cut_value,
    zero_heavy_graphs,
    zero_heavy_vertex_graphs,
)

EPSILON = "0.2"
FACTOR = 1 + Fraction(EPSILON)
POSITIVE = st.integers(1, 9)


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


def _assert_valid_global_vertex_cut(g, cert):
    arcs = g.arcs if cert.orientation == "forward" else [(v, u) for u, v in g.arcs]
    sink, sep = cert.sink_component, cert.separator
    assert sink and not sink & sep
    assert len(sink) + len(sep) < g.n, "some vertex must lie outside the cut"
    assert {u for u, v in arcs if v in sink and u not in sink} == set(sep)
    assert Fraction(sum(g.vcaps[w] for w in sep), g.scale) == cert.value


@settings(max_examples=300)
@given(st.one_of(zero_heavy_vertex_graphs(), zero_heavy_vertex_graphs(caps=POSITIVE)))
def test_global_vertex_entry_points(g):
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
